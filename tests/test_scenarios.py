"""Model assembly, symmetry maps, splitting, and manufactured solutions."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from evobeam.core import (
    CoefficientField,
    InsufficientDataError,
    ParameterError,
    SeparableSignal,
    SpaceTag,
    StateLayout,
    StateVector,
    TimeSeries,
    ZeroSignal,
    build_grid,
    energy,
    gaussian_envelope,
    zero_state,
)
from evobeam.integrate import SchemeParams, factor, run
from evobeam.scenarios import (
    FullDynamicParams,
    SturmLiouvilleParams,
    TimoshenkoParams,
    TraceBinding,
    apply_sign_flip,
    consistent_initial_state,
    embed_block,
    exact_state,
    extrapolate_to_boundary,
    make_full_dynamic,
    make_sturm_liouville,
    make_timoshenko_damped,
    manufactured_source,
    reconstruct_displacements,
    sign_flip_vector,
    split_model,
    timoshenko_mms_fields,
)
from evobeam.wellposed import NevanlinnaSpec


def _last_v1(layout):
    return layout.offset_of("V1") + layout.length_of("V1") - 1


def test_timoshenko_parameter_validation():
    grid = build_grid(4)
    with pytest.raises(ParameterError):
        make_timoshenko_damped(grid, TimoshenkoParams(c=0.0, I_tilde=0.0))
    with pytest.raises(ParameterError):
        make_timoshenko_damped(grid, TimoshenkoParams(c=-1.0))
    with pytest.raises(ParameterError):
        make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, sigma0=0.0))
    with pytest.raises(ParameterError):
        make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, kappa1=-1.0))
    with pytest.raises(ParameterError):
        make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, d=-0.1))


def test_coefficient_field_length_checked():
    grid = build_grid(4)
    wrong = CoefficientField.constant(1.0, grid, SpaceTag.NODE_ALL)
    with pytest.raises(ParameterError):
        make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, kappa1=wrong))


def test_timoshenko_trace_row():
    # the boundary law d/dt(I_tilde tau) + c tau = V1(1/2-0) + g sits in
    # one row: I_tilde on M0, c on M1, -1 on A against the last V1 node
    grid = build_grid(4)
    model = make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, I_tilde=0.25))
    tau = model.layout.offset_of("tau_plus")
    assert model.M0[tau, tau] == 0.25
    assert model.M1[tau, tau] == 0.5
    arow = model.A[tau].toarray().ravel()
    expected = np.zeros(model.layout.dim)
    expected[_last_v1(model.layout)] = -1.0
    assert np.array_equal(arow, expected)
    assert model.traces["tau_plus"] == TraceBinding("eta", +0.5, -1.0)


def test_timoshenko_inertia_diagonal():
    grid = build_grid(4)
    model = make_timoshenko_damped(
        grid, TimoshenkoParams(kappa1=2.0, nu1=3.0, nu2=4.0, kappa2=5.0, c=0.5, I_tilde=0.25)
    )
    d = model.M0.diagonal()
    lay = model.layout
    assert np.all(d[lay.slice_of("V1")] == 2.0)
    assert np.all(d[lay.slice_of("eta")] == 3.0)
    assert d[lay.offset_of("tau_plus")] == 0.25
    assert np.all(d[lay.slice_of("s")] == 4.0)
    assert np.all(d[lay.slice_of("V2")] == 5.0)


def test_rotation_coupling_lives_in_damping_operator():
    # the sigma0 coupling is antisymmetric and belongs to M1; the skew
    # operator must not duplicate it
    grid = build_grid(4)
    model = make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, sigma0=2.5))
    lay = model.layout
    M1 = model.M1.toarray()
    A = model.A.toarray()
    eta, v2 = lay.slice_of("eta"), lay.slice_of("V2")
    assert np.array_equal(M1[eta, v2], 2.5 * np.eye(4))
    assert np.array_equal(M1[v2, eta], -2.5 * np.eye(4))
    assert np.array_equal(A[eta, v2], np.zeros((4, 4)))
    assert np.array_equal(A[v2, eta], np.zeros((4, 4)))


def _lil_damping_reference(model, params):
    """M1 built entry by entry in a lil_matrix, which stores no zeros."""
    lay = model.layout
    M1 = sp.lil_matrix((lay.dim, lay.dim))
    tau = lay.offset_of("tau_plus")
    M1[tau, tau] = params.c
    d = params.d.values if isinstance(params.d, CoefficientField) else np.full(lay.length_of("s"), params.d)
    s_sl = lay.slice_of("s")
    M1[s_sl, s_sl] = sp.diags(d)
    eta, v2 = lay.offset_of("eta"), lay.offset_of("V2")
    for k in range(lay.length_of("eta")):
        M1[eta + k, v2 + k] = params.sigma0
        M1[v2 + k, eta + k] = -params.sigma0
    return sp.csr_matrix(M1)


@pytest.mark.parametrize("c", [0.0, 0.5])
@pytest.mark.parametrize("d", ["zero", "constant", "field"])
@pytest.mark.parametrize("n", [2, 8, 33, 256])
def test_timoshenko_damping_matrix_matches_lil_build_bitwise(n, d, c):
    tag = SpaceTag.NODE_INTERIOR
    x = build_grid(n).points(tag)
    d_value = {
        "zero": 0.0,
        "constant": 0.2,
        # zero on part of the beam, so some entries are dropped
        "field": CoefficientField(tag, np.maximum(np.sin(7.0 * x), 0.0)),
    }[d]
    params = TimoshenkoParams(c=c, I_tilde=0.1, d=d_value, sigma0=-1.5)
    model = make_timoshenko_damped(build_grid(n), params)
    got, ref = model.M1, _lil_damping_reference(model, params)
    assert got.format == ref.format == "csr" and got.shape == ref.shape
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(ref, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.has_canonical_format and ref.has_canonical_format


def test_dynamic_inertia_variant():
    grid = build_grid(4)
    model = make_timoshenko_damped(grid, TimoshenkoParams(c=0.0, I_tilde=1.0))
    tau = model.layout.offset_of("tau_plus")
    assert model.M0[tau, tau] == 1.0
    assert model.M1[tau, tau] == 0.0
    with pytest.raises(ParameterError):
        make_timoshenko_damped(grid, TimoshenkoParams(c=0.0, I_tilde=0.0))


def test_sign_flip_vector_targets_eta():
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5))
    s = sign_flip_vector(model.layout)
    assert np.all(s[model.layout.slice_of("eta")] == -1.0)
    mask = np.ones(model.layout.dim, dtype=bool)
    mask[model.layout.slice_of("eta")] = False
    assert np.all(s[mask] == 1.0)


def test_sign_flip_is_involution():
    model = make_timoshenko_damped(
        build_grid(4), TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.2, sigma0=1.5)
    )
    flipped = apply_sign_flip(model)
    eta, v2 = model.layout.slice_of("eta"), model.layout.slice_of("V2")
    assert np.array_equal(flipped.M1.toarray()[eta, v2], -1.5 * np.eye(4))
    assert flipped.traces["tau_plus"].sign == +1.0
    back = apply_sign_flip(flipped)
    assert (back.M0 - model.M0).nnz == 0
    assert (back.M1 - model.M1).nnz == 0
    assert (back.A - model.A).nnz == 0
    assert back.traces == model.traces


def test_sign_flip_requires_eta_block():
    fd = make_full_dynamic(build_grid(4), FullDynamicParams())
    sub = split_model(fd, ("s", "V2", "tau1_minus", "tau1_plus"))
    with pytest.raises(ParameterError):
        apply_sign_flip(sub)


def test_sign_flip_conjugates_solutions(rng):
    # U A U with U = diag(sign flip) is W-orthogonal, so trajectories of
    # the flipped model are the flipped trajectories
    model = make_timoshenko_damped(build_grid(8), TimoshenkoParams(c=0.5, d=0.3))
    flipped = apply_sign_flip(model)
    scheme = SchemeParams(dt=0.05, t_end=0.5)
    sys_a = factor(model.layout, model.W, model.M0, model.M1, model.A, scheme)
    sys_b = factor(flipped.layout, flipped.W, flipped.M0, flipped.M1, flipped.A, scheme)
    s = sign_flip_vector(model.layout)
    u0 = rng.standard_normal(model.layout.dim)
    ts_a = run(sys_a, StateVector(model.layout, u0), ZeroSignal(model.layout.dim))
    ts_b = run(sys_b, StateVector(model.layout, s * u0), ZeroSignal(model.layout.dim))
    assert np.max(np.abs(ts_b.snapshots - ts_a.snapshots * s[None, :])) < 1e-12
    assert np.max(np.abs(ts_b.energy - ts_a.energy)) < 1e-12


@pytest.mark.parametrize("n", [8, 33, 256])
def test_sign_flip_conjugates_solutions_bitwise(rng, n):
    # negating the eta block is exact, and the fill-reducing ordering
    # depends only on the sparsity pattern, which the flip keeps; both
    # systems therefore perform the same operations up to sign
    model = make_timoshenko_damped(build_grid(n), TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.3))
    flipped = apply_sign_flip(model)
    scheme = SchemeParams(dt=0.05, t_end=0.5)
    sys_a = factor(model.layout, model.W, model.M0, model.M1, model.A, scheme)
    sys_b = factor(flipped.layout, flipped.W, flipped.M0, flipped.M1, flipped.A, scheme)
    s = sign_flip_vector(model.layout)
    profile = embed_block(model.layout, "eta", np.cos(np.pi * model.layout.points_of("eta")))
    f_a = SeparableSignal(profile, gaussian_envelope(0.2, 0.1))
    f_b = SeparableSignal(s * profile, gaussian_envelope(0.2, 0.1))
    u0 = rng.standard_normal(model.layout.dim)
    ts_a = run(sys_a, StateVector(model.layout, u0), f_a)
    ts_b = run(sys_b, StateVector(model.layout, s * u0), f_b)
    assert np.array_equal(ts_b.snapshots, ts_a.snapshots * s[None, :])
    assert np.array_equal(ts_b.energy, ts_a.energy)


def test_full_dynamic_conserves_energy(rng):
    model = make_full_dynamic(build_grid(16), FullDynamicParams())
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    sys_ = factor(model.layout, model.W, model.M0, model.M1, model.A, scheme)
    u0 = StateVector(model.layout, rng.standard_normal(model.layout.dim))
    ts = run(sys_, u0, ZeroSignal(model.layout.dim))
    assert np.max(np.abs(ts.energy - ts.energy[0])) <= 1e-10 * max(1.0, ts.energy[0])


def test_full_dynamic_trace_damping_dissipates(rng):
    params = FullDynamicParams(mu_plus=NevanlinnaSpec(1.0, 0.5))
    model = make_full_dynamic(build_grid(16), params)
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    sys_ = factor(model.layout, model.W, model.M0, model.M1, model.A, scheme)
    u0 = StateVector(model.layout, rng.standard_normal(model.layout.dim))
    ts = run(sys_, u0, ZeroSignal(model.layout.dim))
    assert ts.energy[-1] < ts.energy[0]
    assert np.all(np.diff(ts.energy) <= 1e-12 * ts.energy[0])


def test_full_dynamic_rejects_negative_trace_law():
    with pytest.raises(ParameterError):
        make_full_dynamic(
            build_grid(4), FullDynamicParams(mu_minus=NevanlinnaSpec(-1.0, 0.0))
        )


def test_sturm_liouville_hyperbolic_conserves(rng):
    model = make_sturm_liouville(build_grid(16), SturmLiouvilleParams(s0=1.0))
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    sys_ = factor(model.layout, model.W, model.M0, model.M1, model.A, scheme)
    u0 = StateVector(model.layout, rng.standard_normal(model.layout.dim))
    ts = run(sys_, u0, ZeroSignal(model.layout.dim))
    assert np.max(np.abs(ts.energy - ts.energy[0])) <= 1e-10 * max(1.0, ts.energy[0])


def test_sturm_liouville_validation():
    grid = build_grid(4)
    with pytest.raises(ParameterError):
        make_sturm_liouville(grid, SturmLiouvilleParams(s0=0.0, s1=0.0))
    with pytest.raises(ParameterError):
        make_sturm_liouville(
            grid, SturmLiouvilleParams(mu_minus=NevanlinnaSpec(1.0, -0.5))
        )


def test_split_model_decoupled_group():
    fd = make_full_dynamic(build_grid(8), FullDynamicParams())
    sub = split_model(fd, ("V1", "eta", "tau0_minus", "tau0_plus"))
    assert sub.layout.names == ("V1", "eta", "tau0_minus", "tau0_plus")
    assert sub.layout.dim == 9 + 8 + 1 + 1
    assert set(sub.traces) == {"tau0_minus", "tau0_plus"}


def test_split_model_rejects_coupled_subset():
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5))
    with pytest.raises(ParameterError):
        split_model(model, ("V1", "eta"))
    with pytest.raises(ParameterError):
        split_model(model, ("nope",))


@pytest.mark.parametrize("n", [8, 33, 256])
def test_split_model_evolution_matches_full(rng, n):
    # the factored full system is block-decoupled, so the subsystem run
    # reproduces the corresponding coordinates bit for bit
    fd = make_full_dynamic(build_grid(n), FullDynamicParams())
    group = ("V1", "eta", "tau0_minus", "tau0_plus")
    sub = split_model(fd, group)
    scheme = SchemeParams(dt=0.05, t_end=0.5)
    sys_full = factor(fd.layout, fd.W, fd.M0, fd.M1, fd.A, scheme)
    sys_sub = factor(sub.layout, sub.W, sub.M0, sub.M1, sub.A, scheme)
    u0_sub = rng.standard_normal(sub.layout.dim)
    idx = np.concatenate(
        [np.arange(*fd.layout.slice_of(n).indices(fd.layout.dim)) for n in group]
    )
    u0_full = np.zeros(fd.layout.dim)
    u0_full[idx] = u0_sub
    ts_full = run(sys_full, StateVector(fd.layout, u0_full), ZeroSignal(fd.layout.dim))
    ts_sub = run(sys_sub, StateVector(sub.layout, u0_sub), ZeroSignal(sub.layout.dim))
    assert np.array_equal(ts_full.snapshots[:, idx], ts_sub.snapshots)
    rest = np.setdiff1d(np.arange(fd.layout.dim), idx)
    assert np.array_equal(ts_full.snapshots[:, rest], np.zeros_like(ts_full.snapshots[:, rest]))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_split_identity_bitwise_on_random_coefficients(n, seed):
    rng = np.random.default_rng(seed)
    fields = {f"m_{b}": (0.2, 3.0) for b in ("V1", "eta", "s", "V2")}
    fields.update({f"g_{b}": (0.0, 2.0) for b in ("V1", "eta", "s", "V2")})
    tags = {f.name: f.metadata.get("tag") for f in FullDynamicParams.__dataclass_fields__.values()}
    samples = {
        name: CoefficientField(tags[name], rng.uniform(lo, hi, tags[name].block_length(n)))
        for name, (lo, hi) in fields.items()
    }
    laws = {
        name: NevanlinnaSpec(rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0))
        for name in ("mu_minus", "mu_plus", "nu_minus", "nu_plus")
    }
    params = FullDynamicParams(**samples, **laws)
    fd = make_full_dynamic(build_grid(n), params)
    group = ("V1", "eta", "tau0_minus", "tau0_plus")
    sub = split_model(fd, group)
    idx = fd.layout.indices_of(group)
    scheme = SchemeParams(dt=0.05, t_end=0.5, record_every=2)
    sys_full = factor(fd.layout, fd.W, fd.M0, fd.M1, fd.A, scheme)
    sys_sub = factor(sub.layout, sub.W, sub.M0, sub.M1, sub.A, scheme)
    u0_sub = rng.standard_normal(sub.layout.dim)
    u0_full = np.zeros(fd.layout.dim)
    u0_full[idx] = u0_sub
    profile_sub = rng.standard_normal(sub.layout.dim)
    profile_full = np.zeros(fd.layout.dim)
    profile_full[idx] = profile_sub
    env = gaussian_envelope(0.2, 0.1)
    ts_full = run(sys_full, StateVector(fd.layout, u0_full), SeparableSignal(profile_full, env))
    ts_sub = run(sys_sub, StateVector(sub.layout, u0_sub), SeparableSignal(profile_sub, env))
    assert np.array_equal(ts_full.snapshots[:, idx], ts_sub.snapshots)
    rest = np.setdiff1d(np.arange(fd.layout.dim), idx)
    assert not ts_full.snapshots[:, rest].any()
    for name in ("tau0_minus", "tau0_plus"):
        assert np.array_equal(ts_full.traces[name], ts_sub.traces[name])


def test_consistent_initial_state_solves_algebraic_slot():
    # with I_tilde = 0 the trace row reads c*tau = V1(1/2-0) at t = 0
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5, I_tilde=0.0))
    lay = model.layout
    u = zero_state(lay)
    u.values[lay.slice_of("V1")] = 0.2
    u.values[_last_v1(lay)] = 0.8
    out = consistent_initial_state(model, u)
    assert out.values[lay.offset_of("tau_plus")] == 1.6
    mask = np.ones(lay.dim, dtype=bool)
    mask[lay.offset_of("tau_plus")] = False
    assert np.array_equal(out.values[mask], u.values[mask])


def test_consistent_initial_state_noop_without_algebraic_slots():
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5, I_tilde=0.1))
    u = zero_state(model.layout)
    u.values[:] = 0.7
    out = consistent_initial_state(model, u)
    assert out is not u
    assert np.array_equal(out.values, u.values)


def test_consistent_initial_state_parabolic_residual(rng):
    model = make_sturm_liouville(
        build_grid(8), SturmLiouvilleParams(s0=0.0, s1=0.5)
    )
    u = StateVector(model.layout, rng.standard_normal(model.layout.dim))
    out = consistent_initial_state(model, u)
    K = (model.M1 + model.A).tocsr()
    alg = np.where(model.M0.diagonal() == 0.0)[0]
    res = (K @ out.values)[alg]
    assert np.max(np.abs(res)) < 1e-12
    dif = np.setdiff1d(np.arange(model.layout.dim), alg)
    assert np.array_equal(out.values[dif], u.values[dif])


def test_exact_state_fills_traces_from_bindings():
    model = make_sturm_liouville(build_grid(8), SturmLiouvilleParams())
    f = lambda x, t: x**2 + t
    state = exact_state(model, {"V1": f}, t=0.25)
    assert state.values[model.layout.offset_of("tau_minus")] == pytest.approx(0.5)
    assert state.values[model.layout.offset_of("tau_plus")] == pytest.approx(-0.5)


def test_manufactured_source_vanishes_on_zero_fields():
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5))
    zero = {n: (lambda x, t: np.zeros_like(x)) for n in model.layout.field_names()}
    F = manufactured_source(model, zero, zero)
    assert np.array_equal(F(0.3), np.zeros(model.layout.dim))


def test_manufactured_source_trace_row_carries_boundary_data():
    # the exact trace is identically zero for this family, yet the trace
    # row of the source must equal -(-V1(1/2,t)) = pi cos(w t + 0.3)
    fields, dfields = timoshenko_mms_fields(omega=2.0)
    model = make_timoshenko_damped(build_grid(8), TimoshenkoParams(c=0.5, I_tilde=0.0))
    F = manufactured_source(model, fields, dfields)
    tau = model.layout.offset_of("tau_plus")
    for t in (0.0, 0.37, 1.1):
        assert F(t)[tau] == pytest.approx(np.pi * np.cos(2 * t + 0.3), rel=1e-13)
        exact = exact_state(model, fields, t)
        assert abs(exact.values[tau]) < 1e-15


def test_extrapolate_to_boundary_exact_for_quadratics():
    grid = build_grid(8)
    x = grid.points(SpaceTag.CENTER)
    q = lambda x: 2.0 * x**2 - x + 0.5
    v = q(x)
    assert extrapolate_to_boundary(v, +1) == pytest.approx(q(0.5), abs=1e-14)
    assert extrapolate_to_boundary(v, -1) == pytest.approx(q(-0.5), abs=1e-14)
    with pytest.raises(InsufficientDataError):
        extrapolate_to_boundary(np.array([1.0, 2.0]), +1)


def test_reconstruct_displacements_trapezoid():
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5))
    lay = model.layout
    times = np.array([0.0, 0.5, 1.0, 1.5])
    snaps = np.zeros((4, lay.dim))
    snaps[:, lay.slice_of("eta")] = 1.0
    ts = TimeSeries(
        times=times, energy=np.zeros(4), traces={}, snapshots=snaps, layout=lay
    )
    phi0 = np.array([0.5, 0.0, -0.5, 1.0])
    disp = reconstruct_displacements(ts, initial={"eta": phi0})
    assert disp.layout.names == ("phi", "u")
    phi = disp.snapshots[:, disp.layout.slice_of("phi")]
    assert np.allclose(phi, phi0[None, :] + times[:, None], rtol=0, atol=1e-14)
    u = disp.snapshots[:, disp.layout.slice_of("u")]
    assert np.array_equal(u, np.zeros_like(u))
    assert np.array_equal(disp.energy, np.zeros(4))


def test_reconstruct_displacements_requires_snapshots():
    ts = TimeSeries(
        times=np.array([0.0, 1.0]),
        energy=np.zeros(2),
        traces={},
        snapshots=None,
        layout=None,
    )
    with pytest.raises(InsufficientDataError):
        reconstruct_displacements(ts)


def test_boundary_residual_decays_first_order():
    # V1(1/2) + c*eta(1/2) with eta read by one-sided extrapolation: the
    # pair (tau, eta(1/2-0)) is only weakly identified, so the realized
    # residual decays like h (a bit faster in practice)
    c = 0.5
    res = []
    for n in (16, 32, 64):
        model = make_timoshenko_damped(build_grid(n), TimoshenkoParams(c=c, I_tilde=0.0))
        lay = model.layout
        u0 = zero_state(lay)
        xc = lay.points_of("eta")
        xv = lay.points_of("V1")
        u0.values[lay.slice_of("eta")] = np.sin(np.pi * (xc + 0.5) / 2)
        u0.values[lay.slice_of("V1")] = -c * np.sin(np.pi * (xv + 0.5) / 2)
        u0 = consistent_initial_state(model, u0)
        scheme = SchemeParams(dt=1.0 / n, t_end=1.0)
        sys_ = factor(lay, model.W, model.M0, model.M1, model.A, scheme)
        ts = run(sys_, u0, ZeroSignal(lay.dim))
        v1_last = ts.snapshots[:, _last_v1(lay)]
        worst = 0.0
        for k in range(len(ts)):
            eta_b = extrapolate_to_boundary(ts.snapshots[k, lay.slice_of("eta")], +1)
            worst = max(worst, abs(v1_last[k] + c * eta_b))
        res.append(worst)
    assert res[0] < 1.5e-3
    rates = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert all(r > 1.0 for r in rates)


def test_energy_of_exact_state_matches_quadrature():
    # all-ones state with unit coefficients: energy is the weighted sum of
    # M0 against the squares, 0.5*sum(w_i * m_i)
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5, I_tilde=2.0))
    u = zero_state(model.layout)
    u.values[:] = 1.0
    e = energy(u, model.M0, model.W)
    expected = 0.5 * float(np.sum(model.W.diag * model.M0.diagonal()))
    assert e == pytest.approx(expected, rel=1e-14)
