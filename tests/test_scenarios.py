"""Model assembly, symmetry maps, splitting, and manufactured solutions."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from evobeam.core import (
    NumericError,
    ParameterError,
    SpaceTag,
    StateLayout,
    TimeSeries,
    build_grid,
    energy,
    gaussian_envelope,
)
from evobeam.integrate import SchemeParams, factor, run
from evobeam.scenarios import (
    SCENARIOS,
    FullDynamicParams,
    SturmLiouvilleParams,
    TimoshenkoParams,
    TraceBinding,
    apply_sign_flip,
    consistent_initial_state,
    embed_block,
    field_sampler,
    make_full_dynamic,
    make_sturm_liouville,
    make_timoshenko_damped,
    manufactured_source,
    reconstruct_displacements,
    sign_flip_vector,
    split_model,
    timoshenko_mms_fields,
)
from evobeam.scenarios import _assemble
from evobeam.wellposed import NevanlinnaSpec
from oracles import timoshenko_mms_reference


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
    # kappa1 lives on the 4 nodes 1..N of this grid, not on all 5
    grid = build_grid(4)
    for wrong in (np.ones(5), np.ones(3), np.ones((4, 1)), np.ones((1, 4))):
        with pytest.raises(ParameterError, match="^kappa1 sampled on the wrong block length$"):
            make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, kappa1=wrong))


def test_coefficient_samples_checked():
    # d lives on the 3 interior nodes; a float is broadcast to the block
    grid = build_grid(4)
    model = make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, kappa1=2.0))
    assert np.array_equal(model.m0[model.layout.slice_of("V1")], np.full(4, 2.0))
    for bad in (np.inf, np.array([1.0, np.inf, 1.0, 1.0]), np.array([1.0, 1.0, np.nan, 1.0])):
        with pytest.raises(NumericError, match="^coefficient samples must be finite$"):
            make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, kappa1=bad))
    for bad in (0.0, np.array([1.0, 0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0, -0.5])):
        with pytest.raises(ParameterError, match="^kappa1 must be strictly positive everywhere$"):
            make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, kappa1=bad))
    make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, d=np.array([0.0, 0.1, 0.0])))
    for bad in (-0.1, np.array([0.0, -1e-300, 0.0])):
        with pytest.raises(ParameterError, match="^d must be nonnegative everywhere$"):
            make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, d=bad))


def test_timoshenko_trace_row():
    # the boundary law d/dt(I_tilde tau) + c tau = V1(1/2-0) + g sits in
    # one row: I_tilde in m0, c on M1, -1 on A against the last V1 node
    grid = build_grid(4)
    model = make_timoshenko_damped(grid, TimoshenkoParams(c=0.5, I_tilde=0.25))
    tau = model.layout.offset_of("tau_plus")
    assert model.m0[tau] == 0.25
    assert model.M1[tau, tau] == 0.5
    arow = model.A[tau].toarray().ravel()
    expected = np.zeros(model.layout.dim)
    expected[_last_v1(model.layout)] = -1.0
    assert np.array_equal(arow, expected)
    assert model.traces["tau_plus"] == TraceBinding("eta", +0.5, -1.0)


# (field, endpoint, sign) of each trace slot, in layout order
TRACE_BINDINGS = {
    "timoshenko_damped": {"tau_plus": ("eta", 0.5, -1.0)},
    "dynamic_inertia": {"tau_plus": ("eta", 0.5, -1.0)},
    "full_dynamic": {
        "tau0_minus": ("eta", -0.5, 1.0),
        "tau0_plus": ("eta", 0.5, -1.0),
        "tau1_minus": ("V2", -0.5, 1.0),
        "tau1_plus": ("V2", 0.5, -1.0),
    },
    "sturm_liouville": {"tau_minus": ("V1", -0.5, 1.0), "tau_plus": ("V1", 0.5, -1.0)},
}


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_bindings_golden(name, n):
    spec = SCENARIOS[name]
    model = spec.make(build_grid(n), spec.defaults)
    bindings = [(k, (b.field, b.endpoint, b.sign)) for k, b in model.traces.items()]
    assert bindings == list(TRACE_BINDINGS[name].items())
    assert tuple(model.traces) == model.layout.trace_names()


# each scenario's defaults, and two mixed cases: a massless and a
# dashpot-free trace on full_dynamic, and the parabolic potential law
TRACE_LAW_CASES = [(name, spec.make, spec.defaults) for name, spec in sorted(SCENARIOS.items())] + [
    (
        "full_dynamic-mixed",
        make_full_dynamic,
        FullDynamicParams(mu_plus=NevanlinnaSpec(0.0, 0.5), nu_minus=NevanlinnaSpec(2.0, 0.0)),
    ),
    ("sturm_liouville-parabolic", make_sturm_liouville, SturmLiouvilleParams(s0=0.0, s1=1.0)),
]


def _param_laws(params) -> dict:
    """Each trace slot's law, as the scenario's params state it."""
    if isinstance(params, TimoshenkoParams):
        return {"tau_plus": NevanlinnaSpec(params.I_tilde, params.c)}
    if isinstance(params, FullDynamicParams):
        names = {"tau0_minus": "mu_minus", "tau0_plus": "mu_plus", "tau1_minus": "nu_minus", "tau1_plus": "nu_plus"}
    else:
        names = {"tau_minus": "mu_minus", "tau_plus": "mu_plus"}
    return {slot: getattr(params, name) for slot, name in names.items()}


@pytest.mark.parametrize("n", [2, 8, 33])
@pytest.mark.parametrize("make,params", [c[1:] for c in TRACE_LAW_CASES], ids=[c[0] for c in TRACE_LAW_CASES])
def test_each_trace_slot_carries_its_law_on_the_diagonals(make, params, n):
    model = make(build_grid(n), params)
    assert model.m0.shape == (model.layout.dim,) and model.m0.dtype == np.float64
    assert list(model.traces) == list(model.layout.trace_names())
    laws = _param_laws(params)
    assert list(laws) == list(model.traces)
    for slot, law in laws.items():
        k = model.layout.offset_of(slot)
        assert (model.m0[k], model.M1[k, k]) == (law.mu0, law.mu1)
    # a diagonal is its own sign flip; a split keeps the entries of its blocks
    assert apply_sign_flip(model).m0.tobytes() == model.m0.tobytes()
    names = ("s", "V2", "tau1_minus", "tau1_plus") if "tau1_plus" in model.traces else model.layout.names[::-1]
    keep = model.layout.indices_of(names)
    assert split_model(model, names).m0.tobytes() == model.m0[keep].tobytes()


def test_a_negative_zero_trace_inertia_is_stored_as_zero():
    # an entry that a sparse inertia matrix would not store reads +0.0
    params = FullDynamicParams(mu_plus=NevanlinnaSpec(-0.0, 0.5))
    model = make_full_dynamic(build_grid(4), params)
    k = model.layout.offset_of("tau0_plus")
    assert model.m0[k] == 0.0 and not np.signbit(model.m0[k])


def test_timoshenko_inertia_diagonal():
    grid = build_grid(4)
    model = make_timoshenko_damped(
        grid, TimoshenkoParams(kappa1=2.0, nu1=3.0, nu2=4.0, kappa2=5.0, c=0.5, I_tilde=0.25)
    )
    d = model.m0
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
    d = np.full(lay.length_of("s"), params.d)
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
        "field": np.maximum(np.sin(7.0 * x), 0.0),
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
    assert model.m0[tau] == 1.0
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
    assert back.m0.tobytes() == model.m0.tobytes()
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
    sys_a = factor(model, scheme)
    sys_b = factor(flipped, scheme)
    s = sign_flip_vector(model.layout)
    u0 = rng.standard_normal(model.layout.dim)
    ts_a = run(sys_a, u0, lambda t: np.zeros(model.layout.dim))
    ts_b = run(sys_b, s * u0, lambda t: np.zeros(model.layout.dim))
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
    sys_a = factor(model, scheme)
    sys_b = factor(flipped, scheme)
    s = sign_flip_vector(model.layout)
    profile = embed_block(model.layout, "eta", np.cos(np.pi * model.layout.points_of("eta")))
    env = gaussian_envelope(0.2, 0.1)
    u0 = rng.standard_normal(model.layout.dim)
    ts_a = run(sys_a, u0, lambda t: profile * env(t))
    ts_b = run(sys_b, s * u0, lambda t: s * profile * env(t))
    assert np.array_equal(ts_b.snapshots, ts_a.snapshots * s[None, :])
    assert np.array_equal(ts_b.energy, ts_a.energy)


def test_full_dynamic_conserves_energy(rng):
    model = make_full_dynamic(build_grid(16), FullDynamicParams())
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    sys_ = factor(model, scheme)
    u0 = rng.standard_normal(model.layout.dim)
    ts = run(sys_, u0, lambda t: np.zeros(model.layout.dim))
    assert np.max(np.abs(ts.energy - ts.energy[0])) <= 1e-10 * max(1.0, ts.energy[0])


def test_full_dynamic_trace_damping_dissipates(rng):
    params = FullDynamicParams(mu_plus=NevanlinnaSpec(1.0, 0.5))
    model = make_full_dynamic(build_grid(16), params)
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    sys_ = factor(model, scheme)
    u0 = rng.standard_normal(model.layout.dim)
    ts = run(sys_, u0, lambda t: np.zeros(model.layout.dim))
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
    sys_ = factor(model, scheme)
    u0 = rng.standard_normal(model.layout.dim)
    ts = run(sys_, u0, lambda t: np.zeros(model.layout.dim))
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
    sys_full = factor(fd, scheme)
    sys_sub = factor(sub, scheme)
    u0_sub = rng.standard_normal(sub.layout.dim)
    idx = np.concatenate(
        [np.arange(*fd.layout.slice_of(n).indices(fd.layout.dim)) for n in group]
    )
    u0_full = np.zeros(fd.layout.dim)
    u0_full[idx] = u0_sub
    ts_full = run(sys_full, u0_full, lambda t: np.zeros(fd.layout.dim))
    ts_sub = run(sys_sub, u0_sub, lambda t: np.zeros(sub.layout.dim))
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
        name: rng.uniform(lo, hi, tags[name].block_length(n))
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
    sys_full = factor(fd, scheme)
    sys_sub = factor(sub, scheme)
    u0_sub = rng.standard_normal(sub.layout.dim)
    u0_full = np.zeros(fd.layout.dim)
    u0_full[idx] = u0_sub
    profile_sub = rng.standard_normal(sub.layout.dim)
    profile_full = np.zeros(fd.layout.dim)
    profile_full[idx] = profile_sub
    env = gaussian_envelope(0.2, 0.1)
    ts_full = run(sys_full, u0_full, lambda t: profile_full * env(t))
    ts_sub = run(sys_sub, u0_sub, lambda t: profile_sub * env(t))
    assert np.array_equal(ts_full.snapshots[:, idx], ts_sub.snapshots)
    rest = np.setdiff1d(np.arange(fd.layout.dim), idx)
    assert not ts_full.snapshots[:, rest].any()
    for name in ("tau0_minus", "tau0_plus"):
        assert np.array_equal(ts_full.traces[name], ts_sub.traces[name])


def test_consistent_initial_state_solves_algebraic_slot():
    # with I_tilde = 0 the trace row reads c*tau = V1(1/2-0) at t = 0
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5, I_tilde=0.0))
    lay = model.layout
    u = np.zeros(lay.dim)
    u[lay.slice_of("V1")] = 0.2
    u[_last_v1(lay)] = 0.8
    out = consistent_initial_state(model, u)
    assert out[lay.offset_of("tau_plus")] == 1.6
    mask = np.ones(lay.dim, dtype=bool)
    mask[lay.offset_of("tau_plus")] = False
    assert np.array_equal(out[mask], u[mask])


def test_consistent_initial_state_noop_without_algebraic_slots():
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5, I_tilde=0.1))
    u = np.zeros(model.layout.dim)
    u[:] = 0.7
    out = consistent_initial_state(model, u)
    assert out is not u
    assert np.array_equal(out, u)


def test_consistent_initial_state_parabolic_residual(rng):
    model = make_sturm_liouville(
        build_grid(8), SturmLiouvilleParams(s0=0.0, s1=0.5)
    )
    u = rng.standard_normal(model.layout.dim)
    out = consistent_initial_state(model, u)
    K = (model.M1 + model.A).tocsr()
    alg = np.where(model.m0 == 0.0)[0]
    res = (K @ out)[alg]
    assert np.max(np.abs(res)) < 1e-12
    dif = np.setdiff1d(np.arange(model.layout.dim), alg)
    assert np.array_equal(out[dif], u[dif])


def test_consistent_initial_state_refuses_a_singular_algebraic_block():
    # parabolic eta with its M1 entries zeroed: the eta rows of M1 + A
    # vanish on the eta slots, so nothing determines them
    model = make_sturm_liouville(build_grid(8), SturmLiouvilleParams(s0=0.0, s1=1.0))
    m1 = model.M1.diagonal()
    m1[model.layout.slice_of("eta")] = 0.0
    model = replace(model, M1=sp.diags(m1, format="csr"))
    with pytest.raises(ParameterError, match="^algebraic slots are not solvable: "):
        consistent_initial_state(model, np.ones(model.layout.dim))


def test_exact_state_fills_traces_from_bindings():
    model = make_sturm_liouville(build_grid(8), SturmLiouvilleParams())
    f = lambda x: lambda t: x**2 + t
    state = field_sampler(model, {"V1": f})(0.25)
    assert state[model.layout.offset_of("tau_minus")] == pytest.approx(0.5)
    assert state[model.layout.offset_of("tau_plus")] == pytest.approx(-0.5)


def test_exact_state_leaves_a_trace_without_a_closed_form_field_at_zero():
    # both traces bind V1, which has no closed form here
    model = make_sturm_liouville(build_grid(8), SturmLiouvilleParams())
    state = field_sampler(model, {"eta": lambda x: lambda t: x + t})(0.25)
    lay = model.layout
    assert np.array_equal(state[lay.slice_of("eta")], lay.points_of("eta") + 0.25)
    assert state[lay.offset_of("tau_minus")] == 0.0 and state[lay.offset_of("tau_plus")] == 0.0
    assert not state[lay.slice_of("V1")].any()


def test_manufactured_source_vanishes_on_zero_fields():
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5))
    zero = {n: (lambda x: lambda t: np.zeros_like(x)) for n in model.layout.field_names()}
    F = manufactured_source(model, zero, zero)
    assert np.array_equal(F(0.3), np.zeros(model.layout.dim))


def test_manufactured_source_trace_row_carries_boundary_data():
    # the exact trace is identically zero for this family, yet the trace
    # row of the source must equal -(-V1(1/2,t)) = pi cos(w t + 0.3)
    fields, dfields = timoshenko_mms_fields()
    model = make_timoshenko_damped(build_grid(8), TimoshenkoParams(c=0.5, I_tilde=0.0))
    F = manufactured_source(model, fields, dfields)
    tau = model.layout.offset_of("tau_plus")
    for t in (0.0, 0.37, 1.1):
        assert F(t)[tau] == pytest.approx(np.pi * np.cos(2 * t + 0.3), rel=1e-13)
        exact = field_sampler(model, fields)(t)
        assert abs(exact[tau]) < 1e-15


@pytest.mark.parametrize("scenario", ["timoshenko_damped", "dynamic_inertia"])
@pytest.mark.parametrize("n", [8, 33, 256])
def test_manufactured_source_and_exact_state_match_the_written_out_family_bitwise(scenario, n):
    spec = SCENARIOS[scenario]
    model = spec.make(build_grid(n), spec.defaults)
    fields, rates = timoshenko_mms_fields()
    F = manufactured_source(model, fields, rates)
    # a converge level's last step time: t_end = 1 in round(1/h) steps
    steps = max(1, round(1.0 / model.grid.h))
    scheme = SchemeParams(dt=1.0 / steps, t_end=1.0, record_every=steps)
    exact_at = field_sampler(model, fields)
    ts = run(factor(model, scheme), exact_at(0.0), F)
    for t in (0.0, 0.37, 1.1, ts.times[-1]):
        u, source = timoshenko_mms_reference(model, t)
        assert np.array_equal(exact_at(t), u)
        assert np.array_equal(F(t), source)


def test_a_level_samples_its_fields_once_however_many_steps():
    model = make_timoshenko_damped(build_grid(8), TimoshenkoParams(c=0.5))
    calls = []

    def counted(family):
        return {name: (lambda field: lambda x: calls.append(x) or field(x))(field) for name, field in family.items()}

    fields, rates = map(counted, timoshenko_mms_fields())
    per_sampler = len(model.layout.field_names()) + len(model.traces)
    for steps in (1, 50):
        calls.clear()
        F = manufactured_source(model, fields, rates)
        run(factor(model, SchemeParams(dt=0.01, t_end=0.01 * steps)), np.zeros(model.layout.dim), F)
        assert len(calls) == 2 * per_sampler


def test_reconstruct_displacements_trapezoid():
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5))
    lay = model.layout
    times = np.array([0.0, 0.5, 1.0, 1.5])
    snaps = np.zeros((4, lay.dim))
    snaps[:, lay.slice_of("eta")] = 1.0
    ts = TimeSeries(times=times, energy=np.zeros(4), snapshots=snaps, layout=lay)
    phi0 = np.array([0.5, 0.0, -0.5, 1.0])
    disp = reconstruct_displacements(ts, initial={"eta": phi0})
    assert list(disp) == ["phi", "u"]
    assert np.allclose(disp["phi"], phi0[None, :] + times[:, None], rtol=0, atol=1e-14)
    assert np.array_equal(disp["u"], np.zeros((4, lay.length_of("s"))))


def test_reconstruct_displacements_requires_a_velocity_block():
    lay = StateLayout(build_grid(4), (("V1", SpaceTag.CENTER), ("tau", SpaceTag.TRACE)))
    ts = TimeSeries(times=np.array([0.0, 1.0]), energy=np.zeros(2), snapshots=np.zeros((2, lay.dim)), layout=lay)
    with pytest.raises(ParameterError, match="no velocity blocks to integrate"):
        reconstruct_displacements(ts)


def test_boundary_residual_decays_first_order():
    # V1(1/2) + c*eta(1/2) with eta read by one-sided quadratic
    # extrapolation of its last three centers (exact for quadratics): the
    # pair (tau, eta(1/2-0)) is only weakly identified, so the realized
    # residual decays like h (a bit faster in practice)
    c = 0.5
    res = []
    for n in (16, 32, 64):
        model = make_timoshenko_damped(build_grid(n), TimoshenkoParams(c=c, I_tilde=0.0))
        lay = model.layout
        u0 = np.zeros(lay.dim)
        xc = lay.points_of("eta")
        xv = lay.points_of("V1")
        u0[lay.slice_of("eta")] = np.sin(np.pi * (xc + 0.5) / 2)
        u0[lay.slice_of("V1")] = -c * np.sin(np.pi * (xv + 0.5) / 2)
        u0 = consistent_initial_state(model, u0)
        scheme = SchemeParams(dt=1.0 / n, t_end=1.0)
        sys_ = factor(model, scheme)
        ts = run(sys_, u0, lambda t: np.zeros(lay.dim))
        v1_last = ts.snapshots[:, _last_v1(lay)]
        worst = 0.0
        for k in range(len(ts)):
            v = ts.snapshots[k, lay.slice_of("eta")]
            eta_b = float((15.0 * v[-1] - 10.0 * v[-2] + 3.0 * v[-3]) / 8.0)
            worst = max(worst, abs(v1_last[k] + c * eta_b))
        res.append(worst)
    assert res[0] < 1.5e-3
    rates = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert all(r > 1.0 for r in rates)


def test_energy_of_exact_state_matches_quadrature():
    # all-ones state with unit coefficients: energy is the weighted sum of
    # m0 against the squares, 0.5*sum(w_i * m_i)
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5, I_tilde=2.0))
    u = np.zeros(model.layout.dim)
    u[:] = 1.0
    e = energy(u, model.m0, model.W)
    expected = 0.5 * float(np.sum(model.W * model.m0))
    assert e == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n", [2, 8, 33])
def test_assemble_zero_coupling_stores_nothing(n):
    # a zero coupling leaves M1's arrays as they are, so a coupling whose
    # strength defaults to 0 keeps the uncoupled matrices bitwise
    model = make_full_dynamic(build_grid(n), FullDynamicParams())
    m0 = {b: 1.0 for b in ("V1", "eta", "s", "V2")}
    args = (model.layout, m0, {"eta": 0.5}, _param_laws(FullDynamicParams()), [])
    plain = _assemble(*args)
    zero = _assemble(*args, couplings=(("eta", "V2", 0.0),))
    assert plain.m0.tobytes() == zero.m0.tobytes()
    for M in ("M1", "A"):
        a, b = getattr(plain, M), getattr(zero, M)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.indptr.tobytes() == b.indptr.tobytes()
        assert a.dtype == b.dtype and a.has_canonical_format == b.has_canonical_format


def test_assemble_coupling_is_w_skew():
    model = make_full_dynamic(build_grid(8), FullDynamicParams())
    coupled = _assemble(
        model.layout, {}, {}, _param_laws(FullDynamicParams()), [], couplings=(("eta", "V2", 1.5),)
    )
    M1 = coupled.M1.toarray()
    eta, V2 = model.layout.indices_of(("eta",)), model.layout.indices_of(("V2",))
    assert np.array_equal(M1[eta, V2], np.full(8, 1.5))
    assert np.array_equal(M1[V2, eta], np.full(8, -1.5))
    W = coupled.W
    assert np.array_equal(W[:, None] * M1, -(W[:, None] * M1).T)
