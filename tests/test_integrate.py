"""Theta stepping: scalar oracles, energy identity, probes.

The scalar problem on a one-slot layout has a closed-form recurrence, so
the stepper is checked against it directly before anything model-sized.
"""

import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from evobeam import integrate
from evobeam.core import (
    NumericError,
    ParameterError,
    SpaceTag,
    StateLayout,
    bump_envelope,
    build_grid,
    gaussian_envelope,
    sinusoid_envelope,
    weighted_inner,
)
from evobeam.integrate import (
    SchemeParams,
    UndefinedRatioError,
    bound_probe,
    causality_probe,
    energy_balance_residual,
    factor,
    run,
    step,
)
from evobeam.scenarios import (
    AssembledModel,
    FullDynamicParams,
    SturmLiouvilleParams,
    TimoshenkoParams,
    embed_block,
    make_full_dynamic,
    make_sturm_liouville,
    make_timoshenko_damped,
)
from evobeam.wellposed import NevanlinnaSpec, coercivity


def _one_slot_model(m0, M1, A):
    """A model on one trace slot with unit weight and inertia m0, a scalar;
    M1 and A may be dense."""
    layout = StateLayout(build_grid(2), (("tau", SpaceTag.TRACE),))
    csr = sp.csr_matrix
    return AssembledModel(layout, np.ones(1), np.array([m0], dtype=float), csr(M1), csr(A), traces={})


def _scalar_system(gamma, dt, t_end, theta=0.5):
    model = _one_slot_model(1.0, [[gamma]], [[0.0]])
    scheme = SchemeParams(dt=dt, t_end=t_end, theta=theta)
    return model.layout, scheme, factor(model, scheme)


def _beam_system(n, params, scheme):
    model = make_timoshenko_damped(build_grid(n), params)
    sys_ = factor(model, scheme)
    return model, sys_


def test_scheme_params_validation():
    with pytest.raises(ParameterError):
        SchemeParams(dt=0.0, t_end=1.0)
    with pytest.raises(ParameterError):
        SchemeParams(dt=0.1, t_end=-1.0)
    with pytest.raises(ParameterError):
        SchemeParams(dt=0.1, t_end=1.0, theta=0.3)
    with pytest.raises(ParameterError):
        SchemeParams(dt=0.1, t_end=1.0, theta=1.1)
    with pytest.raises(ParameterError):
        SchemeParams(dt=0.1, t_end=1.0, record_every=0)
    with pytest.raises(ParameterError):
        SchemeParams(dt=0.1, t_end=1.0, rho=-0.5)
    assert SchemeParams(dt=0.1, t_end=1.0, rho=0.0).rho == 0.0


def test_scheme_params_refuse_a_float_record_every():
    # a whole float would reach run and fail there in numpy
    with pytest.raises(ParameterError, match="record_every"):
        SchemeParams(dt=0.1, t_end=1.0, record_every=2.0)


def test_scheme_params_refuse_a_nan_rho():
    with pytest.raises(ParameterError, match="rho"):
        SchemeParams(dt=0.1, t_end=1.0, rho=float("nan"))


def test_scheme_params_refuse_an_infinite_rho():
    # bound_probe would weight every state by exp(-2*inf*t), nan at t = 0
    with pytest.raises(ParameterError, match="rho must be finite"):
        SchemeParams(dt=0.05, t_end=1.0, rho=float("inf"))


def test_n_steps_rounding():
    assert SchemeParams(dt=0.1, t_end=1.0).n_steps == 10
    with pytest.raises(ParameterError, match="is not a whole number of steps"):
        SchemeParams(dt=0.3, t_end=1.0)
    assert SchemeParams(dt=0.25, t_end=1.0).n_steps == 4


@pytest.mark.parametrize("dt,t_end", [(0.3, 1.0), (1.0, 0.3)])
def test_scheme_params_refuse_a_t_end_that_is_not_a_whole_number_of_steps(dt, t_end):
    # a run ends at t_end, so a t_end that no whole number of steps reaches is refused
    with pytest.raises(ParameterError) as info:
        SchemeParams(dt=dt, t_end=t_end)
    assert str(info.value) == f"t_end = {t_end!r} is not a whole number of steps of dt = {dt!r}"


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 500),
    dt=st.floats(1e-6, 1e3),
    off=st.one_of(st.floats(-3e-9, 3e-9), st.floats(-0.5, 0.5), st.just(0.0)),
)
def test_run_ends_at_t_end_for_every_accepted_scheme(n, dt, off):
    t_end = n * dt * (1.0 + off)
    try:
        layout, scheme, sys_ = _scalar_system(0.5, dt, t_end)
    except ParameterError as exc:
        assert "is not a whole number of steps" in str(exc)
        return
    ts = run(sys_, np.ones(1), lambda t: np.zeros(layout.dim))
    assert abs(ts.times[-1] - t_end) <= 1e-9 * t_end


@pytest.mark.parametrize("record_every", [1, 3])
def test_step_and_run_share_one_kernel(record_every, monkeypatch):
    layout, scheme, sys_ = _scalar_system(0.5, 0.1, 1.2)
    sys_ = replace(sys_, scheme=replace(scheme, record_every=record_every))
    kernel, calls = integrate._advance, []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(integrate, "_advance", counting)
    z = lambda t: np.zeros(layout.dim)
    run(sys_, np.ones(1), z)
    assert len(calls) == 12
    calls.clear()
    step(sys_, np.ones(1), z(0.0))
    assert len(calls) == 1


def test_scalar_midpoint_recurrence():
    # homogeneous decay: u_{n+1} = (1 - (1-theta) g dt)/(1 + theta g dt) u_n
    gamma, dt, n = 0.8, 0.05, 100
    for theta in (0.5, 0.75, 1.0):
        layout, _, sys_ = _scalar_system(gamma, dt, t_end=n * dt, theta=theta)
        u = np.array([1.0])
        f0 = np.zeros(1)
        for _ in range(n):
            u = step(sys_, u, f0)
        factor_exact = (1 - (1 - theta) * gamma * dt) / (1 + theta * gamma * dt)
        assert abs(u[0] - factor_exact**n) < 1e-13


def test_scalar_global_second_order():
    # u' + u = cos t with u(0) = 1/2 has the exact solution
    # (cos t + sin t)/2, so the particular start isolates pure dt error
    def exact(t):
        return 0.5 * (math.cos(t) + math.sin(t))

    errs = []
    for m in (20, 40, 80):
        dt = 1.0 / m
        layout, scheme, sys_ = _scalar_system(1.0, dt, t_end=1.0)
        ts = run(sys_, np.array([0.5]), lambda t: np.array([math.cos(t)]))
        errs.append(abs(ts.snapshots[-1][0] - exact(1.0)))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.9 < r < 2.1 for r in rates)


def test_backward_euler_runs_but_has_no_balance_identity():
    layout, _, sys_ = _scalar_system(0.5, 0.1, t_end=1.0, theta=1.0)
    u0 = np.array([1.0])
    ts = run(sys_, u0, lambda t: np.zeros(1))
    assert ts.energy[-1] < ts.energy[0]
    u1 = ts.snapshots[1]
    with pytest.raises(ParameterError, match="energy balance identity requires theta = 1/2"):
        energy_balance_residual(sys_, u0, u1, np.zeros(1))


def test_energy_balance_exact_per_step(rng):
    scheme = SchemeParams(dt=0.02, t_end=1.0)
    model, sys_ = _beam_system(
        8, TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.3), scheme
    )
    u = rng.standard_normal(model.layout.dim)
    f = rng.standard_normal(model.layout.dim)
    for _ in range(5):
        u_next = step(sys_, u, f)
        res = energy_balance_residual(sys_, u, u_next, f)
        assert abs(res) < 1e-12
        u = u_next


def test_factor_rejects_singular_trace_slot():
    # zeroing the trace row and column leaves a slot that nothing
    # determines, which is exactly the ill-posed boundary law
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5, I_tilde=0.2))
    k = model.layout.offset_of("tau_plus")
    m0 = model.m0.copy()
    M1 = model.M1.tolil()
    A = model.A.tolil()
    m0[k] = 0.0
    M1[k, k] = 0.0
    A[k, :] = 0.0
    A[:, k] = 0.0
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    with pytest.raises(NumericError, match="stepping matrix is singular"):
        factor(replace(model, m0=m0, M1=M1.tocsr(), A=A.tocsr()), scheme)


@pytest.mark.parametrize("n", [64, 1024])
def test_factor_is_fill_free(n):
    # L is banded along the grid, so its LU factors must stay banded: a
    # block-by-block elimination order fills them almost completely
    scheme = SchemeParams(dt=1e-3, t_end=1.0)
    model, sys_ = _beam_system(n, TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.2), scheme)
    assert sys_._lu.L.nnz + sys_._lu.U.nnz <= 10 * model.layout.dim


def test_factor_stats_reads_the_lu_and_the_stepping_matrix():
    scheme = SchemeParams(dt=0.05, t_end=1.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.2), scheme)
    L_in = sp.csc_matrix(sp.diags(model.m0) + 0.5 * 0.05 * (model.M1 + model.A))
    lu = spla.splu(L_in, diag_pivot_thresh=0.0)
    assert integrate.factor_stats(sys_) == (lu.L.nnz + lu.U.nnz, abs(lu.U).max() / abs(L_in).max())
    # a 1x1 system is its own U, with a unit L
    assert integrate.factor_stats(_scalar_system(0.5, 0.1, t_end=1.0)[2]) == (2, 1.0)


def test_factor_rejects_an_inertia_of_the_wrong_shape():
    # m0 is the diagonal of the inertia, one entry per state slot
    model = make_timoshenko_damped(build_grid(4), TimoshenkoParams(c=0.5, I_tilde=0.2))
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    dim = model.layout.dim
    for m0 in (np.ones(dim + 1), np.ones(dim - 1), np.ones((1, dim)), np.diag(model.m0), 1.0):
        with pytest.raises(ParameterError, match=rf"^m0 has shape .*, layout needs \({dim},\)$"):
            factor(replace(model, m0=m0), scheme)


def test_factor_shape_validation():
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    with pytest.raises(ParameterError, match="^M1 has shape"):
        factor(_one_slot_model(1.0, np.eye(2), np.zeros((1, 1))), scheme)
    with pytest.raises(ParameterError, match="^A has shape"):
        factor(_one_slot_model(1.0, np.zeros((1, 1)), np.eye(2)), scheme)


def test_run_record_counts_and_times():
    scheme = SchemeParams(dt=0.0625, t_end=1.0, record_every=4)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    ts = run(sys_, np.zeros(model.layout.dim), lambda t: np.zeros(model.layout.dim))
    # 16 steps, recording step 0 and every 4th: 0, 4, 8, 12, 16
    assert len(ts) == 5
    assert np.array_equal(ts.times, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert set(ts.traces) == {"tau_plus"}
    assert ts.traces["tau_plus"].shape == (5,)
    assert ts.snapshots.shape == (5, model.layout.dim)


def test_run_without_snapshots_records_the_same_bytes(rng):
    scheme = SchemeParams(dt=0.05, t_end=1.0, record_every=3)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.2), scheme)
    lay = model.layout
    u0 = rng.standard_normal(lay.dim)
    profile = np.zeros(lay.dim)
    profile[lay.slice_of("eta")] = np.sin(np.pi * lay.points_of("eta"))
    env = gaussian_envelope(0.4, 0.1)
    f = lambda t: profile * env(t)
    full = run(sys_, u0, f)
    lean = run(sys_, u0, f, snapshots=False)
    assert lean.snapshots is None
    assert lean.times.tobytes() == full.times.tobytes()
    assert lean.energy.tobytes() == full.energy.tobytes()
    assert set(lean.traces) == set(full.traces) == {"tau_plus"}
    for name, values in lean.traces.items():
        assert values.tobytes() == full.traces[name].tobytes()
        assert values.tobytes() == full.snapshots[:, lay.offset_of(name)].tobytes()


def test_run_rejects_a_wrong_length_or_nonfinite_initial_state():
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    dim = model.layout.dim
    with pytest.raises(ParameterError):
        run(sys_, np.zeros(dim - 1), lambda t: np.zeros(dim))
    with pytest.raises(ParameterError):
        run(sys_, np.zeros((1, dim)), lambda t: np.zeros(dim))
    u0 = np.zeros(dim)
    u0[model.layout.offset_of("tau_plus")] = np.nan
    with pytest.raises(NumericError):
        run(sys_, u0, lambda t: np.zeros(dim))


def test_run_validates_layout_and_scheme():
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    other = StateLayout(build_grid(2), (("tau", SpaceTag.TRACE),))
    with pytest.raises(ParameterError):
        run(sys_, np.zeros(other.dim), lambda t: np.zeros(model.layout.dim))


def test_run_takes_snapshots_only_by_keyword():
    # a scheme in the old fourth position must not pass for a true flag
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    u0, source = np.zeros(model.layout.dim), lambda t: np.zeros(model.layout.dim)
    with pytest.raises(TypeError):
        run(sys_, u0, source, SchemeParams(dt=0.1, t_end=0.5))
    with pytest.raises(TypeError):
        run(sys_, u0, source, False)


@pytest.mark.parametrize("theta,expected", [(0.5, 0.5), (1.0, 1.0)])
def test_source_sampled_at_theta_offset(theta, expected):
    model = _one_slot_model(1.0, np.zeros((1, 1)), np.zeros((1, 1)))
    scheme = SchemeParams(dt=0.25, t_end=1.0, theta=theta)
    sys_ = factor(model, scheme)
    seen = []

    def probe_fn(t):
        seen.append(t)
        return np.zeros(1)

    run(sys_, np.zeros(model.layout.dim), probe_fn)
    assert seen == [(k + expected) * 0.25 for k in range(4)]


def test_response_is_linear_in_source_bitwise():
    scheme = SchemeParams(dt=0.05, t_end=1.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, d=0.2), scheme)
    profile = np.zeros(model.layout.dim)
    sl = model.layout.slice_of("eta")
    profile[sl] = np.sin(np.pi * model.layout.points_of("eta"))
    env = gaussian_envelope(0.4, 0.1)
    f = lambda t: profile * env(t)
    ts1 = run(sys_, np.zeros(model.layout.dim), f)
    ts2 = run(sys_, np.zeros(model.layout.dim), lambda t: 2.0 * f(t))
    # doubling is exact in binary floating point, so the trajectories
    # must double without any drift at all
    assert np.array_equal(ts2.snapshots, 2.0 * ts1.snapshots)


def test_causality_probe_zero_before_split():
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    profile = np.zeros(model.layout.dim)
    profile[model.layout.offset_of("eta")] = 1.0
    a = 1.0
    env = bump_envelope(1.2, 2.0)
    dev = causality_probe(sys_, lambda t: profile * env(t), lambda t: np.zeros(model.layout.dim), a)
    assert dev == 0.0


def test_causality_probe_stops_at_split():
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    dim = model.layout.dim
    profile = np.zeros(dim)
    profile[model.layout.offset_of("eta")] = 1.0
    env = bump_envelope(1.2, 2.0)
    seen = []

    def spy(t):
        seen.append(t)
        return profile * env(t)

    assert causality_probe(sys_, spy, lambda t: np.zeros(dim), 1.0) == 0.0
    # the premise check and both runs sample sources only up to a
    assert seen and max(seen) <= 1.0
    seen.clear()
    # with a < dt only the common initial state lies before a
    assert causality_probe(sys_, spy, lambda t: np.zeros(dim), 0.01) == 0.0
    assert seen == []


@pytest.mark.parametrize(
    "dt,t_end,theta,a",
    [
        (0.1, 1.0, 0.5, 0.05),
        (0.1, 1.0, 0.5, 0.1),
        (0.1, 1.0, 0.5, 0.15),
        (0.1, 1.0, 0.5, 0.349),
        (0.1, 1.0, 0.5, 0.36),
        (0.1, 1.0, 0.5, 1.0),
        (0.1, 1.0, 1.0, 0.15),
        (0.1, 1.0, 1.0, 0.2),
        (0.3, 1.2, 0.5, 0.95),
        # 3 * 0.1 > 0.3 in floating point: the last step lies past a = t_end
        (0.1, 0.3, 0.5, 0.3),
    ],
)
def test_causality_probe_runs_to_the_last_step_at_or_before_a(dt, t_end, theta, a, monkeypatch):
    layout, scheme, sys_ = _scalar_system(0.5, dt, t_end, theta)
    ran = []

    def spy(sys_to_a, u0, source):
        ran.append(sys_to_a.scheme.n_steps)
        return run(sys_to_a, u0, source)

    monkeypatch.setattr(integrate, "run", spy)
    z = lambda t: np.zeros(layout.dim)
    assert causality_probe(sys_, z, z, a) == 0.0
    expected = int(np.searchsorted(np.arange(scheme.n_steps + 1) * dt, a, side="right")) - 1
    assert ran == ([expected, expected] if expected else [])


def test_causality_probe_records_every_step_to_a(monkeypatch):
    # the scheme records every 4th state; the probe compares every state up to a
    scheme = SchemeParams(dt=0.01, t_end=1.0, record_every=4)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    series = []

    def spy(sys_to_a, u0, source):
        series.append(run(sys_to_a, u0, source))
        return series[-1]

    monkeypatch.setattr(integrate, "run", spy)
    z = lambda t: np.zeros(model.layout.dim)
    assert causality_probe(sys_, z, z, a=0.5) == 0.0
    assert [len(ts) for ts in series] == [51, 51]
    assert [ts.times[-1] for ts in series] == [0.5, 0.5]


def test_causality_probe_memory_follows_the_steps_to_a():
    # 10 steps up to a in a window of 10^7 steps
    scheme = SchemeParams(dt=1e-7, t_end=1.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    z = lambda t: np.zeros(model.layout.dim)
    tracemalloc.start()
    try:
        assert causality_probe(sys_, z, z, a=1e-6) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_causality_probe_rejects_bad_inputs():
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    z = lambda t: np.zeros(model.layout.dim)
    with pytest.raises(ParameterError, match="split time a=0.0 outside the run window"):
        causality_probe(sys_, z, z, a=0.0)
    with pytest.raises(ParameterError, match="split time a=2.5 outside the run window"):
        causality_probe(sys_, z, z, a=2.5)
    profile = np.zeros(model.layout.dim)
    profile[model.layout.offset_of("eta")] = 1.0
    env = bump_envelope(0.1, 2.0)
    with pytest.raises(ParameterError, match="sources differ at sampled t="):
        causality_probe(sys_, lambda t: profile * env(t), z, a=1.0)


def test_bound_probe_respects_solution_bound():
    scheme = SchemeParams(dt=0.05, t_end=4.0, rho=2.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    profile = np.zeros(model.layout.dim)
    sl = model.layout.slice_of("eta")
    profile[sl] = np.cos(np.pi * model.layout.points_of("eta"))
    env = gaussian_envelope(1.0, 0.2)
    ratio = bound_probe(sys_, lambda t: profile * env(t))
    # coercivity constant of this law at rho = 2 is c0 = 1/2
    assert 0.0 < ratio <= 2.0 * 1.05


def test_bound_probe_rejects_zero_source():
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    with pytest.raises(UndefinedRatioError):
        bound_probe(sys_, lambda t: np.zeros(model.layout.dim))


# models with algebraic slots (zero m0): the beam's damped rotation trace,
# the parabolic potential field, and full_dynamic's dashpot trace
_ALGEBRAIC_MODELS = {
    "timoshenko_damped": lambda g: make_timoshenko_damped(g, TimoshenkoParams(c=0.5)),
    "sturm_liouville": lambda g: make_sturm_liouville(g, SturmLiouvilleParams(s0=0.0, s1=0.5)),
    "full_dynamic": lambda g: make_full_dynamic(g, FullDynamicParams(mu_plus=NevanlinnaSpec(0.0, 0.5))),
}


@functools.cache
def _algebraic_system(name, rho):
    """The model's factored system at n = 16, dt = 1/64, t_end = 4, and its c0."""
    model = _ALGEBRAIC_MODELS[name](build_grid(16))
    assert (model.m0 == 0.0).any()
    sys_ = factor(model, SchemeParams(dt=1 / 64, t_end=4.0, rho=rho))
    return sys_, coercivity(model.m0, model.M1, rho, model.W)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(_ALGEBRAIC_MODELS)),
    rho=st.sampled_from([1.0, 2.0]),
    center=st.floats(0.0, 1.0),
    width=st.floats(0.1, 0.5),
)
def test_bound_probe_respects_solution_bound_with_sources_on_algebraic_slots(data, name, rho, center, width):
    # a source on an algebraic slot at t = 0 forces that slot off zero; a
    # start from zero would leave an undamped +- oscillation there
    sys_, c0 = _algebraic_system(name, rho)
    layout = sys_.model.layout
    profile = embed_block(layout, data.draw(st.sampled_from(layout.names), label="block"), 1.0)
    env = gaussian_envelope(center, width)
    ratio = bound_probe(sys_, lambda t: profile * env(t))
    assert ratio <= 1.05 / c0


def test_step_guards_against_nonfinite_source():
    layout, _, sys_ = _scalar_system(0.5, 0.1, t_end=1.0)
    u = np.array([1.0])
    with pytest.raises(NumericError):
        step(sys_, u, np.array([np.inf]))


def _stepwise_reference(sys_, u0, source, scheme):
    """Times, energies, traces and snapshots of run, recomputed one step
    at a time with step, each energy from the sparse inertia matrix.
    It records step 0, every record_every-th step and the last step."""
    u, k_rec = u0, [0]
    snaps = [u0.copy()]
    for k in range(scheme.n_steps):
        u = step(sys_, u, source((k + scheme.theta) * scheme.dt))
        if (k + 1) % scheme.record_every == 0 or k + 1 == scheme.n_steps:
            k_rec.append(k + 1)
            snaps.append(u.copy())
    snaps = np.array(snaps)
    lay, M0 = sys_.model.layout, sp.diags(sys_.model.m0)
    return (
        np.array([k * scheme.dt for k in k_rec]),
        np.array([0.5 * weighted_inner(v, M0 @ v, sys_.model.W) for v in snaps]),
        {name: snaps[:, lay.offset_of(name)] for name in lay.trace_names()},
        snaps,
    )


_RUN_MODELS = {
    # dims 32, 138 and 69: even and odd row lengths in the record buffer
    "timoshenko_damped": lambda: make_timoshenko_damped(
        build_grid(8), TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.2)
    ),
    "full_dynamic": lambda: make_full_dynamic(build_grid(33), FullDynamicParams(g_s=0.3)),
    "sturm_liouville": lambda: make_sturm_liouville(build_grid(33), SturmLiouvilleParams(q=0.3)),
}


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("name", sorted(_RUN_MODELS))
def test_step_matches_the_sparse_right_hand_side(rng, name, theta):
    # the reference solves L u_next = R u_n + dt*f with R assembled as a
    # matrix, R = diag(m0) - (1-theta)*dt*(M1 + A)
    model = _RUN_MODELS[name]()
    scheme = SchemeParams(dt=0.04, t_end=1.0, theta=theta)
    sys_ = factor(model, scheme)
    stiff = model.M1 + model.A
    M0 = sp.diags(model.m0)
    L = (M0 + theta * scheme.dt * stiff).tocsc()
    R = (M0 - (1.0 - theta) * scheme.dt * stiff).tocsr()
    lu = spla.splu(L)
    u, f = rng.standard_normal(model.layout.dim), rng.standard_normal(model.layout.dim)
    for _ in range(5):
        expected = lu.solve(R @ u + scheme.dt * f)
        u_next = step(sys_, u, f)
        assert np.max(np.abs(u_next - expected)) <= 1e-13 * np.max(np.abs(expected))
        u = expected


def test_step_roundoff_stays_near_a_refined_trajectory(rng):
    # dt = h on the damped beam without boundary inertia: the trace slot's
    # diagonal is small next to its coupling, where row swaps in the LU
    # cost accuracy; every reference step is refined twice against L and R
    n = 128
    model = make_timoshenko_damped(build_grid(n), TimoshenkoParams(c=0.5))
    scheme = SchemeParams(dt=1.0 / n, t_end=1.0)
    sys_ = factor(model, scheme)
    stiff = model.M1 + model.A
    M0 = sp.diags(model.m0)
    L = (M0 + 0.5 * scheme.dt * stiff).tocsr()
    R = (M0 - 0.5 * scheme.dt * stiff).tocsr()
    lu = spla.splu(L.tocsc())
    zero = np.zeros(model.layout.dim)
    for _ in range(3):
        u = ref = rng.standard_normal(model.layout.dim)
        for _ in range(n):
            u = step(sys_, u, zero)
            rhs = R @ ref
            ref = lu.solve(rhs)
            for _ in range(2):
                ref = ref + lu.solve(rhs - L @ ref)
        assert np.max(np.abs(u - ref)) <= 5e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "snapshots,theta",
    [pytest.param(s, th, id=str(s) if th == 0.5 else f"{s}-{th}") for th in (0.5, 0.75, 1.0) for s in (True, False)],
)
@pytest.mark.parametrize("chunk_rows", [None, 1, 2])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("name", sorted(_RUN_MODELS))
def test_run_matches_stepwise_reference_bitwise(monkeypatch, rng, name, record_every, chunk_rows, snapshots, theta):
    # 25 steps: with record_every = 3 the records are steps 0, 3, ..., 24
    # and the last step, 25; chunk_rows forces records across buffer ends
    model = _RUN_MODELS[name]()
    lay = model.layout
    if chunk_rows is not None:
        monkeypatch.setattr(integrate, "_CHUNK_FLOATS", chunk_rows * lay.dim + 1)
    scheme = SchemeParams(dt=0.04, t_end=1.0, record_every=record_every, theta=theta)
    sys_ = factor(model, scheme)
    u0 = rng.standard_normal(lay.dim)
    profile, env = rng.standard_normal(lay.dim), gaussian_envelope(0.4, 0.2)
    f = lambda t: profile * env(t)
    ts = run(sys_, u0, f, snapshots=snapshots)
    times, energies, traces, snaps = _stepwise_reference(sys_, u0, f, scheme)
    assert np.array_equal(ts.times, times)
    assert np.array_equal(ts.energy, energies)
    assert set(ts.traces) == set(traces) and traces
    for trace, values in traces.items():
        assert np.array_equal(ts.traces[trace], values)
    if snapshots:
        assert np.array_equal(ts.snapshots, snaps)
    else:
        assert ts.snapshots is None


@settings(max_examples=60, deadline=None)
@given(
    n_steps=st.integers(1, 40),
    record_every=st.one_of(st.integers(1, 5), st.integers(1, 60)),
    theta=st.floats(0.5, 1.0),
    chunk_rows=st.sampled_from([None, 1, 2, 3]),
)
def test_run_records_step_0_every_record_every_th_step_and_the_last(n_steps, record_every, theta, chunk_rows):
    # dividing strides, non-dividing strides and strides past n_steps all
    # give ceil(n_steps / record_every) + 1 records ending at t_end
    model = _RUN_MODELS["timoshenko_damped"]()
    lay = model.layout
    dt = 0.05
    scheme = SchemeParams(dt=dt, t_end=n_steps * dt, record_every=record_every, theta=theta)
    assert scheme.n_steps == n_steps
    sys_ = factor(model, scheme)
    rng = np.random.default_rng(n_steps * 100 + record_every)
    u0, profile = rng.standard_normal(lay.dim), rng.standard_normal(lay.dim)
    env = gaussian_envelope(0.5 * n_steps * dt, 0.2)
    f = lambda t: profile * env(t)
    with pytest.MonkeyPatch.context() as mp:
        if chunk_rows is not None:
            mp.setattr(integrate, "_CHUNK_FLOATS", chunk_rows * lay.dim + 1)
        ts = run(sys_, u0, f)
    n_rec = math.ceil(n_steps / record_every) + 1
    assert len(ts) == n_rec
    assert ts.times.tolist() == [min(k * record_every, n_steps) * dt for k in range(n_rec)]
    assert ts.times[-1] == n_steps * dt
    times, energies, traces, snaps = _stepwise_reference(sys_, u0, f, scheme)
    assert np.array_equal(ts.times, times)
    assert np.array_equal(ts.energy, energies)
    for trace, values in traces.items():
        assert np.array_equal(ts.traces[trace], values)
    assert np.array_equal(ts.snapshots, snaps)


@pytest.mark.parametrize("t_bad", [0.5, 0.97])
def test_run_raises_when_the_source_turns_nonfinite(t_bad):
    # 25 steps recording every 3rd: t_bad = 0.97 hits only the last step,
    # 25, which is no multiple of 3 and is recorded as the last step
    scheme = SchemeParams(dt=0.04, t_end=1.0, record_every=3)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, d=0.2), scheme)
    dim = model.layout.dim

    def source(t):
        return np.full(dim, np.inf) if t >= t_bad else np.ones(dim)

    with pytest.raises(NumericError):
        run(sys_, np.zeros(model.layout.dim), source)


def test_run_raises_when_a_recorded_energy_overflows():
    # the state stays finite (up to about 1e305) while 1/2 <u, m0 u>_W
    # overflows; run must say so instead of recording inf, and numpy must
    # not warn on the way
    scheme = SchemeParams(dt=0.01, t_end=1.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    lay = model.layout
    profile = np.zeros(lay.dim)
    profile[lay.slice_of("V1")] = 1.0
    env = sinusoid_envelope(1.0, 0.0, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="recorded energy is not finite"):
            run(sys_, np.zeros(lay.dim), lambda t: profile * env(t))


def _residual_chunk(steps, dim):
    """The _CHUNK_FLOATS that holds ``steps`` steps in the residual buffers."""
    return (2 * steps + 1) * dim


@pytest.mark.parametrize(
    "record_every,chunk_steps",
    [(1, None), (3, None), (4, 2), (1, 5), (3, 1), (7, 24)],
    ids=["1", "3", "4-flushes-of-2", "1-flush-ends-at-the-last-step", "3-flushes-of-1", "7-last-flush-of-1"],
)
@pytest.mark.parametrize("name", sorted(_RUN_MODELS))
def test_run_max_energy_residual_matches_stepwise_reference_bitwise(monkeypatch, rng, name, record_every, chunk_steps):
    # the residual covers every step, the unrecorded ones too; 25 steps,
    # which neither 3, 4 nor 7 divides, in residual buffers of chunk_steps
    # steps (25 = 5*5 fills the last buffer of 5 at the last step)
    model = _RUN_MODELS[name]()
    dim = model.layout.dim
    if chunk_steps is not None:
        monkeypatch.setattr(integrate, "_CHUNK_FLOATS", _residual_chunk(chunk_steps, dim))
    scheme = SchemeParams(dt=0.04, t_end=1.0, record_every=record_every)
    sys_ = factor(model, scheme)
    u0 = rng.standard_normal(dim)
    profile, env = rng.standard_normal(dim), gaussian_envelope(0.4, 0.2)
    f = lambda t: profile * env(t)
    ts = run(sys_, u0, f, energy_residual=True)
    u, residuals = u0, []
    for k in range(scheme.n_steps):
        f_mid = f((k + 0.5) * scheme.dt)
        u_next = step(sys_, u, f_mid)
        residuals.append(abs(energy_balance_residual(sys_, u, u_next, f_mid)))
        u = u_next
    assert ts.max_energy_residual == max(residuals) > 0.0
    plain = run(sys_, u0, f)
    assert plain.max_energy_residual is None
    assert np.array_equal(plain.energy, ts.energy) and np.array_equal(plain.snapshots, ts.snapshots)


def test_run_energy_residual_needs_the_midpoint_rule():
    scheme = SchemeParams(dt=0.1, t_end=1.0, theta=0.75)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    dim = model.layout.dim
    with pytest.raises(ParameterError, match="theta = 1/2"):
        run(sys_, np.zeros(dim), lambda t: np.zeros(dim), energy_residual=True)


@pytest.mark.parametrize(
    "chunk_rows,energy_residual",
    [(None, False), (1, False), (None, True), (1, True)],
    ids=["None", "1", "None-residual", "1-residual"],
)
def test_run_catches_a_state_gone_bad_at_an_unrecorded_step(monkeypatch, chunk_rows, energy_residual):
    # 25 steps recording every 3rd; the source is infinite at step 10 only,
    # which is not recorded, and finite before and after it.  The state
    # stays non-finite, so the flush of the next record (step 12 with
    # one-row buffers, the last buffer otherwise) must refuse it, without a
    # numpy warning, whether or not the residuals of the steps are kept.
    scheme = SchemeParams(dt=0.04, t_end=1.0, record_every=3)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, d=0.2), scheme)
    dim = model.layout.dim
    if chunk_rows is not None:
        monkeypatch.setattr(integrate, "_CHUNK_FLOATS", chunk_rows * dim + 1)
    t_bad = (10 + scheme.theta) * scheme.dt

    def source(t):
        return np.full(dim, np.inf) if t == t_bad else np.ones(dim)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="time step produced non-finite state"):
            run(sys_, np.zeros(dim), source, energy_residual=energy_residual)


_FAULTS = {
    "overflow-in-an-earlier-chunk": (0.0, 0.5, "recorded energy is not finite"),
    "overflow-in-the-last-chunk": (0.97, 0.99, "time step produced non-finite state"),
}


@pytest.mark.parametrize(
    "huge_from,inf_from,message,energy_residual",
    [(*fault, residual) for residual in (False, True) for fault in _FAULTS.values()],
    ids=[name + ("-residual" if residual else "") for residual in (False, True) for name in _FAULTS],
)
def test_run_reports_the_first_fault_as_a_check_on_every_step_would(
    monkeypatch, huge_from, inf_from, message, energy_residual
):
    # 100 steps recording every 3rd: 35 records in buffers of 4, the last
    # buffer holding the records of steps 96, 99 and the last step, 100.
    # Past huge_from the source makes the energy of a still
    # finite state overflow, past inf_from the state itself.  A check on
    # every step, before any flush, said "recorded energy" only for an
    # overflow in a buffer filled before the state went bad.
    scheme = SchemeParams(dt=0.01, t_end=1.0, record_every=3)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    lay = model.layout
    monkeypatch.setattr(integrate, "_CHUNK_FLOATS", 4 * lay.dim + 1)
    profile = np.zeros(lay.dim)
    profile[lay.slice_of("V1")] = 1e308

    def source(t):
        return np.full(lay.dim, np.inf) if t > inf_from else profile if t > huge_from else np.zeros(lay.dim)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=message):
            run(sys_, np.zeros(lay.dim), source, energy_residual=energy_residual)


def test_run_computes_the_residuals_per_buffer(monkeypatch):
    # one energy call per buffer of records, and with the residual one more
    # per buffer of steps (here of 7), not one per step
    scheme = SchemeParams(dt=0.005, t_end=1.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, d=0.2), scheme)
    dim = model.layout.dim
    monkeypatch.setattr(integrate, "_CHUNK_FLOATS", _residual_chunk(7, dim))
    calls, energy = [], integrate.energy

    def counted(u, m0, W):
        calls.append(np.shape(u))
        return energy(u, m0, W)

    monkeypatch.setattr(integrate, "energy", counted)
    z = lambda t: np.zeros(dim)
    u0 = np.random.default_rng(3).standard_normal(dim)
    run(sys_, u0, z)
    per_record_buffer = len(calls)
    assert per_record_buffer == math.ceil((scheme.n_steps + 1) / (2 * 7 + 1))
    calls.clear()
    run(sys_, u0, z, energy_residual=True)
    assert len(calls) == per_record_buffer + math.ceil(scheme.n_steps / 7)


def _nan_at(monkeypatch, call, row):
    """Make row ``row`` of the ``call``-th stacked weighted_inner value in
    run NaN (two calls per buffer of steps: dissipated, then injected)."""
    calls = []
    inner = integrate.weighted_inner

    def patched(u, v, W):
        out = inner(u, v, W)
        if len(calls) == call:
            out[row] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(integrate, "weighted_inner", patched)


@pytest.mark.parametrize(
    "call,row",
    [(0, 0), (1, 4), (4, 2), (9, 0)],
    ids=["first-step", "last-of-the-first-buffer", "middle-buffer", "last-step"],
)
def test_run_keeps_a_nan_residual_of_any_step(monkeypatch, call, row):
    # 25 steps in five buffers of 5: a NaN residual in any one step makes
    # max_energy_residual NaN, as np.maximum over the steps made it
    scheme = SchemeParams(dt=0.04, t_end=1.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, d=0.2), scheme)
    dim = model.layout.dim
    monkeypatch.setattr(integrate, "_CHUNK_FLOATS", _residual_chunk(5, dim))
    profile = np.random.default_rng(5).standard_normal(dim)
    f = lambda t: profile * math.sin(t)
    finite = run(sys_, np.zeros(dim), f, energy_residual=True)
    assert math.isfinite(finite.max_energy_residual)
    _nan_at(monkeypatch, call, row)
    ts = run(sys_, np.zeros(dim), f, energy_residual=True)
    assert math.isnan(ts.max_energy_residual)
    assert np.array_equal(ts.energy, finite.energy)


@pytest.mark.parametrize("energy_residual", [False, True])
def test_run_record_memory_is_the_records_and_bounded_buffers(energy_residual):
    # 20,000 steps at dim 32, every step recorded, no snapshots: beyond the
    # records it returns, run holds the record buffer and one temporary of
    # its size, and under energy_residual the residual buffers and their
    # temporaries, each at most _CHUNK_FLOATS floats
    scheme = SchemeParams(dt=5e-5, t_end=1.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, d=0.2), scheme)
    dim = model.layout.dim
    profile = np.random.default_rng(7).standard_normal(dim)
    f = lambda t: profile * math.sin(t)
    tracemalloc.start()
    try:
        ts = run(sys_, np.zeros(dim), f, snapshots=False, energy_residual=energy_residual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = ts.times.nbytes + ts.energy.nbytes + sum(v.nbytes for v in ts.traces.values())
    buffer = 8 * integrate._CHUNK_FLOATS
    assert len(ts) == 20_001
    assert peak <= records + (4 if energy_residual else 2) * buffer + (64 << 10)


def _random_field(rng, tag, n, lo, hi):
    return rng.uniform(lo, hi, tag.block_length(n))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 24),
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(0.05, 2.0),
    I_tilde=st.floats(0.0, 1.0),
)
def test_run_keeps_energy_balance_on_random_coefficients(n, seed, c, I_tilde):
    rng = np.random.default_rng(seed)
    params = TimoshenkoParams(
        kappa1=_random_field(rng, SpaceTag.NODE_FREE_LEFT, n, 0.2, 3.0),
        nu1=_random_field(rng, SpaceTag.CENTER, n, 0.2, 3.0),
        nu2=_random_field(rng, SpaceTag.NODE_INTERIOR, n, 0.2, 3.0),
        kappa2=_random_field(rng, SpaceTag.CENTER, n, 0.2, 3.0),
        d=_random_field(rng, SpaceTag.NODE_INTERIOR, n, 0.0, 2.0),
        c=c,
        I_tilde=I_tilde,
        sigma0=rng.uniform(0.5, 2.0),
    )
    scheme = SchemeParams(dt=0.05, t_end=1.0)
    model, sys_ = _beam_system(n, params, scheme)
    lay = model.layout
    profile, env = rng.standard_normal(lay.dim), gaussian_envelope(0.3, 0.2)
    f = lambda t: profile * env(t)
    ts = run(sys_, rng.standard_normal(lay.dim), f)
    scale = max(1.0, float(np.max(ts.energy)))
    for k in range(len(ts) - 1):
        u_n, u_np1 = ts.snapshots[k], ts.snapshots[k + 1]
        res = energy_balance_residual(sys_, u_n, u_np1, f((k + 0.5) * scheme.dt))
        assert abs(res) <= 1e-12 * scale
