"""Theta stepping: scalar oracles, energy identity, probes.

The scalar problem on a one-slot layout has a closed-form recurrence, so
the stepper is checked against it directly before anything model-sized.
"""

import math

import numpy as np
import pytest

from evobeam.core import (
    CallableSignal,
    NumericError,
    ParameterError,
    SeparableSignal,
    SpaceTag,
    StateLayout,
    StateVector,
    WeightMatrix,
    ZeroSignal,
    bump_envelope,
    build_grid,
    gaussian_envelope,
    zero_state,
)
from evobeam.integrate import (
    IllPosedError,
    InvalidProbeError,
    SchemeParams,
    UndefinedRatioError,
    UnsupportedSchemeError,
    bound_probe,
    causality_probe,
    energy_balance_residual,
    factor,
    run,
    step,
)
from evobeam.scenarios import TimoshenkoParams, make_timoshenko_damped


def _scalar_system(gamma, dt, t_end, theta=0.5):
    layout = StateLayout(build_grid(2), (("tau", SpaceTag.TRACE),))
    scheme = SchemeParams(dt=dt, t_end=t_end, theta=theta)
    sys_ = factor(
        layout,
        WeightMatrix(np.ones(1)),
        np.array([[1.0]]),
        np.array([[gamma]]),
        np.array([[0.0]]),
        scheme,
    )
    return layout, scheme, sys_


def _beam_system(n, params, scheme):
    model = make_timoshenko_damped(build_grid(n), params)
    sys_ = factor(model.layout, model.W, model.M0, model.M1, model.A, scheme)
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


def test_n_steps_rounding():
    assert SchemeParams(dt=0.1, t_end=1.0).n_steps == 10
    assert SchemeParams(dt=0.3, t_end=1.0).n_steps == 3
    assert SchemeParams(dt=0.25, t_end=1.0).n_steps == 4


def test_scalar_midpoint_recurrence():
    # homogeneous decay: u_{n+1} = (1 - g dt/2)/(1 + g dt/2) u_n
    gamma, dt, n = 0.8, 0.05, 100
    layout, _, sys_ = _scalar_system(gamma, dt, t_end=n * dt)
    u = StateVector(layout, np.array([1.0]))
    f0 = np.zeros(1)
    for _ in range(n):
        u = step(sys_, u, f0)
    factor_exact = (1 - gamma * dt / 2) / (1 + gamma * dt / 2)
    assert abs(u.values[0] - factor_exact**n) < 1e-13


def test_scalar_global_second_order():
    # u' + u = cos t with u(0) = 1/2 has the exact solution
    # (cos t + sin t)/2, so the particular start isolates pure dt error
    def exact(t):
        return 0.5 * (math.cos(t) + math.sin(t))

    errs = []
    for m in (20, 40, 80):
        dt = 1.0 / m
        layout, scheme, sys_ = _scalar_system(1.0, dt, t_end=1.0)
        src = CallableSignal(lambda t: np.array([math.cos(t)]), 1)
        ts = run(sys_, StateVector(layout, np.array([0.5])), src)
        errs.append(abs(ts.snapshots[-1][0] - exact(1.0)))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.9 < r < 2.1 for r in rates)


def test_backward_euler_runs_but_has_no_balance_identity():
    layout, _, sys_ = _scalar_system(0.5, 0.1, t_end=1.0, theta=1.0)
    u0 = StateVector(layout, np.array([1.0]))
    ts = run(sys_, u0, ZeroSignal(1))
    assert ts.energy[-1] < ts.energy[0]
    u1 = StateVector(layout, ts.snapshots[1])
    with pytest.raises(UnsupportedSchemeError):
        energy_balance_residual(sys_, u0, u1, np.zeros(1))


def test_energy_balance_exact_per_step(rng):
    scheme = SchemeParams(dt=0.02, t_end=1.0)
    model, sys_ = _beam_system(
        8, TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.3), scheme
    )
    u = StateVector(model.layout, rng.standard_normal(model.layout.dim))
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
    M0 = model.M0.tolil()
    M1 = model.M1.tolil()
    A = model.A.matrix.tolil()
    M0[k, k] = 0.0
    M1[k, k] = 0.0
    A[k, :] = 0.0
    A[:, k] = 0.0
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    with pytest.raises(IllPosedError):
        factor(model.layout, model.W, M0.tocsr(), M1.tocsr(), A.tocsr(), scheme)


@pytest.mark.parametrize("n", [64, 1024])
def test_factor_is_fill_free(n):
    # L is banded along the grid, so its LU factors must stay banded: a
    # block-by-block elimination order fills them almost completely
    scheme = SchemeParams(dt=1e-3, t_end=1.0)
    model, sys_ = _beam_system(n, TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.2), scheme)
    assert sys_._lu.L.nnz + sys_._lu.U.nnz <= 10 * model.layout.dim


def test_factor_shape_validation():
    layout = StateLayout(build_grid(2), (("tau", SpaceTag.TRACE),))
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    with pytest.raises(ParameterError):
        factor(layout, WeightMatrix(np.ones(1)), np.eye(2), np.zeros((1, 1)), np.zeros((1, 1)), scheme)


def test_run_record_counts_and_times():
    scheme = SchemeParams(dt=0.0625, t_end=1.0, record_every=4)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    ts = run(sys_, zero_state(model.layout), ZeroSignal(model.layout.dim))
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
    u0 = StateVector(lay, rng.standard_normal(lay.dim))
    profile = np.zeros(lay.dim)
    profile[lay.slice_of("eta")] = np.sin(np.pi * lay.points_of("eta"))
    f = SeparableSignal(profile, gaussian_envelope(0.4, 0.1))
    full = run(sys_, u0, f)
    lean = run(sys_, u0, f, snapshots=False)
    assert lean.snapshots is None
    assert lean.times.tobytes() == full.times.tobytes()
    assert lean.energy.tobytes() == full.energy.tobytes()
    assert set(lean.traces) == set(full.traces) == {"tau_plus"}
    for name, values in lean.traces.items():
        assert values.tobytes() == full.traces[name].tobytes()
        assert values.tobytes() == full.snapshots[:, lay.offset_of(name)].tobytes()


def test_run_validates_layout_and_scheme():
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    other = StateLayout(build_grid(2), (("tau", SpaceTag.TRACE),))
    with pytest.raises(ParameterError):
        run(sys_, zero_state(other), ZeroSignal(model.layout.dim))
    with pytest.raises(ParameterError):
        run(
            sys_,
            zero_state(model.layout),
            ZeroSignal(model.layout.dim),
            SchemeParams(dt=0.05, t_end=1.0),
        )


@pytest.mark.parametrize("theta,expected", [(0.5, 0.5), (1.0, 1.0)])
def test_source_sampled_at_theta_offset(theta, expected):
    layout = StateLayout(build_grid(2), (("tau", SpaceTag.TRACE),))
    scheme = SchemeParams(dt=0.25, t_end=1.0, theta=theta)
    sys_ = factor(
        layout, WeightMatrix(np.ones(1)), np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)), scheme
    )
    seen = []

    def probe_fn(t):
        seen.append(t)
        return np.zeros(1)

    run(sys_, zero_state(layout), CallableSignal(probe_fn, 1))
    assert seen == [(k + expected) * 0.25 for k in range(4)]


def test_response_is_linear_in_source_bitwise():
    scheme = SchemeParams(dt=0.05, t_end=1.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5, d=0.2), scheme)
    profile = np.zeros(model.layout.dim)
    sl = model.layout.slice_of("eta")
    profile[sl] = np.sin(np.pi * model.layout.points_of("eta"))
    f = SeparableSignal(profile, gaussian_envelope(0.4, 0.1))
    ts1 = run(sys_, zero_state(model.layout), f)
    ts2 = run(sys_, zero_state(model.layout), 2.0 * f)
    # doubling is exact in binary floating point, so the trajectories
    # must double without any drift at all
    assert np.array_equal(ts2.snapshots, 2.0 * ts1.snapshots)


def test_causality_probe_zero_before_split():
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    profile = np.zeros(model.layout.dim)
    profile[model.layout.offset_of("eta")] = 1.0
    a = 1.0
    late = SeparableSignal(profile, bump_envelope(1.2, 2.0))
    dev = causality_probe(sys_, late, ZeroSignal(model.layout.dim), a)
    assert dev == 0.0


def test_causality_probe_stops_at_split():
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    dim = model.layout.dim
    profile = np.zeros(dim)
    profile[model.layout.offset_of("eta")] = 1.0
    late = SeparableSignal(profile, bump_envelope(1.2, 2.0))
    seen = []

    def spy(t):
        seen.append(t)
        return late(t)

    assert causality_probe(sys_, CallableSignal(spy, dim), ZeroSignal(dim), 1.0) == 0.0
    # the premise check and both runs sample sources only up to a
    assert seen and max(seen) <= 1.0
    seen.clear()
    # with a < dt only the common initial state lies before a
    assert causality_probe(sys_, CallableSignal(spy, dim), ZeroSignal(dim), 0.01) == 0.0
    assert seen == []


def test_causality_probe_rejects_bad_inputs():
    scheme = SchemeParams(dt=0.05, t_end=2.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    z = ZeroSignal(model.layout.dim)
    with pytest.raises(InvalidProbeError):
        causality_probe(sys_, z, z, a=0.0)
    with pytest.raises(InvalidProbeError):
        causality_probe(sys_, z, z, a=2.5)
    profile = np.zeros(model.layout.dim)
    profile[model.layout.offset_of("eta")] = 1.0
    early = SeparableSignal(profile, bump_envelope(0.1, 2.0))
    with pytest.raises(InvalidProbeError):
        causality_probe(sys_, early, z, a=1.0)


def test_bound_probe_respects_solution_bound():
    scheme = SchemeParams(dt=0.05, t_end=4.0, rho=2.0)
    model, sys_ = _beam_system(8, TimoshenkoParams(c=0.5), scheme)
    profile = np.zeros(model.layout.dim)
    sl = model.layout.slice_of("eta")
    profile[sl] = np.cos(np.pi * model.layout.points_of("eta"))
    f = SeparableSignal(profile, gaussian_envelope(1.0, 0.2))
    ratio = bound_probe(sys_, f)
    # coercivity constant of this law at rho = 2 is c0 = 1/2
    assert 0.0 < ratio <= 2.0 * 1.05


def test_bound_probe_rejects_zero_source():
    scheme = SchemeParams(dt=0.1, t_end=1.0)
    model, sys_ = _beam_system(4, TimoshenkoParams(c=0.5), scheme)
    with pytest.raises(UndefinedRatioError):
        bound_probe(sys_, ZeroSignal(model.layout.dim))


def test_step_guards_against_nonfinite_source():
    layout, _, sys_ = _scalar_system(0.5, 0.1, t_end=1.0)
    u = StateVector(layout, np.array([1.0]))
    with pytest.raises(NumericError):
        step(sys_, u, np.array([np.inf]))
