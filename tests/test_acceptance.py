"""Acceptance suite: one criterion per numbered marker.

Each criterion gets a PASS/FAIL line in the terminal summary (see
conftest).  Tolerances are part of the contract and are not to be
loosened; parameters were chosen so every healthy build clears them with
a wide margin.
"""

import functools
import math

import numpy as np
import pytest

from evobeam.cli import cmd_check, parse_config
from evobeam.core import (
    build_grid,
    bump_envelope,
    energy,
    gaussian_envelope,
    sinusoid_envelope,
    weighted_inner,
)
from evobeam.discretize import skew_defect
from evobeam.integrate import (
    SchemeParams,
    bound_probe,
    causality_probe,
    energy_balance_residual,
    factor,
    run,
    step,
)
from evobeam.scenarios import (
    FullDynamicParams,
    SturmLiouvilleParams,
    TimoshenkoParams,
    apply_sign_flip,
    consistent_initial_state,
    embed_block,
    exact_state,
    make_full_dynamic,
    make_sturm_liouville,
    make_timoshenko_damped,
    manufactured_source,
    reconstruct_displacements,
    sign_flip_vector,
    split_model,
    timoshenko_mms_fields,
)
from evobeam.wellposed import NevanlinnaSpec, nevanlinna_check
from oracles import min_coercivity_eig

SCENARIO_BUILDERS = {
    "timoshenko_damped": lambda n: make_timoshenko_damped(
        build_grid(n), TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.2)
    ),
    "dynamic_inertia": lambda n: make_timoshenko_damped(
        build_grid(n), TimoshenkoParams(c=0.0, I_tilde=1.0)
    ),
    "full_dynamic": lambda n: make_full_dynamic(
        build_grid(n), FullDynamicParams(mu_plus=NevanlinnaSpec(1.0, 0.5))
    ),
    "sturm_liouville": lambda n: make_sturm_liouville(
        build_grid(n), SturmLiouvilleParams(s0=1.0)
    ),
}


def _system(model, **scheme_kw):
    scheme = SchemeParams(**scheme_kw)
    return scheme, factor(model, scheme)


@functools.lru_cache(maxsize=None)
def _mms_results(levels):
    """W-norm errors at t_end = 1 with dt = h, plus reconstruction
    residuals of the two constitutive relations and the largest trace-row
    source value (shared by criteria 8 and 11)."""
    fields, dfields = timoshenko_mms_fields()
    errs, res_v1, res_v2, hs = [], [], [], []
    trace_peak = 0.0
    for n in levels:
        model = make_timoshenko_damped(
            build_grid(n), TimoshenkoParams(c=0.5, I_tilde=0.0)
        )
        lay = model.layout
        h = model.grid.h
        scheme, sys_ = _system(model, dt=h, t_end=1.0)
        src = manufactured_source(model, fields, dfields)
        tau = lay.offset_of("tau_plus")
        trace_peak = max(
            trace_peak, max(abs(src(k * h)[tau]) for k in range(n + 1))
        )
        ts = run(sys_, exact_state(model, fields, 0.0), src)
        diff = ts.snapshots[-1] - exact_state(model, fields, ts.times[-1])
        errs.append(math.sqrt(weighted_inner(diff, diff, model.W)))
        hs.append(h)

        # displacement reconstruction: phi from eta, u from s
        xc = lay.points_of("eta")
        phi0 = np.sin(np.pi * (xc + 0.5)) * np.cos(0.3)
        u0 = np.zeros(lay.length_of("s"))
        disp = reconstruct_displacements(ts, initial={"eta": phi0, "s": u0})
        phi, u = disp["phi"][-1], disp["u"][-1]
        v1 = ts.snapshots[-1][lay.slice_of("V1")]
        v2 = ts.snapshots[-1][lay.slice_of("V2")]
        # stress = slope of the angular displacement at interior nodes
        res_v1.append(np.max(np.abs(v1[:-1] - np.diff(phi) / h)))
        # shear stress = slope of the pinned displacement plus the angle
        u_ext = np.concatenate([[0.0], u, [0.0]])
        res_v2.append(np.max(np.abs(v2 - (np.diff(u_ext) / h + phi))))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    rate_v1 = float(np.polyfit(np.log(hs), np.log(res_v1), 1)[0])
    rate_v2 = float(np.polyfit(np.log(hs), np.log(res_v2), 1)[0])
    return slope, rate_v1, rate_v2, trace_peak


@pytest.mark.acceptance(1, "assembled spatial operators are skew-adjoint")
@pytest.mark.parametrize("tag", sorted(SCENARIO_BUILDERS))
@pytest.mark.parametrize("n", [8, 32, 128])
def test_skew_defect_within_tolerance(tag, n):
    model = SCENARIO_BUILDERS[tag](n)
    assert skew_defect(model.A, model.W) <= 1e-13 / model.grid.h


@pytest.mark.acceptance(2, "midpoint stepping balances energy exactly")
@pytest.mark.parametrize("tag", sorted(SCENARIO_BUILDERS))
def test_energy_balance_every_step(tag, rng):
    model = SCENARIO_BUILDERS[tag](16)
    _, sys_ = _system(model, dt=0.02, t_end=1.0)
    u = rng.standard_normal(model.layout.dim)
    for _ in range(50):
        f = rng.standard_normal(model.layout.dim)
        u_next = step(sys_, u, f)
        e_n = energy(u, model.m0, model.W)
        res = energy_balance_residual(sys_, u, u_next, f)
        assert abs(res) <= 1e-12 * max(1.0, e_n)
        u = u_next


@pytest.mark.acceptance(3, "conservative run holds energy over 10^4 steps")
def test_long_run_conservation(rng):
    model = make_timoshenko_damped(
        build_grid(64), TimoshenkoParams(c=0.0, I_tilde=1.0, d=0.0)
    )
    dt = 1.0 / 64
    scheme, sys_ = _system(
        model, dt=dt, t_end=10_000 * dt, record_every=10
    )
    assert scheme.n_steps == 10_000
    u0 = rng.standard_normal(model.layout.dim)
    ts = run(sys_, u0, lambda t: np.zeros(model.layout.dim))
    drift = np.max(np.abs(ts.energy - ts.energy[0])) / ts.energy[0]
    assert drift <= 1e-10


@pytest.mark.acceptance(4, "boundary dashpot dissipates monotonically")
def test_boundary_damping_decays():
    model = make_timoshenko_damped(
        build_grid(32), TimoshenkoParams(c=0.5, I_tilde=0.0, d=0.0)
    )
    lay = model.layout
    u0 = np.zeros(lay.dim)
    xc = lay.points_of("eta")
    u0[lay.slice_of("eta")] = np.sin(np.pi * (xc + 0.5) / 2)
    u0 = consistent_initial_state(model, u0)
    _, sys_ = _system(model, dt=1.0 / 32, t_end=4.0)
    ts = run(sys_, u0, lambda t: np.zeros(lay.dim))
    e0 = ts.energy[0]
    assert np.all(np.diff(ts.energy) <= 1e-12 * max(1.0, e0))
    assert ts.energy[-1] < 0.99 * e0


@pytest.mark.acceptance(5, "coercivity constant matches independent eigensolve")
def test_coercivity_against_oracle():
    text = """\
[grid]
n_cells = 32

[scenario]
name = timoshenko_damped
c = 0.5
I_tilde = 0.0

[scheme]
rho = 2.0
"""
    cfg = parse_config(text)
    lines, code = cmd_check(cfg)
    assert code == 0
    reported = float(lines[0].split("=")[1])
    model = make_timoshenko_damped(
        build_grid(32), TimoshenkoParams(c=0.5, I_tilde=0.0)
    )
    oracle = min_coercivity_eig(
        np.diag(model.m0), model.M1.toarray(), 2.0, model.W.diag
    )
    assert abs(reported - oracle) <= 1e-12
    assert abs(reported - 0.5) <= 1e-12


@pytest.mark.acceptance(6, "response norm stays within the solution bound")
@pytest.mark.parametrize(
    "block,center,width",
    [("eta", 1.0, 0.2), ("s", 3.0, 0.5), ("V2", 0.7, 0.1)],
)
def test_solution_bound_probe(block, center, width):
    model = make_timoshenko_damped(
        build_grid(32), TimoshenkoParams(c=0.5, I_tilde=0.0)
    )
    scheme, sys_ = _system(model, dt=1.0 / 64, t_end=10.0, rho=2.0)
    x = model.layout.points_of(block)
    profile = embed_block(model.layout, block, np.cos(np.pi * x))
    env = gaussian_envelope(center, width)
    ratio = bound_probe(sys_, lambda t: profile * env(t))
    # c0 = 1/2 at rho = 2, so the discrete ratio must stay below 1.05 * 2
    assert 0.0 < ratio <= 1.05 * 2.0


@pytest.mark.acceptance(7, "solutions are causal before the split time")
@pytest.mark.parametrize("a", [0.25, 0.5])
def test_causality_split(a):
    model = make_timoshenko_damped(
        build_grid(16), TimoshenkoParams(c=0.5, I_tilde=0.0)
    )
    scheme, sys_ = _system(model, dt=1.0 / 64, t_end=1.0)
    x = model.layout.points_of("eta")
    shared_profile = embed_block(model.layout, "eta", np.cos(np.pi * x))
    late_profile = embed_block(model.layout, "s", np.ones(model.layout.length_of("s")))
    wave, bump = sinusoid_envelope(1.0), bump_envelope(a + 0.05, 1.0)
    shared = lambda t: shared_profile * wave(t)
    dev = causality_probe(sys_, shared, lambda t: shared(t) + late_profile * bump(t), a)
    assert dev <= 1e-13


@pytest.mark.acceptance(8, "manufactured solutions converge at second order")
def test_mms_second_order_and_reconstruction():
    slope, rate_v1, rate_v2, _ = _mms_results((8, 16, 32, 64))
    assert slope >= 1.9
    assert rate_v1 >= 1.0
    assert rate_v2 >= 1.0


@pytest.mark.acceptance(9, "block groups split without cross-talk")
def test_full_vs_split_runs(rng):
    fd = make_full_dynamic(build_grid(8), FullDynamicParams())
    group = ("V1", "eta", "tau0_minus", "tau0_plus")
    sub = split_model(fd, group)
    scheme_kw = dict(dt=0.001, t_end=1.0, record_every=50)
    _, sys_full = _system(fd, **scheme_kw)
    _, sys_sub = _system(sub, **scheme_kw)
    u0_sub = rng.standard_normal(sub.layout.dim)
    idx = np.concatenate(
        [np.arange(*fd.layout.slice_of(nm).indices(fd.layout.dim)) for nm in group]
    )
    u0_full = np.zeros(fd.layout.dim)
    u0_full[idx] = u0_sub
    ts_full = run(sys_full, u0_full, lambda t: np.zeros(fd.layout.dim))
    ts_sub = run(sys_sub, u0_sub, lambda t: np.zeros(sub.layout.dim))
    assert np.max(np.abs(ts_full.snapshots[:, idx] - ts_sub.snapshots)) <= 1e-12
    rest = np.setdiff1d(np.arange(fd.layout.dim), idx)
    assert np.max(np.abs(ts_full.snapshots[:, rest])) <= 1e-12


@pytest.mark.acceptance(10, "sign-flip congruence maps solutions exactly")
def test_unitary_congruence(rng):
    model = make_timoshenko_damped(
        build_grid(16), TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.2)
    )
    flipped = apply_sign_flip(model)
    s = sign_flip_vector(model.layout)
    scheme_kw = dict(dt=0.01, t_end=1.0)
    _, sys_a = _system(model, **scheme_kw)
    _, sys_b = _system(flipped, **scheme_kw)
    x = model.layout.points_of("eta")
    profile = embed_block(model.layout, "eta", np.cos(np.pi * x))
    env = gaussian_envelope(0.3, 0.1)
    u0 = rng.standard_normal(model.layout.dim)
    ts_a = run(sys_a, u0, lambda t: profile * env(t))
    ts_b = run(sys_b, s * u0, lambda t: s * profile * env(t))
    assert np.max(np.abs(ts_b.snapshots - ts_a.snapshots * s[None, :])) <= 1e-12
    assert np.max(np.abs(ts_b.energy - ts_a.energy)) <= 1e-12


@pytest.mark.acceptance(11, "trace sources drive the system linearly")
def test_inhomogeneous_boundary_data():
    model = make_timoshenko_damped(
        build_grid(16), TimoshenkoParams(c=0.5, I_tilde=0.0)
    )
    _, sys_ = _system(model, dt=1.0 / 64, t_end=1.0)
    trace_profile, wave = embed_block(model.layout, "tau_plus", np.ones(1)), sinusoid_envelope(1.0)
    g = lambda t: trace_profile * wave(t)
    ts1 = run(sys_, np.zeros(model.layout.dim), g)
    assert np.max(np.abs(ts1.snapshots)) > 1e-8
    assert ts1.energy[-1] > 0.0
    ts3 = run(sys_, np.zeros(model.layout.dim), lambda t: 3.0 * g(t))
    scale = np.max(np.abs(ts1.snapshots))
    assert np.max(np.abs(ts3.snapshots - 3.0 * ts1.snapshots)) <= 1e-11 * max(1.0, scale)
    # the convergence family itself carries nonzero boundary data in the
    # trace row, so second order also covers the inhomogeneous case
    slope, _, _, trace_peak = _mms_results((8, 16, 32, 64))
    assert trace_peak > 1.0
    assert slope >= 1.9


@pytest.mark.acceptance(12, "trace laws pass upper-half-plane positivity")
def test_nevanlinna_bulk_validation(rng):
    samples = rng.uniform(-50.0, 50.0, 1000) + 1j * rng.uniform(1e-6, 50.0, 1000)
    coeffs = rng.uniform(0.0, 2.0, size=(1000, 2))
    for mu0, mu1 in coeffs:
        if mu0 == 0.0 and mu1 == 0.0:
            continue
        assert nevanlinna_check(NevanlinnaSpec(mu0, mu1))
        # the samples are an independent oracle for the closed-form verdict
        assert np.all((mu0 * samples + mu1).imag >= 0)
    for mu0, mu1 in ((-0.1, 1.0), (-1e-6, 0.0)):
        assert not nevanlinna_check(NevanlinnaSpec(mu0, mu1))
        assert np.any((mu0 * samples + mu1).imag < 0)
    # Im = mu0*Im(z) < 0 however small mu0 is, though no sample may resolve it
    assert not nevanlinna_check(NevanlinnaSpec(-1e-300, 0.0))
