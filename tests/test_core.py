import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from evobeam.core import (
    Grid,
    NumericError,
    ParameterError,
    SpaceTag,
    StateLayout,
    TimeSeries,
    build_grid,
    build_weights,
    bump_envelope,
    energy,
    gaussian_envelope,
    sinusoid_envelope,
    weighted_inner,
)
from evobeam.scenarios import SCENARIOS, TimoshenkoParams, make_timoshenko_damped


def test_grid_geometry():
    g = build_grid(4)
    assert g.h == 0.25
    np.testing.assert_allclose(g.nodes, [-0.5, -0.25, 0.0, 0.25, 0.5])
    np.testing.assert_allclose(g.centers, [-0.375, -0.125, 0.125, 0.375])


def test_grid_points_are_read_only():
    g = build_grid(4)
    for points in (g.nodes, g.centers, g.points(SpaceTag.NODE_INTERIOR)):
        with pytest.raises(ValueError, match="read-only"):
            points[0] = 1.0


@pytest.mark.parametrize("bad", [0, 1, -3, 2.5, "8"])
def test_grid_rejects_bad_sizes(bad):
    with pytest.raises(ParameterError, match="n_cells must be an integer >= 2"):
        build_grid(bad)


@pytest.mark.parametrize("error", [MemoryError, ValueError])
def test_grid_too_large_to_allocate_is_a_parameter_error(error, monkeypatch):
    # the allocation is never attempted: linspace fails as it would on a
    # grid that does not fit in memory
    def fail(*args, **kwargs):
        raise error("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(np, "linspace", fail)
    with pytest.raises(ParameterError, match="cannot allocate a grid of 1000000000000 cells"):
        build_grid(10**12)


@pytest.mark.parametrize(
    "tag,length",
    [
        (SpaceTag.NODE_ALL, 5),
        (SpaceTag.NODE_FREE_LEFT, 4),
        (SpaceTag.NODE_INTERIOR, 3),
        (SpaceTag.CENTER, 4),
        (SpaceTag.TRACE, 1),
    ],
)
def test_block_lengths(tag, length):
    assert tag.block_length(4) == length


@pytest.mark.parametrize(
    "tag,kept",
    [
        (SpaceTag.NODE_ALL, [0, 1, 2, 3, 4]),
        (SpaceTag.NODE_FREE_LEFT, [1, 2, 3, 4]),
        (SpaceTag.NODE_INTERIOR, [1, 2, 3]),
    ],
)
def test_node_slice_keeps_the_tagged_nodes(tag, kept):
    assert list(range(5)[tag.node_slice(4)]) == kept


@pytest.mark.parametrize("tag", [SpaceTag.CENTER, SpaceTag.TRACE])
def test_node_slice_rejects_non_node_tags(tag):
    with pytest.raises(ParameterError, match="is not a node tag"):
        tag.node_slice(4)


@pytest.mark.parametrize(
    "tag,ends",
    [
        (SpaceTag.NODE_ALL, (-0.5, 0.5)),
        (SpaceTag.NODE_FREE_LEFT, (0.5,)),
        (SpaceTag.NODE_INTERIOR, ()),
    ],
)
def test_free_ends_are_the_kept_boundary_nodes(tag, ends):
    assert tag.free_ends() == ends


@pytest.mark.parametrize("tag", [SpaceTag.CENTER, SpaceTag.TRACE])
def test_free_ends_rejects_non_node_tags(tag):
    with pytest.raises(ParameterError, match="is not a node tag"):
        tag.free_ends()


def test_points_exclude_pinned_nodes():
    g = build_grid(4)
    np.testing.assert_allclose(g.points(SpaceTag.NODE_FREE_LEFT), g.nodes[1:])
    np.testing.assert_allclose(g.points(SpaceTag.NODE_INTERIOR), g.nodes[1:-1])
    with pytest.raises(ParameterError, match="trace slots carry no sample points"):
        g.points(SpaceTag.TRACE)


def test_trapezoidal_weights():
    """Half weight at retained interval endpoints, h elsewhere, 1 at traces."""
    g = build_grid(4)
    h = g.h
    np.testing.assert_array_equal(g.weights(SpaceTag.NODE_ALL), [h / 2, h, h, h, h / 2])
    np.testing.assert_array_equal(g.weights(SpaceTag.NODE_FREE_LEFT), [h, h, h, h / 2])
    np.testing.assert_array_equal(g.weights(SpaceTag.NODE_INTERIOR), [h, h, h])
    np.testing.assert_array_equal(g.weights(SpaceTag.CENTER), [h, h, h, h])
    np.testing.assert_array_equal(g.weights(SpaceTag.TRACE), [1.0])


def test_node_weights_sum_to_interval_length():
    g = build_grid(8)
    assert math.isclose(g.weights(SpaceTag.NODE_ALL).sum(), 1.0)
    assert math.isclose(g.weights(SpaceTag.CENTER).sum(), 1.0)


def test_layout_offsets_and_views():
    g = build_grid(4)
    lay = make_timoshenko_damped(g, TimoshenkoParams(c=0.5)).layout
    assert lay.names == ("V1", "eta", "tau_plus", "s", "V2")
    assert lay.dim == 4 + 4 + 1 + 3 + 4
    assert lay.offset_of("tau_plus") == 8
    assert lay.slice_of("s") == slice(9, 12)
    assert lay.trace_names() == ("tau_plus",)
    assert lay.field_names() == ("V1", "eta", "s", "V2")
    vals = np.arange(lay.dim, dtype=float)
    np.testing.assert_array_equal(vals[lay.slice_of("eta")], [4, 5, 6, 7])


def test_layout_rejects_duplicate_names():
    g = build_grid(4)
    with pytest.raises(ParameterError, match="duplicate block names in layout"):
        StateLayout(g, (("a", SpaceTag.CENTER), ("a", SpaceTag.TRACE)))


@pytest.mark.parametrize("n", [2, 5, 33])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_weights_are_the_read_only_concatenated_block_weights(scenario, n):
    spec = SCENARIOS[scenario]
    model = spec.make(build_grid(n), spec.defaults)
    W = model.W
    assert isinstance(W, np.ndarray) and W.dtype == np.float64 and W.ndim == 1
    assert not W.flags.writeable
    assert np.all(W > 0)
    blocks = np.concatenate([model.grid.weights(tag) for _, tag in model.layout.blocks])
    assert W.tobytes() == blocks.tobytes()


def test_weighted_inner_is_symmetric_bilinear(rng):
    g = build_grid(8)
    lay = make_timoshenko_damped(g, TimoshenkoParams(c=0.5)).layout
    W = build_weights(lay)
    u = rng.standard_normal(lay.dim)
    v = rng.standard_normal(lay.dim)
    assert math.isclose(weighted_inner(u, v, W), weighted_inner(v, u, W), rel_tol=1e-13)
    lhs = weighted_inner(2.5 * u, v, W)
    assert math.isclose(lhs, 2.5 * weighted_inner(u, v, W), rel_tol=1e-13)


def test_stack_of_states_gives_each_row_its_one_state_bits(rng):
    # 64 cells put dim past numpy's 128-element pairwise block, so a
    # different summation order would show in the last bits
    g = build_grid(64)
    nu1 = 1.0 + rng.random(g.n_cells)
    m = make_timoshenko_damped(g, TimoshenkoParams(nu1=nu1, c=0.5, I_tilde=0.3))
    buf = rng.standard_normal((7, m.layout.dim)) * np.logspace(-3, 3, m.layout.dim)
    V = rng.standard_normal((3, m.layout.dim))
    for U in (buf[2:5], np.asfortranarray(buf[2:5]), buf[2:5][::-1]):
        inner = weighted_inner(U, V, m.W)
        assert inner.tobytes() == np.array([weighted_inner(u, v, m.W) for u, v in zip(U, V)]).tobytes()
        e = energy(U, m.m0, m.W)
        assert e.tobytes() == np.array([energy(u, m.m0, m.W) for u in U]).tobytes()
    with pytest.raises(ParameterError):
        weighted_inner(buf[:2], V[:1], m.W)
    with pytest.raises(ParameterError):
        weighted_inner(buf[None], buf[None], m.W)
    for u, m0 in ((buf[None], m.m0), (buf[:, 1:], m.m0), (buf, m.m0[1:])):
        with pytest.raises(ParameterError):
            energy(u, m0, m.W)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 40), rows=st.integers(1, 5))
def test_energy_of_the_inertia_vector_is_the_sparse_product_bitwise(data, dim, rows):
    # m0 * u and a sparse product differ only in the sign of a zero: the
    # sparse product is 0 + m*u, which is +0.0 where m*u is -0.0.  Every
    # term w*(m*u)*u is >= +0 either way, so the energies agree bitwise.
    m0 = data.draw(arrays(float, dim, elements=st.just(0.0) | st.floats(0.0, 1e3)))
    U = data.draw(arrays(float, (rows, dim), elements=st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)))
    W = data.draw(arrays(float, dim, elements=st.floats(0.5, 2.0)))
    expected = 0.5 * weighted_inner(U, (sp.diags(m0) @ U.T).T, W)
    assert energy(U, m0, W).tobytes() == expected.tobytes()
    assert np.array([energy(u, m0, W) for u in U]).tobytes() == expected.tobytes()


def test_energy_constant_coefficient_oracle():
    """All-ones state, all material coefficients 2, boundary inertia off:
    E = kappa * (sum of field-block weights) / 2 * |1|^2 = 2 * (4 - 3h/2) / 2."""
    g = build_grid(4)
    m = make_timoshenko_damped(
        g, TimoshenkoParams(kappa1=2.0, nu1=2.0, nu2=2.0, kappa2=2.0, c=0.5)
    )
    u = np.ones(m.layout.dim)
    expected = 4.0 - 3.0 * g.h / 2.0  # = 2 * (identity-material energy)
    assert math.isclose(energy(u, m.m0, m.W), expected, rel_tol=1e-14)
    assert math.isclose(expected, 3.625)


def _time_series(times, energies, snapshots=None):
    """A series on a layout of one center block and one trace slot."""
    layout = StateLayout(build_grid(2), (("V", SpaceTag.CENTER), ("tau", SpaceTag.TRACE)))
    snapshots = np.zeros((len(times), layout.dim)) if snapshots is None else snapshots
    return TimeSeries(times=np.array(times), energy=energies, snapshots=snapshots, layout=layout)


def test_time_series_validation():
    with pytest.raises(NumericError):
        _time_series([0.0, 0.0], np.zeros(2))
    # a NaN difference compares false with 0, so only the order itself,
    # tested as t[k+1] > t[k], refuses these, and without a numpy warning
    for times in ([0.0, np.nan], [0.0, np.nan, 1.0], [np.inf, np.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="record times must be strictly increasing"):
                _time_series(times, np.zeros(len(times)))
    with pytest.raises(ParameterError, match="energy record count does not match times"):
        _time_series([0.0, 1.0], np.zeros(3))


def test_time_series_refuses_trace_and_snapshot_counts():
    # the traces are the state columns of the trace slots, so a snapshot
    # array of shape (records, layout.dim) fixes both counts
    with pytest.raises(ParameterError, match=r"snapshots have shape \(3, 3\), need \(2, 3\)"):
        _time_series([0.0, 1.0], np.zeros(2), np.zeros((3, 3)))
    with pytest.raises(ParameterError, match=r"snapshots have shape \(2, 4\), need \(2, 3\)"):
        _time_series([0.0, 1.0], np.zeros(2), np.zeros((2, 4)))
    with pytest.raises(ParameterError, match=r"snapshots have shape \(2,\), need \(2, 3\)"):
        _time_series([0.0, 1.0], np.zeros(2), np.zeros(2))


def test_time_series_traces_are_views_of_the_state_columns():
    snapshots = np.arange(6.0).reshape(2, 3)
    ts = _time_series([0.0, 1.0], np.zeros(2), snapshots)
    assert list(ts.traces) == ["tau"]
    assert np.array_equal(ts.traces["tau"], [2.0, 5.0])
    snapshots[1, 2] = -1.0
    assert ts.traces["tau"][1] == -1.0


def test_bump_envelope_has_compact_support():
    env = bump_envelope(0.25, 0.75, amplitude=3.0)
    assert env(0.25) == 0.0
    assert env(0.75) == 0.0
    assert env(0.1) == 0.0
    assert env(1.0) == 0.0
    assert env(0.5) == 3.0  # peak value is exactly the amplitude
    assert 0.0 < env(0.3) < 3.0


def test_sinusoid_envelope_refuses_a_nonfinite_argument():
    env = sinusoid_envelope(1e308)
    # 2*pi*1e308 overflows: inf * 0 is NaN at t = 0, inf after
    for t in (0.0, 0.5):
        with pytest.raises(NumericError, match="sinusoid argument is not finite"):
            env(t)
    with pytest.raises(NumericError):
        sinusoid_envelope(1.0, phase=math.inf)(0.0)


def test_sinusoid_envelope_values_unchanged():
    env = sinusoid_envelope(2.5, 0.7, 1.5)
    for t in (0.0, 0.1, 0.37, 1.0, 123.456):
        assert env(t) == 1.5 * math.sin(2.0 * math.pi * 2.5 * t + 0.7)


def test_gaussian_envelope_peak():
    env = gaussian_envelope(1.0, 0.2, amplitude=2.0)
    assert math.isclose(env(1.0), 2.0)
    assert env(0.0) < 1e-4
