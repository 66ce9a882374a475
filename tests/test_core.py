import math

import numpy as np
import pytest

from evobeam.core import (
    CoefficientField,
    DimensionError,
    Grid,
    InvalidDomainError,
    InvalidGridError,
    NumericError,
    ParameterError,
    SeparableSignal,
    Signal,
    SpaceTag,
    StateLayout,
    StateVector,
    TimeSeries,
    WeightMatrix,
    ZeroSignal,
    build_grid,
    build_weights,
    bump_envelope,
    energy,
    exp_weighted_norm,
    gaussian_envelope,
    sinusoid_envelope,
    weighted_inner,
    weighted_norm,
    zero_state,
)
from evobeam.discretize import timoshenko_layout
from evobeam.scenarios import TimoshenkoParams, make_timoshenko_damped


def test_grid_geometry():
    g = build_grid(4)
    assert g.h == 0.25
    np.testing.assert_allclose(g.nodes, [-0.5, -0.25, 0.0, 0.25, 0.5])
    np.testing.assert_allclose(g.centers, [-0.375, -0.125, 0.125, 0.375])


@pytest.mark.parametrize("bad", [0, 1, -3, 2.5, "8"])
def test_grid_rejects_bad_sizes(bad):
    with pytest.raises(InvalidGridError):
        build_grid(bad)


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
    with pytest.raises(InvalidDomainError):
        tag.node_slice(4)


def test_points_exclude_pinned_nodes():
    g = build_grid(4)
    np.testing.assert_allclose(g.points(SpaceTag.NODE_FREE_LEFT), g.nodes[1:])
    np.testing.assert_allclose(g.points(SpaceTag.NODE_INTERIOR), g.nodes[1:-1])
    with pytest.raises(InvalidDomainError):
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
    lay = timoshenko_layout(g)
    assert lay.names == ("V1", "eta", "tau_plus", "s", "V2")
    assert lay.dim == 4 + 4 + 1 + 3 + 4
    assert lay.offset_of("tau_plus") == 8
    assert lay.slice_of("s") == slice(9, 12)
    assert lay.trace_names() == ("tau_plus",)
    assert lay.field_names() == ("V1", "eta", "s", "V2")
    vals = np.arange(lay.dim, dtype=float)
    np.testing.assert_array_equal(lay.block(vals, "eta"), [4, 5, 6, 7])


def test_layout_rejects_duplicate_names():
    g = build_grid(4)
    with pytest.raises(DimensionError):
        StateLayout(g, (("a", SpaceTag.CENTER), ("a", SpaceTag.TRACE)))


def test_state_vector_checks_shape_and_finiteness():
    g = build_grid(4)
    lay = StateLayout(g, (("v", SpaceTag.CENTER),))
    with pytest.raises(DimensionError):
        StateVector(lay, np.zeros(3))
    with pytest.raises(NumericError):
        StateVector(lay, np.array([1.0, np.nan, 0.0, 0.0]))
    z = zero_state(lay)
    assert z.values.shape == (4,)
    assert weighted_norm(z, build_weights(lay)) == 0.0


def test_weight_matrix_positivity():
    with pytest.raises(NumericError):
        WeightMatrix(np.array([1.0, 0.0, 2.0]))


def test_weighted_inner_is_symmetric_bilinear(rng):
    g = build_grid(8)
    lay = timoshenko_layout(g)
    W = build_weights(lay)
    u = rng.standard_normal(lay.dim)
    v = rng.standard_normal(lay.dim)
    assert math.isclose(weighted_inner(u, v, W), weighted_inner(v, u, W), rel_tol=1e-13)
    lhs = weighted_inner(2.5 * u, v, W)
    assert math.isclose(lhs, 2.5 * weighted_inner(u, v, W), rel_tol=1e-13)


def test_energy_constant_coefficient_oracle():
    """All-ones state, all material coefficients 2, boundary inertia off:
    E = kappa * (sum of field-block weights) / 2 * |1|^2 = 2 * (4 - 3h/2) / 2."""
    g = build_grid(4)
    m = make_timoshenko_damped(
        g, TimoshenkoParams(kappa1=2.0, nu1=2.0, nu2=2.0, kappa2=2.0, c=0.5)
    )
    u = StateVector(m.layout, np.ones(m.layout.dim))
    expected = 4.0 - 3.0 * g.h / 2.0  # = 2 * (identity-material energy)
    assert math.isclose(energy(u, m.M0, m.W), expected, rel_tol=1e-14)
    assert math.isclose(expected, 3.625)


def test_time_series_validation():
    with pytest.raises(NumericError):
        TimeSeries(times=np.array([0.0, 0.0]), energy=np.zeros(2), traces={})
    with pytest.raises(DimensionError):
        TimeSeries(times=np.array([0.0, 1.0]), energy=np.zeros(3), traces={})


def test_exp_weighted_norm_constant_state():
    """Constant unit-norm state: integral has the closed form (1-e^{-2rho T})/(2rho)."""
    g = build_grid(2)
    lay = StateLayout(g, (("tau", SpaceTag.TRACE),))
    W = build_weights(lay)
    times = np.linspace(0.0, 1.0, 4001)
    states = np.ones((times.size, 1))
    for rho in (0.5, 1.0, 2.0):
        exact = math.sqrt((1.0 - math.exp(-2.0 * rho)) / (2.0 * rho))
        assert math.isclose(exp_weighted_norm(times, states, rho, W), exact, rel_tol=1e-6)


def test_coefficient_field_constructors_and_checks():
    g = build_grid(4)
    f = CoefficientField.constant(2.0, g, SpaceTag.CENTER)
    np.testing.assert_array_equal(f.values, [2.0, 2.0, 2.0, 2.0])
    with pytest.raises(ParameterError):
        CoefficientField.constant(-1.0, g, SpaceTag.CENTER).require_nonnegative("d")
    with pytest.raises(ParameterError):
        CoefficientField.constant(0.0, g, SpaceTag.CENTER).require_positive("kappa")


def test_zero_signal_and_algebra():
    z = ZeroSignal(3)
    np.testing.assert_array_equal(z(0.7), np.zeros(3))
    s = SeparableSignal(np.array([1.0, 0.0, 2.0]), sinusoid_envelope(1.0, 0.0, 1.0))
    total = z + s * 2.0
    expected = 2.0 * math.sin(2.0 * math.pi * 0.25) * np.array([1.0, 0.0, 2.0])
    np.testing.assert_allclose(total(0.25), expected)
    assert isinstance(total, Signal)


def test_bump_envelope_has_compact_support():
    env = bump_envelope(0.25, 0.75, amplitude=3.0)
    assert env(0.25) == 0.0
    assert env(0.75) == 0.0
    assert env(0.1) == 0.0
    assert env(1.0) == 0.0
    assert env(0.5) == 3.0  # peak value is exactly the amplitude
    assert 0.0 < env(0.3) < 3.0


def test_gaussian_envelope_peak():
    env = gaussian_envelope(1.0, 0.2, amplitude=2.0)
    assert math.isclose(env(1.0), 2.0)
    assert env(0.0) < 1e-4


def test_grid_equality_is_by_size():
    assert build_grid(8) == build_grid(8)
    assert build_grid(8) != build_grid(16)
    assert hash(build_grid(8)) == hash(build_grid(8))
