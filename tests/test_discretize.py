"""Difference operators, weighted adjoints, and skew assembly.

Small-N matrices are pinned entry by entry against hand calculations so
the stencils cannot drift silently; the adjoint and skewness properties
are then checked as inner-product identities, which is the actual
contract of the module.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from evobeam.cli import parse_config
from evobeam.core import (
    ParameterError,
    SpaceTag,
    build_grid,
    build_weights,
    weighted_inner,
)
from evobeam.discretize import (
    adjoint_wrt,
    assemble_skew,
    build_B,
    build_B_tilde,
    build_derivative,
    skew_defect,
)
from evobeam.scenarios import (
    SCENARIOS,
    FullDynamicParams,
    SturmLiouvilleParams,
    TimoshenkoParams,
    make_full_dynamic,
    make_sturm_liouville,
    make_timoshenko_damped,
)


def _beam(grid):
    return make_timoshenko_damped(grid, TimoshenkoParams(c=0.5))


def _full(grid):
    return make_full_dynamic(grid, FullDynamicParams())


def test_derivative_node_all_two_cells():
    # h = 1/2: (a, b, c) -> (2(b-a), 2(c-b))
    D = build_derivative(build_grid(2), SpaceTag.NODE_ALL)
    expected = np.array([[-2.0, 2.0, 0.0], [0.0, -2.0, 2.0]])
    assert np.array_equal(D.toarray(), expected)


def test_derivative_exact_on_nodal_coordinates():
    grid = build_grid(8)
    D = build_derivative(grid, SpaceTag.NODE_ALL)
    x = grid.points(SpaceTag.NODE_ALL)
    assert np.array_equal(D @ x, np.ones(8))


def test_derivative_rejects_non_node_domain():
    grid = build_grid(4)
    with pytest.raises(ParameterError, match="is not a node tag"):
        build_derivative(grid, SpaceTag.CENTER)
    with pytest.raises(ParameterError, match="is not a node tag"):
        build_derivative(grid, SpaceTag.TRACE)


def test_pinned_nodes_enter_as_zero():
    # free-left block at N = 2 holds nodes 1..2; node 0 is pinned so the
    # first cell sees only +u_1/h
    B = build_derivative(build_grid(2), SpaceTag.NODE_FREE_LEFT)
    assert np.array_equal(B.toarray(), np.array([[2.0, 0.0], [-2.0, 2.0]]))
    Di = build_derivative(build_grid(3), SpaceTag.NODE_INTERIOR)
    assert np.array_equal(
        Di.toarray(), np.array([[3.0, 0.0], [-3.0, 3.0], [0.0, -3.0]])
    )


def test_trace_augmented_b_two_cells():
    # (a, b) -> (2a, 2(b-a), b): two difference rows plus the right trace
    B = build_B(build_grid(2))
    expected = np.array([[2.0, 0.0], [-2.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(B.toarray(), expected)
    assert np.array_equal(B @ np.array([1.0, 3.0]), np.array([2.0, 4.0, 3.0]))


def test_trace_augmented_b_tilde_two_cells():
    # (a, b, c) -> (2(b-a), 2(c-b), a, c)
    Bt = build_B_tilde(build_grid(2))
    expected = np.array(
        [[-2.0, 2.0, 0.0], [0.0, -2.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    )
    assert np.array_equal(Bt.toarray(), expected)


def test_adjoint_pairing_identity(rng):
    op = sp.csr_matrix(rng.standard_normal((5, 7)))
    W_dom = rng.uniform(0.2, 3.0, 7)
    W_ran = rng.uniform(0.2, 3.0, 5)
    adj = adjoint_wrt(op, W_dom, W_ran)
    for _ in range(5):
        u = rng.standard_normal(7)
        v = rng.standard_normal(5)
        lhs = weighted_inner(op @ u, v, W_ran)
        rhs = weighted_inner(u, adj @ v, W_dom)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)


def test_adjoint_of_interior_derivative_is_transpose():
    # every weight involved equals h, so the ratio cancels exactly and the
    # weighted adjoint degenerates to the plain transpose
    grid = build_grid(3)
    D = build_derivative(grid, SpaceTag.NODE_INTERIOR)
    W_dom = grid.weights(SpaceTag.NODE_INTERIOR)
    W_ran = grid.weights(SpaceTag.CENTER)
    adj = adjoint_wrt(D, W_dom, W_ran)
    assert np.array_equal(adj.toarray(), D.toarray().T)


def test_adjoint_shape_validation():
    op = sp.csr_matrix(np.ones((3, 4)))
    with pytest.raises(ParameterError, match=r"adjoint weights \(3, 3\) do not fit operator"):
        adjoint_wrt(op, np.ones(3), np.ones(3))
    with pytest.raises(ParameterError, match=r"adjoint weights \(4, 4\) do not fit operator"):
        adjoint_wrt(op, np.ones(4), np.ones(4))


def test_summation_by_parts_identity_exact(rng):
    # <Du, v>_C + sum_int u_j (v_{j+1} - v_j) = u_N v_N - u_0 v_1
    # with the boundary rows of the adjoint reading the adjacent centers
    grid = build_grid(16)
    D = build_derivative(grid, SpaceTag.NODE_ALL)
    u = rng.standard_normal(17)
    v = rng.standard_normal(16)
    h = grid.h
    lhs = h * np.sum((D @ u) * v) + np.sum(u[1:-1] * (v[1:] - v[:-1]))
    rhs = u[-1] * v[-1] - u[0] * v[0]
    assert abs(lhs - rhs) < 1e-13


def _sbp_flux_error(n, u, v):
    grid = build_grid(n)
    D = build_derivative(grid, SpaceTag.NODE_ALL)
    un = u(grid.points(SpaceTag.NODE_ALL))
    vc = v(grid.points(SpaceTag.CENTER))
    lhs = grid.h * np.sum((D @ un) * vc) + np.sum(
        un[1:-1] * (vc[1:] - vc[:-1])
    )
    return abs(lhs - (u(0.5) * v(0.5) - u(-0.5) * v(-0.5)))


def test_summation_by_parts_flux_second_order():
    # the boundary rows read the centers adjacent to the endpoints, half a
    # cell inside; with vanishing endpoint slope of v that reading is
    # second-order accurate, otherwise only first
    u = np.exp
    flat = lambda x: np.sin(np.pi * x)
    errs = [_sbp_flux_error(n, u, flat) for n in (16, 32, 64, 128)]
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(1.9 < r < 2.1 for r in rates)
    sloped = lambda x: np.cos(np.pi * x) + x
    errs1 = [_sbp_flux_error(n, u, sloped) for n in (16, 32, 64, 128)]
    rates1 = [np.log2(errs1[i] / errs1[i + 1]) for i in range(3)]
    assert all(0.9 < r < 1.1 for r in rates1)


def test_assembled_operator_skew_defect_zero_dyadic():
    # dyadic h makes every weight ratio exact in binary arithmetic, so the
    # assembled operator is skew to the last bit
    for n in (4, 8, 32):
        for model in (_beam(build_grid(n)), _full(build_grid(n))):
            assert skew_defect(model.A, model.W) == 0.0


def test_assembled_operator_skew_defect_generic():
    for model in (_beam(build_grid(12)), _full(build_grid(10))):
        assert skew_defect(model.A, model.W) < 1e-13


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(2, 512), st.sampled_from([2**k for k in range(1, 10)])),
    name=st.sampled_from(sorted(SCENARIOS)),
)
def test_skew_defect_bound_on_any_grid(n, name):
    model = parse_config(f"[grid]\nn_cells = {n}\n[scenario]\nname = {name}\n").model
    defect = skew_defect(model.A, model.W)
    assert defect <= 1e-13 / model.grid.h
    if n & (n - 1) == 0:
        assert defect == 0.0


def test_skew_defect_flags_non_skew_operator():
    layout = _beam(build_grid(4)).layout
    W = build_weights(layout)
    ident = sp.identity(layout.dim, format="csr")
    # W*I + I*W = 2W, and the largest weight is the unit trace weight
    assert skew_defect(ident, W) == 2.0 * np.max(W)


def test_quadratic_form_of_assembled_operator_vanishes(rng):
    model = _beam(build_grid(8))
    for _ in range(3):
        u = rng.standard_normal(model.layout.dim)
        q = weighted_inner(u, model.A @ u, model.W)
        assert abs(q) <= 1e-13 * np.dot(u, u)


def test_trace_column_is_pure_penalty():
    # a unit impulse on tau_plus is felt only by the last velocity node,
    # through the 2/h adjoint penalty entry
    grid = build_grid(4)
    model = _beam(grid)
    layout = model.layout
    e = np.zeros(layout.dim)
    e[layout.offset_of("tau_plus")] = 1.0
    y = model.A @ e
    expected = np.zeros(layout.dim)
    expected[layout.offset_of("V1") + layout.length_of("V1") - 1] = 2.0 / grid.h
    assert np.array_equal(y, expected)


def test_penalty_row_reads_trace_and_adjacent_value():
    # last V1 row: difference stencil plus (2/h) * (eta_N + tau_plus),
    # realizing the weak identity tau_plus = -eta(1/2 - 0)
    grid = build_grid(4)
    model = _beam(grid)
    M, layout = model.A.toarray(), model.layout
    row = M[layout.offset_of("V1") + layout.length_of("V1") - 1]
    eta_last = layout.offset_of("eta") + layout.length_of("eta") - 1
    assert row[eta_last] == 2.0 / grid.h
    assert row[layout.offset_of("tau_plus")] == 2.0 / grid.h


def test_full_dynamic_groups_never_couple():
    grid = build_grid(4)
    model = _full(grid)
    layout = model.layout
    M = model.A.toarray()
    group1 = ("V1", "eta", "tau0_minus", "tau0_plus")
    group2 = ("s", "V2", "tau1_minus", "tau1_plus")
    idx1 = np.concatenate([np.arange(*layout.slice_of(n).indices(layout.dim)) for n in group1])
    idx2 = np.concatenate([np.arange(*layout.slice_of(n).indices(layout.dim)) for n in group2])
    assert np.array_equal(M[np.ix_(idx1, idx2)], np.zeros((idx1.size, idx2.size)))
    assert np.array_equal(M[np.ix_(idx2, idx1)], np.zeros((idx2.size, idx1.size)))


def test_assemble_skew_rejects_overlapping_pair():
    layout = _beam(build_grid(4)).layout
    op = sp.identity(4, format="csr")
    with pytest.raises(ParameterError, match="domain and range blocks of a pair must differ"):
        assemble_skew(layout, [(op, ("V1",), ("V1",))])


def _block_index(layout, names):
    return np.concatenate([np.arange(*layout.slice_of(n).indices(layout.dim)) for n in names])


def _dense_skew(layout, pairs):
    """-op in the range rows and adjoint_wrt(op) in the domain rows, placed
    entry by entry into a dense matrix."""
    W = build_weights(layout)
    ref = np.zeros((layout.dim, layout.dim))
    for op, dom, ran in pairs:
        d, r = _block_index(layout, dom), _block_index(layout, ran)
        ref[np.ix_(r, d)] = (-op).toarray()
        ref[np.ix_(d, r)] = adjoint_wrt(op, W[d], W[r]).toarray()
    return ref


@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_skew_placement_matches_dense_reference(n):
    grid = build_grid(n)
    # sturm_liouville's range blocks (V1, tau_minus, tau_plus) are not
    # contiguous: eta sits between V1 and the traces
    sl = make_sturm_liouville(grid, SturmLiouvilleParams())
    ref = _dense_skew(
        sl.layout, [(build_B_tilde(grid), ("eta",), ("V1", "tau_minus", "tau_plus"))]
    )
    assert sl.A.toarray().tobytes() == ref.tobytes()
    beam = _beam(grid)
    ref = _dense_skew(
        beam.layout,
        [
            (build_B(grid), ("V1",), ("eta", "tau_plus")),
            (build_derivative(grid, SpaceTag.NODE_INTERIOR), ("s",), ("V2",)),
        ],
    )
    assert beam.A.toarray().tobytes() == ref.tobytes()


def test_layout_shapes():
    grid = build_grid(6)
    lt = _beam(grid).layout
    assert lt.names == ("V1", "eta", "tau_plus", "s", "V2")
    assert lt.dim == 6 + 6 + 1 + 5 + 6
    lf = _full(grid).layout
    assert lf.names == (
        "V1",
        "eta",
        "tau0_minus",
        "tau0_plus",
        "s",
        "V2",
        "tau1_minus",
        "tau1_plus",
    )
    assert lf.dim == 7 + 6 + 1 + 1 + 7 + 6 + 1 + 1
