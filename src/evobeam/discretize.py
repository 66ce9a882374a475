"""Difference operators, trace-augmented operators, and skew assembly.

The one structural rule of this module: an adjoint is never written down by
hand.  Every starred operator is produced by adjoint_wrt against the actual
quadrature weights, so the assembled spatial operators are skew-adjoint in
the discrete inner product by construction, up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    Grid,
    InvalidDomainError,
    SpaceTag,
    StateLayout,
    WeightMatrix,
    build_weights,
)

__all__ = [
    "DiscreteDerivative",
    "TraceAugmentedOp",
    "SkewOperator",
    "build_derivative",
    "build_B",
    "build_B_tilde",
    "adjoint_wrt",
    "timoshenko_layout",
    "full_dynamic_layout",
    "assemble_skew",
    "assemble_A_timoshenko",
    "assemble_A_tilde",
    "skew_defect",
]


@dataclass(frozen=True)
class DiscreteDerivative:
    """Forward-difference matrix from a node-tagged block to the Center block.

    Row i is (u_{i+1} - u_i)/h over the retained node columns; nodes removed
    by the tag (pinned to zero) simply contribute nothing to their rows.
    """

    matrix: sp.csr_matrix
    dom_tag: SpaceTag
    grid: Grid


@dataclass(frozen=True)
class TraceAugmentedOp:
    """Derivative rows stacked with boundary-selector trace rows.

    Each trace row is a coordinate selector: a single 1 in the column of the
    node adjacent to the named endpoint.  trace_rows maps row index (within
    the stacked matrix) to the endpoint name it reads.
    """

    matrix: sp.csr_matrix
    dom_tag: SpaceTag
    grid: Grid
    trace_rows: tuple[tuple[int, str], ...]

    @property
    def n_traces(self) -> int:
        return len(self.trace_rows)


@dataclass(frozen=True)
class SkewOperator:
    """Spatial operator on a full layout, skew-adjoint against weights W."""

    matrix: sp.csr_matrix
    layout: StateLayout
    W: WeightMatrix


def build_derivative(grid: Grid, tag: SpaceTag) -> DiscreteDerivative:
    """Difference quotient mapping node values to cell centers.

    Cell k spans nodes k-1 and k; columns of removed nodes are absent, so a
    pinned node enters the quotient as zero.  A tag that is not a node tag
    raises InvalidDomainError.
    """
    n = grid.n_cells
    keep = tag.node_slice(n)
    inv_h = 1.0 / grid.h
    mat = sp.diags([-inv_h, inv_h], [0, 1], shape=(n, n + 1), format="csr")[:, keep]
    return DiscreteDerivative(matrix=mat, dom_tag=tag, grid=grid)


def _stack_with_traces(
    deriv: DiscreteDerivative, selectors: list[tuple[int, str]]
) -> TraceAugmentedOp:
    n = deriv.grid.n_cells
    width = deriv.matrix.shape[1]
    trace_block = sp.csr_matrix(
        (np.ones(len(selectors)), (range(len(selectors)), [c for c, _ in selectors])),
        shape=(len(selectors), width),
    )
    mat = sp.vstack([deriv.matrix, trace_block], format="csr")
    names = tuple((n + i, name) for i, (_, name) in enumerate(selectors))
    return TraceAugmentedOp(matrix=mat, dom_tag=deriv.dom_tag, grid=deriv.grid, trace_rows=names)


def build_B(grid: Grid) -> TraceAugmentedOp:
    """Derivative with a left zero condition, augmented by the right trace.

    Acts on a NodeFreeLeft block; the output stacks the N difference rows
    with one selector row reading the value at the node next to +1/2.
    """
    deriv = build_derivative(grid, SpaceTag.NODE_FREE_LEFT)
    # column of node N within the NodeFreeLeft block is N-1
    return _stack_with_traces(deriv, [(grid.n_cells - 1, "right")])


def build_B_tilde(grid: Grid) -> TraceAugmentedOp:
    """Unrestricted derivative augmented by traces at both endpoints."""
    deriv = build_derivative(grid, SpaceTag.NODE_ALL)
    return _stack_with_traces(deriv, [(0, "left"), (grid.n_cells, "right")])


def adjoint_wrt(op: sp.spmatrix, W_dom: WeightMatrix, W_ran: WeightMatrix) -> sp.csr_matrix:
    """Exact adjoint in the weighted inner products: W_dom^{-1} opT W_ran.

    Satisfies <op u, v>_{W_ran} = <u, adjoint v>_{W_dom} up to roundoff for
    all u, v; this identity, not any stencil, is the contract.
    """
    m, n = op.shape
    if W_ran.dim != m or W_dom.dim != n:
        raise InvalidDomainError(
            f"adjoint weights ({W_dom.dim}, {W_ran.dim}) do not fit operator {op.shape}"
        )
    scaled = sp.csr_matrix(op).T.multiply(W_ran.diag[np.newaxis, :])
    return sp.csr_matrix(scaled.multiply((1.0 / W_dom.diag)[:, np.newaxis]))


def timoshenko_layout(grid: Grid) -> StateLayout:
    return StateLayout(
        grid,
        (
            ("V1", SpaceTag.NODE_FREE_LEFT),
            ("eta", SpaceTag.CENTER),
            ("tau_plus", SpaceTag.TRACE),
            ("s", SpaceTag.NODE_INTERIOR),
            ("V2", SpaceTag.CENTER),
        ),
    )


def full_dynamic_layout(grid: Grid) -> StateLayout:
    return StateLayout(
        grid,
        (
            ("V1", SpaceTag.NODE_ALL),
            ("eta", SpaceTag.CENTER),
            ("tau0_minus", SpaceTag.TRACE),
            ("tau0_plus", SpaceTag.TRACE),
            ("s", SpaceTag.NODE_ALL),
            ("V2", SpaceTag.CENTER),
            ("tau1_minus", SpaceTag.TRACE),
            ("tau1_plus", SpaceTag.TRACE),
        ),
    )


def assemble_skew(
    layout: StateLayout,
    pairs: list[tuple[sp.spmatrix, tuple[str, ...], tuple[str, ...]]],
) -> SkewOperator:
    """Assemble a skew operator from (op, domain blocks, range blocks) pairs.

    Each pair contributes -op in the range rows and the weighted adjoint in
    the domain rows; blocks not mentioned stay zero.  Domain and range block
    names of one pair must be disjoint.  This two-sided placement is the only
    way couplings enter an assembled operator, which is what makes skewness
    structural.
    """
    W = build_weights(layout)
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    for op, dom, ran in pairs:
        if set(dom) & set(ran):
            raise InvalidDomainError("domain and range blocks of a pair must differ")
        dom_idx, ran_idx = layout.indices_of(dom), layout.indices_of(ran)
        op = sp.coo_matrix(op)
        adj = adjoint_wrt(op, WeightMatrix(W.diag[dom_idx]), WeightMatrix(W.diag[ran_idx])).tocoo()
        rows += [ran_idx[op.row], dom_idx[adj.row]]
        cols += [dom_idx[op.col], ran_idx[adj.col]]
        vals += [-op.data, adj.data]
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(layout.dim, layout.dim),
    )
    return SkewOperator(matrix=mat, layout=layout, W=W)


def assemble_A_timoshenko(grid: Grid) -> SkewOperator:
    """Spatial operator on (V1, eta, tau_plus, s, V2).

    The V1 row carries the weighted adjoint of the trace-augmented
    derivative; the (eta, tau_plus) rows carry its negative.  The s row
    carries the adjoint of the interior derivative (the discrete stand-in
    for the unrestricted derivative, sign included) and the V2 row its
    negative.  The adjoint's boundary rows act as penalties that enforce
    tau_plus + eta(1/2-0) = 0 weakly.
    """
    layout = timoshenko_layout(grid)
    B = build_B(grid)
    D_int = build_derivative(grid, SpaceTag.NODE_INTERIOR)
    return assemble_skew(
        layout,
        [
            (B.matrix, ("V1",), ("eta", "tau_plus")),
            (D_int.matrix, ("s",), ("V2",)),
        ],
    )


def assemble_A_tilde(grid: Grid) -> SkewOperator:
    """Spatial operator on the fully trace-augmented eight-block layout.

    Two independent copies of the [[0, adj], [-op, 0]] pattern built from
    the two-trace derivative; the (V1, eta, tau0) group never touches the
    (s, V2, tau1) group.
    """
    layout = full_dynamic_layout(grid)
    Bt = build_B_tilde(grid)
    return assemble_skew(
        layout,
        [
            (Bt.matrix, ("V1",), ("eta", "tau0_minus", "tau0_plus")),
            (Bt.matrix, ("s",), ("V2", "tau1_minus", "tau1_plus")),
        ],
    )


def skew_defect(A: SkewOperator) -> float:
    """max |(W A + A^T W)_ij|; zero for an exactly skew-adjoint operator."""
    Wd = sp.diags(A.W.diag)
    defect = Wd @ A.matrix + A.matrix.T @ Wd
    if defect.nnz == 0:
        return 0.0
    return float(np.max(np.abs(defect.tocoo().data)))
