"""Difference operators, trace-augmented operators, and skew assembly.

The one structural rule of this module: an adjoint is never written down by
hand.  Every starred operator is produced by adjoint_wrt against the actual
quadrature weights, so the assembled spatial operators are skew-adjoint in
the discrete inner product by construction, up to roundoff.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .core import Grid, ParameterError, SpaceTag, StateLayout, WeightMatrix, build_weights

__all__ = [
    "build_derivative",
    "build_B",
    "build_B_tilde",
    "adjoint_wrt",
    "assemble_skew",
    "skew_defect",
]


def build_derivative(grid: Grid, tag: SpaceTag) -> sp.csr_matrix:
    """Forward-difference matrix from a node-tagged block to the Center block.

    Row i is (u_{i+1} - u_i)/h over all N+1 nodes; columns of nodes removed
    by the tag are absent, so a pinned node enters the quotient as zero.  A
    tag that is not a node tag raises ParameterError.
    """
    n = grid.n_cells
    keep = tag.node_slice(n)
    inv_h = 1.0 / grid.h
    return sp.diags([-inv_h, inv_h], [0, 1], shape=(n, n + 1), format="csr")[:, keep]


def _stack_with_traces(deriv: sp.csr_matrix, cols: list[int]) -> sp.csr_matrix:
    """Derivative rows stacked with one trace row per entry of ``cols``.

    Each trace row is a coordinate selector: a single 1 in the column of the
    node adjacent to its endpoint.
    """
    trace_block = sp.csr_matrix(
        (np.ones(len(cols)), (range(len(cols)), cols)), shape=(len(cols), deriv.shape[1])
    )
    return sp.vstack([deriv, trace_block], format="csr")


def build_B(grid: Grid) -> sp.csr_matrix:
    """Derivative with a left zero condition, augmented by the right trace.

    Acts on a NodeFreeLeft block; the output stacks the N difference rows
    with one selector row reading the value at the node next to +1/2.
    """
    deriv = build_derivative(grid, SpaceTag.NODE_FREE_LEFT)
    # column of node N within the NodeFreeLeft block is N-1
    return _stack_with_traces(deriv, [grid.n_cells - 1])


def build_B_tilde(grid: Grid) -> sp.csr_matrix:
    """Unrestricted derivative augmented by the left, then the right trace."""
    deriv = build_derivative(grid, SpaceTag.NODE_ALL)
    return _stack_with_traces(deriv, [0, grid.n_cells])


def adjoint_wrt(op: sp.spmatrix, W_dom: WeightMatrix, W_ran: WeightMatrix) -> sp.csr_matrix:
    """Exact adjoint in the weighted inner products: W_dom^{-1} opT W_ran.

    Satisfies <op u, v>_{W_ran} = <u, adjoint v>_{W_dom} up to roundoff for
    all u, v; this identity, not any stencil, is the contract.
    """
    m, n = op.shape
    if W_ran.dim != m or W_dom.dim != n:
        raise ParameterError(
            f"adjoint weights ({W_dom.dim}, {W_ran.dim}) do not fit operator {op.shape}"
        )
    scaled = sp.csr_matrix(op).T.multiply(W_ran.diag[np.newaxis, :])
    return sp.csr_matrix(scaled.multiply((1.0 / W_dom.diag)[:, np.newaxis]))


def assemble_skew(
    layout: StateLayout,
    pairs: list[tuple[sp.spmatrix, tuple[str, ...], tuple[str, ...]]],
) -> sp.csr_matrix:
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
            raise ParameterError("domain and range blocks of a pair must differ")
        dom_idx, ran_idx = layout.indices_of(dom), layout.indices_of(ran)
        op = sp.coo_matrix(op)
        adj = adjoint_wrt(op, WeightMatrix(W.diag[dom_idx]), WeightMatrix(W.diag[ran_idx])).tocoo()
        rows += [ran_idx[op.row], dom_idx[adj.row]]
        cols += [dom_idx[op.col], ran_idx[adj.col]]
        vals += [-op.data, adj.data]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(layout.dim, layout.dim),
    )


def skew_defect(A: sp.spmatrix, W: WeightMatrix) -> float:
    """max |(W A + A^T W)_ij|; zero for an exactly skew-adjoint operator."""
    Wd = sp.diags(W.diag)
    defect = Wd @ A + A.T @ Wd
    return float(np.max(np.abs(defect.data), initial=0.0))
