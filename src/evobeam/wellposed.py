"""Solvability checks for the affine material law M0 + integral * M1.

The single hypothesis everything rests on: rho*M0 + sym(M1) is strictly
positive definite in the weighted inner product.  Its smallest eigenvalue
c0 bounds the solution operator by 1/c0.  M0 is diagonal, given as the
vector m0 of its entries, so it has no W-skew part: the Hermitian part of
z*M0 + M1 is rho*diag(m0) + sym(M1) at every z = rho + i*lambda, and one
real eigenvalue problem settles every frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import EvobeamError, NumericError, ParameterError

__all__ = [
    "NotCoerciveError",
    "NevanlinnaSpec",
    "sparse_symmetric_part",
    "coercivity",
    "find_rho0",
    "nevanlinna_check",
]

RHO_SCAN_EXPONENTS = range(-10, 41)
RHO_BISECT_RELTOL = 1e-6


class NotCoerciveError(EvobeamError):
    """No rho in the scan range reaches the requested coercivity."""


@dataclass(frozen=True)
class NevanlinnaSpec:
    """Affine trace law mu0 + integral * mu1, i.e. R(z) = mu0*z + mu1.

    Construction only rejects the degenerate all-zero pair; sign validation
    is the job of nevanlinna_check (the sign of mu0) and of the scenario
    makers (the beam's check of c and I_tilde, scenarios._check_trace_law
    for the laws of full_dynamic and sturm_liouville), so a bad sign is
    caught by a check rather than masked at construction.
    """

    mu0: float
    mu1: float

    def __post_init__(self):
        if self.mu0 == 0 and self.mu1 == 0:
            raise ParameterError("trace law must not have both coefficients zero")


def sparse_symmetric_part(M, W: np.ndarray) -> sp.csr_matrix:
    """W-symmetrization (M + W^{-1} M^T W)/2; selfadjoint in the W product.

    Works on the nonzeros only: entry (i, j) of the transpose is scaled as
    M[j, i] * (w[j] / w[i]), the same operations as on the dense array.
    The ratio comes first, so that it is exactly 1 between slots of equal
    weight and an antisymmetric coupling there cancels to an exact zero,
    which the sum does not store.  Each term is halved before the sum, so
    that a finite M gives a finite result; halving is exact above the
    subnormals, where this is 0.5*(M + W^{-1} M^T W) bit for bit.
    """
    Ms = sp.csr_matrix(M, dtype=float, copy=True)
    if Ms.shape[0] != Ms.shape[1] or Ms.shape[0] != W.size:
        raise NumericError(f"square operator of size {W.size} required, got {Ms.shape}")
    Ms.sum_duplicates()
    Mt = Ms.T.tocoo()
    Mt.data = Mt.data * (W[Mt.col] / W[Mt.row])
    return 0.5 * Ms + 0.5 * Mt.tocsr()


def _w_min_eig(S, W: np.ndarray) -> float:
    """Smallest eigenvalue of a sparse W-selfadjoint S via the W^{1/2} similarity.

    The similarity keeps the sparsity pattern, so the spectrum is the union
    of the spectra of its connected blocks.  A row with no stored
    off-diagonal entry is a block of one, its diagonal entry its own
    eigenvalue; only the coupled rows are split into blocks, each of which
    gets an eigensolve on its rows only.
    """
    sq = np.sqrt(W)
    sym = sp.coo_matrix(S, dtype=float)
    sym.data = sym.data * sq[sym.row] / sq[sym.col]
    # halved before the sum, so that a finite S stays finite; halving is
    # exact above the subnormals, where this is 0.5*(sym + sym.T) bit for bit
    sym = 0.5 * sym.tocsr()
    sym = sym + sym.T
    if not np.all(np.isfinite(sym.data)):
        raise NumericError("non-finite entries in coercivity operator")
    sym.eliminate_zeros()
    # the pattern is symmetric, so counting a row's entries off the diagonal
    # also counts its column's
    ij = sym.tocoo()
    coupled = np.bincount(ij.row[ij.row != ij.col], minlength=sym.shape[0]) > 0
    single = ~coupled
    c0 = float(np.min(sym.diagonal()[single])) if single.any() else np.inf
    if coupled.any():
        from scipy.sparse.csgraph import connected_components

        idx = np.flatnonzero(coupled)
        n_blocks, labels = connected_components(sym[idx][:, idx], directed=False)
        for k in range(n_blocks):
            block = idx[labels == k]
            c0 = min(c0, float(np.linalg.eigvalsh(sym[block][:, block].toarray())[0]))
    return c0


def coercivity(m0: np.ndarray, M1, rho: float, W: np.ndarray) -> float:
    """The largest c0 with rho*diag(m0) + sym(M1) >= c0 in the W inner product.

    The law is coercive iff c0 > 0, and then 1/c0 bounds the solution
    operator.
    """
    if rho < 0:
        raise ParameterError("rho must be nonnegative")
    # a law that overflows is refused by _w_min_eig's finiteness check alone
    with np.errstate(over="ignore", invalid="ignore"):
        return _w_min_eig(rho * sp.diags(m0) + sparse_symmetric_part(M1, W), W)


def find_rho0(m0: np.ndarray, M1, c_target: float, W: np.ndarray) -> float:
    """Smallest rho (to 1e-6 relative) with coercivity c0 >= c_target.

    Scans rho = 2^k for k in -10..40 and bisects the first bracketing pair;
    monotonicity of c0 in rho (m0 is nonnegative) makes the bisection
    valid.  No admissible rho in the range raises NotCoerciveError, and so
    does a scan that overflows rho*diag(m0) + sym(M1) first: sym(M1) is
    finite and rho*m0 only grows with rho, so no larger rho is finite either.
    """
    if c_target <= 0:
        raise ParameterError("c_target must be positive")
    M0, M1sym = sp.diags(m0, format="csr"), sparse_symmetric_part(M1, W)
    if not np.isfinite(M1sym.data).all():
        raise NumericError("non-finite entries in coercivity operator")

    def ok(rho: float) -> bool:
        with np.errstate(over="ignore"):
            S = rho * M0 + M1sym
        if not np.isfinite(S.data).all():
            raise NotCoerciveError(f"rho*M0 + sym(M1) overflows at rho = {rho!r} before c0 reaches {c_target}")
        return _w_min_eig(S, W) >= c_target

    hit = None
    for k in RHO_SCAN_EXPONENTS:
        if ok(2.0**k):
            hit = k
            break
    if hit is None:
        raise NotCoerciveError(
            f"no rho in [2^-10, 2^40] reaches c0 >= {c_target} (law not coercive)"
        )
    hi = 2.0**hit
    if hit == RHO_SCAN_EXPONENTS.start:
        return hi
    lo = 2.0 ** (hit - 1)
    while (hi - lo) / hi > RHO_BISECT_RELTOL:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def nevanlinna_check(spec: NevanlinnaSpec) -> bool:
    """Nevanlinna type: Im(mu0*z + mu1) = mu0*Im(z) >= 0 for all Im(z) > 0 iff mu0 >= 0."""
    return bool(spec.mu0 >= 0)
