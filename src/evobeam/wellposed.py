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


def _coercivity_probe(M1, W: np.ndarray):
    """sym(M1)'s diagonal d, and c0 as a function of the diagonal x = rho*m0 + d.

    The W^{1/2} similarity keeps the sparsity pattern, so the spectrum is the
    union of the spectra of its connected blocks.  M0 is diagonal, so the
    off-diagonal part and its blocks are built here once.  A row with no
    stored off-diagonal entry is a block of one, its diagonal entry its own
    eigenvalue; each coupled block is densified on its rows only, one at a time.
    """
    S = sparse_symmetric_part(M1, W)
    if not np.isfinite(S.data).all():
        raise NumericError("non-finite entries in coercivity operator")
    sq, ij = np.sqrt(W), S.tocoo()
    row, col, v = (a[ij.row != ij.col] for a in (ij.row, ij.col, ij.data))
    # halved before the sum, so that a finite S stays finite; halving is
    # exact above the subnormals, where this is 0.5*(sym + sym.T) bit for bit
    off = 0.5 * sp.csr_matrix((v * sq[row] / sq[col], (row, col)), shape=S.shape)
    off = off + off.T
    if not np.isfinite(off.data).all():
        raise NumericError("non-finite entries in coercivity operator")
    # the sum stores no zero, and its pattern is symmetric
    coupled = np.diff(off.indptr) > 0
    single, blocks = ~coupled, []
    if coupled.any():
        from scipy.sparse.csgraph import connected_components

        idx = np.flatnonzero(coupled)
        n_blocks, labels = connected_components(off[idx][:, idx], directed=False)
        blocks = [(b, off[b][:, b]) for b in (idx[labels == k] for k in range(n_blocks))]

    def c0_at(x: np.ndarray) -> float:
        # the similarity's operations in their order; + 0.0 reads a zero sum,
        # which the sparse sum does not store, as +0.0
        half = 0.5 * (x * sq / sq)
        diag = half + half + 0.0
        if not np.isfinite(diag).all():
            raise NumericError("non-finite entries in coercivity operator")
        c0 = float(np.min(diag[single])) if single.any() else np.inf
        for block, part in blocks:
            a = part.toarray()
            np.fill_diagonal(a, diag[block])
            c0 = min(c0, float(np.linalg.eigvalsh(a)[0]))
        return c0

    return S.diagonal(), c0_at


def coercivity(m0: np.ndarray, M1, rho: float, W: np.ndarray) -> float:
    """The largest c0 with rho*diag(m0) + sym(M1) >= c0 in the W inner product.

    The law is coercive iff c0 > 0, and then 1/c0 bounds the solution
    operator.  Single rows cost O(dim) together; each coupled block of the
    sparsity pattern gets a dense eigensolve on its rows only.
    """
    if rho < 0:
        raise ParameterError("rho must be nonnegative")
    # a law that overflows is refused by the probe's finiteness check alone
    with np.errstate(over="ignore", invalid="ignore"):
        d, c0_at = _coercivity_probe(M1, W)
        return c0_at(rho * m0 + d)


def find_rho0(m0: np.ndarray, M1, c_target: float, W: np.ndarray) -> float:
    """Smallest rho (to 1e-6 relative) with coercivity c0 >= c_target.

    Scans rho = 2^k for k in -10..40 and bisects the first bracketing pair;
    monotonicity of c0 in rho (m0 is nonnegative) makes the bisection
    valid.  Only the diagonal depends on rho, so the blocks are built once
    per call, and each probe costs O(dim) plus the coupled blocks'
    eigensolves.  No admissible rho in the range raises NotCoerciveError,
    and so does a scan that overflows rho*diag(m0) + sym(M1) first: sym(M1)
    is finite and rho*m0 only grows with rho, so no larger rho is finite either.
    """
    if c_target <= 0:
        raise ParameterError("c_target must be positive")
    d, c0_at = _coercivity_probe(M1, W)

    def ok(rho: float) -> bool:
        with np.errstate(over="ignore"):
            x = rho * m0 + d
        if not np.isfinite(x).all():
            raise NotCoerciveError(f"rho*M0 + sym(M1) overflows at rho = {rho!r} before c0 reaches {c_target}")
        return c0_at(x) >= c_target

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
