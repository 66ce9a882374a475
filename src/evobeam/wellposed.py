"""Solvability checks for the affine material law M0 + integral * M1.

The single hypothesis everything rests on: rho*M0 + sym(M1) is strictly
positive definite in the weighted inner product.  Its smallest eigenvalue
c0 bounds the solution operator by 1/c0.  The symbol check confirms that
for affine laws the Hermitian part of z*M0 + M1 does not depend on the
imaginary part of z, so one real eigenvalue problem settles every frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import EvobeamError, NumericError, ParameterError, WeightMatrix

__all__ = [
    "NotCoerciveError",
    "NevanlinnaSpec",
    "sparse_symmetric_part",
    "coercivity",
    "find_rho0",
    "symbol_range_check",
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
    is the job of nevanlinna_check and of the scenario makers (the beam's
    check of c and I_tilde, scenarios._check_trace_law for the laws of
    full_dynamic and sturm_liouville), so a bad sign is caught by the checker
    rather than masked at construction.
    """

    mu0: float
    mu1: float

    def __post_init__(self):
        if self.mu0 == 0 and self.mu1 == 0:
            raise ParameterError("trace law must not have both coefficients zero")

    def evaluate(self, z: complex | np.ndarray) -> complex | np.ndarray:
        return self.mu0 * z + self.mu1


def sparse_symmetric_part(M, W: WeightMatrix) -> sp.csr_matrix:
    """W-symmetrization (M + W^{-1} M^T W)/2; selfadjoint in the W product.

    Works on the nonzeros only: entry (i, j) of the transpose is scaled as
    M[j, i] * w[j] / w[i], the same operations as on the dense array.
    """
    Ms = sp.csr_matrix(M, dtype=float, copy=True)
    if Ms.shape[0] != Ms.shape[1] or Ms.shape[0] != W.dim:
        raise NumericError(f"square operator of size {W.dim} required, got {Ms.shape}")
    Ms.sum_duplicates()
    Mt = Ms.T.tocoo()
    Mt.data = Mt.data * W.diag[Mt.col] / W.diag[Mt.row]
    return 0.5 * (Ms + Mt.tocsr())


def _w_min_eig(S, W: WeightMatrix) -> float:
    """Smallest eigenvalue of a sparse W-selfadjoint S via the W^{1/2} similarity.

    The similarity keeps the sparsity pattern, so the spectrum is the union
    of the spectra of its connected blocks: a single entry is its own
    eigenvalue, and each larger block gets an eigensolve on its rows only.
    """
    from scipy.sparse.csgraph import connected_components

    sq = np.sqrt(W.diag)
    sym = sp.coo_matrix(S, dtype=float)
    sym.data = sym.data * sq[sym.row] / sq[sym.col]
    sym = sym.tocsr()
    sym = 0.5 * (sym + sym.T)
    if not np.all(np.isfinite(sym.data)):
        raise NumericError("non-finite entries in coercivity operator")
    sym.eliminate_zeros()
    _, labels = connected_components(sym, directed=False)
    sizes = np.bincount(labels)
    single = sizes[labels] == 1
    c0 = float(np.min(sym.diagonal()[single])) if single.any() else np.inf
    for k in np.flatnonzero(sizes > 1):
        rows = np.flatnonzero(labels == k)
        c0 = min(c0, float(np.linalg.eigvalsh(sym[rows][:, rows].toarray())[0]))
    return c0


def coercivity(M0, M1, rho: float, W: WeightMatrix) -> float:
    """The largest c0 with rho*M0 + sym(M1) >= c0 in the W inner product.

    The law is coercive iff c0 > 0, and then 1/c0 bounds the solution
    operator.
    """
    if rho < 0:
        raise ParameterError("rho must be nonnegative")
    return _w_min_eig(rho * sp.csr_matrix(M0, dtype=float) + sparse_symmetric_part(M1, W), W)


def find_rho0(M0, M1, c_target: float, W: WeightMatrix) -> float:
    """Smallest rho (to 1e-6 relative) with coercivity c0 >= c_target.

    Scans rho = 2^k for k in -10..40 and bisects the first bracketing pair;
    monotonicity of c0 in rho (M0 is positive semidefinite) makes the
    bisection valid.  No admissible rho in the range raises NotCoerciveError.
    """
    if c_target <= 0:
        raise ParameterError("c_target must be positive")
    M0s, M1sym = sp.csr_matrix(M0, dtype=float), sparse_symmetric_part(M1, W)

    def ok(rho: float) -> bool:
        return _w_min_eig(rho * M0s + M1sym, W) >= c_target

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


def symbol_range_check(M0, M1, rho: float, lambda_grid, W: WeightMatrix) -> float:
    """Minimum over z = rho + i*lambda of the smallest Hermitian-part eigenvalue.

    For an affine law the Hermitian part of z*M0 + M1 is
    rho*M0 + sym(M1) + i*lambda*skew(M0), with skew(M0) = M0 - sym(M0).
    By Weyl's inequality the lambda term moves no eigenvalue by more than
    max|lambda| times the Frobenius norm of W^{1/2} skew(M0) W^{-1/2}; the
    check raises NumericError when that exceeds 1e-12 relative to c0 and
    otherwise returns c0, the value at every lambda.
    """
    lams = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if lams.size == 0:
        raise ParameterError("lambda grid must be nonempty")
    base = coercivity(M0, M1, rho, W)
    skew = (sp.csr_matrix(M0, dtype=float) - sparse_symmetric_part(M0, W)).tocoo()
    sq = np.sqrt(W.diag)
    drift = np.max(np.abs(lams)) * np.linalg.norm(skew.data * sq[skew.row] / sq[skew.col])
    if drift > 1e-12 * max(1.0, abs(base)):
        raise NumericError(
            f"affine symbol lost lambda-independence: the W-skew part of M0 "
            f"moves eigenvalues by up to {drift} over the lambda grid"
        )
    return base


def nevanlinna_check(spec: NevanlinnaSpec, samples) -> bool:
    """True iff Im(mu0*z + mu1) >= -1e-14 at every upper-half-plane sample."""
    zs = np.atleast_1d(np.asarray(samples, dtype=complex))
    if np.any(zs.imag <= 0):
        raise ParameterError("all samples must have positive imaginary part")
    im = spec.evaluate(zs).imag
    return bool(np.all(im >= -1e-14))
