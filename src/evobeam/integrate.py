"""Theta-scheme stepping for d/dt(M0 u) + M1 u + A u = f with M0 = diag(m0).

At theta = 1/2 the step satisfies an exact algebraic energy balance:
E_{n+1} - E_n + dt*<u_mid, sym(M1) u_mid>_W - dt*<u_mid, f_mid>_W = 0,
because the skew part of A and of M1 drops out of the quadratic form.
The probes below turn the two abstract well-posedness statements into
measurable numbers: causal truncation and the 1/c0 solution bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .core import EvobeamError, NumericError, ParameterError, TimeSeries, energy, weighted_inner
from .discretize import diag_csr
from .scenarios import AssembledModel, consistent_initial_state
from .wellposed import sparse_symmetric_part

__all__ = [
    "UndefinedRatioError",
    "SchemeParams",
    "SteppingSystem",
    "factor",
    "factor_stats",
    "step",
    "record_count",
    "march",
    "run",
    "energy_balance_residual",
    "causality_probe",
    "bound_probe",
]


class UndefinedRatioError(EvobeamError):
    """The bound probe needs a nonzero source."""


@dataclass(frozen=True)
class SchemeParams:
    """A theta scheme: step dt up to t_end (a whole number of steps), the
    record stride, and rho: that of bound_probe's exponential weight, and
    the one at which cmd_check (and cmd_probe's bound probe) read c0."""

    dt: float = 0.01
    t_end: float = 1.0
    theta: float = 0.5
    record_every: int = 1
    rho: float = 1.0

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ParameterError("dt and t_end must be positive")
        if not math.isfinite(self.t_end / self.dt):
            raise ParameterError(f"t_end / dt must be finite, got {self.t_end!r} / {self.dt!r}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ParameterError(f"t_end = {self.t_end!r} is not a whole number of steps of dt = {self.dt!r}")
        if not 0.5 <= self.theta <= 1.0:
            raise ParameterError("theta must lie in [1/2, 1]")
        if not isinstance(self.record_every, (int, np.integer)) or self.record_every < 1:
            raise ParameterError("record_every must be a positive integer")
        if not self.rho >= 0:
            raise ParameterError("rho must be nonnegative")
        if self.rho == math.inf:
            raise ParameterError("rho must be finite")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class SteppingSystem:
    """A model and scheme with the LU factors of their stepping matrix, as
    ``factor`` builds them; m0_over_theta is the diagonal of M0/theta."""

    model: AssembledModel
    scheme: SchemeParams
    m0_over_theta: np.ndarray
    _lu: sp.linalg.SuperLU = field(repr=False)


def _stepping_matrix(model: AssembledModel, scheme: SchemeParams) -> sp.csr_matrix:
    """L = diag(m0) + theta*dt*(M1 + A), after checking the shapes."""
    M1m, Am = sp.csr_matrix(model.M1), sp.csr_matrix(model.A)
    n = model.layout.dim
    if np.shape(model.m0) != (n,):
        raise ParameterError(f"m0 has shape {np.shape(model.m0)}, layout needs ({n},)")
    for name, m in (("M1", M1m), ("A", Am)):
        if m.shape != (n, n):
            raise ParameterError(f"{name} has shape {m.shape}, layout needs ({n}, {n})")
    return (diag_csr(model.m0) + scheme.theta * scheme.dt * (M1m + Am)).tocsr()


def factor(model: AssembledModel, scheme: SchemeParams) -> SteppingSystem:
    """Build and LU-factor L = diag(m0) + theta*dt*(M1 + A).

    splu's default fill-reducing column ordering (COLAMD) follows the grid
    coupling, so the factors of this banded matrix stay banded.  The
    ordering depends only on the sparsity pattern: a sign flip of whole
    blocks keeps it, so flipped runs are the flipped runs bit for bit.

    Pivots are taken on the diagonal (diag_pivot_thresh=0 falls back to
    the column maximum only where a diagonal entry is exactly zero).  In
    the well-posed class the W-symmetric part of L is positive definite,
    so every diagonal pivot is positive and elimination without row swaps
    does not break down.  splu's default partial pivoting swaps rows
    wherever the grid coupling outweighs the inertia: on the 512-cell
    manufactured-solution run at dt = h it left 5.5e-12 of accumulated
    roundoff in the state, against 1.4e-13 with diagonal pivots.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(_stepping_matrix(model, scheme).tocsc(), diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        # outside the well-posed class, e.g. a trace slot with no inertia,
        # no damping and no coupling
        raise NumericError(f"stepping matrix is singular: {exc}") from exc
    return SteppingSystem(model, scheme, model.m0 / scheme.theta, lu)


def factor_stats(sys_: SteppingSystem) -> tuple[int, float]:
    """nnz(L) + nnz(U) of the LU factors, and the pivot growth max|U| over
    max|L_in|, the largest entry of U over that of the stepping matrix."""
    lu = sys_._lu
    growth = abs(lu.U).max() / abs(_stepping_matrix(sys_.model, sys_.scheme)).max()
    return lu.L.nnz + lu.U.nnz, float(growth)


def _advance(sys_: SteppingSystem, u: np.ndarray, f: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The theta step L u_next = R u + dt*f with R = diag(m0) - (1-theta)*dt*(M1 + A)
    and f the source at t_n + theta*dt.  As R = diag(m0)/theta - ((1-theta)/theta)*L,
    u_next = L^-1(m0 u/theta + dt*f) - ((1-theta)/theta)*u, with the right-hand
    side formed in the scratch buffer rhs; at theta = 1/2 the coefficients are 2*m0 and 1."""
    np.multiply(sys_.m0_over_theta, u, out=rhs)
    rhs += sys_.scheme.dt * f
    u_next = sys_._lu.solve(rhs)
    c = (1.0 - sys_.scheme.theta) / sys_.scheme.theta
    u_next -= u if c == 1.0 else c * u  # 1.0*u is u exactly
    return u_next


def step(sys_: SteppingSystem, u_n: np.ndarray, f_mid: np.ndarray) -> np.ndarray:
    """One theta step (_advance) from u_n, f_mid the source at t_n + theta*dt; NumericError if not finite."""
    u_next = _advance(sys_, u_n, f_mid, np.empty_like(sys_.m0_over_theta))
    if not np.isfinite(u_next).all():
        raise NumericError("time step produced non-finite state")
    return u_next


# Recorded states wait in a buffer of at most this many floats (256 kB),
# and each full buffer gets its energies from one core.energy call.  The
# buffer is kept small so that it does not show in the peak memory of a
# run on a large grid.
_CHUNK_FLOATS = 1 << 15


def record_count(scheme: SchemeParams) -> int:
    """The records of a run of scheme, ceil(n_steps / record_every) + 1;
    NumericError, in the words of numpy's own refusal, when numpy cannot
    index that many."""
    n_rec = -(-scheme.n_steps // scheme.record_every) + 1
    if n_rec > np.iinfo(np.intp).max:
        raise NumericError("cannot allocate the records of the run: Maximum allowed dimension exceeded")
    return n_rec


def _records(shape) -> np.ndarray:
    """An empty float array for the records of a run; NumericError if numpy cannot allocate it."""
    try:
        return np.empty(shape)
    except (ValueError, MemoryError) as exc:
        raise NumericError(f"cannot allocate the records of the run: {exc}") from exc


def _record_times(lo: int, hi: int, scheme: SchemeParams) -> np.ndarray:
    """The times min(k*record_every, n_steps)*dt of the records k = lo to
    hi - 1, built in place: k*record_every is exact below 2**53, so they
    are those values bit for bit."""
    times = np.arange(lo, hi, dtype=float)
    times *= scheme.record_every
    np.minimum(times, scheme.n_steps, out=times)
    times *= scheme.dt
    return times


def march(
    sys_: SteppingSystem,
    u0: np.ndarray,
    source: Callable[[float], np.ndarray],
    consume: Callable[[slice, np.ndarray, np.ndarray, np.ndarray], None],
    *,
    energy_residual: bool = False,
) -> float | None:
    """March from t = 0 to t_end and hand the records to
    ``consume(rows, times, states, energies)``, one checked buffer of them
    at a time, in order.  Each step is ``step``'s kernel ``_advance``.

    The records are step 0, every record_every-th step and the last step:
    ceil(n_steps / record_every) + 1 of them (``record_count``, whose
    NumericError comes before any step), record k at the time
    min(k*record_every, n_steps)*dt, the last at t_end.  ``rows`` is the
    slice of record indices the buffer holds: the slices are contiguous and
    in order, from 0 to record_count(scheme).  ``states`` is a view of the
    buffer, valid only during the call; each energy is bitwise
    ``core.energy`` of its state.

    Finiteness is checked once per buffer, not on every step: a buffer is
    handed on only once its states and energies are finite and its times
    continue the strictly increasing record times, and NumericError is
    raised otherwise.  A non-finite entry of a state makes the next state
    non-finite too (m0*u, the LU solve and the subtraction all carry it),
    so a bad state is caught when the buffer holding the next record is
    flushed (a later record finds it full, or the run ends); a source that
    raises by itself before that flush raises first, where a loop of
    ``step`` calls stops at the bad step.

    With ``energy_residual`` (theta = 1/2 only) it returns the largest
    |energy_balance_residual| over every step, recorded or not, bitwise the
    largest of that function's values (a NaN among them gives NaN); they
    are computed per buffer of steps and raise nothing.  Without it, it
    returns None.
    """
    layout, m0, W = sys_.model.layout, sys_.model.m0, sys_.model.W
    if np.shape(u0) != (layout.dim,):
        raise ParameterError(f"initial state has shape {np.shape(u0)}, layout needs ({layout.dim},)")
    scheme = sys_.scheme
    n_steps, every, dt, theta = scheme.n_steps, scheme.record_every, scheme.dt, scheme.theta
    if energy_residual and theta != 0.5:
        raise ParameterError("energy balance identity requires theta = 1/2")
    n_rec = record_count(scheme)
    buf = np.empty((min(max(_CHUNK_FLOATS // layout.dim, 1), n_rec), layout.dim))
    done, last = 0, -math.inf

    def flush(U: np.ndarray):
        nonlocal done, last
        if not np.isfinite(U).all():
            raise NumericError("time step produced non-finite state")
        energies = energy(U, m0, W)
        if not np.isfinite(energies).all():
            raise NumericError("recorded energy is not finite")
        rows = slice(done, done + len(U))
        times = _record_times(rows.start, rows.stop, scheme)
        # a NaN compares false both ways, so test the order, not its negation
        if not (times[0] > last and np.all(times[1:] > times[:-1])):
            raise NumericError("record times must be strictly increasing")
        consume(rows, times, U, energies)
        done, last = rows.stop, times[-1]

    if energy_residual:
        # every stepped state and its source, row 0 the state before the
        # buffer's first step; at most _CHUNK_FLOATS floats together
        S = sparse_symmetric_part(sys_.model.M1, W)
        steps = min(max((_CHUNK_FLOATS // layout.dim - 1) // 2, 1), n_steps)
        states, sources = np.empty((steps + 1, layout.dim)), np.empty((steps, layout.dim))
        states[0] = u0
    max_residual, held = 0.0, 0
    rhs = np.empty(layout.dim)
    u = np.asarray(u0, dtype=float)
    row = 0
    # a non-finite state raises at its flush; until then its arithmetic
    # must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            if k:
                f = source((k - 1 + theta) * dt)
                u = _advance(sys_, u, f, rhs)
                if energy_residual:
                    if held == len(sources):
                        max_residual = _fold_residuals(max_residual, states, sources, m0, W, S, dt)
                        states[0], held = states[-1], 0
                    states[held + 1], sources[held] = u, f
                    held += 1
            if k % every == 0 or k == n_steps:
                if row == len(buf):
                    flush(buf)
                    row = 0
                buf[row] = u
                row += 1
        flush(buf[:row])
        del buf
        if energy_residual:
            return float(_fold_residuals(max_residual, states[: held + 1], sources[:held], m0, W, S, dt))
    return None


def run(sys_: SteppingSystem, u0: np.ndarray, source: Callable[[float], np.ndarray]) -> TimeSeries:
    """Keep ``march``'s records whole: its energies and states, each buffer
    copied into records allocated before the first step, and its times,
    built once the buffer is gone so that they do not add to the loop's
    peak memory."""
    n_rec = record_count(sys_.scheme)
    energies, states = _records(n_rec), _records((n_rec, sys_.model.layout.dim))

    def keep(rows: slice, _times: np.ndarray, U: np.ndarray, e: np.ndarray):
        energies[rows], states[rows] = e, U

    march(sys_, u0, source, keep)
    return TimeSeries(_record_times(0, n_rec, sys_.scheme), energies, states, sys_.model.layout)


def _fold_residuals(largest, U, F, m0, W, S, dt):
    """Fold the energy balance defects e1 - e0 + dt*(<mid, S mid>_W - <mid, f>_W)
    of the steps from U[j] to U[j+1] under the source F[j] into the largest
    absolute defect so far, each defect bitwise energy_balance_residual's value."""
    e = energy(U, m0, W)
    mid = 0.5 * (U[:-1] + U[1:])
    # S @ mid.T accumulates each row of S in the order that S @ mid[j] does
    dissipated = weighted_inner(mid, (S @ mid.T).T, W)
    injected = weighted_inner(mid, F, W)
    residuals = e[1:] - e[:-1] + dt * (dissipated - injected)
    # np.maximum and np.max, unlike max, keep a NaN residual
    return np.maximum(largest, np.max(np.abs(residuals)))


def energy_balance_residual(
    sys_: SteppingSystem,
    u_n: np.ndarray,
    u_np1: np.ndarray,
    f_mid: np.ndarray,
) -> float:
    """Defect of the exact midpoint energy identity for one step."""
    if sys_.scheme.theta != 0.5:
        raise ParameterError("energy balance identity requires theta = 1/2")
    m0, W = sys_.model.m0, sys_.model.W
    e0, e1 = energy(u_n, m0, W), energy(u_np1, m0, W)
    u_mid = 0.5 * (u_n + u_np1)
    dissipated = weighted_inner(u_mid, sparse_symmetric_part(sys_.model.M1, W) @ u_mid, W)
    injected = weighted_inner(u_mid, f_mid, W)
    return e1 - e0 + sys_.scheme.dt * (dissipated - injected)


def causality_probe(
    sys_: SteppingSystem,
    source_f: Callable[[float], np.ndarray],
    source_g: Callable[[float], np.ndarray],
    a: float,
) -> float:
    """Max W-norm deviation of the two runs from rest over the step times t <= a.

    The sources must agree at every stepping sample point up to a; the
    states up to a then coincide and the return value measures exactly
    that.  Both runs record every step, whatever the scheme's record_every,
    up to the last step at or before a; only the states under f are kept,
    and those under g are compared with them buffer by buffer.
    """
    scheme = sys_.scheme
    if not 0 < a <= scheme.t_end:
        raise ParameterError(f"split time a={a} outside the run window")
    steps = scheme.n_steps
    for k in range(scheme.n_steps):
        t_mid = (k + scheme.theta) * scheme.dt
        if t_mid > a:
            steps = k
            break
        if not np.array_equal(source_f(t_mid), source_g(t_mid)):
            raise ParameterError(f"sources differ at sampled t={t_mid} <= a={a}")
    # a run records step k at time k*dt <= (k + theta)*dt <= (k+1)*dt; the
    # midpoint of step steps-1 is at most a and that of `steps` past it, so
    # the last step at or before a is `steps` or `steps - 1`
    steps_to_a = steps if steps * scheme.dt <= a else steps - 1
    if steps_to_a == 0:
        return 0.0  # only the common initial state lies at or before a
    u0, W = np.zeros(sys_.model.layout.dim), sys_.model.W
    # same dt and theta, so the truncated system reuses the LU factors
    # (record_every is not part of the stepping matrix)
    sys_to_a = replace(sys_, scheme=replace(scheme, t_end=steps_to_a * scheme.dt, record_every=1))
    states_f, largest = run(sys_to_a, u0, source_f).snapshots, 0.0

    def compare(rows: slice, _times: np.ndarray, U: np.ndarray, _energies: np.ndarray):
        nonlocal largest
        diff = states_f[rows] - U
        largest = max(largest, weighted_inner(diff, diff, W).max())

    march(sys_to_a, u0, source_g, compare)
    return math.sqrt(largest)


def bound_probe(sys_: SteppingSystem, source: Callable[[float], np.ndarray]) -> float:
    """Ratio of exponentially weighted norms of response and source.

    Discrete counterpart of the solution-operator bound: for a coercive
    configuration the ratio must not exceed 1/c0 by more than quadrature
    slack.  Starts from the state of rest consistent with source(0).  Each
    norm is the sqrt of the trapezoidal sum of ||v(t)||_W^2 exp(-2 rho t)
    over the record times, at the scheme's rho > 0, of which it keeps only
    the squared norms."""
    rho, W = sys_.scheme.rho, sys_.model.W
    if rho <= 0:
        raise ParameterError("rho must be positive")
    u0 = consistent_initial_state(sys_.model, np.zeros(W.size), source(0.0))
    n_rec = record_count(sys_.scheme)
    sq = _records((2, n_rec))  # of the source and of the state

    def norms(rows: slice, times: np.ndarray, U: np.ndarray, _energies: np.ndarray):
        F = np.vstack([source(t) for t in times])
        # not weighted_inner: that moves the printed ratio in its last digits
        sq[:, rows] = np.einsum("ij,j,ij->i", F, W, F), np.einsum("ij,j,ij->i", U, W, U)

    march(sys_, u0, source, norms)
    times = _record_times(0, n_rec, sys_.scheme)
    half_dt = 0.5 * np.diff(times)
    sq *= np.exp(-2.0 * rho * times, out=times)
    den, num = (math.sqrt(max(float(np.sum(half_dt * (s[:-1] + s[1:]))), 0.0)) for s in sq)
    if den == 0.0:
        raise UndefinedRatioError("bound probe needs a nonzero source on the window")
    return num / den
