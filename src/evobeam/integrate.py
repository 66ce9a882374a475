"""Theta-scheme stepping for d/dt(M0 u) + M1 u + A u = f.

At theta = 1/2 the step satisfies an exact algebraic energy balance:
E_{n+1} - E_n + dt*<u_mid, sym(M1) u_mid>_W - dt*<u_mid, f_mid>_W = 0,
because the skew part of A and of M1 drops out of the quadratic form.
The probes below turn the two abstract well-posedness statements into
measurable numbers: causal truncation and the 1/c0 solution bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (
    EvobeamError,
    NumericError,
    ParameterError,
    Signal,
    StateLayout,
    StateVector,
    TimeSeries,
    WeightMatrix,
    energy,
    exp_weighted_norm,
    weighted_inner,
    zero_state,
)
from .wellposed import sparse_symmetric_part

__all__ = [
    "IllPosedError",
    "UnsupportedSchemeError",
    "InvalidProbeError",
    "UndefinedRatioError",
    "SchemeParams",
    "SteppingSystem",
    "factor",
    "step",
    "run",
    "energy_balance_residual",
    "causality_probe",
    "bound_probe",
]


class IllPosedError(EvobeamError):
    """The stepping matrix is singular; the configuration is outside the
    well-posed class (for example a trace slot with no inertia, no damping,
    and no coupling)."""


class UnsupportedSchemeError(EvobeamError):
    """The exact balance identity only holds for theta = 1/2."""


class InvalidProbeError(EvobeamError):
    """Probe inputs violate the probe's premise."""


class UndefinedRatioError(EvobeamError):
    """The bound probe needs a nonzero source."""


@dataclass(frozen=True)
class SchemeParams:
    dt: float
    t_end: float
    theta: float = 0.5
    record_every: int = 1
    rho: float = 1.0

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ParameterError("dt and t_end must be positive")
        if not 0.5 <= self.theta <= 1.0:
            raise ParameterError("theta must lie in [1/2, 1]")
        if self.record_every < 1 or int(self.record_every) != self.record_every:
            raise ParameterError("record_every must be a positive integer")
        if self.rho < 0:
            raise ParameterError("rho must be nonnegative")

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.t_end / self.dt + 1e-9))


@dataclass
class SteppingSystem:
    layout: StateLayout
    W: WeightMatrix
    M0: sp.csr_matrix
    M1: sp.csr_matrix
    A: sp.csr_matrix
    scheme: SchemeParams
    L: sp.csr_matrix = field(init=False)
    R: sp.csr_matrix = field(init=False)
    _lu: spla.SuperLU = field(init=False, repr=False)
    _sym_M1: sp.csr_matrix = field(init=False, repr=False)


def _matrix(op) -> sp.csr_matrix:
    if hasattr(op, "matrix"):
        op = op.matrix
    return sp.csr_matrix(op)


def factor(layout: StateLayout, W: WeightMatrix, M0, M1, A, scheme: SchemeParams) -> SteppingSystem:
    """Build and LU-factor L = M0 + theta*dt*(M1 + A).

    splu's default fill-reducing column ordering (COLAMD) follows the grid
    coupling, so the factors of this banded matrix stay banded.  The
    ordering depends only on the sparsity pattern: a sign flip of whole
    blocks keeps it, so flipped runs are the flipped runs bit for bit.
    """
    M0m, M1m, Am = _matrix(M0), _matrix(M1), _matrix(A)
    n = layout.dim
    for name, m in (("M0", M0m), ("M1", M1m), ("A", Am)):
        if m.shape != (n, n):
            raise ParameterError(f"{name} has shape {m.shape}, layout needs ({n}, {n})")
    stiff = (M1m + Am).tocsr()
    sys_ = SteppingSystem(layout=layout, W=W, M0=M0m, M1=M1m, A=Am, scheme=scheme)
    sys_.L = (M0m + scheme.theta * scheme.dt * stiff).tocsr()
    sys_.R = (M0m - (1.0 - scheme.theta) * scheme.dt * stiff).tocsr()
    try:
        sys_._lu = spla.splu(sys_.L.tocsc())
    except RuntimeError as exc:
        raise IllPosedError(f"stepping matrix is singular: {exc}") from exc
    sys_._sym_M1 = sparse_symmetric_part(M1m, W)
    return sys_


def step(sys_: SteppingSystem, u_n: StateVector, f_mid: np.ndarray | StateVector) -> StateVector:
    """One theta step; f_mid is the raw source at t_n + theta*dt."""
    fv = f_mid.values if isinstance(f_mid, StateVector) else np.asarray(f_mid, dtype=float)
    rhs = sys_.R @ u_n.values + sys_.scheme.dt * fv
    u_next = sys_._lu.solve(rhs)
    if not np.all(np.isfinite(u_next)):
        raise NumericError("time step produced non-finite state")
    return StateVector(sys_.layout, u_next)


def run(
    sys_: SteppingSystem,
    u0: StateVector,
    source: Signal,
    scheme: SchemeParams | None = None,
    snapshots: bool = True,
) -> TimeSeries:
    """March from t = 0 to t_end, recording every record_every-th state.

    Energies and traces are always recorded; full-state snapshots only when
    ``snapshots`` is true (otherwise the series carries ``snapshots=None``).
    """
    if scheme is None:
        scheme = sys_.scheme
    elif scheme.dt != sys_.scheme.dt or scheme.theta != sys_.scheme.theta:
        raise ParameterError("scheme dt/theta differ from the factored system")
    if u0.layout != sys_.layout:
        raise ParameterError("initial state lives on a different layout")
    trace_names = sys_.layout.trace_names()
    trace_at = np.array([sys_.layout.offset_of(name) for name in trace_names], dtype=int)
    times, energies, trace_rows, snaps = [], [], [], []

    def record(k: int, u: StateVector):
        times.append(k * scheme.dt)
        energies.append(energy(u, sys_.M0, sys_.W))
        trace_rows.append(u.values[trace_at])
        if snapshots:
            snaps.append(u.values.copy())

    u = u0.copy()
    record(0, u)
    for k in range(scheme.n_steps):
        t_mid = (k + scheme.theta) * scheme.dt
        u = step(sys_, u, source(t_mid))
        if (k + 1) % scheme.record_every == 0:
            record(k + 1, u)
    trace_cols = np.array(trace_rows).T.copy()
    return TimeSeries(
        times=np.asarray(times),
        energy=np.asarray(energies),
        traces=dict(zip(trace_names, trace_cols)),
        snapshots=np.vstack(snaps) if snapshots else None,
        layout=sys_.layout,
    )


def energy_balance_residual(
    sys_: SteppingSystem,
    u_n: StateVector,
    u_np1: StateVector,
    f_mid: np.ndarray | StateVector,
) -> float:
    """Defect of the exact midpoint energy identity for one step."""
    if sys_.scheme.theta != 0.5:
        raise UnsupportedSchemeError("energy balance identity requires theta = 1/2")
    fv = f_mid.values if isinstance(f_mid, StateVector) else np.asarray(f_mid, dtype=float)
    u_mid = 0.5 * (u_n.values + u_np1.values)
    e0 = energy(u_n, sys_.M0, sys_.W)
    e1 = energy(u_np1, sys_.M0, sys_.W)
    dissipated = weighted_inner(u_mid, sys_._sym_M1 @ u_mid, sys_.W)
    injected = weighted_inner(u_mid, fv, sys_.W)
    return e1 - e0 + sys_.scheme.dt * (dissipated - injected)


def causality_probe(
    sys_: SteppingSystem,
    source_f: Signal,
    source_g: Signal,
    a: float,
    scheme: SchemeParams | None = None,
    u0: StateVector | None = None,
) -> float:
    """Max W-norm deviation of the two runs over recorded times t <= a.

    The sources must agree at every stepping sample point up to a; the
    recorded states up to a then coincide and the return value measures
    exactly that.  Both runs stop at the last step at or before a.
    """
    if scheme is None:
        scheme = sys_.scheme
    if not 0 < a <= scheme.t_end:
        raise InvalidProbeError(f"split time a={a} outside the run window")
    for k in range(scheme.n_steps):
        t_mid = (k + scheme.theta) * scheme.dt
        if t_mid > a:
            break
        if not np.array_equal(source_f(t_mid), source_g(t_mid)):
            raise InvalidProbeError(f"sources differ at sampled t={t_mid} <= a={a}")
    # run records the state of step k at time k*dt
    steps_to_a = int(np.searchsorted(np.arange(scheme.n_steps + 1) * scheme.dt, a, side="right")) - 1
    if steps_to_a == 0:
        return 0.0  # only the common initial state lies at or before a
    if u0 is None:
        u0 = zero_state(sys_.layout)
    scheme_to_a = replace(scheme, t_end=steps_to_a * scheme.dt)
    ts_f = run(sys_, u0, source_f, scheme_to_a)
    ts_g = run(sys_, u0, source_g, scheme_to_a)
    dev = 0.0
    for diff in ts_f.snapshots - ts_g.snapshots:
        dev = max(dev, math.sqrt(weighted_inner(diff, diff, sys_.W)))
    return dev


def bound_probe(
    sys_: SteppingSystem,
    source: Signal,
    scheme: SchemeParams | None = None,
    rho: float | None = None,
) -> float:
    """Ratio of exponentially weighted norms of response and source.

    Discrete counterpart of the solution-operator bound: for a coercive
    configuration the ratio must not exceed 1/c0 by more than quadrature
    slack.  Starts from rest; both norms use the same recorded time grid.
    """
    if scheme is None:
        scheme = sys_.scheme
    if rho is None:
        rho = scheme.rho
    ts_u = run(sys_, zero_state(sys_.layout), source, scheme)
    f_snaps = np.vstack([source(t) for t in ts_u.times])
    ts_f = TimeSeries(
        times=ts_u.times,
        energy=np.zeros_like(ts_u.energy),
        traces={},
        snapshots=f_snaps,
        layout=sys_.layout,
    )
    den = exp_weighted_norm(ts_f, rho, sys_.W)
    if den == 0.0:
        raise UndefinedRatioError("bound probe needs a nonzero source on the window")
    return exp_weighted_norm(ts_u, rho, sys_.W) / den
