"""Concrete model assemblies.

Four variants share one shape: diagonal inertia M0, a cheap damping/coupling
operator M1, and a skew spatial operator with trace-augmented state.  Each
constructor validates its parameter class, builds the three matrices on the
documented layout, and records where every trace is weakly pinned, so probes
and boundary-residual checks can interrogate the model without re-deriving
its structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (
    CallableSignal,
    CoefficientField,
    Grid,
    InsufficientDataError,
    ParameterError,
    Signal,
    SpaceTag,
    StateLayout,
    StateVector,
    TimeSeries,
    WeightMatrix,
    build_weights,
)
from .discretize import (
    assemble_skew,
    build_B,
    build_B_tilde,
    build_derivative,
    full_dynamic_layout,
    timoshenko_layout,
)
from .wellposed import NevanlinnaSpec

__all__ = [
    "TraceBinding",
    "ScenarioSpec",
    "SCENARIOS",
    "TimoshenkoParams",
    "SturmLiouvilleParams",
    "FullDynamicParams",
    "AssembledModel",
    "make_timoshenko_damped",
    "apply_sign_flip",
    "sign_flip_vector",
    "make_full_dynamic",
    "make_sturm_liouville",
    "split_model",
    "consistent_initial_state",
    "manufactured_source",
    "exact_state",
    "embed_block",
    "extrapolate_to_boundary",
    "reconstruct_displacements",
    "timoshenko_mms_fields",
]


@dataclass(frozen=True)
class TraceBinding:
    """Weak identity trace = sign * field(endpoint) enforced by the adjoint
    penalty rows."""

    field: str
    endpoint: float
    sign: float


def _on(tag: SpaceTag, default: float):
    """A coefficient field sampled on the points of ``tag``."""
    return field(default=default, metadata={"tag": tag})


@dataclass(frozen=True)
class TimoshenkoParams:
    """Beam coefficients: kappa's are compliances of the two stress fields,
    nu's the two inertias, d a distributed damping on the shear velocity,
    c the boundary dashpot at +1/2, I_tilde the boundary inertia there."""

    kappa1: CoefficientField | float = _on(SpaceTag.NODE_FREE_LEFT, 1.0)
    nu1: CoefficientField | float = _on(SpaceTag.CENTER, 1.0)
    nu2: CoefficientField | float = _on(SpaceTag.NODE_INTERIOR, 1.0)
    kappa2: CoefficientField | float = _on(SpaceTag.CENTER, 1.0)
    d: CoefficientField | float = _on(SpaceTag.NODE_INTERIOR, 0.0)
    c: float = 0.0
    I_tilde: float = 0.0
    sigma0: float = 1.0

    def trace_laws(self) -> list[NevanlinnaSpec]:
        return [NevanlinnaSpec(self.I_tilde, self.c)]


@dataclass(frozen=True)
class SturmLiouvilleParams:
    """Abstract second-order problem: flux law r + integral*q, potential law
    s0 + integral*s1 (s0 = 1/p hyperbolic, s1 = 1/p parabolic), and a trace
    law at each endpoint."""

    r: CoefficientField | float = _on(SpaceTag.CENTER, 1.0)
    q: CoefficientField | float = _on(SpaceTag.CENTER, 0.0)
    s0: float = 1.0
    s1: float = 0.0
    mu_minus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)
    mu_plus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)

    def trace_laws(self) -> list[NevanlinnaSpec]:
        return [self.mu_minus, self.mu_plus, NevanlinnaSpec(self.s0, self.s1)]


@dataclass(frozen=True)
class FullDynamicParams:
    """Block-diagonal material law for the fully trace-augmented system:
    one positive inertia per field block, optional nonnegative field
    damping, and a trace law per endpoint of each group."""

    m_V1: CoefficientField | float = _on(SpaceTag.NODE_ALL, 1.0)
    m_eta: CoefficientField | float = _on(SpaceTag.CENTER, 1.0)
    m_s: CoefficientField | float = _on(SpaceTag.NODE_ALL, 1.0)
    m_V2: CoefficientField | float = _on(SpaceTag.CENTER, 1.0)
    g_V1: CoefficientField | float = _on(SpaceTag.NODE_ALL, 0.0)
    g_eta: CoefficientField | float = _on(SpaceTag.CENTER, 0.0)
    g_s: CoefficientField | float = _on(SpaceTag.NODE_ALL, 0.0)
    g_V2: CoefficientField | float = _on(SpaceTag.CENTER, 0.0)
    mu_minus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)
    mu_plus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)
    nu_minus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)
    nu_plus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)

    def trace_laws(self) -> list[NevanlinnaSpec]:
        return [self.mu_minus, self.mu_plus, self.nu_minus, self.nu_plus]


@dataclass(frozen=True)
class AssembledModel:
    layout: StateLayout
    W: WeightMatrix
    M0: sp.csr_matrix
    M1: sp.csr_matrix
    A: sp.csr_matrix
    traces: dict[str, TraceBinding]

    @property
    def grid(self) -> Grid:
        return self.layout.grid


def _samples(params, name: str, grid: Grid, positive: bool) -> np.ndarray:
    """Values of the coefficient ``params.<name>`` on the points of its tag."""
    value, tag = getattr(params, name), params.__dataclass_fields__[name].metadata["tag"]
    if not isinstance(value, CoefficientField):
        value = CoefficientField.constant(float(value), grid, tag)
    elif value.values.shape[0] != tag.block_length(grid.n_cells):
        raise ParameterError(f"{name} sampled on the wrong block length")
    if positive:
        value.require_positive(name)
    else:
        value.require_nonnegative(name)
    return value.values


def _check_trace_law(spec: NevanlinnaSpec, what: str) -> NevanlinnaSpec:
    if spec.mu0 < 0 or spec.mu1 < 0:
        raise ParameterError(f"{what} trace law needs nonnegative coefficients")
    return spec


def _diag_csr(entries: np.ndarray) -> sp.csr_matrix:
    return sp.csr_matrix(sp.diags(entries))


def make_timoshenko_damped(grid: Grid, params: TimoshenkoParams) -> AssembledModel:
    """Beam with a dashpot (and optional inertia) at the +1/2 boundary.

    Encodes: stress V1 pinned at -1/2, shear velocity s pinned at both
    ends, and at +1/2 the weak pair tau_plus = -eta(1/2-0) together with
    the trace row  d/dt(I_tilde tau) + c tau = V1(1/2-0) + source.

    In A, the V1 rows carry the weighted adjoint of the trace-augmented
    derivative, (eta, tau_plus) its negative, s the adjoint of the interior
    derivative (the stand-in for the unrestricted one, sign included) and V2
    its negative; the adjoint's boundary rows are penalties that enforce
    tau_plus + eta(1/2-0) = 0 weakly.
    """
    if params.c < 0 or params.I_tilde < 0:
        raise ParameterError("boundary coefficients c and I_tilde must be nonnegative")
    if params.c == 0 and params.I_tilde == 0:
        raise ParameterError("boundary trace law degenerate: c and I_tilde not both zero")
    if params.sigma0 == 0:
        raise ParameterError("sigma0 must be nonzero")
    layout = timoshenko_layout(grid)
    kappa1 = _samples(params, "kappa1", grid, True)
    nu1 = _samples(params, "nu1", grid, True)
    nu2 = _samples(params, "nu2", grid, True)
    kappa2 = _samples(params, "kappa2", grid, True)
    d = _samples(params, "d", grid, False)
    M0 = _diag_csr(
        np.concatenate([kappa1, nu1, [params.I_tilde], nu2, kappa2])
    )
    n = grid.n_cells
    tau = layout.offset_of("tau_plus")
    s_at = layout.offset_of("s") + np.arange(d.shape[0])
    eta_at = layout.offset_of("eta") + np.arange(n)
    v2_at = layout.offset_of("V2") + np.arange(n)
    rows = np.concatenate([[tau], s_at, eta_at, v2_at])
    cols = np.concatenate([[tau], s_at, v2_at, eta_at])
    vals = np.concatenate([[params.c], d, np.full(n, params.sigma0), np.full(n, -params.sigma0)])
    stored = vals != 0  # zero dashpot or damping entries are not stored
    M1 = sp.csr_matrix((vals[stored], (rows[stored], cols[stored])), shape=(layout.dim, layout.dim))
    return AssembledModel(
        layout=layout,
        W=build_weights(layout),
        M0=M0,
        M1=M1,
        A=assemble_skew(
            layout,
            [
                (build_B(grid), ("V1",), ("eta", "tau_plus")),
                (build_derivative(grid, SpaceTag.NODE_INTERIOR), ("s",), ("V2",)),
            ],
        ),
        traces={"tau_plus": TraceBinding("eta", +0.5, -1.0)},
    )


def sign_flip_vector(layout: StateLayout) -> np.ndarray:
    """Diagonal of the congruence that negates the eta block."""
    u = np.ones(layout.dim)
    u[layout.slice_of("eta")] = -1.0
    return u


def apply_sign_flip(model: AssembledModel) -> AssembledModel:
    """Congruent model with eta negated; W-orthogonal, so energies and
    solutions map exactly (flip twice to get the original back)."""
    if "eta" not in model.layout.names:
        raise ParameterError("sign flip is defined for models carrying an eta block")
    u = sign_flip_vector(model.layout)
    U = sp.diags(u)
    flip = lambda M: sp.csr_matrix(U @ M @ U)
    traces = {
        name: replace(b, sign=-b.sign) if b.field == "eta" else b
        for name, b in model.traces.items()
    }
    return AssembledModel(
        layout=model.layout,
        W=model.W,
        M0=flip(model.M0),
        M1=flip(model.M1),
        A=flip(model.A),
        traces=traces,
    )


def make_full_dynamic(grid: Grid, params: FullDynamicParams) -> AssembledModel:
    """Two decoupled wave pairs with dynamic conditions at all four traces:
    A holds two copies of the [[0, adj], [-op, 0]] pattern of the two-trace
    derivative, and the (V1, eta, tau0) group never touches (s, V2, tau1)."""
    layout, Bt = full_dynamic_layout(grid), build_B_tilde(grid)
    m_v1 = _samples(params, "m_V1", grid, True)
    m_eta = _samples(params, "m_eta", grid, True)
    m_s = _samples(params, "m_s", grid, True)
    m_v2 = _samples(params, "m_V2", grid, True)
    g_v1 = _samples(params, "g_V1", grid, False)
    g_eta = _samples(params, "g_eta", grid, False)
    g_s = _samples(params, "g_s", grid, False)
    g_v2 = _samples(params, "g_V2", grid, False)
    laws = {
        "tau0_minus": _check_trace_law(params.mu_minus, "mu_minus"),
        "tau0_plus": _check_trace_law(params.mu_plus, "mu_plus"),
        "tau1_minus": _check_trace_law(params.nu_minus, "nu_minus"),
        "tau1_plus": _check_trace_law(params.nu_plus, "nu_plus"),
    }
    M0 = _diag_csr(
        np.concatenate(
            [
                m_v1,
                m_eta,
                [laws["tau0_minus"].mu0, laws["tau0_plus"].mu0],
                m_s,
                m_v2,
                [laws["tau1_minus"].mu0, laws["tau1_plus"].mu0],
            ]
        )
    )
    M1 = _diag_csr(
        np.concatenate(
            [
                g_v1,
                g_eta,
                [laws["tau0_minus"].mu1, laws["tau0_plus"].mu1],
                g_s,
                g_v2,
                [laws["tau1_minus"].mu1, laws["tau1_plus"].mu1],
            ]
        )
    )
    return AssembledModel(
        layout=layout,
        W=build_weights(layout),
        M0=M0,
        M1=M1,
        A=assemble_skew(
            layout,
            [
                (Bt, ("V1",), ("eta", "tau0_minus", "tau0_plus")),
                (Bt, ("s",), ("V2", "tau1_minus", "tau1_plus")),
            ],
        ),
        traces={
            "tau0_minus": TraceBinding("eta", -0.5, +1.0),
            "tau0_plus": TraceBinding("eta", +0.5, -1.0),
            "tau1_minus": TraceBinding("V2", -0.5, +1.0),
            "tau1_plus": TraceBinding("V2", +0.5, -1.0),
        },
    )


def make_sturm_liouville(grid: Grid, params: SturmLiouvilleParams) -> AssembledModel:
    """Second-order scalar problem as a first-order pair with dynamic traces.

    The node field eta carries both endpoint traces; s0 > 0 gives the
    hyperbolic case, s0 = 0 with s1 > 0 the parabolic one (eta then enters
    algebraically and initial data must satisfy consistent_initial_state).
    """
    if params.s0 < 0 or params.s1 < 0 or params.s0 + params.s1 <= 0:
        raise ParameterError("potential law needs s0, s1 >= 0 with s0 + s1 > 0")
    layout = StateLayout(
        grid,
        (
            ("V1", SpaceTag.CENTER),
            ("eta", SpaceTag.NODE_ALL),
            ("tau_minus", SpaceTag.TRACE),
            ("tau_plus", SpaceTag.TRACE),
        ),
    )
    r = _samples(params, "r", grid, True)
    q = _samples(params, "q", grid, False)
    mu_m = _check_trace_law(params.mu_minus, "mu_minus")
    mu_p = _check_trace_law(params.mu_plus, "mu_plus")
    n_nodes = grid.n_cells + 1
    M0 = _diag_csr(
        np.concatenate([r, np.full(n_nodes, params.s0), [mu_m.mu0, mu_p.mu0]])
    )
    M1 = _diag_csr(
        np.concatenate([q, np.full(n_nodes, params.s1), [mu_m.mu1, mu_p.mu1]])
    )
    A = assemble_skew(
        layout,
        [(build_B_tilde(grid), ("eta",), ("V1", "tau_minus", "tau_plus"))],
    )
    return AssembledModel(
        layout=layout,
        W=build_weights(layout),
        M0=M0,
        M1=M1,
        A=A,
        traces={
            "tau_minus": TraceBinding("V1", -0.5, +1.0),
            "tau_plus": TraceBinding("V1", +0.5, -1.0),
        },
    )


def split_model(model: AssembledModel, names: tuple[str, ...]) -> AssembledModel:
    """Submodel on a subset of blocks; valid only if nothing couples the
    subset to the rest (checked, not assumed)."""
    for n in names:
        if n not in model.layout.names:
            raise ParameterError(f"unknown block {n!r}")
    keep = model.layout.indices_of(names)
    drop = np.setdiff1d(np.arange(model.layout.dim), keep)
    for M in (model.M0, model.M1, model.A):
        if drop.size and keep.size:
            cross = abs(M[np.ix_(keep, drop)]).max() if M[np.ix_(keep, drop)].nnz else 0.0
            cross = max(cross, abs(M[np.ix_(drop, keep)]).max() if M[np.ix_(drop, keep)].nnz else 0.0)
            if cross != 0.0:
                raise ParameterError("requested blocks are coupled to the remainder")
    layout = StateLayout(
        model.layout.grid,
        tuple((n, model.layout.tag_of(n)) for n in names),
    )
    sub = lambda M: sp.csr_matrix(M[np.ix_(keep, keep)])
    return AssembledModel(
        layout=layout,
        W=build_weights(layout),
        M0=sub(model.M0),
        M1=sub(model.M1),
        A=sub(model.A),
        traces={k: v for k, v in model.traces.items() if k in names},
    )


def consistent_initial_state(
    model: AssembledModel, u: StateVector, f0: np.ndarray | None = None
) -> StateVector:
    """Adjust the algebraic slots (zero rows of M0) to satisfy the system
    at t = 0, leaving differential slots untouched.  Needed by parabolic
    laws where a field has no inertia."""
    diag = model.M0.diagonal()
    alg = np.where(diag == 0.0)[0]
    if alg.size == 0:
        return u.copy()
    if f0 is None:
        f0 = np.zeros(model.layout.dim)
    dif = np.setdiff1d(np.arange(model.layout.dim), alg)
    K = (model.M1 + model.A).tocsr()
    rhs = f0[alg] - K[np.ix_(alg, dif)] @ u.values[dif]
    Kaa = sp.csc_matrix(K[np.ix_(alg, alg)])
    try:
        x = spla.splu(Kaa, permc_spec="NATURAL").solve(rhs)
    except RuntimeError as exc:
        raise ParameterError(f"algebraic slots are not solvable: {exc}") from exc
    out = u.copy()
    out.values[alg] = x
    return out


def exact_state(model: AssembledModel, fields: dict[str, Callable], t: float) -> StateVector:
    """Sample closed-form fields on the layout; traces are filled from
    their weak identities (sign * field at the endpoint)."""
    vals = np.zeros(model.layout.dim)
    for name in model.layout.field_names():
        fn = fields.get(name)
        if fn is None:
            continue
        x = model.layout.points_of(name)
        vals[model.layout.slice_of(name)] = fn(x, t)
    for name, b in model.traces.items():
        fn = fields.get(b.field)
        if fn is None:
            continue
        vals[model.layout.offset_of(name)] = b.sign * float(
            fn(np.asarray([b.endpoint]), t)[0]
        )
    return StateVector(model.layout, vals)


def manufactured_source(
    model: AssembledModel,
    fields: dict[str, Callable],
    dfields_dt: dict[str, Callable],
) -> Signal:
    """Source F(t) = M0 u*'(t) + (M1 + A) u*(t) for sampled exact fields.

    Driving the stepper with F and u0 = u*(0) makes the sampled fields the
    exact semi-discrete solution, so the measured error isolates the time
    discretization; trace rows of F carry the inhomogeneous boundary data.
    """
    K = (model.M1 + model.A).tocsr()

    def F(t: float) -> np.ndarray:
        u = exact_state(model, fields, t)
        du = exact_state(model, dfields_dt, t)
        return model.M0 @ du.values + K @ u.values

    return CallableSignal(F, model.layout.dim)


def timoshenko_mms_fields(omega: float = 2.0) -> tuple[dict, dict]:
    """Closed-form field family for unit-coefficient beam convergence runs.

    Built from displacements phi = sin(pi(x+1/2)) cos(omega t + 0.3) and
    u = sin(pi(x+1/2)) sin(omega t), so eta and s are their time derivatives
    and V1 = d_x phi, V2 = d_x u + phi satisfy the constitutive relations
    with unit compliances.  u vanishes at both endpoints, matching the
    pinned shear-velocity block, and eta(+1/2) = 0 so the boundary trace of
    the exact solution is zero while its source row is not.
    """
    w = float(omega)

    def p(x):
        return np.pi * (x + 0.5)

    fields = {
        "V1": lambda x, t: np.pi * np.cos(p(x)) * np.cos(w * t + 0.3),
        "eta": lambda x, t: -w * np.sin(p(x)) * np.sin(w * t + 0.3),
        "s": lambda x, t: w * np.sin(p(x)) * np.cos(w * t),
        "V2": lambda x, t: np.pi * np.cos(p(x)) * np.sin(w * t)
        + np.sin(p(x)) * np.cos(w * t + 0.3),
    }
    dfields = {
        "V1": lambda x, t: -w * np.pi * np.cos(p(x)) * np.sin(w * t + 0.3),
        "eta": lambda x, t: -w * w * np.sin(p(x)) * np.cos(w * t + 0.3),
        "s": lambda x, t: -w * w * np.sin(p(x)) * np.sin(w * t),
        "V2": lambda x, t: w * np.pi * np.cos(p(x)) * np.cos(w * t)
        - w * np.sin(p(x)) * np.sin(w * t + 0.3),
    }
    return fields, dfields


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: its params class (tagged fields are coefficient
    fields), its maker, and how a refinement study measures its error:
    against a closed-form MMS family, against a run four times finer
    (self_reference), or not at all."""

    params: type
    make: Callable[[Grid, Any], AssembledModel]
    mms: Callable[[], tuple[dict, dict]] | None = None
    self_reference: bool = False


SCENARIOS: dict[str, ScenarioSpec] = {
    "timoshenko_damped": ScenarioSpec(TimoshenkoParams, make_timoshenko_damped, mms=timoshenko_mms_fields),
    "dynamic_inertia": ScenarioSpec(TimoshenkoParams, make_timoshenko_damped, mms=timoshenko_mms_fields),
    "full_dynamic": ScenarioSpec(FullDynamicParams, make_full_dynamic),
    "sturm_liouville": ScenarioSpec(SturmLiouvilleParams, make_sturm_liouville, self_reference=True),
}


def embed_block(layout: StateLayout, name: str, values) -> np.ndarray:
    """Full-dimension vector with one block set and all others zero."""
    out = np.zeros(layout.dim)
    block = out[layout.slice_of(name)]
    block[:] = values
    return out


def extrapolate_to_boundary(values: np.ndarray, side: int) -> float:
    """One-sided quadratic extrapolation of center samples to an endpoint.

    side = +1 for the right boundary, -1 for the left; exact for quadratics
    on the uniform staggered offsets h/2, 3h/2, 5h/2.
    """
    v = values if side > 0 else values[::-1]
    if v.shape[0] < 3:
        raise InsufficientDataError("need at least three center samples")
    return float((15.0 * v[-1] - 10.0 * v[-2] + 3.0 * v[-3]) / 8.0)


_DISPLACEMENT_NAMES = {"eta": "phi", "s": "u"}


def reconstruct_displacements(
    ts: TimeSeries,
    blocks: tuple[str, ...] | None = None,
    initial: dict[str, np.ndarray] | None = None,
) -> TimeSeries:
    """Trapezoidal time integrals of velocity blocks (eta -> phi, s -> u).

    Returns a TimeSeries over the displacement layout; the energy column is
    zero (displacements carry no energy of their own here).
    """
    if ts.snapshots is None or ts.layout is None:
        raise InsufficientDataError("displacement reconstruction needs snapshots")
    if blocks is None:
        blocks = tuple(n for n in ("eta", "s") if n in ts.layout.names)
    if not blocks:
        raise InsufficientDataError("no velocity blocks to integrate")
    initial = initial or {}
    out_layout = StateLayout(
        ts.layout.grid,
        tuple(
            (_DISPLACEMENT_NAMES.get(n, f"int_{n}"), ts.layout.tag_of(n)) for n in blocks
        ),
    )
    nt = len(ts)
    snaps = np.zeros((nt, out_layout.dim))
    for name in blocks:
        src = ts.snapshots[:, ts.layout.slice_of(name)]
        disp = np.zeros_like(src)
        disp[0] = initial.get(name, np.zeros(src.shape[1]))
        dts = np.diff(ts.times)
        increments = 0.5 * dts[:, None] * (src[:-1] + src[1:])
        disp[1:] = disp[0] + np.cumsum(increments, axis=0)
        out_name = _DISPLACEMENT_NAMES.get(name, f"int_{name}")
        snaps[:, out_layout.slice_of(out_name)] = disp
    return TimeSeries(
        times=ts.times.copy(),
        energy=np.zeros(nt),
        traces={},
        snapshots=snaps,
        layout=out_layout,
    )
