"""Concrete model assemblies.

Four variants share one shape: a diagonal inertia, carried as the vector m0
of its diagonal, a cheap damping/coupling operator M1, and a skew spatial
operator with trace-augmented state.  Each constructor validates its
parameter class, builds m0, M1 and A on the documented layout (a trace's law
is its entry of m0 and of diag(M1), kept nowhere else), and records where
every trace is weakly pinned, so probes and checks can interrogate the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

from .core import (
    Grid,
    NumericError,
    ParameterError,
    SpaceTag,
    StateLayout,
    TimeSeries,
    build_weights,
)
from .discretize import assemble_skew, build_B, diag_csr
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
    "field_sampler",
    "embed_block",
    "reconstruct_displacements",
    "timoshenko_mms_fields",
]


@dataclass(frozen=True)
class TraceBinding:
    """Weak identity trace = sign * field(endpoint) enforced by the adjoint
    penalty rows; the trace's law mu0*z + mu1 is its m0 and M1 diagonal entries."""

    field: str
    endpoint: float
    sign: float


def _on(tag: SpaceTag, default: float):
    """A coefficient: a float, or an array of its values on the points of ``tag``."""
    return field(default=default, metadata={"tag": tag})


@dataclass(frozen=True)
class TimoshenkoParams:
    """Beam coefficients: kappa's are compliances of the two stress fields,
    nu's the two inertias, d a distributed damping on the shear velocity,
    c the boundary dashpot at +1/2, I_tilde the boundary inertia there."""

    kappa1: np.ndarray | float = _on(SpaceTag.NODE_FREE_LEFT, 1.0)
    nu1: np.ndarray | float = _on(SpaceTag.CENTER, 1.0)
    nu2: np.ndarray | float = _on(SpaceTag.NODE_INTERIOR, 1.0)
    kappa2: np.ndarray | float = _on(SpaceTag.CENTER, 1.0)
    d: np.ndarray | float = _on(SpaceTag.NODE_INTERIOR, 0.0)
    c: float = 0.0
    I_tilde: float = 0.0
    sigma0: float = 1.0


@dataclass(frozen=True)
class SturmLiouvilleParams:
    """Abstract second-order problem: flux law r + integral*q, potential law
    s0 + integral*s1 (s0 = 1/p hyperbolic, s1 = 1/p parabolic), and a trace
    law at each endpoint."""

    r: np.ndarray | float = _on(SpaceTag.CENTER, 1.0)
    q: np.ndarray | float = _on(SpaceTag.CENTER, 0.0)
    s0: float = 1.0
    s1: float = 0.0
    mu_minus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)
    mu_plus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)


@dataclass(frozen=True)
class FullDynamicParams:
    """Block-diagonal material law for the fully trace-augmented system:
    one positive inertia per field block, optional nonnegative field
    damping, and a trace law per endpoint of each group."""

    m_V1: np.ndarray | float = _on(SpaceTag.NODE_ALL, 1.0)
    m_eta: np.ndarray | float = _on(SpaceTag.CENTER, 1.0)
    m_s: np.ndarray | float = _on(SpaceTag.NODE_ALL, 1.0)
    m_V2: np.ndarray | float = _on(SpaceTag.CENTER, 1.0)
    g_V1: np.ndarray | float = _on(SpaceTag.NODE_ALL, 0.0)
    g_eta: np.ndarray | float = _on(SpaceTag.CENTER, 0.0)
    g_s: np.ndarray | float = _on(SpaceTag.NODE_ALL, 0.0)
    g_V2: np.ndarray | float = _on(SpaceTag.CENTER, 0.0)
    mu_minus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)
    mu_plus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)
    nu_minus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)
    nu_plus: NevanlinnaSpec = NevanlinnaSpec(1.0, 0.0)


@dataclass(frozen=True)
class AssembledModel:
    """A discretised system d/dt(M0 u) + M1 u + A u = f on ``layout``: the
    weights W of its inner product, the diagonal m0 of M0, the CSR material
    matrix M1, the W-skew CSR operator A, and the binding of each trace slot."""

    layout: StateLayout
    W: np.ndarray  # the diagonal of the inner product, read-only
    m0: np.ndarray  # the diagonal of the inertia M0
    M1: sp.csr_matrix
    A: sp.csr_matrix
    traces: dict[str, TraceBinding]

    @property
    def grid(self) -> Grid:
        return self.layout.grid


def _samples(params, name: str, grid: Grid, positive: bool) -> np.ndarray:
    """Values of the coefficient ``params.<name>`` on the points of its tag."""
    value, tag = getattr(params, name), params.__dataclass_fields__[name].metadata["tag"]
    n = tag.block_length(grid.n_cells)
    values = np.full(n, float(value)) if np.ndim(value) == 0 else np.asarray(value, dtype=float)
    if values.shape != (n,):
        raise ParameterError(f"{name} sampled on the wrong block length")
    if not np.isfinite(values).all():
        raise NumericError("coefficient samples must be finite")
    if positive and not np.all(values > 0):
        raise ParameterError(f"{name} must be strictly positive everywhere")
    if not positive and not np.all(values >= 0):
        raise ParameterError(f"{name} must be nonnegative everywhere")
    return values


def _check_trace_law(spec: NevanlinnaSpec, what: str) -> NevanlinnaSpec:
    if spec.mu0 < 0 or spec.mu1 < 0:
        raise ParameterError(f"{what} trace law needs nonnegative coefficients")
    return spec


def _assemble(
    layout: StateLayout,
    m0: dict[str, np.ndarray | float],
    m1: dict[str, np.ndarray | float],
    laws: dict[str, NevanlinnaSpec],
    pairs: list[tuple[str, tuple[str, ...]]],
    couplings: tuple[tuple[str, str, float], ...] = (),
) -> AssembledModel:
    """The model on ``layout``.  The inertia m0 and the diagonal of M1 are in
    layout order: each field block takes its samples from ``m0`` and ``m1``
    (a missing block is 0), each trace slot its law's mu0 and mu1.  Each
    coupling (a, b, s) adds +s at (a, b) and -s at (b, a) of M1.  M1 stores
    no zero entries (a CSR sum drops them).

    Each pair (node, (center, *slots)) puts build_B(grid, tag of node) from
    the node block to the center block and the slots, and binds the slots in
    order to the free ends x of that tag: slot = sign * center(x), with sign
    +1 at -1/2 and -1 at +1/2.
    """

    def diagonal(blocks: dict[str, np.ndarray | float], coefficient: str) -> np.ndarray:
        entries = [
            [getattr(laws[name], coefficient)]
            if tag is SpaceTag.TRACE
            else np.broadcast_to(blocks.get(name, 0.0), layout.length_of(name))
            for name, tag in layout.blocks
        ]
        # + 0.0 makes every zero entry +0.0, also where a coefficient is -0.0
        return np.concatenate(entries, dtype=float) + 0.0

    ops, traces = [], {}
    for node, ran in pairs:
        tag = layout.tag_of(node)
        ops.append((build_B(layout.grid, tag), (node,), ran))
        center, *slots = ran
        for slot, x in zip(slots, tag.free_ends()):
            traces[slot] = TraceBinding(center, x, +1.0 if x < 0 else -1.0)
    M1 = diag_csr(diagonal(m1, "mu1"))
    for a, b, s in couplings:
        rows, cols = layout.indices_of((a, b)), layout.indices_of((b, a))
        M1 = M1 + sp.csr_matrix((np.repeat([s, -s], layout.length_of(a)), (rows, cols)), shape=M1.shape)
    return AssembledModel(
        layout=layout,
        W=build_weights(layout),
        m0=diagonal(m0, "mu0"),
        M1=M1,
        A=assemble_skew(layout, ops),
        traces=traces,
    )


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
    law = NevanlinnaSpec(params.I_tilde, params.c)
    if params.sigma0 == 0:
        raise ParameterError("sigma0 must be nonzero")
    layout = StateLayout(
        grid,
        (
            ("V1", SpaceTag.NODE_FREE_LEFT),
            ("eta", SpaceTag.CENTER),
            ("tau_plus", SpaceTag.TRACE),
            ("s", SpaceTag.NODE_INTERIOR),
            ("V2", SpaceTag.CENTER),
        ),
    )
    m0 = {
        "V1": _samples(params, "kappa1", grid, True),
        "eta": _samples(params, "nu1", grid, True),
        "s": _samples(params, "nu2", grid, True),
        "V2": _samples(params, "kappa2", grid, True),
    }
    m1 = {"s": _samples(params, "d", grid, False)}
    pairs = [("V1", ("eta", "tau_plus")), ("s", ("V2",))]
    return _assemble(layout, m0, m1, {"tau_plus": law}, pairs, couplings=(("eta", "V2", params.sigma0),))


def sign_flip_vector(layout: StateLayout) -> np.ndarray:
    """Diagonal of the congruence that negates the eta block."""
    u = np.ones(layout.dim)
    u[layout.slice_of("eta")] = -1.0
    return u


def apply_sign_flip(model: AssembledModel) -> AssembledModel:
    """Congruent model with eta negated; W-orthogonal, so energies and
    solutions map exactly (flip twice to get the original back).  The
    diagonal m0 is its own flip."""
    if "eta" not in model.layout.names:
        raise ParameterError("sign flip is defined for models carrying an eta block")
    u = sign_flip_vector(model.layout)
    U = diag_csr(u)
    flip = lambda M: sp.csr_matrix(U @ M @ U)
    traces = {
        name: replace(b, sign=-b.sign) if b.field == "eta" else b
        for name, b in model.traces.items()
    }
    return replace(model, M1=flip(model.M1), A=flip(model.A), traces=traces)


def make_full_dynamic(grid: Grid, params: FullDynamicParams) -> AssembledModel:
    """Two decoupled wave pairs with dynamic conditions at all four traces:
    A holds two copies of the [[0, adj], [-op, 0]] pattern of the two-trace
    derivative, and the (V1, eta, tau0) group never touches (s, V2, tau1)."""
    layout = StateLayout(
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
    blocks = ("V1", "eta", "s", "V2")
    m0 = {b: _samples(params, f"m_{b}", grid, True) for b in blocks}
    m1 = {b: _samples(params, f"g_{b}", grid, False) for b in blocks}
    laws = {
        "tau0_minus": _check_trace_law(params.mu_minus, "mu_minus"),
        "tau0_plus": _check_trace_law(params.mu_plus, "mu_plus"),
        "tau1_minus": _check_trace_law(params.nu_minus, "nu_minus"),
        "tau1_plus": _check_trace_law(params.nu_plus, "nu_plus"),
    }
    pairs = [("V1", ("eta", "tau0_minus", "tau0_plus")), ("s", ("V2", "tau1_minus", "tau1_plus"))]
    return _assemble(layout, m0, m1, laws, pairs)


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
    laws = {
        "tau_minus": _check_trace_law(params.mu_minus, "mu_minus"),
        "tau_plus": _check_trace_law(params.mu_plus, "mu_plus"),
    }
    pairs = [("eta", ("V1", "tau_minus", "tau_plus"))]
    return _assemble(layout, {"V1": r, "eta": params.s0}, {"V1": q, "eta": params.s1}, laws, pairs)


def split_model(model: AssembledModel, names: tuple[str, ...]) -> AssembledModel:
    """Submodel on a subset of blocks; valid only if nothing couples the
    subset to the rest (checked, not assumed)."""
    for n in names:
        if n not in model.layout.names:
            raise ParameterError(f"unknown block {n!r}")
    keep = model.layout.indices_of(names)
    drop = np.delete(np.arange(model.layout.dim), keep)
    for M in (model.M1, model.A):
        if drop.size and keep.size:
            if M[np.ix_(keep, drop)].count_nonzero() or M[np.ix_(drop, keep)].count_nonzero():
                raise ParameterError("requested blocks are coupled to the remainder")
    layout = StateLayout(
        model.layout.grid,
        tuple((n, model.layout.tag_of(n)) for n in names),
    )
    sub = lambda M: sp.csr_matrix(M[np.ix_(keep, keep)])
    return AssembledModel(
        layout=layout,
        W=build_weights(layout),
        m0=model.m0[keep],
        M1=sub(model.M1),
        A=sub(model.A),
        traces={k: v for k, v in model.traces.items() if k in names},
    )


def consistent_initial_state(
    model: AssembledModel, u: np.ndarray, f0: np.ndarray | None = None
) -> np.ndarray:
    """Adjust the algebraic slots (zero entries of m0) to satisfy the system
    at t = 0, leaving differential slots untouched.  Needed by parabolic
    laws where a field has no inertia."""
    alg = np.where(model.m0 == 0.0)[0]
    out = np.array(u, dtype=float)
    if alg.size == 0:
        return out
    from scipy.sparse.linalg import splu

    if f0 is None:
        f0 = np.zeros(model.layout.dim)
    dif = np.flatnonzero(model.m0 != 0.0)
    K = (model.M1 + model.A).tocsr()
    rhs = f0[alg] - K[np.ix_(alg, dif)] @ out[dif]
    Kaa = sp.csc_matrix(K[np.ix_(alg, alg)])
    try:
        x = splu(Kaa, permc_spec="NATURAL").solve(rhs)
    except RuntimeError as exc:
        raise ParameterError(f"algebraic slots are not solvable: {exc}") from exc
    out[alg] = x
    return out


def field_sampler(model: AssembledModel, fields: dict[str, Callable]) -> Callable[[float], np.ndarray]:
    """``at(t)``: the closed-form fields sampled on the layout at time t.

    A field maps its sample points x to a function of t, ``field(x)(t)``;
    it is called here once on the points of its block and once, on the
    one-point array of the endpoint, for each trace bound to it, so
    whatever depends on x alone is computed once per model.  A block
    without a field stays zero; a trace holds its weak identity, sign *
    field at the endpoint, or zero if its field has no closed form.
    """
    layout = model.layout
    blocks = [
        (layout.slice_of(name), fields[name](layout.points_of(name)))
        for name in layout.field_names()
        if fields.get(name) is not None
    ]
    traces = [
        (layout.offset_of(name), b.sign, fields[b.field](np.asarray([b.endpoint])))
        for name, b in model.traces.items()
        if fields.get(b.field) is not None
    ]

    def at(t: float) -> np.ndarray:
        vals = np.zeros(layout.dim)
        for where, values in blocks:
            vals[where] = values(t)
        for offset, sign, value in traces:
            vals[offset] = sign * float(value(t)[0])
        return vals

    return at


def manufactured_source(
    model: AssembledModel,
    fields: dict[str, Callable],
    dfields_dt: dict[str, Callable],
) -> Callable[[float], np.ndarray]:
    """Source F(t) = m0 u*'(t) + (M1 + A) u*(t) for sampled exact fields,
    each field and rate of the form ``field(x)(t)``.

    Driving the stepper with F and u0 = u*(0) makes the sampled fields the
    exact semi-discrete solution, so the measured error isolates the time
    discretization; trace rows of F carry the inhomogeneous boundary data.
    Both families are sampled on the model once, here, so a call of F
    evaluates only their time factors.
    """
    K = (model.M1 + model.A).tocsr()
    u_at, du_at = field_sampler(model, fields), field_sampler(model, dfields_dt)

    def F(t: float) -> np.ndarray:
        return model.m0 * du_at(t) + K @ u_at(t)

    return F


def timoshenko_mms_fields() -> tuple[dict, dict]:
    """Closed-form field family for unit-coefficient beam convergence runs.

    Built from displacements phi = sin(pi(x+1/2)) cos(omega t + 0.3) and
    u = sin(pi(x+1/2)) sin(omega t) with omega = 2, so eta and s are their
    time derivatives and V1 = d_x phi, V2 = d_x u + phi satisfy the
    constitutive relations with unit compliances.  u vanishes at both
    endpoints, matching the pinned shear-velocity block, and eta(+1/2) = 0
    so the boundary trace of the exact solution is zero while its source
    row is not.

    Returns (fields, rates), each a dict from block name to ``field(x)``.
    Every field is a sum of spatial factors times time factors; ``field(x)``
    computes the spatial factors on x once and returns the function of t
    that scales them.
    """
    w = 2.0  # omega

    def p(x):
        return np.pi * (x + 0.5)

    def V1(x):
        a = np.pi * np.cos(p(x))
        return lambda t: a * np.cos(w * t + 0.3)

    def eta(x):
        a = -w * np.sin(p(x))
        return lambda t: a * np.sin(w * t + 0.3)

    def s(x):
        a = w * np.sin(p(x))
        return lambda t: a * np.cos(w * t)

    def V2(x):
        a, b = np.pi * np.cos(p(x)), np.sin(p(x))
        return lambda t: a * np.sin(w * t) + b * np.cos(w * t + 0.3)

    def dV1(x):
        a = -w * np.pi * np.cos(p(x))
        return lambda t: a * np.sin(w * t + 0.3)

    def deta(x):
        a = -w * w * np.sin(p(x))
        return lambda t: a * np.cos(w * t + 0.3)

    def ds(x):
        a = -w * w * np.sin(p(x))
        return lambda t: a * np.sin(w * t)

    def dV2(x):
        a, b = w * np.pi * np.cos(p(x)), w * np.sin(p(x))
        return lambda t: a * np.cos(w * t) - b * np.sin(w * t + 0.3)

    return {"V1": V1, "eta": eta, "s": s, "V2": V2}, {"V1": dV1, "eta": deta, "s": ds, "V2": dV2}


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: its default params, an instance whose values are the
    scenario's [scenario] defaults (its class's tagged fields are
    coefficients), its maker, and its closed-form MMS family, if any.  A
    refinement study measures its error against the family, or without
    one against a run four times finer than its largest level."""

    defaults: Any
    make: Callable[[Grid, Any], AssembledModel]
    mms: Callable[[], tuple[dict, dict]] | None = None


SCENARIOS: dict[str, ScenarioSpec] = {
    # c = I_tilde = 0 would leave the beam's boundary law degenerate
    "timoshenko_damped": ScenarioSpec(TimoshenkoParams(c=0.5), make_timoshenko_damped, mms=timoshenko_mms_fields),
    "dynamic_inertia": ScenarioSpec(TimoshenkoParams(I_tilde=1.0), make_timoshenko_damped, mms=timoshenko_mms_fields),
    "full_dynamic": ScenarioSpec(FullDynamicParams(), make_full_dynamic),
    "sturm_liouville": ScenarioSpec(SturmLiouvilleParams(), make_sturm_liouville),
}


def embed_block(layout: StateLayout, name: str, values) -> np.ndarray:
    """Full-dimension vector with one block set and all others zero."""
    out = np.zeros(layout.dim)
    block = out[layout.slice_of(name)]
    block[:] = values
    return out


_DISPLACEMENT_NAMES = {"eta": "phi", "s": "u"}


def reconstruct_displacements(ts: TimeSeries, initial: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Trapezoidal time integrals of the velocity blocks eta -> phi and s -> u
    that the layout carries, starting from ``initial`` (zero by default).

    Returns the displacements by name, each an array with one row per
    recorded time.
    """
    blocks = [n for n in _DISPLACEMENT_NAMES if n in ts.layout.names]
    if not blocks:
        raise ParameterError("no velocity blocks to integrate")
    initial = initial or {}
    dts = np.diff(ts.times)
    out = {}
    for name in blocks:
        src = ts.snapshots[:, ts.layout.slice_of(name)]
        disp = np.zeros_like(src)
        disp[0] = initial.get(name, np.zeros(src.shape[1]))
        increments = 0.5 * dts[:, None] * (src[:-1] + src[1:])
        disp[1:] = disp[0] + np.cumsum(increments, axis=0)
        out[_DISPLACEMENT_NAMES[name]] = disp
    return out
