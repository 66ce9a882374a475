"""Grids, state layouts, weighted inner products, and run records.

Everything downstream speaks this vocabulary: a uniform staggered grid on
(-1/2, 1/2), named state blocks living on nodes, cell centers, or scalar
boundary-trace slots, and diagonal quadrature weights that make coefficient
vectors behave like elements of a weighted L2-type space with trace summands.
All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "EvobeamError",
    "InvalidGridError",
    "DimensionError",
    "InvalidDomainError",
    "InsufficientDataError",
    "NumericError",
    "ParameterError",
    "SpaceTag",
    "Grid",
    "build_grid",
    "StateLayout",
    "StateVector",
    "zero_state",
    "WeightMatrix",
    "build_weights",
    "weighted_inner",
    "weighted_norm",
    "energy",
    "exp_weighted_norm",
    "TimeSeries",
    "CoefficientField",
    "Signal",
    "ZeroSignal",
    "SeparableSignal",
    "CallableSignal",
    "gaussian_envelope",
    "sinusoid_envelope",
    "bump_envelope",
]


class EvobeamError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGridError(EvobeamError):
    """Grid construction with an unusable cell count."""


class DimensionError(EvobeamError):
    """Operands do not share a layout or dimension."""


class InvalidDomainError(EvobeamError):
    """An operator or point set was requested on an unsupported space tag."""


class InsufficientDataError(EvobeamError):
    """A time series lacks the records needed for the computation."""


class NumericError(EvobeamError):
    """Non-finite values, or a numerical consistency check failed."""


class ParameterError(EvobeamError):
    """Model parameters violate a scenario invariant."""


class SpaceTag(enum.Enum):
    """Where a state block lives on the staggered grid."""

    NODE_ALL = "node_all"  # all N+1 nodes
    NODE_FREE_LEFT = "node_free_left"  # nodes 1..N; value at node 0 pinned to zero
    NODE_INTERIOR = "node_interior"  # nodes 1..N-1; both boundary values pinned
    CENTER = "center"  # N cell midpoints
    TRACE = "trace"  # single boundary scalar

    def node_slice(self, n_cells: int) -> slice:
        """The nodes a node tag keeps, as a slice of all N+1 nodes."""
        if self is SpaceTag.NODE_ALL:
            return slice(0, n_cells + 1)
        if self is SpaceTag.NODE_FREE_LEFT:
            return slice(1, n_cells + 1)
        if self is SpaceTag.NODE_INTERIOR:
            return slice(1, n_cells)
        raise InvalidDomainError(f"{self} is not a node tag")

    def block_length(self, n_cells: int) -> int:
        if self is SpaceTag.CENTER:
            return n_cells
        if self is SpaceTag.TRACE:
            return 1
        keep = self.node_slice(n_cells)
        return keep.stop - keep.start


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform partition of (-1/2, 1/2) into ``n_cells`` cells.

    Nodes are the N+1 cell boundaries, centers the N midpoints; conjugate
    fields live on one or the other so that first differences map between
    them with second-order accuracy.
    """

    n_cells: int
    h: float
    nodes: np.ndarray
    centers: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.n_cells == self.n_cells

    def __hash__(self) -> int:
        return hash(("Grid", self.n_cells))

    def points(self, tag: SpaceTag) -> np.ndarray:
        """Sample points carried by a block with the given tag."""
        if tag is SpaceTag.CENTER:
            return self.centers
        if tag is SpaceTag.TRACE:
            raise InvalidDomainError("trace slots carry no sample points")
        return self.nodes[tag.node_slice(self.n_cells)]

    def weights(self, tag: SpaceTag) -> np.ndarray:
        """Quadrature weights for one block: midpoint rule on centers,
        trapezoidal rule on nodes (half weight at retained interval
        endpoints), unit weight on trace slots."""
        h = self.h
        if tag is SpaceTag.CENTER:
            return np.full(self.n_cells, h)
        if tag is SpaceTag.TRACE:
            return np.ones(1)
        w = np.full(self.n_cells + 1, h)
        w[0] = w[-1] = h / 2
        return w[tag.node_slice(self.n_cells)]


def build_grid(n_cells: int) -> Grid:
    """Build the uniform grid; requires at least two cells."""
    if not isinstance(n_cells, (int, np.integer)) or n_cells < 2:
        raise InvalidGridError(f"n_cells must be an integer >= 2, got {n_cells!r}")
    n = int(n_cells)
    nodes = np.linspace(-0.5, 0.5, n + 1)
    centers = 0.5 * (nodes[:-1] + nodes[1:])
    return Grid(n_cells=n, h=1.0 / n, nodes=nodes, centers=centers)


@dataclass(eq=False)
class StateLayout:
    """Ordered, named state blocks with contiguous offsets.

    Block lengths follow from the tag and the grid; trace slots have
    length one and hold boundary unknowns.
    """

    grid: Grid
    blocks: tuple[tuple[str, SpaceTag], ...]
    _offsets: dict[str, int] = field(init=False, repr=False)
    _tags: dict[str, SpaceTag] = field(init=False, repr=False)
    dim: int = field(init=False)

    def __post_init__(self):
        self.blocks = tuple((str(n), t) for n, t in self.blocks)
        names = [n for n, _ in self.blocks]
        if len(set(names)) != len(names):
            raise DimensionError(f"duplicate block names in layout: {names}")
        self._offsets = {}
        self._tags = {}
        off = 0
        for name, tag in self.blocks:
            self._offsets[name] = off
            self._tags[name] = tag
            off += tag.block_length(self.grid.n_cells)
        self.dim = off

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateLayout)
            and other.grid == self.grid
            and other.blocks == self.blocks
        )

    def __hash__(self) -> int:
        return hash((self.grid, self.blocks))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.blocks)

    def tag_of(self, name: str) -> SpaceTag:
        return self._tags[name]

    def length_of(self, name: str) -> int:
        return self._tags[name].block_length(self.grid.n_cells)

    def offset_of(self, name: str) -> int:
        return self._offsets[name]

    def slice_of(self, name: str) -> slice:
        off = self._offsets[name]
        return slice(off, off + self.length_of(name))

    def indices_of(self, names) -> np.ndarray:
        """Flat state indices of the named blocks, in the order given."""
        return np.concatenate([np.arange(s.start, s.stop) for s in map(self.slice_of, names)])

    def block(self, values: np.ndarray, name: str) -> np.ndarray:
        """View of one named block inside a flat state array."""
        return values[self.slice_of(name)]

    def points_of(self, name: str) -> np.ndarray:
        return self.grid.points(self._tags[name])

    def trace_names(self) -> tuple[str, ...]:
        return tuple(n for n, t in self.blocks if t is SpaceTag.TRACE)

    def field_names(self) -> tuple[str, ...]:
        return tuple(n for n, t in self.blocks if t is not SpaceTag.TRACE)


@dataclass
class StateVector:
    """A flat real state on a layout; all entries must be finite."""

    layout: StateLayout
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.layout.dim,):
            raise DimensionError(
                f"state has shape {self.values.shape}, layout needs ({self.layout.dim},)"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericError("state contains non-finite entries")

    def block(self, name: str) -> np.ndarray:
        return self.layout.block(self.values, name)

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.values.copy())


def zero_state(layout: StateLayout) -> StateVector:
    return StateVector(layout, np.zeros(layout.dim))


@dataclass(frozen=True)
class WeightMatrix:
    """Diagonal weights of the discrete inner product; strictly positive."""

    diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        if self.diag.ndim != 1 or not np.all(self.diag > 0):
            raise NumericError("weights must be a 1-D strictly positive vector")

    @property
    def dim(self) -> int:
        return self.diag.shape[0]


def build_weights(layout: StateLayout) -> WeightMatrix:
    """Concatenate per-block quadrature weights over the whole layout."""
    parts = [layout.grid.weights(tag) for _, tag in layout.blocks]
    return WeightMatrix(np.concatenate(parts))


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, StateVector) else np.asarray(u, dtype=float)


def weighted_inner(u, v, W: WeightMatrix) -> float:
    """Discrete inner product sum_i W_i u_i v_i (symmetric, positive definite)."""
    if isinstance(u, StateVector) and isinstance(v, StateVector):
        if u.layout != v.layout:
            raise DimensionError("states live on different layouts")
    uv, vv = _values(u), _values(v)
    if uv.shape != vv.shape or uv.shape != (W.dim,):
        raise DimensionError(
            f"shapes {uv.shape}, {vv.shape} incompatible with weights ({W.dim},)"
        )
    return float(np.dot(uv, W.diag * vv))


def weighted_norm(u, W: WeightMatrix) -> float:
    return math.sqrt(max(weighted_inner(u, u, W), 0.0))


def energy(u, M0, W: WeightMatrix) -> float:
    """Quadratic energy 1/2 <u, M0 u>_W of a state under the inertia operator."""
    uv = _values(u)
    return 0.5 * weighted_inner(uv, M0 @ uv, W)


@dataclass
class TimeSeries:
    """Sampled trajectory: energies, named trace values, optional snapshots."""

    times: np.ndarray
    energy: np.ndarray
    traces: dict[str, np.ndarray]
    snapshots: np.ndarray | None = None
    layout: StateLayout | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise NumericError("record times must be strictly increasing")
        n = self.times.shape[0]
        if self.energy.shape != (n,):
            raise DimensionError("energy record count does not match times")
        for name, vals in self.traces.items():
            if np.asarray(vals).shape != (n,):
                raise DimensionError(f"trace record {name!r} does not match times")
        if self.snapshots is not None and self.snapshots.shape[0] != n:
            raise DimensionError("snapshot count does not match times")

    def __len__(self) -> int:
        return self.times.shape[0]


def exp_weighted_norm(times, states, rho: float, W: WeightMatrix) -> float:
    """Exponentially weighted trajectory norm of states (one row per time).

    Returns sqrt of the trapezoidal quadrature of ||u(t)||_W^2 exp(-2 rho t)
    over the recorded window.  The infinite-line integral is truncated to the
    run window; the weight suppresses the tail for causal data.
    """
    if rho <= 0:
        raise ParameterError("rho must be positive")
    sq = np.einsum("ij,j,ij->i", states, W.diag, states)
    integrand = sq * np.exp(-2.0 * rho * times)
    dt = np.diff(times)
    integral = float(np.sum(0.5 * dt * (integrand[:-1] + integrand[1:])))
    return math.sqrt(max(integral, 0.0))


@dataclass(frozen=True)
class CoefficientField:
    """Samples of a scalar material coefficient at one block's points."""

    tag: SpaceTag
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise NumericError("coefficient samples must be finite")

    @classmethod
    def constant(cls, value: float, grid: Grid, tag: SpaceTag) -> "CoefficientField":
        n = tag.block_length(grid.n_cells)
        return cls(tag, np.full(n, float(value)))

    def require_positive(self, what: str) -> "CoefficientField":
        if not np.all(self.values > 0):
            raise ParameterError(f"{what} must be strictly positive everywhere")
        return self

    def require_nonnegative(self, what: str) -> "CoefficientField":
        if not np.all(self.values >= 0):
            raise ParameterError(f"{what} must be nonnegative everywhere")
        return self


# ---------------------------------------------------------------------------
# time-dependent sources


class Signal:
    """Time-indexed state-shaped source term.

    Subclasses implement ``__call__(t) -> ndarray`` defined and finite on the
    run window.  Signals form a vector space: ``a * f + g`` builds the obvious
    combined signal, which the linearity and causality probes rely on.
    """

    dim: int

    def __call__(self, t: float) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def __add__(self, other: "Signal") -> "Signal":
        if self.dim != other.dim:
            raise DimensionError("cannot add signals of different dimensions")
        return CallableSignal(lambda t: self(t) + other(t), self.dim)

    def __mul__(self, scalar: float) -> "Signal":
        a = float(scalar)
        return CallableSignal(lambda t: a * self(t), self.dim)

    __rmul__ = __mul__


@dataclass
class ZeroSignal(Signal):
    dim: int

    def __call__(self, t: float) -> np.ndarray:
        return np.zeros(self.dim)


@dataclass
class SeparableSignal(Signal):
    """Fixed spatial profile times a scalar time envelope."""

    profile: np.ndarray
    envelope: Callable[[float], float]

    def __post_init__(self):
        self.profile = np.asarray(self.profile, dtype=float)
        self.dim = self.profile.shape[0]

    def __call__(self, t: float) -> np.ndarray:
        return self.profile * self.envelope(t)


@dataclass
class CallableSignal(Signal):
    fn: Callable[[float], np.ndarray]
    dim: int

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self.fn(t), dtype=float)


def gaussian_envelope(center: float, width: float, amplitude: float = 1.0):
    """amplitude * exp(-(t - center)^2 / (2 width^2))"""
    if width <= 0:
        raise ParameterError("gaussian width must be positive")

    def env(t: float) -> float:
        z = (t - center) / width
        return amplitude * math.exp(-0.5 * z * z)

    return env


def sinusoid_envelope(frequency: float, phase: float = 0.0, amplitude: float = 1.0):
    """amplitude * sin(2 pi frequency t + phase)"""

    def env(t: float) -> float:
        return amplitude * math.sin(2.0 * math.pi * frequency * t + phase)

    return env


def bump_envelope(t0: float, t1: float, amplitude: float = 1.0):
    """Smooth bump supported exactly on (t0, t1); identically zero outside.

    Compact support makes it the right driver for causality probes, where
    two sources must coincide bit-for-bit before a split time.
    """
    if not t1 > t0:
        raise ParameterError("bump support must have t1 > t0")

    def env(t: float) -> float:
        s = 2.0 * (t - t0) / (t1 - t0) - 1.0
        if abs(s) >= 1.0:
            return 0.0
        return amplitude * math.exp(1.0 - 1.0 / (1.0 - s * s))

    return env
