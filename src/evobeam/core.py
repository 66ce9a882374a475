"""Grids, state layouts, weighted inner products, and run records.

Everything downstream speaks this vocabulary: a uniform staggered grid on
(-1/2, 1/2), named state blocks living on nodes, cell centers, or scalar
boundary-trace slots, and diagonal quadrature weights that make coefficient
vectors behave like elements of a weighted L2-type space with trace summands.
A state is a plain float array of length ``layout.dim`` on that space, and
a source is a function of time that returns one; the envelopes at the end
give the time factor of a separable source ``profile * envelope(t)``.
Grids are frozen, and a grid's node and center arrays and the weight
vector are read-only; ``StateLayout`` and ``TimeSeries`` are mutable
dataclasses that nothing here changes after construction, and every
function leaves its arguments unchanged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
import numpy as np

__all__ = [
    "EvobeamError",
    "NumericError",
    "ParameterError",
    "SpaceTag",
    "Grid",
    "build_grid",
    "StateLayout",
    "build_weights",
    "weighted_inner",
    "energy",
    "TimeSeries",
    "gaussian_envelope",
    "sinusoid_envelope",
    "bump_envelope",
]


class EvobeamError(Exception):
    """Base class for all errors raised by this package."""


class NumericError(EvobeamError):
    """Non-finite values, or a numerical consistency check failed."""


class ParameterError(EvobeamError):
    """An argument is outside what the function accepts: a parameter that
    violates a scenario invariant, a wrong shape, tag or record count."""


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
        raise ParameterError(f"{self} is not a node tag")

    def free_ends(self) -> tuple[float, ...]:
        """The endpoints whose node a node tag keeps, -1/2 before +1/2: the
        ends where a block with this tag carries a trace."""
        kept = range(2)[self.node_slice(1)]  # of the two nodes of one cell
        return tuple(x for x, node in ((-0.5, 0), (0.5, 1)) if node in kept)

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

    def points(self, tag: SpaceTag) -> np.ndarray:
        """Sample points carried by a block with the given tag."""
        if tag is SpaceTag.CENTER:
            return self.centers
        if tag is SpaceTag.TRACE:
            raise ParameterError("trace slots carry no sample points")
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
        raise ParameterError(f"n_cells must be an integer >= 2, got {n_cells!r}")
    n = int(n_cells)
    try:
        nodes = np.linspace(-0.5, 0.5, n + 1)
        centers = 0.5 * (nodes[:-1] + nodes[1:])
    except (MemoryError, ValueError) as exc:
        raise ParameterError(f"cannot allocate a grid of {n} cells: {exc}") from exc
    nodes.flags.writeable = centers.flags.writeable = False
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
            raise ParameterError(f"duplicate block names in layout: {names}")
        self._offsets = {}
        self._tags = {}
        off = 0
        for name, tag in self.blocks:
            self._offsets[name] = off
            self._tags[name] = tag
            off += tag.block_length(self.grid.n_cells)
        self.dim = off

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

    def points_of(self, name: str) -> np.ndarray:
        return self.grid.points(self._tags[name])

    def trace_names(self) -> tuple[str, ...]:
        return tuple(n for n, t in self.blocks if t is SpaceTag.TRACE)

    def field_names(self) -> tuple[str, ...]:
        return tuple(n for n, t in self.blocks if t is not SpaceTag.TRACE)


def build_weights(layout: StateLayout) -> np.ndarray:
    """The diagonal W of the discrete inner product: the per-block quadrature
    weights concatenated over the layout, a read-only float vector.  Every
    entry is h, h/2 or 1, so W is strictly positive."""
    W = np.concatenate([layout.grid.weights(tag) for _, tag in layout.blocks])
    W.flags.writeable = False
    return W


def weighted_inner(u, v, W: np.ndarray):
    """Discrete inner product sum_i W_i u_i v_i (symmetric, positive definite)
    of two states, a float, or of two stacks of states row by row.  Rows are
    summed C-ordered, each in np.sum's pairwise order for that row alone, so
    each row's value is bitwise its one-state value."""
    uv, vv = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if uv.shape != vv.shape or uv.ndim not in (1, 2) or uv.shape[-1] != W.size:
        raise ParameterError(
            f"shapes {uv.shape}, {vv.shape} incompatible with weights ({W.size},)"
        )
    products = np.multiply(W, vv, order="C")
    products *= uv  # in place: a stack holds one temporary, not two
    return _row_sums(products)


def energy(u, m0: np.ndarray, W: np.ndarray):
    """Quadratic energy 1/2 <u, m0 u>_W of a state under the diagonal inertia
    m0, or of each row of a stack of states, summed as ``weighted_inner``
    sums.  A stack holds one temporary of its size: (m0*u)*W is W*(m0*u)
    bit for bit."""
    uv = np.asarray(u, dtype=float)
    if uv.ndim not in (1, 2) or uv.shape[-1] != W.size or np.shape(m0) != W.shape:
        raise ParameterError(f"shapes {uv.shape}, m0 {np.shape(m0)} incompatible with weights ({W.size},)")
    products = np.multiply(m0, uv, order="C")
    products *= W
    products *= uv
    return 0.5 * _row_sums(products)


def _row_sums(products: np.ndarray):
    """The sum of a C-ordered state, a float, or of each row of a stack."""
    sums = np.sum(products, axis=-1)
    return float(sums) if products.ndim == 1 else sums


@dataclass
class TimeSeries:
    """A run's record times, energies and full states on ``layout``."""

    times: np.ndarray
    energy: np.ndarray
    snapshots: np.ndarray
    layout: StateLayout

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        # a NaN compares false both ways, so test the order, not its negation
        if self.times.ndim != 1 or not np.all(self.times[1:] > self.times[:-1]):
            raise NumericError("record times must be strictly increasing")
        n = self.times.shape[0]
        if self.energy.shape != (n,):
            raise ParameterError("energy record count does not match times")
        if np.shape(self.snapshots) != (n, self.layout.dim):
            raise ParameterError(f"snapshots have shape {np.shape(self.snapshots)}, need ({n}, {self.layout.dim})")

    @property
    def traces(self) -> dict[str, np.ndarray]:
        """Each trace slot's values: a view of its state column."""
        return {name: self.snapshots[:, self.layout.offset_of(name)] for name in self.layout.trace_names()}

    def __len__(self) -> int:
        return self.times.shape[0]


# ---------------------------------------------------------------------------
# time envelopes of separable sources


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
        arg = 2.0 * math.pi * frequency * t + phase
        if not math.isfinite(arg):
            raise NumericError(f"sinusoid argument is not finite at t = {t!r}")
        return amplitude * math.sin(arg)

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
