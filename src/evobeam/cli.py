"""Batch front end: INI configs in, key=value reports and CSV out.

Sections: [grid] [scenario] [scheme] [source] [initial] [output].  Every
key has a default except grid.n_cells and scenario.name, and parsing fills
defaults in.  Exit statuses are a stable contract: 0 pass, 2 failed check
or probe, 3 I/O, 4 usage or config error.  With --stats PATH, a command
that reaches its report (exit 0 or 2 without an error line) also writes a
JSON record of its phase times and numbers to PATH.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import stat
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    EvobeamError,
    Grid,
    NumericError,
    ParameterError,
    SpaceTag,
    bump_envelope,
    build_grid,
    gaussian_envelope,
    sinusoid_envelope,
    weighted_inner,
)
from .discretize import skew_defect
from .integrate import (
    SchemeParams,
    UndefinedRatioError,
    bound_probe,
    causality_probe,
    factor,
    factor_stats,
    march,
    record_count,
    run,
)
from .scenarios import (
    SCENARIOS,
    AssembledModel,
    consistent_initial_state,
    embed_block,
    field_sampler,
    manufactured_source,
)
from .wellposed import (
    NevanlinnaSpec,
    NotCoerciveError,
    coercivity,
    find_rho0,
    nevanlinna_check,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "cmd_check",
    "cmd_run",
    "cmd_converge",
    "cmd_probe",
    "main",
]

_SCHEME_DEFAULTS = {**{f.name: repr(f.default) for f in fields(SchemeParams)}, "c_target": "0.001"}

_SOURCE_DEFAULTS = {
    "kind": "zero", "block": "", "profile": "1.0", "amplitude": "1.0",
    "center": "0.5", "width": "0.1", "frequency": "1.0", "phase": "0.0",
    "t0": "0.0", "t1": "1.0",
}

_INITIAL_DEFAULTS = {"kind": "zero", "amplitude": "1.0", "seed": "0"}

# the [initial] keys of _INITIAL_DEFAULTS that each kind reads; expr also
# reads the field blocks of the layout, which build_initial checks
_INITIAL_READS = {"zero": ("kind",), "random": ("kind", "amplitude", "seed"), "expr": ("kind", "amplitude")}

_OUTPUT_DEFAULTS = {"csv": "out.csv", "snapshots": "", "snapshot_stride": "1", "energy": "true", "traces": "all"}


class ConfigError(EvobeamError):
    """Config text violates the format or a scenario invariant."""


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A parsed config: each section's raw values with defaults filled in,
    and the values parse_config built from them, which the commands read."""

    scenario: str
    n_cells: int
    params: dict[str, str]
    scheme: dict[str, str]
    source: dict[str, str]
    initial: dict[str, str]
    output: dict[str, str]
    model: AssembledModel
    scheme_params: SchemeParams
    c_target: float
    source_fn: Callable[[float], np.ndarray]
    initial_state: np.ndarray  # before consistent_initial_state
    output_sel: tuple[bool, list[str], int | None]  # build_output's result


# ---------------------------------------------------------------------------
# parsing and validation

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs, "log": np.log,
    "pi": np.pi, "e": np.e,
}


_EXPR_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
}


def _eval_node(node: ast.AST, names: dict):
    """Arithmetic on numbers, x and _EXPR_NAMES; nothing else is reachable."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # float, so that a huge power overflows instead of running exact
        # integer arithmetic
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise NameError(f"name {node.id!r} is not defined")
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_node(node.left, names), _eval_node(node.right, names))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_node(node.operand, names))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        fn = _eval_node(node.func, names)
        # one argument: a numpy ufunc's second positional argument is its output
        if callable(fn) and len(node.args) == 1:
            return fn(_eval_node(node.args[0], names))
    raise ValueError(f"unsupported syntax {ast.unparse(node)!r}")


def _eval_expr(expr: str, x: np.ndarray, where: str) -> np.ndarray:
    try:
        with np.errstate(all="ignore"):
            val = np.asarray(_eval_node(ast.parse(expr, "<config>", mode="eval").body, {**_EXPR_NAMES, "x": x}))
            if not np.iscomplexobj(val):
                val = val.astype(float) * np.ones_like(x)
    except Exception as exc:
        raise ConfigError(f"{where}: cannot evaluate {expr!r}: {exc}") from exc
    if np.iscomplexobj(val):
        raise ConfigError(f"{where}: {expr!r} is not real")
    if not np.isfinite(val).all():
        raise ConfigError(f"{where}: {expr!r} is not finite at every sample point")
    return val


def _float(raw: str, where: str) -> float:
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return val


def _int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from exc


def _bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _law(raw: str, where: str) -> NevanlinnaSpec:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'mu0, mu1', got {raw!r}")
    try:
        return NevanlinnaSpec(*(_float(p, where) for p in parts))
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _default_text(value) -> str:
    return f"{value.mu0!r}, {value.mu1!r}" if isinstance(value, NevanlinnaSpec) else repr(float(value))


def parse_config(text: str) -> RunConfig:
    """Parse, fill defaults, and validate by building everything once."""
    import configparser

    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        one_line = " ".join(map(str.strip, str(exc).splitlines()))
        raise ConfigError(f"malformed config: {one_line}") from exc
    known = {"grid", "scenario", "scheme", "source", "initial", "output"}
    for sec in cp.sections():
        if sec not in known:
            raise ConfigError(f"unknown section [{sec}]")
    for sec in ("grid", "scenario"):
        if not cp.has_section(sec):
            raise ConfigError(f"missing required section [{sec}]")

    def section(nm: str, defaults: dict[str, str | None], blocks: tuple[str, ...] = ()) -> dict[str, str | None]:
        out = dict(defaults)
        if cp.has_section(nm):
            for k, v in cp.items(nm):
                if k not in defaults and k not in blocks:
                    raise ConfigError(f"[{nm}]: unknown key {k!r}")
                out[k] = v.strip()
        return out

    n_cells = section("grid", {"n_cells": None})["n_cells"]
    if n_cells is None:
        raise ConfigError("[grid]: n_cells is required")
    n_cells = _int(n_cells, "[grid] n_cells")

    scen_items = {k: v.strip() for k, v in cp.items("scenario")}
    name = scen_items.pop("name", None)
    if name is None:
        raise ConfigError("[scenario]: name is required")
    if name not in SCENARIOS:
        raise ConfigError(f"[scenario] name: unknown scenario {name!r}")
    defaults = SCENARIOS[name].defaults
    params = {f.name: _default_text(getattr(defaults, f.name)) for f in fields(defaults)}
    for k, v in scen_items.items():
        if k not in params:
            raise ConfigError(f"[scenario]: unknown key {k!r} for {name}")
        params[k] = v

    def refuse_unread(nm: str, unread, why: str) -> None:
        """Refuse the first key of section nm, in config order, in unread."""
        for k in cp.options(nm) if cp.has_section(nm) else ():
            if k in unread:
                raise ConfigError(f"[{nm}] {k}: not read {why}")

    scheme = section("scheme", _SCHEME_DEFAULTS)
    source = section("source", _SOURCE_DEFAULTS)
    # an unknown kind reads every key; build_source and build_initial refuse it
    kind = source["kind"]
    refuse_unread("source", _SOURCE_DEFAULTS.keys() - _SOURCE_READS.get(kind, _SOURCE_DEFAULTS), f"by kind = {kind}")
    output = section("output", _OUTPUT_DEFAULTS)
    if not output["snapshots"]:
        refuse_unread("output", {"snapshot_stride"}, "without snapshots")
    # full validation: each builder names its section in its errors
    model = build_model(name, params, _build_grid(n_cells))
    scheme_params, c_target = build_scheme(scheme)
    source_fn = build_source(source, model)
    block = source["block"] or model.layout.names[0]
    if model.layout.tag_of(block) is SpaceTag.TRACE:
        refuse_unread("source", {"profile"}, f"for the trace block {block!r}")
    initial = section("initial", _INITIAL_DEFAULTS, model.layout.field_names())
    kind = initial["kind"]
    refuse_unread("initial", _INITIAL_DEFAULTS.keys() - _INITIAL_READS.get(kind, _INITIAL_DEFAULTS), f"by kind = {kind}")
    initial_state = build_initial(initial, model)
    output_sel = build_output(output, model)
    return RunConfig(
        name, n_cells, params, scheme, source, initial, output,
        model, scheme_params, c_target, source_fn, initial_state, output_sel,
    )


# ---------------------------------------------------------------------------
# builders

@contextmanager
def _section(name: str):
    """Raise each error of a builder of section name as ConfigError("[name] " + message)."""
    try:
        yield
    except EvobeamError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


_build_grid = _section("grid")(build_grid)


@_section("scenario")
def build_model(scenario: str, params: dict[str, str], grid: Grid) -> AssembledModel:
    """Assemble the scenario's model on grid from its [scenario] values.

    Each params field is read by its kind: a tagged coefficient is an
    expression in x sampled on its tag, a trace law a 'mu0, mu1' pair, and
    anything else a number.
    """
    spec = SCENARIOS[scenario]
    values = {}
    for f in fields(spec.defaults):
        raw = params[f.name]
        if "tag" in f.metadata:
            values[f.name] = _eval_expr(raw, grid.points(f.metadata["tag"]), f.name)
        elif isinstance(getattr(spec.defaults, f.name), NevanlinnaSpec):
            values[f.name] = _law(raw, f.name)
        else:
            values[f.name] = _float(raw, f.name)
    return spec.make(grid, replace(spec.defaults, **values))


@_section("scheme")
def build_scheme(s: dict[str, str]) -> tuple[SchemeParams, float]:
    """The scheme and c_target of a [scheme] section."""
    read = {"float": _float, "int": _int}
    scheme = SchemeParams(**{f.name: read[f.type](s[f.name], f.name) for f in fields(SchemeParams)})
    c_target = _float(s["c_target"], "c_target")
    if not c_target > 0:
        raise ConfigError(f"c_target: must be > 0, got {s['c_target']!r}")
    return scheme, c_target


# the envelope of each source kind but zero, and the [source] keys of its
# first two arguments (the third is the amplitude)
_ENVELOPES = {
    "gaussian": (gaussian_envelope, "center", "width"),
    "sinusoid": (sinusoid_envelope, "frequency", "phase"),
    "bump": (bump_envelope, "t0", "t1"),
}

# the [source] keys that each kind reads
_SOURCE_READS = {"zero": ("kind",)} | {
    kind: ("kind", "block", "profile", "amplitude", *keys) for kind, (_, *keys) in _ENVELOPES.items()
}


@_section("source")
def build_source(s: dict[str, str], model: AssembledModel) -> Callable[[float], np.ndarray]:
    kind = s["kind"]
    if kind == "zero":
        dim = model.layout.dim
        return lambda t: np.zeros(dim)
    block = s["block"] or model.layout.names[0]
    if block not in model.layout.names:
        raise ConfigError(f"block: unknown block {block!r}")
    amplitude = _float(s["amplitude"], "amplitude")
    if model.layout.tag_of(block) is SpaceTag.TRACE:
        profile_vals = np.ones(1)
    else:
        profile_vals = _eval_expr(s["profile"], model.layout.points_of(block), "profile")
    profile = embed_block(model.layout, block, profile_vals)
    if kind not in _ENVELOPES:
        raise ConfigError(f"kind: unknown kind {kind!r}")
    envelope, *keys = _ENVELOPES[kind]
    env = envelope(*(_float(s[k], k) for k in keys), amplitude)
    # every envelope is amplitude * g(t) with |g| <= 1 and rounding is
    # monotone, so each source value is finite if amplitude * profile is
    with np.errstate(over="ignore"):
        peak = amplitude * profile_vals
    if not np.isfinite(peak).all():
        raise ConfigError("amplitude: amplitude * profile is not finite at every sample point")
    return lambda t: profile * env(t)


@_section("initial")
def build_initial(ini: dict[str, str], model: AssembledModel) -> np.ndarray:
    kind = ini["kind"]
    blocks = {k: v for k, v in ini.items() if k not in _INITIAL_DEFAULTS}
    if blocks and kind != "expr":
        raise ConfigError(f"{next(iter(blocks))}: a block value is read only with kind = expr")
    amplitude = _float(ini["amplitude"], "amplitude")
    vals = np.zeros(model.layout.dim)
    if kind == "random":
        seed = _int(ini["seed"], "seed")
        if seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {ini['seed']!r}")
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = amplitude * rng.standard_normal(model.layout.dim)
    elif kind == "expr":
        for key, raw in blocks.items():
            block = _eval_expr(raw, model.layout.points_of(key), key)
            with np.errstate(over="ignore", invalid="ignore"):
                vals[model.layout.slice_of(key)] = amplitude * block
    elif kind != "zero":
        raise ConfigError(f"kind: unknown kind {kind!r}")
    if not np.isfinite(vals).all():
        raise NumericError("state contains non-finite entries")
    return vals


@_section("output")
def build_output(out: dict[str, str], model: AssembledModel) -> tuple[bool, list[str], int | None]:
    """The energy flag, the trace names and the snapshot stride (None
    without snapshots) that [output] asks for."""
    for key in ("csv", "snapshots"):
        if "\0" in out[key]:
            raise ConfigError(f"{key}: a path cannot contain a NUL character")
    # an empty snapshots path means no snapshot file
    if not out["csv"]:
        raise ConfigError("csv: path is empty")
    with_energy = _bool(out["energy"], "energy")
    traces_sel = out["traces"]
    if traces_sel == "all":
        trace_names = list(model.layout.trace_names())
    elif traces_sel == "none":
        trace_names = []
    else:
        trace_names = [t.strip() for t in traces_sel.split(",") if t.strip()]
        for i, t in enumerate(trace_names):
            if t not in model.layout.trace_names():
                raise ConfigError(f"traces: unknown trace {t!r}")
            if t in trace_names[:i]:
                raise ConfigError(f"traces: trace {t!r} is named twice")
    stride = None
    if out["snapshots"]:
        stride = _int(out["snapshot_stride"], "snapshot_stride")
        if stride < 1:
            raise ConfigError("snapshot_stride: must be >= 1")
    return with_energy, trace_names, stride


# ---------------------------------------------------------------------------
# commands

def fmt17(x: float) -> str:
    """17 significant digits, compact exponent; round-trips float64."""
    mant, exp = f"{float(x):.16e}".split("e")
    return f"{mant}e{int(exp)}"


# The keys of a --stats record, in order.  A value that the command does not
# compute stays None (JSON null); the phase times (*_s, in seconds) add up
# over repeated calls, as in converge.
_STATS_KEYS = (
    "command", "scenario", "n_cells", "dim", "n_steps",
    "parse_s", "check_s", "factor_s", "step_s", "write_s",
    "nnz_lu", "pivot_growth", "c0", "rho0", "skew_defect",
    "max_energy_residual", "final_energy",
)


def _add(stats: dict | None, phase: str, seconds: float, **values) -> None:
    """Add seconds to a phase of a --stats record and store values in it;
    nothing without a record."""
    if stats is not None:
        stats[phase] = (stats[phase] or 0.0) + seconds
        stats.update(values)


def _note(stats: dict | None, phase: str, start: float, **values) -> None:
    """_add the seconds since start."""
    _add(stats, phase, time.perf_counter() - start, **values)


def _factor(model: AssembledModel, scheme: SchemeParams, stats: dict | None):
    """factor, timed into a --stats record with the largest LU size and
    pivot growth so far."""
    start = time.perf_counter()
    sys_ = factor(model, scheme)
    if stats is not None:
        _note(stats, "factor_s", start)
        nnz, growth = factor_stats(sys_)
        stats["nnz_lu"] = max(nnz, stats["nnz_lu"] or 0)
        stats["pivot_growth"] = max(growth, stats["pivot_growth"] or 0.0)
    return sys_


def _bound(c0: float) -> float:
    """The solution operator's bound 1/c0 of a coercive law (c0 > 0)."""
    bound = 1.0 / c0
    if not math.isfinite(bound):
        raise NumericError(f"bound 1/c0 overflows for c0={c0!r}")
    return bound


def cmd_check(cfg: RunConfig, stats: dict | None = None) -> tuple[list[str], int]:
    """Well-posedness report: c0, rho0, bound, skew defect, trace laws."""
    model = cfg.model
    start = time.perf_counter()
    c0 = coercivity(model.m0, model.M1, cfg.scheme_params.rho, model.W)
    if c0 <= 0:
        _note(stats, "check_s", start, c0=c0)
        return ["c0<=0"], 2
    bound = _bound(c0)
    lines = [f"c0={fmt17(c0)}"]
    code = 0
    rho0 = None
    try:
        rho0 = find_rho0(model.m0, model.M1, cfg.c_target, model.W)
        lines.append(f"rho0={fmt17(rho0)}")
    except NotCoerciveError:
        lines.append("rho0=unreachable")
        code = 2
    lines.append(f"bound={fmt17(bound)}")
    defect = skew_defect(model.A, model.W)
    lines.append(f"skew_defect={fmt17(defect)}")
    mu1, slots = model.M1.diagonal(), map(model.layout.offset_of, model.layout.trace_names())
    ok = all(nevanlinna_check(NevanlinnaSpec(model.m0[k], mu1[k])) for k in slots)
    lines.append(f"nevanlinna={'pass' if ok else 'fail'}")
    if not ok:
        code = 2
    _note(stats, "check_s", start, c0=c0, rho0=rho0, skew_defect=defect)
    return lines, code


# The CSV and snapshot files are formatted and written this many values at a
# time (at least one row), so that the text of a record buffer is never held
# whole as Python objects.
_WRITE_CHUNK_VALUES = 1 << 12


def _write_rows(fh, cols: list[np.ndarray], lines_of: Callable[[list[list[float]]], list[str]]):
    """Write lines_of(rows) to fh for the rows of column_stack(cols), one
    bounded chunk of rows at a time."""
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in cols)
    step = max(_WRITE_CHUNK_VALUES // width, 1)
    for lo in range(0, len(cols[0]), step):
        rows = np.column_stack([c[lo : lo + step] for c in cols]).tolist()
        fh.write("\n".join(lines_of(rows)) + "\n")


def _remove_file(path: str) -> None:
    """Remove path if it names a regular file; a link, a device or a pipe stays."""
    if stat.S_ISREG(os.lstat(path).st_mode):
        os.remove(path)


@contextmanager
def _written(outputs: list[tuple[str, str]]):
    """Open each (path, header) of outputs for writing, in order, write its
    header line and yield the files; close them all on exit.  If the body
    raises, or a file fails to close, remove those that are regular files."""
    files = []
    try:
        for path, header in outputs:
            files.append(open(path, "w"))
            files[-1].write(header + "\n")
        yield files
        for fh in files:
            fh.close()  # the last flush, which can fail
    except BaseException:
        for (path, _), fh in zip(outputs, files):
            with suppress(OSError):
                fh.close()
            with suppress(OSError):
                _remove_file(path)
        raise


def cmd_run(cfg: RunConfig, stats: dict | None = None) -> int:
    """Simulate and write the CSV (and optional snapshot file), one record
    buffer at a time as march hands it on; a run that fails leaves neither."""
    model, source, scheme = cfg.model, cfg.source_fn, cfg.scheme_params
    record_count(scheme)  # its refusal comes before any file is opened
    with_energy, trace_names, stride = cfg.output_sel
    lay = model.layout
    trace_at = [lay.offset_of(name) for name in trace_names]
    snap_path = cfg.output["snapshots"]
    # one string per state slot, made only for a snapshot file
    keys = [f"{name},{j}," for name in lay.names for j in range(lay.length_of(name))] if snap_path else []
    header = ["t"] + (["energy"] if with_energy else []) + [f"trace:{t}" for t in trace_names]
    # the snapshot file is opened first, so that one that cannot be opened leaves no CSV
    outputs = ([(snap_path, "t,block,index,value")] if snap_path else []) + [(cfg.output["csv"], ",".join(header))]

    def snapshot_lines(rows):
        lines = []
        for t, *state in rows:
            t_key = repr(t) + ","
            lines += [t_key + key + repr(v) for key, v in zip(keys, state)]
        return lines

    def csv_lines(rows):
        return [",".join(map(repr, row)) for row in rows]

    done, final_energy, writing = 0, None, 0.0
    start = time.perf_counter()
    with _written(outputs) as files:
        writing += time.perf_counter() - start

        def write(times, states, energies):
            nonlocal done, final_energy, writing
            start = time.perf_counter()
            if snap_path:
                first = -done % stride  # the first record of this buffer that the stride keeps
                _write_rows(files[0], [times[first::stride], states[first::stride]], snapshot_lines)
            cols = [times] + ([energies] if with_energy else []) + [states[:, k] for k in trace_at]
            _write_rows(files[-1], cols, csv_lines)
            done, final_energy = done + len(times), float(energies[-1])
            writing += time.perf_counter() - start

        u0 = consistent_initial_state(model, cfg.initial_state, source(0.0))
        sys_ = _factor(model, scheme, stats)
        residual = stats is not None and scheme.theta == 0.5
        start, before = time.perf_counter(), writing
        max_residual = march(sys_, u0, source, write, energy_residual=residual)
        stepping = time.perf_counter() - start - (writing - before)
        start = time.perf_counter()
    writing += time.perf_counter() - start  # closing, with the last flush
    _add(stats, "step_s", stepping, max_energy_residual=max_residual, final_energy=final_energy)
    _add(stats, "write_s", writing)
    return 0


def _restrict(fine_model: AssembledModel, coarse_model: AssembledModel, u: np.ndarray) -> np.ndarray:
    """Restrict a fine-grid state to a coarse layout of the same shape:
    node blocks inject, center blocks average the fine centers m*j +
    (m-1)//2 and m*j + m//2 (for an even ratio m the two that straddle
    coarse center j, for an odd one the one at it), traces copy."""
    lf, lc = fine_model.layout, coarse_model.layout
    m = lf.grid.n_cells // lc.grid.n_cells
    out = np.zeros(lc.dim)
    for name, tag in lc.blocks:
        fine = u[lf.slice_of(name)]
        if tag is SpaceTag.TRACE:
            out[lc.offset_of(name)] = fine[0]
        elif tag is SpaceTag.CENTER:
            first = m * np.arange(lc.grid.n_cells)
            out[lc.slice_of(name)] = 0.5 * (fine[first + (m - 1) // 2] + fine[first + m // 2])
        else:
            keep = tag.node_slice(lc.grid.n_cells)
            nodes_c = np.arange(lc.grid.n_cells + 1)[keep]
            out[lc.slice_of(name)] = fine[m * nodes_c - keep.start]
        # node indexing: fine block starts at node `keep.start`, so fine node
        # m*j sits at offset m*j - keep.start within the block
    return out


def cmd_converge(cfg: RunConfig, levels: list[int], stats: dict | None = None) -> tuple[list[str], int]:
    """Grid refinement study: the W-norm error at t_end on each level and
    the fitted slope of log(error) against log(h).  Each level steps with
    the configured t_end and theta at its own dt (h for MMS, 1/n otherwise).

    A scenario with an MMS family is driven by its manufactured source and
    compared with the exact fields.  Every other scenario runs the
    configured source and initial state and is compared with a run four
    times finer than the largest level, over the differential slots
    (nonzero m0 entries) only: algebraic slots are pointwise functionals
    of the rest of the state with an h-dependent stencil, so comparing
    them across grids mixes first-order boundary terms into an otherwise
    second-order solution.
    """
    if len(levels) < 3:
        raise ConfigError("converge needs at least 3 levels")
    if len(set(levels)) != len(levels):
        raise ConfigError("converge levels must be distinct")
    if any(n < 2 for n in levels):
        raise ConfigError("levels must be >= 2")
    spec = SCENARIOS[cfg.scenario]
    n_ref = 4 * max(levels)
    if spec.mms is None and any(n_ref % n for n in levels):
        raise ConfigError("reference grid must be a multiple of each level")
    t_end, theta = cfg.scheme_params.t_end, cfg.scheme_params.theta
    if spec.mms is not None:
        exact, rates = spec.mms()

    def solve(n: int):
        try:
            model = build_model(cfg.scenario, cfg.params, _build_grid(n))
            exact_at = None
            if spec.mms is not None:
                steps = max(1, round(t_end / model.grid.h))
                source = manufactured_source(model, exact, rates)
                exact_at = field_sampler(model, exact)
                u0 = exact_at(0.0)
            else:
                steps = max(1, round(t_end * n))
                source = build_source(cfg.source, model)
                u0 = consistent_initial_state(model, build_initial(cfg.initial, model), source(0.0))
            scheme = SchemeParams(dt=t_end / steps, t_end=t_end, theta=theta, record_every=steps)
            sys_ = _factor(model, scheme, stats)
            start = time.perf_counter()
            ts = run(sys_, u0, source)
            _note(stats, "step_s", start)
            return model, ts, exact_at
        except ConfigError as exc:
            raise ConfigError(f"level {n}: {exc}") from exc

    if spec.mms is None:
        ref_model, ref_ts, _ = solve(n_ref)
    errs, hs, lines = [], [], []
    for n in sorted(levels):
        model, ts, exact_at = solve(n)
        if exact_at is not None:
            diff = ts.snapshots[-1] - exact_at(ts.times[-1])
        else:
            ref = _restrict(ref_model, model, ref_ts.snapshots[-1])
            diff = (ts.snapshots[-1] - ref) * (model.m0 != 0.0)
        err = math.sqrt(weighted_inner(diff, diff, model.W))
        if err == 0.0:
            raise ConfigError(f"level {n}: the error is 0, so the convergence slope is undefined")
        errs.append(err)
        hs.append(model.grid.h)
        lines.append(f"level={n} error={fmt17(err)}")
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    lines.append(f"slope={fmt17(slope)}")
    return lines, 0 if slope >= 1.9 else 2


def cmd_probe(cfg: RunConfig, kind: str, a: float | None = None, stats: dict | None = None) -> tuple[list[str], int]:
    """The causality probe (a pulse switched on after ``a`` must leave the
    states up to ``a`` unchanged) or the bound probe (the response over the
    source, against 1/c0); the report lines and 0, or 2 when it fails."""
    model, scheme, source = cfg.model, cfg.scheme_params, cfg.source_fn
    if kind == "causality":
        if a is None:
            raise ConfigError("causality probe needs --a")
        if not 0 < a < scheme.t_end:
            raise ConfigError(f"split time a={a} must lie inside (0, t_end)")
        t0 = a + 0.01 * (scheme.t_end - a)
        pulse_block = model.layout.names[0]
        profile = embed_block(model.layout, pulse_block, 1.0)
        pulse = bump_envelope(t0, scheme.t_end)
        pulsed = lambda t: source(t) + profile * pulse(t)
        sys_ = _factor(model, scheme, stats)
        start = time.perf_counter()
        dev = causality_probe(sys_, source, pulsed, a)
        _note(stats, "step_s", start)
        return [f"max_dev_before_a={fmt17(dev)}"], 0 if dev <= 1e-13 else 2
    if kind == "bound":
        if a is not None:
            raise ConfigError("bound probe takes no --a")
        start = time.perf_counter()
        c0 = coercivity(model.m0, model.M1, scheme.rho, model.W)
        _note(stats, "check_s", start, c0=c0)
        if c0 <= 0:
            return ["c0<=0"], 2
        if not scheme.rho > 0:
            raise ConfigError(f"[scheme] rho: the bound probe needs rho > 0, got {cfg.scheme['rho']!r}")
        sys_ = _factor(model, scheme, stats)
        start = time.perf_counter()
        try:
            ratio = bound_probe(sys_, source)
        except UndefinedRatioError as exc:
            raise ConfigError(f"[source] {exc}") from exc
        _note(stats, "step_s", start)
        bound = _bound(c0)
        return [f"ratio={fmt17(ratio)}", f"limit={fmt17(bound)}"], 0 if ratio <= 1.05 * bound else 2
    raise ConfigError(f"unknown probe kind {kind!r}")


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise ConfigError(message)


def main(argv=None) -> int:
    """Run one command on an INI config; the exit status, 0, 2, 3 or 4."""
    parser = _Parser(prog="evobeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "run", "converge", "probe"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to an INI config")
        p.add_argument("--stats", metavar="PATH", help="also write a JSON record of phase times and numbers")
        if name == "converge":
            p.add_argument("--levels", required=True, help="comma-separated n_cells")
        if name == "probe":
            p.add_argument("--kind", required=True, choices=("causality", "bound"))
            p.add_argument("--a", type=float, default=None, help="causality split time")
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    stats = None if args.stats is None else dict.fromkeys(_STATS_KEYS)
    try:
        if args.stats == "":
            raise ConfigError("--stats: path is empty")
        start = time.perf_counter()
        cfg = parse_config(text)
        _note(
            stats, "parse_s", start, command=args.command, scenario=cfg.scenario, n_cells=cfg.n_cells,
            dim=cfg.model.layout.dim, n_steps=cfg.scheme_params.n_steps,
        )
        # no file the command writes is its config or another of its outputs
        seen = {os.path.realpath(args.config): "the config"}
        outputs = [(f"[output] {key}", cfg.output[key]) for key in ("csv", "snapshots") if args.command == "run"]
        for name, path in [*outputs, ("--stats", args.stats)]:
            if path and (other := seen.setdefault(os.path.realpath(path), name)) != name:
                raise ConfigError(f"{name}: {path!r} is the same file as {other}")
        if args.command == "check":
            lines, code = cmd_check(cfg, stats)
        elif args.command == "run":
            lines, code = [], cmd_run(cfg, stats)
        elif args.command == "converge":
            levels = [_int(v.strip(), "--levels") for v in args.levels.split(",") if v.strip()]
            lines, code = cmd_converge(cfg, levels, stats)
        else:
            lines, code = cmd_probe(cfg, args.kind, args.a, stats)
        if stats is not None:
            # after the command, so that the record holds every phase
            Path(args.stats).write_text(json.dumps(stats) + "\n")
        try:
            print("".join(f"{line}\n" for line in lines), end="", flush=True)
        except OSError:
            # stdout was closed: no record after an error line, and devnull takes the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if stats is not None:
                _remove_file(args.stats)
            raise
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except EvobeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code
