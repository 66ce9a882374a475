"""The benchmark's workloads: seeded INI configs and the checks on CLI output.

Seed 0 is the reference configuration of each workload, as defined below; its
outputs are compared with ``references.json``, which was recorded from the
package before any optimisation. Any other seed draws the
workload's seeded values from ``random.Random(seed)`` and is checked only
against invariants that hold for every seed. The draws never change the
problem size, so every seed costs the same work.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# Numeric outputs are compared parsed, not byte for byte, so that a change of
# float format or a reordered LU (roundoff at the 1e-13 level) still passes.
RTOL = 1e-7
# find_rho0 bisects to 1e-6 relative; an exact rho0 must pass too.
RHO0_RTOL = 1e-6
# converge exits 0 only at this fitted slope; checked again on the parsed value.
MIN_SLOPE = 1.9
# Rows of a long CSV kept in the reference; the column sums cover the rest.
REFERENCE_ROWS = 200

REFERENCES = Path(__file__).with_name("references.json")

Sections = dict[str, dict[str, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base: Sections
    draw: Callable[[random.Random], Sections]
    levels: tuple[int, ...] = ()
    # smaller size for the self-test; the same code paths run
    quick: Sections = field(default_factory=dict)
    quick_levels: tuple[int, ...] = ()

    def sections(self, seed: int, quick: bool = False) -> Sections:
        out = {sec: dict(kv) for sec, kv in self.base.items()}
        layers = [] if seed == DEFAULT_SEED else [self.draw(random.Random(seed))]
        if quick:
            layers.append(self.quick)
        for layer in layers:
            for sec, kv in layer.items():
                out.setdefault(sec, {}).update(kv)
        return out

    def write_config(self, seed: int, directory: Path, quick: bool = False) -> tuple[Sections, Path, Path]:
        """Write the seeded config into ``directory`` and send the CSV there too.

        Returns the config's sections, its path and the CSV path.
        """
        sections = self.sections(seed, quick)
        csv_path = directory / "out.csv"
        sections.setdefault("output", {})["csv"] = str(csv_path)
        config = directory / "workload.cfg"
        config.write_text(config_text(sections))
        return sections, config, csv_path

    def argv(self, config: Path, quick: bool = False) -> list[str]:
        """Arguments after ``python -m evobeam``."""
        args = [self.command, str(config)]
        if self.command == "converge":
            levels = self.quick_levels if quick else self.levels
            args += ["--levels", ",".join(map(str, levels))]
        return args


def config_text(sections: Sections) -> str:
    lines = []
    for sec, kv in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in kv.items()]
        lines.append("")
    return "\n".join(lines)


def _u(rng: random.Random, lo: float, hi: float) -> str:
    return repr(rng.uniform(lo, hi))


def _draw_beam(rng: random.Random) -> Sections:
    return {"scenario": {"c": _u(rng, 0.3, 0.7), "I_tilde": _u(rng, 0.05, 0.2), "d": _u(rng, 0.1, 0.3)}}


def _draw_run_beam(rng: random.Random) -> Sections:
    return {
        "source": {
            "profile": f"exp(-((x - {rng.uniform(-0.3, 0.3)!r}) / 0.1)**2)",
            "center": _u(rng, 0.2, 0.8),
            "width": _u(rng, 0.05, 0.2),
        },
        "initial": {"seed": str(rng.randrange(2**31))},
    }


def _draw_full_dynamic(rng: random.Random) -> Sections:
    laws = {k: f"1.0, {rng.uniform(0.2, 1.0)!r}" for k in ("mu_minus", "mu_plus", "nu_minus", "nu_plus")}
    return {
        "scenario": laws,
        "source": {"frequency": _u(rng, 1.0, 3.0), "phase": _u(rng, 0.0, math.pi)},
        "initial": {"seed": str(rng.randrange(2**31))},
    }


def _draw_mms(rng: random.Random) -> Sections:
    return {"scenario": {"c": _u(rng, 0.3, 0.7), "d": _u(rng, 0.0, 0.3)}}


_BEAM = {"name": "timoshenko_damped", "c": "0.5", "I_tilde": "0.1", "d": "0.2"}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="check_n256",
            command="check",
            base={"grid": {"n_cells": "256"}, "scenario": dict(_BEAM)},
            draw=_draw_beam,
            quick={"grid": {"n_cells": "16"}},
        ),
        Workload(
            name="run_n1024",
            command="run",
            base={
                "grid": {"n_cells": "1024"},
                "scenario": dict(_BEAM),
                "scheme": {"dt": "0.001", "t_end": "1.0", "record_every": "10"},
                "source": {
                    "kind": "gaussian", "block": "V2", "profile": "exp(-((x - 0.1) / 0.1)**2)",
                    "center": "0.3", "width": "0.1",
                },
                "initial": {"kind": "random", "amplitude": "0.1", "seed": "1"},
            },
            draw=_draw_run_beam,
            quick={"grid": {"n_cells": "32"}, "scheme": {"t_end": "0.1"}},
        ),
        Workload(
            name="run_n32_full_dynamic",
            command="run",
            base={
                "grid": {"n_cells": "32"},
                "scenario": {
                    "name": "full_dynamic",
                    "mu_minus": "1.0, 0.5", "mu_plus": "1.0, 0.5",
                    "nu_minus": "1.0, 0.5", "nu_plus": "1.0, 0.5",
                },
                "scheme": {"dt": "0.0001", "t_end": "5.0", "record_every": "1"},
                "source": {"kind": "sinusoid", "block": "V1", "frequency": "2.0", "phase": "0.0"},
                "initial": {"kind": "random", "amplitude": "0.1", "seed": "1"},
            },
            draw=_draw_full_dynamic,
            quick={"grid": {"n_cells": "8"}, "scheme": {"t_end": "0.05"}},
        ),
        Workload(
            name="converge_mms",
            command="converge",
            base={"grid": {"n_cells": "64"}, "scenario": {"name": "timoshenko_damped", "c": "0.5"}},
            draw=_draw_mms,
            levels=(64, 128, 256, 512),
            quick_levels=(8, 16, 32),
        ),
    )
}


# ---------------------------------------------------------------------------
# reading CLI output


def _key_values(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def observe(workload: Workload, stdout: str, csv_path: Path) -> dict:
    """Parse one run's output into the form ``references.json`` stores."""
    if workload.command == "check":
        return {"lines": _key_values(stdout)}
    if workload.command == "converge":
        errors, slope = {}, None
        for line in stdout.splitlines():
            if line.startswith("level="):
                level, _, err = line.partition(" error=")
                errors[level.removeprefix("level=")] = float(err)
            elif line.startswith("slope="):
                slope = float(line.removeprefix("slope="))
        return {"errors": errors, "slope": slope}
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    stride = max(1, math.ceil(len(rows) / REFERENCE_ROWS))
    return {
        "header": header,
        "n_rows": len(rows),
        "stride": stride,
        "rows": rows[::stride] + ([rows[-1]] if (len(rows) - 1) % stride else []),
        "abs_sums": [math.fsum(abs(r[j]) for r in rows) for j in range(len(header))],
        "finite": all(math.isfinite(v) for r in rows for v in r),
        "last_t": rows[-1][0] if rows else None,
    }


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float, rtol: float, scale: float | None = None) -> bool:
    return abs(a - b) <= rtol * (abs(b) if scale is None else scale)


def _invariants(workload: Workload, sections: Sections, obs: dict, levels: tuple[int, ...]) -> list[str]:
    if workload.command == "check":
        lines = obs["lines"]
        if set(lines) != {"c0", "rho0", "bound", "skew_defect", "nevanlinna"}:
            return [f"check printed keys {sorted(lines)}"]
        problems = []
        if float(lines["skew_defect"]) != 0.0:
            problems.append(f"skew_defect={lines['skew_defect']} is not exactly 0")
        if lines["nevanlinna"] != "pass":
            problems.append(f"nevanlinna={lines['nevanlinna']}")
        c0, rho0, bound = (float(lines[k]) for k in ("c0", "rho0", "bound"))
        if not all(math.isfinite(v) and v > 0 for v in (c0, rho0, bound)):
            problems.append(f"c0, rho0, bound not finite and positive: {c0}, {rho0}, {bound}")
        elif not _close(bound * c0, 1.0, RTOL):
            problems.append(f"bound {bound} is not 1/c0 for c0={c0}")
        return problems
    if workload.command == "converge":
        errors = obs["errors"]
        if list(errors) != [str(n) for n in sorted(levels)]:
            return [f"converge levels {list(errors)}"]
        problems = []
        if not all(math.isfinite(e) and e > 0 for e in errors.values()):
            problems.append(f"errors not finite and positive: {errors}")
        if obs["slope"] is None or not obs["slope"] >= MIN_SLOPE:
            problems.append(f"slope {obs['slope']} below {MIN_SLOPE}")
        return problems
    scheme = sections["scheme"]
    dt, t_end = float(scheme["dt"]), float(scheme["t_end"])
    expected_rows = math.floor(t_end / dt + 1e-9) // int(scheme["record_every"]) + 1
    problems = []
    if obs["header"][:2] != ["t", "energy"]:
        problems.append(f"csv header {obs['header']}")
    if obs["n_rows"] != expected_rows:
        problems.append(f"csv has {obs['n_rows']} rows, expected {expected_rows}")
    if not obs["finite"]:
        problems.append("csv holds a non-finite value")
    if obs["last_t"] is None or not _close(obs["last_t"], t_end, 1e-12):
        problems.append(f"last time {obs['last_t']} is not t_end={t_end}")
    return problems


def _against_reference(workload: Workload, obs: dict, ref: dict) -> list[str]:
    if workload.command == "check":
        got, want = obs["lines"], ref["lines"]
        return [
            f"{k}={got[k]}, reference {want[k]}"
            for k, rtol in (("c0", RTOL), ("bound", RTOL), ("rho0", RHO0_RTOL))
            if not _close(float(got[k]), float(want[k]), rtol)
        ]
    if workload.command == "converge":
        problems = [
            f"level {n} error {obs['errors'].get(n)}, reference {e}"
            for n, e in ref["errors"].items()
            if n not in obs["errors"] or not _close(obs["errors"][n], e, RTOL)
        ]
        if not _close(obs["slope"], ref["slope"], RTOL):
            problems.append(f"slope {obs['slope']}, reference {ref['slope']}")
        return problems
    if obs["header"] != ref["header"] or obs["n_rows"] != ref["n_rows"] or obs["stride"] != ref["stride"]:
        return [f"csv shape {obs['header']} x {obs['n_rows']}, reference {ref['header']} x {ref['n_rows']}"]
    # each column is compared relative to its largest reference magnitude
    scales = [max(abs(r[j]) for r in ref["rows"]) for j in range(len(ref["header"]))]
    problems = []
    for i, (got, want) in enumerate(zip(obs["rows"], ref["rows"])):
        bad = [h for h, a, b, s in zip(ref["header"], got, want, scales) if not _close(a, b, RTOL, s)]
        if bad:
            problems.append(f"reference row {i}: columns {bad} differ beyond rtol {RTOL}")
            break
    for h, a, b in zip(ref["header"], obs["abs_sums"], ref["abs_sums"]):
        if not _close(a, b, RTOL):
            problems.append(f"column {h}: sum of |values| {a}, reference {b}")
    return problems


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_output(
    workload: Workload,
    sections: Sections,
    returncode: int,
    stdout: str,
    csv_path: Path,
    reference: dict | None,
    quick: bool = False,
) -> list[str]:
    """Problems with one CLI run; empty when the run is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    levels = workload.quick_levels if quick else workload.levels
    try:
        obs = observe(workload, stdout, csv_path)
        problems = _invariants(workload, sections, obs, levels)
        if reference is not None and not problems:
            problems = _against_reference(workload, obs, reference)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
    return problems
