"""Run one evobeam CLI command in this process, with spans around module calls.

Usage: python traced.py SPANS_JSON -- CLI_ARGS...

Each public function is wrapped where its caller looks it up (``cli`` imports
``factor``, ``run``, ``coercivity`` and ``find_rho0`` by name; ``integrate``
imports ``energy`` and ``symmetric_part``), so nothing under ``src/`` changes.
Spans (name, start, end, parent) stay in memory and are written to SPANS_JSON
when the command has finished. The CLI's own output goes to stdout as usual;
the last stdout line is one JSON object of per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute looked up by the caller, span name)
WRAPPED = [
    ("evobeam.cli", "main", "cli.main"),
    ("evobeam.cli", "parse_config", "cli.parse"),
    ("evobeam.cli", "cmd_check", "cli.cmd_check"),
    ("evobeam.cli", "cmd_run", "cli.cmd_run"),
    ("evobeam.cli", "cmd_converge", "cli.cmd_converge"),
    ("evobeam.cli", "make_timoshenko_damped", "scenarios.build"),
    ("evobeam.cli", "make_dynamic_inertia", "scenarios.build"),
    ("evobeam.cli", "make_full_dynamic", "scenarios.build"),
    ("evobeam.cli", "make_sturm_liouville", "scenarios.build"),
    ("evobeam.cli", "consistent_initial_state", "scenarios.init"),
    ("evobeam.cli", "manufactured_source", "scenarios.mms"),
    ("evobeam.cli", "exact_state", "scenarios.mms"),
    ("evobeam.scenarios", "exact_state", "scenarios.mms"),
    ("evobeam.scenarios", "assemble_A_timoshenko", "discretize.assemble"),
    ("evobeam.scenarios", "assemble_A_tilde", "discretize.assemble"),
    ("evobeam.scenarios", "assemble_skew", "discretize.assemble"),
    ("evobeam.cli", "skew_defect", "discretize.skew_defect"),
    ("evobeam.cli", "coercivity", "wellposed.coercivity"),
    ("evobeam.cli", "find_rho0", "wellposed.find_rho0"),
    ("evobeam.cli", "nevanlinna_check", "wellposed.nevanlinna"),
    ("evobeam.integrate", "symmetric_part", "wellposed.symmetric_part"),
    ("evobeam.cli", "factor", "integrate.factor"),
    ("evobeam.cli", "run", "integrate.run"),
    ("evobeam.integrate", "step", "integrate.step"),
    ("evobeam.integrate", "energy", "core.energy"),
]

# Per-layer metrics this run reports, with units. The benchmark driver adds
# trace.overhead_frac and cli.csv_bytes, which need the parent's view.
UNITS = {
    "cli.main_s": "s",
    "cli.parse_s": "s",
    "cli.output_s": "s",
    "scenarios.build_s": "s",
    "scenarios.build_calls": "count",
    "scenarios.mms_s": "s",
    "scenarios.init_s": "s",
    "discretize.assemble_s": "s",
    "discretize.skew_defect_s": "s",
    "wellposed.find_rho0_s": "s",
    "wellposed.coercivity_s": "s",
    "wellposed.eig_calls": "count",
    "wellposed.eig_dim_max": "count",
    "wellposed.symmetric_part_s": "s",
    "wellposed.nevanlinna_s": "s",
    "integrate.factor_s": "s",
    "integrate.factor_calls": "count",
    "integrate.nnz_lu": "count",
    "integrate.step_s": "s",
    "integrate.step_calls": "count",
    "integrate.step_us_p50": "us",
    "integrate.run_self_s": "s",
    "core.energy_s": "s",
    "core.energy_calls": "count",
}


class Tracer:
    """Spans as (name, start, end, parent index); parent -1 is the root."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open: list[int] = []
        self.eig_calls = 0
        self.eig_dim_max = 0
        self.nnz_lu: list[int | None] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_eig(self, fn):
        def counted(a, *args, **kwargs):
            self.eig_calls += 1
            self.eig_dim_max = max(self.eig_dim_max, len(a))
            return fn(a, *args, **kwargs)

        return counted

    def record_lu(self, system):
        self.nnz_lu.append(lu_nnz(system))

    @contextmanager
    def installed(self):
        """Wrap every WRAPPED function that exists; restore them on exit."""
        import numpy as np

        saved = [(np.linalg, "eigvalsh", np.linalg.eigvalsh)]
        np.linalg.eigvalsh = self.count_eig(np.linalg.eigvalsh)
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            on_result = self.record_lu if span == "integrate.factor" else None
            setattr(module, attr, self.wrap(span, fn, on_result))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def metrics(self) -> dict[str, float | int | None]:
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        child_time = defaultdict(float)
        for _, (_, start, end, parent) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _) in spans:
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        steps = [end - start for _, (name, start, end, _) in spans if name == "integrate.step"]
        # largest factor of the run; None when a factor's LU was not found
        nnz = None if None in self.nnz_lu else max(self.nnz_lu, default=0)
        return {
            "cli.main_s": total["cli.main"],
            "cli.parse_s": total["cli.parse"],
            "cli.output_s": self_time["cli.cmd_run"],
            "scenarios.build_s": total["scenarios.build"],
            "scenarios.build_calls": calls["scenarios.build"],
            "scenarios.mms_s": total["scenarios.mms"],
            "scenarios.init_s": total["scenarios.init"],
            "discretize.assemble_s": total["discretize.assemble"],
            "discretize.skew_defect_s": total["discretize.skew_defect"],
            "wellposed.find_rho0_s": total["wellposed.find_rho0"],
            "wellposed.coercivity_s": total["wellposed.coercivity"],
            "wellposed.eig_calls": self.eig_calls,
            "wellposed.eig_dim_max": self.eig_dim_max,
            "wellposed.symmetric_part_s": total["wellposed.symmetric_part"],
            "wellposed.nevanlinna_s": total["wellposed.nevanlinna"],
            "integrate.factor_s": total["integrate.factor"],
            "integrate.factor_calls": calls["integrate.factor"],
            "integrate.nnz_lu": nnz,
            "integrate.step_s": total["integrate.step"],
            "integrate.step_calls": calls["integrate.step"],
            "integrate.step_us_p50": statistics.median(steps) * 1e6 if steps else 0.0,
            "integrate.run_self_s": self_time["integrate.run"],
            "core.energy_s": total["core.energy"],
            "core.energy_calls": calls["core.energy"],
        }


def lu_nnz(system) -> int | None:
    """nnz(L) + nnz(U) over the LU factors held by a factored system.

    Looks through the system's attributes (and lists or tuples of them) for
    objects with sparse ``L`` and ``U``, as SuperLU has; None when there is
    none, so a change of factor internals reads as missing, not as a failure.
    """
    found = []
    for value in getattr(system, "__dict__", {}).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            L, U = getattr(item, "L", None), getattr(item, "U", None)
            if hasattr(L, "nnz") and hasattr(U, "nnz"):
                found.append(L.nnz + U.nnz)
    return sum(found) if found else None


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 4
    spans_path, cli_args = argv[0], argv[2:]
    cli = importlib.import_module("evobeam.cli")
    tracer = Tracer()
    with tracer.installed():
        code = cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"missing": tracer.missing, "spans": tracer.spans}, fh, separators=(",", ":"))
    if tracer.missing:
        print(f"traced: not found, not traced: {', '.join(tracer.missing)}", file=sys.stderr)
    print(json.dumps(tracer.metrics()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
