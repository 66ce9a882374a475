"""Benchmark of the evobeam CLI: wall time, set-up time and peak memory.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from any directory; the package under test is the ``src/`` next to this
directory. The load is a closed loop with one client: one
``python -m evobeam ...`` child at a time, each started after the previous one
has exited, until ``--seconds`` have passed. The workload's INI config is
generated from ``--seed`` into a temporary directory under ``.perfbench_out/``,
where the CLI also writes its CSV, and every run's output is checked.

--trace 0 reports the end-to-end metrics, each the median over the runs:
    wall_s       spawn to exit of the CLI child, interpreter start included
    setup_s      spawn to exit of a child that imports evobeam.cli and calls
                 parse_config on the config (median of SETUP_REPS children)
    peak_rss_mb  peak resident memory of the CLI child, from its own rusage
The two times are scaled to a fixed machine speed with calibrate.py (see
CAL_REF_S); the raw times are printed and kept in the result file.
--trace 1 runs the CLI untraced as above and then once under ``traced.py``,
and reports the per-layer metrics of that traced run.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A fuller record (provenance, every sample, the config) goes to
``.perfbench_out/result-<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import traced
from workloads import DEFAULT_SEED, WORKLOADS, check_output, config_text, load_references

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# OpenBLAS otherwise starts a thread per core; one thread is the plain
# single-threaded baseline and gave the steadiest times.
BLAS_THREADS = 1
THREAD_ENV = {k: str(BLAS_THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPS = 3
# On a VM that shares its host, CPU speed wanders (10-35 % over tens of seconds
# on a 2-vCPU x86_64 VM). Every timed child therefore runs between two runs of
# calibrate.py, and its time is scaled by CAL_REF_S over their mean: the time at
# the machine speed at which calibrate.py takes CAL_REF_S (its median on that
# VM). The raw times are kept in the result file.
CAL_REF_S = 0.88
# A child still running after this is killed and counted as failed, so that
# one run always ends within the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**traced.UNITS, "cli.csv_bytes": "bytes", "trace.overhead_frac": "ratio"}

SETUP_CODE = "import sys\nfrom evobeam.cli import parse_config\nparse_config(open(sys.argv[1]).read())\n"


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    cal_s: float = CAL_REF_S  # mean calibration time around this child

    @property
    def scaled_s(self) -> float:
        return self.wall_s * CAL_REF_S / self.cal_s


def spawn(argv: list[str], cwd: Path) -> Sample:
    """Run one child to completion; time it from spawn to exit."""
    out_path = cwd / "stdout.txt"
    with open(out_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait for the exit without reaping, so the kill above can only
            # ever hit this child (a zombie keeps its pid)
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        # the child's own rusage; RUSAGE_CHILDREN would be a running maximum
        # over every child so far
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text())


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _l3_bytes() -> int | None:
    try:
        done = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True)
        return int(done.stdout.strip())
    except (OSError, ValueError):
        return None


def provenance() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "machine": platform.machine(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    wl = WORKLOADS[name]
    reference = None if quick or seed != DEFAULT_SEED else load_references()[name]
    OUT.mkdir(exist_ok=True)
    py = sys.executable
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"tmp-{name}-") as tmp_name:
        tmp = Path(tmp_name)
        sections, cfg, csv_path = wl.write_config(seed, tmp, quick)
        cli_args = wl.argv(cfg, quick)
        problems: list[str] = []
        attempted = failed = 0

        def record(kind: str, found: list[str]) -> None:
            nonlocal attempted, failed
            attempted += 1
            failed += bool(found)
            problems.extend(f"{kind} run {attempted}: {p}" for p in found)

        cals: list[float] = []

        def calibrate() -> None:
            cal = spawn([py, str(HERE / "calibrate.py")], tmp)
            if cal.returncode != 0:
                raise RuntimeError(f"calibrate.py exited with {cal.returncode}")
            cals.append(cal.wall_s)

        def timed(argv: list[str]) -> Sample:
            """Run a child between this calibration run and the next."""
            sample = spawn(argv, tmp)
            calibrate()
            sample.cal_s = (cals[-2] + cals[-1]) / 2
            return sample

        calibrate()

        def cli_run(argv: list[str]) -> Sample:
            csv_path.unlink(missing_ok=True)  # each run's check reads its own CSV
            return timed(argv)

        def check_cli(sample: Sample) -> list[str]:
            return check_output(wl, sections, sample.returncode, sample.stdout, csv_path, reference, quick)

        start = time.perf_counter()
        setups = [] if trace else [timed([py, "-c", SETUP_CODE, str(cfg)]) for _ in range(SETUP_REPS)]
        for s in setups:
            record("setup", [] if s.returncode == 0 else [f"exit code {s.returncode}"])
        # in trace mode, leave room for the traced run after the last untraced one
        reserve = 2 if trace else 1
        runs = []
        while True:
            runs.append(cli_run([py, "-m", "evobeam", *cli_args]))
            record("cli", check_cli(runs[-1]))
            if time.perf_counter() - start + reserve * (runs[-1].wall_s + cals[-1]) > seconds:
                break
        wall = statistics.median(s.wall_s for s in runs)
        if trace:
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            csv_path.unlink(missing_ok=True)
            t = spawn([py, str(HERE / "traced.py"), str(spans_path), "--", *cli_args], tmp)
            # the CLI's own lines, then one line of metrics
            t.stdout, _, metrics_line = t.stdout.rstrip("\n").rpartition("\n")
            try:
                layer = json.loads(metrics_line)
            except ValueError:
                layer = dict.fromkeys(traced.UNITS)
                found = [f"printed no metrics: {metrics_line[-200:]!r}"]
            else:
                found = check_cli(t)
            record("traced", found)
            layer["cli.csv_bytes"] = csv_path.stat().st_size if csv_path.exists() else 0
            layer["trace.overhead_frac"] = t.wall_s / wall - 1.0
            values = {k: layer.get(k) for k in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
        else:
            values = {
                "wall_s": statistics.median(s.scaled_s for s in runs),
                "setup_s": statistics.median(s.scaled_s for s in setups),
                "peak_rss_mb": statistics.median(s.peak_rss_mb for s in runs),
            }
            units = E2E_UNITS
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "config": config_text(sections),
        "argv": ["python", "-m", "evobeam", *wl.argv(Path("workload.cfg"), quick)],
        "load": "closed loop, 1 client",
        "provenance": provenance(),
        "samples": {
            "calibrate_s": cals,
            "wall_s": [s.wall_s for s in runs],
            "peak_rss_mb": [s.peak_rss_mb for s in runs],
            "setup_s": [s.wall_s for s in setups],
        },
        "problems": problems,
        "summary": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "evobeam" / "__init__.py").is_file():
        print(f"perfbench: no evobeam package under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(THREAD_ENV, PYTHONPATH=str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    summary = result["summary"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {result['load']}, "
          f"BLAS threads {BLAS_THREADS}, medians of {len(result['samples']['wall_s'])} CLI runs"
          f" and {len(result['samples']['setup_s'])} set-up runs")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(f"  fail_frac {summary['failed'] / summary['attempted']:.3g} "
          f"({summary['failed']} of {summary['attempted']} runs)")
    for key, metric in summary["metrics"].items():
        print(f"  {key} {metric['value']} {metric['unit']}")
    for key in ("wall_s", "setup_s"):
        raw = result["samples"][key]
        if raw:
            print(f"  raw {key} {statistics.median(raw)} s (median of {len(raw)}, unscaled)")
    print(f"  provenance {json.dumps(result['provenance'])}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
