"""Self-test of the benchmark itself. Usage: python3 perfbench/selftest.py

- The metric names and units the benchmark prints are those in BENCHMARK.json.
- At quick size, every workload runs correctly under --trace 0 and --trace 1,
  and two traced runs give identical counts.
- The output checks reject outputs that are wrong.
- Without the package next to it, the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import DEFAULT_SEED, WORKLOADS, check_output, load_references

COUNTS = (
    "wellposed.eig_calls",
    "scenarios.build_calls",
    "integrate.factor_calls",
    "integrate.step_calls",
    "core.energy_calls",
    "integrate.nnz_lu",
    "cli.csv_bytes",
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(name: str, trace: int, cwd: Path = run.ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=cwd,
    )
    return done.returncode, done.stdout


def result(name: str, trace: int) -> dict:
    code, stdout = bench(name, trace)
    expect(code == 0, f"{name} trace {trace}: exit code {code}")
    summary = json.loads(stdout.strip().splitlines()[-1])
    expect(summary["correct"] and summary["failed"] == 0, f"{name} trace {trace}: correct, none failed")
    return summary


def check_keys() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS, "end_to_end names and units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS, "per_layer names and units")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")


def check_runs() -> None:
    for name in WORKLOADS:
        e2e = result(name, 0)["metrics"]
        expect(list(e2e) == list(run.E2E_UNITS), f"{name}: end-to-end keys")
        expect(all(m["value"] > 0 for m in e2e.values()), f"{name}: end-to-end values positive")
        first, second = result(name, 1)["metrics"], result(name, 1)["metrics"]
        expect(list(first) == list(run.PER_LAYER_UNITS), f"{name}: per-layer keys")
        differ = [k for k in COUNTS if first[k]["value"] != second[k]["value"]]
        expect(not differ, f"{name}: two traced runs give identical counts {differ or ''}")


def check_checks(tmp: Path) -> None:
    refs = load_references()
    check = WORKLOADS["check_n256"]
    lines = dict(refs["check_n256"]["lines"])
    good = "".join(f"{k}={v}\n" for k, v in lines.items())
    csv = tmp / "none.csv"
    expect(not check_output(check, {}, 0, good, csv, refs["check_n256"]), "reference check output passes")
    expect(bool(check_output(check, {}, 2, good, csv, refs["check_n256"])), "non-zero exit fails")
    for key, value in (("c0", "6.0001e-1"), ("skew_defect", "1e-17"), ("nevanlinna", "fail")):
        bad = good.replace(f"{key}={lines[key]}", f"{key}={value}")
        expect(bool(check_output(check, {}, 0, bad, csv, refs["check_n256"])), f"check output with {key}={value} fails")

    conv = WORKLOADS["converge_mms"]
    ref = refs["converge_mms"]
    text = "".join(f"level={n} error={ref['errors'][str(n)]!r}\n" for n in conv.levels)
    expect(not check_output(conv, {}, 0, text + f"slope={ref['slope']!r}\n", csv, ref), "reference converge output passes")
    expect(bool(check_output(conv, {}, 0, text + "slope=1.85\n", csv, None)), "slope below 1.9 fails")

    fd = WORKLOADS["run_n32_full_dynamic"]
    sections = fd.sections(DEFAULT_SEED, quick=True)
    csv.write_text("t,energy\n0.0,1.0\n0.0001,1.0\n")
    expect(bool(check_output(fd, sections, 0, "", csv, None, quick=True)), "csv short of t_end fails")


def check_bare(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, stdout = bench("check_n256", 0, cwd=bare)
    expect(code != 0 and '"correct"' not in stdout, "without the package: non-zero exit, no result")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tmp = run.OUT / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        check_keys()
        check_checks(tmp)
        check_bare(tmp)
        check_runs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
