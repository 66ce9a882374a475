"""Record references.json: each workload's parsed output at the default seed.

Usage: python3 perfbench/record_references.py [WORKLOAD ...]

Run this only on the commit whose outputs are the reference (the package
before any optimisation); the benchmark compares every later default-seed run
with what it writes, at the tolerances stated in workloads.py.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import OUT, SRC, THREAD_ENV, spawn
from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS, observe


def record(name: str, tmp: Path) -> dict:
    wl = WORKLOADS[name]
    _, cfg, csv_path = wl.write_config(DEFAULT_SEED, tmp)
    sample = spawn([sys.executable, "-m", "evobeam", *wl.argv(cfg)], tmp)
    if sample.returncode != 0:
        raise SystemExit(f"{name}: exit code {sample.returncode}")
    obs = observe(wl, sample.stdout, csv_path)
    if wl.command == "run":
        # the invariants are checked on every run; the reference keeps values
        del obs["finite"], obs["last_t"]
    return obs


def main(names: list[str]) -> int:
    os.environ.update(THREAD_ENV, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names or sorted(WORKLOADS):
        with tempfile.TemporaryDirectory(dir=OUT, prefix="record-") as tmp:
            refs[name] = record(name, Path(tmp))
        print(f"recorded {name}")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
