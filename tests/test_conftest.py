"""The acceptance report of conftest decides the exit status of a run."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "body,code,verdict",
    [("pytest.skip('criterion down')", 1, "FAIL"), ("assert True", 0, "PASS")],
    ids=["skipped-fails-the-run", "passed-passes-the-run"],
)
def test_a_criterion_that_does_not_pass_fails_the_run(tmp_path, body, code, verdict):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_criterion.py").write_text(
        "import pytest\n\n\n"
        "@pytest.mark.acceptance(13, 'a criterion')\n"
        f"def test_criterion():\n    {body}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert f"criterion 13: {verdict}  a criterion" in proc.stdout.splitlines()
