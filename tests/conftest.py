import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, title): marks a test as an acceptance criterion check"
    )
    config._acceptance_results = {}


@pytest.fixture
def rng():
    """Seeded generator for randomized property tests (override via EVOBEAM_SEED)."""
    return np.random.default_rng(int(os.environ.get("EVOBEAM_SEED", "20260825")))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, title = marker.args
    entry = item.config._acceptance_results.setdefault(num, {"title": title, "ok": True})
    if rep.when == "call" and not rep.passed:
        entry["ok"] = False
    if rep.when == "setup" and (rep.failed or rep.skipped):
        entry["ok"] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        entry = results[num]
        verdict = "PASS" if entry["ok"] else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict}  {entry['title']}")


def pytest_sessionfinish(session, exitstatus):
    # a criterion that did not pass fails a run that would otherwise pass
    results = getattr(session.config, "_acceptance_results", {})
    if exitstatus == pytest.ExitCode.OK and not all(e["ok"] for e in results.values()):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
