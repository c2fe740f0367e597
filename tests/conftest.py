"""Shared pytest wiring.

Collects the outcome of each test_criterion_* function in the acceptance
gate and prints one PASS/FAIL line per criterion in the terminal summary,
fixes the one hypothesis profile the property tests run under, and gives
the child interpreters that some CLI tests start this checkout's `src/`.
"""

import os
import re
from pathlib import Path

import pytest
from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Examples derive from each test's name, so every run draws the same ones;
# no per-example deadline, since run time swings on a loaded host; and a
# bounded count keeps the suite's run time flat.
settings.register_profile(
    "symfree", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("symfree")


@pytest.fixture(autouse=True)
def _children_import_this_checkout(monkeypatch):
    # pytest's `pythonpath` reaches only this process; `python -m symfree`
    # run as a child needs src/ on PYTHONPATH as well.
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    monkeypatch.setenv("PYTHONPATH", path)


_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")
_results: dict[int, tuple[str, bool]] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    desc = m.group(2).replace("_", " ")
    already_failed = _results.get(num, ("", False))[1]
    _results[num] = (desc, already_failed or report.outcome != "passed")


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        desc, failed = _results[num]
        status = "FAIL" if failed else "PASS"
        terminalreporter.write_line(f"CRITERION {num}: {status} - {desc}")
