import os
from pathlib import Path

# the commands and demos that tests run as child processes import the package under test too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion at the end of a run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], outcome))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(rows):
        mark = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{mark}  {name}")
