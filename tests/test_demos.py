"""Every demo script runs to completion against the library as it is."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import subselect

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_0(script):
    package_root = str(Path(subselect.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
