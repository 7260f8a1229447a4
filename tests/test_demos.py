"""Every demo script runs to completion with the test suite's warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the filterwarnings of pyproject.toml, as flags of the interpreter
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                      "-W", "error::FutureWarning"]


def test_demos_are_present():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
