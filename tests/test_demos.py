"""Each demo script runs to completion against the package in ``src/`` and
prints, byte for byte, the output pinned under ``tests/data/demos/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "data" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the demo runs under the same -O level as the tests, so both print
    # the pinned bytes
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, str(demo)],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
