"""Smoke test of the narrative demos: each runs on the public API, prints,
and prints the same bytes when run again."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, timeout=120)


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_and_reruns_identically(path):
    first = run_demo(path)
    assert first.returncode == 0, first.stderr
    assert first.stdout.strip()
    assert run_demo(path).stdout == first.stdout
