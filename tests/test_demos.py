"""Every demo script runs to completion against the current package."""

import os
import pathlib
import subprocess
import sys

import pytest

import reachlab

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    # an empty glob would parametrize to nothing and pass silently
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(reachlab.__file__))
    out = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
