"""Smoke test: every narrative script in ``demos/`` runs to completion.

Each demo runs in a fresh interpreter from a temporary working directory
holding a copy of ``scenarios/``, so the tables it writes under
``demos/out/`` stay out of the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_collected():
    # an empty parametrization would pass silently
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(tmp_path, demo):
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    child = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert child.returncode == 0, child.stderr[-2000:]
