"""Every demo script runs to completion.

Each script is copied to a temporary directory first, since the demos
write their SVG/CSV files next to themselves.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    shutil.copy(script, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TILEDIFF_CASPR_DATA", None)
    proc = subprocess.run([sys.executable, script.name], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
