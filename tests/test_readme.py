"""Every ```python block of README.md runs to completion.

Each block runs in its own interpreter from a temporary directory, with
the library on PYTHONPATH, so the library tour cannot drift from the API.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_blocks_found():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TILEDIFF_CASPR_DATA", None)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
