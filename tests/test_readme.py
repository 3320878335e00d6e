"""Every ```python block of README.md runs to completion, and every
``tilediff`` line of its command-line block exits as documented.

Each python block runs in its own interpreter from a temporary directory,
with the library on PYTHONPATH, and each command line runs in process
through ``cli.main``, so neither the library tour nor the command lines
can drift from the code.
"""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from tilediff import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README,
                    flags=re.MULTILINE | re.DOTALL)
COMMANDS = [shlex.split(line, comments=True) for block in
            re.findall(r"^```sh\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
            for line in block.splitlines() if line.startswith("tilediff ")]


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


def test_readme_commands_found():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[1:]) for a in COMMANDS])
def test_readme_command_runs(argv, tmp_path, capsys, monkeypatch):
    """Exit 0, except the casper line: its --data file is not bundled."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv[1:])
    err = capsys.readouterr().err
    if "casper.json" in argv:
        assert code == 1 and "i/o error" in err
    else:
        assert code == 0, err
