"""The benchmark harness's self-test passes: each gate passes on the
library's own outputs and fires on broken data.

A library change that breaks a gate of ``perfbench/run.py`` (the product
path, the periodicity residual, the peak counts) then fails here too.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_self_test():
    tmp = ROOT / ".perfbench_tmp"     # the self-test's scratch, git-ignored
    existed = tmp.exists()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=300)
    finally:
        if not existed and tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1].endswith("as expected")
