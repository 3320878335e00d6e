"""Self-test: every gate passes on real outputs and fires on broken ones.

Runs one iteration of the cap-spectrum, cap-window and silver-line
workloads, checks that all their gates pass, then feeds the gates a
perturbed peak list, a window cloud with one cell dropped and a patch
count that is off by one, and requires each to be reported as a failure.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

import gates as G
from workloads import CapSpectrum, CapWindow, SilverLine, load_reference


def _run(workload):
    for _, command in workload.commands():
        command()
    return workload


def self_test() -> int:
    results = []

    def expect(label, gate_list, should_pass):
        failed = [g.name for g in gate_list if not g.ok]
        ok = not failed if should_pass else bool(failed)
        results.append(ok)
        verdict = "ok  " if ok else "FAIL"
        want = "all gates pass" if should_pass else "a gate fires"
        print(f"{verdict} {label}: expected {want}; failing gates: {failed or 'none'}")

    ref = load_reference()
    saved = os.environ.get("TILEDIFF_OUTDIR")
    tmp_root = Path(__file__).resolve().parent.parent / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        os.environ["TILEDIFF_OUTDIR"] = tmp
        try:
            cap = _run(CapSpectrum(0, Path(tmp), ref))
            equal, hat = cap.load()
            expect("cap-spectrum outputs", cap.gates((equal, hat)), True)
            expect("peak list, one amplitude scaled by 1+1e-8",
                   cap.gates((equal.scaled(3, 1 + 1e-8), hat)), False)
            origin = int(np.flatnonzero(np.all(equal.coords == 0, axis=1))[0])
            expect("peak list, central amplitude scaled by 1+1e-6",
                   cap.gates((equal.scaled(origin, 1 + 1e-6), hat)), False)
            expect("peak list, one peak dropped", cap.gates((equal.drop(7), hat)), False)

            window = _run(CapWindow(0, Path(tmp), ref))
            counts = [len(c) for c in window.cloud.cells]
            expect("cap-window outputs", window.gates(counts), True)
            dropped = [len(window.cloud.cells[0][1:])] + counts[1:]
            expect("window cloud, one cell dropped", window.gates(dropped), False)

            silver = _run(SilverLine(0, Path(tmp), ref))
            expect("silver-line outputs", silver.gates(), True)
            expect("patch count off by one",
                   silver.gates(patch_points=len(silver.patch) - 1), False)
        finally:
            if saved is None:
                os.environ.pop("TILEDIFF_OUTDIR", None)
            else:
                os.environ["TILEDIFF_OUTDIR"] = saved
    expect("digests of two iterations differ", [G.identical("digest", ["a", "b"])], False)
    print(f"self-test: {sum(results)}/{len(results)} as expected")
    return 0 if all(results) else 1
