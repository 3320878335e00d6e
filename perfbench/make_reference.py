"""Regenerate ``reference.json``, the recorded counts the gates compare with.

Run from the repository root:  python3 perfbench/make_reference.py

For every radius level a seed can pick, it records the peak and module
point counts, and it prints the smallest relative distance of any swept
intensity from the 1e-6 threshold: a count is only a stable reference when
no intensity sits within rounding of the threshold.  Regenerate only when
the definition of a workload changes, never to make a gate pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tilediff  # noqa: E402
from tilediff import cps, diffraction, windows  # noqa: E402

from workloads import LEVELS, REFERENCE, jittered  # noqa: E402

THRESHOLD = 1e-6


def sweep(model, radius, n, deformation=None):
    """Count of kept peaks and the threshold margin of the whole sweep."""
    every = diffraction.peak_list(model, radius=radius, threshold=1e-300, n=n,
                                  deformation=deformation)
    inten = np.array([p.intensity for p in every])
    margin = float(np.min(np.abs(inten / THRESHOLD - 1.0)))
    return int(np.sum(inten >= THRESHOLD)), margin, len(every)


def main() -> int:
    ref = {
        "cap-spectrum": {"radius": 0.6, "levels": {}},
        "casper-support": {"radius": 0.5, "internal_cutoff": 3.0, "levels": {}},
        "cap-window": {"generations": 12, "resolution": 8},
        "silver-line": {"radius": 50.0, "n": 30, "steps": 12, "weyl_pool": 30,
                        "levels": {}},
    }
    cap = tilediff.builtin("cap")
    casper = tilediff.builtin("casper_scaffold")
    silver = tilediff.builtin("silver")
    twisted = tilediff.builtin("silver_twisted")
    for level in LEVELS:
        r = jittered(ref["cap-spectrum"]["radius"], level)
        eq, m_eq, pts = sweep(cap, r, cap.default_iters)
        hat, m_hat, _ = sweep(cap, r, cap.default_iters, "hat")
        ref["cap-spectrum"]["levels"][str(level)] = {
            "module_points": pts, "peaks_equal": eq, "peaks_hat": hat}
        print(f"cap r={r:.4f}: {pts} points, {eq} / {hat} peaks, "
              f"threshold margins {m_eq:.3g} / {m_hat:.3g}", flush=True)

        r = jittered(ref["casper-support"]["radius"], level)
        n_casper = len(cps.enumerate_module(casper.lattice, np.zeros(2), r, 3.0))
        ref["casper-support"]["levels"][str(level)] = {"module_points": n_casper}
        print(f"casper r={r:.4f}: {n_casper} points", flush=True)

        r = jittered(ref["silver-line"]["radius"], level)
        s, m_s, _ = sweep(silver, r, 30)
        t, m_t, _ = sweep(twisted, r, 30, "equal-lengths")
        ref["silver-line"]["levels"][str(level)] = {"peaks_silver": s, "peaks_twisted": t}
        print(f"silver r={r:.3f}: {s} / {t} peaks, threshold margins "
              f"{m_s:.3g} / {m_t:.3g}", flush=True)

    cloud = windows.iterate_windows(cap, ref["cap-window"]["generations"],
                                    resolution=ref["cap-window"]["resolution"])
    ref["cap-window"]["cells_per_type"] = [len(c) for c in cloud.cells]
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
