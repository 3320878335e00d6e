"""Window galleries: intervals, Cantorvals, and the fractal hexagon.

Iterates the internal contraction maps for every model with displacement
data, renders the per-type windows, and reports volumes against the
density metadata.

Run:  python3 demos/demo_windows.py  (writes SVGs next to itself)
"""

import pathlib

from tilediff import builtin, iterate_windows, render_windows, volume
from tilediff.windows import (CAP_BOUNDARY_DIM, TWISTED_BOUNDARY_DIM,
                              window_volume_from_patch)

OUT = pathlib.Path(__file__).resolve().parent

print(f"documented boundary dimensions: twisted {TWISTED_BOUNDARY_DIM:.5f}, "
      f"cap {CAP_BOUNDARY_DIM:.7f}\n")

for name, gens, res in (("silver", 22, None), ("silver_twisted", 26, None),
                        ("cap", 12, 8)):
    model = builtin(name)
    cloud = iterate_windows(model, gens, resolution=res)
    v, bracket = volume(cloud)
    out = OUT / f"windows_{name}.svg"
    render_windows(cloud, out, model=model,
                   zoom=(0.0, 0.4) if name == "silver_twisted" else None)
    line = (f"{name:15s} generation {cloud.generation:2d}: cell-count volume "
            f"{v:8.4f} (+- {bracket:.4f})")
    if name == "silver_twisted":
        # cover estimates cannot converge on a Cantorval boundary; the
        # patch-density identity gives the true value
        line += f"; patch-density volume {window_volume_from_patch(model):.6f}"
    if name == "cap":
        line += (f"; density x covolume check: "
                 f"{model.lattice.density * (v - bracket/2):.6f} "
                 f"vs {model.density:.6f}")
    print(line)
    print(f"  wrote {out.name}")
