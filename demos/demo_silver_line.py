"""One-dimensional tour: the silver-mean chain and its twisted sibling.

Walks through the full pipeline on the line, where everything can be
cross-checked against closed forms: exact field arithmetic, window
intervals, cocycle amplitudes, Bragg peaks, the density-preserving shape
change, and the slower intensity decay of the Cantorval-window model.

Run:  python3 demos/demo_silver_line.py  (writes SVG/CSV next to itself)
"""

import math
import pathlib

import numpy as np

from tilediff import (amplitude_at, analytic_silver, builtin, hull_intervals,
                      iterate_windows, module_point, peak_list, peaks_to_csv,
                      render_windows, window_volume_from_patch)
from tilediff.diffraction import mean_log_intensity

OUT = pathlib.Path(__file__).resolve().parent
S2 = math.sqrt(2)
LAM = 1 + S2

silver = builtin("silver")
twisted = builtin("silver_twisted")

print("== windows ==")
hulls = hull_intervals(silver)
print(f"interval windows: W_a = [{hulls[0][0]:+.9f}, {hulls[0][1]:+.9f}], "
      f"W_b = [{hulls[1][0]:+.9f}, {hulls[1][1]:+.9f}]")
print(f"  (exact endpoints: sqrt2/2 - 1 = {S2/2-1:+.9f}, sqrt2/2 = {S2/2:+.9f})")
for model, label in ((silver, "silver"), (twisted, "twisted")):
    vol = window_volume_from_patch(model)
    print(f"{label:8s} total window volume from patch density: {vol:.8f} "
          f"(1 + sqrt2 = {LAM:.8f})")

render_windows(iterate_windows(silver, 20), OUT / "silver_windows.svg",
               model=silver)
render_windows(iterate_windows(twisted, 24), OUT / "twisted_windows.svg",
               model=twisted, zoom=(0.0, 0.4))
print("wrote silver_windows.svg, twisted_windows.svg (zoom strip included)")

print("\n== amplitudes: cocycle vs closed forms ==")
ev = silver.evaluator
ks = np.linspace(-5, 5, 11)
H = np.column_stack([ev.amplitude_batch(ks.reshape(-1, 1), n=30, weights=e)
                     for e in np.eye(ev.n)])
ha, hb = analytic_silver(ks)
print("max |cocycle - closed form| over k in [-5,5]:",
      float(np.max(np.abs(H - np.column_stack([ha, hb])))))

print("\n== Bragg peaks on [0, 5] ==")
for model, label in ((silver, "silver"), (twisted, "twisted")):
    peaks = peak_list(model, center=[2.5], radius=2.5, threshold=1e-3, n=20)
    peaks_to_csv(peaks, OUT / f"{label}_peaks.csv")
    print(f"{label:8s}: {len(peaks)} peaks with I >= 1e-3; central "
          f"I = {peaks[0].intensity:.6f} (density^2 = {model.density**2:.6f})")

print("\n== shape change to equal tile lengths ==")
d = silver.deformations["equal-lengths"]
for m in (1, 2, 3):
    k = module_point(silver.lattice, (m, m))
    a = amplitude_at(silver, k, "equal", d, n=30)
    print(f"  k = {m}(2+sqrt2)/4: amplitude {a.real:+.9f}{a.imag:+.9f}j "
          f"(expect (lam+1)/4 = {(LAM+1)/4:.9f})")
k_off = module_point(silver.lattice, (2, -1))
print("  off the coarse sublattice:",
      abs(amplitude_at(silver, k_off, 'equal', d, n=30)))

print("\n== decay comparison over k in [50, 100] ==")
a = mean_log_intensity(silver, 50, 100, n=20)
b = mean_log_intensity(twisted, 50, 100, n=20)
print(f"mean log I: silver {a:.3f}, twisted {b:.3f} "
      f"(the fractal-boundary window decays more slowly)")
