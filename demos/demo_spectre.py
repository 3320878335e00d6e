"""The CASPr/Spectre scaffold: exact lattice layer, optional data layer.

Everything that does not need the displacement matrix runs out of the
box: the quartic field, the rank-4 lattice with |det B| = 3645, the dual
(Fourier-module) generators, and the three deformation targets with
the period lattices derived from their matrices.  Supplying a displacement JSON file as the first
argument (or via TILEDIFF_CASPR_DATA) unlocks the diffraction sweep.

Run:  python3 demos/demo_spectre.py [displacement.json]
"""

import math
import os
import pathlib
import sys

import numpy as np

from tilediff import builtin, load_displacement, peak_list, peaks_to_svg
from tilediff.diffraction import periodicity_residual

OUT = pathlib.Path(__file__).resolve().parent
S3, S5, S15 = math.sqrt(3), math.sqrt(5), math.sqrt(15)

casper = builtin("casper_scaffold")
lat = casper.lattice

print("== exact lattice layer ==")
print(f"|det B|^2 = {lat.gram_det} (so the lattice density is 1/{lat.covolume:.0f})")
print("dual generator physical projections (columns):")
print(np.array2string(lat.dual_columns[:2, :], precision=10))

# the first generator of each (Lagrange-reduced) period basis is a shortest one
p_ht = lat.periods(casper.deformations["ht"]).k_phys[0]
lam = 4 + S15
print(f"\nht period length: {np.linalg.norm(p_ht):.12f} "
      f"= sqrt((4*lam+5)/405) = {math.sqrt((4*lam+5)/405):.12f}")
hexp = lat.periods(casper.deformations["hex"]).k_phys[0]
print(f"hex period length: {np.linalg.norm(hexp):.12f} "
      f"= sqrt15/45 = {S15/45:.12f}")
print(f"documented squared density: {casper.density**2:.12g} "
      f"= (31 - 8 sqrt15)/972 = {(31-8*S15)/972:.12g}")
print(f"documented window volume: {float(casper.window_volume):.6f} "
      f"= 135/2 (4 sqrt3 - 3 sqrt5)")

path = sys.argv[1] if len(sys.argv) > 1 else os.environ.get("TILEDIFF_CASPR_DATA")
if not path:
    print("\nno displacement file supplied; the diffraction layer stays locked.")
    print("expected JSON schema: {\"field\": \"spectre\", \"n\": 54 or 30, "
          "\"entries\": [[[[num,den] x4, ...] ...]]}")
    sys.exit(0)

print(f"\n== diffraction layer (data: {path}) ==")
model = casper.with_displacement(load_displacement(path))
print(f"loaded {model.n_tiles} tile types; "
      f"PF eigenvalue checks out against 4 + sqrt15")
peaks = peak_list(model, radius=0.5, threshold=1e-9, weights="equal", n=15)
print(f"{len(peaks)} peaks; brightest {peaks[0].intensity:.9g} "
      f"(expect (31 - 8 sqrt15)/972 = {(31-8*S15)/972:.9g})")
peaks_to_svg(peaks, OUT / "casper_equal.svg")
for name in ("hex", "ht", "spectre"):
    deformed = peak_list(model, radius=0.5, threshold=1e-9, weights="equal",
                         deformation=name, n=10)
    peaks_to_svg(deformed, OUT / f"casper_{name}.svg")
    line = f"{name:8s}: {len(deformed)} peaks"
    if len(lat.periods(casper.deformations[name])):
        resid = periodicity_residual(model, name, "equal", n_samples=20, n=25)
        line += f"; lattice-periodic, residual {resid:.3g}"
    print(line)
