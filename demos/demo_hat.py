"""The CAP tiling and its reprojection to the Hat.

Runs the structural checks (exact sixfold conjugation of the
displacement data, Fourier-matrix symmetry), sweeps the Bragg peaks in
the centred ball of radius 0.6 for both canonical weight choices, and
then applies the hat deformation, whose diffraction is lattice-periodic.

Run:  python3 demos/demo_hat.py  (writes SVG/CSV next to itself)
"""

import pathlib

import numpy as np

from tilediff import builtin, peak_list, peaks_to_csv, peaks_to_svg, \
    symmetry_report, validate_symmetry
from tilediff.diffraction import periodicity_residual

OUT = pathlib.Path(__file__).resolve().parent
cap = builtin("cap")

print("== structural checks ==")
rep = validate_symmetry(cap)
print(f"exact sixfold conjugation of the displacement sets: "
      f"{'ok' if not rep.exact_violations else rep.exact_violations}")
print(f"Fourier-matrix symmetry residual over {rep.n_sampled} samples: "
      f"{rep.max_numeric_residual:.3g}")

print("\n== equal weights: the self-similar CAP pattern ==")
peaks = peak_list(cap, radius=0.6, threshold=1e-6, weights="equal", n=15)
print(f"{len(peaks)} peaks; central intensity {peaks[0].intensity:.9f} "
      f"(squared density {cap.density**2:.9f})")
ring = [p for p in peaks if not p.k.is_origin()]
print(f"second-brightest intensity {ring[0].intensity:.3e} at "
      f"|k| = {np.linalg.norm(ring[0].k.k_phys):.6f}, an orbit of "
      f"{sum(abs(p.intensity - ring[0].intensity) < 1e-12 for p in ring)} peaks")
print("sixfold symmetry discrepancy:",
      symmetry_report(peaks, "rotation6").max_discrepancy)
peaks_to_svg(peaks, OUT / "cap_equal.svg")
peaks_to_csv(peaks, OUT / "cap_equal.csv")

print("\n== extinction weights (0, 0, tau, -1): chirality becomes visible ==")
peaks0 = peak_list(cap, radius=0.6, threshold=1e-9, weights="zero-central",
                   n=15)
print(f"{len(peaks0)} peaks; the central peak is extinguished "
      f"(no origin entry: {all(not p.k.is_origin() for p in peaks0)})")
print("sixfold discrepancy:",
      symmetry_report(peaks0, "rotation6").max_discrepancy)
print("mirror discrepancy (broken):",
      symmetry_report(peaks0, "mirror").max_discrepancy)
peaks_to_svg(peaks0, OUT / "cap_zero_central.svg")

print("\n== hat deformation: lattice-periodic diffraction ==")
hat = cap.deformations["hat"]
resid = periodicity_residual(cap, hat, "equal", n_samples=30, n=30)
gens = cap.lattice.periods(hat).k_phys      # derived from the rows of D
print(f"period generators {gens[0].round(9)} and {gens[1].round(9)}; "
      f"max |I(k+p) - I(k)| = {resid:.3g}")
hat_peaks = peak_list(cap, radius=0.6, threshold=1e-6, weights="equal",
                      deformation="hat", n=15)
peaks_to_svg(hat_peaks, OUT / "hat_equal.svg")
print(f"{len(hat_peaks)} deformed peaks written to hat_equal.svg")
