"""Correctness gates of the benchmark.

Each gate compares one output of tilediff with a reference that the timed
code path does not produce: a closed form, an exact integer identity, the
full cocycle product, an independent geometric check, or a count recorded
in ``reference.json`` (see ``make_reference.py``).  Gates are pure
functions of the outputs, so the self-test can feed them broken data and
check that each one fires.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class PeakTable:
    """A peak list as written by ``peaks_to_csv``."""

    coords: np.ndarray      # (N, rank) int64
    k_phys: np.ndarray      # (N, 2) float
    amplitude: np.ndarray   # (N,) complex
    intensity: np.ndarray   # (N,) float

    def __len__(self):
        return len(self.intensity)

    def drop(self, row: int) -> "PeakTable":
        keep = np.arange(len(self)) != row
        return PeakTable(self.coords[keep], self.k_phys[keep],
                         self.amplitude[keep], self.intensity[keep])

    def scaled(self, row: int, factor: float) -> "PeakTable":
        amp = self.amplitude.copy()
        amp[row] *= factor
        inten = self.intensity.copy()
        inten[row] = abs(amp[row]) ** 2
        return PeakTable(self.coords, self.k_phys, amp, inten)


def read_peak_csv(path) -> PeakTable:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rank = sum(1 for c in ("c1", "c2", "c3", "c4") if rows and rows[0][c] != "")
    coords = np.array([[int(r[f"c{i + 1}"]) for i in range(rank)] for r in rows],
                      dtype=np.int64).reshape(len(rows), rank)
    k = np.array([[float(r["kx"]), float(r["ky"])] for r in rows]).reshape(-1, 2)
    amp = np.array([complex(float(r["re_amp"]), float(r["im_amp"])) for r in rows])
    inten = np.array([float(r["intensity"]) for r in rows])
    return PeakTable(coords, k, amp, inten)


def equal(name: str, got, want) -> Gate:
    return Gate(name, got == want, f"got {got}, expected {want}")


def below(name: str, value: float, limit: float) -> Gate:
    return Gate(name, bool(value < limit), f"{value:.3g} < {limit:g}")


def identical(name: str, digests: list) -> Gate:
    """Outputs of every iteration are byte-identical to the first."""
    same = all(d == digests[0] for d in digests)
    return Gate(name, bool(digests) and same,
                f"{len(set(digests))} distinct digest(s) over {len(digests)} iterations")


def central_intensity(name: str, peaks: PeakTable, density: float,
                      tol: float = 1e-10) -> Gate:
    """The k = 0 peak carries the squared point density."""
    origin = np.flatnonzero(np.all(peaks.coords == 0, axis=1))
    if origin.size != 1:
        return Gate(name, False, f"{origin.size} origin rows")
    err = abs(float(peaks.intensity[origin[0]]) - density ** 2)
    return Gate(name, err <= tol, f"|I(0) - density^2| = {err:.3g} <= {tol:g}")


def sixfold(name: str, peaks: PeakTable, match_tol: float = 1e-9,
            intensity_tol: float = 1e-8) -> Gate:
    """Every peak rotated by 60 degrees is a peak of the same intensity.

    Written independently of ``tilediff.symmetry_report`` with the same
    tolerances: an unmatched image or an intensity change fails.
    """
    c, s = 0.5, math.sqrt(3.0) / 2.0
    K = peaks.k_phys
    rotated = K @ np.array([[c, -s], [s, c]]).T
    order = np.argsort(K[:, 0])
    xs = K[order, 0]
    unmatched, worst = 0, 0.0
    for i, (x, y) in enumerate(rotated):
        lo, hi = np.searchsorted(xs, [x - match_tol, x + match_tol])
        cand = order[lo:hi]
        d = np.hypot(K[cand, 0] - x, K[cand, 1] - y)
        if d.size and d.min() <= match_tol:
            j = cand[int(np.argmin(d))]
            worst = max(worst, abs(float(peaks.intensity[i] - peaks.intensity[j])))
        else:
            unmatched += 1
    return Gate(name, unmatched == 0 and worst < intensity_tol,
                f"{unmatched} unmatched, max |dI| {worst:.3g}")


def amplitudes_close(name: str, got, want, tol: float, relative: bool = True) -> Gate:
    got, want = np.asarray(got, complex), np.asarray(want, complex)
    if got.shape != want.shape or got.size == 0:
        return Gate(name, False, f"shape {got.shape} vs reference {want.shape}")
    err = np.abs(got - want) / (np.abs(want) if relative else 1.0)
    kind = "relative" if relative else "absolute"
    return Gate(name, float(err.max()) <= tol,
                f"max {kind} error {float(err.max()):.3g} <= {tol:g}")


def module_points_valid(name: str, coords: np.ndarray, dual_columns: np.ndarray,
                        radius: float, cutoff: float, eps: float = 1e-9) -> Gate:
    """Enumerated points are distinct and lie in the requested cylinder."""
    d = dual_columns.shape[0] // 2
    vec = coords.astype(float) @ dual_columns.T
    r_phys = np.linalg.norm(vec[:, :d], axis=1)
    r_int = np.linalg.norm(vec[:, d:], axis=1)
    inside = bool(np.all(r_phys <= radius + eps) and np.all(r_int <= cutoff + eps))
    distinct = len(np.unique(coords, axis=0)) == len(coords)
    return Gate(name, inside and distinct,
                f"inside {inside}, distinct {distinct}, {len(coords)} points")


def window_cells(name: str, counts: list, reference: list) -> Gate:
    bad = [i for i, (a, b) in enumerate(zip(counts, reference)) if a != b]
    ok = len(counts) == len(reference) and not bad
    return Gate(name, ok, f"{sum(counts)} cells; types differing: {bad}")


def window_density(name: str, vol: float, bracket: float, lattice_density: float,
                   density: float, rel_tol: float = 0.02) -> Gate:
    """Window volume times lattice density is the point density."""
    got = lattice_density * (vol - bracket / 2.0)
    rel = abs(got - density) / density
    return Gate(name, rel < rel_tol, f"relative error {rel:.3g} < {rel_tol:g}")


def column_sum_of_power(M, steps: int, column: int) -> int:
    """Column sum of M**steps in exact integers: points of an inflated tile."""
    n = len(M)
    vec = [int(i == column) for i in range(n)]
    for _ in range(steps):
        vec = [sum(int(M[i][j]) * vec[j] for j in range(n)) for i in range(n)]
    return sum(vec)
