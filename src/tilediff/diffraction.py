"""Bragg amplitudes, intensities, deformations, peaks, and oracles.

Amplitudes at Fourier-module points come from the internal cocycle; the
deformed variants evaluate the same window transforms at the shifted
argument ``k_int - D^T k_phys``.  Closed-form interval-window amplitudes
and finite-patch Weyl sums provide two independent cross-checks.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .algebra import Surd, read_only
from .cps import (ModulePoint, ModuleSet, Row, enumerate_module, float_arguments,
                  internal_argument, row_keys)
from .inflation import TypedPointSet
from .models import DeformationMap, ModelSpec, sixfold_shift
from .svg import SvgCanvas, format_distinct

__all__ = [
    "Peak", "PeakTable", "weight_vector", "amplitude_at", "analytic_silver",
    "weyl_sum", "peak_list", "deformation_from_lengths", "symmetry_report",
    "SymmetryGroupReport", "periodicity_residual", "mean_log_intensity",
    "peaks_to_csv", "peaks_to_json", "peaks_to_svg",
]

_SILVER_LAMBDA = 1.0 + math.sqrt(2.0)

# peaks whose intensities agree to this relative tolerance are tied
_TIE_RTOL = 1e-12


class Peak(Row, namedtuple("Peak", "k deformation amplitude intensity n_iters")):
    """One Bragg peak, at the module point ``k`` (a ``ModulePoint``): the
    deformation name or None, the complex ``amplitude``, the float
    ``intensity`` |amplitude|^2 and ``n_iters``.  Compares on all five
    fields (see ``cps.Row``)."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class PeakTable:
    """The peaks of one request as columns, in peak order: the kept module
    ``points``, the ``deformation`` name, ``n_iters`` and the read-only
    ``amplitude`` (complex) and ``intensity`` arrays.  An int index and
    iteration give ``Peak``s, built on demand; a slice or index array gives
    a ``PeakTable``."""

    points: ModuleSet
    deformation: str | None
    n_iters: int
    amplitude: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        read_only(self.amplitude)
        read_only(self.intensity)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return map(Peak._make, zip(self.points, repeat(self.deformation),
                                   self.amplitude.tolist(), self.intensity.tolist(),
                                   repeat(self.n_iters)))

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Peak._make((self.points[index], self.deformation,
                               self.amplitude[index].item(),
                               self.intensity[index].item(), self.n_iters))
        return PeakTable(self.points[index], self.deformation, self.n_iters,
                         self.amplitude[index], self.intensity[index])

    @cached_property
    def _fields(self) -> tuple:
        """The fields the CSV and the JSON share, one list of strings per
        column: the module coordinates joined by commas, then kx, ky, re_amp,
        im_amp and intensity, each distinct float formatted once with %.17g
        (``svg.format_distinct``); ky is the literal 0 in 1d."""
        def g17(x):
            return format_distinct(x, "%.17g".__mod__)

        coords = zip(*(map(str, c) for c in self.points.coords.T.tolist()))
        kx, *ky = self.points.k_phys.T
        return (list(map(",".join, coords)), g17(kx),
                g17(ky[0]) if ky else ["0"] * len(self), g17(self.amplitude.real),
                g17(self.amplitude.imag), g17(self.intensity))


def weight_vector(model: ModelSpec, spec) -> np.ndarray:
    """Resolve a weight specification to one complex weight per tile type.

    ``"equal"`` gives all ones.  ``"zero-central"`` gives the canonical
    extinction weights: (sqrt2, -1) for the silver models and the
    per-shape vector (0, 0, tau, -1) for cap.  A sequence of length
    n_tiles is taken as is; for a model with orientations, a sequence of
    one weight per shape is replicated across its orientations.  ValueError is
    raised when (density sum_i |w_i|)^2, which bounds every intensity and
    every step of the cocycle sweep, is not finite.
    """
    n = model.n_tiles
    if isinstance(spec, str):
        if spec == "equal":
            return np.ones(n, dtype=complex)
        if spec == "zero-central":
            if model.field.name == "silver":
                return np.array([math.sqrt(2.0), -1.0], dtype=complex)
            if model.name == "cap":
                return weight_vector(model, (0.0, 0.0, (1 + math.sqrt(5)) / 2, -1.0))
            raise ValueError(f"no zero-central preset for model {model.name!r}")
        raise ValueError(f"unknown weight preset {spec!r}")
    w = np.asarray(spec, dtype=complex)
    if model.orientations and w.size * model.orientations == n:
        w = np.repeat(w, model.orientations)
    if w.shape != (n,):
        shapes = f" (or {n // model.orientations} per-shape weights)" \
            if model.orientations else ""
        raise ValueError(f"weight vector must have length {n}{shapes}")
    with np.errstate(over="ignore"):
        bound = (model.density * np.abs(w).sum()) ** 2
    if not np.isfinite(bound):
        raise ValueError(f"weights too large or not finite: "
                         f"(density * sum |w_i|)^2 = {bound}")
    return w


def amplitude_at(model: ModelSpec, k: ModulePoint, weights="equal",
                 deformation: DeformationMap | None = None,
                 n: int | None = None) -> complex:
    """Total Fourier-Bohr amplitude at one module point."""
    w = weight_vector(model, weights)
    arg = internal_argument(k, deformation)
    return complex(model.evaluator.amplitude_batch(arg[None, :], n, weights=w)[0])


def analytic_silver(k_int: float) -> tuple:
    """Closed-form interval-window amplitudes (H_a, H_b) for silver."""
    lam = _SILVER_LAMBDA
    k = np.asarray(k_int, dtype=float)
    ha = math.sqrt(2.0) / 4.0 * np.exp(1j * np.pi * k * (lam - 2.0)) * np.sinc(k)
    hb = 0.5 * np.exp(-2j * np.pi * k) * np.sinc(k * (lam - 1.0))
    return ha, hb


def weyl_sum(patch: TypedPointSet, k_phys, weights, region_measure: float) -> complex:
    """Volume-averaged exponential sum over a finite patch.

    ``region_measure`` (finite, > 0) is the measure of the region the patch
    covers (length in 1d, area in 2d); the caller controls truncation.
    """
    if not 0 < region_measure < math.inf:     # NaN too
        raise ValueError(f"region_measure must be finite and > 0, got {region_measure}")
    if not len(patch):
        raise ValueError("empty patch")
    k = np.atleast_1d(np.asarray(k_phys, dtype=float))
    if k.shape != (patch.field.dim,):
        raise ValueError(f"k_phys must have shape ({patch.field.dim},), got {k.shape}")
    pos = patch.positions_phys()
    w = np.asarray(weights, dtype=complex)[patch.tile_types]
    phases = pos @ k
    return complex(np.sum(w * np.exp(-2j * np.pi * phases)) / region_measure)


def _rotation(x) -> np.ndarray:
    """Exact matrix of z -> x*z on the plane, an object array of :class:`Surd`."""
    a, b = x.embed_phys_exact()
    return np.array(((a, -b), (b, a)), dtype=object)


def _orbit_action(model: ModelSpec, center, w: np.ndarray,
                  deformation: DeformationMap | None) -> np.ndarray:
    """Int64 action on dual coordinates of the exact symmetry that fixes a
    peak request; the identity when there is none.

    Multiplication by xi fixes the total amplitude when the model has six
    orientations, acts linearly (so the contraction commutes with xi) and
    its displacement satisfies the exact sixfold identity; the centre is
    exactly 0; the weights are sigma-invariant; and the deformation, if
    any, satisfies D^T xi_phys == xi_int D^T exactly, with xi_int the
    physical embedding of xi.star().
    """
    identity = np.eye(model.lattice.rank, dtype=np.int64)
    if model.orientations != 6 or model.antilinear or np.any(center):
        return identity
    disp = model.require_displacement()
    if disp.sixfold_violations or not np.array_equal(w[sixfold_shift(disp.n)], w):
        return identity
    xi = model.field.gen("xi")
    if deformation is not None:
        DT = np.array(deformation.rows, dtype=object).T
        if not np.array_equal(DT @ _rotation(xi), _rotation(xi.star()) @ DT):
            return identity
    R = model.lattice.dual_action(xi)
    return identity if R is None else R


def _orbit_representatives(points, action: np.ndarray, friedel: bool = False,
                           deformation=None) -> tuple:
    """Classes of the module points ``points`` under the cyclic group
    generated by ``action`` (coordinates map as ``c @ action.T``) and, with
    ``friedel``, by -1: (reps, inverse, conj).

    A point's keys are those of its images (``LatticeBasis.argument_keys``)
    under each group element g, the powers of ``action`` first, then their
    negatives.  ``reps`` holds the module coordinates of one image per
    class, the one with the smallest key, in lexicographic key order, and
    ``reps[inverse]`` is the representative of each point.  ``conj`` marks
    the points that only -1 takes to their representative; they take the
    conjugate of its total.  Since argmin keeps the first smallest key, a
    point that a power of ``action`` takes there is never conjugated, also
    where L maps a power and a negative to one key, and -1 adds nothing
    when it is a power of ``action``.
    """
    eye = np.eye(len(action), dtype=np.int64)
    group, power = [eye], action
    while not np.array_equal(power, eye):
        group.append(power)
        power = power @ action
    plain = len(group)
    if friedel and not any(np.array_equal(g, -eye) for g in group):
        group += [-g for g in group]
    images = points.lattice.argument_keys(points.coords, deformation, group)
    # row keys ascend in lexicographic row order; argmin takes the first
    # smallest image, so a power of ``action`` wins a tie with its negative
    flat = row_keys(images.T)[0].reshape(len(group), len(points))
    which = flat.argmin(axis=0)
    _, first, inverse = np.unique(flat.min(axis=0), return_index=True,
                                  return_inverse=True)
    reps = (np.array(group)[which[first]] @ points.coords[first, :, None])[:, :, 0]
    return reps, inverse, which >= plain


def peak_list(model: ModelSpec, center=None, radius: float = 1.0,
              internal_cutoff: float | None = None, threshold: float = 1e-6,
              weights="equal", deformation: DeformationMap | str | None = None,
              n: int | None = None) -> PeakTable:
    """All Bragg peaks with intensity >= threshold in a physical ball, as
    a :class:`PeakTable`.

    Deterministic: peaks are sorted by descending intensity, and each
    peak whose intensity lies within a relative ``_TIE_RTOL`` of the
    previous one joins its group.  Groups (class members whose
    intensities agree, or agree up to rounding) are ordered
    lexicographically in module coordinates, so the order does not
    depend on the summation order of the kernel.

    The cocycle runs once per exact amplitude class (see
    ``_orbit_representatives``): once per orbit of the exact group that
    fixes the request, xi on module coordinates for CAP
    (``_orbit_action``) and -1 with conjugation for real weights at a
    centre of 0 (Friedel's law), with each image keyed by its argument
    coordinates where the deformation's arguments form a lattice, so
    points with one argument share a class.  A class is swept at the
    argument of its representative (``ModuleSet.arguments``).  Every row
    carries its class total, conjugated where only -1 reaches its
    representative: bitwise what the full sweep gives at
    the representative's argument.  The conjugate of an exact +0
    imaginary part is -0, which the exporters write as ``-0``.

    The sweep is the weighted one with the threshold as its floor (see
    ``FourierEvaluator.amplitude_batch``): a point stops as soon as a
    rigorous bound on its total proves it below the threshold, and every
    kept peak carries the unpruned weighted total.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    if center is None:
        center = np.zeros(model.dim)
    if internal_cutoff is None:
        internal_cutoff = model.internal_cutoff
    if n is None:
        n = model.default_iters
    if isinstance(deformation, str):
        deformation = model.deformations[deformation]
    w = weight_vector(model, weights)
    name = deformation.name if deformation is not None else None
    pts = enumerate_module(model.lattice, center, radius, internal_cutoff)
    if not len(pts):
        return PeakTable(pts, name, n, np.zeros(0, complex), np.zeros(0))
    # one sweep per class; each row takes its class total
    action = _orbit_action(model, center, w, deformation)
    # Friedel's law: at centre 0 with real weights, -q sweeps to q's conjugate
    friedel = not np.any(center) and not np.any(w.imag)
    reps, inverse, conj = _orbit_representatives(pts, action, friedel, deformation)
    args = model.lattice.points(reps).arguments(deformation)
    totals = model.evaluator.amplitude_batch(args, n, weights=w,
                                             floor=threshold)[inverse]
    np.conjugate(totals, out=totals, where=conj)
    intensities = np.abs(totals) ** 2
    kept = np.flatnonzero(intensities >= threshold)
    order = kept[np.argsort(-intensities[kept], kind="stable")]
    I = intensities[order]
    gap = np.zeros(len(I), dtype=bool)
    gap[1:] = I[:-1] - I[1:] > _TIE_RTOL * I[:-1]
    # np.lexsort's last key is primary: tie group, then coordinates
    order = order[np.lexsort(np.vstack([pts.coords[order].T[::-1],
                                        np.cumsum(gap)]))]
    return PeakTable(pts[order], name, n, totals[order], intensities[order])


def deformation_from_lengths(ell_a, ell_b) -> DeformationMap:
    """Silver shape change from exact tile lengths (density-preserving).

    Requires ell_a + sqrt2 * ell_b == 2 sqrt2 exactly and positive
    lengths; returns the scalar deformation D = 1 - ell_a/sqrt2.
    """
    a = ell_a if isinstance(ell_a, Surd) else Surd.rational(ell_a)
    b = ell_b if isinstance(ell_b, Surd) else Surd.rational(ell_b)
    s2 = Surd.root(2)
    if a + s2 * b != s2 * 2:
        raise ValueError("lengths must satisfy ell_a + sqrt2*ell_b = 2*sqrt2 exactly")
    if a.sign() <= 0 or b.sign() <= 0:
        raise ValueError("degenerate deformation: tile lengths must be positive")
    d = Surd.rational(1) - a / s2
    return DeformationMap(name="from-lengths", rows=((d,),))


@dataclass
class SymmetryGroupReport:
    """Intensity discrepancies under a point-group action on the peaks."""

    group: str
    max_discrepancy: float
    n_matched: int
    unmatched: list

    @property
    def ok(self) -> bool:
        return not self.unmatched and self.max_discrepancy < 1e-8


def _group_matrix(group: str) -> np.ndarray:
    if group == "rotation6":
        c, s = 0.5, math.sqrt(3.0) / 2.0
        return np.array([[c, -s], [s, c]])
    if group == "mirror":
        return np.array([[1.0, 0.0], [0.0, -1.0]])
    raise ValueError(f"unknown group {group!r}")


def symmetry_report(peaks: PeakTable, group: str) -> SymmetryGroupReport:
    """Compare peak intensities against their image under a group action.

    Peaks are matched by nearest physical k within 1e-9, among the peaks
    within 1e-9 in kx (bisection in kx order).  Unmatched orbit members are
    reported and their intensity counts toward the discrepancy (their
    partner fell below the run threshold).
    """
    G = _group_matrix(group)
    if not len(peaks):
        return SymmetryGroupReport(group, 0.0, 0, [])
    K, I = peaks.points.k_phys, peaks.intensity
    if K.shape[1] != 2:
        raise ValueError("symmetry groups act on planar peak sets")
    mapped = K @ G.T
    by_x = np.argsort(K[:, 0], kind="stable")
    lo, hi = (np.searchsorted(K[by_x, 0], mapped[:, 0] + dx, side)
              for dx, side in ((-1e-9, "left"), (1e-9, "right")))
    # one (image, peak) pair per candidate, the images in order
    count = hi - lo
    image = np.repeat(np.arange(len(K)), count)
    start = np.cumsum(count) - count    # the first pair of each image
    peak = by_x[np.arange(len(image)) + np.repeat(lo - start, count)]
    dist = np.linalg.norm(mapped[image] - K[peak], axis=1)
    near = dist <= 1e-9
    image, peak, dist = image[near], peak[near], dist[near]
    # the nearest peak per image, the lower index on a tie
    first = np.lexsort((peak, dist, image))
    image, at = np.unique(image[first], return_index=True)
    gap = I.copy()      # an unmatched peak counts with its whole intensity
    gap[image] = np.abs(I[image] - I[peak[first[at]]])
    unmatched = np.setdiff1d(np.arange(len(K)), image)
    return SymmetryGroupReport(group, float(gap.max()), len(image),
                               list(peaks[unmatched]))


def periodicity_residual(model: ModelSpec, deformation: DeformationMap | str,
                         weights="equal", n_samples: int = 50,
                         n: int | None = None, seed: int = 0) -> float:
    """Max |I(k+p) - I(k)| over the period generators p of the deformation
    (``LatticeBasis.periods``, derived from its rows) and ``n_samples`` >= 1
    random k in [-6, 6]^rank, at the float formula ``cps.float_arguments``."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if isinstance(deformation, str):
        deformation = model.deformations[deformation]
    period_coords = model.lattice.periods(deformation).coords
    if not len(period_coords):
        raise ValueError(f"deformation {deformation.name!r} has no periods")
    w = weight_vector(model, weights)
    rng = np.random.default_rng(seed)
    rank = model.lattice.rank
    base = rng.integers(-6, 7, size=(n_samples, rank))
    # the base sample and each of its period shifts, in one sweep
    coords = np.concatenate([base] + [base + pc for pc in period_coords])
    args = float_arguments(model.lattice.points(coords), deformation)
    I = np.abs(model.evaluator.amplitude_batch(args, n, weights=w)) ** 2
    I = I.reshape(len(period_coords) + 1, n_samples)
    return float(np.max(np.abs(I[1:] - I[0])))


def mean_log_intensity(model: ModelSpec, k_lo: float, k_hi: float,
                       n: int | None = None) -> float:
    """Mean log-intensity over module points with k_phys in [k_lo, k_hi],
    within the model's ``internal_cutoff``, at equal weights.

    Near-extinctions, intensities <= 1e-25, are excluded, and ValueError
    is raised when no point is left; used to compare decay rates between
    models sharing a Fourier module (1d only).
    """
    if model.dim != 1:
        raise ValueError("decay comparison is for 1d models")
    w = weight_vector(model, "equal")
    center = np.array([(k_lo + k_hi) / 2.0])
    pts = enumerate_module(model.lattice, center, (k_hi - k_lo) / 2.0,
                           model.internal_cutoff)
    I = np.abs(model.evaluator.amplitude_batch(pts.arguments(), n,
                                               weights=w)) ** 2
    I = I[I > 1e-25]
    if not len(I):
        raise ValueError(f"no module point in [{k_lo}, {k_hi}] above 1e-25")
    return float(np.mean(np.log(I)))


# ---------------------------------------------------------------------------
# Output formats

def peaks_to_csv(peaks: PeakTable, path) -> None:
    """CSV with header c1,c2,c3,c4,kx,ky,re_amp,im_amp,intensity,n_iters.

    c3,c4 stay empty for rank-2 modules; ky is 0 for 1d models.
    """
    pad, n = "," * (5 - peaks.points.coords.shape[1]), peaks.n_iters
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("c1,c2,c3,c4,kx,ky,re_amp,im_amp,intensity,n_iters\n")
        fh.writelines([f"{c}{pad}{x},{y},{re},{im},{i},{n}\n"
                       for c, x, y, re, im, i in zip(*peaks._fields)])


def peaks_to_json(peaks: PeakTable, path) -> None:
    """JSON mirror of the CSV records, with identical float formatting."""
    name, n = json.dumps(peaks.deformation), peaks.n_iters
    rows = [f'{{"coords":[{c}],"deformation":{name},"kx":{x},"ky":{y},'
            f'"re_amp":{re},"im_amp":{im},"intensity":{i},"n_iters":{n}}}'
            for c, x, y, re, im, i in zip(*peaks._fields)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("[\n" + ",\n".join(rows) + "\n]\n")


def peaks_to_svg(peaks: PeakTable, path) -> None:
    """Scatter plot, disk area proportional to intensity (brightest: radius 9)."""
    if not len(peaks):
        SvgCanvas((0, 0, 1, 1)).write(path)
        return
    K = np.zeros((len(peaks), 2))   # y is 0 in 1d
    K[:, :peaks.points.k_phys.shape[1]] = peaks.points.k_phys
    I = peaks.intensity
    pad = 0.05 * max(float(np.ptp(K[:, 0])), float(np.ptp(K[:, 1])), 1e-9)
    canvas = SvgCanvas((K[:, 0].min() - pad, K[:, 1].min() - pad,
                        K[:, 0].max() + pad, K[:, 1].max() + pad))
    canvas.circles(K[:, 0], K[:, 1], 9.0 * np.sqrt(I / I.max()))
    canvas.write(path)
