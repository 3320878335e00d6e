"""Bragg amplitudes, intensities, deformations, peaks, and oracles.

Amplitudes at Fourier-module points come from the internal cocycle; the
deformed variants evaluate the same window transforms at the shifted
argument ``k_int - D^T k_phys``.  Closed-form interval-window amplitudes
and finite-patch Weyl sums provide two independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Surd, _mat_mul
from .cocycle import FourierEvaluator
from .cps import ModulePoint, enumerate_module, internal_argument
from .inflation import TypedPointSet
from .models import DeformationMap, ModelSpec, sixfold_shift
from .svg import SvgCanvas
from .windows import row_keys

__all__ = [
    "Peak", "weight_vector", "amplitude_at", "analytic_silver", "weyl_sum",
    "peak_list", "deformation_from_lengths", "symmetry_report",
    "SymmetryGroupReport", "periodicity_residual", "mean_log_intensity",
    "peaks_to_csv", "peaks_to_json", "peaks_to_svg",
]

_SILVER_LAMBDA = 1.0 + math.sqrt(2.0)

# peaks whose intensities agree to this relative tolerance are tied
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class Peak:
    """One Bragg peak; intensity is |amplitude|^2."""

    k: ModulePoint
    deformation: str | None
    amplitude: complex
    intensity: float
    n_iters: int


def weight_vector(model: ModelSpec, spec) -> np.ndarray:
    """Resolve a weight specification to one complex weight per tile type.

    ``"equal"`` gives all ones.  ``"zero-central"`` gives the canonical
    extinction weights: (sqrt2, -1) for the silver models and the
    per-shape vector (0, 0, tau, -1) for cap.  A sequence of length
    n_tiles is taken as is; a sequence of length n_tiles/orientations is
    replicated across the orientations of each shape.
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
    if w.shape == (n,):
        return w
    if model.orientations and w.size * model.orientations == n:
        return np.repeat(w, model.orientations)
    raise ValueError(f"weight vector must have length {n} "
                     f"(or {n}//orientations for per-shape weights)")


def amplitude_at(model: ModelSpec, k: ModulePoint, weights="equal",
                 deformation: DeformationMap | None = None,
                 n: int | None = None) -> complex:
    """Total Fourier-Bohr amplitude at one module point."""
    w = weight_vector(model, weights)
    arg = internal_argument(k, deformation)
    H = model.evaluator.amplitude_batch(arg[None, :], n)[0]
    return complex(np.dot(w, H))


def analytic_silver(k_int: float) -> tuple:
    """Closed-form interval-window amplitudes (H_a, H_b) for silver."""
    lam = _SILVER_LAMBDA
    k = np.asarray(k_int, dtype=float)
    ha = math.sqrt(2.0) / 4.0 * np.exp(1j * np.pi * k * (lam - 2.0)) * np.sinc(k)
    hb = 0.5 * np.exp(-2j * np.pi * k) * np.sinc(k * (lam - 1.0))
    return ha, hb


def weyl_sum(patch: TypedPointSet, k_phys, weights, region_measure: float) -> complex:
    """Volume-averaged exponential sum over a finite patch.

    ``region_measure`` is the measure of the region the patch covers
    (length in 1d, area in 2d); the caller controls truncation.
    """
    if region_measure <= 0:
        raise ValueError("region_measure must be positive")
    if not len(patch):
        raise ValueError("empty patch")
    pos = patch.positions_phys()
    k = np.atleast_1d(np.asarray(k_phys, dtype=float))
    w = np.asarray(weights, dtype=complex)[patch.types()]
    phases = pos @ k
    return complex(np.sum(w * np.exp(-2j * np.pi * phases)) / region_measure)


def _amplitude_sweep(ev: FourierEvaluator, args: np.ndarray, n: int,
                     chunk: int = 2048) -> np.ndarray:
    """Batched amplitude evaluation, chunked to bound memory."""
    results = [ev.amplitude_batch(args[i:i + chunk], n)
               for i in range(0, args.shape[0], chunk)]
    return np.vstack(results) if results else np.zeros((0, ev.n), complex)


def _rotation(x) -> tuple:
    """Exact matrix of z -> x*z on the plane, entries :class:`Surd`."""
    a, b = x.embed_phys_exact()
    return ((a, -b), (b, a))


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
        DT = tuple(zip(*deformation.rows))
        if _mat_mul(DT, _rotation(xi)) != _mat_mul(_rotation(xi.star()), DT):
            return identity
    R = model.lattice.dual_action(xi)
    return identity if R is None else R


def _orbit_representatives(coords: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Lexicographically smallest image of each row of ``coords`` under the
    cyclic group generated by R (rows map as ``coords @ R.T``)."""
    best = image = coords
    rows = np.arange(len(coords))
    while True:
        image = image @ R.T
        if np.array_equal(image, coords):       # back at R^0: orbits closed
            return best
        differ = image != best
        first = differ.argmax(axis=1)
        less = differ.any(axis=1) & (image[rows, first] < best[rows, first])
        best = np.where(less[:, None], image, best)


def peak_list(model: ModelSpec, center=None, radius: float = 1.0,
              internal_cutoff: float | None = None, threshold: float = 1e-6,
              weights="equal", deformation: DeformationMap | str | None = None,
              n: int | None = None) -> list:
    """All Bragg peaks with intensity >= threshold in a physical ball.

    Deterministic: peaks are sorted by descending intensity, and each
    peak whose intensity lies within a relative ``_TIE_RTOL`` of the
    previous one joins its group.  Groups (orbit-equivalent peaks whose
    intensities differ by rounding only) are ordered lexicographically
    in module coordinates, so the order does not depend on the
    summation order of the kernel.

    The cocycle runs once per orbit of the exact symmetry that fixes the
    request (see ``_orbit_action``): for CAP centred at 0 with
    sigma-invariant weights, with or without ``hat``, one point in six.
    Every orbit member then carries the bitwise-equal total of its
    representative.  Without such a symmetry each point is its own orbit.
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
    pts = enumerate_module(model.lattice, center, radius, internal_cutoff)
    if not len(pts):
        return []
    # one sweep per orbit of the symmetry fixing the request; each row
    # takes the total at its representative's own argument
    reps = _orbit_representatives(pts.coords,
                                  _orbit_action(model, center, w, deformation))
    _, first, inverse = np.unique(row_keys(reps)[0], return_index=True,
                                  return_inverse=True)
    args = model.lattice.points(reps[first]).arguments(deformation)
    totals = (_amplitude_sweep(model.evaluator, args, n) @ w)[inverse]
    intensities = np.abs(totals) ** 2
    kept = np.flatnonzero(intensities >= threshold)
    order = kept[np.argsort(-intensities[kept], kind="stable")]
    I = intensities[order]
    gap = np.zeros(len(I), dtype=bool)
    gap[1:] = I[:-1] - I[1:] > _TIE_RTOL * I[:-1]
    # np.lexsort's last key is primary: tie group, then coordinates
    keys = np.vstack([pts.coords[order].T[::-1], np.cumsum(gap)])
    order = order[np.lexsort(keys)]
    name = deformation.name if deformation is not None else None
    return [Peak(pts[i], name, complex(totals[i]), float(intensities[i]), n)
            for i in order.tolist()]


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
    if float(a) <= 0 or float(b) <= 0:
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


def symmetry_report(peaks: list, group: str) -> SymmetryGroupReport:
    """Compare peak intensities against their image under a group action.

    Peaks are matched by nearest physical k within 1e-9.
    Unmatched orbit members are reported and their intensity counts
    toward the discrepancy (their partner fell below the run threshold).
    """
    G = _group_matrix(group)
    if not peaks:
        return SymmetryGroupReport(group, 0.0, 0, [])
    K = np.array([p.k.k_phys for p in peaks])
    if K.shape[1] != 2:
        raise ValueError("symmetry groups act on planar peak sets")
    I = np.array([p.intensity for p in peaks])
    mapped = K @ G.T
    worst = 0.0
    matched = 0
    unmatched = []
    chunk = 512
    for lo in range(0, len(peaks), chunk):
        hi = min(lo + chunk, len(peaks))
        d = np.linalg.norm(mapped[lo:hi, None, :] - K[None, :, :], axis=2)
        idx = np.argmin(d, axis=1)
        best = d[np.arange(hi - lo), idx]
        for row, (j, dist) in enumerate(zip(idx, best)):
            i = lo + row
            if dist <= 1e-9:
                matched += 1
                worst = max(worst, abs(I[i] - I[j]))
            else:
                unmatched.append(peaks[i])
                worst = max(worst, I[i])
    return SymmetryGroupReport(group, worst, matched, unmatched)


def periodicity_residual(model: ModelSpec, deformation: DeformationMap | str,
                         weights="equal", n_samples: int = 50,
                         n: int | None = None, seed: int = 0) -> float:
    """Max |I(k+p) - I(k)| over catalog periods p and random k in [-6, 6]^rank."""
    if isinstance(deformation, str):
        deformation = model.deformations[deformation]
    if not deformation.periods:
        raise ValueError(f"deformation {deformation.name!r} has no period catalog")
    w = weight_vector(model, weights)
    if n is None:
        n = model.default_iters
    dual = model.lattice.dual()
    period_coords = []
    for p in deformation.periods:
        c = dual.integer_coords(p)
        if c is None:
            raise ValueError("period is not a Fourier-module point")
        period_coords.append(np.array(c, dtype=np.int64))
    rng = np.random.default_rng(seed)
    rank = model.lattice.rank
    base = rng.integers(-6, 7, size=(n_samples, rank))
    coords = [base] + [base + pc for pc in period_coords]
    intensities = []
    for block in coords:
        args = model.lattice.points(block).arguments(deformation)
        H = _amplitude_sweep(model.evaluator, args, n)
        intensities.append(np.abs(H @ w) ** 2)
    base_I = intensities[0]
    return float(max(np.max(np.abs(I - base_I)) for I in intensities[1:]))


def mean_log_intensity(model: ModelSpec, k_lo: float, k_hi: float,
                       internal_cutoff: float | None = None, weights="equal",
                       n: int | None = None) -> float:
    """Mean log-intensity over module points with k_phys in [k_lo, k_hi].

    Near-extinctions, intensities <= 1e-25, are excluded, and ValueError
    is raised when no point is left; used to compare decay rates between
    models sharing a Fourier module (1d only).
    """
    if model.dim != 1:
        raise ValueError("decay comparison is for 1d models")
    if internal_cutoff is None:
        internal_cutoff = model.internal_cutoff
    w = weight_vector(model, weights)
    center = np.array([(k_lo + k_hi) / 2.0])
    pts = enumerate_module(model.lattice, center, (k_hi - k_lo) / 2.0,
                           internal_cutoff)
    H = _amplitude_sweep(model.evaluator, pts.arguments(), n or model.default_iters)
    I = np.abs(H @ w) ** 2
    I = I[I > 1e-25]
    if not len(I):
        raise ValueError(f"no module point in [{k_lo}, {k_hi}] above 1e-25")
    return float(np.mean(np.log(I)))


# ---------------------------------------------------------------------------
# Output formats

def _g17(x: float) -> str:
    return format(float(x), ".17g")


def peaks_to_csv(peaks: list, path) -> None:
    """CSV with header c1,c2,c3,c4,kx,ky,re_amp,im_amp,intensity,n_iters.

    c3,c4 stay empty for rank-2 modules; ky is 0 for 1d models.  Floats
    carry 17 significant digits so repeated runs are byte-identical.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("c1,c2,c3,c4,kx,ky,re_amp,im_amp,intensity,n_iters\n")
        for p in peaks:
            c = list(p.k.coords)
            cs = [str(x) for x in c] + [""] * (4 - len(c))
            k = p.k.k_phys
            kx = k[0]
            ky = k[1] if k.shape == (2,) else 0.0
            fh.write(",".join(cs + [_g17(kx), _g17(ky), _g17(p.amplitude.real),
                                    _g17(p.amplitude.imag), _g17(p.intensity),
                                    str(p.n_iters)]) + "\n")


def peaks_to_json(peaks: list, path) -> None:
    """JSON mirror of the CSV records, with identical float formatting."""
    rows = []
    for p in peaks:
        c = list(p.k.coords)
        k = p.k.k_phys
        ky = k[1] if k.shape == (2,) else 0.0
        fields = [
            f'"coords":[{",".join(str(x) for x in c)}]',
            f'"deformation":{_json_str(p.deformation)}',
            f'"kx":{_g17(k[0])}', f'"ky":{_g17(ky)}',
            f'"re_amp":{_g17(p.amplitude.real)}',
            f'"im_amp":{_g17(p.amplitude.imag)}',
            f'"intensity":{_g17(p.intensity)}',
            f'"n_iters":{p.n_iters}',
        ]
        rows.append("{" + ",".join(fields) + "}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("[\n" + ",\n".join(rows) + "\n]\n")


def _json_str(s) -> str:
    return "null" if s is None else '"' + str(s) + '"'


def peaks_to_svg(peaks: list, path) -> None:
    """Scatter plot, disk area proportional to intensity (brightest: radius 9)."""
    if not peaks:
        SvgCanvas((0, 0, 1, 1)).write(path)
        return
    K = np.array([[p.k.k_phys[0], p.k.k_phys[1] if p.k.k_phys.shape == (2,) else 0.0]
                  for p in peaks])
    I = np.array([p.intensity for p in peaks])
    pad = 0.05 * max(float(np.ptp(K[:, 0])), float(np.ptp(K[:, 1])), 1e-9)
    canvas = SvgCanvas((K[:, 0].min() - pad, K[:, 1].min() - pad,
                        K[:, 0].max() + pad, K[:, 1].max() + pad))
    imax = I.max()
    for (x, y), ii in zip(K, I):
        canvas.circle(x, y, 9.0 * math.sqrt(ii / imax), color="#111111")
    canvas.write(path)
