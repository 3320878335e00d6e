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


def _orbit_representatives(coords: np.ndarray, action: np.ndarray,
                           friedel: bool = False,
                           L: np.ndarray | None = None) -> tuple:
    """Classes of the rows of ``coords`` under the cyclic group generated by
    ``action`` (rows map as ``coords @ action.T``) and, with ``friedel``,
    by -1: (reps, inverse, conj).

    A row's keys are its images ``coords @ (L @ g).T`` (L the identity when
    None) for each group element g, the powers of ``action`` first, then
    their negatives.  ``reps`` holds the distinct representative keys in
    lexicographic order, each the smallest key in its class, and
    ``reps[inverse]`` is the representative of each row.  ``conj`` marks
    the rows that only -1 takes to their representative; they take the
    conjugate of its total.  Since argmin keeps the first smallest key, a
    row that a power of ``action`` takes there is never conjugated, also
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
    if L is not None:
        group = [L @ g for g in group]
    images = np.concatenate([coords @ g.T for g in group])
    # row keys ascend in lexicographic row order; argmin takes the first
    # smallest image, so a power of ``action`` wins a tie with its negative
    flat = row_keys(images)[0].reshape(len(group), len(coords))
    which = flat.argmin(axis=0)
    rows = np.arange(len(coords))
    _, first, inverse = np.unique(flat[which, rows], return_index=True,
                                  return_inverse=True)
    return images[which[first] * len(coords) + first], inverse, which >= plain


def peak_list(model: ModelSpec, center=None, radius: float = 1.0,
              internal_cutoff: float | None = None, threshold: float = 1e-6,
              weights="equal", deformation: DeformationMap | str | None = None,
              n: int | None = None) -> list:
    """All Bragg peaks with intensity >= threshold in a physical ball.

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
    coordinates ``c @ L.T`` when the deformation's arguments form a
    lattice (``LatticeBasis.argument_lattice``), so points with one
    argument share a class.  A class is swept at the argument of its
    representative, ``key @ Q.T`` on a lattice and k_int - D^T k_phys
    otherwise.  Every row carries its class total, conjugated where only
    -1 reaches its representative: bitwise what the full sweep gives at
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
    pts = enumerate_module(model.lattice, center, radius, internal_cutoff)
    if not len(pts):
        return []
    # one sweep per class; each row takes its class total
    action = _orbit_action(model, center, w, deformation)
    # Friedel's law: at centre 0 with real weights, -q sweeps to q's conjugate
    friedel = not np.any(center) and not np.any(w.imag)
    lattice = None if deformation is None else \
        model.lattice.argument_lattice(deformation)
    L, Q = lattice or (None, None)
    reps, inverse, conj = _orbit_representatives(pts.coords, action, friedel, L)
    args = model.lattice.points(reps).arguments(deformation) if Q is None \
        else reps @ Q.T
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
    # the peak nearest to each image, 512 images at a time
    idx = np.concatenate([
        np.argmin(np.linalg.norm(mapped[lo:lo + 512, None, :] - K[None], axis=2),
                  axis=1)
        for lo in range(0, len(K), 512)])
    matched = np.linalg.norm(mapped - K[idx], axis=1) <= 1e-9
    worst = np.where(matched, np.abs(I - I[idx]), I).max()
    return SymmetryGroupReport(group, float(worst), int(matched.sum()),
                               [p for p, m in zip(peaks, matched) if not m])


def periodicity_residual(model: ModelSpec, deformation: DeformationMap | str,
                         weights="equal", n_samples: int = 50,
                         n: int | None = None, seed: int = 0) -> float:
    """Max |I(k+p) - I(k)| over the period generators p of the deformation
    (``LatticeBasis.periods``, derived from its rows) and ``n_samples`` >= 1
    random k in [-6, 6]^rank."""
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
    args = model.lattice.points(coords).arguments(deformation)
    I = np.abs(model.evaluator.amplitude_batch(args, n, weights=w)) ** 2
    I = I.reshape(len(period_coords) + 1, n_samples)
    return float(np.max(np.abs(I[1:] - I[0])))


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
    I = np.abs(model.evaluator.amplitude_batch(pts.arguments(), n,
                                               weights=w)) ** 2
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
