"""Window approximation by the star-mapped contractive iterated maps.

The acceptance windows solve W_i = union_j union_t (A W_j + t*) with A
the internal contraction; iterating the maps from any seed converges in
Hausdorff distance at the contraction rate.  Clouds are dyadic-grid
snapped point sets: one representation covers intervals, Cantorvals and
fractal hexagons alike, and the occupied-cell count gives the Lebesgue
volume with an explicit one-boundary-layer bracket.

For one-dimensional models the interval hulls of the window components
satisfy the induced endpoint recursion exactly, so hull endpoints are
computed to near machine precision independently of the grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import ModelSpec
from .svg import PALETTE, SvgCanvas

__all__ = ["WindowCloud", "seed_clouds", "ifs_step", "iterate_windows",
           "volume", "hull_intervals", "render_windows",
           "TWISTED_BOUNDARY_DIM", "CAP_BOUNDARY_DIM", "MAX_STEP_CELLS"]

# Most candidate cells one IFS step may map before deduplication; the
# largest step of the CAP window at 12 generations, its seventh, maps
# 504,004 at resolution 8 and 1,857,568 at resolution 9 (later steps map
# only the frontier).
MAX_STEP_CELLS = 2 ** 24

# Documented boundary-dimension constants (read-only diagnostics).
# Twisted silver: log(x_max)/log(1+sqrt2) with x_max the largest root of
# x^3 - 2x^2 - 1; CAP window: log(2+sqrt3)/(2 log tau).
_ROOTS = np.roots([1.0, -2.0, 0.0, -1.0])
TWISTED_BOUNDARY_DIM = float(
    math.log(max(r.real for r in _ROOTS if abs(r.imag) < 1e-12))
    / math.log(1.0 + math.sqrt(2.0)))
CAP_BOUNDARY_DIM = float(
    math.log(2.0 + math.sqrt(3.0)) / (2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)))


@dataclass(frozen=True)
class WindowCloud:
    """Per-type grid-snapped clouds in internal space."""

    cells: tuple           # per type: (m, d) int64 array of occupied cells
    cell_size: float
    generation: int

    @property
    def n_types(self) -> int:
        return len(self.cells)

    @property
    def dim(self) -> int:
        return self.cells[0].shape[1]


def default_cell_size(model: ModelSpec, resolution: int | None = None) -> float:
    """Grid resolution: 2^-resolution of a window diameter bound.

    Raises ValueError when that is not a positive normal float.
    """
    stars = model.require_displacement().stars
    A = model.int_contraction_matrix
    contr = float(np.linalg.norm(A, 2))
    tmax = float(np.linalg.norm(stars, axis=1).max())
    if resolution is None:
        resolution = 10 if model.dim == 1 else 9
    # scale the binary exponent exactly, in integers: 2.0 ** -resolution
    # overflows or underflows to 0 for large |resolution|
    mantissa, exponent = math.frexp(tmax / (1.0 - contr))
    exponent -= resolution
    if not sys.float_info.min_exp <= exponent <= sys.float_info.max_exp:
        raise ValueError("the cell size diameter * 2^-resolution is not a "
                         "positive normal float")
    return math.ldexp(mantissa, exponent)


def seed_clouds(model: ModelSpec, resolution: int | None = None) -> WindowCloud:
    """Single point 0 per type (0 lies in every window closure here), on
    the grid of :func:`default_cell_size` at ``resolution``."""
    z = np.zeros((1, model.dim), dtype=np.int64)
    return WindowCloud(tuple(z.copy() for _ in range(model.n_tiles)),
                       default_cell_size(model, resolution), 0)


def ifs_step(cloud: WindowCloud, model: ModelSpec) -> WindowCloud:
    """One application of the star-mapped inflation maps, grid-deduplicated.

    The targets come one at a time from :meth:`DisplacementMatrix.images`,
    which maps each source cloud by A once.  Raises ValueError before
    mapping when the step has more than ``MAX_STEP_CELLS`` candidate cells
    (one per translation and cell of its source type), and before the
    cast when a cell index reaches 2**53.
    """
    disp = model.require_displacement()
    count = int(np.array([len(c) for c in cloud.cells])[disp.cols].sum())
    if count > MAX_STEP_CELLS:
        raise ValueError(f"window step {cloud.generation + 1} maps {count} "
                         f"candidate cells, above the ceiling {MAX_STEP_CELLS}")
    A, h = model.int_contraction_matrix, cloud.cell_size
    out = []   # rows: p -> A @ p + t*
    for pts in disp.images([c * h for c in cloud.cells], A.T, disp.stars):
        snapped = np.round(pts / h)
        if not np.abs(snapped).max(initial=0) < 2.0 ** 53:   # NaN fails too
            raise ValueError(f"window step {cloud.generation + 1} reaches "
                             "cell indices of 2**53")
        out.append(_unique_cells(snapped.astype(np.int64)))
    return WindowCloud(tuple(out), h, cloud.generation + 1)


def iterate_windows(model: ModelSpec, generations: int,
                    resolution: int | None = None) -> WindowCloud:
    """The cloud of ``generations`` IFS steps from the seed: the cells of
    that many :func:`ifs_step` calls, in lexicographic order.

    A step maps each cell on its own, so it is monotone and distributes
    over unions.  Once every type's generation g contains its generation
    g-1, generation g+1 is generation g plus the images of the frontier
    W^g minus W^(g-1) that are not yet present (semi-naive evaluation),
    and only the frontier is mapped from then on.  An empty frontier is
    the fixed point: the cloud is returned as it stands, with the
    requested generation.
    """
    if generations < 0:
        raise ValueError("generations must be >= 0")
    cloud = seed_clouds(model, resolution=resolution)
    front = None    # per type, the cells new in the last generation
    while cloud.generation < generations:
        if front is None:
            last, cloud = cloud, ifs_step(cloud, model)
            # per type, which new cells the last generation holds
            held = [_locate(c, o)[1] for o, c in zip(last.cells, cloud.cells)]
            if all(h.sum() == len(o) for h, o in zip(held, last.cells)):
                front = tuple(c[~h] for h, c in zip(held, cloud.cells))
        elif not any(map(len, front)):
            return WindowCloud(cloud.cells, cloud.cell_size, generations)
        else:
            images = ifs_step(WindowCloud(front, cloud.cell_size,
                                          cloud.generation), model).cells
            cells, front = zip(*map(_add_absent, cloud.cells, images))
            cloud = WindowCloud(cells, cloud.cell_size, cloud.generation + 1)
    return cloud


def _add_absent(cells: np.ndarray, images: np.ndarray):
    """``cells`` with the rows of ``images`` it lacks merged in, in
    lexicographic order, and those rows."""
    at, found = _locate(images, cells)
    new = images[~found]
    return np.insert(cells, at[~found], new, axis=0), new


def _locate(cells: np.ndarray, ref: np.ndarray):
    """For each row of ``cells``, its insertion index in ``ref`` and
    whether ``ref`` holds it; both arrays hold distinct rows in
    lexicographic order, and ``ref`` is not empty."""
    keys = row_keys(np.vstack([ref, cells]))[0]
    have, want = keys[:len(ref)], keys[len(ref):]
    at = np.searchsorted(have, want)
    return at, have[np.minimum(at, len(have) - 1)] == want


def row_keys(cells: np.ndarray):
    """Encode the rows of a nonempty int64 array (grid cells, module
    coordinates) as one int64 key per row.

    Mixed radix over the occupied bounding box with one spare slot per
    axis, so keys ascend in lexicographic row order and an axis
    neighbor (key +- mult[k]) outside the box never aliases an
    occupied cell.  Returns the keys and the per-axis multipliers.
    """
    cols = cells.T
    mins = [int(c.min()) for c in cols]
    spans = [int(c.max()) - m + 2 for c, m in zip(cols, mins)]
    if math.prod(spans) >= 2 ** 63:
        raise ValueError("cell grid too large for int64 keys")
    keys = np.zeros(len(cells), dtype=np.int64)
    for c, m, span in zip(cols, mins, spans):
        keys = keys * span + (c - m)
    mult = np.array([math.prod(spans[k + 1:]) for k in range(len(spans))],
                    dtype=np.int64)
    return keys, mult


def _unique_cells(cells: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order, as np.unique(cells, axis=0)."""
    if not len(cells):
        return cells
    _, first = np.unique(row_keys(cells)[0], return_index=True)
    return cells[first]


def _interior_mask(cells: np.ndarray) -> np.ndarray:
    """True for occupied cells whose axis neighbors are all occupied."""
    if cells.size == 0:
        return np.zeros(0, dtype=bool)
    own, mult = row_keys(cells)
    keys = np.sort(own)
    mask = np.ones(len(cells), dtype=bool)
    for off in np.concatenate([mult, -mult]):
        idx = np.minimum(np.searchsorted(keys, own + off), len(keys) - 1)
        mask &= keys[idx] == own + off
    return mask


def volume(cloud: WindowCloud):
    """Union occupied-cell volume with a one-boundary-layer bracket.

    Returns (value, bracket) with value = occupied cells x cell measure
    and bracket = boundary cells x cell measure.  The occupied count
    systematically overshoots by part of the boundary layer, so
    ``value - bracket/2`` is the better point estimate; this only
    converges usefully when the boundary dimension is well below the
    ambient dimension (silver/CAP windows, not the Cantorvals).
    """
    cell_vol = cloud.cell_size ** cloud.dim
    union = _unique_cells(np.vstack(cloud.cells))
    boundary = int(len(union) - _interior_mask(union).sum())
    return union.shape[0] * cell_vol, boundary * cell_vol


def window_volume_from_patch(model: ModelSpec):
    """Total window volume via the point density of an inflation patch of
    12 steps.

    Regular model sets equidistribute in their window, so the window
    volume equals point density times the lattice covolume.  The patch
    estimate converges at the inflation rate, which makes this the only
    practical route when the window boundary dimension is close to the
    ambient dimension (the twisted Cantorval windows).
    """
    from .inflation import inflate, seed_patch
    patch = inflate(seed_patch(model), model, 12)
    pos = patch.positions_phys()
    if model.dim == 1:
        xs = pos[:, 0]
        measure = float(xs.max() - xs.min())
        count = len(xs) - 1
    else:
        center = pos.mean(axis=0)
        r = 0.6 * float(np.linalg.norm(pos - center, axis=1).max())
        count = int((np.linalg.norm(pos - center, axis=1) <= r).sum())
        measure = float(np.pi * r * r)
    dens = count / measure
    return dens * model.lattice.covolume


def hull_intervals(model: ModelSpec, steps: int = 80) -> list:
    """Exact-endpoint interval hulls of the window components (1d only).

    The convex hulls of the attractor components satisfy the interval
    recursion induced by the maps; iterating it from [0, 0] converges
    geometrically to the hull endpoints.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if model.dim != 1:
        raise ValueError("hull intervals only defined for 1d internal space")
    disp = model.require_displacement()
    hulls = np.zeros((disp.n, 2, 1))   # both endpoints of each hull, as points
    for _ in range(steps):
        ends = disp.images(hulls, model.int_contraction_matrix, disp.stars)
        hulls = np.array([[e.min(), e.max()] for e in ends])[:, :, None]
    return [(float(lo), float(hi)) for lo, hi in hulls[:, :, 0]]


def render_windows(cloud: WindowCloud, path, model: ModelSpec | None = None,
                   zoom=None) -> None:
    """Per-type colored rendering; intervals as strips in 1d, cells in 2d.

    Orientation classes of one shape share a color (the CAP window shows
    four colored regions).  ``zoom=(lo, hi)`` adds a magnified strip
    below the main 1d plot; a 2d cloud raises ValueError for it.
    """
    if zoom is not None and cloud.dim != 1:
        raise ValueError("zoom applies to 1d windows only")
    labels = model.tile_labels if model is not None else None
    ori = model.orientations if model is not None else None
    if cloud.dim == 1:
        _render_1d(cloud, path, labels, zoom)
    else:
        _render_2d(cloud, path, ori)


def _runs(cells: np.ndarray):
    """Maximal runs of cells adjacent along the last axis.

    ``cells`` are distinct rows in lexicographic order, as from
    ``_unique_cells``; a run is consecutive last coordinates at fixed
    leading ones.  Returns the first cell of each run and its length.
    """
    brk = np.ones(len(cells), dtype=bool)
    brk[1:] = ((cells[1:, -1] != cells[:-1, -1] + 1)
               | (cells[1:, :-1] != cells[:-1, :-1]).any(axis=1))
    start = np.flatnonzero(brk)
    return cells[start], np.diff(np.append(start, len(cells)))


def _render_1d(cloud, path, labels, zoom):
    h = cloud.cell_size
    occupied = [c for c in cloud.cells if c.size]
    if not occupied:
        SvgCanvas((0, 0, 1, 1)).write(path)
        return
    x0 = min(int(c.min()) for c in occupied) * h - h
    x1 = max(int(c.max()) for c in occupied) * h + h
    rows = cloud.n_types + (1 if zoom else 0)
    canvas = SvgCanvas((x0, 0.0, x1, 0.22 * (x1 - x0) * rows), size=900, margin=24)
    band = 0.18 * (x1 - x0)
    for i, cells in enumerate(cloud.cells):
        y = 0.22 * (x1 - x0) * (cloud.n_types - 1 - i)
        color = PALETTE[i % len(PALETTE)]
        first, length = _runs(cells)
        for x, n in zip(first[:, 0].tolist(), length.tolist()):
            canvas.rect(x * h - h / 2, y, n * h, band, color=color)
        if labels:
            canvas.text(x0, y + band / 2, labels[i])
    if zoom:
        lo, hi = zoom
        y = 0.22 * (x1 - x0) * (rows - 1)
        span = hi - lo
        scale = (x1 - x0) / span if span > 0 else 1.0
        sub = band / cloud.n_types
        for i, cells in enumerate(cloud.cells):
            first, length = _runs(cells)
            color = PALETTE[i % len(PALETTE)]
            for x, n in zip(first[:, 0].tolist(), length.tolist()):
                a, b = max(x * h - h / 2, lo), min((x + n) * h - h / 2, hi)
                if a < b:
                    canvas.rect(x0 + (a - lo) * scale, y + i * sub,
                                (b - a) * scale, sub, color=color, opacity=0.9)
        canvas.text(x0, y + band, f"zoom [{lo:.6g}, {hi:.6g}]")
    canvas.write(path)


def _render_2d(cloud, path, orientations):
    boxes = [c for c in cloud.cells if c.size]
    if not boxes:
        SvgCanvas((0, 0, 1, 1)).write(path)
        return
    h = cloud.cell_size
    allc = np.vstack(boxes).astype(float) * h
    x0, y0 = allc.min(axis=0) - h
    x1, y1 = allc.max(axis=0) + h
    canvas = SvgCanvas((x0, y0, x1, y1), size=900, margin=24)
    for i, cells in enumerate(cloud.cells):
        group = i // orientations if orientations else i
        color = PALETTE[group % len(PALETTE)]
        first, length = _runs(cells)
        for (x, y), n in zip(first.tolist(), length.tolist()):
            canvas.rect(x * h - h / 2, y * h - h / 2, h, n * h,
                        color=color, opacity=0.85)
    canvas.write(path)
