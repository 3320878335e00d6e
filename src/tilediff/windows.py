"""Window approximation by the star-mapped contractive iterated maps.

The acceptance windows solve W_i = union_j union_t (A W_j + t*) with A
the internal contraction; iterating the maps from any seed converges in
Hausdorff distance at the contraction rate.  Clouds are dyadic-grid
snapped point sets: one representation covers intervals, Cantorvals and
fractal hexagons alike, and the occupied-cell count gives the Lebesgue
volume with an explicit one-boundary-layer bracket.  The iteration
counts, per cell, the (source cell, translation) pairs that snap to it,
so each generation maps only the cells that entered or left the cloud in
the generation before (:func:`iterate_windows`).

For one-dimensional models the interval hulls of the window components
satisfy the induced endpoint recursion exactly, so hull endpoints are
computed to near machine precision independently of the grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import EXACT_LIMIT
from .cps import decode_rows, row_keys
from .inflation import inflate, seed_patch
from .models import ModelSpec, apply_linear
from .svg import PALETTE, SvgCanvas

__all__ = ["WindowCloud", "seed_clouds", "ifs_step", "iterate_windows",
           "volume", "hull_intervals", "render_windows",
           "TWISTED_BOUNDARY_DIM", "CAP_BOUNDARY_DIM", "MAX_STEP_CELLS"]

# Most candidate cells one IFS step may map before deduplication: the
# cells a step maps times the translations of their source types.  The
# counted iteration of the CAP window at 12 generations maps at most
# 19,940 in one step at resolution 6, 324,704 at resolution 8 and
# 1,152,646 at resolution 9.
MAX_STEP_CELLS = 2 ** 24

# Most candidates the counted iteration maps at once, unless one target
# type has more: a step maps its target types in ranges of this many, so
# that its arrays stay small (256 kB per int64 array).
_CHUNK_CANDIDATES = 2 ** 15

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


def _window_bound(model: ModelSpec) -> tuple:
    """(tmax, ||A||_2), the longest starred translation and the norm of the
    internal contraction A: every window lies within tmax / (1 - ||A||_2) of 0."""
    stars = model.require_displacement().stars
    return (float(np.linalg.norm(stars, axis=1).max()),
            float(np.linalg.norm(model.int_contraction_matrix, 2)))


def default_cell_size(model: ModelSpec, resolution: int | None = None) -> float:
    """Grid resolution: 2^-resolution of a window diameter bound.

    Raises ValueError when that is not a positive normal float.
    """
    tmax, contr = _window_bound(model)
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
    _check_ceiling(count, cloud.generation + 1)
    A, h = model.int_contraction_matrix, cloud.cell_size
    out = []   # rows: p -> A @ p + t*
    for pts in disp.images([c * h for c in cloud.cells], A.T, disp.stars):
        out.append(_unique_cells(_snap(pts, h, cloud.generation + 1)))
    return WindowCloud(tuple(out), h, cloud.generation + 1)


def _check_ceiling(count: int, step: int) -> None:
    if count > MAX_STEP_CELLS:
        raise ValueError(f"window step {step} maps {count} "
                         f"candidate cells, above the ceiling {MAX_STEP_CELLS}")


def _snap(pts: np.ndarray, h: float, step: int) -> np.ndarray:
    """The int64 grid cells of the points ``pts``; raises ValueError before
    the cast when a cell index reaches 2**53."""
    snapped = np.round(pts / h)
    lo, hi = snapped.min(initial=0), snapped.max(initial=0)
    if not -EXACT_LIMIT < lo <= hi < EXACT_LIMIT:       # NaN fails too
        raise ValueError(f"window step {step} reaches cell indices of 2**53")
    return snapped.astype(np.int64)


def iterate_windows(model: ModelSpec, generations: int,
                    resolution: int | None = None) -> WindowCloud:
    """The cloud of ``generations`` IFS steps from the seed: the cells of
    that many :func:`ifs_step` calls, in lexicographic order.

    Counted incremental iteration (the counting algorithm of incremental
    view maintenance).  A step maps each cell on its own, so a cell is in
    generation g exactly when its preimage count, the number of (cell of
    generation g-1, translation) pairs that snap to it, is positive.  The
    iteration keeps these counts under one int64 key per (type, cell) on
    a fixed grid, and each step maps only the cells that entered the
    cloud in the step before (+1 to the counts of their images) or left
    it (-1).  No change is the fixed point: the cloud is returned as it
    stands, with the requested generation.  ``MAX_STEP_CELLS`` bounds
    the candidates of each step.
    """
    if generations < 0:
        raise ValueError("generations must be >= 0")
    cloud = seed_clouds(model, resolution=resolution)
    if not generations:
        return cloud
    grid = _Grid(model, cloud.cell_size)
    # the (types, cells) that entered and that left the cloud in the last
    # step, each in key order
    entered = np.arange(cloud.n_types), np.vstack(cloud.cells)
    left = entered[0][:0], entered[1][:0]
    keys = counts = None        # sorted keys of the cloud, preimage counts
    for step in range(1, generations + 1):
        if not len(entered[0]) + len(left[0]):
            break
        keys, counts, new, gone = _step(grid, keys, counts, entered, left, step)
        entered = grid.decode(new)
        left = grid.decode(gone)
    types, cells = grid.decode(keys)
    # row-major cells, which do not keep the decoded types alive
    per_type = np.split(np.ascontiguousarray(cells),
                        np.searchsorted(types, np.arange(1, cloud.n_types)))
    return WindowCloud(tuple(per_type), cloud.cell_size, generations)


def _step(grid, keys, counts, entered, left, step: int):
    """One counted step: the cloud's sorted keys and their preimage counts
    after mapping the (types, cells) that ``entered`` and ``left`` it, and
    the keys that enter and leave in this step.  ``keys`` is None at the
    first step, where each seed cell is its own preimage until now.
    Maps the target types in ranges of about ``_CHUNK_CANDIDATES``."""
    # candidates per target type: one per translation and changed cell of
    # its source type
    changed = np.bincount(np.concatenate([entered[0], left[0]]), minlength=grid.n)
    sizes = np.bincount(grid.rows, weights=changed[grid.cols], minlength=grid.n)
    _check_ceiling(int(sizes.sum()), step)
    sources = [(types, grid.map(cells)) for types, cells in (entered, left)]
    parts = []
    for t0, t1 in _type_ranges(sizes, _CHUNK_CANDIDATES):
        gained, lost = (grid.images(t, m, t0, t1, step) for t, m in sources)
        if keys is None:
            seeds = np.zeros((len(grid.box[0]), t1 - t0), dtype=np.int64)
            seeds[0] = np.arange(t0, t1)        # cell 0 of each type
            part_keys = row_keys(seeds, grid.box)[0]
            part_counts = np.ones(t1 - t0, dtype=np.int64)
            lost = np.concatenate([lost, part_keys])
        else:
            size = math.prod(grid.box[1][1:])        # keys per type
            lo, hi = np.searchsorted(keys, (t0 * size, t1 * size))
            part_keys, part_counts = keys[lo:hi], counts[lo:hi]
        gained.sort()
        lost.sort()
        parts.append(_recount(part_keys, part_counts, _tally(gained), _tally(lost)))
    return tuple(map(np.concatenate, zip(*parts)))


def _type_ranges(sizes: np.ndarray, limit: int) -> list:
    """Consecutive ranges [t0, t1) of target types that cover them all,
    each with at most ``limit`` candidates or of one type."""
    ranges, t0, total = [], 0, 0
    for t, size in enumerate(sizes.tolist()):
        if total + size > limit and t > t0:
            ranges.append((t0, t))
            t0, total = t, 0
        total += size
    return ranges + [(t0, len(sizes))]


class _Grid:
    """The maps of a model's window IFS on cells of size ``h``, and the box
    of the :func:`cps.row_keys` of its (type, cell) rows, fixed in advance.

    A cell within distance R (in cells) of 0 maps to cells within
    ||A|| R + tmax/h + sqrt(d)/2, so the iteration from 0 never leaves
    the radius (tmax/h + sqrt(d)/2) / (1 - ||A||), plus one for rounding.
    Keys ascend by type and then in lexicographic cell order, and keys of
    different generations compare directly.
    """

    def __init__(self, model: ModelSpec, h: float):
        disp = model.require_displacement()
        tmax, contr = _window_bound(model)
        bound = (tmax / h + math.sqrt(model.dim) / 2) / (1.0 - contr) + 1
        radius = int(min(bound, 2 ** 62))         # past any int64 key
        self.box = ((0,) + (-radius,) * model.dim,
                    (disp.n,) + (2 * radius + 1,) * model.dim)
        self.h, self.linear, self.n = h, model.int_contraction_matrix.T, disp.n
        self.rows, self.cols, self.row_start = disp.rows, disp.cols, disp.row_start
        self.stars = np.ascontiguousarray(disp.stars.T)

    def decode(self, keys: np.ndarray):
        """The types and cells of ``keys``."""
        rows = decode_rows(keys, self.box)
        return rows[:, 0], rows[:, 1:]

    def map(self, cells: np.ndarray) -> np.ndarray:
        """The cells' points mapped by A, one contiguous array per axis."""
        return apply_linear(cells * self.h, self.linear).T.copy()

    def images(self, types: np.ndarray, mapped: np.ndarray, t0: int, t1: int,
               step: int) -> np.ndarray:
        """The keys of the images in the target types [t0, t1) of cells of
        the sorted types ``types``, whose points A maps to ``mapped``, by
        translation.  Raises ValueError as :func:`ifs_step` does."""
        lo, hi = self.row_start[t0], self.row_start[t1]
        cols = self.cols[lo:hi]
        first = np.searchsorted(types, np.arange(self.n + 1))   # per type
        count = first[cols + 1] - first[cols]   # per translation
        ends = np.cumsum(count)
        r = np.repeat(np.arange(lo, hi), count)
        source = np.arange(ends[-1]) + np.repeat(first[cols] - ends + count, count)
        axes = [_snap(p[source] + t[r], self.h, step)
                for p, t in zip(mapped, self.stars)]
        return row_keys([self.rows[r], *axes], self.box)[0]


def _recount(keys, counts, gained, lost):
    """Sorted ``keys`` and their positive ``counts`` after adding the
    tallies ``gained`` and subtracting the tallies ``lost`` (each distinct
    sorted keys and their multiplicities, every lost key held after the
    gain), and the keys that entered and left.  ``counts`` is updated in
    place, and is returned as it is when no key enters or leaves.

    Entering keys go to their slots of one boolean mask over the merged
    keys, which keys and counts share; leaving keys drop by one keep mask.
    """
    (gained, n_gained), (lost, n_lost) = gained, lost
    at = np.searchsorted(keys, gained)
    held = (keys.take(at, mode="clip") == gained if len(keys)
            else np.zeros(len(gained), dtype=bool))
    counts[at[held]] += n_gained[held]
    new = ~held
    entered = gained[new]
    if len(entered):
        slot = np.zeros(len(keys) + len(entered), dtype=bool)
        slot[at[new] + np.arange(len(entered))] = True
        keys = _merge(slot, keys, entered)
        counts = _merge(slot, counts, n_gained[new])
    if not len(lost):
        return keys, counts, entered, lost
    at = np.searchsorted(keys, lost)
    counts[at] -= n_lost
    gone = counts[at] == 0
    if not gone.any():
        return keys, counts, entered, lost[:0]
    keep = np.ones(len(keys), dtype=bool)
    keep[at[gone]] = False
    return keys[keep], counts[keep], entered, lost[gone]


def _merge(slot, x, y):
    """The array with ``y`` at the True entries of ``slot`` and ``x`` at
    the others, each in order."""
    out = np.empty(len(slot), dtype=x.dtype)
    out[slot] = y
    out[~slot] = x
    return out


def _tally(keys: np.ndarray):
    """The distinct values of sorted ``keys`` and how often each occurs."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    start = np.flatnonzero(first)
    counts = np.empty_like(start)
    np.subtract(start[1:], start[:-1], out=counts[:-1])
    counts[-1:] = len(keys) - start[-1:]
    return keys[start], counts


def _unique_cells(cells: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order, as np.unique(cells, axis=0)."""
    if not len(cells):
        return cells
    keys, box = row_keys(cells.T)
    return decode_rows(_tally(np.sort(keys))[0], box)


def _interior_mask(cells: np.ndarray) -> np.ndarray:
    """For the distinct rows of ``cells`` in lexicographic order, True
    where every axis neighbor is a row of ``cells`` too.

    Marks the rows in one boolean array over the occupied box of
    :func:`cps.row_keys`, padded by the leading place value on both sides
    so that key +- place never leaves it: prod(spans) + 2 place_0 bytes,
    ~92 kB for the CAP windows at resolution 8 and ~370 kB at 9.  Each
    axis neighbor test is then one gather.
    """
    if cells.size == 0:
        return np.zeros(0, dtype=bool)
    keys, (_, spans) = row_keys(cells.T)
    place = [math.prod(spans[k + 1:]) for k in range(len(spans))]
    occupied = np.zeros(math.prod(spans) + 2 * place[0], dtype=bool)
    occupied[keys + place[0]] = True
    keys = np.flatnonzero(occupied)         # distinct, ascending
    mask = np.ones(len(keys), dtype=bool)
    for off in place:
        mask &= occupied[keys + off]
        mask &= occupied[keys - off]
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
    interior = _interior_mask(np.vstack(cloud.cells))   # per union cell
    boundary = int(len(interior) - interior.sum())
    return len(interior) * cell_vol, boundary * cell_vol


def window_volume_from_patch(model: ModelSpec):
    """Total window volume via the point density of an inflation patch of
    12 steps (1d only).

    Regular model sets equidistribute in their window, so the window
    volume equals point density times the lattice covolume.  The patch
    estimate converges at the inflation rate, which makes this the only
    practical route when the window boundary dimension is close to the
    ambient dimension (the twisted Cantorval windows).  A planar model
    raises ValueError: twelve steps at its PF root would pass
    ``inflation.MAX_PATCH_POINTS``.
    """
    if model.dim != 1:
        raise ValueError("window volume from a patch only defined for 1d "
                         "internal space")
    xs = inflate(seed_patch(model), model, 12).positions_phys()[:, 0]
    dens = (len(xs) - 1) / float(xs.max() - xs.min())
    return dens * model.lattice.covolume


def hull_intervals(model: ModelSpec) -> list:
    """Exact-endpoint interval hulls of the window components (1d only).

    The convex hulls of the attractor components satisfy the interval
    recursion induced by the maps; 80 steps of it from [0, 0] converge
    geometrically to the hull endpoints.
    """
    if model.dim != 1:
        raise ValueError("hull intervals only defined for 1d internal space")
    disp = model.require_displacement()
    hulls = np.zeros((disp.n, 2, 1))   # both endpoints of each hull, as points
    for _ in range(80):
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


def _typed_runs(cells_per_type):
    """The :func:`_runs` of each type's cells, concatenated in type order,
    and the type of each run."""
    runs = [_runs(cells) for cells in cells_per_type]
    return (np.vstack([first for first, _ in runs]),
            np.concatenate([length for _, length in runs]),
            np.repeat(np.arange(len(runs)), [len(length) for _, length in runs]))


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
        canvas.rects(first[:, 0] * h - h / 2, y, length * h, band, color=color)
        if labels:
            canvas.text(x0, y + band / 2, labels[i])
    if zoom:
        lo, hi = zoom
        y = 0.22 * (x1 - x0) * (rows - 1)
        span = hi - lo
        scale = (x1 - x0) / span if span > 0 else 1.0
        sub = band / cloud.n_types
        first, length, types = _typed_runs(cloud.cells)
        a = np.maximum(first[:, 0] * h - h / 2, lo)
        b = np.minimum((first[:, 0] + length) * h - h / 2, hi)
        a, b, types = a[a < b], b[a < b], types[a < b]
        canvas.rects(x0 + (a - lo) * scale, y + types * sub, (b - a) * scale, sub,
                     color=np.array(PALETTE)[types % len(PALETTE)], opacity=0.9)
        canvas.text(x0, y + band, f"zoom [{lo:.6g}, {hi:.6g}]")
    canvas.write(path)


def _render_2d(cloud, path, orientations):
    boxes = [c for c in cloud.cells if c.size]
    if not boxes:
        SvgCanvas((0, 0, 1, 1)).write(path)
        return
    h = cloud.cell_size
    allc = np.vstack(boxes).astype(float) * h
    # column by column: numpy reduces axis 0 of an (N, 2) array ~15x slower
    (x0, x1), (y0, y1) = ((c.min() - h, c.max() + h) for c in allc.T)
    canvas = SvgCanvas((x0, y0, x1, y1), size=900, margin=24)
    first, length, types = _typed_runs(cloud.cells)
    groups = types // orientations if orientations else types
    canvas.rects(first[:, 0] * h - h / 2, first[:, 1] * h - h / 2, h,
                 length * h, color=np.array(PALETTE)[groups % len(PALETTE)],
                 opacity=0.85)
    canvas.write(path)
