import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from tilediff import windows
from tilediff.cps import decode_rows, row_keys
from tilediff.models import builtin
from tilediff.svg import PALETTE, SvgCanvas
from tilediff.windows import (CAP_BOUNDARY_DIM, TWISTED_BOUNDARY_DIM,
                              WindowCloud, _interior_mask, _recount, _snap,
                              _tally, hull_intervals, iterate_windows,
                              render_windows, volume, window_volume_from_patch)

S2 = math.sqrt(2)
LAM = 1 + S2


@pytest.fixture(scope="module")
def silver():
    return builtin("silver")


@pytest.fixture(scope="module")
def twisted():
    return builtin("silver_twisted")


def test_silver_hull_endpoints(silver):
    (a_lo, a_hi), (b_lo, b_hi) = hull_intervals(silver)
    assert abs(a_lo - (S2 / 2 - 1)) < 1e-12
    assert abs(a_hi - S2 / 2) < 1e-12
    assert abs(b_lo - (-1 - S2 / 2)) < 1e-12
    assert abs(b_hi - (S2 / 2 - 1)) < 1e-12
    # the two intervals share exactly one endpoint
    assert abs(a_lo - b_hi) < 1e-12


def _loop_hulls(model, steps=80):
    """Per-translation interval recursion in plain floats: the reference
    for the table-driven hull_intervals."""
    disp = model.require_displacement()
    a = float(model.contraction.embed_phys()[0])
    tstars = [[[float(t.embed_int()[0]) for t in cell] for cell in row]
              for row in disp.entries]
    n = disp.n
    hulls = [(0.0, 0.0)] * n
    for _ in range(steps):
        nxt = []
        for i in range(n):
            lo, hi = math.inf, -math.inf
            for j in range(n):
                for t in tstars[i][j]:
                    e1 = a * hulls[j][0] + t
                    e2 = a * hulls[j][1] + t
                    lo = min(lo, e1, e2)
                    hi = max(hi, e1, e2)
            nxt.append((lo, hi))
        hulls = nxt
    return hulls


@pytest.mark.parametrize("name", ["silver", "silver_twisted"])
def test_hull_intervals_match_loop(name):
    model = builtin(name)
    got = hull_intervals(model)
    assert all(type(x) is float for h in got for x in h)
    bits = lambda hulls: [tuple(map(float.hex, h)) for h in hulls]
    assert bits(got) == bits(_loop_hulls(model, 80))


def test_hull_requires_1d():
    with pytest.raises(ValueError):
        hull_intervals(builtin("cap"))


def test_iterate_rejects_negative_generations(silver):
    with pytest.raises(ValueError, match="generations must be >= 0"):
        iterate_windows(silver, -3)
    assert iterate_windows(silver, 0).generation == 0


def test_fixed_point_property(silver):
    cloud = iterate_windows(silver, 22)
    nxt = _plain_step(cloud, silver)
    # one more step moves the grid-projected cloud by at most one cell
    for a, b in zip(cloud.cells, nxt.cells):
        sa = set(map(tuple, a))
        sb = set(map(tuple, b))
        for cell in sb - sa:
            assert any(tuple(np.add(cell, d)) in sa
                       for d in ([1], [-1], [0]))


def test_hausdorff_contraction_rate(silver):
    """Consecutive-generation Hausdorff distance shrinks at ~|contraction|."""
    seed = np.zeros((1, 1), dtype=np.int64)
    cloud = WindowCloud((seed,) * silver.n_tiles, 1e-7, 0)
    gens = [cloud]
    for _ in range(16):
        gens.append(_plain_step(gens[-1], silver))

    def hausdorff(c1, c2):
        x = np.sort(np.concatenate([c.astype(float)[:, 0] for c in c1.cells]))
        y = np.sort(np.concatenate([c.astype(float)[:, 0] for c in c2.cells]))
        def directed(a, b):
            idx = np.clip(np.searchsorted(b, a), 1, len(b) - 1)
            return np.max(np.minimum(np.abs(a - b[idx - 1]), np.abs(a - b[idx])))
        return max(directed(x, y), directed(y, x))

    dists = [hausdorff(gens[n], gens[n + 1]) for n in range(5, 16)]
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    for r in ratios:
        assert 0.2 < r < 0.6  # ~ 1/lambda = 0.4142
    assert abs(np.mean(ratios) - (LAM - 2)) < 0.1


def _plain_step(cloud, model):
    """One full IFS step: every cell of every type mapped by A and each
    translation of its type, snapped, and deduplicated through int64 row
    keys.  The reference for the counted iteration of iterate_windows."""
    disp = model.require_displacement()
    A, h = model.int_contraction_matrix, cloud.cell_size
    out = []   # rows: p -> A @ p + t*
    for pts in disp.images([c * h for c in cloud.cells], A.T, disp.stars):
        cells = _snap(pts, h, cloud.generation + 1)
        if len(cells):
            keys, box = row_keys(cells.T)
            cells = decode_rows(_tally(np.sort(keys))[0], box)
        out.append(cells)
    return WindowCloud(tuple(out), h, cloud.generation + 1)


def _unique_step(cloud, model):
    """One IFS step deduplicated by np.unique(axis=0): the independent
    reference for the int64-key dedup of _plain_step."""
    disp = model.require_displacement()
    A, h = model.int_contraction_matrix, cloud.cell_size
    out = []
    for i in range(cloud.n_types):
        pts = [(cloud.cells[j].astype(float) * h) @ A.T + t.embed_int()
               for j in range(cloud.n_types) for t in disp.entries[i][j]]
        out.append(np.unique(np.round(np.vstack(pts) / h).astype(np.int64),
                             axis=0))
    return WindowCloud(tuple(out), h, cloud.generation + 1)


@pytest.mark.parametrize("name,generations,resolution", [
    ("cap", 8, 7), ("silver_twisted", 20, 12)])
def test_ifs_step_matches_unique_oracle(name, generations, resolution):
    model = builtin(name)
    ref = got = iterate_windows(model, 0, resolution=resolution)
    for _ in range(generations):
        ref, got = _unique_step(ref, model), _plain_step(got, model)
    once = iterate_windows(model, generations, resolution=resolution)
    assert once.generation == got.generation == ref.generation
    for a, b, c in zip(got.cells, ref.cells, once.cells):
        assert a.dtype == np.int64
        assert np.array_equal(a, b) and np.array_equal(c, b)
    # the int64 keys also find axis neighbors: interior cells vs a set scan
    axes = [tuple(s * e) for e in np.eye(got.dim, dtype=int) for s in (1, -1)]
    for i, cells in enumerate(got.cells):
        occupied = set(map(tuple, cells.tolist()))
        expect = {c for c in occupied
                  if all(tuple(np.add(c, e).tolist()) in occupied for e in axes)}
        assert set(map(tuple, cells[_interior_mask(cells)].tolist())) == expect



def _recount_reference(keys, counts, gained, lost):
    """_recount on a dict of counts."""
    held = dict(zip(keys.tolist(), counts.tolist()))
    after = dict(held)
    for key, n in zip(*(a.tolist() for a in gained)):
        after[key] = after.get(key, 0) + n
    for key, n in zip(*(a.tolist() for a in lost)):
        after[key] -= n
    kept = sorted(k for k, n in after.items() if n > 0)
    return (kept, [after[k] for k in kept],
            sorted(set(gained[0].tolist()) - set(held)),
            sorted(k for k in lost[0].tolist() if after[k] == 0))


def _recount_case(rng, case):
    """Random sorted keys with positive counts, and the tallies gained and
    lost of one step: distinct sorted keys with multiplicities, every lost
    key held after the gain and lost at most as often as it is counted."""
    keys = np.sort(rng.choice(np.arange(100, 400), rng.integers(1, 60),
                              replace=False))
    if case == "no keys":
        keys = keys[:0]
    counts = rng.integers(1, 4, len(keys))
    if case in ("no gain", "all leave"):
        gained = keys[:0]
    else:
        new = rng.choice(np.arange(0, 500), rng.integers(1, 30), replace=False)
        if case == "ends":      # before the first key and after the last
            new = np.concatenate([new, [0, 1, 498, 499]])
        old = rng.choice(keys, min(len(keys), rng.integers(0, 20)), replace=False)
        gained = np.unique(np.concatenate([new, old]))
    n_gained = rng.integers(1, 4, len(gained))
    after = _recount_reference(keys, counts, (gained, n_gained),
                               (keys[:0], keys[:0]))
    pool, pool_counts = map(np.array, after[:2])
    if case == "no loss":
        lost = np.zeros(0, dtype=bool)
    elif case == "all leave":
        lost = np.ones(len(pool), dtype=bool)
    else:
        lost = rng.random(len(pool)) < 0.4
    n_lost = (pool_counts if case == "all leave" else
              np.where(rng.random(len(pool)) < 0.5, pool_counts,
                       rng.integers(1, pool_counts + 1)))
    return (keys.astype(np.int64), counts.astype(np.int64),
            (gained.astype(np.int64), n_gained.astype(np.int64)),
            (pool[lost].astype(np.int64), n_lost[lost].astype(np.int64)))


@pytest.mark.parametrize("case", ["random", "no gain", "no loss", "ends",
                                  "all leave", "no keys"])
def test_recount_matches_dict_of_counts(case):
    rng = np.random.default_rng(list(map(ord, case)))
    for _ in range(40):
        keys, counts, gained, lost = _recount_case(rng, case)
        want = _recount_reference(keys, counts, gained, lost)
        got = _recount(keys.copy(), counts.copy(), gained, lost)
        assert [a.dtype for a in got] == [np.int64] * 4
        assert [a.tolist() for a in got] == [list(w) for w in want]
        if case == "all leave":
            assert not len(got[0]) and got[3].tolist() == keys.tolist()


@pytest.mark.parametrize("dim", [1, 2])
def test_interior_mask_matches_set_scan(dim):
    """Random clouds with repeated rows, in random order, with cells at
    negative coordinates and on every face of the occupied box, whose
    faces are full in about half of them."""
    rng = np.random.default_rng(dim)
    axes = [tuple(s * e) for e in np.eye(dim, dtype=int) for s in (1, -1)]
    for _ in range(20):
        lo = rng.integers(-9, 3, dim)
        hi = lo + rng.integers(0, 12, dim)
        box = np.stack(np.meshgrid(*map(np.arange, lo, hi + 1), indexing="ij"),
                       axis=-1).reshape(-1, dim)
        on_face = ((box == lo) | (box == hi)).any(axis=1)
        keep = rng.random(len(box)) < rng.uniform(0.3, 1.0)
        cells = np.concatenate([box[keep | (on_face & (rng.random() < 0.5))],
                                box[rng.integers(0, len(box), 5)]])
        cells = cells[rng.permutation(len(cells))]
        rows = sorted(set(map(tuple, cells.tolist())))
        occupied = set(rows)
        want = [all(tuple(np.add(c, e).tolist()) in occupied for e in axes)
                for c in rows]
        assert _interior_mask(cells).tolist() == want
    assert _interior_mask(np.zeros((0, dim), dtype=np.int64)).tolist() == []


def _plain_generations(model, generations, resolution=None):
    """Generations 0 to ``generations`` of _plain_step calls from the
    seed, cell 0 of every type."""
    clouds = [iterate_windows(model, 0, resolution=resolution)]
    for _ in range(generations):
        clouds.append(_plain_step(clouds[-1], model))
    return clouds


def _plain_loop(model, generations, resolution=None):
    return _plain_generations(model, generations, resolution)[-1]


def _assert_same_cloud(got, ref):
    assert got.generation == ref.generation
    assert got.cell_size == ref.cell_size
    assert len(got.cells) == len(ref.cells)
    for a, b in zip(got.cells, ref.cells):
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name,generations,resolution", [
    ("cap", 12, 6), ("cap", 12, 7), ("cap", 12, 8),
    ("cap", 3, 8),      # stops before the first generation that holds the last
    ("silver", 14, None), ("silver", 22, None), ("silver", 40, None),
    ("silver_twisted", 14, None), ("silver_twisted", 22, None),
    ("silver_twisted", 40, None)])
def test_frontier_iteration_matches_plain_steps(name, generations, resolution):
    model = builtin(name)
    _assert_same_cloud(iterate_windows(model, generations, resolution=resolution),
                       _plain_loop(model, generations, resolution))


def _spectre():
    from test_cocycle import _with_synthetic_spectre_data
    return _with_synthetic_spectre_data()


def _cell_set(cloud):
    return {(i, *c) for i, cells in enumerate(cloud.cells) for c in cells.tolist()}


def _changes(clouds):
    """Per step s >= 1, the (type, *cell) rows that entered or left the
    cloud from generation s-2 to s-1 (generation -1 is empty), sorted."""
    sets = [set()] + [_cell_set(c) for c in clouds]
    return [sorted(b ^ a) for a, b in zip(sets, sets[1:])]


@pytest.mark.parametrize("name,resolution,generations", [
    ("cap", 5, 12), ("cap", 6, 12), ("cap", 7, 12), ("cap", 8, 12),
    ("silver", None, 40), ("silver_twisted", None, 40),
    ("synthetic-spectre", None, 12)])
def test_counted_iteration_matches_plain_steps(name, resolution, generations):
    """Each generation from 0 of the counted iteration is that many plain
    steps, bit for bit.  Cells leave the CAP and silver clouds as well as
    enter them (the seed's cell 0 from the first step); the other clouds
    only grow."""
    model = _spectre() if name == "synthetic-spectre" else builtin(name)
    clouds = _plain_generations(model, generations, resolution)
    for g, ref in enumerate(clouds):
        _assert_same_cloud(iterate_windows(model, g, resolution=resolution), ref)
    sets = [_cell_set(c) for c in clouds]
    left = [len(a - b) for a, b in zip(sets, sets[1:])]
    assert any(left) == (name in ("cap", "silver"))


def test_frontier_stops_at_the_fixed_point(monkeypatch):
    """At resolution 6 the CAP cloud stops changing at generation 8: a
    thousand generations are the saturated cloud, and each step maps the
    cells that entered or left the cloud in the step before, each once."""
    cap = builtin("cap")
    clouds = _plain_generations(cap, 12, resolution=6)
    saturated = clouds[-1]
    assert all(np.array_equal(a, b) for a, b in
               zip(_plain_step(saturated, cap).cells, saturated.cells))
    mapped = []     # per step, the (type, *cell) rows it maps
    counted_step = windows._step

    def record(grid, keys, counts, entered, left, step):
        mapped.append(sorted((t, *c) for types, cells in (entered, left)
                             for t, c in zip(types.tolist(), cells.tolist())))
        return counted_step(grid, keys, counts, entered, left, step)

    monkeypatch.setattr(windows, "_step", record)
    got = iterate_windows(cap, 1000, resolution=6)
    assert got.generation == 1000
    _assert_same_cloud(got, WindowCloud(saturated.cells, saturated.cell_size, 1000))
    changes = _changes(clouds)
    assert [len(c) for c in changes[9:]] == [0] * 4
    assert mapped == changes[:9]


def test_frontier_ceiling_counts_frontier_candidates(monkeypatch):
    """Once only the frontier is mapped, MAX_STEP_CELLS bounds its
    candidates: a ceiling the plain steps pass at generation 5 and break
    at 6 still lets the frontier iteration reach generation 12."""
    cap = builtin("cap")
    clouds = _plain_generations(cap, 12, resolution=6)
    # a plain step maps every cell of the generation before, per translation
    cols = cap.displacement.cols
    plain = [int(np.array([len(c) for c in cloud.cells])[cols].sum())
             for cloud in clouds[:-1]]
    ceiling = plain[4]
    assert max(plain[:5]) == ceiling < plain[5]
    monkeypatch.setattr(windows, "MAX_STEP_CELLS", ceiling)
    _assert_same_cloud(iterate_windows(cap, 12, resolution=6), clouds[-1])


def test_ifs_step_ceiling_counts_candidates_exactly(monkeypatch):
    """A step maps, per translation, the cells of its source type that
    entered or left the cloud in the step before: 2,632 in step 3."""
    cap = builtin("cap")
    disp = cap.displacement
    changed = [np.bincount([t for t, *_ in c], minlength=disp.n).tolist()
               for c in _changes(_plain_generations(cap, 2, resolution=6))]
    counts = [sum(len(disp.entries[i][j]) * c[j] for i in range(disp.n)
                  for j in range(disp.n)) for c in changed]
    assert counts == [132, 528, 2632]
    expect = counts[-1]
    monkeypatch.setattr(windows, "MAX_STEP_CELLS", expect)
    assert iterate_windows(cap, 3, resolution=6).generation == 3   # at the ceiling
    monkeypatch.setattr(windows, "MAX_STEP_CELLS", expect - 1)
    with pytest.raises(ValueError, match=f"window step 3 maps {expect} candidate"):
        iterate_windows(cap, 3, resolution=6)
    # the seed has one cell per type: one candidate per translation
    monkeypatch.setattr(windows, "MAX_STEP_CELLS", len(disp.rows) - 1)
    with pytest.raises(ValueError, match="step 1 maps 132 candidate cells"):
        iterate_windows(cap, 1, resolution=6)


def test_iterate_windows_rejects_cell_indices_past_2_53(silver):
    """At resolution 70 the first step's cell indices pass 2**53, where
    the int64 cast would overflow without a warning."""
    with pytest.raises(ValueError, match="step 1 reaches cell indices of 2\\*\\*53"):
        iterate_windows(silver, 3, resolution=70)
    assert len(iterate_windows(silver, 3, resolution=40).cells) == 2


def test_cell_size_must_be_a_normal_float(silver):
    """2^-1100 of the diameter underflows to 0, which would divide by zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not a positive normal float"):
            iterate_windows(silver, 1, resolution=1100)


def test_silver_volume(silver):
    cloud = iterate_windows(silver, 24)
    v, bracket = volume(cloud)
    assert abs(v - LAM) / LAM < 0.01
    assert abs(v - LAM) <= bracket
    per = [volume(WindowCloud((c,), cloud.cell_size, cloud.generation))
           for c in cloud.cells]
    assert abs(per[0][0] - 1.0) < 0.01
    assert abs(per[1][0] - S2) < 0.01


def test_twisted_volume_from_patch(twisted):
    v = window_volume_from_patch(twisted)
    assert abs(v - LAM) / LAM < 0.02


def test_silver_volume_from_patch(silver):
    v = window_volume_from_patch(silver)
    assert abs(v - LAM) / LAM < 0.001


def test_volume_from_patch_requires_1d(monkeypatch):
    """A planar model fails before it inflates: twelve steps at its PF root
    would pass ``inflation.MAX_PATCH_POINTS``."""
    monkeypatch.setattr(windows, "inflate", None)
    with pytest.raises(ValueError, match="patch only defined for 1d"):
        window_volume_from_patch(builtin("cap"))


def test_twisted_windows_interleave_only_at_boundaries(twisted):
    """Overlapping hulls, measure-disjoint interiors.

    The two window components alternate below any fixed grid scale, so
    shared cells form a boundary zone whose measure shrinks with the
    resolution, while each type keeps exclusive territory of the order
    of its own volume.
    """
    hulls = hull_intervals(twisted)
    assert max(h[0] for h in hulls) < min(h[1] for h in hulls)  # hulls overlap

    def classify(resolution):
        cloud = iterate_windows(twisted, 28, resolution=resolution)
        a = set(map(tuple, cloud.cells[0]))
        b = set(map(tuple, cloud.cells[1]))
        h = cloud.cell_size
        return (len(a & b) * h, len(a - b) * h, len(b - a) * h)

    shared10, ex_a10, ex_b10 = classify(10)
    shared12, ex_a12, ex_b12 = classify(12)
    # exclusive territory dominates the interleaving zone at both scales
    assert ex_a10 > shared10 and ex_b10 > shared10
    assert ex_a12 > shared12 and ex_b12 > shared12
    # the interleaving zone thins out as the grid refines
    assert shared12 < shared10
    # exclusive territories sit near the true component volumes (1, sqrt2)
    assert abs(ex_a12 - 1.0) < 0.35
    assert abs(ex_b12 - S2) < 0.35


def test_cap_volume_consistent_with_density():
    cap = builtin("cap")
    cloud = iterate_windows(cap, 12, resolution=8)
    v, bracket = volume(cloud)
    mid = v - bracket / 2
    dens = cap.lattice.density * mid
    assert abs(dens - cap.density) / cap.density < 0.02


def test_dimension_constants():
    assert abs(TWISTED_BOUNDARY_DIM - 0.89745) < 5e-5
    assert abs(CAP_BOUNDARY_DIM - 1.3683764) < 1e-6


def test_render_silver(tmp_path, silver):
    cloud = iterate_windows(silver, 14)
    out = tmp_path / "w.svg"
    render_windows(cloud, out, model=silver)
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_render_twisted_with_zoom(tmp_path, twisted):
    cloud = iterate_windows(twisted, 14)
    out = tmp_path / "wt.svg"
    render_windows(cloud, out, model=twisted, zoom=(0.0, 0.5))
    assert "zoom" in out.read_text()


def test_render_empty(tmp_path):
    cloud = WindowCloud((np.zeros((0, 1), np.int64),), 0.01, 0)
    out = tmp_path / "empty.svg"
    render_windows(cloud, out)
    assert out.read_text().startswith("<svg")


def test_render_cap(tmp_path):
    cap = builtin("cap")
    cloud = iterate_windows(cap, 8, resolution=6)
    out = tmp_path / "cap.svg"
    with pytest.raises(ValueError, match="1d windows only"):
        render_windows(cloud, out, model=cap, zoom=(0.0, 1.0))
    assert not out.exists()
    render_windows(cloud, out, model=cap)
    text = out.read_text()
    assert "<rect" in text
    # one color per shape: four colored regions plus the white background
    fills = set(re.findall(r'fill="(#[0-9a-f]{6})"', text))
    assert len(fills - {"#ffffff"}) == 4


@pytest.mark.parametrize("cells,zoom", [
    (np.zeros((1, 2), np.int64), None),                          # one 2d cell
    (np.arange(3, dtype=np.int64).reshape(-1, 1), (5.0, 6.0)),   # zoom selects no cell
])
def test_render_one_run(tmp_path, cells, zoom):
    out = tmp_path / "one.svg"
    render_windows(WindowCloud((cells,), 0.01, 0), out, zoom=zoom)
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert len(_svg_rects(text)) == 1


_RECT = re.compile(r'<rect x="([-\d.]+)" y="([-\d.]+)" width="([\d.]+)" '
                   r'height="([\d.]+)" fill="(#[0-9a-f]{6})"'
                   r'(?: fill-opacity="([\d.]+)")?/>')


def _svg_rects(text):
    """(x, y, width, height, fill, opacity or None) of each drawn rect, in
    pixels; the white background has no x/y and is not matched."""
    return [(float(x), float(y), float(w), float(hh), fill, op or None)
            for x, y, w, hh, fill, op in _RECT.findall(text)]


def _span(start, length, step):
    """Grid indices covered by [start, start + length) on a grid of cells
    of size ``step`` centred on the multiples of ``step``."""
    first, n = (start + step / 2) / step, length / step
    assert abs(first - round(first)) < 1e-3 and abs(n - round(n)) < 1e-3
    return range(round(first), round(first) + round(n))


def _run_count(cells):
    """Maximal runs along the last axis, counted by a plain loop."""
    rows = [tuple(r) for r in cells.tolist()]
    return sum(1 for k, r in enumerate(rows)
               if k == 0 or r[:-1] != rows[k - 1][:-1] or r[-1] != rows[k - 1][-1] + 1)


def _staircase():
    """Two types whose column runs end one cell below the next column's
    first cell, so a run must break at each change of x."""
    a = np.array([(x, y) for x in range(4) for y in range(2 * x, 2 * x + 2)])
    b = np.array([(x, y) for x in range(3) for y in range(-x - 2, -x)])
    return None, WindowCloud((a, b), 0.1, 0)


def _cap_cloud():
    cap = builtin("cap")
    return cap, iterate_windows(cap, 8, resolution=6)


@pytest.mark.parametrize("make", [_cap_cloud, _staircase])
def test_render_2d_rects_cover_cells_exactly(tmp_path, make):
    model, cloud = make()
    out = tmp_path / "w2.svg"
    render_windows(cloud, out, model=model)
    h = cloud.cell_size
    allc = np.vstack(cloud.cells).astype(float) * h
    (x0, y0), (x1, y1) = allc.min(axis=0) - h, allc.max(axis=0) + h
    canvas = SvgCanvas((x0, y0, x1, y1), size=900, margin=24)
    got = {}
    rects = _svg_rects(out.read_text())
    for px, py, pw, ph, fill, op in rects:
        assert op == "0.85"
        w, hh = pw / canvas.scale, ph / canvas.scale
        x = canvas.x0 + (px - canvas.margin) / canvas.scale
        y = canvas.y0 + (canvas.height - canvas.margin - py) / canvas.scale - hh
        got.setdefault(fill, Counter()).update(
            (i, j) for i in _span(x, w, h) for j in _span(y, hh, h))
    want = {}
    for i, cells in enumerate(cloud.cells):
        group = i // model.orientations if model else i
        color = PALETTE[group % len(PALETTE)]
        want.setdefault(color, Counter()).update(map(tuple, cells.tolist()))
    assert got == want
    assert len(rects) == sum(_run_count(c) for c in cloud.cells) < len(allc)


def _runs_1d(xs):
    """(first, length) of each run of consecutive integers in sorted ``xs``,
    by a plain loop."""
    runs = []
    for x in xs:
        if runs and x == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return runs


@pytest.mark.parametrize("name,zoom", [("silver", None),
                                       ("silver_twisted", (0.0, 0.5)),
                                       ("silver_twisted", (0.1234, 0.4))])
def test_render_1d_rects_cover_cells_exactly(tmp_path, name, zoom):
    model = builtin(name)
    cloud = iterate_windows(model, 14)
    out = tmp_path / "w.svg"
    render_windows(cloud, out, model=model, zoom=zoom)
    h = cloud.cell_size
    allc = np.vstack(cloud.cells)
    x0, x1 = allc.min() * h - h, allc.max() * h + h
    rows = cloud.n_types + (1 if zoom else 0)
    canvas = SvgCanvas((x0, 0.0, x1, 0.22 * (x1 - x0) * rows), size=900, margin=24)
    got, got_zoom = {}, []
    rects = _svg_rects(out.read_text())
    for px, _, pw, _, fill, op in rects:
        x = canvas.x0 + (px - canvas.margin) / canvas.scale
        w = pw / canvas.scale
        if op is None:      # main strip: x is the left edge of the first cell
            got.setdefault((fill, op), Counter()).update(_span(x, w, h))
        else:               # zoom strip: one rect per run, clipped to the zoom
            assert op == "0.9"
            got_zoom.append((fill, px, pw))
    want, want_zoom, runs = {}, [], 0
    for i, cells in enumerate(cloud.cells):
        color = PALETTE[i % len(PALETTE)]
        want[(color, None)] = Counter(cells[:, 0].tolist())
        runs += _run_count(cells)
        if zoom:
            lo, hi = zoom
            zscale = (x1 - x0) / (hi - lo)
            for x, n in _runs_1d(cells[:, 0].tolist()):
                a, b = max(x * h - h / 2, lo), min((x + n) * h - h / 2, hi)
                if a < b:
                    px, _ = canvas.map(x0 + (a - lo) * zscale, 0.0)
                    want_zoom.append((color, px, (b - a) * zscale * canvas.scale))
    assert got == want
    assert len(rects) == runs + len(want_zoom)
    assert len(got_zoom) == len(want_zoom)
    for (fill, px, pw), (color, qx, qw) in zip(got_zoom, want_zoom):
        assert fill == color and abs(px - qx) < 0.01 and abs(pw - qw) < 0.01
    if zoom:    # a cell of each type straddles lo: its first rect starts at lo
        first = {}
        for color, px, _ in want_zoom:
            first.setdefault(color, px)
        assert len(first) == cloud.n_types
        assert all(abs(px - canvas.map(x0, 0.0)[0]) < 0.01 for px in first.values())
