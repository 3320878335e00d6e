import math

import numpy as np
import pytest

from tilediff import inflation
from tilediff.algebra import SILVER
from tilediff.cps import LatticeBasis
from tilediff.inflation import (TypedPointSet, inflate, patch_to_csv,
                                seed_patch, substitution_matrix, truncate)
from tilediff.models import DisplacementMatrix, ModelDataError, builtin
from test_cocycle import _with_synthetic_spectre_data

S2 = math.sqrt(2)
LAM = 1 + S2


@pytest.fixture(scope="module")
def silver():
    return builtin("silver")


def _translated(patch: TypedPointSet, t) -> TypedPointSet:
    """``patch`` shifted by the field element ``t``, whose field-basis
    coordinates are integers."""
    assert t.field is patch.field and all(c.denominator == 1 for c in t.coords)
    shift = np.array([int(c) for c in t.coords], dtype=np.int64)
    return TypedPointSet(patch.field, patch.tile_types, patch.coords + shift)


def test_one_step(silver):
    patch = inflate(seed_patch(silver), silver, 1)
    got = {(t, x.coords) for t, x in patch.points}
    assert got == {(0, (0, 0)), (1, (0, 1)), (1, (1, 1))}


def test_zero_steps_identity(silver):
    seed = seed_patch(silver)
    assert inflate(seed, silver, 0).points == seed.points
    with pytest.raises(ValueError):
        inflate(seed, silver, -1)


def test_two_steps_word(silver):
    patch = inflate(seed_patch(silver), silver, 2)
    assert len(patch) == 7
    order = np.argsort(patch.positions_phys()[:, 0])
    word = "".join("ab"[patch.tile_types[i]] for i in order)
    assert word == "abbabab"


def test_point_counts_match_matrix_powers(silver):
    M = substitution_matrix(silver)
    for n in range(13):
        patch = inflate(seed_patch(silver), silver, n)
        counts = np.linalg.matrix_power(M, n) @ np.array([1, 0])
        assert len(patch) == counts.sum()
        types = patch.tile_types
        assert (types == 0).sum() == counts[0]
        assert (types == 1).sum() == counts[1]


def test_positions_in_return_module(silver):
    patch = inflate(seed_patch(silver), silver, 6)
    lat = silver.lattice
    for _, x in patch.points:
        assert lat.integer_coords(x) is not None


def test_type_frequencies_converge(silver):
    patch = inflate(seed_patch(silver), silver, 10)
    types = patch.tile_types
    freq = np.array([(types == 0).mean(), (types == 1).mean()])
    expect = np.array([LAM - 2, 3 - LAM])
    assert np.max(np.abs(freq - expect)) < 0.02


def test_scaffold_refuses_inflation():
    m = builtin("casper_scaffold")
    with pytest.raises(ModelDataError):
        inflate(seed_patch(m), m, 1)


def test_cap_inflation_stays_in_module():
    cap = builtin("cap")
    patch = inflate(seed_patch(cap), cap, 2)
    M = substitution_matrix(cap)
    counts = np.linalg.matrix_power(M, 2) @ np.eye(24, dtype=int)[0]
    assert len(patch) == counts.sum()
    lat = cap.lattice
    for _, x in patch.points:
        assert lat.integer_coords(x) is not None


def _fraction_inflate(model, steps):
    """Per-point Fraction inflation of a type-0 seed at the origin: the
    exact reference for the int64 path."""
    disp = model.require_displacement()
    pts = [(0, model.field.zero())]
    for _ in range(steps):
        nxt = {}
        for ty, x in pts:
            base = model.apply_expansion(x)
            for i in range(disp.n):
                for t in disp.entries[i][ty]:
                    nxt.setdefault((i, (base + t).coords), (i, base + t))
        pts = sorted(nxt.values(), key=lambda p: (p[1].coords, p[0]))
    return pts


@pytest.mark.parametrize("name,steps", [
    ("silver", 8), ("silver_twisted", 8), ("cap", 4), ("synthetic-spectre", 4)])
def test_integer_inflation_matches_fractions(name, steps):
    model = _with_synthetic_spectre_data() if name == "synthetic-spectre" \
        else builtin(name)
    patch = inflate(seed_patch(model), model, steps)
    ref = _fraction_inflate(model, steps)
    assert [(t, x.coords) for t, x in patch.points] == \
        [(t, x.coords) for t, x in ref]
    exact = np.array([x.embed_phys() for _, x in ref])
    pos = patch.positions_phys()
    assert pos.tobytes() == exact.tobytes()
    # one read-only array per patch, which the Weyl sums share
    assert pos is patch.positions_phys() and not pos.flags.writeable


@pytest.mark.parametrize("name", [
    "silver", "silver_twisted", "cap", "synthetic-spectre"])
def test_integer_tables_match_float_tables(name):
    """The model's int64 generator coordinates against the float starred
    translations and the float expansion."""
    model = _with_synthetic_spectre_data() if name == "synthetic-spectre" \
        else builtin(name)
    T, E = model.translation_coords, model.expansion_coords
    stars = model.displacement.stars
    gens = model.generators
    assert T.dtype == E.dtype == np.int64 and T.shape == (len(stars), len(gens))
    assert np.abs(T @ [g.embed_int() for g in gens] - stars).max() <= 1e-12
    expanded = [model.apply_expansion(g).embed_phys() for g in gens]
    assert np.abs(E @ [g.embed_phys() for g in gens] - expanded).max() <= 1e-12
    if name == "cap":
        assert np.abs(T).max() <= 2


def test_inflate_reads_the_model_tables(monkeypatch):
    """After the first call, inflate solves only the seed positions."""
    cap = builtin("cap")
    inflate(seed_patch(cap), cap, 1)
    solved = []
    solve = LatticeBasis.integer_coords
    monkeypatch.setattr(LatticeBasis, "integer_coords",
                        lambda self, x: solved.append(x.coords) or solve(self, x))
    patch = inflate(_translated(seed_patch(cap), cap.generators[0]), cap, 4)
    assert len(patch) == 442 and solved == [cap.generators[0].coords]


def test_inflate_rejects_inexact_seeds(silver):
    cap = builtin("cap")
    outside = _translated(seed_patch(cap), cap.field.one())
    with pytest.raises(ValueError, match="outside the return module"):
        inflate(outside, cap, 1)
    far = _translated(seed_patch(silver), silver.field.element([2 ** 52, 0]))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        inflate(far, silver, 1)


def test_truncate(silver):
    patch = inflate(seed_patch(silver), silver, 5)
    r = 10.0
    cut = truncate(patch, r)
    pos = cut.positions_phys()[:, 0]
    assert np.all(np.abs(pos) <= r + 1e-9)
    assert 0 < len(cut) < len(patch)


@pytest.mark.parametrize("radius", [-1.0, float("nan")])
def test_truncate_rejects_a_bad_radius(silver, radius):
    patch = inflate(seed_patch(silver), silver, 3)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        truncate(patch, radius)


def test_truncate_checks_the_center_dimension(silver):
    patch = inflate(seed_patch(silver), silver, 8)
    c = patch.positions_phys().mean(axis=0)[0]
    assert len(truncate(patch, 5.0, [c])) == len(truncate(patch, 5.0, c)) == 9
    with pytest.raises(ValueError, match="dimension 1"):
        truncate(patch, 5.0, [c, c])


def test_substitution_matrices():
    silver = builtin("silver")
    assert substitution_matrix(silver).tolist() == [[1, 1], [2, 1]]
    assert substitution_matrix(silver) is silver.displacement.card_matrix()
    assert substitution_matrix(builtin("silver_twisted")).tolist() == [[1, 1], [2, 1]]
    M = substitution_matrix(builtin("cap"))
    assert M.shape == (24, 24)
    lam = np.max(np.abs(np.linalg.eigvals(M.astype(float))))
    assert abs(lam - ((1 + math.sqrt(5)) / 2) ** 4) < 1e-10


def test_perron_silver():
    eigs, v = builtin("silver").displacement.perron
    assert abs(eigs.real.max() - LAM) < 1e-14
    assert np.allclose(v, [LAM - 2, 3 - LAM], atol=1e-12)


def test_perron_one_type():
    eigs, v = DisplacementMatrix(SILVER, [[(SILVER.zero(),)]]).perron
    assert eigs.tolist() == [1.0] and v.tolist() == [1.0]


def test_perron_cap():
    eigs, v = builtin("cap").displacement.perron
    assert abs(eigs.real.max() - ((1 + math.sqrt(5)) / 2) ** 4) < 1e-10
    assert abs(v.sum() - 1.0) < 1e-12


def test_perron_rejects_reducible():
    z = SILVER.zero()
    disp = DisplacementMatrix(SILVER, [[(z,), ()], [(), (z,)]])
    assert disp.card_matrix().tolist() == [[1, 0], [0, 1]]
    with pytest.raises(ModelDataError, match="not primitive"):
        disp.perron   # noqa: B018


def test_patch_csv(tmp_path, silver):
    patch = inflate(seed_patch(silver), silver, 3)
    out = tmp_path / "patch.csv"
    patch_to_csv(patch, out, model=silver)
    lines = out.read_text().splitlines()
    assert lines[0] == "type,x,y"
    assert len(lines) == len(patch) + 1
    assert lines[1].startswith("a,")


def _csv_formatting_every_y(patch, path, model=None):
    """The former writer, which formatted the constant 1d y too."""
    labels = model.tile_labels if model is not None else None
    pos = patch.positions_phys()
    ys = pos[:, 1] if pos.shape[1] == 2 else np.zeros(len(pos))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("type,x,y\n")
        fh.writelines(
            f"{labels[ty] if labels else ty},{format(x, '.17g')},{format(y, '.17g')}\n"
            for ty, x, y in zip(patch.tile_types.tolist(), pos[:, 0].tolist(),
                                ys.tolist()))


@pytest.mark.parametrize("name,steps", [("silver", 12), ("cap", 2), ("cap", 4)])
def test_patch_csv_bytes(tmp_path, name, steps):
    """One %-format per point, with the literal 1d y column, writes the
    bytes of formatting each field, 0.0 too."""
    model = builtin(name)
    patch = inflate(seed_patch(model), model, steps)
    for labelled in (model, None):
        patch_to_csv(patch, tmp_path / "new.csv", model=labelled)
        _csv_formatting_every_y(patch, tmp_path / "old.csv", model=labelled)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()
    if name == "silver":
        assert len(patch) == 47321


def _csv_one_row_at_a_time(patch, path, model=None):
    """The per-row writer: one %-format and one write per point."""
    labels = model.tile_labels if model is not None else None
    pos = patch.positions_phys()
    fmt = "%s,%.17g,%.17g\n" if pos.shape[1] == 2 else "%s,%.17g,0\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("type,x,y\n")
        for ty, xy in zip(patch.tile_types.tolist(), pos.tolist()):
            fh.write(fmt % (labels[ty] if labels else ty, *xy))


def _silver_patch(steps):
    silver = builtin("silver")
    return silver, inflate(seed_patch(silver), silver, steps)


@pytest.mark.parametrize("case", ["silver-12", "cap-4", "block-multiple",
                                  "empty"])
def test_patch_csv_blocks_match_per_row_writer(tmp_path, case):
    """The block writer writes the bytes of the per-row writer: 1d rows
    across block boundaries, 2d rows with tile labels, a row count that
    is a multiple of the block, and a patch with no rows (header only)."""
    block = inflation._CSV_BLOCK
    if case == "cap-4":
        model = builtin("cap")
        patch = inflate(seed_patch(model), model, 4)
    else:
        model, patch = _silver_patch(12)
        if case == "block-multiple":
            patch = TypedPointSet(patch.field, patch.tile_types[:2 * block],
                                  patch.coords[:2 * block])
        elif case == "empty":
            patch = truncate(patch, 1.0, [1e6])
    expect = {"silver-12": 47321, "block-multiple": 2 * block, "empty": 0}
    assert len(patch) == expect.get(case, len(patch)) and len(patch) != block
    for labelled in (model, None):
        patch_to_csv(patch, tmp_path / "new.csv", model=labelled)
        _csv_one_row_at_a_time(patch, tmp_path / "ref.csv", model=labelled)
        got = (tmp_path / "new.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\n") == len(patch) + 1
