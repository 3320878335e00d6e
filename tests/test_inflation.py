import math
from fractions import Fraction

import numpy as np
import pytest

from tilediff.cps import LatticeBasis
from tilediff.inflation import (inflate, patch_to_csv, pf_data, seed_patch,
                                substitution_matrix, truncate)
from tilediff.models import ModelDataError, builtin
from test_cocycle import _with_synthetic_spectre_data

S2 = math.sqrt(2)
LAM = 1 + S2


@pytest.fixture(scope="module")
def silver():
    return builtin("silver")


def test_one_step(silver):
    patch = inflate(seed_patch(silver), silver, 1)
    got = {(t, x.coords) for t, x in patch.points}
    assert got == {(0, (0, 0)), (1, (0, 1)), (1, (1, 1))}


def test_zero_steps_identity(silver):
    seed = seed_patch(silver, tile_type=1)
    assert inflate(seed, silver, 0).points == seed.points
    with pytest.raises(ValueError):
        inflate(seed, silver, -1)


def test_two_steps_word(silver):
    patch = inflate(seed_patch(silver), silver, 2)
    assert len(patch) == 7
    order = np.argsort(patch.positions_phys()[:, 0])
    word = "".join("ab"[patch.types()[i]] for i in order)
    assert word == "abbabab"


def test_point_counts_match_matrix_powers(silver):
    M = substitution_matrix(silver)
    for n in range(13):
        patch = inflate(seed_patch(silver), silver, n)
        counts = np.linalg.matrix_power(M, n) @ np.array([1, 0])
        assert len(patch) == counts.sum()
        types = patch.types()
        assert (types == 0).sum() == counts[0]
        assert (types == 1).sum() == counts[1]


def test_positions_in_return_module(silver):
    patch = inflate(seed_patch(silver), silver, 6)
    lat = silver.lattice
    for _, x in patch.points:
        assert lat.integer_coords(x) is not None


def test_type_frequencies_converge(silver):
    patch = inflate(seed_patch(silver), silver, 10)
    types = patch.types()
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
    assert patch.positions_phys().tobytes() == exact.tobytes()


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
    patch = inflate(seed_patch(cap).translated(cap.generators[0]), cap, 4)
    assert len(patch) == 442 and solved == [cap.generators[0].coords]


def test_inflate_rejects_inexact_seeds(silver):
    cap = builtin("cap")
    outside = seed_patch(cap).translated(cap.field.one())
    with pytest.raises(ValueError, match="outside the return module"):
        inflate(outside, cap, 1)
    far = seed_patch(silver).translated(silver.field.element([2 ** 52, 0]))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        inflate(far, silver, 1)
    with pytest.raises(ValueError):
        seed_patch(silver).translated(silver.field.element([Fraction(1, 2), 0]))


def test_truncate(silver):
    patch = inflate(seed_patch(silver), silver, 5)
    r = 10.0
    cut = truncate(patch, r)
    pos = cut.positions_phys()[:, 0]
    assert np.all(np.abs(pos) <= r + 1e-9)
    assert 0 < len(cut) < len(patch)


def test_substitution_matrices():
    assert substitution_matrix(builtin("silver")).tolist() == [[1, 1], [2, 1]]
    assert substitution_matrix(builtin("silver_twisted")).tolist() == [[1, 1], [2, 1]]
    M = substitution_matrix(builtin("cap"))
    assert M.shape == (24, 24)
    lam = np.max(np.abs(np.linalg.eigvals(M.astype(float))))
    assert abs(lam - ((1 + math.sqrt(5)) / 2) ** 4) < 1e-10


def test_pf_data_silver():
    lam, u, v = pf_data(np.array([[1, 1], [2, 1]]))
    u = u * (4 / (2 + S2))   # <u|v> = 1, times the reciprocal density
    assert abs(lam - LAM) < 1e-14
    assert np.allclose(v, [LAM - 2, 3 - LAM], atol=1e-12)
    assert np.allclose(u, [S2, 1.0], atol=1e-12)


def test_pf_data_identity():
    lam, u, v = pf_data(np.array([[1]]))
    assert lam == 1.0
    assert np.allclose(u, [1.0]) and np.allclose(v, [1.0])


def test_pf_data_cap():
    lam, _, v = pf_data(substitution_matrix(builtin("cap")))
    assert abs(lam - ((1 + math.sqrt(5)) / 2) ** 4) < 1e-10
    assert abs(v.sum() - 1.0) < 1e-12


def test_pf_data_rejects_non_primitive():
    with pytest.raises(ValueError):
        pf_data(np.eye(2, dtype=int))


def test_patch_csv(tmp_path, silver):
    patch = inflate(seed_patch(silver), silver, 3)
    out = tmp_path / "patch.csv"
    patch_to_csv(patch, out, model=silver)
    lines = out.read_text().splitlines()
    assert lines[0] == "type,x,y"
    assert len(lines) == len(patch) + 1
    assert lines[1].startswith("a,")
