import dataclasses
import json
import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilediff.algebra import CAP, SILVER, Surd
from tilediff.models import (DisplacementMatrix, ModelDataError, builtin,
                             builtin_names, displacement_from_dict,
                             displacement_to_dict, load_displacement,
                             save_displacement, validate_symmetry)
from tilediff.verify import verification_suite

S2, S3, S5, S15 = (math.sqrt(x) for x in (2, 3, 5, 15))
TAU = (1 + S5) / 2


def power_iteration(M, iters=400):
    """Independent PF oracle used to cross-check eigenvalue claims."""
    v = np.ones(M.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        lam = np.linalg.norm(w)
        v = w / lam
    return lam


def test_builtin_names_complete():
    assert set(builtin_names()) == {"silver", "silver_twisted", "cap",
                                    "casper_scaffold"}


def test_silver_builtin():
    m = builtin("silver")
    assert m.n_tiles == 2
    M = m.displacement.card_matrix()
    assert M.tolist() == [[1, 1], [2, 1]]
    assert np.isclose(m.pf_eigenvalue.embed_phys()[0], 1 + S2)
    # displacement entries as documented
    e = m.displacement.entries
    assert {t.coords for t in e[1][0]} == {(0, 1), (1, 1)}  # {sqrt2, 1+sqrt2}
    assert {t.coords for t in e[1][1]} == {(0, 1)}


def test_twisted_builtin():
    m = builtin("silver_twisted")
    e = m.displacement.entries
    assert {t.coords for t in e[0][0]} == {(2, 0)}
    assert {t.coords for t in e[0][1]} == {(0, 0)}
    assert {t.coords for t in e[1][0]} == {(0, 0), (1, 0)}
    assert {t.coords for t in e[1][1]} == {(0, 1)}
    assert m.displacement.card_matrix().tolist() == [[1, 1], [2, 1]]


def test_cap_builtin():
    m = builtin("cap")
    assert m.n_tiles == 24
    M = m.displacement.card_matrix()
    lam = power_iteration(M.astype(float))
    assert abs(lam - TAU ** 4) < 1e-10
    # every translation lies in the return module (exact integer solve)
    lat = m.lattice
    for _, _, t in m.displacement.iter_translations():
        assert lat.integer_coords(t) is not None


def test_cap_data_matches_sixfold_orbit_completion():
    """Regenerate the 24x24 matrix from the first-orientation seeds."""
    seeds = {
        (1, 2): {1: [(1, -1, -2, -1)]},
        (2, 1): {2: [(1, 4, 1, 1)]},
        (2, 2): {1: [(0, 0, 0, 0), (1, 3, -2, -3)], 3: [(1, 4, 1, 1)]},
        (2, 3): {2: [(4, 8, -2, -4)], 3: [(1, 4, 1, 1)]},
        (2, 4): {2: [(4, 8, -2, -4)], 3: [(1, 4, 1, 1)]},
        (3, 2): {4: [(-3, -4, 3, 5)], 5: [(-1, -1, 2, 5)], 6: [(-3, -5, 0, 1)]},
        (3, 3): {6: [(-3, -5, 0, 1)]},
        (3, 4): {6: [(-3, -5, 0, 1)]},
        (4, 2): {2: [(1, 3, -2, -3)], 4: [(-2, -1, 1, 2)], 6: [(-2, -2, -2, -2)]},
        (4, 3): {2: [(1, 3, -2, -3)], 5: [(-6, -9, 3, 6)]},
        (4, 4): {1: [(1, 2, -5, -7)], 2: [(1, 3, -2, -3)], 5: [(-6, -9, 3, 6)]},
    }
    xi = CAP.gen("xi")
    expected = [[set() for _ in range(24)] for _ in range(24)]
    for (i_shape, j_shape), cols in seeds.items():
        for c0, vecs in cols.items():
            for r in range(6):
                row = (i_shape - 1) * 6 + r
                col = (j_shape - 1) * 6 + (c0 - 1 + r) % 6
                for v in vecs:
                    el = CAP.element(v)
                    for _ in range(r):
                        el = xi * el
                    expected[row][col].add(el.coords)
    disp = builtin("cap").displacement
    for i in range(24):
        for j in range(24):
            assert {t.coords for t in disp.entries[i][j]} == expected[i][j], (i, j)


def test_casper_scaffold():
    m = builtin("casper_scaffold")
    assert not m.has_displacement
    with pytest.raises(ModelDataError):
        m.require_displacement()
    assert set(m.deformations) == {"hex", "ht", "spectre"}
    # expansion is a matrix square root of lam * identity
    R = m.phys_expansion_matrix
    lam = 4 + S15
    assert np.allclose(R @ R, lam * np.eye(2), atol=1e-12)
    assert np.allclose(R, np.array([[9 + 2 * S15, -S3], [-S3, -9 - 2 * S15]]) / 6)
    Rs = m.int_contraction_matrix
    assert np.allclose(Rs, np.array([[9 - 2 * S15, S3], [S3, -9 + 2 * S15]]) / 6)
    assert np.allclose(Rs @ Rs, (4 - S15) * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("name", builtin_names())
def test_contraction_is_starred_expansion(name):
    m = builtin(name)
    assert m.contraction.coords == m.expansion.star().coords
    # PV property: the embedded contraction has spectral radius < 1
    assert np.max(np.abs(np.linalg.eigvals(m.int_contraction_matrix))) < 1.0


def test_unknown_model():
    with pytest.raises(KeyError):
        builtin("penrose")


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_is_shared(name):
    assert builtin(name) is builtin(name)


def test_builtin_is_frozen():
    cap = builtin("cap")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cap.default_iters = 3
    with pytest.raises(TypeError):
        cap.deformations["x"] = cap.deformations["hat"]
    with pytest.raises(ValueError):
        cap.displacement.stars[0, 0] = 0.0
    with pytest.raises(ValueError):
        cap.int_contraction_matrix[0, 0] = 0.0
    assert set(cap.deformations) == {"hat"}


def test_with_displacement_is_a_distinct_model():
    cap = builtin("cap")
    disp = DisplacementMatrix(cap.field, cap.displacement.entries)
    other = cap.with_displacement(disp)
    assert other is not cap and other.displacement is disp
    for f in dataclasses.fields(cap):
        assert getattr(other, f.name) == getattr(cap, f.name), f.name
    assert other.evaluator is not cap.evaluator
    assert other.evaluator.model is other and cap.evaluator.model is cap


def _arrays(value, path):
    """(path, array) for every ndarray in ``value``, looking into tuples,
    lists and mappings."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _arrays(v, f"{path}[{i}]")
    elif isinstance(value, Mapping):
        for k, v in value.items():
            yield from _arrays(v, f"{path}[{k!r}]")


@pytest.mark.parametrize("name", builtin_names())
def test_shared_model_arrays_are_read_only(name):
    """No array cached on a shared model, or on what it caches, is writeable:
    one caller writing into one would change every later command."""
    model = builtin(name)
    lat, dual = model.lattice, model.lattice.dual()
    for basis in (lat, dual):
        basis.columns, basis.dual_columns          # noqa: B018  (fill the caches)
    action = lat.dual_action(model.field.one())
    model.phys_expansion_matrix, model.int_contraction_matrix  # noqa: B018
    model.expansion_coords                         # noqa: B018
    owners = {"model": model, "lattice": lat, "dual": dual, "field": model.field}
    for key, d in model.deformations.items():
        d.matrix                                   # noqa: B018
        owners[f"deformation {key}"] = d
    expect = {"lattice.columns", "lattice.dual_columns", "dual.columns",
              "dual.dual_columns", "field.phys_columns", "field.int_columns",
              "model.phys_expansion_matrix", "model.int_contraction_matrix",
              "model.expansion_coords"}
    expect |= {f"deformation {key}.matrix" for key in model.deformations}
    if model.has_displacement:
        model.translation_coords                   # noqa: B018
        owners.update(evaluator=model.evaluator, displacement=model.displacement)
        expect |= {"model.translation_coords", "displacement.rows",
                   "displacement.cols", "displacement.stars",
                   "displacement.row_start"}
        expect |= {f"evaluator.{a}" for a in (
            "_t_star", "_phase", "_row_start", "_cells", "_cell_start",
            "M", "left", "right")}
    arrays = [(f"{owner}.{path}", a) for owner, obj in owners.items()
              for key, value in vars(obj).items() for path, a in _arrays(value, key)]
    assert expect <= {path for path, _ in arrays}
    assert any(a is action for _, a in arrays)     # the dual_action cache
    assert [path for path, a in arrays if a.flags.writeable] == []


def test_verify_window_volume():
    def status(model):
        return {c.name: c.status for c in verification_suite(model)}

    silver = builtin("silver")
    assert status(silver)["window-volume"] == "PASS"
    assert "window-volume" not in status(builtin("cap"))
    wrong = dataclasses.replace(silver, window_volume=Surd({1: 1, 2: 2}))
    assert status(wrong)["window-volume"] == "FAIL"


def test_density_metadata_exact():
    # dens(lattice) * vol(W) equals the stored density, exactly in surds
    silver_check = Surd.root(2, Fraction(1, 4)) * Surd({1: 1, 2: 1})
    assert silver_check == Surd({1: Fraction(1, 2), 2: Fraction(1, 4)})
    casper_vol = Surd({3: 270, 5: Fraction(-405, 2)})  # 135/2 (4 sqrt3 - 3 sqrt5)
    c = casper_vol * Surd.rational(Fraction(1, 3645))
    expect = Surd({3: Fraction(4, 54), 5: Fraction(-3, 54)})
    assert c == expect
    # and its square is the documented squared density
    sq = c * c
    assert sq == Surd({1: Fraction(31, 972), 15: Fraction(-8, 972)})
    m = builtin("casper_scaffold")
    assert abs(float(sq) - m.density ** 2) < 1e-15


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap"])
def test_density_squared_matches_embedding(name):
    m = builtin(name)
    assert m.density > 0
    assert abs(m.density ** 2 - m.density_sq.embed_phys()[0]) < 1e-15


def test_displacement_roundtrip(tmp_path):
    m = builtin("silver")
    path = tmp_path / "silver.json"
    save_displacement(m.displacement, path)
    loaded = load_displacement(path)
    assert loaded == m.displacement
    # and the cap data round-trips bit-exactly through the schema
    d = displacement_from_dict(displacement_to_dict(builtin("cap").displacement))
    assert d == builtin("cap").displacement


def test_load_rejects_translation_outside_module(tmp_path):
    # a half-integer coordinate is not in Z[sqrt2]; the error names the entry
    for i, j, k in [(0, 0, 0), (1, 0, 1)]:
        data = displacement_to_dict(builtin("silver").displacement)
        data["entries"][i][j][k][0] = [1, 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        disp = load_displacement(path)  # structurally fine
        with pytest.raises(ModelDataError,
                           match=rf"entry \({i},{j}\) outside the return module"):
            builtin("silver").with_displacement(disp)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelDataError):
        load_displacement(path)
    path.write_text(json.dumps({"field": "nosuch", "n": 1, "entries": [[[]]]}))
    with pytest.raises(ModelDataError):
        load_displacement(path)
    path.write_text(json.dumps({"field": "silver", "n": 2, "entries": [[[]]]}))
    with pytest.raises(ModelDataError, match="2x2"):
        load_displacement(path)
    path.write_bytes(b"\xff\xfe\x00" + json.dumps({"n": 1}).encode("utf-16-le"))
    with pytest.raises(ModelDataError, match="invalid JSON"):   # not UTF-8
        load_displacement(path)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_displacement_from_dict_fuzz(data):
    """Any JSON-shaped dict either loads or raises ModelDataError.

    Starts from valid silver data and replaces one node, at any depth,
    by arbitrary JSON, so every level of the schema sees bad input.
    """
    doc = displacement_to_dict(builtin("silver").displacement)
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 7))):
        if not (isinstance(node, (dict, list)) and node):
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        doc = data.draw(st.dictionaries(st.text(max_size=6), _json))
    else:
        parent[key] = data.draw(st.integers(-3, 3) | _json)
    try:
        disp = displacement_from_dict(doc)
    except ModelDataError:
        return
    assert isinstance(disp, DisplacementMatrix) and disp.n == doc["n"]


@pytest.mark.parametrize("data", [
    [], "silver", None,
    {"field": "silver", "n": 2, "entries": [[1, 2], [3, 4]]},
    {"field": "silver", "n": 1, "entries": [[[[["a", 1], [0, 1]]]]]},
    {"field": "silver", "n": 1, "entries": [[[[[1.5, 1], [0, 1]]]]]},
    # starred images that overflow float conversion or the float embedding
    {"field": "silver", "n": 1, "entries": [[[[[10 ** 400, 1], [0, 1]]]]]},
    {"field": "silver", "n": 1,
     "entries": [[[[[10 ** 308, 1], [-10 ** 308, 1]]]]]}])
def test_displacement_from_dict_rejects(data):
    with pytest.raises(ModelDataError):
        displacement_from_dict(data)


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap",
                                  "synthetic-spectre"])
def test_translation_table(name):
    """rows, cols and stars list iter_translations() with starred images."""
    from test_cocycle import _with_synthetic_spectre_data
    model = _with_synthetic_spectre_data() if name == "synthetic-spectre" \
        else builtin(name)
    disp = model.displacement
    flat = list(disp.iter_translations())
    assert disp.rows.dtype == disp.cols.dtype == np.int64
    assert disp.rows.tolist() == [i for i, _, _ in flat]
    assert disp.cols.tolist() == [j for _, j, _ in flat]
    assert np.all(np.diff(disp.rows) >= 0)
    assert disp.stars.shape == (len(flat), model.dim)
    assert np.array_equal(disp.stars,
                          np.array([t.embed_int() for _, _, t in flat]))
    assert disp.row_start.tolist() == [int(np.sum(disp.rows < i))
                                       for i in range(disp.n + 1)]
    assert np.array_equal(disp.card_matrix(), [[len(cell) for cell in row]
                                                for row in disp.entries])


def _entry_loop(disp, sources, linear, shift):
    """One step of the maps as a loop over the entries: the reference for
    DisplacementMatrix.images."""
    return [np.concatenate([sources[j] @ linear + shift(t)
                            for j in range(disp.n) for t in disp.entries[i][j]])
            for i in range(disp.n)]


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap",
                                  "synthetic-spectre"])
def test_images_match_entry_loop(name):
    from test_cocycle import _with_synthetic_spectre_data
    model = _with_synthetic_spectre_data() if name == "synthetic-spectre" \
        else builtin(name)
    disp, lat = model.displacement, model.lattice
    rng = np.random.default_rng(7)
    sizes = rng.integers(1, 5, size=disp.n)
    sizes[0] = 0                               # an empty source type
    ints = [rng.integers(-50, 50, size=(k, lat.rank)) for k in sizes]
    floats = [rng.normal(size=(k, model.dim)) for k in sizes]
    A = model.int_contraction_matrix.T
    cases = [
        (ints, model.expansion_coords, model.translation_coords,
         lambda t: np.array(lat.integer_coords(t), dtype=np.int64)),
        (floats, A, disp.stars, lambda t: t.embed_int())]
    for sources, linear, shifts, shift in cases:
        got = list(disp.images(sources, linear, shifts))
        ref = _entry_loop(disp, sources, linear, shift)
        assert len(got) == disp.n
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_displacement_needs_a_translation_per_type():
    z = SILVER.zero()
    with pytest.raises(ModelDataError, match="every tile type needs a translation"):
        DisplacementMatrix(SILVER, [[(z,), (z,)], [(), ()]])
    with pytest.raises(ModelDataError, match="every tile type needs a translation"):
        DisplacementMatrix(SILVER, [[(), ()], [(z,), (z,)]])


def _synthetic_casper_displacement(card):
    """Small displacement over the spectre field with given cardinalities."""
    m = builtin("casper_scaffold")
    gens = m.generators
    entries = []
    for i in range(len(card)):
        row = []
        for j in range(len(card)):
            cell = []
            for t in range(card[i][j]):
                el = m.field.zero() if t == 0 else gens[t - 1]
                cell.append(el)
            row.append(tuple(cell))
        entries.append(tuple(row))
    return DisplacementMatrix(m.field, entries)


def test_casper_accepts_matching_pf():
    # trace 8, det 1 -> leading eigenvalue 4 + sqrt15
    disp = _synthetic_casper_displacement([[4, 3], [5, 4]])
    loaded = builtin("casper_scaffold").with_displacement(disp)
    assert loaded.has_displacement
    assert loaded.n_tiles == 2


def test_casper_rejects_wrong_pf():
    disp = _synthetic_casper_displacement([[2, 1], [1, 1]])
    with pytest.raises(ModelDataError, match="eigenvalue"):
        builtin("casper_scaffold").with_displacement(disp)


def test_validate_symmetry_pass():
    rep = validate_symmetry(builtin("cap"))
    assert rep.exact_violations == []
    assert rep.max_numeric_residual < 1e-12
    assert rep.ok


def test_validate_symmetry_detects_fault():
    m = builtin("cap")
    entries = [list(row) for row in m.displacement.entries]
    i, j = next((i, j) for i in range(24) for j in range(24)
                if entries[i][j])
    cell = list(entries[i][j])
    cell[0] = cell[0] + m.field.one()  # perturb one translation by +1
    entries[i][j] = tuple(cell)
    from tilediff.models import ModelSpec
    bad = ModelSpec(m.name, m.field, m.tile_labels, m.generators, m.expansion,
                    m.antilinear, m.pf_eigenvalue,
                    DisplacementMatrix(m.field, entries), m.density_sq,
                    m.window_volume, m.fourier_module_doc, m.deformations,
                    m.orientations, m.internal_cutoff, m.default_iters)
    rep = validate_symmetry(bad)
    assert rep.exact_violations
    rows = {v[0] for v in rep.exact_violations}
    cols = {v[1] for v in rep.exact_violations}
    assert i in rows and j in cols  # the fault position is pinpointed
    assert not rep.ok


def test_validate_symmetry_requires_orientations():
    with pytest.raises(ModelDataError):
        validate_symmetry(builtin("silver"))
