import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from tilediff import cps
from tilediff.algebra import (CAP, SILVER, SPECTRE, Surd, fraction_solve,
                              hermite_normal_form)
from tilediff.cps import (LatticeBasis, enumerate_module, internal_argument,
                          module_point)
from tilediff.models import DeformationMap, builtin

S2, S3, S5, S15 = (math.sqrt(x) for x in (2, 3, 5, 15))


@pytest.fixture(scope="module")
def silver():
    return builtin("silver")


@pytest.fixture(scope="module")
def cap():
    return builtin("cap")


@pytest.fixture(scope="module")
def casper():
    return builtin("casper_scaffold")


def test_silver_dual_columns(silver):
    lat = silver.lattice
    assert np.allclose(lat.columns, [[1, S2], [1, -S2]])
    dual = lat.dual()
    assert np.allclose(dual.columns, [[0.5, S2 / 4], [0.5, -S2 / 4]])
    # physical projections generate sqrt2/4 * Z[sqrt2]
    assert dual.generators[0].coords == (Fraction(1, 2), 0)
    assert dual.generators[1].coords == (0, Fraction(1, 4))


def test_identity_basis_dual():
    lat = LatticeBasis([SPECTRE.one(), SPECTRE.gen("xi"),
                        SPECTRE.gen("lam"), SPECTRE.gen("xilam")])
    dd = lat.dual().dual()
    for g, h in zip(lat.generators, dd.generators):
        assert g.coords == h.coords
    assert lat.dual() is lat.dual() and dd is lat.dual().dual()   # built once


def test_dual_basis_rejects_singular():
    one = SPECTRE.one()
    lat = LatticeBasis([one, one + one, SPECTRE.gen("lam"),
                        SPECTRE.gen("xilam")])
    with pytest.raises(ZeroDivisionError):
        lat.dual()


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap",
                                  "casper_scaffold"])
def test_duality_kronecker_exact(name):
    model = builtin(name)
    lat = model.lattice
    f = model.field
    for i, d in enumerate(lat.dual_generators):
        for j, g in enumerate(lat.generators):
            assert f.inner(d, g) == Fraction(int(i == j))


def test_lattice_densities():
    assert builtin("silver").lattice.gram_det == Fraction(8)      # (2 sqrt2)^2
    assert builtin("cap").lattice.gram_det == Fraction(135) ** 2
    assert builtin("casper_scaffold").lattice.gram_det == Fraction(3645) ** 2


def test_spectre_dual_generator_matrix(casper):
    # documented physical projections of the dual basis, 1/90 * [...]
    expect = np.array([
        [-5 + 2 * S15, -10 + 2 * S15, -5 + 2 * S15, -5 + S15],
        [-5 * S3 + 2 * S5, 10 * S3 - 8 * S5, 5 * S3 - 4 * S5,
         -5 * S3 + 5 * S5],
    ]) / 90.0
    got = casper.lattice.dual_columns[:2, :]
    assert np.max(np.abs(got - expect)) < 1e-10


def test_spectre_lattice_matrix(casper):
    expect = 1.5 * np.array([
        [-1, -5 - S15, 7 + 2 * S15, -2],
        [-3 * S3 - 2 * S5, -S3 - S5, 3 * S3 + 2 * S5, 2 * S3 + 2 * S5],
        [-1, -5 + S15, 7 - 2 * S15, -2],
        [3 * S3 - 2 * S5, S3 - S5, -3 * S3 + 2 * S5, -2 * S3 + 2 * S5]])
    assert np.max(np.abs(casper.lattice.columns - expect)) < 1e-10


def test_enumerate_silver_brute_force(silver):
    lat = silver.lattice
    pts = enumerate_module(lat, [0.0], 1.0, internal_cutoff=20.0)
    got = {p.coords for p in pts}
    # independent brute force over dual coordinates
    oracle = set()
    for m in range(-60, 61):
        for n in range(-60, 61):
            k = m / 2 + n * S2 / 4
            ki = m / 2 - n * S2 / 4
            if abs(k) <= 1 + 1e-9 and abs(ki) <= 20 + 1e-9:
                oracle.add((m, n))
    assert got == oracle
    assert (0, 1) in got and (1, 0) in got  # k = sqrt2/4 and k = 1/2


def test_enumerate_radius_zero(silver):
    pts = enumerate_module(silver.lattice, [0.0], 0.0, internal_cutoff=0.5)
    assert [p.coords for p in pts] == [(0, 0)]


def test_enumerate_requires_cutoff(silver):
    with pytest.raises(ValueError):
        enumerate_module(silver.lattice, [0.0], 1.0)


def test_enumerate_order_deterministic(cap):
    pts = enumerate_module(cap.lattice, np.zeros(2), 0.25, internal_cutoff=1.5)
    coords = [p.coords for p in pts]
    assert coords == sorted(coords)
    assert len(coords) == len(set(coords))


def test_module_point_projections(cap):
    p = module_point(cap.lattice, (1, -2, 0, 3))
    vec = cap.lattice.dual_columns @ np.array([1.0, -2.0, 0.0, 3.0])
    assert np.allclose(p.k_phys, vec[:2], atol=1e-12)
    assert np.allclose(p.k_int, vec[2:], atol=1e-12)
    # exact element projects to the same floats
    assert np.allclose(p.element.embed_phys(), p.k_phys, atol=1e-12)
    assert np.allclose(p.element.embed_int(), p.k_int, atol=1e-12)


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap",
                                  "casper_scaffold"])
def test_points_match_per_point_projection(name):
    lat = builtin(name).lattice
    C = np.random.default_rng(5).integers(-40, 41, size=(300, lat.rank))
    pts = lat.points(C)
    assert pts.coords.dtype == np.int64 and len(pts) == 300
    for c, kp, ki in zip(C, pts.k_phys, pts.k_int):
        vec = lat.dual_columns @ c.astype(float)
        assert kp.tobytes() == vec[:lat.dim].tobytes()
        assert ki.tobytes() == vec[lat.dim:].tobytes()


@pytest.mark.parametrize("name,deformation", [
    ("silver", "equal-lengths"), ("silver_twisted", "equal-lengths"),
    ("cap", "hat"), ("casper_scaffold", "hex"), ("casper_scaffold", "ht"),
    ("casper_scaffold", "spectre")])
def test_arguments_match_per_point_formula(name, deformation):
    model = builtin(name)
    lat = model.lattice
    d = model.deformations[deformation]
    C = np.random.default_rng(6).integers(-40, 41, size=(300, lat.rank))
    pts = lat.points(C)
    args = pts.arguments(d)
    for kp, ki, a in zip(pts.k_phys, pts.k_int, args):
        assert a.tobytes() == (ki - d.matrix.T @ kp).tobytes()
    same = DeformationMap("copy", d.rows)    # the rows alone set the arguments
    assert pts.arguments(same).tobytes() == args.tobytes()
    assert pts.arguments() is pts.k_int


def test_module_set_indexing(cap):
    pts = enumerate_module(cap.lattice, np.zeros(2), 0.25, internal_cutoff=1.5)
    n = len(pts)
    assert n > 10
    first, last = pts[0], pts[-1]
    assert first.coords == tuple(pts.coords[0].tolist())
    assert all(type(c) is int for c in first.coords)
    assert last.coords == tuple(pts.coords[n - 1].tolist())
    assert np.array_equal(last.k_phys, pts.k_phys[n - 1])
    assert np.array_equal(last.k_int, pts.k_int[n - 1])
    part = pts[2:7]
    assert len(part) == 5 and [p.coords for p in part] == \
        [pts[i].coords for i in range(2, 7)]
    picked = pts[np.array([4, 0, 4])]
    assert [p.coords for p in picked] == [pts[4].coords, pts[0].coords,
                                          pts[4].coords]
    assert np.array_equal(picked.k_int, pts.k_int[[4, 0, 4]])
    assert [p.coords for p in pts] == [tuple(c) for c in pts.coords.tolist()]
    with pytest.raises(ValueError):
        cap.lattice.points([(1, 2, 3)])


def test_enumerate_rejects_huge_boxes(cap, silver):
    with pytest.raises(ValueError, match="ceiling"):
        enumerate_module(cap.lattice, np.zeros(2), 0.6, internal_cutoff=100.0)
    with pytest.raises(ValueError, match="int64"):
        enumerate_module(silver.lattice, [1e300], 0.6, internal_cutoff=3.0)
    with pytest.raises(ValueError, match="int64"):
        enumerate_module(silver.lattice, [0.0], np.inf, internal_cutoff=3.0)


@pytest.mark.parametrize("radius,cutoff,match", [
    (0.6, -1.0, "internal_cutoff"), (0.6, -1e-12, "internal_cutoff"),
    (0.6, np.nan, "internal_cutoff"), (-1.0, 3.0, "radius"),
    (np.nan, 3.0, "radius")])
def test_enumerate_rejects_bad_bounds(cap, radius, cutoff, match):
    with pytest.raises(ValueError, match=match):
        enumerate_module(cap.lattice, (0, 0), radius, cutoff)


def _ball_box_scan(lattice, center, radius, internal_cutoff):
    """Reference only: scan the box that Cauchy-Schwarz gives on the ball
    around both discs, |m_i - <b_i, c>| <= |b_i| hypot(r, R), and sort the
    hits lexicographically.  Returns (coords, half-widths, candidates)."""
    d, eps = lattice.dim, 1e-9
    center = np.atleast_1d(np.asarray(center, dtype=float))
    ball = float(np.hypot(radius + eps, internal_cutoff + eps))
    y_center = np.concatenate([center, np.zeros(d)])
    halves, axes = [], []
    for b in lattice.columns.T:
        mid, half = float(b @ y_center), float(np.linalg.norm(b)) * ball
        halves.append(half)
        axes.append(np.arange(int(np.floor(mid - half)),
                              int(np.ceil(mid + half)) + 1, dtype=np.int64))
    rest = np.stack([g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")])
    hits = [np.zeros((0, lattice.rank), dtype=np.int64)]
    for m0 in axes[0]:   # one slice per first coordinate bounds the memory
        grid = np.vstack([np.full(rest.shape[1], m0, dtype=np.int64), rest])
        kp = lattice.dual_columns[:d] @ grid
        ki = lattice.dual_columns[d:] @ grid
        ok = (np.linalg.norm(kp - center[:, None], axis=0) <= radius + eps) \
            & (np.linalg.norm(ki, axis=0) <= internal_cutoff + eps)
        hits.append(grid[:, ok].T)
    coords = np.vstack(hits)
    return (coords[np.lexsort(coords.T[::-1])], np.array(halves),
            len(axes[0]) * rest.shape[1])


@pytest.mark.parametrize("name,center,radius,cutoff", [
    ("silver", (0.0,), 2.0, 3.0), ("silver", (3.7,), 50.0, 30.0),
    ("silver_twisted", (0.0,), 5.0, 3.0), ("silver_twisted", (3.7,), 2.0, 20.0),
    ("cap", (0.0, 0.0), 0.6, 3.0), ("cap", (0.01, 0.0), 0.25, 1.5),
    ("cap", (0.3, -0.2), 0.6, 3.0),
    ("casper_scaffold", (0.0, 0.0), 0.15, 1.2),
    ("casper_scaffold", (0.01, 0.0), 0.12, 1.0),
    ("casper_scaffold", (0.3, -0.2), 0.2, 1.2)])
def test_enumerate_matches_ball_box_scan(name, center, radius, cutoff,
                                         monkeypatch):
    lat = builtin(name).lattice
    want, old_halves, old_count = _ball_box_scan(lat, center, radius, cutoff)
    # the disc box lies inside the ball box: the old box size is admitted
    monkeypatch.setattr(cps, "MAX_CANDIDATES", old_count)
    got = enumerate_module(lat, center, radius, cutoff)
    assert len(want) > 50
    assert got.coords.dtype == np.int64 and np.array_equal(got.coords, want)
    ref = lat.points(want)
    assert got.k_phys.tobytes() == ref.k_phys.tobytes()
    assert got.k_int.tobytes() == ref.k_int.tobytes()
    # per axis, |b_phys| (r+eps) + |b_int| (R+eps) <= |b| hypot(r+eps, R+eps)
    cols, d, eps = lat.columns, lat.dim, 1e-9
    halves = np.linalg.norm(cols[:d], axis=0) * (radius + eps) \
        + np.linalg.norm(cols[d:], axis=0) * (cutoff + eps)
    assert np.all(halves <= old_halves)


def test_enumerate_casper_support_count(casper):
    """The casper r=0.5 support reference (the ball-box scan takes ~11 s)."""
    assert len(enumerate_module(casper.lattice, (0, 0), 0.5, 3.0)) == 80851


@pytest.mark.parametrize("name", ["silver", "cap", "casper_scaffold"])
def test_rational_coords_match_solve(name):
    """The cached exact inverse against a Gaussian solve per element."""
    lat = builtin(name).lattice
    A = [[g.coords[i] for g in lat.generators] for i in range(lat.rank)]
    for x in lat.dual_generators + lat.generators:
        expect = tuple(r[0] for r in fraction_solve(A, [[c] for c in x.coords]))
        assert lat.rational_coords(x) == expect


def test_internal_argument_silver(silver):
    lam = 1 + S2
    k = module_point(silver.lattice, (0, 1))  # k = sqrt2/4
    d = silver.deformations["equal-lengths"]
    # deformed argument k_int - D k with D = lam^-2
    expect = k.k_int - (3 - 2 * S2) * k.k_phys
    assert np.allclose(internal_argument(k, d), expect, atol=1e-14)
    assert np.allclose(internal_argument(k, None), k.k_int)
    # D = 0 leaves the internal projection untouched
    zero = DeformationMap("zero", ((Surd(),),))
    assert np.allclose(internal_argument(k, zero), k.k_int)


# The period and argument-lattice generators once written out by hand in
# the model catalog, now derived from each deformation's rows.
_TAU, _XI = CAP.gen("tau"), CAP.gen("xi")
_Q_HAT = (_TAU - 2 + 3 * _XI) / 12
_P_HAT = (1 + _XI) * (_TAU - _XI) ** 3 * (2 * _TAU - 1) * (2 * _XI - 1) / 45
_SQRT15 = SPECTRE.element([-4, 0, 1, 0])                     # lam - 4
_I5 = SPECTRE.element([Fraction(4, 3), Fraction(-8, 3), Fraction(-1, 3),
                       Fraction(2, 3)])                     # i*sqrt5
_HEX = _SQRT15 / 45
_HT = (5 + 2 * _SQRT15 - 2 * _I5) / 45
_SXI = SPECTRE.gen("xi")
_SILVER_EQUAL = ((SILVER.element([Fraction(1, 2), Fraction(1, 4)]),),
                 (1 - SILVER.gen("sqrt2"),))
DOCUMENTED = {   # (model, deformation): (periods, argument lattice or None)
    ("silver", "equal-lengths"): _SILVER_EQUAL,
    ("silver_twisted", "equal-lengths"): _SILVER_EQUAL,
    ("cap", "hat"): ((_P_HAT, _XI * _P_HAT), (_Q_HAT, _XI * _Q_HAT)),
    ("casper_scaffold", "hex"): ((_HEX, _SXI * _HEX), None),
    ("casper_scaffold", "ht"): ((_HT, _SXI * _HT), None),
}


def _exact_argument(lat, d, coords) -> tuple:
    """k_int - D^T k_phys of the dual point with these coordinates, in Surds."""
    e = module_point(lat, coords).element
    phys = e.embed_phys_exact()
    return tuple(s - sum((x * y for x, y in zip(row, phys)), Surd())
                 for s, row in zip(e.star().embed_phys_exact(), zip(*d.rows)))


def _lattice_hnf(vectors) -> list:
    """Column Hermite normal form of the lattice spanned by Surd vectors,
    split by (axis, radicand): two sets span the same lattice exactly when
    each lies in the other's span, that is when these forms are equal."""
    terms = sorted({(a, m) for v in vectors for a, x in enumerate(v)
                    for m in x.terms})
    cols = [[v[a].terms.get(m, Fraction(0)) for a, m in terms] for v in vectors]
    scale = math.lcm(*(x.denominator for col in cols for x in col))
    return terms, hermite_normal_form([[int(x * scale) for x in row]
                                       for row in zip(*cols)])[0]


@pytest.mark.parametrize("name,deformation", sorted(DOCUMENTED))
def test_derived_lattices_equal_documented(name, deformation):
    """The periods and the argument lattice derived from the rows span
    exactly the documented lattices, both inclusions checked exactly."""
    model = builtin(name)
    d = model.deformations[deformation]
    lat = model.lattice
    periods, image = DOCUMENTED[name, deformation]
    derived = lat.periods(d).coords
    assert derived.dtype == np.int64 and not derived.flags.writeable
    documented = [lat.dual().integer_coords(p) for p in periods]
    assert hermite_normal_form(derived.T.tolist())[0] \
        == hermite_normal_form(np.array(documented).T.tolist())[0]
    L, Q = lat.argument_lattice(d)
    assert L.shape == (model.dim, lat.rank) and Q.shape == (model.dim,) * 2
    # the derived generators are the arguments of c_i with L c_i = e_i
    _, U, rank = hermite_normal_form(L.tolist())
    right = np.array(U)[:, :rank]
    assert np.array_equal(L @ right, np.eye(model.dim))
    gens = [_exact_argument(lat, d, c) for c in right.T.tolist()]
    assert np.allclose([[float(x) for x in g] for g in gens], Q.T,
                       rtol=0, atol=1e-15)
    if image is not None:
        assert _lattice_hnf(gens) == _lattice_hnf([g.embed_phys_exact()
                                                   for g in image])


def test_spectre_arguments_are_dense(casper):
    """rank Phi = 4 > dim: no periods and no argument lattice."""
    d = casper.deformations["spectre"]
    assert len(casper.lattice.periods(d)) == 0
    assert casper.lattice.argument_lattice(d) is None


def test_hat_argument_lattice(cap):
    d = cap.deformations["hat"]
    _, Q = cap.lattice.argument_lattice(d)
    DT = d.matrix.T
    rng = np.random.default_rng(11)
    cols = cap.lattice.dual_columns
    for _ in range(200):
        coords = rng.integers(-10, 11, size=4).astype(float)
        vec = cols @ coords
        arg = vec[2:] - DT @ vec[:2]
        c = np.linalg.solve(Q, arg)
        assert np.max(np.abs(c - np.round(c))) < 1e-10


def _argument_action(lat, d, x):
    """Exact X with X L == L R for x's action R, or None (L has full row rank,
    so X is unique when it exists)."""
    L, _ = lat.argument_lattice(d)
    R = lat.dual_action(x)
    as_q = lambda m: [[Fraction(int(v)) for v in row] for row in m.tolist()]
    Xt = fraction_solve(as_q(L @ L.T), as_q((L @ R @ L.T).T))
    X = [[Xt[j][i] for j in range(len(Xt))] for i in range(len(Xt))]
    if any(v.denominator != 1 for row in X for v in row):
        return None
    X = np.array(X, dtype=np.int64)
    return X if np.array_equal(X @ L, L @ R) else None


def test_argument_action_of_xi_on_hat(cap):
    d = cap.deformations["hat"]
    xi = cap.field.gen("xi")
    L, _ = cap.lattice.argument_lattice(d)
    X = _argument_action(cap.lattice, d, xi)
    R = cap.lattice.dual_action(xi)
    assert X.tolist() == [[1, 1], [-1, 0]] and np.array_equal(L @ R, X @ L)
    # the transpose is no action: rows would not map to rows
    assert not np.array_equal(L @ R, X.T @ L)
    # xi_int turns the arguments by -60 degrees, exactly on the keys
    coords = np.random.default_rng(13).integers(-9, 10, size=(50, 4))
    args = cap.lattice.points(coords).arguments(d)
    turned = cap.lattice.points(coords @ R.T).arguments(d)
    c, s = 0.5, S3 / 2
    assert np.allclose(turned, args @ np.array([[c, -s], [s, c]]))
    assert np.array_equal((coords @ R.T) @ L.T, (coords @ L.T) @ X.T)
    # tau does not act on the hat arguments, and dense arguments have no keys
    assert _argument_action(cap.lattice, d, cap.field.gen("tau")) is None
    quarter = dataclasses.replace(d, rows=((Surd.rational(Fraction(1, 4)), Surd()),
                                           (Surd(), Surd.rational(Fraction(1, 4)))))
    assert cap.lattice.argument_lattice(quarter) is None


@pytest.mark.parametrize("name,deformation,expect", [
    ("cap", "hat", [[-1, 3, 1, -2], [1, -2, 0, -1]]),
    ("silver", "equal-lengths", [[-1, 1]]),
    ("silver_twisted", "equal-lengths", [[-1, 1]])])
def test_argument_lattice_is_exact(name, deformation, expect):
    """The lattice is derived in rationals: rows that miss it by 1e-15 make
    the arguments dense, where a float rank test would keep the lattice."""
    model = builtin(name)
    d = model.deformations[deformation]
    lat = model.lattice
    L, Q = lat.argument_lattice(d)
    assert L.dtype == np.int64 and L.tolist() == expect
    assert not L.flags.writeable and not Q.flags.writeable
    assert lat.argument_lattice(d)[0] is L      # cached per deformation
    coords = np.random.default_rng(12).integers(-10, 11, size=(200, lat.rank))
    assert np.max(np.abs((coords @ L.T) @ Q.T
                         - lat.points(coords).arguments(d))) < 1e-12
    rows = ((d.rows[0][0] + Fraction(1, 10 ** 15),) + d.rows[0][1:],) + d.rows[1:]
    near = dataclasses.replace(d, rows=rows)
    assert lat.argument_lattice(near) is None
    assert len(lat.periods(near)) == 0


@pytest.mark.parametrize("name,defs", [("silver", ["equal-lengths"]),
                                       ("cap", ["hat"]),
                                       ("casper_scaffold", ["hex", "ht"])])
def test_periods_lie_in_deformation_kernel(name, defs):
    """Period generators satisfy p_int = D^T p_phys, exactly and in floats.

    This is why the deformed argument map factors through a rank-2
    quotient and the deformed intensities are exactly lattice-periodic.
    """
    model = builtin(name)
    for dname in defs:
        d = model.deformations[dname]
        periods = model.lattice.periods(d)
        assert len(periods) == model.dim
        assert np.max(np.linalg.norm(periods.arguments(d), axis=1)) < 1e-10
        for c in periods.coords.tolist():
            assert not any(_exact_argument(model.lattice, d, c))


def test_ht_lattice_constant_exact(casper):
    f = casper.field
    periods = casper.lattice.periods(casper.deformations["ht"])
    lengths = np.linalg.norm(periods.k_phys, axis=1)
    assert lengths[0] <= lengths.min() + 1e-15      # the first is a shortest
    p = periods[0].element
    sq = p * p.conj()
    assert sq.coords == f.element(
        [Fraction(1, 81), 0, Fraction(4, 405), 0]).coords
    lam = 4 + S15
    assert abs(lengths.min() - math.sqrt((4 * lam + 5) / 405)) < 1e-12


@pytest.mark.parametrize("name", ["cap", "casper_scaffold"])
def test_fourier_module_prefactor_form(name):
    """Dual module equals the documented prefactor ideal (both inclusions)."""
    model = builtin(name)
    f = model.field
    if name == "cap":
        tau, xi = f.gen("tau"), f.gen("xi")
        pref = (1 + xi) * (tau - xi) * (2 * tau - 1) * (2 * xi - 1) / 45
        alt_gens = [pref, pref * tau, pref * xi, pref * tau * xi]
    else:
        i5 = f.element([Fraction(4, 3), Fraction(-8, 3), Fraction(-1, 3),
                        Fraction(2, 3)])
        alt_gens = [i5 / 135 * g for g in model.generators]
    dual = model.lattice.dual()
    alt = LatticeBasis(alt_gens)
    for g in dual.generators:
        assert alt.integer_coords(g) is not None
    for g in alt_gens:
        assert dual.integer_coords(g) is not None
