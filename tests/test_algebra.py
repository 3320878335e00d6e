import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilediff.algebra import (CAP, FIELDS, SILVER, SPECTRE, FieldMismatchError,
                              FieldSpec, Generator, Surd, _cx_mul, fraction_det,
                              fraction_matrix_inverse, fraction_solve,
                              hermite_normal_form)

S2 = math.sqrt(2.0)


def _self_check(field: FieldSpec) -> None:
    """Verify the derived tables: multiplication is commutative and
    associative, star multiplicative; the relations hold in the exact
    physical embedding and conj conjugates it; the float columns match
    the exact ones and ``embed_int`` is a ring map (both to 1e-12)."""
    basis = [field.gen(name) for name in field.basis_names]
    flip = (1, -1)[:field.dim]
    for a in basis:
        ea = a.embed_phys_exact()
        if a.conj().embed_phys_exact() != tuple(s * x for s, x in zip(flip, ea)):
            raise AssertionError("conj is not complex conjugation")
        for b in basis:
            ab = a * b
            if ab.coords != (b * a).coords:
                raise AssertionError("multiplication not commutative")
            if ab.star().coords != (a.star() * b.star()).coords:
                raise AssertionError("star is not multiplicative")
            if ab.embed_phys_exact() != _cx_mul(ea, b.embed_phys_exact()):
                raise AssertionError("relations do not hold in the embedding")
            got = _cx_mul(a.embed_int(), b.embed_int())
            if np.max(np.abs(np.subtract(got, ab.embed_int()))) > 1e-12:
                raise AssertionError("embed_int is not a ring homomorphism")
            for c in basis:
                if (ab * c).coords != (a * (b * c)).coords:
                    raise AssertionError("multiplication not associative")
    exact = np.array([[float(x) for x in row] for row in field.exact_phys_columns])
    if np.max(np.abs(exact - field.phys_columns)) > 1e-12:
        raise AssertionError("exact and float physical embeddings differ")


@pytest.mark.parametrize("field", [SILVER, CAP, SPECTRE], ids=lambda f: f.name)
def test_field_structure(field):
    _self_check(field)


def test_self_check_tests_the_definition():
    """A relation, a conj image or a star image that disagrees with the
    rest of the definition fails the check."""
    sqrt2 = dict(star=(0, -1), conj=(0, 1), embedding=(Surd.root(2),))
    _self_check(FieldSpec("ok", [Generator("r", (2, 0), **sqrt2)]))
    with pytest.raises(AssertionError, match="relations"):
        _self_check(FieldSpec("bad", [Generator("r", (3, 0), **sqrt2)]))
    xi = dict(relation=(-1, 1), star=(1, -1),
              embedding=(Fraction(1, 2), Surd.root(3, Fraction(1, 2))))
    with pytest.raises(AssertionError, match="conj"):
        _self_check(FieldSpec("bad", [Generator("xi", conj=(0, 1), **xi)]))
    with pytest.raises(AssertionError, match="star"):
        _self_check(FieldSpec("bad", [Generator("r", (2, 0), star=(1, -1),
                                                conj=(0, 1),
                                                embedding=(Surd.root(2),))]))


def test_embedding_columns_are_the_rounded_products():
    """phys_columns and int_columns, byte for byte, as the float products of
    the rounded generator images: cap's tau*xi is tau * (sqrt3/2), which
    float() of the exact sqrt3/4 + sqrt15/4 misses by one ulp."""
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
    tau, lam = (1.0 + math.sqrt(5.0)) / 2.0, 4.0 + math.sqrt(15.0)
    phys = {
        "silver": [[1.0, s2]],
        "cap": [[1.0, tau, 0.5, tau / 2.0],
                [0.0, 0.0, s3 / 2.0, tau * s3 / 2.0]],
        "spectre": [[1.0, 0.5, lam, lam / 2.0],
                    [0.0, s3 / 2.0, 0.0, lam * s3 / 2.0]],
    }
    star = {
        "silver": [(1, 0), (0, -1)],
        "cap": [(1, 1, 1, 1), (0, -1, 0, -1), (0, 0, -1, -1), (0, 0, 0, 1)],
        "spectre": [(1, 1, 8, 8), (0, -1, 0, -8), (0, 0, -1, -1), (0, 0, 0, 1)],
    }
    for name, field in FIELDS.items():
        P = np.array(phys[name])
        assert field.star_matrix == tuple(star[name])
        assert field.phys_columns.shape == P.shape
        assert field.phys_columns.tobytes() == P.tobytes(), name
        assert field.int_columns.tobytes() == (P @ np.array(star[name], float)).tobytes()


def coords_strategy(degree):
    q = st.fractions(min_value=-50, max_value=50, max_denominator=20)
    return st.tuples(*[q] * degree)


@pytest.mark.parametrize("field", [SILVER, CAP, SPECTRE], ids=lambda f: f.name)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_star_is_involution(field, data):
    coords = data.draw(coords_strategy(field.degree))
    x = field.element(coords)
    assert x.star().star().coords == x.coords


@pytest.mark.parametrize("field", [SILVER, CAP, SPECTRE], ids=lambda f: f.name)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_star_is_ring_map(field, data):
    a = field.element(data.draw(coords_strategy(field.degree)))
    b = field.element(data.draw(coords_strategy(field.degree)))
    assert (a * b).star().coords == (a.star() * b.star()).coords
    assert (a + b).star().coords == (a.star() + b.star()).coords


@pytest.mark.parametrize("field", [SILVER, CAP, SPECTRE], ids=lambda f: f.name)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_embeddings_multiplicative(field, data):
    a = field.element(data.draw(coords_strategy(field.degree)))
    b = field.element(data.draw(coords_strategy(field.degree)))
    za, zb = complex(*a.embed_phys()), complex(*b.embed_phys())
    scale = max(1.0, abs(za) * abs(zb))
    assert abs(complex(*(a * b).embed_phys()) - za * zb) <= 1e-9 * scale
    assert np.allclose((a * b).embed_int(),
                       (a.star() * b.star()).embed_phys(), atol=1e-9 * scale)


def test_addition_examples():
    tau, one = CAP.gen("tau"), CAP.one()
    assert ((one + tau) + (tau - one)).coords == (2 * tau).coords
    x = CAP.element([3, -2, 1, 5])
    assert (x + CAP.zero()).coords == x.coords
    u2 = CAP.element([1, 2, 1, -1])
    u4 = CAP.element([-1, 1, 2, 1])
    assert (u2 + u4).coords == CAP.element([0, 3, 3, 0]).coords


def test_multiplication_examples():
    r = SILVER.gen("sqrt2")
    assert (r * r).coords == SILVER.rational(2).coords
    xi = CAP.gen("xi")
    assert (xi * xi).coords == (xi - 1).coords
    lam = SPECTRE.gen("lam")
    assert (lam * lam).coords == (8 * lam - 1).coords


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        SILVER.one() + CAP.one()
    with pytest.raises(FieldMismatchError):
        SILVER.gen("sqrt2") * SPECTRE.gen("lam")


def test_star_examples():
    r = SILVER.gen("sqrt2")
    assert r.star().coords == (-r).coords
    tau, xi = CAP.gen("tau"), CAP.gen("xi")
    assert tau.star().coords == (1 - tau).coords
    assert xi.star().coords == (1 - xi).coords
    # (2 tau - 1)(2 xi - 1) embeds to i*sqrt15 and is fixed by the star map
    i15 = (2 * tau - 1) * (2 * xi - 1)
    assert i15.star().coords == i15.coords
    assert np.allclose(i15.embed_phys(), [0.0, math.sqrt(15.0)])


def test_embedding_examples():
    x = SILVER.element([1, 1])
    assert np.allclose(x.embed_phys(), [1 + S2])
    assert np.allclose(x.embed_int(), [1 - S2])

    u1 = CAP.element([2, 3, -1, 0])
    s3, s5 = math.sqrt(3), math.sqrt(5)
    assert np.allclose(u1.embed_phys(), [(12 + 6 * s5) / 4, -2 * s3 / 4])
    assert np.allclose(u1.embed_int(), [(12 - 6 * s5) / 4, 2 * s3 / 4])
    # the internal image is the physical embedding of the star image
    star = u1.star()
    assert star.coords == CAP.element([4, -3, 1, 0]).coords
    assert np.allclose(u1.embed_int(), star.embed_phys())

    xl = SPECTRE.gen("xilam")
    s15 = math.sqrt(15)
    assert np.allclose(xl.embed_phys(),
                       [(4 + s15) / 2, (4 * s3 + 3 * s5) / 2])
    assert np.allclose(xl.embed_int(),
                       [(4 - s15) / 2, (-4 * s3 + 3 * s5) / 2])


def test_trace_and_inner():
    f = CAP
    one = f.one()
    assert one.trace() == Fraction(4)
    assert f.gen("tau").trace() == Fraction(2)
    assert f.gen("xi").trace() == Fraction(2)
    assert f.gen("tauxi").trace() == Fraction(1)
    # inner product reproduces the float dot product of Minkowski lifts
    a = f.element([1, -2, 3, 1])
    b = f.element([0, 1, 1, -1])
    lift = lambda x: np.concatenate([x.embed_phys(), x.embed_int()])
    assert abs(float(f.inner(a, b)) - lift(a) @ lift(b)) < 1e-9


def test_surd_arithmetic():
    s2 = Surd.root(2)
    assert s2 * s2 == Surd.rational(2)
    assert Surd.root(3) * Surd.root(5) == Surd.root(15)
    assert Surd.root(8) == Surd.root(2, 2)  # sqrt8 = 2 sqrt2
    x = Surd.rational(4) - Surd.root(2, 2)  # 4 - 2 sqrt2
    assert x + s2 * x == Surd({2: 2})  # x(1 + sqrt2) = 2 sqrt2
    assert Surd.rational(1) - x / s2 == Surd({1: 3, 2: -2})
    assert float(Surd({1: 3, 2: -2})) == pytest.approx(3 - 2 * S2)
    with pytest.raises(ValueError):
        x / (s2 + 1)  # only single-term divisors


def test_surd_sign_exact():
    """Pell pairs X - Y sqrt2 = +-1/(X + Y sqrt2) cancel in floats (the
    first reads 0.0); the exact sign does not, for any radicands."""
    for x, y, sign in [(4478554083, 3166815962, 1),     # X^2 - 2Y^2 = 1
                       (1855077841, 1311738121, -1)]:   # X^2 - 2Y^2 = -1
        s = Surd.rational(x) - Surd.root(2, y)
        assert s.sign() == sign and (-s).sign() == -sign
    assert float(Surd.rational(4478554083) - Surd.root(2, 3166815962)) == 0.0
    assert Surd().sign() == 0 and (Surd.root(2) - Surd.root(8, Fraction(1, 2))).sign() == 0
    assert Surd.rational(Fraction(-1, 10 ** 40)).sign() == -1
    tiny = Surd({2: 1, 3: 1, 5: -1, 1: Fraction(-1, 10 ** 30)})
    assert tiny.sign() == 1     # sqrt2 + sqrt3 - sqrt5 = 0.9137...
    near = Surd({6: 1, 1: -Fraction(math.isqrt(6 * 10 ** 60), 10 ** 30)})
    assert near.sign() == 1     # sqrt6 minus its floor at 30 digits


surds = st.builds(
    Surd,
    st.dictionaries(st.sampled_from([1, 2, 3, 5, 6, 15]),
                    st.fractions(min_value=-9, max_value=9, max_denominator=8),
                    max_size=3))


@settings(max_examples=60, deadline=None)
@given(a=surds, b=surds, c=surds)
def test_surd_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert abs(float(a * b) - float(a) * float(b)) <= \
        1e-9 * max(1.0, abs(float(a)) * abs(float(b)))
    assert (a - b).sign() == -(b - a).sign() and (a * a).sign() == (1 if a else 0)
    if abs(float(a - b)) > 1e-9:
        assert (a - b).sign() == (1 if float(a - b) > 0 else -1)


SQUARE_FREE = [m for m in range(1, 31) if all(m % (p * p) for p in (2, 3, 5))]


def _spell(x: Surd) -> str:
    """Canonical spelling: signed terms p/q*sqrtm, dropping /1, 1* and *sqrt1."""
    terms = []
    for m, q in x.terms.items():
        p = f"{abs(q.numerator)}" + (f"/{q.denominator}" if q.denominator > 1 else "")
        root = "" if m == 1 else ("sqrt" if p == "1" else p + "*sqrt") + str(m)
        terms.append(("-" if q < 0 else "+") + (root or p))
    return "".join(terms).removeprefix("+") or "0"


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(SQUARE_FREE),
                       st.fractions(max_denominator=10 ** 6).filter(bool),
                       max_size=4))
def test_surd_parse_round_trip(terms):
    x = Surd(terms)
    assert Surd.parse(_spell(x)) == x


def test_surd_parse_grammar():
    """One sign per term, ``*`` before sqrt, q and m >= 1; square factors
    leave the radicand and whitespace is ignored."""
    assert Surd.parse("4-sqrt8") == Surd.parse("4-2*sqrt2") == Surd({1: 4, 2: -2})
    assert Surd.parse(" -1 / 2 * sqrt 12 +3/6") == Surd({1: Fraction(1, 2), 3: -1})
    assert Surd.parse("+0/7*sqrt5") == Surd() == Surd.parse("0")
    for text in ["4--2*sqrt2", "4+-2*sqrt2", "--1", "2**sqrt2", "2sqrt2",
                 "sqrt0", "0*sqrt0", "1/0", "1/-2", "", "+", "sqrt", "1.5",
                 "1e3", "4-2*sqrt2*", "4-", "sqrt2/2", "-sqrt-2", "a"]:
        with pytest.raises(ValueError, match="cannot parse"):
            Surd.parse(text)


def test_fraction_linalg():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = fraction_matrix_inverse(a)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    assert fraction_det(a) == Fraction(1)
    assert fraction_det([[0, 2, 1], [3, 0, 0], [0, 0, Fraction(1, 2)]]) == -3
    sol = fraction_solve(a, [[Fraction(1)], [Fraction(0)]])
    assert sol == [[Fraction(1)], [Fraction(-1)]]
    singular = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert fraction_det(singular) == 0
    with pytest.raises(ZeroDivisionError, match="singular"):
        fraction_solve(singular, [[Fraction(1)], [Fraction(0)]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_hermite_normal_form(m, r, data):
    """A U == [H | 0] with U unimodular, H in echelon form with positive
    pivots and reduced entries left of them, and H depends only on the
    column lattice of A."""
    A = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=r, max_size=r),
                           min_size=m, max_size=m))
    H, U, rank = hermite_normal_form(A)
    assert rank == np.linalg.matrix_rank(np.array(A, dtype=float))
    assert abs(fraction_det(U)) == 1
    assert (np.array(A) @ np.array(U)).tolist() == [row + [0] * (r - rank) for row in H]
    pivots = [next(i for i in range(m) if H[i][j]) for j in range(rank)]
    assert pivots == sorted(set(pivots))
    for j, i in enumerate(pivots):
        assert H[i][j] > 0 and all(0 <= H[i][c] < H[i][j] for c in range(j))
        assert not any(H[k][j] for k in range(i))
    # a unimodular change of the columns of A leaves H as it is
    V = -np.eye(r, dtype=int)
    V[0, 1:] = 5
    assert hermite_normal_form((np.array(A) @ V).tolist())[0] == H


def test_exact_physical_embedding():
    xi = CAP.gen("xi")
    half = Fraction(1, 2)
    assert xi.embed_phys_exact() == (Surd.rational(half), Surd.root(3, half))
    # embed_int(x) is embed_phys(x.star()): xi* = 1 - xi turns by -60 degrees
    assert xi.star().embed_phys_exact() == (Surd.rational(half), Surd.root(3, -half))
    for field in (SILVER, CAP, SPECTRE):
        x = field.element([Fraction(k + 1, 3) for k in range(field.degree)])
        exact = np.array([float(c) for c in x.embed_phys_exact()])
        assert np.allclose(exact, x.embed_phys(), rtol=0, atol=1e-13)
