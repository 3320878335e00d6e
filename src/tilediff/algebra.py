"""Exact arithmetic in the number fields behind the built-in tiling models.

Three fields are registered, each defined by its generators: their
quadratic relations, their images under the Galois maps star and conj,
and their exact physical embeddings.

* ``silver``  -- Q(sqrt2), degree 2, basis {1, sqrt2}
* ``cap``     -- Q(tau, xi), degree 4, basis {1, tau, xi, tau*xi}, where tau
  is the golden ratio and xi a primitive sixth root of unity
* ``spectre`` -- Q(xi, lam), degree 4, basis {1, xi, lam, xi*lam}, where
  lam = 4 + sqrt15

The multiplication table, Galois matrices and embedding columns of this
power-product basis are derived from the definition.  Elements carry exact
rational coordinates over the basis; all ring operations are exact.
Floating point enters only through the Minkowski embeddings
``embed_phys``/``embed_int``, whose basis images are float products of the
generators' correctly rounded images.  The star map is the Galois
involution that exchanges the two embeddings, so
``embed_int(x) == embed_phys(x.star())`` holds by construction.

All field objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "AlgebraicElement",
    "FieldMismatchError",
    "FieldSpec",
    "Generator",
    "Surd",
    "SILVER",
    "CAP",
    "SPECTRE",
    "FIELDS",
    "fraction_solve",
    "fraction_matrix_inverse",
    "fraction_det",
    "hermite_normal_form",
    "EXACT_LIMIT",
]

# int64 sums and their conversion to float are exact up to this magnitude
EXACT_LIMIT = 2 ** 53


class FieldMismatchError(TypeError):
    """Raised when elements of different number fields are combined."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it: for arrays cached on shared objects."""
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# Exact real surds (used for deformation matrices and documented volumes)

def _split_square(m: int) -> tuple[int, int]:
    """Factor m = g^2 * h with h square-free; return (g, h)."""
    if m <= 0:
        raise ValueError("radicand must be positive")
    g, h, n, p = 1, 1, m, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        g *= p ** (e // 2)
        if e % 2:
            h *= p
        p += 1 if p == 2 else 2
    return g, h * n


# one signed term of Surd.parse: p[/q][*sqrtm] or sqrtm, q and m >= 1
_TERM = re.compile(r"([+-])(?:([0-9]+)(?:/(0*[1-9][0-9]*))?"
                   r"(?:\*sqrt(0*[1-9][0-9]*))?|sqrt(0*[1-9][0-9]*))")


class Surd:
    """Exact real number of the form sum_m q_m * sqrt(m), m square-free.

    Supports the small amount of arithmetic the deformation catalog needs:
    addition, multiplication, division by a single-term surd, and exact
    comparison.  Conversion to float is the only inexact operation.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        for m, q in (terms or {}).items():
            q = _frac(q)
            if q == 0:
                continue
            g, h = _split_square(m)
            clean[h] = clean.get(h, Fraction(0)) + g * q
        self._terms = {m: q for m, q in sorted(clean.items()) if q != 0}

    @classmethod
    def rational(cls, q) -> "Surd":
        return cls({1: _frac(q)})

    @classmethod
    def root(cls, m: int, coeff=1) -> "Surd":
        """coeff * sqrt(m)."""
        return cls({m: _frac(coeff)})

    @classmethod
    def parse(cls, text: str) -> "Surd":
        """The surd written ``text``: a sum of terms p, p/q, p*sqrtm, p/q*sqrtm
        and sqrtm with integers p >= 0 and q, m >= 1, each with one sign
        (optional on the first), whitespace ignored.  Anything else, such as
        a second sign, a missing ``*``, ``1/0`` or ``sqrt0``, is a ValueError."""
        s = "".join(text.split())
        s = s if s[:1] in ("+", "-") else "+" + s
        total, pos = cls(), 0
        while pos < len(s):
            if (term := _TERM.match(s, pos)) is None:
                raise ValueError(f"cannot parse {text!r} as a sum of p/q*sqrtm terms")
            sign, p, q, m, root = term.groups()
            total += cls.root(int(m or root or 1),
                              Fraction(int(sign + (p or "1")), int(q or 1)))
            pos = term.end()
        return total

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def _coerce(self, other) -> "Surd | None":
        if isinstance(other, Surd):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for m, q in o._terms.items():
            out[m] = out.get(m, Fraction(0)) + q
        return Surd(out)

    __radd__ = __add__

    def __neg__(self):
        return Surd({m: -q for m, q in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for m, q in self._terms.items():
            for n, r in o._terms.items():
                g, h = _split_square(m * n)
                out[h] = out.get(h, Fraction(0)) + g * q * r
        return Surd(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(o._terms) != 1:
            raise ValueError("division only by single-term surds")
        (m, q), = o._terms.items()
        # 1/(q sqrt(m)) = sqrt(m)/(q m)
        return self * Surd({m: Fraction(1, 1) / (q * m)})

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __float__(self):
        return float(sum(float(q) * math.sqrt(m) for m, q in self._terms.items()))

    def sign(self) -> int:
        """Exact sign, -1, 0 or 1: each term is bracketed by isqrt(m 4**b) <=
        2**b sqrt(m) < isqrt(m 4**b) + 1, b doubling until the sum excludes 0,
        as it does for every nonzero surd (square-free radicals are independent)."""
        b = 32
        while self._terms:
            r = {m: math.isqrt(m << 2 * b) for m in self._terms}
            if sum(q * (r[m] + (q < 0)) for m, q in self._terms.items()) > 0:
                return 1
            if sum(q * (r[m] + (q > 0)) for m, q in self._terms.items()) < 0:
                return -1
            b *= 2
        return 0

    def __repr__(self):
        if not self._terms:
            return "Surd(0)"
        parts = []
        for m, q in self._terms.items():
            parts.append(str(q) if m == 1 else f"{q}*sqrt({m})")
        return "Surd(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals

def _gauss_jordan(a, b) -> tuple[list[list[Fraction]] | None, Fraction]:
    """Reduce [A | B] to [I | A^-1 B] over Q; return (A^-1 B, det A), with
    det A the row swaps' sign times the pivots' product, or (None, 0)."""
    n = len(a)
    aug = [[_frac(x) for x in ra] + [_frac(x) for x in rb]
           for ra, rb in zip(a, b)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None, Fraction(0)
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], det


def fraction_solve(a: Sequence[Sequence[Fraction]],
                   b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = B exactly by Gauss-Jordan elimination over Q."""
    x, _ = _gauss_jordan(a, b)
    if x is None:
        raise ZeroDivisionError("singular matrix")
    return x


def fraction_matrix_inverse(a):
    n = len(a)
    eye = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return fraction_solve(a, eye)


def fraction_det(a) -> Fraction:
    """Exact determinant; 0 for a singular matrix."""
    return _gauss_jordan(a, [()] * len(a))[1]


def hermite_normal_form(a) -> tuple:
    """Column Hermite normal form of a rational matrix A (m x r, as rows):
    (H, U, rank) with A U == [H | 0], U unimodular (integer, det +-1) and H
    in column echelon form with positive pivots and the entries left of
    each pivot in [0, pivot), which makes H unique.  The last r - rank
    columns of U span the integer kernel of A (Cohen 1993, section 2.4)."""
    m, r = len(a), len(a[0])
    # column j of A followed by column j of U, kept together under column ops
    cols = [list(col) + [int(i == j) for i in range(r)]
            for j, col in enumerate(zip(*a))]
    k = 0
    for i in range(m):
        # Euclid on row i: the smallest entry pivots and reduces the others
        while live := [j for j in range(k, r) if cols[j][i]]:
            p = min(live, key=lambda j: abs(cols[j][i]))
            cols[k], cols[p] = cols[p], cols[k]
            if cols[k][i] < 0:
                cols[k] = [-x for x in cols[k]]
            for j in range(r):
                q = cols[j][i] // cols[k][i] if j != k else 0
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[k])]
            k += len(live) == 1
    return ([[c[i] for c in cols[:k]] for i in range(m)],
            [[c[m + i] for c in cols] for i in range(r)], k)


# ---------------------------------------------------------------------------
# Field specifications

class Generator(NamedTuple):
    """One generator g of a field, a root of g^2 = r0 + r1*g.

    ``relation`` is (r0, r1); ``star`` and ``conj`` are the images c0 + c1*g
    of g under the two Galois maps, as (c0, c1); ``embedding`` is the exact
    physical image of g, one :class:`Surd` or rational per dimension.
    """

    name: str
    relation: tuple
    star: tuple
    conj: tuple
    embedding: tuple


class FieldSpec:
    """A field Q(a) or Q(a, b) defined by its generators, with the structure
    constants, Galois maps and Minkowski embeddings derived from them.

    The basis is (1, a) or (1, a, b, ab): bit g of k says whether generator
    g divides ``e_k``.  ``mul_table[i][j]`` holds the coordinates of
    ``e_i * e_j``.  The star and conjugation matrices act on coordinate
    vectors (columns are the images of the basis elements).
    ``phys_columns``/``int_columns`` are the float images of the basis in
    physical/internal space, of shape ``(dim, degree)`` with ``dim`` 1 or 2;
    ``exact_phys_columns`` holds the physical images as :class:`Surd`s.
    """

    def __init__(self, name: str, generators: Sequence[Generator]):
        self.name = name
        self.degree = 2 ** len(generators)
        self.dim = len(generators[0].embedding)
        bits = [tuple((k >> g) & 1 for g in range(len(generators)))
                for k in range(self.degree)]
        self.basis_names = tuple("".join(g.name for g, b in zip(generators, e) if b)
                                 or "1" for e in bits)

        def coords(factors) -> tuple:
            """Coordinates of prod_g (c0 + c1*g), where factors[g] = (c0, c1)."""
            return tuple(_frac(math.prod(f[b] for f, b in zip(factors, e)))
                         for e in bits)

        def galois(images) -> tuple:
            """Matrix of the map g -> images[g]; column k is the image of e_k."""
            cols = [coords([img if b else (1, 0) for img, b in zip(images, e)])
                    for e in bits]
            return tuple(zip(*cols))

        def embedding(images, one) -> tuple:
            """(dim, degree) columns: e_k maps to its generators' product."""
            cols = [reduce(_cx_mul, [v for v, b in zip(images, e) if b], one)
                    for e in bits]
            return tuple(zip(*cols))

        # g^0, g^1, g^2 over (1, g); e_i * e_j multiplies them per generator
        powers = [((1, 0), (0, 1), g.relation) for g in generators]
        self.mul_table = tuple(
            tuple(coords([p[i + j] for p, i, j in zip(powers, ei, ej)])
                  for ej in bits) for ei in bits)
        self.star_matrix = galois([g.star for g in generators])
        self.conj_matrix = galois([g.conj for g in generators])
        exact = [tuple(Surd() + x for x in g.embedding) for g in generators]
        one = (1,) + (0,) * (self.dim - 1)
        self.exact_phys_columns = embedding(exact, tuple(map(Surd.rational, one)))
        # float products of the rounded generator images, not float() of the
        # exact products: the two differ in the last bit (cap's tau*xi)
        self.phys_columns = read_only(np.array(embedding(
            [tuple(map(float, v)) for v in exact], tuple(map(float, one)))))
        star_f = np.array([[float(c) for c in row] for row in self.star_matrix])
        self.int_columns = read_only(self.phys_columns @ star_f)
        self.tr_factor = Fraction(2, self.degree)
        # Tr(e_k), the trace of x -> e_k * x
        self.trace_vector = tuple(sum(row[i][i] for i in range(self.degree))
                                  for row in self.mul_table)

    # -- element constructors ------------------------------------------------

    def element(self, coords) -> "AlgebraicElement":
        coords = tuple(_frac(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError(f"{self.name}: expected {self.degree} coordinates")
        return AlgebraicElement(self, coords)

    def zero(self) -> "AlgebraicElement":
        return self.element([0] * self.degree)

    def one(self) -> "AlgebraicElement":
        return self.element([1] + [0] * (self.degree - 1))

    def rational(self, q) -> "AlgebraicElement":
        return self.element([q] + [0] * (self.degree - 1))

    def gen(self, name: str) -> "AlgebraicElement":
        i = self.basis_names.index(name)
        return self.element([int(j == i) for j in range(self.degree)])

    # -- coordinate-level operations ------------------------------------------

    def mul_coords(self, a, b):
        deg = self.degree
        out = [Fraction(0)] * deg
        for i in range(deg):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(deg):
                bj = b[j]
                if bj == 0:
                    continue
                cell = self.mul_table[i][j]
                f = ai * bj
                for k in range(deg):
                    if cell[k]:
                        out[k] += f * cell[k]
        return tuple(out)

    def apply_matrix(self, mat, coords):
        return tuple(sum(mat[i][j] * coords[j] for j in range(self.degree))
                     for i in range(self.degree))

    def trace(self, coords) -> Fraction:
        return sum(t * c for t, c in zip(self.trace_vector, coords))

    def inner(self, a: "AlgebraicElement", b: "AlgebraicElement") -> Fraction:
        """Euclidean inner product of the Minkowski lifts, exactly.

        Equals tr_factor * Tr(a * conj(b)); rational for all field elements.
        """
        prod = self.mul_coords(a.coords, self.apply_matrix(self.conj_matrix, b.coords))
        return self.tr_factor * self.trace(prod)

    def __repr__(self):
        return f"FieldSpec({self.name!r}, degree={self.degree})"


def _cx_mul(u, v) -> tuple:
    """Multiply embedding vectors of floats or Surds: plain product in 1d,
    complex product in 2d."""
    if len(u) == 1:
        return (u[0] * v[0],)
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


@dataclass(frozen=True)
class AlgebraicElement:
    """An exact element of one of the registered fields."""

    field: FieldSpec
    coords: tuple

    def _check(self, other: "AlgebraicElement"):
        if self.field is not other.field:
            raise FieldMismatchError(
                f"cannot combine {self.field.name} with {other.field.name}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, AlgebraicElement):
            return NotImplemented
        self._check(other)
        return AlgebraicElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, AlgebraicElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraicElement(self.field,
                                    tuple(_frac(other) * a for a in self.coords))
        if not isinstance(other, AlgebraicElement):
            return NotImplemented
        self._check(other)
        return AlgebraicElement(self.field,
                                self.field.mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return AlgebraicElement(self.field, tuple(a / q for a in self.coords))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def star(self) -> "AlgebraicElement":
        """Galois involution carrying the physical to the internal embedding."""
        return AlgebraicElement(
            self.field, self.field.apply_matrix(self.field.star_matrix, self.coords))

    def conj(self) -> "AlgebraicElement":
        """Complex conjugation (identity on fields with real embeddings)."""
        return AlgebraicElement(
            self.field, self.field.apply_matrix(self.field.conj_matrix, self.coords))

    def trace(self) -> Fraction:
        return self.field.trace(self.coords)

    def embed_phys(self) -> np.ndarray:
        return self.field.phys_columns @ np.array([float(c) for c in self.coords])

    def embed_int(self) -> np.ndarray:
        return self.field.int_columns @ np.array([float(c) for c in self.coords])

    def embed_phys_exact(self) -> tuple:
        """Physical embedding as exact :class:`Surd` coordinates."""
        return tuple(sum((col * c for col, c in zip(row, self.coords)), Surd())
                     for row in self.field.exact_phys_columns)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        parts = []
        for c, name in zip(self.coords, self.field.basis_names):
            if c == 0:
                continue
            if name == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# ---------------------------------------------------------------------------
# The three registered fields

_HALF = Fraction(1, 2)
# a primitive sixth root of unity, exp(i pi/3); both Galois maps send it
# to its complex conjugate 1 - xi
_XI = Generator("xi", (-1, 1), star=(1, -1), conj=(1, -1),
                embedding=(_HALF, Surd.root(3, _HALF)))

SILVER = FieldSpec("silver", [Generator("sqrt2", (2, 0), star=(0, -1), conj=(0, 1),
                                        embedding=(Surd.root(2),))])
CAP = FieldSpec("cap", [
    Generator("tau", (1, 1), star=(1, -1), conj=(0, 1),
              embedding=(Surd({1: _HALF, 5: _HALF}), 0)),   # the golden ratio
    _XI,
])
SPECTRE = FieldSpec("spectre", [
    _XI,
    Generator("lam", (-1, 8), star=(8, -1), conj=(0, 1),
              embedding=(Surd({1: 4, 15: 1}), 0)),   # 4 + sqrt15
])
FIELDS = {f.name: f for f in (SILVER, CAP, SPECTRE)}
