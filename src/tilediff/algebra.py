"""Exact arithmetic in the number fields behind the built-in tiling models.

Three fields are registered:

* ``silver``  -- Q(sqrt2), degree 2, basis {1, sqrt2}
* ``cap``     -- Q(tau, xi), degree 4, basis {1, tau, xi, tau*xi}, where tau
  is the golden ratio and xi a primitive sixth root of unity
* ``spectre`` -- Q(xi, lam), degree 4, basis {1, xi, lam, xi*lam}, where
  lam = 4 + sqrt15

Elements carry exact rational coordinates over the fixed power-product
basis; all ring operations are exact.  Floating point enters only through
the Minkowski embeddings ``embed_phys``/``embed_int``, whose basis images
are evaluated once per field from correctly rounded square roots.  The
star map is the Galois involution that exchanges the two embeddings, so
``embed_int(x) == embed_phys(x.star())`` holds by construction.

All field objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "AlgebraicElement",
    "FieldMismatchError",
    "FieldSpec",
    "Surd",
    "SILVER",
    "CAP",
    "SPECTRE",
    "FIELDS",
    "fraction_solve",
    "fraction_matrix_inverse",
    "fraction_det",
]


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

    def __repr__(self):
        if not self._terms:
            return "Surd(0)"
        parts = []
        for m, q in self._terms.items():
            parts.append(str(q) if m == 1 else f"{q}*sqrt({m})")
        return "Surd(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals

def fraction_solve(a: Sequence[Sequence[Fraction]],
                   b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = B exactly by Gaussian elimination over Q."""
    n = len(a)
    m = len(b[0])
    aug = [[_frac(a[i][j]) for j in range(n)] + [_frac(b[i][j]) for j in range(m)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fraction_matrix_inverse(a):
    n = len(a)
    eye = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return fraction_solve(a, eye)


def fraction_det(a) -> Fraction:
    n = len(a)
    m = [[_frac(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1, 1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


# ---------------------------------------------------------------------------
# Field specifications

class FieldSpec:
    """Structure constants, Galois maps and Minkowski embeddings of a field.

    ``mul_table[i][j]`` holds the coordinates of ``e_i * e_j``.  The star
    and conjugation matrices act on coordinate vectors (columns are the
    images of the basis elements).  ``phys_columns``/``int_columns`` are
    the float images of the basis in physical/internal space, of shape
    ``(dim, degree)`` with ``dim`` 1 or 2; ``exact_phys_columns`` holds the
    physical images as :class:`Surd` entries of the same shape.
    """

    def __init__(self, name, basis_names, mul_table, star_matrix, conj_matrix,
                 phys_columns, exact_phys_columns):
        self.name = name
        self.basis_names = tuple(basis_names)
        self.degree = len(self.basis_names)
        self.mul_table = tuple(tuple(tuple(_frac(c) for c in cell) for cell in row)
                               for row in mul_table)
        self.star_matrix = tuple(tuple(_frac(c) for c in row) for row in star_matrix)
        self.conj_matrix = tuple(tuple(_frac(c) for c in row) for row in conj_matrix)
        self.phys_columns = read_only(np.array(phys_columns, dtype=float))
        self.exact_phys_columns = tuple(
            tuple(x if isinstance(x, Surd) else Surd.rational(x) for x in row)
            for row in exact_phys_columns)
        self.dim = self.phys_columns.shape[0]
        star_f = np.array([[float(c) for c in row] for row in self.star_matrix])
        self.int_columns = read_only(self.phys_columns @ star_f)

        # Galois group as coordinate matrices: {id, star} in degree 2,
        # {id, star, conj, star*conj} in degree 4.
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(self.degree))
                      for i in range(self.degree))
        if self.degree == 2:
            self._galois = (ident, self.star_matrix)
            self.tr_factor = Fraction(1)
        else:
            sc = _mat_mul(self.star_matrix, self.conj_matrix)
            self._galois = (ident, self.star_matrix, self.conj_matrix, sc)
            self.tr_factor = Fraction(1, 2)
        tr = [sum(g[0][j] for g in self._galois) for j in range(self.degree)]
        for i in range(1, self.degree):
            for j in range(self.degree):
                if sum(g[i][j] for g in self._galois) != 0:
                    raise ValueError("trace of basis element is not rational")
        self.trace_vector = tuple(tr)

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

    def self_check(self, tol: float = 1e-12) -> None:
        """Verify structure constants, Galois maps, and embeddings."""
        deg = self.degree
        basis = [self.element([int(j == i) for j in range(deg)]) for i in range(deg)]
        for a in basis:
            for b in basis:
                if (a * b).coords != (b * a).coords:
                    raise AssertionError("multiplication not commutative")
                if (a * b).star().coords != (a.star() * b.star()).coords:
                    raise AssertionError("star is not multiplicative")
                for c in basis:
                    if ((a * b) * c).coords != (a * (b * c)).coords:
                        raise AssertionError("multiplication not associative")
        exact = np.array([[float(x) for x in row] for row in self.exact_phys_columns])
        if exact.shape != self.phys_columns.shape or \
                np.max(np.abs(exact - self.phys_columns)) > tol:
            raise AssertionError("exact and float physical embeddings differ")
        for emb in ("embed_phys", "embed_int"):
            for a in basis:
                for b in basis:
                    va, vb = getattr(a, emb)(), getattr(b, emb)()
                    vab = getattr(a * b, emb)()
                    got = _cx_mul(va, vb)
                    if np.max(np.abs(got - vab)) > tol:
                        raise AssertionError(f"{emb} is not a ring homomorphism")

    def __repr__(self):
        return f"FieldSpec({self.name!r}, degree={self.degree})"


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _cx_mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multiply embedding vectors: plain product in 1d, complex product in 2d."""
    if u.shape == (1,):
        return u * v
    return np.array([u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]])


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

    def phys_complex(self) -> complex:
        v = self.embed_phys()
        return complex(v[0], v[1]) if v.shape == (2,) else complex(v[0], 0.0)

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

def _build_silver() -> FieldSpec:
    s2 = math.sqrt(2.0)
    return FieldSpec(
        name="silver",
        basis_names=("1", "sqrt2"),
        mul_table=[
            [(1, 0), (0, 1)],
            [(0, 1), (2, 0)],
        ],
        star_matrix=[(1, 0), (0, -1)],
        conj_matrix=[(1, 0), (0, 1)],
        phys_columns=[[1.0, s2]],
        exact_phys_columns=[[1, Surd.root(2)]],
    )


def _build_cap() -> FieldSpec:
    # tau^2 = tau + 1, xi^2 = xi - 1; basis (1, tau, xi, tau*xi)
    tau = (1.0 + math.sqrt(5.0)) / 2.0
    s3 = math.sqrt(3.0)
    return FieldSpec(
        name="cap",
        basis_names=("1", "tau", "xi", "tauxi"),
        mul_table=[
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
            [(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1)],
            [(0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 1, 0), (0, -1, 0, 1)],
            [(0, 0, 0, 1), (0, 0, 1, 1), (0, -1, 0, 1), (-1, -1, 1, 1)],
        ],
        # star: tau -> 1 - tau, xi -> 1 - xi
        star_matrix=[
            (1, 1, 1, 1),
            (0, -1, 0, -1),
            (0, 0, -1, -1),
            (0, 0, 0, 1),
        ],
        # conj: tau -> tau, xi -> 1 - xi
        conj_matrix=[
            (1, 0, 1, 0),
            (0, 1, 0, 1),
            (0, 0, -1, 0),
            (0, 0, 0, -1),
        ],
        phys_columns=[
            [1.0, tau, 0.5, tau / 2.0],
            [0.0, 0.0, s3 / 2.0, tau * s3 / 2.0],
        ],
        exact_phys_columns=[
            [1, Surd({1: Fraction(1, 2), 5: Fraction(1, 2)}), Fraction(1, 2),
             Surd({1: Fraction(1, 4), 5: Fraction(1, 4)})],
            [0, 0, Surd.root(3, Fraction(1, 2)),
             Surd({3: Fraction(1, 4), 15: Fraction(1, 4)})],
        ],
    )


def _build_spectre() -> FieldSpec:
    # xi^2 = xi - 1, lam^2 = 8*lam - 1; basis (1, xi, lam, xi*lam)
    lam = 4.0 + math.sqrt(15.0)
    s3 = math.sqrt(3.0)
    return FieldSpec(
        name="spectre",
        basis_names=("1", "xi", "lam", "xilam"),
        mul_table=[
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
            [(0, 1, 0, 0), (-1, 1, 0, 0), (0, 0, 0, 1), (0, 0, -1, 1)],
            [(0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 8, 0), (0, -1, 0, 8)],
            [(0, 0, 0, 1), (0, 0, -1, 1), (0, -1, 0, 8), (1, -1, -8, 8)],
        ],
        # star: xi -> 1 - xi, lam -> 8 - lam
        star_matrix=[
            (1, 1, 8, 8),
            (0, -1, 0, -8),
            (0, 0, -1, -1),
            (0, 0, 0, 1),
        ],
        # conj: xi -> 1 - xi, lam -> lam
        conj_matrix=[
            (1, 1, 0, 0),
            (0, -1, 0, 0),
            (0, 0, 1, 1),
            (0, 0, 0, -1),
        ],
        phys_columns=[
            [1.0, 0.5, lam, lam / 2.0],
            [0.0, s3 / 2.0, 0.0, lam * s3 / 2.0],
        ],
        exact_phys_columns=[
            [1, Fraction(1, 2), Surd({1: 4, 15: 1}),
             Surd({1: 2, 15: Fraction(1, 2)})],
            [0, Surd.root(3, Fraction(1, 2)), 0,
             Surd({3: 2, 5: Fraction(3, 2)})],
        ],
    )


SILVER = _build_silver()
CAP = _build_cap()
SPECTRE = _build_spectre()
FIELDS = {f.name: f for f in (SILVER, CAP, SPECTRE)}
