"""Cut-and-project lattices, exact dual bases, and Fourier-module points.

A lattice is represented by the module generators (exact field elements)
whose Minkowski lifts ``(embed_phys(u), embed_int(u))`` form the basis
columns.  The Euclidean inner product of two lifts is an exact rational,
computed through the trace form, so the Gram matrix, the dual basis and
all duality identities are exact.  The dual basis vectors are themselves
Minkowski lifts of field elements (rational combinations of the primal
generators), which keeps every Fourier-module point exact: its physical
and internal projections are float evaluations of one exact element.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .algebra import (AlgebraicElement, FieldSpec, Surd, fraction_det,
                      fraction_matrix_inverse, hermite_normal_form, read_only)

__all__ = ["LatticeBasis", "ModulePoint", "ModuleSet", "enumerate_module",
           "float_arguments", "internal_argument", "row_keys", "decode_rows",
           "MAX_CANDIDATES"]

# Most candidates enumerate_module scans, checked before allocating; the
# casper r=0.5 support scan needs 944,055 and cap r=0.6 needs 50,625.
MAX_CANDIDATES = 2 ** 27

# Fewest candidates enumerate_module scans at once: silver at r=50 has a
# long first axis with a few hundred candidates per first coordinate
_BLOCK_CANDIDATES = 8192


class LatticeBasis:
    """Minkowski lattice spanned by the lifts of module generators.

    ``rank == 2 * dim`` for all registered models (fully Euclidean
    schemes).  Read-only after construction, cached arrays included.
    """

    def __init__(self, generators: Sequence[AlgebraicElement]):
        if not generators:
            raise ValueError("empty generator list")
        self.field: FieldSpec = generators[0].field
        for g in generators:
            if g.field is not self.field:
                raise ValueError("generators from different fields")
        self.generators = tuple(generators)
        self.rank = len(self.generators)
        self.dim = self.field.dim

    @cached_property
    def gram(self) -> tuple:
        """Exact Gram matrix of the Minkowski lifts."""
        f = self.field
        return tuple(tuple(f.inner(a, b) for b in self.generators)
                     for a in self.generators)

    @cached_property
    def gram_det(self) -> Fraction:
        """det(B)^2 as an exact rational."""
        return fraction_det(self.gram)

    @cached_property
    def covolume(self) -> float:
        """|det B| = sqrt(det Gram)."""
        return float(np.sqrt(float(self.gram_det)))

    @property
    def density(self) -> float:
        """Lattice point density, 1/|det B|."""
        return 1.0 / self.covolume

    @cached_property
    def dual_generators(self) -> tuple:
        """Field elements whose lifts form the dual basis (B^-1)^T."""
        inv = fraction_matrix_inverse([list(r) for r in self.gram])
        duals = []
        for i in range(self.rank):
            acc = self.field.zero()
            for j in range(self.rank):
                if inv[j][i]:
                    acc = acc + self.generators[j] * inv[j][i]
            duals.append(acc)
        return tuple(duals)

    @cached_property
    def columns(self) -> np.ndarray:
        """Float basis matrix; rows 0..dim-1 physical, dim..2dim-1 internal."""
        return read_only(np.column_stack([
            np.concatenate([g.embed_phys(), g.embed_int()]) for g in self.generators]))

    @cached_property
    def dual_columns(self) -> np.ndarray:
        return read_only(np.column_stack([
            np.concatenate([g.embed_phys(), g.embed_int()])
            for g in self.dual_generators]))

    @cached_property
    def dual(self) -> "LatticeBasis":
        """The dual lattice, built once per basis."""
        return LatticeBasis(self.dual_generators)

    def points(self, coords) -> "ModuleSet":
        """Dual-lattice points with integer coordinates ``coords`` (N, rank).
        The batched product rounds like ``dual_columns @ c`` per point."""
        C = np.asarray(coords, dtype=np.int64)
        vec = (self.dual_columns[None] @ C.astype(float)[:, :, None])[:, :, 0]
        return ModuleSet(self, C, vec[:, :self.dim], vec[:, self.dim:])

    # -- exact coordinate solving ---------------------------------------------

    @cached_property
    def _coord_inverse(self) -> list:
        """Exact inverse of the field-basis x generator coordinate matrix."""
        if self.rank != self.field.degree:
            raise ValueError("coordinate solve requires full-rank generators")
        return fraction_matrix_inverse(
            [[g.coords[i] for g in self.generators] for i in range(self.rank)])

    def rational_coords(self, x: AlgebraicElement) -> tuple:
        """Exact rational coordinates of x w.r.t. the generators."""
        return tuple(sum((a * c for a, c in zip(row, x.coords)), Fraction(0))
                     for row in self._coord_inverse)

    def integer_coords(self, x: AlgebraicElement) -> tuple | None:
        """Integer coordinates of x w.r.t. the generators, or None."""
        coords = self.rational_coords(x)
        if all(c.denominator == 1 for c in coords):
            return tuple(int(c) for c in coords)
        return None

    def dual_action(self, x: AlgebraicElement) -> np.ndarray | None:
        """Int64 matrix R of y -> x*y on dual coordinates (``coords @ R.T``
        maps points), or None when x*y leaves the dual lattice.  Cached
        per element on this basis."""
        cache = self.__dict__.setdefault("_dual_actions", {})
        if x not in cache:
            cols = [self.dual.integer_coords(x * g) for g in self.dual_generators]
            cache[x] = None if None in cols else \
                read_only(np.array(cols, dtype=np.int64).T)
        return cache[x]

    def _argument_map(self, deformation) -> tuple:
        """(P, L, Q) of the argument map c -> k_int - D^T k_phys on dual
        coordinates, from one exact pass, cached per deformation rows.

        Square roots of distinct square-free integers are linearly
        independent over Q, so splitting the exact arguments of the dual
        generators by (axis, radicand) gives a rational Phi with Phi c = 0
        exactly when the argument of c is 0.  In its Hermite normal form
        Phi U = [H | 0] the kernel columns of U are the periods (rows of P).
        If rank Phi = dim, the arguments of U[:, :dim] generate a lattice
        (columns of Q) and c has the argument (c @ L.T) @ Q.T, with L the
        first dim rows of U^-1; else the arguments are dense and L and Q
        are None.  Both bases are Lagrange-reduced."""
        cache = self.__dict__.setdefault("_argument_maps", {})
        if deformation.rows not in cache:

            def argument(b):        # k_int - D^T k_phys of b, exactly
                phys, DT = b.embed_phys_exact(), zip(*deformation.rows)
                return tuple(s - sum((d * x for d, x in zip(row, phys)), Surd())
                             for s, row in zip(b.star().embed_phys_exact(), DT))

            def evaluate(C):        # float arguments of the columns of C
                return np.array([[float(sum((int(c) * v[axis] for c, v in
                                             zip(col, args)), Surd()))
                                  for col in C.T] for axis in range(self.dim)])

            args = [argument(b) for b in self.dual_generators]
            terms = sorted({(axis, m) for v in args
                            for axis, x in enumerate(v) for m in x.terms})
            _, U, rank = hermite_normal_form([[v[axis].terms.get(m, 0) for v in args]
                                              for axis, m in terms])
            try:    # exact in Python ints; the int64 conversions check the range
                U = np.array(U, dtype=object)
                K = U[:, rank:]
                U[:, rank:] = K @ _lagrange(self.points(K.T).k_phys.T)
                L = Q = None
                if rank == self.dim:
                    U[:, :rank] = U[:, :rank] @ _lagrange(evaluate(U[:, :rank]))
                    L = _int64(fraction_matrix_inverse(U.tolist())[:rank])
                    Q = read_only(evaluate(U[:, :rank]))
                cache[deformation.rows] = (_int64(U[:, rank:].T), L, Q)
            except OverflowError:
                raise ValueError(f"deformation {deformation.name!r}: its periods or "
                                 "argument lattice leave int64") from None
        return cache[deformation.rows]

    def periods(self, deformation) -> "ModuleSet":
        """Generators of the period lattice (see :meth:`_argument_map`), dual
        points with argument exactly 0 whose physical projections are periods
        of the deformed intensity; the first is a shortest one."""
        return self.points(self._argument_map(deformation)[0])

    def argument_lattice(self, deformation) -> tuple | None:
        """(L, Q) when the arguments k_int - D^T k_phys of the dual points form
        a lattice, else None (see :meth:`_argument_map`): the dual point c has
        the argument ``(c @ L.T) @ Q.T``, with L int64 (dim, rank) and Q the
        float (dim, dim) columns of the lattice generators; read-only."""
        _, L, Q = self._argument_map(deformation)
        return None if L is None else (L, Q)

    def argument_keys(self, coords, deformation=None, group=None) -> np.ndarray:
        """Int64 keys ``coords @ M.T`` of the arguments of the dual points
        ``coords @ g.T``, a block of rows per g in ``group`` (the identity
        when None): M = L @ g where they form a lattice (:meth:`argument_lattice`),
        else M = g; one lookup and one int64 bound for the group (:func:`_keys`)."""
        lattice = deformation and self.argument_lattice(deformation)
        group = [np.eye(self.rank, dtype=int)] if group is None else group
        return _keys(coords, [lattice[0] @ np.array(g, dtype=object) for g in group]
                     if lattice else group, deformation)

    def __repr__(self):
        return f"LatticeBasis({self.field.name}, rank={self.rank})"


class Row(tuple):
    """Base of the immutable rows ``ModulePoint`` and ``diffraction.Peak``,
    named tuples built at tuple cost that compare like records: equal only
    to a row of their own class, on their first ``_key`` fields (all when
    None), hashed on the same fields, and never ordered, so no comparison
    reaches an array field."""

    __slots__ = ()
    _key = None

    # the one row builder: namedtuple's _make without a Python frame or
    # its length check, for rows built from columns of one length
    _make = classmethod(tuple.__new__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            # a plain tuple would compare its items with the fields
            return False if isinstance(other, tuple) else NotImplemented
        return self[:self._key] == other[:self._key]

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:self._key])

    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


class ModulePoint(Row, namedtuple("ModulePoint", "lattice coords k_phys k_int")):
    """A Fourier-module point: integer coords in the dual basis.

    ``k_phys`` and ``k_int`` are the float physical/internal projections
    of the exact dual-lattice vector.  The internal projection *is* the
    starred argument fed to the cocycle; it is never reconstructed from a
    scaled prefactor expression.  Equality and hash see only ``lattice``
    and ``coords`` (see :class:`Row`).
    """

    __slots__ = ()
    _key = 2

    @property
    def element(self) -> AlgebraicElement:
        """Exact field element projecting to (k_phys, k_int)."""
        acc = self.lattice.field.zero()
        for c, g in zip(self.coords, self.lattice.dual_generators):
            if c:
                acc = acc + g * int(c)
        return acc

    def is_origin(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True, eq=False)
class ModuleSet:
    """Fourier-module points as arrays: int64 ``coords`` (N, rank) and the
    float projections ``k_phys``, ``k_int`` (N, dim).  An int index (and
    iteration) gives ``ModulePoint``s, a slice or index array a ``ModuleSet``."""

    lattice: LatticeBasis
    coords: np.ndarray
    k_phys: np.ndarray
    k_int: np.ndarray

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return map(ModulePoint._make, zip(repeat(self.lattice),
                                          zip(*self.coords.T.tolist()),
                                          self.k_phys, self.k_int))

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return ModulePoint._make((self.lattice, tuple(self.coords[index].tolist()),
                                      self.k_phys[index], self.k_int[index]))
        return ModuleSet(self.lattice, self.coords[index], self.k_phys[index],
                         self.k_int[index])

    def arguments(self, deformation=None) -> np.ndarray:
        """Cocycle arguments: k_int, or k_int - D^T k_phys for a
        ``DeformationMap`` D, as ``(c @ L.T) @ Q.T`` where they form a lattice
        (``LatticeBasis.argument_lattice``), else by :func:`float_arguments`."""
        if lattice := deformation and self.lattice.argument_lattice(deformation):
            L, Q = lattice
            return _keys(self.coords, [L], deformation) @ Q.T
        return float_arguments(self, deformation)


def float_arguments(points: ModuleSet, deformation=None) -> np.ndarray:
    """The float formula k_int - D^T k_phys (k_int without a deformation):
    the arguments of a dense deformation, and the reference that checks the
    exact argument lattice."""
    if deformation is None:
        return points.k_int
    DT = deformation.matrix.T
    return points.k_int - (DT[None] @ points.k_phys[:, :, None])[:, :, 0]


def _keys(coords, maps, deformation) -> np.ndarray:
    """``coords @ M.T`` for each integer M in ``maps``, stacked, in int64;
    ValueError naming ``deformation`` where max|c| max row sum |M| >= 2**63."""
    bound = max(1, int(np.abs(coords).max(initial=0))) \
        * max(sum(map(abs, row)) for M in maps for row in M.tolist())
    if bound >= 2 ** 63:
        raise ValueError(f"deformation {getattr(deformation, 'name', None)!r}: "
                         f"its argument keys reach {bound:.3g}, past int64")
    return np.concatenate([coords @ M.astype(np.int64).T for M in maps])


def _int64(a) -> np.ndarray:
    """Read-only int64 copy of integers; OverflowError outside int64."""
    return read_only(np.array(a, dtype=np.int64))


def _lagrange(B: np.ndarray) -> np.ndarray:
    """Unimodular V in Python ints (n x n, n = B.shape[1] <= 2) making the
    columns of B @ V Lagrange-reduced: |b1| <= |b2|, 2|<b1, b2>| <= |b1|^2."""
    V = np.eye(B.shape[1], dtype=int).astype(object)
    while len(V) == 2:
        b1, b2 = (B @ V.astype(float)).T
        if b2 @ b2 < b1 @ b1:
            V = V[:, ::-1]
        elif mu := round(float(b1 @ b2 / (b1 @ b1))):
            V[:, 1] -= mu * V[:, 0]
        else:
            break
    return V


def row_keys(columns, box=None):
    """One int64 key per row of the int64 ``columns`` (equal-length arrays,
    or the rows of a 2-D array): mixed radix over ``box``, the offsets and
    spans of the columns, so keys ascend in lexicographic row order.

    The default box is the occupied bounding box with one spare slot per
    column, so an axis neighbor (key +- the column's place value) outside
    the box never aliases a row.  Returns the keys and the box; raises
    ValueError when the box holds 2**63 keys or more.
    """
    if box is None:
        offsets = [int(c.min()) for c in columns]
        box = offsets, [int(c.max()) - m + 2 for c, m in zip(columns, offsets)]
    offsets, spans = box
    if math.prod(spans) >= 2 ** 63:
        raise ValueError("cell grid too large for int64 keys")
    keys = columns[0] - offsets[0]
    for c, m, span in zip(columns[1:], offsets[1:], spans[1:]):
        keys *= span
        keys += c - m
    return keys, box


def decode_rows(keys: np.ndarray, box) -> np.ndarray:
    """The (N, k) int64 rows with the keys ``keys`` under ``box``, the
    inverse of :func:`row_keys`; each column is contiguous."""
    offsets, spans = box
    cols = np.empty((len(spans), len(keys)), dtype=np.int64)
    cols[0] = keys
    for k in range(len(spans) - 1, 0, -1):
        np.divmod(cols[0], spans[k], out=(cols[0], cols[k]))
    cols += np.array(offsets, dtype=np.int64)[:, None]
    return cols.T


def module_point(lattice: LatticeBasis, coords: Sequence[int]) -> ModulePoint:
    return lattice.points([coords])[0]


def enumerate_module(lattice: LatticeBasis, center, radius: float,
                     internal_cutoff: float) -> ModuleSet:
    """All module points with |k_phys - center| <= radius, |k_int| <= cutoff.

    Complete by construction: the integer coordinates of a dual vector y
    are ``m_i = <b_i, y> = <b_i_phys, y_phys> + <b_i_int, y_int>`` with
    ``b_i`` the primal basis columns, and Cauchy-Schwarz bounds each term
    on its own disc, which gives the search box.  The physical projection
    of the dual lattice is dense for every registered model, hence the
    internal cutoff is mandatory.  Raises ValueError before allocating
    when the box leaves int64 or holds more than ``MAX_CANDIDATES``
    candidates.  Scans the box in blocks of consecutive first coordinates,
    each block (but the last) of at least ``_BLOCK_CANDIDATES`` = 8192
    candidates, and of one first coordinate when that alone has as many.
    Points come out in lexicographic coordinate order.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if not internal_cutoff >= 0:
        raise ValueError(f"internal_cutoff must be >= 0, got {internal_cutoff}")
    d = lattice.dim
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (d,):
        raise ValueError(f"center must have dimension {d}")

    eps = 1e-9
    cols = lattice.columns  # primal basis, shape (2d, 2d)
    # a huge centre or radius overflows to inf here, which the box check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        mid = center @ cols[:d]
        half = np.linalg.norm(cols[:d], axis=0) * (radius + eps) \
            + np.linalg.norm(cols[d:], axis=0) * (internal_cutoff + eps)
    lo, hi = np.floor(mid - half), np.ceil(mid + half)
    # the comparisons also reject the NaN bounds of a NaN centre
    if not np.all((-2.0 ** 62 < lo) & (lo <= hi) & (hi < 2.0 ** 62)):
        raise ValueError("module search box leaves int64")
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    count = math.prod((hi - lo + 1).tolist())
    if count > MAX_CANDIDATES:
        raise ValueError(f"module search box holds {count:.3g} candidates, "
                         f"above the ceiling {MAX_CANDIDATES}")

    dual_cols = lattice.dual_columns
    phys_rows = dual_cols[:d, :]
    int_rows = dual_cols[d:, :]

    out_coords = [np.zeros((0, lattice.rank), dtype=np.int64)]
    axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
    # blocks of consecutive first coordinates keep the grids small; the
    # blocks run in m_0 order and "ij" meshgrid orders the rest
    # lexicographically
    rest = np.stack([g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")])
    n_rest = rest.shape[1]
    per_block = -(-_BLOCK_CANDIDATES // n_rest)      # first coordinates
    for start in range(0, len(axes[0]), per_block):
        m0 = axes[0][start:start + per_block]
        grid = np.empty((lattice.rank, len(m0), n_rest), dtype=np.int64)
        grid[0] = m0[:, None]
        grid[1:] = rest[:, None]
        grid = grid.reshape(lattice.rank, -1)
        kp = phys_rows @ grid
        ki = int_rows @ grid
        ok = (np.linalg.norm(kp - center[:, None], axis=0) <= radius + eps) \
            & (np.linalg.norm(ki, axis=0) <= internal_cutoff + eps)
        if ok.any():
            out_coords.append(grid[:, ok].T)
    return lattice.points(np.vstack(out_coords))


def internal_argument(k: ModulePoint, deformation=None) -> np.ndarray:
    """Cocycle argument for a module point: k_int, or k_int - D^T k_phys."""
    return k.lattice.points([k.coords]).arguments(deformation)[0]
