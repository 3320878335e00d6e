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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .algebra import (AlgebraicElement, FieldSpec, fraction_det,
                      fraction_matrix_inverse, fraction_solve)

__all__ = ["LatticeBasis", "ModulePoint", "dual_basis", "enumerate_module",
           "internal_argument"]


class LatticeBasis:
    """Minkowski lattice spanned by the lifts of module generators.

    ``rank == 2 * dim`` for all registered models (fully Euclidean
    schemes).  Read-only after construction.
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
        return np.column_stack([
            np.concatenate([g.embed_phys(), g.embed_int()]) for g in self.generators])

    @cached_property
    def dual_columns(self) -> np.ndarray:
        return np.column_stack([
            np.concatenate([g.embed_phys(), g.embed_int()])
            for g in self.dual_generators])

    def dual(self) -> "LatticeBasis":
        return LatticeBasis(self.dual_generators)

    # -- exact coordinate solving ---------------------------------------------

    def _coord_matrix(self):
        deg = self.field.degree
        if self.rank != deg:
            raise ValueError("coordinate solve requires full-rank generators")
        return [[self.generators[j].coords[i] for j in range(self.rank)]
                for i in range(deg)]

    def rational_coords(self, x: AlgebraicElement) -> tuple:
        """Exact rational coordinates of x w.r.t. the generators."""
        sol = fraction_solve(self._coord_matrix(),
                             [[c] for c in x.coords])
        return tuple(row[0] for row in sol)

    def integer_coords(self, x: AlgebraicElement) -> tuple | None:
        """Integer coordinates of x w.r.t. the generators, or None."""
        coords = self.rational_coords(x)
        if all(c.denominator == 1 for c in coords):
            return tuple(int(c) for c in coords)
        return None

    def contains(self, x: AlgebraicElement) -> bool:
        return self.integer_coords(x) is not None

    def __repr__(self):
        return f"LatticeBasis({self.field.name}, rank={self.rank})"


def dual_basis(basis: LatticeBasis) -> LatticeBasis:
    """Exact transpose-inverse basis (raises on singular input)."""
    if basis.gram_det == 0:
        raise ZeroDivisionError("singular basis")
    return basis.dual()


@dataclass(frozen=True)
class ModulePoint:
    """A Fourier-module point: integer coords in the dual basis.

    ``k_phys`` and ``k_int`` are the float physical/internal projections
    of the exact dual-lattice vector.  The internal projection *is* the
    starred argument fed to the cocycle; it is never reconstructed from a
    scaled prefactor expression.
    """

    lattice: LatticeBasis
    coords: tuple
    k_phys: np.ndarray = field(compare=False)
    k_int: np.ndarray = field(compare=False)

    @property
    def element(self) -> AlgebraicElement:
        """Exact field element projecting to (k_phys, k_int)."""
        acc = self.lattice.field.zero()
        for c, g in zip(self.coords, self.lattice.dual_generators):
            if c:
                acc = acc + g * int(c)
        return acc

    def is_origin(self) -> bool:
        return all(c == 0 for c in self.coords)


def module_point(lattice: LatticeBasis, coords: Sequence[int]) -> ModulePoint:
    d = lattice.dim
    cols = lattice.dual_columns
    vec = cols @ np.asarray(coords, dtype=float)
    return ModulePoint(lattice, tuple(int(c) for c in coords), vec[:d], vec[d:])


def enumerate_module(lattice: LatticeBasis, center, radius: float,
                     internal_cutoff: float | None = None) -> list[ModulePoint]:
    """All module points with |k_phys - center| <= radius, |k_int| <= cutoff.

    Complete by construction: the integer coordinates of a dual vector y
    are ``m_i = <b_i, y>`` with ``b_i`` the primal basis columns, so the
    search box follows from Cauchy-Schwarz on the admissible region.  The
    physical projection of the dual lattice is dense for every registered
    model, hence the internal cutoff is mandatory.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if internal_cutoff is None:
        raise ValueError("internal_cutoff is required (dense projection)")
    d = lattice.dim
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (d,):
        raise ValueError(f"center must have dimension {d}")

    eps = 1e-9
    ball = float(np.hypot(radius + eps, internal_cutoff + eps))
    y_center = np.concatenate([center, np.zeros(d)])
    cols = lattice.columns  # primal basis, shape (2d, 2d)
    los, his = [], []
    for i in range(lattice.rank):
        b = cols[:, i]
        mid = float(b @ y_center)
        half = float(np.linalg.norm(b)) * ball
        los.append(int(np.floor(mid - half)))
        his.append(int(np.ceil(mid + half)))

    dual_cols = lattice.dual_columns
    phys_rows = dual_cols[:d, :]
    int_rows = dual_cols[d:, :]

    out_coords = []
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(los, his)]
    # chunk over the first axis to keep the grids small
    rest = np.stack([g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")],
                    axis=0) if lattice.rank > 1 else np.zeros((0, 1), np.int64)
    n_rest = rest.shape[1]
    for m0 in axes[0]:
        grid = np.vstack([np.full(n_rest, m0, dtype=np.int64), rest])
        kp = phys_rows @ grid
        ki = int_rows @ grid
        ok = (np.linalg.norm(kp - center[:, None], axis=0) <= radius + eps) \
            & (np.linalg.norm(ki, axis=0) <= internal_cutoff + eps)
        if ok.any():
            out_coords.append(grid[:, ok].T)
    if not out_coords:
        return []
    coords = np.vstack(out_coords)
    order = np.lexsort(coords.T[::-1])  # lexicographic in coords
    coords = coords[order]
    pts = []
    for row in coords:
        vec = dual_cols @ row.astype(float)
        pts.append(ModulePoint(lattice, tuple(int(c) for c in row),
                               vec[:d], vec[d:]))
    return pts


def internal_argument(k: ModulePoint, deformation=None) -> np.ndarray:
    """Cocycle argument for a module point: k_int, or k_int - D^T k_phys."""
    if deformation is None:
        return k.k_int
    D = deformation.matrix if hasattr(deformation, "matrix") else np.asarray(deformation, float)
    return k.k_int - D.T @ k.k_phys
