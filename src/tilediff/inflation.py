"""Finite control-point patches from the inflation fixed-point equations.

Patches are exact.  Every control point is an integer combination of the
return-module generators, and the expansion acts on generator
coordinates by an integer matrix (casper's antilinear rho*conj(x)
included), so one inflation step is an int64 matmul plus integer
translations.  A patch stores the exact integer field-basis coordinates
of its points; floats enter only through :meth:`TypedPointSet.positions_phys`.
Membership in the return module and point counts are integer
identities.  Patches serve as brute-force oracles for the amplitude
computations (via Weyl sums) and can be exported as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (EXACT_LIMIT, AlgebraicElement, FieldMismatchError,
                      FieldSpec, read_only)
from .models import ModelSpec

__all__ = ["TypedPointSet", "seed_patch", "inflate", "truncate",
           "substitution_matrix", "patch_to_csv", "MAX_PATCH_POINTS"]

# Most points one inflate step may make: admits silver 17 steps from one
# tile (3,880,899 points, ~0.5 GB peak RSS) and cap 8 (974,170)
MAX_PATCH_POINTS = 2 ** 22

# Rows patch_to_csv formats with one % at a time
_CSV_BLOCK = 4096


def _field_ints(x: AlgebraicElement) -> list:
    if any(c.denominator != 1 for c in x.coords):
        raise ValueError(f"{x} has non-integer field-basis coordinates")
    return [int(c) for c in x.coords]


@dataclass(frozen=True, eq=False)
class TypedPointSet:
    """Ordered (tile type, exact position) pairs, no duplicates.

    ``tile_types`` is an int64 array of shape (npoints,); ``coords`` holds
    the positions' integer coordinates over the field basis, an int64
    array of shape (npoints, degree) with entries of magnitude <= 2**53.
    """

    field: FieldSpec
    tile_types: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        if self.coords.size and int(np.abs(self.coords).max()) > EXACT_LIMIT:
            raise ValueError("point coordinates exceed 2**53")

    def __len__(self):
        return len(self.tile_types)

    @property
    def points(self) -> tuple:
        """(type, AlgebraicElement) pairs, built on demand."""
        return tuple((t, self.field.element(c)) for t, c in
                     zip(self.tile_types.tolist(), self.coords.tolist()))

    def positions_phys(self) -> np.ndarray:
        """Float physical coordinates, shape (npoints, dim), read-only and
        computed once per patch.

        Bitwise equal to ``embed_phys()`` of each point: the batched
        matrix-vector product rounds like the per-point one, where
        ``F @ P.T`` and einsum do not.
        """
        return self._positions_phys

    @cached_property
    def _positions_phys(self) -> np.ndarray:
        P = self.field.phys_columns
        return read_only((P[None] @ self.coords.astype(float)[:, :, None])[:, :, 0])


def seed_patch(model: ModelSpec) -> TypedPointSet:
    """Single tile of type 0 at the origin.

    Legality of the seed is not enforced; patches are only used as
    volume-averaged oracles where the boundary mismatch of an illegal seed
    is absorbed by the tolerance.
    """
    return TypedPointSet(model.field, np.zeros(1, dtype=np.int64),
                         np.zeros((1, model.field.degree), dtype=np.int64))


def inflate(seed: TypedPointSet, model: ModelSpec, steps: int) -> TypedPointSet:
    """Apply x -> expansion(x) + t for every displacement entry, `steps` times.

    Points come out sorted by (field-basis coordinates, type).  Raises
    ValueError for a seed position outside the return module, before a
    step whose coordinates could pass 2**53, and, before any step, when
    a step could make more than ``MAX_PATCH_POINTS`` points.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if seed.field is not model.field:
        raise FieldMismatchError(
            f"cannot inflate a {seed.field.name} patch with model {model.name!r}")
    disp = model.require_displacement()
    # step s makes at most 1^T M^s e_seed points; Python ints keep it exact
    bound = np.bincount(seed.tile_types, minlength=disp.n).astype(object)
    M = disp.card_matrix().astype(object)
    for step in range(1, steps + 1):
        bound = M @ bound
        if bound.sum() > MAX_PATCH_POINTS:
            raise ValueError(f"step {step} would make up to {bound.sum():.3g} "
                             f"points, above the ceiling {MAX_PATCH_POINTS}")
    # row form on generator coordinates: expand(c) = c @ E, field coords = c @ G
    E, T = model.expansion_coords, model.translation_coords
    G = np.array([_field_ints(g) for g in model.generators], dtype=np.int64)
    e_norm = int(np.abs(E).sum(axis=0).max())
    g_norm = int(np.abs(G).sum(axis=0).max())
    t_norm = int(np.abs(T).max(initial=0))

    C = [model.lattice.integer_coords(x) for _, x in seed.points]
    if None in C:
        raise ValueError("a seed position lies outside the return module")
    C = np.array(C, dtype=np.int64).reshape(-1, model.lattice.rank)
    types, F = seed.tile_types, seed.coords
    for _ in range(steps):
        if (int(np.abs(C).max(initial=0)) * e_norm + t_norm) * g_norm > EXACT_LIMIT:
            raise ValueError("inflated coordinates could exceed 2**53")
        parts = list(disp.images([C[types == j] for j in range(disp.n)], E, T))
        C = np.concatenate(parts)
        types = np.repeat(np.arange(disp.n), [len(p) for p in parts])
        F = C @ G
        order = np.lexsort((types,) + tuple(F.T[::-1]))
        C, F, types = C[order], F[order], types[order]
        new = np.ones(len(C), dtype=bool)
        new[1:] = (types[1:] != types[:-1]) | np.any(F[1:] != F[:-1], axis=1)
        C, F, types = C[new], F[new], types[new]
    return TypedPointSet(model.field, types, F)


def truncate(patch: TypedPointSet, radius: float, center=None) -> TypedPointSet:
    """Keep points with |phys(x) - center| <= radius; ``center`` defaults to
    the origin and must have the field's dimension."""
    if not radius >= 0:     # NaN too
        raise ValueError(f"radius must be >= 0, got {radius}")
    pos = patch.positions_phys()
    d = patch.field.dim
    c = np.zeros(d) if center is None else np.atleast_1d(center).astype(float)
    if c.shape != (d,):
        raise ValueError(f"center must have dimension {d}")
    keep = np.linalg.norm(pos - c, axis=1) <= radius + 1e-12
    return TypedPointSet(patch.field, patch.tile_types[keep], patch.coords[keep])


def substitution_matrix(model: ModelSpec) -> np.ndarray:
    """Exact cardinality matrix, the read-only array ``card_matrix`` shares."""
    return model.require_displacement().card_matrix()


def patch_to_csv(patch: TypedPointSet, path, model: ModelSpec | None = None) -> None:
    """Write (type, x, y) rows; y is 0 for one-dimensional models.

    Formats ``_CSV_BLOCK`` = 4096 rows with one ``%`` at a time, over their
    fields interleaved in one flat list, so memory is bounded by one block.
    """
    pos, types = patch.positions_phys(), patch.tile_types
    labels = model.tile_labels if model is not None else None
    # "%.17g" % 0.0 is "0": the 1d y column is written as that literal
    fmt = "%s,%.17g,%.17g\n" if pos.shape[1] == 2 else "%s,%.17g,0\n"
    width = 1 + pos.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("type,x,y\n")
        for lo in range(0, len(types), _CSV_BLOCK):
            names = types[lo:lo + _CSV_BLOCK].tolist()
            if labels:
                names = [labels[ty] for ty in names]
            flat = [None] * (width * len(names))
            flat[::width] = names
            for k, column in enumerate(pos[lo:lo + _CSV_BLOCK].T.tolist(), 1):
                flat[k::width] = column
            fh.write(fmt * len(names) % tuple(flat))
