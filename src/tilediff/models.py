"""Built-in tiling models and displacement-matrix ingestion.

A :class:`ModelSpec` packages one inflation tiling system: its number
field, the return-module generators (whose Minkowski lifts span the
cut-and-project lattice), the expansion map, the set-valued displacement
matrix, density metadata, and the catalog of deformations.  Four models
ship with the library; :func:`builtin` builds each once and shares it:

``silver``          binary chain with intervals of length sqrt2 and 1
``silver_twisted``  same return module, reordered inflation; windows are
                    Cantorvals instead of intervals
``cap``             24 prototiles (4 shapes x 6 orientations); the
                    self-similar companion of the Hat family
``casper_scaffold`` the Spectre companion; ships without displacement
                    data, which must be loaded from a JSON file

Displacement translations are exact field elements in physical
coordinates.  The CAP displacement data is stored as packaged JSON in
``data/cap_displacement.json`` and validated by the exact sixfold
conjugation identity (see :func:`validate_symmetry`), which pinpoints any
corrupted entry.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from importlib import resources
from types import MappingProxyType

import numpy as np

from .algebra import (CAP, EXACT_LIMIT, FIELDS, SILVER, SPECTRE,
                      AlgebraicElement, FieldSpec, Surd, read_only)
from .cocycle import FourierEvaluator
from .cps import LatticeBasis

__all__ = [
    "DisplacementMatrix", "DeformationMap", "ModelSpec", "ModelDataError",
    "builtin", "builtin_names", "load_displacement", "save_displacement",
    "validate_symmetry", "SymmetryReport",
]


class ModelDataError(ValueError):
    """Raised for malformed or inconsistent displacement data."""


class DisplacementMatrix:
    """Set-valued displacement matrix; entry (i, j) lists the translations
    of type-i tiles inside an inflated type-j tile.

    The flat translation table holds one row per translation in
    :meth:`iter_translations` order (row-major): ``rows`` (int64 target
    types), ``cols`` (int64 source types) and ``stars`` (float starred
    translations, shape (m, dim)); ``row_start`` (n+1 bounds) cuts it into
    one nonempty segment per target type, which :meth:`images` walks.
    """

    def __init__(self, field: FieldSpec, entries):
        self.field = field
        self.entries = tuple(tuple(tuple(cell) for cell in row) for row in entries)
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise ModelDataError("displacement matrix must be square")
            for cell in row:
                for t in cell:
                    if t.field is not field:
                        raise ModelDataError("translation from wrong field")
        flat = list(self.iter_translations())
        self.rows = read_only(np.array([i for i, _, _ in flat], dtype=np.int64))
        self.cols = read_only(np.array([j for _, j, _ in flat], dtype=np.int64))
        self.stars = read_only(np.array([_finite_star(i, j, t) for i, j, t in flat],
                                        dtype=float).reshape(len(flat), field.dim))
        self.row_start = read_only(np.searchsorted(self.rows, np.arange(self.n + 1)))
        if not np.diff(self.row_start).all():
            raise ModelDataError("every tile type needs a translation")
        self._M = read_only(np.bincount(self.rows * self.n + self.cols,
                                        minlength=self.n ** 2).reshape(self.n, self.n))

    @cached_property
    def sixfold_violations(self) -> tuple:
        """Entries (i, j) that break the exact sixfold conjugation identity
        T[sigma(i)][sigma(j)] == xi * T[i][j] (as sets); see
        :func:`sixfold_shift`.  Computed once per matrix, which the models
        built on it share."""
        xi = self.field.gen("xi")
        sigma = sixfold_shift(self.n).tolist()
        return tuple(
            (i, j) for i in range(self.n) for j in range(self.n)
            if {(xi * t).coords for t in self.entries[i][j]}
            != {t.coords for t in self.entries[sigma[i]][sigma[j]]})

    @cached_property
    def charpoly(self) -> tuple:
        """Integer coefficients of det(xI - M), M the cardinality matrix, highest
        degree first, by Faddeev-LeVerrier (M_1 = I, c_k = -tr(M M_k) / k,
        M_(k+1) = M M_k + c_k I; each division is exact), in int64 while
        |M M_k| < 2**62 and in Python ints from the first step that could pass
        it.  Computed once per matrix, which the models built on it share."""
        M = self.card_matrix()
        limit = 2 ** 62 // (self.n * int(M.max()))    # |M X| <= n max(M) max|X|
        coeffs, MMk = [1], M
        for k in range(1, self.n + 1):
            coeffs.append(-sum(MMk.diagonal().tolist()) // k)
            if k < self.n:
                big = np.abs(MMk).max() + abs(coeffs[-1]) > limit
                X = MMk.astype(object if big else MMk.dtype)
                X[np.diag_indices(self.n)] += coeffs[-1]
                MMk = M @ X
        return tuple(coeffs)

    @cached_property
    def perron(self) -> tuple:
        """Float eigenvalues of M and its right PF vector v (summing to 1),
        read-only, from one Wielandt check and one eigen-solve per matrix;
        :class:`ModelDataError` unless M is primitive, its PF root real."""
        _require_primitive(self._M)
        eigs, vecs = np.linalg.eig(self._M.astype(float))
        idx = int(np.argmax(eigs.real))
        if abs(eigs[idx].imag) > 1e-9:
            raise ModelDataError("leading eigenvalue is not real")
        v = np.real(vecs[:, idx])
        return read_only(eigs), read_only(v / v.sum())

    def card_matrix(self) -> np.ndarray:
        """The cardinality matrix M_ij = |T_ij|, one shared read-only array."""
        return self._M

    def images(self, sources, linear, shifts):
        """One step of the graph-directed maps: yields, per target type i, the
        concatenation of ``sources[j] @ linear + shifts[r]`` over the
        translations r of the entries (i, j), in table order, each row mapped
        by :func:`apply_linear`."""
        mapped = [apply_linear(s, linear) for s in sources]
        cols, bounds = self.cols.tolist(), self.row_start.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield np.concatenate([mapped[cols[r]] + shifts[r] for r in range(lo, hi)])

    def iter_translations(self):
        for i, row in enumerate(self.entries):
            for j, cell in enumerate(row):
                for t in cell:
                    yield i, j, t


def apply_linear(points: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """``points @ linear`` by elementwise multiply-adds in a fixed order, so
    that each row maps to the same bits in any batch: a BLAS matmul may
    round one row differently alone and among others."""
    out = points[..., :1] * linear[0]
    for k in range(1, len(linear)):
        out += points[..., k:k + 1] * linear[k]
    return out


def sixfold_shift(n: int) -> np.ndarray:
    """sigma as an index array: advance the orientation index within each
    block of six tile types."""
    i = np.arange(n)
    return i - i % 6 + (i + 1) % 6


def _finite_star(i: int, j: int, t: AlgebraicElement) -> np.ndarray:
    """Float starred image of the translation t at entry (i, j)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            star = t.embed_int()
        if np.isfinite(star).all():
            return star
    except OverflowError:
        pass
    raise ModelDataError(
        f"translation at entry ({i},{j}) has no finite starred image")


@dataclass(frozen=True)
class DeformationMap:
    """Linear map D from internal to physical space, with exact entries.

    The rows define the deformation: its periods and the lattice of its
    cocycle arguments k_int - D^T k_phys are derived from them on a model's
    lattice (``LatticeBasis.periods``, ``LatticeBasis.argument_lattice``).
    """

    name: str
    rows: tuple

    @cached_property
    def matrix(self) -> np.ndarray:
        return read_only(np.array([[float(x) for x in row] for row in self.rows]))


@dataclass(frozen=True, eq=False, repr=False)
class ModelSpec:
    """One tiling system.

    Frozen, with read-only ``deformations``: :func:`builtin` shares one
    instance per name, and the lattice, integer tables, evaluator and
    symmetry data derived from it are cached on it, arrays read-only.
    Variants come from :meth:`with_displacement` or :func:`dataclasses.replace`.
    Every model with a displacement, built-in or variant, proves its
    ``pf_eigenvalue`` when it is built (:meth:`_require_pf_root`).
    """

    name: str
    field: FieldSpec
    tile_labels: tuple
    generators: tuple
    expansion: AlgebraicElement
    antilinear: bool
    pf_eigenvalue: AlgebraicElement
    displacement: DisplacementMatrix | None
    density_sq: AlgebraicElement
    window_volume: Surd | None
    fourier_module_doc: str
    deformations: Mapping[str, DeformationMap]
    orientations: int | None = None
    internal_cutoff: float = 3.0
    default_iters: int = 15

    def __post_init__(self):
        if self.displacement is not None:
            if self.displacement.n != self.n_tiles:
                raise ModelDataError("displacement size does not match tile count")
            self._require_pf_root()
        object.__setattr__(self, "deformations",
                           MappingProxyType(dict(self.deformations)))

    def _require_pf_root(self) -> None:
        """Raise :class:`ModelDataError` unless ``pf_eigenvalue`` is the
        Perron-Frobenius root of the primitive cardinality matrix M:
        det(xI - M) must vanish there exactly (Horner's rule in the field),
        and among the float eigenvalues of M (``DisplacementMatrix.perron``)
        the one nearest to it must be the one with the largest real part."""
        lam, (eigs, _) = self.pf_eigenvalue, self.displacement.perron
        value = self.field.zero()
        for c in self.displacement.charpoly:
            value = value * lam + c
        nearest = np.argmin(np.abs(eigs - complex(*lam.embed_phys())))
        if value or nearest != np.argmax(eigs.real):
            raise ModelDataError(f"documented PF eigenvalue {lam} is not the PF "
                                 f"root {eigs.real.max():.12g} of det(xI - M)")

    # -- derived data ----------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return len(self.tile_labels)

    @property
    def dim(self) -> int:
        return self.field.dim

    @property
    def has_displacement(self) -> bool:
        return self.displacement is not None

    @cached_property
    def lattice(self) -> LatticeBasis:
        return LatticeBasis(self.generators)

    @cached_property
    def translation_coords(self) -> np.ndarray:
        """Int64 generator coordinates, (m, rank), of the translations in table
        order; a :class:`ModelDataError` names an entry (i, j) outside the module
        or int64, or one whose field coordinates, bounded by max|c| times the
        largest column sum of the generators' |field coordinates|, could pass
        2**53: the budget of one inflation step from the origin."""
        g_norm = max(sum(map(abs, col))
                     for col in zip(*(g.coords for g in self.generators)))
        coords = []
        for i, j, t in self.require_displacement().iter_translations():
            c = self.lattice.integer_coords(t)
            if c is None:
                raise ModelDataError(
                    f"translation at entry ({i},{j}) outside the return module: {t}")
            if not all(abs(x) < 2 ** 63 for x in c):
                raise ModelDataError(f"translation at entry ({i},{j}) has "
                                     f"generator coordinates beyond int64: {t}")
            if max(map(abs, c), default=0) * g_norm > EXACT_LIMIT:
                raise ModelDataError(f"translation at entry ({i},{j}) has field "
                                     f"coordinates that could pass 2**53: {t}")
            coords.append(c)
        T = np.array(coords, dtype=np.int64)
        return read_only(T.reshape(-1, self.lattice.rank))

    @cached_property
    def expansion_coords(self) -> np.ndarray:
        """Int64 matrix E of the expansion on generator coordinates, in row
        form: the point with coordinates c maps to c @ E."""
        coords = [self.lattice.integer_coords(self.apply_expansion(g))
                  for g in self.generators]
        if None in coords:
            raise ModelDataError("an expanded generator leaves the return module")
        return read_only(np.array(coords, dtype=np.int64))

    @cached_property
    def evaluator(self) -> FourierEvaluator:
        """The Fourier evaluator, built on first use and kept on this model."""
        return FourierEvaluator(self)

    @cached_property
    def contraction(self) -> AlgebraicElement:
        """Star image of the expansion; the internal IFS multiplier."""
        return self.expansion.star()

    @cached_property
    def density(self) -> float:
        """Control-point density (metadata, from the exact square)."""
        return float(np.sqrt(self.density_sq.embed_phys()[0]))

    def _scalar_matrix(self, elem: AlgebraicElement) -> np.ndarray:
        """Matrix of x -> elem*x (or elem*conj(x) if antilinear) on R^dim."""
        v = elem.embed_phys()
        if self.dim == 1:
            m = np.array([[v[0]]])
        else:
            a, b = v
            m = np.array([[a, b], [b, -a]] if self.antilinear else [[a, -b], [b, a]])
        return read_only(m)

    @cached_property
    def int_contraction_matrix(self) -> np.ndarray:
        return self._scalar_matrix(self.contraction)

    def apply_expansion(self, x: AlgebraicElement) -> AlgebraicElement:
        """Inflation map on exact physical coordinates."""
        if self.antilinear:
            return self.expansion * x.conj()
        return self.expansion * x

    def require_displacement(self) -> DisplacementMatrix:
        if self.displacement is None:
            raise ModelDataError(
                f"model {self.name!r} has no displacement data loaded")
        return self.displacement

    def with_displacement(self, disp: DisplacementMatrix) -> "ModelSpec":
        """Attach validated displacement data; returns a new model.

        Checks field identity and return-module membership of every
        translation; building the model proves that the cardinality matrix
        is primitive with the documented Perron-Frobenius eigenvalue.
        """
        if disp.field is not self.field:
            raise ModelDataError("displacement data for a different field")
        if self.displacement is not None and disp.n != self.n_tiles:
            raise ModelDataError(
                f"expected {self.n_tiles} tile types, file has {disp.n}")
        labels = self.tile_labels
        if disp.n != len(labels):
            labels = tuple(f"t{i:02d}" for i in range(disp.n))
        model = dataclasses.replace(self, tile_labels=labels, displacement=disp)
        model.translation_coords   # noqa: B018  (the return-module check)
        return model

    def __repr__(self):
        data = "loaded" if self.has_displacement else "none"
        return (f"ModelSpec({self.name!r}, tiles={self.n_tiles}, "
                f"field={self.field.name!r}, displacement={data})")


def _require_primitive(M: np.ndarray) -> None:
    """Wielandt: a nonnegative n x n matrix is primitive iff its pattern
    raised to any power >= (n-1)^2 + 1 is positive."""
    n = M.shape[0]
    pattern = (M > 0).astype(np.int64)
    power = 1
    while power < (n - 1) ** 2 + 1:
        pattern = (pattern @ pattern > 0).astype(np.int64)
        power *= 2
    if not pattern.all():
        raise ModelDataError("matrix is not primitive")


# ---------------------------------------------------------------------------
# Displacement file I/O
#
# Schema: {"field": "silver"|"cap"|"spectre", "n": int,
#          "entries": [[[ [num,den], ... (degree pairs) ], ...], ...]}
# entries[i][j] is the list of translations of entry (i, j); each
# translation is a list of exact [numerator, denominator] pairs over the
# documented field basis.

def displacement_to_dict(disp: DisplacementMatrix) -> dict:
    return {
        "field": disp.field.name,
        "n": disp.n,
        "entries": [[[ [[c.numerator, c.denominator] for c in t.coords]
                       for t in cell] for cell in row] for row in disp.entries],
    }


def save_displacement(disp: DisplacementMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(displacement_to_dict(disp), fh, separators=(",", ":"))
        fh.write("\n")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _translation(field: FieldSpec, vec) -> AlgebraicElement:
    if not isinstance(vec, list) or len(vec) != field.degree:
        raise ModelDataError(f"translation needs {field.degree} coordinates")
    coords = []
    for pair in vec:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_is_int(x) for x in pair)):
            raise ModelDataError(
                f"coordinate must be an integer pair [num, den], got {pair!r}")
        if pair[1] <= 0:
            raise ModelDataError("denominator must be positive")
        coords.append(Fraction(pair[0], pair[1]))
    return field.element(coords)


def displacement_from_dict(data: dict) -> DisplacementMatrix:
    """Build a displacement matrix from the schema above.

    Malformed data of any shape raises :class:`ModelDataError`.
    """
    if not isinstance(data, dict):
        raise ModelDataError("displacement data must be a JSON object")
    try:
        fname = data["field"]
        n = data["n"]
        raw = data["entries"]
    except KeyError as exc:
        raise ModelDataError(f"missing displacement key: {exc}") from exc
    if not isinstance(fname, str) or fname not in FIELDS:
        raise ModelDataError(f"unknown field {fname!r}")
    field = FIELDS[fname]
    if not _is_int(n) or n <= 0:
        raise ModelDataError("n must be a positive integer")
    if not (isinstance(raw, list) and len(raw) == n
            and all(isinstance(row, list) and len(row) == n for row in raw)):
        raise ModelDataError(f"entries must form an {n}x{n} matrix")
    entries = []
    for i, row in enumerate(raw):
        out_row = []
        for j, cell in enumerate(row):
            if not isinstance(cell, list):
                raise ModelDataError(
                    f"entry ({i}, {j}) must be a list of translations")
            out_row.append(tuple(_translation(field, vec) for vec in cell))
        entries.append(tuple(out_row))
    return DisplacementMatrix(field, entries)


def load_displacement(path) -> DisplacementMatrix:
    """Parse and structurally validate a displacement JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelDataError(f"invalid JSON: {exc}") from exc
    return displacement_from_dict(data)


def _cap_displacement() -> DisplacementMatrix:
    ref = resources.files("tilediff").joinpath("data/cap_displacement.json")
    with ref.open("r", encoding="utf-8") as fh:
        return displacement_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Built-in models

def _el(field, *coords):
    return field.element(coords)


def _build_silver_model(twisted: bool) -> ModelSpec:
    z = SILVER.zero()
    one = SILVER.one()
    s2 = SILVER.gen("sqrt2")
    lam = one + s2
    if twisted:
        entries = [[(one + one,), (z,)], [(z, one), (s2,)]]
    else:
        entries = [[(z,), (z,)], [(s2, lam), (s2,)]]
    equal_lengths = DeformationMap("equal-lengths", ((Surd({1: 3, 2: -2}),),))
    return ModelSpec(
        name="silver_twisted" if twisted else "silver",
        field=SILVER,
        tile_labels=("a", "b"),
        generators=(one, s2),
        expansion=lam,
        antilinear=False,
        pf_eigenvalue=lam,
        displacement=DisplacementMatrix(SILVER, entries),
        density_sq=_el(SILVER, Fraction(3, 8), Fraction(1, 4)),
        window_volume=Surd({1: 1, 2: 1}),
        fourier_module_doc="sqrt2/4 * Z[sqrt2]",
        deformations={"equal-lengths": equal_lengths},
        orientations=None,
        internal_cutoff=30.0,
        default_iters=20,
    )


def _build_cap_model() -> ModelSpec:
    tau = CAP.gen("tau")
    xi = CAP.gen("xi")
    u1 = _el(CAP, 2, 3, -1, 0)
    u2 = _el(CAP, 1, 2, 1, -1)
    u3 = xi * u1
    u4 = xi * u2
    hat = DeformationMap("hat", (
        (Surd({1: Fraction(-11, 16)}), Surd({15: Fraction(3, 16)})),
        (Surd({15: Fraction(3, 16)}), Surd({1: Fraction(11, 16)}))))
    labels = tuple(f"{s}{o}" for s in "abcd" for o in range(6))
    return ModelSpec(
        name="cap",
        field=CAP,
        tile_labels=labels,
        generators=(u1, u2, u3, u4),
        expansion=tau * tau,
        antilinear=False,
        pf_eigenvalue=_el(CAP, 2, 3, 0, 0),      # tau^4
        displacement=_cap_displacement(),
        density_sq=_el(CAP, Fraction(1, 15), Fraction(-1, 25), 0, 0),
        window_volume=None,
        fourier_module_doc="(1+xi)(tau-xi) i/(3 sqrt15) * Z[tau,xi]",
        deformations={"hat": hat},
        orientations=6,
        internal_cutoff=3.0,
        default_iters=15,
    )


def _build_casper_model() -> ModelSpec:
    xi = SPECTRE.gen("xi")
    g1 = _el(SPECTRE, -1, -1, 1, -2)
    g2 = xi * g1
    g3 = _el(SPECTRE, -2, 1, 2, 2)
    g4 = _el(SPECTRE, -2, -2, -1, 2)
    deformations = {
        "hex": DeformationMap("hex", (
            (Surd.rational(-1), Surd.rational(0)),
            (Surd.rational(0), Surd.rational(1)))),
        "ht": DeformationMap("ht", (
            (Surd({15: Fraction(44, 201), 1: Fraction(-231, 201)}),
             Surd({3: Fraction(80, 201), 5: Fraction(-84, 201)})),
            (Surd({3: Fraction(80, 201), 5: Fraction(-84, 201)}),
             Surd({1: Fraction(231, 201), 15: Fraction(-44, 201)})))),
        "spectre": DeformationMap("spectre", (
            (Surd({5: Fraction(1, 2), 3: Fraction(-5, 6)}),
             Surd({1: Fraction(1, 2), 15: Fraction(-1, 6)})),
            (Surd({1: Fraction(1, 2), 15: Fraction(-1, 6)}),
             Surd({5: Fraction(-1, 2), 3: Fraction(5, 6)})))),
    }
    labels = tuple(f"t{i:02d}" for i in range(54))
    rho = (1 - xi + SPECTRE.gen("lam")) / 3      # expansion, applied antilinearly
    return ModelSpec(
        name="casper_scaffold",
        field=SPECTRE,
        tile_labels=labels,
        generators=(g1, g1 - g2, g3, g4),
        expansion=rho,
        antilinear=True,
        pf_eigenvalue=SPECTRE.gen("lam"),
        displacement=None,
        density_sq=_el(SPECTRE, Fraction(7, 108), 0, Fraction(-2, 243), 0),
        window_volume=Surd({3: 270, 5: Fraction(-405, 2)}),
        fourier_module_doc="i sqrt5 / 135 * R_CASPr",
        deformations=deformations,
        orientations=None,
        internal_cutoff=3.0,
        default_iters=10,
    )


_BUILDERS = {
    "silver": partial(_build_silver_model, False),
    "silver_twisted": partial(_build_silver_model, True),
    "cap": _build_cap_model,
    "casper_scaffold": _build_casper_model,
}


@cache
def builtin(name: str, /) -> ModelSpec:
    """The built-in model ``name``, built on first use and shared."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown model {name!r}; available: {builtin_names()}")
    return _BUILDERS[name]()


def builtin_names() -> tuple:
    return tuple(_BUILDERS)


# ---------------------------------------------------------------------------
# Sixfold symmetry validation

@dataclass
class SymmetryReport:
    exact_violations: list
    max_numeric_residual: float
    n_sampled: int

    @property
    def ok(self) -> bool:
        return not self.exact_violations and self.max_numeric_residual < 1e-12


def validate_symmetry(model: ModelSpec, seed: int = 0) -> SymmetryReport:
    """Check the sixfold conjugation identity of the displacement matrix.

    Exactly: T[sigma(i)][sigma(j)] == xi * T[i][j] as sets, where sigma
    advances the orientation index within each shape.  Numerically:
    S^T B(k) S == B(xi k) at 20 internal arguments drawn uniformly from
    [-2, 2]^2 with ``seed``.
    """
    if model.orientations != 6:
        raise ModelDataError(
            f"model {model.name!r} has no sixfold orientation structure")
    disp = model.require_displacement()
    xi = model.field.gen("xi")
    violations = list(disp.sixfold_violations)
    ev = model.evaluator
    perm = sixfold_shift(disp.n)
    rot = model._scalar_matrix(xi)
    K = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(20, 2))
    B = ev.fourier_matrix_batch(K)
    lhs = B[:, perm][:, :, perm]         # (S^T B S)_{ij} = B_{sigma(i) sigma(j)}
    rhs = ev.fourier_matrix_batch(K @ rot.T)
    return SymmetryReport(violations, float(np.max(np.abs(lhs - rhs))), 20)
