"""Internal Fourier matrix, its cocycle product, and window transforms.

For a model with displacement matrix T and internal contraction A, the
Fourier matrix is ``B(k)_ij = sum_{t in T_ij} exp(2 pi i <t*, k>)`` with
t* the starred translations.  The normalized product

    C_n(k) = pf^-n  B(k) B(A^T k) ... B((A^T)^(n-1) k)

converges exponentially fast to a rank-one matrix |c(k)><u| whose column
factor is proportional to the vector of window Fourier transforms.  The
per-tile amplitudes are normalized so that H_i(0) equals density times
the tile frequency, which makes the central equal-weight intensity equal
the squared point density.

Evaluators are immutable, with read-only arrays; amplitude evaluation at
distinct arguments is pure and batches over many arguments at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import read_only
from .models import ModelSpec, pf_data

__all__ = ["FourierEvaluator", "AmplitudeVector"]

_TWO_PI = 2.0 * np.pi

# a weighted row stops once its squared bound is below (1 - _PRUNE_RTOL)
# times the floor: the margin covers the rounding of the bound and total
_PRUNE_RTOL = 1e-9
# the left sweep drops stopped rows once they are this share of its arrays
_COMPACT = 0.125


@dataclass(frozen=True)
class AmplitudeVector:
    """Per-tile-type amplitudes at one internal argument."""

    H: np.ndarray
    n_iters: int
    rank1_residual: float

    def total(self, weights=None) -> complex:
        if weights is None:
            return complex(self.H.sum())
        return complex(np.dot(np.asarray(weights, dtype=complex), self.H))


class FourierEvaluator:
    """Precomputed starred-translation data for one model."""

    def __init__(self, model: ModelSpec):
        disp = model.require_displacement()
        self.model = model
        self.n = disp.n
        self.d = model.dim
        self.pf = float(model.pf_eigenvalue.embed_phys()[0])
        self.contraction = model.int_contraction_matrix

        # exponentials are evaluated once per distinct starred translation
        # and gathered per translation through _phase; of a pair {t*, -t*}
        # only the one whose first nonzero coordinate is positive is
        # evaluated, and the other takes its conjugate (cos is even, sin is
        # odd and negation is exact), in the columns after len(_t_star)
        stars, phase = np.unique(disp.stars, axis=0, return_inverse=True)
        row = {t: i for i, t in enumerate(map(tuple, stars.tolist()))}
        twin = np.array([row.get(tuple(-x for x in t), -1) for t in row])
        lead = stars[np.arange(len(stars)), np.argmax(stars != 0, axis=1)]
        mirror = (lead < 0) & (twin >= 0)
        column = np.empty(len(stars), dtype=np.int64)
        column[~mirror] = np.arange(np.sum(~mirror))
        column[mirror] = np.sum(~mirror) + np.arange(np.sum(mirror))
        self._t_star, self._phase, self._twin = map(read_only, (
            stars[~mirror], column[phase], column[twin[mirror]]))
        self._col = disp.cols
        # segment starts of the sums into rows (right sweep) and cells
        # (Fourier matrix)
        self._row_start = disp.row_start[:-1]
        # the table sorted by column for the left sweep; a primitive M has
        # a translation in every column, so each segment is non-empty
        by_col = np.argsort(disp.cols, kind="stable")
        self._phase_by_col, self._row_by_col = map(
            read_only, (self._phase[by_col], disp.rows[by_col]))
        self._col_start = read_only(np.searchsorted(disp.cols[by_col],
                                                    np.arange(self.n)))
        self._cells, self._cell_start = map(read_only, np.unique(
            disp.rows * self.n + self._col, return_index=True))

        self.M = read_only(disp.card_matrix())
        self.left, self.right = map(read_only, pf_data(self.M)[1:])

    # -- Fourier matrix ---------------------------------------------------------

    def _exponentials(self, K: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """exp(2 pi i <t*, k>) per translation, shape (nk, m), in the order
        of ``phase``: ``_phase`` or a permutation of it."""
        X = _TWO_PI * (K @ self._t_star.T)
        u = X.shape[1]
        E = np.empty((len(X), u + len(self._twin)), dtype=complex)
        np.cos(X, out=E.real[:, :u])
        np.sin(X, out=E.imag[:, :u])
        np.conjugate(E[:, self._twin], out=E[:, u:])
        return E[:, phase]

    def fourier_matrix_batch(self, K: np.ndarray) -> np.ndarray:
        """B(k) for a batch of internal arguments, shape (nk, n, n)."""
        K = np.atleast_2d(np.asarray(K, dtype=float))
        B = np.zeros((len(K), self.n * self.n), dtype=complex)
        B[:, self._cells] = np.add.reduceat(self._exponentials(K, self._phase),
                                            self._cell_start, axis=1)
        return B.reshape(-1, self.n, self.n)

    def fourier_matrix(self, k_int) -> np.ndarray:
        return self.fourier_matrix_batch(np.atleast_1d(k_int))[0]

    # -- cocycle ----------------------------------------------------------------

    def _arguments(self, K: np.ndarray, n: int) -> list:
        """K, K A, ..., K A^(n-1) in row form: k -> A^T k per factor."""
        args = [K]
        for _ in range(n - 1):
            args.append(args[-1] @ self.contraction)
        return args

    def cocycle_limit_batch(self, K: np.ndarray, n: int) -> np.ndarray:
        """pf^-n B(k) B(A^T k) ... B((A^T)^(n-1) k), batched over rows of K."""
        if n < 1:
            raise ValueError("need at least one cocycle factor")
        K = np.atleast_2d(np.asarray(K, dtype=float))
        inv = 1.0 / self.pf
        P = None
        for a in self._arguments(K, n):
            B = self.fourier_matrix_batch(a) * inv
            P = B if P is None else P @ B
        return P

    def cocycle_limit(self, k_int, n: int) -> np.ndarray:
        return self.cocycle_limit_batch(np.atleast_1d(k_int), n)[0]

    # -- amplitudes ---------------------------------------------------------------

    def amplitude_batch(self, K: np.ndarray, n: int | None = None, *,
                        weights: np.ndarray | None = None,
                        floor: float = 0.0) -> np.ndarray:
        """Amplitudes for a batch of internal arguments, matrix-free.

        Without ``weights``: H_i(k), shape (nk, n_tiles).  The cocycle is
        applied to the right PF vector v from the innermost factor
        outwards, x <- pf^-1 B((A^T)^j k) x for j = n-1, ..., 0, each step
        a segmented sum over the translations.  k = 0 rides along as row 0
        and normalizes sum_i H_i(0) to the density.

        With ``weights`` w: the totals w.H(k), shape (nk,), from the left,
        y <- pf^-1 y^T B((A^T)^j k) for j = 0, ..., n-1 from y = w, one
        segmented sum per step over the column-sorted translations;
        total = density (y . v) / (1^T v).  Since |B_il| <= M_il and
        Mv = pf v, every step bounds |total| <= density sum_i |y_i| v_i /
        (1^T v), and the bound never grows.  With ``floor`` > 0 a row
        whose squared bound falls below ``floor`` by more than a relative
        ``_PRUNE_RTOL`` (a rounding margin) stops and comes back as
        exactly 0; every other row is the unpruned weighted total.
        Per-type amplitudes from the left would take one sweep per tile
        type, so per-type callers keep the right sweep.
        """
        if n is None:
            n = self.model.default_iters
        if n < 1:
            raise ValueError("need at least one cocycle factor")
        if floor > 0 and weights is None:
            raise ValueError("a floor needs weights")
        K = np.atleast_2d(np.asarray(K, dtype=float))
        inv = 1.0 / self.pf
        if weights is None:
            x = self.right[None, :]
            for a in reversed(self._arguments(
                    np.concatenate([np.zeros((1, self.d)), K]), n)):
                y = self._exponentials(a, self._phase)
                y *= x[:, self._col]
                x = np.add.reduceat(y, self._row_start, axis=1) * inv
            return self.model.density * x[1:] / x[0].sum()

        scale = self.model.density / self.right.sum()
        cut = np.sqrt(floor * (1.0 - _PRUNE_RTOL)) / scale
        rows = np.arange(len(K))            # input row of each array row
        live = np.ones(len(K), dtype=bool)
        y = np.broadcast_to(np.asarray(weights, dtype=complex), (len(K), self.n))
        for step, a in enumerate(self._arguments(K, n)):
            e = self._exponentials(a[rows], self._phase_by_col)
            e *= y[:, self._row_by_col]
            y = np.add.reduceat(e, self._col_start, axis=1) * inv
            if floor > 0 and step < n - 1:
                live &= np.abs(y) @ self.right >= cut
                if live.sum() <= (1.0 - _COMPACT) * len(live):
                    rows, y, live = rows[live], y[live], live[live]
        out = np.zeros(len(K), dtype=complex)
        out[rows[live]] = scale * (y[live] * self.right).sum(axis=1)
        return out

    def amplitudes(self, k_int, n: int | None = None) -> AmplitudeVector:
        """Amplitudes with the rank-one convergence diagnostic."""
        if n is None:
            n = self.model.default_iters
        P0, P = self.cocycle_limit_batch(
            np.vstack([np.zeros(self.d), np.atleast_1d(k_int)]), n)
        H = self.model.density * (P @ self.right) / (P0 @ self.right).sum()
        sv = np.linalg.svd(P, compute_uv=False)
        residual = float(sv[1] / sv[0]) if sv[0] > 0 else 0.0
        return AmplitudeVector(H=H, n_iters=n, rank1_residual=residual)

