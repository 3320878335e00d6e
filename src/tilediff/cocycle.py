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
# amplitude_batch sweeps its input in blocks of this many rows, which
# bounds its memory
_CHUNK = 2048


@dataclass(frozen=True)
class AmplitudeVector:
    """Per-tile-type amplitudes at one internal argument."""

    H: np.ndarray
    n_iters: int
    rank1_residual: float


class FourierEvaluator:
    """Precomputed starred-translation data for one model."""

    def __init__(self, model: ModelSpec):
        disp = model.require_displacement()
        self.model = model
        self.n = disp.n
        self.d = model.dim
        self.pf = float(model.pf_eigenvalue.embed_phys()[0])
        self.contraction = model.int_contraction_matrix

        # the translation table sorted by column (source type), stably, so
        # each (row, column) cell keeps its translations in table order; a
        # primitive M has a translation in every column, so each column
        # segment is non-empty
        by_col = np.argsort(disp.cols, kind="stable")
        cols = disp.cols[by_col]
        self._row = read_only(disp.rows[by_col])
        self._col_start = read_only(np.searchsorted(cols, np.arange(self.n)))
        # Fourier matrix cells, visited column by column, and the flat
        # row-major index into B of each
        keys, start = np.unique(cols * self.n + self._row, return_index=True)
        self._cells, self._cell_start = map(read_only, (
            keys % self.n * self.n + keys // self.n, start))

        # exponentials are evaluated once per starred translation up to the
        # sign of its first nonzero coordinate, at the sign of its first
        # entry, and gathered per translation through _phase; an entry of
        # the other sign takes the conjugate (cos is even, sin is odd and
        # negation is exact) from the columns after len(_t_star), in _twin
        stars = disp.stars[by_col]
        lead = stars[np.arange(len(stars)), np.argmax(stars != 0, axis=1)]
        sign = np.where(lead < 0, -1.0, 1.0)
        _, first, phase = np.unique(stars * sign[:, None], axis=0,
                                    return_index=True, return_inverse=True)
        flip = sign != sign[first][phase]
        twin, slot = np.unique(phase[flip], return_inverse=True)
        phase[flip] = len(first) + slot
        self._t_star, self._phase, self._twin = map(read_only, (
            stars[first], phase, twin))

        self.M = read_only(disp.card_matrix())
        self.left, self.right = map(read_only, pf_data(self.M)[1:])

    # -- Fourier matrix ---------------------------------------------------------

    def _exponentials(self, K: np.ndarray) -> np.ndarray:
        """exp(2 pi i <t*, k>) per translation, shape (nk, m), in the
        column-sorted order of the table."""
        X = _TWO_PI * (K @ self._t_star.T)
        u = X.shape[1]
        E = np.empty((len(X), u + len(self._twin)), dtype=complex)
        np.cos(X, out=E.real[:, :u])
        np.sin(X, out=E.imag[:, :u])
        np.conjugate(E[:, self._twin], out=E[:, u:])
        return E[:, self._phase]

    def fourier_matrix_batch(self, K: np.ndarray) -> np.ndarray:
        """B(k) for a batch of internal arguments, shape (nk, n, n)."""
        K = np.atleast_2d(np.asarray(K, dtype=float))
        B = np.zeros((len(K), self.n * self.n), dtype=complex)
        B[:, self._cells] = np.add.reduceat(self._exponentials(K),
                                            self._cell_start, axis=1)
        return B.reshape(-1, self.n, self.n)

    def fourier_matrix(self, k_int) -> np.ndarray:
        return self.fourier_matrix_batch(np.atleast_1d(k_int))[0]

    # -- cocycle ----------------------------------------------------------------

    def cocycle_limit_batch(self, K: np.ndarray, n: int) -> np.ndarray:
        """pf^-n B(k) B(A^T k) ... B((A^T)^(n-1) k), batched over rows of K."""
        if n < 1:
            raise ValueError("need at least one cocycle factor")
        K = np.atleast_2d(np.asarray(K, dtype=float))
        inv = 1.0 / self.pf
        P = self.fourier_matrix_batch(K) * inv
        for _ in range(n - 1):      # k -> A^T k per factor, in row form
            K = K @ self.contraction
            P = P @ (self.fourier_matrix_batch(K) * inv)
        return P

    def cocycle_limit(self, k_int, n: int) -> np.ndarray:
        return self.cocycle_limit_batch(np.atleast_1d(k_int), n)[0]

    # -- amplitudes ---------------------------------------------------------------

    def amplitude_batch(self, K: np.ndarray, n: int | None = None, *,
                        weights: np.ndarray, floor: float = 0.0) -> np.ndarray:
        """Weighted totals w.H(k) for a batch of internal arguments,
        matrix-free, shape (nk,).

        The cocycle is applied from the left, y <- pf^-1 y^T B(q) with
        q <- A^T q per step from q = k, y = w, one segmented sum per step
        over the column-sorted translations; total = density (y . v) /
        (1^T v) with v the right PF vector.  Since |B_il| <= M_il and
        Mv = pf v, every step bounds |total| <= density sum_i |y_i| v_i /
        (1^T v), and the bound never grows.  With ``floor`` > 0 a row whose
        squared bound falls below ``floor`` by more than a relative
        ``_PRUNE_RTOL`` (a rounding margin) at a checked step stops there,
        leaves the sweep and comes back as exactly 0; every other row is
        the unpruned weighted total.  The bound is checked at every step
        while the last check stopped a row; after a check that stops none
        the gap to the next check doubles.  Rows run in blocks of
        ``_CHUNK``, each with its own check schedule.  Per-type
        amplitudes H_i(k) are the totals at unit weights, one call per tile
        type.
        """
        if n is None:
            n = self.model.default_iters
        if n < 1:
            raise ValueError("need at least one cocycle factor")
        if not floor >= 0:     # NaN too
            raise ValueError(f"floor must be >= 0, got {floor}")
        K = np.atleast_2d(np.asarray(K, dtype=float))
        w = np.asarray(weights, dtype=complex)
        if K.ndim != 2 or K.shape[1] != self.d:
            raise ValueError(f"arguments must have shape (N, {self.d}), "
                             f"got {K.shape}")
        if w.shape != (self.n,):
            raise ValueError(f"weights must have length {self.n}, got shape "
                             f"{w.shape}")
        inv = 1.0 / self.pf
        scale = self.model.density / self.right.sum()
        cut = np.sqrt(floor * (1.0 - _PRUNE_RTOL)) / scale
        out = np.zeros(len(K), dtype=complex)
        for lo in range(0, len(K), _CHUNK):
            q = K[lo:lo + _CHUNK]
            rows = np.arange(lo, lo + len(q))   # input row of each array row
            y = np.broadcast_to(w, (len(q), self.n))
            due, gap = 0, 1     # the next step whose bound is checked
            for step in range(n):
                if step:
                    q = q @ self.contraction
                e = self._exponentials(q)
                e *= y[:, self._row]
                y = np.add.reduceat(e, self._col_start, axis=1) * inv
                if floor > 0 and due == step < n - 1:
                    live = np.abs(y) @ self.right >= cut
                    if live.all():
                        gap *= 2
                    else:
                        gap = 1
                        rows, y, q = rows[live], y[live], q[live]
                    due = step + gap
            out[rows] = scale * (y * self.right).sum(axis=1)
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

