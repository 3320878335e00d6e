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
from .models import ModelDataError, ModelSpec, pf_data

__all__ = ["FourierEvaluator", "AmplitudeVector"]

_TWO_PI = 2.0 * np.pi


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
        # and gathered per translation through _phase
        self._t_star, self._phase = map(read_only, np.unique(
            disp.stars, axis=0, return_inverse=True))
        self._col = disp.cols
        rows = disp.rows
        if len(np.unique(rows)) != self.n:
            raise ModelDataError("every tile type needs a translation")
        # the table is sorted by row and by cell: segment starts for
        # the sums into rows (sweep) and into cells (Fourier matrix)
        self._row_start = read_only(np.searchsorted(rows, np.arange(self.n)))
        self._cells, self._cell_start = map(read_only, np.unique(
            rows * self.n + self._col, return_index=True))

        self.M = read_only(disp.card_matrix())
        self.left, self.right = map(read_only, pf_data(self.M)[1:])

    # -- Fourier matrix ---------------------------------------------------------

    def _exponentials(self, K: np.ndarray) -> np.ndarray:
        """exp(2 pi i <t*, k>) per translation, shape (nk, m)."""
        E = np.exp((_TWO_PI * 1j) * (K @ self._t_star.T))
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
        args = K
        P = self.fourier_matrix_batch(args) * inv
        for _ in range(n - 1):
            args = args @ self.contraction               # k -> A^T k, row form
            P = P @ (self.fourier_matrix_batch(args) * inv)
        return P

    def cocycle_limit(self, k_int, n: int) -> np.ndarray:
        return self.cocycle_limit_batch(np.atleast_1d(k_int), n)[0]

    # -- amplitudes ---------------------------------------------------------------

    def amplitude_batch(self, K: np.ndarray, n: int | None = None) -> np.ndarray:
        """H_i(k) for a batch of internal arguments, shape (nk, n_tiles).

        Matrix-free: the cocycle is applied to the right PF vector from
        the innermost factor outwards, x <- pf^-1 B((A^T)^j k) x for
        j = n-1, ..., 0, each step a segmented sum over the translations.
        k = 0 rides along as row 0 and normalizes sum_i H_i(0) to the
        density.
        """
        if n is None:
            n = self.model.default_iters
        if n < 1:
            raise ValueError("need at least one cocycle factor")
        K = np.atleast_2d(np.asarray(K, dtype=float))
        args = [np.concatenate([np.zeros((1, self.d)), K])]
        for _ in range(n - 1):
            args.append(args[-1] @ self.contraction)     # k -> A^T k, row form
        inv = 1.0 / self.pf
        x = self.right[None, :]
        for a in reversed(args):
            y = self._exponentials(a)
            y *= x[:, self._col]
            x = np.add.reduceat(y, self._row_start, axis=1) * inv
        return self.model.density * x[1:] / x[0].sum()

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

