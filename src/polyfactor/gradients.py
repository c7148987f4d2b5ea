"""Matrix-free negative-gradient machinery for basis selection.

For each output c there is an implicit symmetric d x d operator built from
the design matrix and the current per-sample loss gradients D (n x m):

    PN:  A_c h = X^T (D[:, c] * (X h))
    FM:  A_c h = 0.5 * (X^T (D[:, c] * (X h)) - S[:, c] * h)

with S[j, c] = sum_i D[i, c] x_{ij}^2 (the FM diagonal correction). The row
of the negative objective gradient indexed by a candidate basis vector h is
g_h with g_{h,c} = -h^T A_c h.

When the m stacked d x d operators take no more entries than X has
nonzeros (m d^2 <= nnz(X)), each refresh assembles them once and every apply
is a small dense product; otherwise the applies stay matrix-free, O(nnz) each.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .losses import loss_gradients, targets_for
from .models import outputs


class GradientOperator:
    """Implicit per-output quadratic forms over a fixed Dataset.

    ``refresh`` recomputes the loss-gradient diagonals from a model;
    everything else is read-only and cheap. ``G`` holds the assembled
    (m, d, d) operator stack when it fits in X's footprint, else None.
    """

    def __init__(self, ds, kind: str, n_outputs: int | None = None):
        if kind not in ("pn", "fm"):
            raise ValueError(f"unknown model kind {kind!r}")
        self.ds = ds
        self.kind = kind
        self.X = ds.X
        self.XT = ds.X.T.tocsr()
        self.n, self.d = ds.X.shape
        self.m = ds.m if n_outputs is None else int(n_outputs)
        self.X2 = ds.X.multiply(ds.X).tocsr() if kind == "fm" else None
        self.D = np.zeros((self.n, self.m))
        self.S = np.zeros((self.d, self.m)) if kind == "fm" else None
        self.G = np.zeros((self.m, self.d, self.d)) \
            if self.m * self.d * self.d <= self.X.nnz else None

    def refresh(self, model, loss: str | None = None) -> None:
        """Recompute D from the model's outputs and the loss gradients."""
        loss = model.loss if loss is None else loss
        O = outputs(model, self.X)
        self.set_gradients(loss_gradients(loss, targets_for(loss, self.ds), O))

    def set_gradients(self, D: np.ndarray) -> None:
        """Install loss-gradient diagonals directly (updates FM and Gram caches)."""
        D = np.asarray(D, dtype=np.float64)
        if D.shape != (self.n, self.m):
            raise ValueError(f"D has shape {D.shape}, expected {(self.n, self.m)}")
        self.D = D
        if self.kind == "fm":
            self.S = np.asarray(self.X2.T @ D)
        if self.G is not None:
            self.G = self._assemble(D)

    def _assemble(self, D: np.ndarray) -> np.ndarray:
        """Stack of A_c for every output, from one sparse product."""
        n, d, m = self.n, self.d, self.m
        X = self.X
        rows = np.repeat(np.arange(n), np.diff(X.indptr))
        # Z[i, j*m + c] = x_ij * D[i, c], so (X^T Z)[a, b*m + c] = (X^T diag(D_c) X)[a, b]
        Z = sp.csr_matrix(((X.data[:, None] * D[rows]).ravel(),
                           (X.indices[:, None] * m + np.arange(m)).ravel(),
                           X.indptr * m), shape=(n, d * m))
        G = np.ascontiguousarray((self.XT @ Z).toarray().reshape(d, d, m).transpose(2, 0, 1))
        if self.kind == "fm":
            G[:, np.arange(d), np.arange(d)] -= self.S.T
            G *= 0.5
        return G

    def matvec(self, c: int, h: np.ndarray) -> np.ndarray:
        """Apply the output-c operator to a vector."""
        if self.G is not None:
            return self.G[c] @ h
        t = self.XT @ (self.D[:, c] * (self.X @ h))
        if self.kind == "pn":
            return t
        return 0.5 * (t - self.S[:, c] * h)

    def weighted_matvec(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Apply sum_c w_c A_c to a vector in one pass over X."""
        if self.G is not None:
            return w @ (self.G @ h)
        t = self.XT @ ((self.D @ w) * (self.X @ h))
        if self.kind == "pn":
            return t
        return 0.5 * (t - (self.S @ w) * h)

    def quad_values(self, h: np.ndarray) -> np.ndarray:
        """All per-output quadratic forms h^T A_c h as a length-m vector."""
        if self.G is not None:
            return self.G @ h @ h
        z = self.X @ h
        t = (z * z) @ self.D
        if self.kind == "pn":
            return np.asarray(t)
        return 0.5 * (np.asarray(t) - (h * h) @ self.S)

    def grad_row(self, h: np.ndarray) -> np.ndarray:
        """Negative-gradient row g_h (length m): g_{h,c} = -h^T A_c h."""
        return -self.quad_values(h)

    def dense_matrix(self, c: int) -> np.ndarray:
        """Materialized d x d operator; test/oracle use only (small d)."""
        Xd = self.X.toarray()
        M = Xd.T @ (self.D[:, c][:, None] * Xd)
        if self.kind == "pn":
            return M
        return 0.5 * (M - np.diag(self.S[:, c]))
