"""Per-sample and per-row reference forms the tests check the package
against. The package computes the same quantities batched, in
``models.hidden_activations`` and ``penalties.penalty_value``."""

import numpy as np
import scipy.sparse as sp

from polyfactor.penalties import _check_kind


def activation(kind: str, h: np.ndarray, x) -> float:
    """Activation of one hidden unit on one sample.

    PN: (h^T x)^2.  FM: sum over feature pairs i<j of x_i h_i x_j h_j,
    computed as ((h^T x)^2 - sum_j h_j^2 x_j^2) / 2 in O(nnz(x)).
    """
    if sp.issparse(x):
        x = x.toarray().ravel()
    x = np.asarray(x, dtype=np.float64)
    s = float(h @ x)
    if kind == "pn":
        return s * s
    if kind == "fm":
        return 0.5 * (s * s - float((h * h) @ (x * x)))
    raise ValueError(f"unknown model kind {kind!r}")


def row_norm(kind: str, v: np.ndarray) -> float:
    """The per-row norm the penalty sums over rows."""
    _check_kind(kind)
    if kind == "l1":
        return float(np.abs(v).sum())
    if kind == "l1l2":
        return float(np.linalg.norm(v))
    return float(np.abs(v).max()) if v.size else 0.0
