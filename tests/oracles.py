"""Per-sample, per-row and per-group reference forms the tests check the
package against. The package computes the same quantities batched, in
``models.hidden_activations``, ``penalties.penalty_value``,
``losses.loss_pass`` and ``mcrank.ndcg_at``."""

import numpy as np
import scipy.sparse as sp

from polyfactor.losses import loss_gradients, loss_values
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


def dual_norm(kind: str, G: np.ndarray) -> float:
    """max over the unit penalty ball of <Delta, G>."""
    _check_kind(kind)
    if G.size == 0:
        return 0.0
    if kind == "l1":
        return float(np.abs(G).max())
    if kind == "l1l2":
        return float(np.linalg.norm(G, axis=1).max())
    return float(np.abs(G).sum(axis=1).max())


def loss_value(kind: str, y, o: np.ndarray) -> float:
    """Single-sample loss; ``y`` is a class index (or sign vector / target)."""
    o = np.atleast_2d(np.asarray(o, dtype=np.float64))
    labels = np.atleast_2d(y) if kind == "binary-logistic" else np.atleast_1d(y)
    return float(loss_values(kind, labels, o)[0])


def loss_gradient(kind: str, y, o: np.ndarray) -> np.ndarray:
    """Single-sample gradient w.r.t. the output vector."""
    o = np.atleast_2d(np.asarray(o, dtype=np.float64))
    labels = np.atleast_2d(y) if kind == "binary-logistic" else np.atleast_1d(y)
    return loss_gradients(kind, labels, o)[0]


def _dcg(ratings_in_rank_order, k: int) -> float:
    top = np.asarray(ratings_in_rank_order, dtype=np.float64)[:k]
    gains = 2.0 ** top - 1.0
    discounts = np.log2(np.arange(2, top.size + 2))
    return float((gains / discounts).sum())


def ndcg_loop(groups, preds, k: int) -> float:
    """mcrank.ndcg_at one group at a time: rank by descending prediction,
    ties by sample index, skip groups with zero ideal gain."""
    preds = np.asarray(preds, dtype=np.float64)
    if not groups.groups:
        raise ValueError("need at least one ranking group")
    scores = []
    for _, idx, ratings in groups.groups:
        if idx.size == 0:
            raise ValueError("empty ranking group")
        order = np.argsort(-preds[idx], kind="stable")
        ideal = _dcg(np.sort(ratings)[::-1], k)
        if ideal == 0.0:
            continue
        scores.append(_dcg(ratings[order], k) / ideal)
    if not scores:
        raise ValueError("all groups had zero ideal gain")
    return float(np.mean(scores))
