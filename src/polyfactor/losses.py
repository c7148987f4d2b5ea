"""Convex multi-output losses and their output-gradients.

All multi-class losses share the pattern grad = sum_{c != y} rho_c (e_c - e_y)
for a per-class weight rho_c, so every gradient sums to zero. The
"binary-logistic" loss treats the m outputs as independent binary problems
against a {-1,+1} label matrix; "squared" is plain single-output regression.

Each loss is written once, in ``_forward``: one forward pass gives thunks
for the per-sample values and for the gradient, both reading what the pass
computed, so ``loss_gradients`` never computes the values and
``loss_values`` never the gradient. ``logistic`` / ``smoothed-hinge`` keep
the shifted exponentials E = exp(Z - zmax) and their row sums s (gradient
E / s with 1 subtracted at the label); ``squared-hinge`` keeps the clipped
margins M (gradient 2M with the label entry set to minus the row sum);
``squared`` keeps the residual. ``binary-logistic`` keeps nothing: its
gradient thunk computes -Y / (1 + exp(Y o)) from the outputs (a thunk
reusing the values' exp(-|z|) keeps two more n x m arrays alive per point
and ran slower).

The binary logistic value ln(1 + e^{-z}), z = y o, is evaluated as
max(-z, 0) + log1p(exp(-|z|)), which runs on numpy's vectorised exp and
log1p (``np.logaddexp`` is a scalar loop) and never overflows. Each entry is
within 1 ulp of the exact value, as logaddexp(0, -z) is, but the two round
differently in a few percent of entries, by at most 2 ulp. The row maxima
of the margins are taken as a column reduction of the contiguous transpose,
which is exact and cheaper than an axis-1 reduction on narrow rows.
``binary-logistic`` sums its rows that way too: a column reduction adds each
row left to right, as numpy's axis-1 sum does on rows of fewer than 8
entries (it adds wider rows pairwise, in 8 partial sums), so below 8 outputs
the values are bit for bit the axis-1 sums, and at 8 or more they may differ
by an ulp. The other losses' row sums stay axis-1 sums.
"""

from __future__ import annotations

import numpy as np

MULTICLASS_LOSSES = ("logistic", "smoothed-hinge", "squared-hinge")
LOSSES = MULTICLASS_LOSSES + ("binary-logistic", "squared")

# For each loss, a bound on the largest eigenvalue of one row's loss Hessian
# in its m outputs, so the row's output gradient is Lipschitz with it: a
# sigmoid's slope is at most 1/4; both logistic variants are a log-sum-exp
# of the outputs plus a constant, whose Hessian diag(p) - pp^T is at most
# 1/2; the squared hinge's 2 sum_c (e_c - e_y)(e_c - e_y)^T is at most 2m.
CURVATURE = {
    "logistic": lambda m: 0.5,
    "smoothed-hinge": lambda m: 0.5,
    "squared-hinge": lambda m: 2.0 * m,
    "binary-logistic": lambda m: 0.25,
    "squared": lambda m: 1.0,
}


def _check_kind(kind: str) -> None:
    if kind not in LOSSES:
        raise ValueError(f"unknown loss {kind!r}; expected one of {LOSSES}")


def _class_margins(kind, at, O):
    """Per-sample shifted scores z with z[:, y] = 0 (hinge adds the unit bump).

    ``at`` holds each row's label entry as a flat index into the C-ordered O
    (and Z): a flat take or store costs a third of the (rows, y - 1) pair
    indexing on narrow rows, and moves the same values.
    """
    Z = O - O.ravel()[at][:, None]
    if kind in ("smoothed-hinge", "squared-hinge"):
        Z += 1.0
        Z.ravel()[at] = 0.0
    return Z


def _forward(kind: str, labels, O: np.ndarray):
    """One forward pass: thunks for the per-sample loss values and for the
    n x m gradient, each reading what the pass computed (module docstring)."""
    _check_kind(kind)
    O = np.ascontiguousarray(O, dtype=np.float64)
    if kind == "binary-logistic":
        Y = np.asarray(labels, dtype=np.float64)

        def binary_values():
            z = Y * O
            # max(-z, 0) + log1p(exp(-|z|)), in place on two n x m buffers
            t = np.abs(z)
            np.exp(np.negative(t, out=t), out=t)
            np.log1p(t, out=t)
            t += np.maximum(np.negative(z, out=z), 0.0, out=z)
            # row sums as a column reduction, which adds left to right
            return np.ascontiguousarray(t.T).sum(axis=0)

        # d/do log(1 + exp(-y o)) = -y * sigmoid(-y o)
        return binary_values, lambda: -Y / (1.0 + np.exp(Y * O))
    if kind == "squared":
        if O.shape[1] != 1:
            raise ValueError("squared loss requires a single output")
        r = O[:, 0] - np.asarray(labels, dtype=np.float64)
        return lambda: 0.5 * r * r, lambda: r[:, None]
    # each row's label entry as a flat index; a label outside 1..m raises
    rows = np.arange(O.shape[0])
    at = np.ravel_multi_index((rows, np.asarray(labels, dtype=np.int64) - 1), O.shape)
    Z = _class_margins(kind, at, O)
    if kind == "squared-hinge":
        M = np.maximum(Z, 0.0)
        M.ravel()[at] = 0.0

        def hinge_gradient():
            G = 2.0 * M
            G.ravel()[at] = -G.sum(axis=1)
            return G

        return lambda: (M * M).sum(axis=1), hinge_gradient
    # both logistic variants reduce to a stabilized log-sum-exp of Z
    zmax = np.ascontiguousarray(Z.T).max(axis=0)
    E = np.exp(Z - zmax[:, None])
    s = E.sum(axis=1)

    def softmax_gradient():
        G = E / s[:, None]
        G.ravel()[at] -= 1.0
        return G

    return lambda: zmax + np.log(s), softmax_gradient


def loss_pass(kind: str, labels, O: np.ndarray):
    """One forward pass: (per-sample loss values, thunk for the n x m gradient).

    ``labels`` is an int vector of class indices in 1..m for the multi-class
    losses, a {-1,+1} matrix for "binary-logistic", and a real vector for
    "squared" (which requires m = 1). The thunk keeps only what the module
    docstring lists for its loss, so a value-only caller never pays for the
    gradient.
    """
    values, gradient = _forward(kind, labels, O)
    return values(), gradient


def loss_values(kind: str, labels, O: np.ndarray) -> np.ndarray:
    """Per-sample loss values for an n x m output matrix (see ``loss_pass``)."""
    return _forward(kind, labels, O)[0]()


def loss_gradients(kind: str, labels, O: np.ndarray) -> np.ndarray:
    """Gradient of each per-sample loss w.r.t. its output row (n x m): the
    ``loss_pass`` thunk's, without computing the loss values."""
    return _forward(kind, labels, O)[1]()


def targets_for(kind: str, ds):
    """Pick the label object a loss consumes from a Dataset."""
    if kind == "binary-logistic":
        if ds.Y is None:
            raise ValueError("binary-logistic loss needs a {-1,+1} label matrix")
        return ds.Y
    if kind == "squared":
        return np.asarray(ds.labels, dtype=np.float64)
    return ds.y


def output_count(kind: str, ds) -> int:
    """Number of model outputs a loss requires on a Dataset."""
    return 1 if kind == "squared" else ds.m
