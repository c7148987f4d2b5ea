"""Convex multi-output losses and their output-gradients.

All multi-class losses share the pattern grad = sum_{c != y} rho_c (e_c - e_y)
for a per-class weight rho_c, so every gradient sums to zero. The
"binary-logistic" loss treats the m outputs as independent binary problems
against a {-1,+1} label matrix; "squared" is plain single-output regression.

Each loss is written once, in ``loss_pass``: one forward pass gives the
per-sample values and a thunk for the gradient, and the thunk reuses what
the pass computed. ``logistic`` / ``smoothed-hinge`` keep the shifted
exponentials E = exp(Z - zmax) and their row sums s (gradient E / s with 1
subtracted at the label); ``squared-hinge`` keeps the clipped margins M
(gradient 2M with the label entry set to minus the row sum); ``squared``
keeps the residual. ``binary-logistic`` keeps nothing: its thunk computes
-Y / (1 + exp(Y o)) from the outputs (a thunk reusing the pass's
exp(-|z|) keeps two more n x m arrays alive per point and ran slower).

The binary logistic value ln(1 + e^{-z}), z = y o, is evaluated as
max(-z, 0) + log1p(exp(-|z|)), which runs on numpy's vectorised exp and
log1p (``np.logaddexp`` is a scalar loop) and never overflows. Each entry is
within 1 ulp of the exact value, as logaddexp(0, -z) is, but the two round
differently in a few percent of entries, by at most 2 ulp. The row maxima
of the margins are taken as a column reduction of the contiguous transpose,
which is exact and cheaper than an axis-1 reduction on narrow rows; the row
sums stay axis-1 sums, so their rounding is unchanged.
"""

from __future__ import annotations

import numpy as np

MULTICLASS_LOSSES = ("logistic", "smoothed-hinge", "squared-hinge")
LOSSES = MULTICLASS_LOSSES + ("binary-logistic", "squared")


def _check_kind(kind: str) -> None:
    if kind not in LOSSES:
        raise ValueError(f"unknown loss {kind!r}; expected one of {LOSSES}")


def _class_margins(kind, y, O):
    """Per-sample shifted scores z with z[:, y] = 0 (hinge adds the unit bump)."""
    n = O.shape[0]
    oy = O[np.arange(n), y - 1]
    Z = O - oy[:, None]
    if kind in ("smoothed-hinge", "squared-hinge"):
        Z = Z + 1.0
        Z[np.arange(n), y - 1] = 0.0
    return Z


def loss_pass(kind: str, labels, O: np.ndarray):
    """One forward pass: (per-sample loss values, thunk for the n x m gradient).

    ``labels`` is an int vector of class indices in 1..m for the multi-class
    losses, a {-1,+1} matrix for "binary-logistic", and a real vector for
    "squared" (which requires m = 1). The thunk keeps only what the module
    docstring lists for its loss, so a value-only caller never pays for the
    gradient.
    """
    _check_kind(kind)
    O = np.asarray(O, dtype=np.float64)
    if kind == "binary-logistic":
        Y = np.asarray(labels, dtype=np.float64)
        z = Y * O
        # max(-z, 0) + log1p(exp(-|z|)), in place on two n x m buffers
        t = np.abs(z)
        np.exp(np.negative(t, out=t), out=t)
        np.log1p(t, out=t)
        t += np.maximum(np.negative(z, out=z), 0.0, out=z)
        values = t.sum(axis=1)
        # d/do log(1 + exp(-y o)) = -y * sigmoid(-y o)
        return values, lambda: -Y / (1.0 + np.exp(Y * O))
    if kind == "squared":
        if O.shape[1] != 1:
            raise ValueError("squared loss requires a single output")
        r = O[:, 0] - np.asarray(labels, dtype=np.float64)
        return 0.5 * r * r, lambda: r[:, None]
    y = np.asarray(labels, dtype=np.int64)
    rows = np.arange(O.shape[0])
    Z = _class_margins(kind, y, O)
    if kind == "squared-hinge":
        M = np.maximum(Z, 0.0)
        M[rows, y - 1] = 0.0

        def hinge_gradient():
            G = 2.0 * M
            G[rows, y - 1] = -G.sum(axis=1)
            return G

        return (M * M).sum(axis=1), hinge_gradient
    # both logistic variants reduce to a stabilized log-sum-exp of Z
    zmax = np.ascontiguousarray(Z.T).max(axis=0)
    E = np.exp(Z - zmax[:, None])
    s = E.sum(axis=1)

    def softmax_gradient():
        G = E / s[:, None]
        G[rows, y - 1] -= 1.0
        return G

    return zmax + np.log(s), softmax_gradient


def loss_values(kind: str, labels, O: np.ndarray) -> np.ndarray:
    """Per-sample loss values for an n x m output matrix (see ``loss_pass``)."""
    return loss_pass(kind, labels, O)[0]


def loss_gradients(kind: str, labels, O: np.ndarray) -> np.ndarray:
    """Gradient of each per-sample loss w.r.t. its output row (n x m)."""
    return loss_pass(kind, labels, O)[1]()


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
