"""Convex multi-output losses and their output-gradients.

All multi-class losses share the pattern grad = sum_{c != y} rho_c (e_c - e_y)
for a per-class weight rho_c, so every gradient sums to zero. The
"binary-logistic" loss treats the m outputs as independent binary problems
against a {-1,+1} label matrix; "squared" is plain single-output regression.

Each loss is written once, in ``_forward``: one forward pass gives thunks
for the per-sample values and for the gradient, both reading what the pass
computed, so ``loss_gradients`` never computes the values and
``loss_values`` never the gradient. ``logistic`` / ``smoothed-hinge`` keep
the shifted exponentials E = exp(Z - zmax) and their sums s over classes
(gradient E / s with 1 subtracted at the label); ``squared-hinge`` keeps the
clipped margins M (gradient 2M with the label entry set to minus the sum
over classes); ``squared`` keeps the residual. ``binary-logistic`` keeps
nothing: its gradient thunk computes -Y / (1 + exp(Y o)) from the outputs
(a thunk reusing the values' exp(-|z|) keeps two more n x m arrays alive
per point and ran slower).

The binary logistic value ln(1 + e^{-z}), z = y o, is evaluated as
max(-z, 0) + log1p(exp(-|z|)), which runs on numpy's vectorised exp and
log1p (``np.logaddexp`` is a scalar loop) and never overflows. Each entry is
within 1 ulp of the exact value, as logaddexp(0, -z) is, but the two round
differently in a few percent of entries, by at most 2 ulp.

The multi-class losses run on a contiguous class-major (m, n) copy of the
outputs: the margins, their maxima, the exponentials and the sums over
classes run on n-long rows, each reduction over classes is a column
reduction, and the gradient thunk transposes back to a C-contiguous n x m
array, the layout every product downstream reads. Each row's label entry is
a flat index into the class-major array (``LabelIndex``). ``targets_for``
hands a Dataset's labels over already bound, so a refit binds them once
for all its passes; ``_forward`` binds raw labels itself, once per pass.
``binary-logistic`` sums its per-output values as a column reduction of the
contiguous transpose. A column reduction adds each row's entries left to
right, as numpy's axis-1 sum does on rows of fewer than 8 entries (it adds
wider rows pairwise, in 8 partial sums), so below 8 outputs every loss's
values and gradients are bit for bit those of axis-1 sums, and at 8 or more
they may differ by an ulp. Maxima are exact in any order.
"""

from __future__ import annotations

from typing import NamedTuple

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


class LabelIndex(NamedTuple):
    """Multi-class labels bound to n x m outputs: ``at`` holds each row's
    label entry as a flat index into the class-major (m, n) outputs."""

    at: np.ndarray
    shape: tuple


def _label_index(labels, shape) -> LabelIndex:
    n, m = shape
    # a label outside 1..m raises
    at = np.ravel_multi_index((np.asarray(labels, dtype=np.int64) - 1, np.arange(n)), (m, n))
    return LabelIndex(at, (n, m))


def _class_margins(kind, at, OT):
    """Class-major shifted scores Z (m x n) with z[y] = 0 in each column
    (hinge adds the unit bump), from the class-major outputs OT.

    ``at`` holds each column's label entry as a flat index into OT (and Z):
    a flat take or store costs a third of the (y - 1, columns) pair
    indexing, and moves the same values.
    """
    Z = OT - OT.ravel()[at]
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

        def binary_gradient():  # -y * sigmoid(-y o); -y * 0.0 once exp(y o) overflows
            with np.errstate(over="ignore"):
                return -Y / (1.0 + np.exp(Y * O))

        return binary_values, binary_gradient
    if kind == "squared":
        if O.shape[1] != 1:
            raise ValueError("squared loss requires a single output")
        r = O[:, 0] - np.asarray(labels, dtype=np.float64)
        return lambda: 0.5 * r * r, lambda: r[:, None]
    index = labels if isinstance(labels, LabelIndex) else _label_index(labels, O.shape)
    if index.shape != O.shape:
        raise ValueError(f"labels bound to outputs {index.shape}, got {O.shape}")
    at = index.at
    # class-major, so that each class is one contiguous n-long row and
    # every class reduction is a column reduction
    Z = _class_margins(kind, at, np.ascontiguousarray(O.T))
    if kind == "squared-hinge":
        M = np.maximum(Z, 0.0)
        M.ravel()[at] = 0.0

        def hinge_gradient():
            G = 2.0 * M
            G.ravel()[at] = -G.sum(axis=0)
            return np.ascontiguousarray(G.T)

        return lambda: (M * M).sum(axis=0), hinge_gradient
    # both logistic variants reduce to a stabilized log-sum-exp of Z
    zmax = Z.max(axis=0)
    E = np.exp(Z - zmax)
    s = E.sum(axis=0)

    def softmax_gradient():
        G = E / s
        G.ravel()[at] -= 1.0
        return np.ascontiguousarray(G.T)

    return lambda: zmax + np.log(s), softmax_gradient


def loss_pass(kind: str, labels, O: np.ndarray):
    """One forward pass: (per-sample loss values, thunk for the n x m gradient).

    ``labels`` is an int vector of class indices in 1..m (or the
    ``LabelIndex`` ``targets_for`` bound at O's shape) for the
    multi-class losses, a {-1,+1} matrix for "binary-logistic", and a real
    vector for "squared" (which requires m = 1). The thunk keeps only what
    the module docstring lists for its loss, so a value-only caller never
    pays for the gradient.
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
    """A Dataset's labels in the form ``loss_pass`` reads for ``kind``: the
    {-1,+1} matrix for "binary-logistic", the label values for "squared",
    and for the multi-class losses the ``LabelIndex`` bound at (ds.n, ds.m),
    which every pass of a refit reuses."""
    if kind == "binary-logistic":
        if ds.Y is None:
            raise ValueError("binary-logistic loss needs a {-1,+1} label matrix")
        return ds.Y
    if kind == "squared":
        return np.asarray(ds.labels, dtype=np.float64)
    return _label_index(ds.y, (ds.n, ds.m))


def output_count(kind: str, ds) -> int:
    """Number of model outputs a loss requires on a Dataset."""
    return 1 if kind == "squared" else ds.m
