"""Corrective refitting of the current model by accelerated proximal
gradient (FISTA) in penalized form, plus pruning of dead basis rows.

The convex step re-optimizes the output matrix V over the fixed activation
features; the optional non-convex step descends in the one array [V, H],
V through the penalty prox and H rows projected back onto the unit ball.
A function-value restart guard keeps every recorded objective trace
non-increasing. Each refit hands FISTA one smooth oracle, and every point
costs one loss pass (``losses.loss_pass``): the oracle returns the loss value
and a gradient thunk that reuses that pass, so a point whose gradient FISTA
needs is not run through the loss again.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

# loss_gradients is unused here; it stays bound because the benchmark tracer wraps it by name
from .losses import loss_gradients, loss_pass, loss_values, targets_for  # noqa: F401
from .models import Model, hidden_activations, outputs
from .penalties import penalty_value, prox, project_unit_rows


FISTA_MAX_ITER = 1000  # iteration cap of every refit
FISTA_TOL = 1e-3       # stop once an iteration changes the objective by less (relative)


def penalized_objective(model: Model, ds) -> float:
    """Total training loss plus lam * Omega(V)."""
    O = outputs(model, ds.X, ds.X2 if model.kind == "fm" else None)
    targets = targets_for(model.loss, ds)
    return float(loss_values(model.loss, targets, O).sum()) + \
        model.lam * penalty_value(model.penalty, model.V)


def _fista(x0: np.ndarray, smooth, model: Model):
    """Monotone FISTA on one (k, w) array; returns (x, objective trace).

    The first ``model.m`` columns of x (V) go through the penalty's prox and
    the rest (H) are projected onto unit rows; an x with no rows (the empty
    model) comes back as is, its objective the whole trace.

    It runs at most FISTA_MAX_ITER iterations and stops once one changes
    the objective by less than FISTA_TOL relative to max(|objective|, 1).

    ``smooth(x)`` returns the loss at x and a thunk for its gradient (shaped
    like x) from the same forward pass. Each point is evaluated once: the
    accepted point keeps its value and thunk for when y is x, and y is x
    itself whenever the momentum weight is 0 (first step, after a restart).
    """
    m = model.m

    def objective(x, value):
        return value + model.lam * penalty_value(model.penalty, x[:, :m])

    x = np.array(x0)
    fx, grad_x = smooth(x)
    obj = objective(x, fx)
    trace = [obj]
    if x.shape[0] == 0:
        return x, trace
    y = x
    t = 1.0
    L = 1.0
    for _ in range(FISTA_MAX_ITER):
        L = max(L * 0.5, 1e-10)
        restarted = False
        while True:
            fy, grad_y = (fx, grad_x) if y is x else smooth(y)
            gy = grad_y()
            for _ in range(80):
                step = 1.0 / L
                cand = y - step * gy
                cand[:, :m] = prox(model.penalty, cand[:, :m], model.lam * step)
                if cand.shape[1] > m:
                    cand[:, m:] = project_unit_rows(cand[:, m:])
                diff = cand - y
                bound = fy + np.vdot(gy, diff) + 0.5 * L * np.vdot(diff, diff)
                fc, grad_c = smooth(cand)
                if fc <= bound + 1e-12 * max(abs(fy), 1.0):
                    break
                L *= 2.0
            cand_obj = objective(cand, fc)
            if not np.isfinite(cand_obj):
                raise FloatingPointError(f"non-finite objective {cand_obj} at a FISTA candidate")
            if cand_obj <= obj + 1e-12 * max(abs(obj), 1.0) or restarted:
                break
            # momentum overshot: restart from the last accepted point
            y = x
            t = 1.0
            restarted = True
        if cand_obj > obj:
            # floating-point stall: keep the best point
            cand, cand_obj, fc, grad_c = x, obj, fx, grad_x
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        w = (t - 1.0) / t_next
        y = cand if w == 0.0 else cand + w * (cand - x)
        x, fx, grad_x, t = cand, fc, grad_c, t_next
        stop = abs(trace[-1] - cand_obj) < FISTA_TOL * max(abs(cand_obj), 1.0)
        obj = cand_obj
        trace.append(obj)
        if stop:
            break
    return x, trace


def refit_output(model: Model, ds) -> tuple[Model, list[float]]:
    """Convex re-fit of V over the fixed basis (penalized, warm-started),
    by ``_fista`` at its module-level iteration cap and tolerance."""
    Phi = hidden_activations(model.kind, model.H, ds.X,
                             ds.X2 if model.kind == "fm" else None)
    targets = targets_for(model.loss, ds)

    def smooth(V):
        values, loss_grad = loss_pass(model.loss, targets, Phi @ V)
        return float(values.sum()), lambda: Phi.T @ loss_grad()

    V, trace = _fista(model.V, smooth, model)
    return replace(model, V=V), trace


def refit_full(model: Model, ds) -> tuple[Model, list[float]]:
    """Joint proximal-gradient descent in [V, H]; H rows stay in the unit ball."""
    X = ds.X
    X2 = ds.X2 if model.kind == "fm" else None
    XT = X.T  # bound once: X.T builds a new CSC view at every call
    X2T = X2.T if X2 is not None else None
    targets = targets_for(model.loss, ds)

    def smooth(x):
        V, H = x[:, :model.m], x[:, model.m:]
        Z = np.asarray(X @ H.T)
        Phi = hidden_activations(model.kind, H, X, X2, Z)
        values, loss_grad = loss_pass(model.loss, targets, Phi @ V)

        def grad():
            G = loss_grad()
            W = G @ V.T
            gH = np.asarray(XT @ (Z * W)).T
            if model.kind == "fm":
                gH = gH - H * np.asarray(X2T @ W).T
            else:
                gH = 2.0 * gH
            return np.hstack([Phi.T @ G, gH])

        return float(values.sum()), grad

    x, trace = _fista(np.hstack([model.V, model.H]), smooth, model)
    return replace(model, V=x[:, :model.m], H=x[:, model.m:]), trace


PRUNE_TOL = 1e-12  # a row whose largest output weight is below this is dead


def prune(model: Model) -> Model:
    """Drop basis rows whose output weights are (numerically) all zero."""
    keep = np.abs(model.V).max(axis=1) >= PRUNE_TOL
    if keep.all():
        return model
    return replace(model, V=model.V[keep], H=model.H[keep])
