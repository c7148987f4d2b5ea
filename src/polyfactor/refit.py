"""Corrective refitting of the current model by accelerated proximal
gradient (FISTA) in penalized form, plus pruning of dead basis rows.

The convex step re-optimizes the output matrix V over the fixed activation
features; the optional non-convex step descends in the one array [V, H],
V through the penalty prox and H rows projected back onto the unit ball.
A function-value restart guard keeps every recorded objective trace
non-increasing. Each refit hands FISTA one smooth oracle, and every point
costs one loss pass (``losses.loss_pass``): the oracle returns the loss value
and thunks for the loss's n x m output gradient D and the gradient in x, both
reusing that pass; ``solver.fit`` installs the D of each refit's last point.
A refit reads its labels once (``losses.targets_for``, which binds
multi-class labels to a flat index), so its passes share one label index.

FISTA backtracks from a starting step size 1/L (Beck & Teboulle 2009),
eases L by a factor 0.8 before every iteration and doubles it on a failed
sufficient-decrease test (the adaptive backtracking of Scheinberg, Goldfarb
& Bai 2014). Each refit returns the L its last accepted point passed at,
and ``solver.fit`` hands it to the next refit of the same kind, which starts
at the larger of that L and its own start: an outer iteration adds one atom,
so the problem and its local L barely change. The output refit's own start
is L0 = min(1, c * lambda_max(Phi^T Phi)), where c is the loss's curvature
bound (``losses.CURVATURE``: 1/4 binary logistic, 1/2 logistic and smoothed
hinge, 1 squared, 2m squared hinge). That product bounds the Lipschitz
constant of the smooth part's gradient in V at every point, so a step at L0
always passes the sufficient-decrease test, and a start above it (such as
1 on one-hot ratings, where the bound is 0.006-0.009) only shortens the
steps. Where the bound is at least 1 the output refit's own start is 1, as
the joint refit's always is (it is non-convex in H, with no global bound):
from 1 the first iteration doubles up to the local L in a few passes, while
a start at the loose bound would shorten every step and end refits early on
the relative-change stop.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

# loss_gradients is unused here; it stays bound because the benchmark tracer wraps it by name
from .losses import CURVATURE, loss_gradients, loss_pass, loss_values, targets_for  # noqa: F401
from .models import Model, hidden_activations, outputs
from .penalties import penalty_value, prox, project_unit_rows


FISTA_MAX_ITER = 1000  # iteration cap of every refit
FISTA_TOL = 1e-3       # stop once an iteration changes the objective by less (relative)


def penalized_objective(model: Model, ds) -> float:
    """Total training loss plus lam * Omega(V)."""
    O = outputs(model, ds.Xmul, ds.X2mul if model.kind == "fm" else None)
    targets = targets_for(model.loss, ds)
    return float(loss_values(model.loss, targets, O).sum()) + \
        model.lam * penalty_value(model.penalty, model.V)


def _fista(x0: np.ndarray, smooth, model: Model, L0: float = 1.0):
    """Monotone FISTA on one (k, w) array; returns (x, objective trace, L,
    D): L the backtracking constant the last accepted candidate passed at
    (L0 when no iteration ran), D the thunk for the output gradient at x.

    The first ``model.m`` columns of x (V) go through the penalty's prox and
    the rest (H) are projected onto unit rows; an x with no rows (the empty
    model) comes back as is, its objective the whole trace.

    It runs at most FISTA_MAX_ITER iterations and stops once one changes
    the objective by less than FISTA_TOL relative to max(|objective|, 1).
    Each iteration takes one backtracked step from y at L eased by 0.8, and
    at most one restart: a step from x at the L the first ended at, t reset
    to 1, when the first raised the objective (the momentum overshot).
    ``refit_output`` and ``refit_full`` pass the larger of the previous
    same-kind refit's L and their own start (module docstring).

    ``smooth(x)`` returns, from one forward pass, the loss at x and thunks
    for its output gradient D and its gradient in x. Each point is evaluated
    once: the accepted point keeps its value and thunks for when y is x, and
    y is x itself whenever the momentum weight is 0 (first step, restart).
    """
    m = model.m

    def objective(x, value):
        return value + model.lam * penalty_value(model.penalty, x[:, :m])

    def backtrack(y, fy, gy, L):
        """The backtracked step from y: (cand, loss, D thunk, grad thunk, objective, L)."""
        for _ in range(80):
            step = 1.0 / L
            cand = y - step * gy
            cand[:, :m] = prox(model.penalty, cand[:, :m], model.lam * step)
            if cand.shape[1] > m:
                cand[:, m:] = project_unit_rows(cand[:, m:])
            diff = cand - y
            bound = fy + np.vdot(gy, diff) + 0.5 * L * np.vdot(diff, diff)
            fc, D_c, grad_c = smooth(cand)
            if fc <= bound + 1e-12 * max(abs(fy), 1.0):
                break
            L *= 2.0
        cand_obj = objective(cand, fc)
        if not np.isfinite(cand_obj):
            raise FloatingPointError(f"non-finite objective {cand_obj} at a FISTA candidate")
        return cand, fc, D_c, grad_c, cand_obj, L

    x = np.array(x0)
    fx, D_x, grad_x = smooth(x)
    obj = objective(x, fx)
    trace = [obj]
    L = L0
    if x.shape[0] == 0:
        return x, trace, L, D_x
    y = x
    t = 1.0
    for _ in range(FISTA_MAX_ITER):
        fy, _, grad_y = (fx, D_x, grad_x) if y is x else smooth(y)
        cand, fc, D_c, grad_c, cand_obj, L = backtrack(y, fy, grad_y(), max(L * 0.8, 1e-10))
        if cand_obj > obj + 1e-12 * max(abs(obj), 1.0):
            # momentum overshot: restart from the last accepted point
            cand, fc, D_c, grad_c, cand_obj, L = backtrack(x, fx, grad_x(), L)
            t = 1.0
        if cand_obj > obj:
            # floating-point stall: keep the best point
            cand, cand_obj, fc, D_c, grad_c = x, obj, fx, D_x, grad_x
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        w = (t - 1.0) / t_next
        y = cand if w == 0.0 else cand + w * (cand - x)
        x, fx, D_x, grad_x, t = cand, fc, D_c, grad_c, t_next
        stop = abs(obj - cand_obj) < FISTA_TOL * max(abs(cand_obj), 1.0)
        obj = cand_obj
        trace.append(obj)
        if stop:
            break
    return x, trace, L, D_x


def refit_output(model: Model, ds, L_prev: float = 0.0):
    """Convex re-fit of V over the fixed basis (penalized, warm-started),
    by ``_fista`` at its module-level iteration cap and tolerance. Returns
    (model, objective trace, L, D), D the loss's output-gradient thunk at the
    model. FISTA starts at max(L_prev, L0), L_prev the L the previous output
    refit returned and L0 = min(1, c * lambda_max(Phi^T Phi)) (module docstring)."""
    Phi = hidden_activations(model.kind, model.H, ds.Xmul,
                             ds.X2mul if model.kind == "fm" else None)
    targets = targets_for(model.loss, ds)
    top = max(np.linalg.eigvalsh(Phi.T @ Phi), default=0.0)  # the empty model has none
    L0 = min(1.0, CURVATURE[model.loss](model.m) * float(top))

    def smooth(V):
        values, loss_grad = loss_pass(model.loss, targets, Phi @ V)
        return float(values.sum()), loss_grad, lambda: Phi.T @ loss_grad()

    V, trace, L, D = _fista(model.V, smooth, model, L0=max(L_prev, L0))
    return replace(model, V=V), trace, L, D


def refit_full(model: Model, ds, L_prev: float = 0.0):
    """Joint proximal-gradient descent in [V, H]; H rows stay in the unit
    ball. Returns (model, objective trace, L, D) as ``refit_output`` does;
    FISTA starts at max(L_prev, 1), L_prev the previous joint refit's L."""
    X = ds.Xmul
    X2 = ds.X2mul if model.kind == "fm" else None
    XT = X.T  # bound once: a CSR X.T builds a new CSC view at every call
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

        return float(values.sum()), loss_grad, grad

    x, trace, L, D = _fista(np.hstack([model.V, model.H]), smooth, model, L0=max(L_prev, 1.0))
    return replace(model, V=x[:, :model.m], H=x[:, model.m:]), trace, L, D


def prune(model: Model) -> Model:
    """Drop basis rows whose output weights are all exactly zero, as every
    penalty's prox leaves a dead row; the outputs do not change."""
    keep = np.any(model.V != 0.0, axis=1)
    if keep.all():
        return model
    return replace(model, V=model.V[keep], H=model.H[keep])
