"""Outer greedy loop: select a basis vector, append it with zero output
weights, refit correctively, prune, and track the penalized objective.
A path driver fits one model per regularization weight with interleaved
validation and returns the best (lambda, iteration) pair.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .gradients import OVERFLOW_CAUSE, GradientOperator
from .losses import LOSSES, output_count
from .models import MODEL_KINDS, Model, accuracy, check_model, empty_model
from .penalties import PENALTIES
from .refit import penalized_objective, prune, refit_full, refit_output
from .selection import select_group, select_l1

REFITS = ("output", "full")   # output layer only, or both layers jointly
DUPLICATE_COS = 1.0 - 1e-8
STOP_GAP = 1e-7  # floor of the stopping certificate for tiny lam


class ConfigError(ValueError):
    """Inconsistent solver configuration."""


@dataclass(frozen=True)
class SolverConfig:
    model: str = "pn"
    loss: str = "logistic"
    penalty: str = "l1l2"
    lam: float = 1e-3
    k_max: int = 30
    refit: str = "output"
    seed: int = 0  # Lanczos starts of the sparse and matrix-free storages

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.penalty not in PENALTIES:
            raise ConfigError(f"unknown penalty {self.penalty!r}")
        if self.refit not in REFITS:
            raise ConfigError(f"refit must be one of {REFITS}, got {self.refit!r}")
        if self.k_max < 1:
            raise ConfigError("k_max must be at least 1")
        if not self.lam > 0:  # refuses nan too
            raise ConfigError("lam must be positive")


@dataclass
class TraceRecord:
    t: int
    objective: float
    score: float
    k: int
    seconds: float


def _select(op: GradientOperator, cfg: SolverConfig):
    """The penalty's selection route on a refreshed operator. A score that is
    not finite (nan never trips the stop test) raises FloatingPointError."""
    if cfg.penalty == "l1":
        sel = select_l1(op, cfg.seed)
    else:
        sel = select_group(op, 2 if cfg.penalty == "l1l2" else 1, cfg.seed)
    if not np.isfinite(sel.score):
        raise FloatingPointError(f"non-finite selection score {sel.score}; {OVERFLOW_CAUSE}")
    return sel


def _operator(ds: Dataset, cfg: SolverConfig) -> GradientOperator:
    """A new gradient operator for a fit on ``ds``; the caller refreshes it."""
    if ds.n < 1:
        raise ConfigError("cannot train on an empty dataset")
    return GradientOperator(ds, cfg.model, n_outputs=output_count(cfg.loss, ds))


def lambda_max(ds: Dataset, cfg: SolverConfig) -> float:
    """The smallest lam at which ``fit`` stops with an empty model: the
    score of the solver's own first selection, the penalty's dual norm of
    g_h at the empty model (0.0 for a zero gradient)."""
    op = _operator(ds, cfg)
    op.refresh(empty_model(cfg.model, ds.d, op.m, cfg.loss, cfg.penalty, cfg.lam))
    return _select(op, cfg).score


def fit(ds: Dataset, cfg: SolverConfig, iteration_hook=None) -> tuple[Model, list[TraceRecord]]:
    """Greedy conditional-gradient training on one dataset.

    Per iteration: refresh the gradient operator, select the best basis
    vector for the penalty's route, append it with a zero output row, refit
    (output layer, optionally the full model), prune dead rows and record
    the penalized objective. Selection has one stop test, the optimality
    certificate: the score is the penalty's dual norm of g_h, so once it is
    at most max(lam, ``STOP_GAP``) the new row would stay at zero. A zero
    gradient scores 0.0 and stops there too; at the first iteration it also
    warns, and the empty model comes back. Otherwise the loop ends after
    k_max iterations, or when a near-duplicate atom brings no refit progress.
    ``iteration_hook(t, model)``, when given, sees the pruned model after
    every iteration.
    """
    op = _operator(ds, cfg)
    m_out = op.m
    model = empty_model(cfg.model, ds.d, m_out, cfg.loss, cfg.penalty, cfg.lam,
                        label_map=ds.label_map, bias_augmented=ds.bias_augmented)

    start = time.perf_counter()
    trace = [TraceRecord(t=0, objective=penalized_objective(model, ds), score=np.inf,
                         k=0, seconds=0.0)]
    for t in range(1, cfg.k_max + 1):
        op.refresh(model)
        sel = _select(op, cfg)
        if sel.score <= max(cfg.lam, STOP_GAP):
            if t == 1 and sel.score == 0.0:
                warnings.warn("zero gradient operator at the first iteration; "
                              "returning the empty model")
            break

        appended = True
        if model.k:
            overlaps = np.abs(model.H @ sel.h)
            norms = np.linalg.norm(model.H, axis=1) * np.linalg.norm(sel.h)
            if np.any(overlaps >= DUPLICATE_COS * np.maximum(norms, 1e-300)):
                appended = False  # near-duplicate atom: rely on refit alone
        if appended:
            model = replace(model,
                            H=np.vstack([model.H, sel.h[None, :]]),
                            V=np.vstack([model.V, np.zeros((1, m_out))]))

        model, _ = refit_output(model, ds)
        if cfg.refit == "full":
            model, _ = refit_full(model, ds)
        model = prune(model)

        objective = penalized_objective(model, ds)
        trace.append(TraceRecord(t=t, objective=objective, score=sel.score,
                                 k=model.k, seconds=time.perf_counter() - start))
        if iteration_hook is not None:
            iteration_hook(t, model)
        if not appended and objective >= trace[-2].objective - 1e-12 * max(abs(objective), 1.0):
            break  # duplicate atom and no refit progress: nothing left to add

    check_model(model)
    support_check(model, ds, iterations=trace[-1].t)
    return model, trace


def support_check(model: Model, ds: Dataset, iterations: int) -> dict:
    """Row-support sanity report: k <= iterations is a hard invariant; the
    comparison against the theoretical support bound is informational."""
    if model.k > iterations:
        raise RuntimeError(f"model has {model.k} basis rows after only "
                           f"{iterations} iterations")
    bound = ds.n * model.m + 1
    if model.penalty == "l1":
        bound = min(bound, ds.d * model.m)
    return {"k": model.k, "iterations": iterations, "support_bound": bound,
            "within_bound": model.k <= bound}


def fit_path(train: Dataset, valid: Dataset, cfg: SolverConfig, lam_grid,
             metric_fn=None, higher_is_better: bool = True):
    """Fit one model per regularization weight, validating after every
    iteration, and return the best (lambda, iteration) model plus a report.

    ``lam_grid`` is strictly decreasing and sets every fit's weight; cfg.lam
    is not read. ``metric_fn(model, dataset) -> float`` defaults to
    classification accuracy. Lambda values run one after another, in grid
    order.
    """
    lams = tuple(float(l) for l in lam_grid)
    if not lams:
        raise ConfigError("empty lambda grid")
    if len(lams) > 1 and any(b >= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("lambda grid must be strictly decreasing")
    if metric_fn is None:
        metric_fn = accuracy
    cfgs = [replace(cfg, lam=lam) for lam in lams]  # refuses a bad weight before any fit

    sign = 1.0 if higher_is_better else -1.0
    best = None  # (signed metric, lam, t, model)
    report = []
    for lam, lam_cfg in zip(lams, cfgs):
        entries = []
        report.append({"lambda": lam, "iterations": entries})

        def hook(t, model):
            nonlocal best
            metric = float(metric_fn(model, valid))
            entries.append({"t": t, "k": model.k, "metric": metric})
            if best is None or sign * metric > best[0]:
                best = (sign * metric, lam, t, model)

        fit(train, lam_cfg, iteration_hook=hook)
    if best is None:
        raise ConfigError("no model was produced on any lambda (degenerate data?)")
    signed_metric, lam, t, model = best
    for entry in report:
        entry["selected"] = bool(entry["lambda"] == lam)
    return model, {"best": {"lambda": lam, "t": t, "metric": sign * signed_metric,
                            "k": model.k},
                   "per_lambda": report}
