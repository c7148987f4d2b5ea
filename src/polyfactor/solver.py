"""Outer greedy loop: select a basis vector, append it with zero output
weights, refit correctively, prune, and record each refit's final objective.
``fit_path`` fits one model per regularization weight, on every usable
CPU, with interleaved validation and returns the best (lambda, iteration)
pair.
"""

from __future__ import annotations

import os
import pickle
import signal
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
        if not 0 < self.lam < np.inf:  # refuses nan too
            raise ConfigError(f"lam must be a positive finite number, not {self.lam!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")


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
    (output layer, optionally the full model), record the last refit's final
    objective (its last accepted point's; only t = 0 runs
    ``penalized_objective``) and prune dead rows. Each refit kind carries
    its FISTA constant L to its next refit in this fit (``refit`` module
    docstring); L starts afresh at every fit, so a ``fit_path`` result does
    not depend on how its grid is split across CPUs. Selection has one stop
    test, the optimality certificate: the score is the penalty's dual norm
    of g_h, so once it is at most max(lam, ``STOP_GAP``) the new row would
    stay at zero. A zero gradient scores 0.0 and stops there too; at the
    first iteration it also warns, and the empty model comes back. Otherwise
    the loop ends after k_max iterations, or when a near-duplicate atom
    brings no refit progress. ``iteration_hook(t, model)``, when given, sees
    the pruned model after every iteration.
    """
    op = _operator(ds, cfg)
    m_out = op.m
    model = empty_model(cfg.model, ds.d, m_out, cfg.loss, cfg.penalty, cfg.lam,
                        label_map=ds.label_map, bias_augmented=ds.bias_augmented)

    L_output = L_full = 0.0  # each refit kind's last backtracking constant
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

        model, refit_trace, L_output = refit_output(model, ds, L_output)
        if cfg.refit == "full":
            model, refit_trace, L_full = refit_full(model, ds, L_full)
        objective = refit_trace[-1]  # prune drops only rows of exact zeros
        model = prune(model)

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
    classification accuracy; the first iteration with the best metric wins,
    in grid order, and a nan metric ranks below every number.

    The weights are independent fits, split across
    ``min(len(lam_grid), len(os.sched_getaffinity(0)))`` processes: this one
    and forked children, which send back their report entries and
    candidate models. So ``metric_fn`` may run in a child, and its side
    effects need not reach the caller. With one CPU or one weight, or where
    the platform cannot fork, every weight is fitted here. The report, the
    best model and the warnings, re-emitted in grid order, are the same
    either way.
    """
    lams = tuple(float(l) for l in lam_grid)
    if not lams:
        raise ConfigError("empty lambda grid")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("lambda grid must be strictly decreasing")
    if metric_fn is None:
        metric_fn = accuracy
    cfgs = [replace(cfg, lam=lam) for lam in lams]  # refuses a bad weight before any fit
    sign = 1.0 if higher_is_better else -1.0

    def fit_one(i):
        return _fit_weight(train, valid, cfgs[i], metric_fn, sign)

    outcomes = _run_forked(_shares(len(lams), min(len(lams), _usable_cpus())), fit_one)

    best = None  # ((rank, metric, t, model), lam)
    report = []
    shown = {}  # a warning repeated across weights shows once, as within one fit
    for i, lam in enumerate(lams):
        entries, lam_best, warned, error = outcomes[i]
        for message, category, filename, lineno in warned:
            warnings.warn_explicit(message, category, filename, lineno, registry=shown)
        if error is not None:
            raise error
        report.append({"lambda": lam, "iterations": entries})
        if lam_best is not None and (best is None or lam_best[0] > best[0][0]):
            best = lam_best, lam
    if best is None:
        raise ConfigError("no model was produced on any lambda (degenerate data?)")
    (_, metric, t, model), lam = best
    for entry in report:
        entry["selected"] = bool(entry["lambda"] == lam)
    return model, {"best": {"lambda": lam, "t": t, "metric": metric, "k": model.k},
                   "per_lambda": report}


def _fit_weight(train: Dataset, valid: Dataset, cfg: SolverConfig, metric_fn, sign: float):
    """One weight of a path. Returns (entries, best, warned, error): the
    report's per-iteration entries; the (rank, metric, t, model) of the first
    iteration with the highest rank, sign * metric with nan lowest, or None;
    the warnings raised as (message, category, filename, lineno), for the
    caller to re-emit; and the exception the fit failed with, or None."""
    entries, best, error = [], None, None

    def hook(t, model):
        nonlocal best
        metric = float(metric_fn(model, valid))
        entries.append({"t": t, "k": model.k, "metric": metric})
        rank = -np.inf if np.isnan(metric) else sign * metric
        if best is None or rank > best[0]:
            best = (rank, metric, t, model)

    with warnings.catch_warnings(record=True) as caught:  # under the caller's filters
        try:
            fit(train, cfg, iteration_hook=hook)
        except Exception as exc:
            error = exc
    warned = [(w.message, w.category, w.filename, w.lineno) for w in caught]
    return entries, best, warned, error


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell or
    cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _shares(n: int, workers: int) -> list[list[int]]:
    """Deal grid positions 0..n-1 into ``workers`` shares, each in grid order.
    A fit costs more the smaller its weight, so the deal starts at the end
    of the grid and turns back at every lap, and the shares cost about the
    same: n = 10 over 2 workers gives [1, 2, 5, 6, 9] and [0, 3, 4, 7, 8]."""
    shares = [[] for _ in range(workers)]
    for dealt, i in enumerate(range(n - 1, -1, -1)):
        lap, seat = divmod(dealt, workers)
        shares[seat if lap % 2 == 0 else workers - 1 - seat].append(i)
    return [share[::-1] for share in shares]


def _run_share(share, fit_one) -> dict:
    """{position: outcome} of a share's weights, fitted in grid order up to
    and including the first that fails: no later weight can be reported."""
    outcomes = {}
    for i in share:
        outcomes[i] = fit_one(i)
        if outcomes[i][-1] is not None:
            break
    return outcomes


def _run_forked(shares, fit_one) -> dict:
    """{position: outcome} of every share: the last fitted here, each other
    one in a forked child, which inherits the data and ``fit_one``, sends
    its outcomes back pickled on its own pipe and ends in os._exit, so it
    never returns into the caller nor flushes its buffers. One share forks
    nothing. Every child is reaped before this returns or raises, and killed
    first if still running; one that exits without a result is a
    RuntimeError naming its exit status."""
    children = {}  # pid: read end of its pipe, until waitpid has reaped it
    try:
        for share in shares[:-1]:
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns of a fork beside threads: here BLAS
                    # workers, whose pool OpenBLAS stops across a fork
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    payload = pickle.dumps(_run_share(share, fit_one), pickle.HIGHEST_PROTOCOL)
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = read
            os.close(write)
        outcomes = _run_share(shares[-1], fit_one)
        for pid, read in list(children.items()):
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if status != 0:
                raise RuntimeError(f"a fit_path worker exited with status {status} "
                                   f"and no result")
            outcomes.update(pickle.loads(payload))
        return outcomes
    finally:
        for pid, read in children.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
