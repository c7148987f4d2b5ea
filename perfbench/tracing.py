"""Span tracing of the polyfactor layers, wrapped from outside the package.

Each traced function is replaced at the name its caller looks up (for
example ``refit_output`` as ``polyfactor.solver.refit_output``) by a wrapper
that records a span ``(name, start, end, parent, op id)`` while the tracer is
enabled. Spans stay in memory and are written out once, at the end of a run.
Self time is a span's duration minus the durations of its direct children;
the code under test is single-threaded, so children nest inside parents.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time

# span name -> the (module, attribute) places where callers look it up.
# ``Class.method`` attributes wrap methods and static methods on the class.
SPAN_TARGETS = {
    "data.load": [("polyfactor.data", "load_svmlight"), ("polyfactor.data", "load_movielens"),
                  ("polyfactor.cli", "load_svmlight"), ("polyfactor.cli", "load_movielens")],
    "data.split": [("polyfactor.data", "split"), ("polyfactor.cli", "split")],
    "gradients.refresh": [("polyfactor.gradients", "GradientOperator.refresh")],
    "gradients.matvec": [("polyfactor.gradients", "GradientOperator.matvec")],
    "gradients.weighted_matvec": [("polyfactor.gradients", "GradientOperator.weighted_matvec")],
    "gradients.quad_values": [("polyfactor.gradients", "GradientOperator.quad_values")],
    "selection.select": [("polyfactor.solver", "select_l1"), ("polyfactor.solver", "select_group"),
                         ("polyfactor.selection", "select_l1")],
    "selection.refine": [("polyfactor.selection", "refine")],
    "refit.output": [("polyfactor.solver", "refit_output")],
    "refit.full": [("polyfactor.solver", "refit_full")],
    "refit.prune": [("polyfactor.solver", "prune")],
    "refit.objective": [("polyfactor.solver", "penalized_objective")],
    "losses.values": [("polyfactor.refit", "loss_values")],
    "losses.gradients": [("polyfactor.refit", "loss_gradients"),
                         ("polyfactor.gradients", "loss_gradients")],
    "models.activations": [("polyfactor.refit", "hidden_activations"),
                           ("polyfactor.models", "hidden_activations")],
    "models.outputs": [("polyfactor.refit", "outputs"), ("polyfactor.gradients", "outputs"),
                       ("polyfactor.models", "outputs"), ("polyfactor.mcrank", "outputs"),
                       ("polyfactor.cli", "outputs")],
    "penalties.prox": [("polyfactor.refit", "prox")],
    "solver.fit": [("polyfactor.solver", "fit"), ("polyfactor.mcrank", "fit"),
                   ("polyfactor.cli", "fit")],
    "solver.validate": [("polyfactor.solver", "accuracy"), ("polyfactor.cli", "accuracy")],
    "mcrank.build_ordinal": [("polyfactor.mcrank", "build_ordinal"),
                             ("polyfactor.cli", "build_ordinal")],
    "mcrank.groups": [("polyfactor.mcrank", "RankingGroups.from_ids")],
    "mcrank.score": [("polyfactor.mcrank", "expected_relevance"),
                     ("polyfactor.cli", "expected_relevance")],
    "mcrank.ndcg": [("polyfactor.mcrank", "ndcg_at")],
    "cli.main": [("polyfactor.cli", "main")],
    "models.io": [("polyfactor.cli", "load_model"), ("polyfactor.cli", "save_model")],
}
SPAN_NAMES = tuple(SPAN_TARGETS)

# derived per-op metrics: name -> (unit, better)
DERIVED = {
    "selection.power.s": ("s", "lower"),
    "selection.power.matvecs": ("count", "lower"),
    "selection.refine.steps": ("count", "lower"),
    "selection.refine.backtracks": ("count", "lower"),
    "selection.refine.accept_ratio": ("ratio", "higher"),
    "selection.refine.starts_per_select": ("ratio", "lower"),
    "refit.fista_iters": ("count", "lower"),
    "refit.loss_evals_per_iter": ("ratio", "lower"),
    "refit.rows_pruned": ("count", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.zero_k_iterations": ("count", "lower"),
    "solver.useful_iter_ratio": ("ratio", "higher"),
    "gradients.nnz_touched": ("count", "lower"),
    "trace.op_s": ("s", "lower"),
}

# X-apply passes per operator call, for the computed nnz_touched count:
# matvec and weighted_matvec apply X and X^T, quad_values applies X once
NNZ_PASSES = {"gradients.matvec": 2, "gradients.weighted_matvec": 2,
              "gradients.quad_values": 1}


def per_layer_catalogue():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return out


class Tracer:
    """In-memory span recorder plus the counters read from return values."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names = []           # span names by span index
        self.starts = []
        self.ends = []
        self.parents = []         # parent span index, -1 at the top
        self.ops = []
        self.results = []         # counter payload per span (or None)
        self._stack = []
        self._patched = []

    # -- wrapping ---------------------------------------------------------
    def install(self):
        """Replace every target in SPAN_TARGETS with a span-recording wrapper."""
        for name, targets in SPAN_TARGETS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn)
                setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod)
                        else wrapped)
                self._patched.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _wrap(self, name, fn):
        payload = _PAYLOADS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op_id)
            tracer.ends.append(0.0)
            tracer.results.append(None)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if payload is not None:
                tracer.results[idx] = payload(args, result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------
    def write(self, path):
        """Write every span as one CSV line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},"
                         f"{self.parents[i]},{self.ops[i]}\n")

    def metrics(self, op_ids, op_seconds):
        """Per-op layer metrics over the spans of the given ops."""
        keep = set(op_ids)
        n_ops = len(keep)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        child_time = [0.0] * len(self.names)
        child_quads = [0] * len(self.names)
        for i in range(len(self.names)):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
                if self.names[i] == "gradients.quad_values":
                    child_quads[p] += 1

        c = dict.fromkeys(("power_matvecs", "refine_steps", "refine_backtracks", "fista_iters",
                           "refit_loss_evals", "rows_pruned", "iterations", "zero_k", "nnz"), 0)
        for i, name in enumerate(self.names):
            if self.ops[i] not in keep:
                continue
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child_time[i]
            res = self.results[i]
            if name in NNZ_PASSES:
                c["nnz"] += NNZ_PASSES[name] * res
                if name == "gradients.matvec" and self._under(i, "selection.select"):
                    c["power_matvecs"] += 1
            elif name == "selection.refine":
                c["refine_steps"] += res
                # every trial point except the accepted ones was a backtrack
                c["refine_backtracks"] += child_quads[i] - 1 - res
            elif name in ("refit.output", "refit.full"):
                c["fista_iters"] += res
            elif name == "losses.values" and (self._under(i, "refit.output")
                                              or self._under(i, "refit.full")):
                c["refit_loss_evals"] += 1
            elif name == "refit.prune":
                c["rows_pruned"] += res
            elif name == "solver.fit":
                c["iterations"] += res[0]
                c["zero_k"] += res[1]

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.s"] = total[name] / n_ops
            out[f"{name}.self_s"] = own[name] / n_ops
        trials = c["refine_steps"] + c["refine_backtracks"]
        out.update({
            "selection.power.s": (total["selection.select"] - total["selection.refine"]) / n_ops,
            "selection.power.matvecs": c["power_matvecs"] / n_ops,
            "selection.refine.steps": c["refine_steps"] / n_ops,
            "selection.refine.backtracks": c["refine_backtracks"] / n_ops,
            "selection.refine.accept_ratio": c["refine_steps"] / trials if trials else 0.0,
            "selection.refine.starts_per_select": (calls["selection.refine"]
                                                   / calls["selection.select"]
                                                   if calls["selection.select"] else 0.0),
            "refit.fista_iters": c["fista_iters"] / n_ops,
            "refit.loss_evals_per_iter": (c["refit_loss_evals"] / c["fista_iters"]
                                          if c["fista_iters"] else 0.0),
            "refit.rows_pruned": c["rows_pruned"] / n_ops,
            "solver.iterations": c["iterations"] / n_ops,
            "solver.zero_k_iterations": c["zero_k"] / n_ops,
            "solver.useful_iter_ratio": ((c["iterations"] - c["zero_k"]) / c["iterations"]
                                         if c["iterations"] else 0.0),
            "gradients.nnz_touched": c["nnz"] / n_ops,
            "trace.op_s": op_seconds,
        })
        return out

    def _under(self, i, ancestor):
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == ancestor:
                return True
            p = self.parents[p]
        return False


def _fit_counts(args, result):
    # solver.fit returns (model, trace); trace[0] is the t=0 record
    records = result[1][1:]
    return len(records), sum(1 for rec in records if rec.k == 0)


_PAYLOADS = {
    "gradients.matvec": lambda args, result: args[0].X.nnz,
    "gradients.weighted_matvec": lambda args, result: args[0].X.nnz,
    "gradients.quad_values": lambda args, result: args[0].X.nnz,
    "selection.refine": lambda args, result: len(result.trace) - 1,
    "refit.output": lambda args, result: len(result[1]) - 1,
    "refit.full": lambda args, result: len(result[1]) - 1,
    "refit.prune": lambda args, result: args[0].k - result.k,
    "solver.fit": _fit_counts,
}
