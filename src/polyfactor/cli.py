"""Command-line front end: train, predict, eval, path, oracle-compare."""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .data import (DataError, SplitSpec, format_label, load_movielens, load_svmlight,
                   make_dataset, split, write_blocks)
from .gradients import GradientOperator
from .losses import LOSSES, MULTICLASS_LOSSES
from .mcrank import build_ordinal, evaluate_ranking, expected_relevance
from .models import (MODEL_KINDS, accuracy, class_labels, empty_model, load_model, outputs,
                     predict_class, save_model)
from .penalties import PENALTIES
from .selection import ORACLE_LIMIT, OracleLimitError, compare_methods, f_value
from .solver import REFITS, ConfigError, SolverConfig, fit, fit_path, lambda_max

# the widest d oracle-compare takes: its exact oracle runs a dense d x d
# eigensolve for each of the 2^m output sign patterns
ORACLE_MAX_D = 64


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _add_data_flags(p, required=True):
    p.add_argument("--data", required=required, help="input data file")
    p.add_argument("--format", choices=("svmlight", "movielens"), default="svmlight")


def _add_train_flags(p):
    p.add_argument("--model", choices=MODEL_KINDS, default=SolverConfig.model)
    p.add_argument("--penalty", choices=PENALTIES, default=SolverConfig.penalty)
    p.add_argument("--k-max", type=int, default=SolverConfig.k_max)
    p.add_argument("--refit", choices=REFITS, default=SolverConfig.refit)
    p.add_argument("--loss", choices=LOSSES, default=None,
                   help=f"default: {SolverConfig.loss}, or binary-logistic with --mcrank")
    p.add_argument("--mcrank", action="store_true",
                   help="train the ordinal multi-output reduction on ratings")
    p.add_argument("--seed", type=int, default=SolverConfig.seed)


def _resolve_loss(args) -> str:
    if args.mcrank:
        if args.loss not in (None, "binary-logistic"):
            raise ConfigError(f"--mcrank trains binary threshold classifiers; "
                              f"--loss {args.loss} conflicts")
        if args.model != "fm":
            raise ConfigError("--mcrank is wired for --model fm")
        return "binary-logistic"
    loss = args.loss or SolverConfig.loss
    if loss == "binary-logistic":
        raise ConfigError("--loss binary-logistic needs --mcrank (it trains on "
                          "the ordinal threshold matrix)")
    return loss


def _resolve_augment(args, loss: str) -> bool:
    """A constant-1 feature is prepended for svmlight PN multi-class fits only."""
    return args.format == "svmlight" and args.model == "pn" and loss in MULTICLASS_LOSSES


def _load(args, augment: bool, d=None):
    if args.format == "movielens":
        return load_movielens(args.data)
    return load_svmlight(args.data, augment_bias=augment, d=d)


def _solver_config(args, loss: str, lam: float = SolverConfig.lam) -> SolverConfig:
    """The flags' solver settings; ``path`` keeps the default lam, because its
    grid sets the weight of every fit."""
    return SolverConfig(model=args.model, loss=loss, penalty=args.penalty, lam=lam,
                        k_max=args.k_max, refit=args.refit, seed=args.seed)


def _write_trace(path, trace, deterministic: bool) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "objective", "score", "k", "seconds"])
        for rec in trace:
            seconds = 0.0 if deterministic else rec.seconds
            writer.writerow([rec.t, repr(rec.objective), repr(rec.score),
                             rec.k, f"{seconds:.6f}"])


def _write_manifest(args, cfg: SolverConfig, augment: bool, artifacts: dict) -> None:
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {
            **asdict(cfg),
            "mcrank": args.mcrank,
            "augment_bias": augment,
            "format": args.format,
            "deterministic_trace": args.deterministic_trace,
        },
        "data": {"path": args.data, "sha256": _sha256(args.data)},
        "artifacts": artifacts,
    }
    path = artifacts["model"] + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(args) -> int:
    loss = _resolve_loss(args)
    augment = _resolve_augment(args, loss)
    ds = _load(args, augment)
    if args.mcrank:
        ds = build_ordinal(ds)
    cfg = _solver_config(args, loss, args.lam)
    model, trace = fit(ds, cfg)
    save_model(model, args.out)
    artifacts = {"model": args.out, "trace": args.trace}
    if args.trace:
        _write_trace(args.trace, trace, args.deterministic_trace)
    _write_manifest(args, cfg, augment, artifacts)
    print(f"final objective {trace[-1].objective:.6g} with k={model.k} basis vectors")
    return 0


def _load_saved(args):
    """The saved model and the data it is applied to, with matching d:
    svmlight rows are read at the model's width (an absent feature is 0),
    and MovieLens one-hot columns must number the same."""
    model = load_model(args.model)
    ds = _load(args, model.bias_augmented and args.format == "svmlight", d=model.d)
    if model.d != ds.d:
        raise RuntimeError(f"model expects d={model.d} features but the data "
                           f"has d={ds.d}")
    return model, ds


def cmd_predict(args) -> int:
    """One line per row on stdout: ``repr`` of the expected rating (mcrank)
    or the raw output (squared), else the predicted label as ``format_label``
    writes it; a block of rows per write (``write_blocks``)."""
    model, ds = _load_saved(args)
    if model.loss in MULTICLASS_LOSSES:
        names = [format_label(v) + "\n" for v in class_labels(model.label_map, model.m)]
        classes = predict_class(model, ds.X) - 1

        def render(lo, hi):
            return "".join([names[c] for c in classes[lo:hi].tolist()])
    else:
        values = (expected_relevance(model, ds.X) if model.loss == "binary-logistic"
                  else outputs(model, ds.X)[:, 0])

        def render(lo, hi):
            return "%r\n" * (hi - lo) % tuple(values[lo:hi].tolist())
    write_blocks(sys.stdout, ds.n, render)
    return 0


def cmd_eval(args) -> int:
    model, ds = _load_saved(args)
    if model.loss not in MULTICLASS_LOSSES:
        ks = (1, 5) if ds.group_ids is not None else ()
        report = evaluate_ranking(model, ds, ks=ks)
    else:
        report = {"accuracy": accuracy(model, ds), "n": ds.n}
    report.update({"k": model.k, "lambda": model.lam, "penalty": model.penalty,
                   "model_kind": model.kind})
    print(json.dumps(report, sort_keys=True))
    return 0


def _metric_fn(name: str):
    if name == "accuracy":
        return accuracy, True
    if name == "rmse":
        return (lambda model, ds: evaluate_ranking(model, ds, ks=())["rmse"]), False
    cutoff = name.removeprefix("ndcg@")
    if cutoff != name and cutoff.isdecimal() and int(cutoff) > 0:
        k = int(cutoff)
        return (lambda model, ds: evaluate_ranking(model, ds, ks=(k,))[f"ndcg@{k}"]), True
    raise ConfigError(f"unknown metric {name!r}")


def _auto_lambda_grid(ds, cfg: SolverConfig):
    """10-point log grid from lambda_max, the weight at which the first
    selected atom stays at zero, down to 1/1000 of it."""
    top = lambda_max(ds, cfg)
    if top <= 0:
        raise ConfigError("cannot derive a lambda grid from a zero gradient")
    return tuple(np.geomspace(top, top * 1e-3, 10))


def cmd_path(args) -> int:
    loss = _resolve_loss(args)
    metric, higher = _metric_fn(args.metric)
    if (args.metric == "accuracy") != (loss in MULTICLASS_LOSSES):
        raise ConfigError(f"--metric {args.metric} does not suit the {loss} loss: accuracy "
                          f"scores multi-class losses, and rmse and ndcg@k score the "
                          f"ratings of --mcrank and --loss squared fits")
    if args.lambdas != "auto":
        try:
            lams = [float(v) for v in args.lambdas.split(",")]
        except ValueError:
            raise ConfigError(f"bad --lambdas {args.lambdas!r}: expected 'auto' or "
                              f"comma-separated numbers") from None
    cfg = _solver_config(args, loss)
    ds = _load(args, _resolve_augment(args, loss))
    train_ds, valid_ds, _ = split(ds, SplitSpec(seed=args.seed))
    if args.metric.startswith("ndcg@") and valid_ds.group_ids is None:
        raise ConfigError(f"--metric {args.metric} ranks within groups, which only "
                          f"movielens data carries")
    if args.mcrank:
        train_ds = build_ordinal(train_ds)
    if args.lambdas == "auto":
        lams = _auto_lambda_grid(train_ds, cfg)
    model, report = fit_path(train_ds, valid_ds, cfg, lam_grid=lams,
                             metric_fn=metric, higher_is_better=higher)
    save_model(model, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(report["best"], sort_keys=True))
    return 0


def _random_instance(rng, n, d, m):
    X = rng.standard_normal((n, d))
    D = rng.standard_normal((n, m))
    ds = make_dataset(X, np.ones(n, dtype=np.int64), m)
    op = GradientOperator(ds, "pn", n_outputs=m)
    op.set_gradients(D)
    return op, ds


def cmd_oracle_compare(args) -> int:
    for flag, value, least in (("--n", args.n, 1), ("--d", args.d, 1),
                               ("--instances", args.instances, 0), ("--seed", args.seed, 0),
                               ("--m-max", args.m_max, 2)):
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    if args.d > ORACLE_MAX_D:
        raise ConfigError(f"--d {args.d} exceeds {ORACLE_MAX_D}: the exact oracle runs a "
                          f"dense d x d eigensolve per output sign pattern")
    if args.m_max > ORACLE_LIMIT:
        raise ConfigError(f"exact selection is exponential in the output count; "
                          f"--m-max {args.m_max} exceeds {ORACLE_LIMIT}")
    given = _load(args, augment=False) if args.data else None  # refused before any instance runs
    if given is not None and given.d > ORACLE_MAX_D:
        raise ConfigError(f"dataset has d={given.d}; the exact oracle needs a "
                          f"dense eigensolve (d <= {ORACLE_MAX_D})")
    rng = np.random.default_rng(args.seed)
    rows = []

    def run(tag, op, ds):
        results = compare_methods(op, args.seed, ds)
        exact = results.pop("exact")
        denom = max(exact.score, 1e-300)
        rows.append((tag, "exact", exact.score, 1.0))
        for method, res in results.items():
            f1 = f_value(res.quad_values, 1)
            rows.append((tag, method, f1, f1 / denom))

    for i in range(args.instances):
        m = 2 + i % (args.m_max - 1)
        op, ds = _random_instance(rng, args.n, args.d, m)
        run(f"random-{i}", op, ds)

    if given is not None:
        op = GradientOperator(given, args.model, n_outputs=given.m)
        op.refresh(empty_model(args.model, given.d, given.m, "logistic", "l1", 1.0))
        run("dataset", op, given)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "method", "f1", "nu_hat"])
        for tag, method, f1, nu in rows:
            writer.writerow([tag, method, repr(float(f1)), repr(float(nu))])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


@functools.cache  # parsing does not change the parser, so every main call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyfactor",
        description="Greedy conditional-gradient training of multi-output "
                    "polynomial networks and factorization machines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit one model and save it as JSON")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--trace", default=None, help="objective trace CSV path")
    p.add_argument("--deterministic-trace", action="store_true",
                   help="write 0.0 in the trace seconds column so that "
                        "re-runs are byte-identical")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="stream one prediction per input row to stdout")
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.set_defaults(func=cmd_eval)

    # no prefix matching here: --lambda must not stand for --lambdas
    p = sub.add_parser("path", allow_abbrev=False,
                       help="regularization path with interleaved validation on "
                            "a 50/25/25 train/valid/test split; saves the best model")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--lambdas", default="auto",
                   help="comma-separated, strictly decreasing lambda grid; "
                        "'auto' uses a 10-point log grid from the weight that "
                        "zeroes the first selected atom down to 1/1000 of it")
    p.add_argument("--metric", default="accuracy",
                   help="accuracy, rmse, ndcg@1, ndcg@5, ...")
    p.add_argument("--out", required=True, help="best-model JSON path")
    p.add_argument("--report", default=None, help="per-lambda report JSON path")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("oracle-compare",
                       help="basis-selection method comparison CSV (empirical "
                            "approximation factors against the exact oracle)")
    _add_data_flags(p, required=False)
    p.add_argument("--model", choices=MODEL_KINDS, default="pn")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--n", type=int, default=40, help="samples per random instance")
    p.add_argument("--d", type=int, default=12, help="features per random instance")
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_oracle_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OracleLimitError) as exc:
        status, error = 2, exc
    except (DataError, OSError, RuntimeError, ValueError, FloatingPointError, MemoryError) as exc:
        status, error = 1, exc
    # an exception with no text (a bare MemoryError) is named by its type
    print(f"error: {str(error) or type(error).__name__}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
