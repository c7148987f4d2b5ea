"""Multi-class penalty / refit comparison on the vowel-shaped benchmark.

Regenerates the benchmark if the file is missing, then fits every penalty
under both refit modes with a small validation-driven lambda grid and prints
test accuracies plus selected model sizes.
"""

import argparse
import time
from pathlib import Path

from polyfactor.data import SplitSpec, load_svmlight, save_svmlight, split
from polyfactor.models import accuracy
from polyfactor.penalties import PENALTIES
from polyfactor.solver import REFITS, SolverConfig, fit_path
from polyfactor.synth import make_multiclass


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default="data/vowel_like.svm", type=Path)
    ap.add_argument("--k-max", type=int, default=25)
    ap.add_argument("--lambdas", default="0.3,0.1,0.03,0.01")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if not args.data.exists():
        args.data.parent.mkdir(parents=True, exist_ok=True)
        save_svmlight(make_multiclass(528, 10, 11, n_basis=5, seed=0, margin=0.25),
                       args.data)
    ds = load_svmlight(args.data, augment_bias=True)
    train, valid, test = split(ds, SplitSpec(seed=args.seed))
    grid = tuple(float(v) for v in args.lambdas.split(","))

    print(f"n={ds.n} d={ds.d} m={ds.m}  train/valid/test = "
          f"{train.n}/{valid.n}/{test.n}")
    print(f"{'penalty':8s} {'refit':7s} {'lambda':>8s} {'k':>4s} "
          f"{'valid':>7s} {'test':>7s} {'sec':>6s}")
    for refit in REFITS:
        for penalty in PENALTIES:
            cfg = SolverConfig(model="pn", loss="logistic", penalty=penalty,
                               k_max=args.k_max, refit=refit, seed=args.seed)
            t0 = time.perf_counter()
            model, report = fit_path(train, valid, cfg, lam_grid=grid)
            best = report["best"]
            print(f"{penalty:8s} {refit:7s} {best['lambda']:8.3g} {model.k:4d} "
                  f"{best['metric']:7.4f} {accuracy(model, test):7.4f} "
                  f"{time.perf_counter() - t0:6.1f}")


if __name__ == "__main__":
    main()
