"""Recommender comparison on the MovieLens-100k-shaped benchmark.

Trains the multi-output ordinal reduction (shared-basis FM, one threshold
classifier per rating level) against a single-output FM regression baseline
and prints RMSE / nDCG on the held-out split.
"""

import argparse
import time
from pathlib import Path

from polyfactor.data import SplitSpec, load_movielens, split
from polyfactor.mcrank import build_ordinal, evaluate_ranking
from polyfactor.penalties import PENALTIES
from polyfactor.solver import SolverConfig, fit
from polyfactor.synth import make_ratings, write_movielens


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default="data/ml100k_like.u.data", type=Path)
    ap.add_argument("--k-max", type=int, default=30)
    ap.add_argument("--lambda", dest="lam", type=float, default=10.0)
    ap.add_argument("--penalty", default="l1linf", choices=PENALTIES)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if not args.data.exists():
        args.data.parent.mkdir(parents=True, exist_ok=True)
        users, items, ratings = make_ratings(943, 1682, 100_000, rank=4,
                                             seed=0, noise=0.1)
        write_movielens(users, items, ratings, args.data)
    ds = load_movielens(args.data)
    train, valid, test = split(ds, SplitSpec(seed=args.seed))
    print(f"n={ds.n} d={ds.d} m={ds.m}  train/valid/test = "
          f"{train.n}/{valid.n}/{test.n}")

    common = dict(penalty=args.penalty, lam=args.lam, k_max=args.k_max,
                  refit="output", seed=args.seed)

    t0 = time.perf_counter()
    multi, _ = fit(build_ordinal(train), SolverConfig(
        model="fm", loss="binary-logistic", **common))
    multi_report = evaluate_ranking(multi, test)
    print(f"multi-output ordinal FM: k={multi.k} "
          f"{ {k: round(v, 4) for k, v in multi_report.items()} } "
          f"({time.perf_counter() - t0:.0f}s)")

    t0 = time.perf_counter()
    single, _ = fit(train, SolverConfig(model="fm", loss="squared", **common))
    single_report = evaluate_ranking(single, test)
    print(f"single-output FM:        k={single.k} "
          f"{ {k: round(v, 4) for k, v in single_report.items()} } "
          f"({time.perf_counter() - t0:.0f}s)")


if __name__ == "__main__":
    main()
