"""The benchmark workloads: seeded set-up, one timed operation, and checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Set-up writes the inputs with
``polyfactor.synth`` through the real file formats, and each operation is a
``polyfactor`` command-line call on those files. The samples come from a
planted model with a fixed seed, so ``--seed`` changes the sample rows and
the split but not the difficulty of the planted problem. A run cycles
through ``inputs`` input sets drawn from the seed, so that one run averages
over several inputs rather than one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from polyfactor import cli, data, models, refit, synth

PLANTED_SEED = 0              # planted model behind every input
VOWEL_POOL = 528 * 16         # rows drawn from the planted vowel-shaped model
RATINGS_POOL = (300, 500, 60_000)   # users, items, ratings of the planted pool
TRAIN_RATINGS, TEST_RATINGS = 12_000, 6_000


class CheckFailed(Exception):
    """An operation returned an output that failed a correctness check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def non_increasing(seq) -> bool:
    seq = np.asarray(seq, dtype=np.float64)
    return bool(np.all(np.isfinite(seq))
                and np.all(np.diff(seq) <= 1e-10 * np.maximum(np.abs(seq[:-1]), 1.0)))


def cli_call(argv) -> str:
    """Run the polyfactor CLI in-process; return its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    check(code == 0, f"polyfactor {argv[0]} exited with {code}")
    return buf.getvalue()


def check_round_trip(path: Path, k_max: int):
    """The saved model loads, passes check_model, has k <= k_max, and
    re-saves to the identical bytes with identical arrays."""
    model = models.load_model(path)
    check(model.k <= k_max, f"k={model.k} exceeds k_max={k_max}")
    again = path.with_suffix(".again.json")
    models.save_model(model, again)
    check(again.read_bytes() == path.read_bytes(), "model file did not round-trip")
    reloaded = models.load_model(again)
    check(np.array_equal(reloaded.H, model.H) and np.array_equal(reloaded.V, model.V),
          "model arrays did not round-trip")
    return model


class Workload:
    """One workload: ``setup`` writes inputs, ``op`` runs one operation on
    input set j, ``quality`` checks its outputs after the timed region
    (raising CheckFailed) and returns its quality figures."""

    name = ""
    inputs = 1      # input sets cycled through per run
    warmup = 1      # untimed operations before measuring

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, j: int) -> str:
        raise NotImplementedError

    def quality(self, j: int, printed: str) -> dict:
        raise NotImplementedError


class VowelPath(Workload):
    """`polyfactor path`: PN, logistic loss, l1 penalty, joint full refit,
    the default auto 10-point lambda grid, validation accuracy."""

    name = "vowel-path-l1-full"
    inputs = 6
    k_max = 3

    def path(self, j):
        return self.work / f"vowel{j}.svm"

    def setup(self):
        pool = synth.make_multiclass(VOWEL_POOL, 10, 11, n_basis=5, seed=PLANTED_SEED,
                                     margin=0.25)
        rng = np.random.default_rng(self.seed)
        for j in range(self.inputs):
            rows = np.sort(rng.choice(pool.n, 528, replace=False))
            synth.write_svmlight(data.take_rows(pool, rows), self.path(j))

    def op(self, j):
        return cli_call(["path", "--data", str(self.path(j)), "--penalty", "l1",
                         "--refit", "full", "--k-max", str(self.k_max),
                         "--metric", "accuracy", "--seed", str(self.seed),
                         "--out", str(self.work / f"best{j}.json"),
                         "--report", str(self.work / f"report{j}.json")])

    def quality(self, j, printed):
        best = json.loads(printed.strip().splitlines()[-1])
        check(all(math.isfinite(best[key]) for key in ("lambda", "metric")),
              "non-finite best-model report")
        report = json.loads((self.work / f"report{j}.json").read_text())
        lams = [entry["lambda"] for entry in report["per_lambda"]]
        check(len(lams) == 10 and all(b < a for a, b in zip(lams, lams[1:])),
              "auto grid is not 10 decreasing weights")
        model = check_round_trip(self.work / f"best{j}.json", self.k_max)
        ds = data.load_svmlight(self.path(j), augment_bias=True)
        train, _, test = data.split(ds, data.SplitSpec(seed=self.seed))
        return {"final_objective": refit.penalized_objective(model, train),
                "test_accuracy": models.accuracy(model, test)}


class RatingsTrainEval(Workload):
    """`polyfactor train --mcrank` (ordinal FM, binary-logistic per
    threshold, l1/linf penalty), then `polyfactor eval` on held-out ratings."""

    name = "ratings-mcrank-train-eval"
    inputs = 8
    k_max = 4
    ndcg_floor = 0.70      # the acceptance gate's nDCG@1 floor

    def path(self, kind, j):
        return self.work / f"{kind}{j}.data"

    def setup(self):
        n_users, n_items, n_ratings = RATINGS_POOL
        users, items, ratings = synth.make_ratings(n_users, n_items, n_ratings, rank=4,
                                                   seed=PLANTED_SEED, noise=0.1)
        rng = np.random.default_rng(self.seed)
        for j in range(self.inputs):
            # the model's one-hot columns are the ids a file holds, so both
            # files must hold every user and item for eval to line up
            while True:
                rows = rng.permutation(users.size)
                parts = (("train", np.sort(rows[:TRAIN_RATINGS])),
                         ("test", np.sort(rows[TRAIN_RATINGS:TRAIN_RATINGS + TEST_RATINGS])))
                if all(np.unique(users[p]).size == n_users and np.unique(items[p]).size == n_items
                       for _, p in parts):
                    break
            for kind, part in parts:
                synth.write_movielens(users[part], items[part], ratings[part],
                                      self.path(kind, j))

    def op(self, j):
        model = str(self.work / f"model{j}.json")
        cli_call(["train", "--data", str(self.path("train", j)), "--format", "movielens",
                  "--mcrank", "--model", "fm", "--penalty", "l1linf", "--lambda", "0.5",
                  "--k-max", str(self.k_max), "--refit", "output", "--seed", "0",
                  "--out", model, "--trace", str(self.work / f"trace{j}.csv"),
                  "--deterministic-trace"])
        return cli_call(["eval", "--model", model, "--data", str(self.path("test", j)),
                         "--format", "movielens"])

    def quality(self, j, printed):
        with open(self.work / f"trace{j}.csv", newline="") as fh:
            objectives = [float(row["objective"]) for row in csv.DictReader(fh)]
        check(non_increasing(objectives), "objective trace increased")
        check_round_trip(self.work / f"model{j}.json", self.k_max)
        report = json.loads(printed)
        numbers = [v for v in report.values() if isinstance(v, (int, float))]
        check(all(math.isfinite(v) for v in numbers), "non-finite eval report")
        check(report["ndcg@1"] >= self.ndcg_floor,
              f"nDCG@1 {report['ndcg@1']} below {self.ndcg_floor}")
        return {"final_objective": objectives[-1], "test_ndcg1": report["ndcg@1"],
                "test_rmse": report["rmse"]}


WORKLOADS = {cls.name: cls for cls in (VowelPath, RatingsTrainEval)}
