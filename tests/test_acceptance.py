"""Release acceptance gate: each criterion prints one pass/fail line
(run with -s or -rA to see them).

The classic benchmark files cannot be downloaded in this environment, so the
desk-scale criteria run on planted-model stand-ins with the same shapes
(vowel-shaped: n=528, d=10, m=11; MovieLens-100k-shaped: 943 users, 1682
items, 100k ratings), written in the real file formats and ingested through
the real loaders.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize

from oracles import activation, loss_gradient, loss_value, row_norm
from polyfactor.cli import main as cli_main
from polyfactor.data import (SplitSpec, load_movielens, load_svmlight, make_dataset, save_svmlight,
                             split, take_rows)
from polyfactor.gradients import GradientOperator
from polyfactor.losses import LOSSES, loss_gradients
from polyfactor.mcrank import build_ordinal, evaluate_ranking
from polyfactor.models import accuracy
from polyfactor.penalties import PENALTIES, prox
from polyfactor.refit import refit_full, refit_output
from polyfactor.selection import (
    _spectrum_ends,
    baseline_best_data,
    baseline_random,
    exact_oracle_linf,
    f_value,
    refine,
    select_group,
    select_l1,
)
from polyfactor.solver import SolverConfig, fit, fit_path, support_check
from polyfactor.synth import make_multiclass, make_ratings, write_movielens

pytestmark = pytest.mark.acceptance


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_op(rng, n, d, m, kind):
    X = rng.standard_normal((n, d))
    ds = make_dataset(X, np.ones(n, dtype=np.int64), m)
    op = GradientOperator(ds, kind, n_outputs=m)
    op.set_gradients(rng.standard_normal((n, m)))
    return op, ds


def logistic_op(rng, n, d, m):
    X = rng.standard_normal((n, d))
    y = rng.integers(1, m + 1, size=n)
    ds = make_dataset(X, y, m)
    op = GradientOperator(ds, "pn", n_outputs=m)
    op.set_gradients(loss_gradients("logistic", y, np.zeros((n, m))))
    return op, ds


@pytest.fixture(scope="module")
def vowel_like(tmp_path_factory):
    """Vowel-shaped rows plus a large fresh pool from the same planted model,
    round-tripped through the svmlight loader with the bias feature."""
    path = tmp_path_factory.mktemp("vowel") / "vowel_like.svm"
    save_svmlight(make_multiclass(4528, 10, 11, n_basis=5, seed=0, margin=0.25), path)
    loaded = load_svmlight(path, augment_bias=True)
    ds = take_rows(loaded, np.arange(528))
    pool = take_rows(loaded, np.arange(528, 4528))
    return path, ds, pool


@pytest.fixture(scope="module")
def ml100k_like(tmp_path_factory):
    path = tmp_path_factory.mktemp("ml") / "u.data"
    users, items, ratings = make_ratings(943, 1682, 100_000, rank=4, seed=0, noise=0.05)
    write_movielens(users, items, ratings, path)
    return load_movielens(path)


def test_criterion_1_oracle_equivalence_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(11)

    # FM activation vs explicit pair enumeration, 500 random cases, 1e-10
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 9))
        h = rng.standard_normal(d)
        x = rng.standard_normal(d)
        brute = sum(x[i] * h[i] * x[j] * h[j]
                    for i in range(d) for j in range(i + 1, d))
        worst = max(worst, abs(activation("fm", h, x) - brute) / max(1.0, abs(brute)))
    assert worst <= 1e-10, f"FM activation mismatch {worst}"

    # operator matvec vs dense assembly (d <= 30), 1e-12
    for kind in ("pn", "fm"):
        for _ in range(30):
            d = int(rng.integers(3, 31))
            op, _ = random_op(rng, int(rng.integers(d, 2 * d)), d, 3, kind)
            h = rng.standard_normal(d)
            for c in range(3):
                dense = op.dense_matrix(c) @ h
                scale = max(1.0, np.abs(dense).max())
                assert np.abs(op.weighted(np.eye(op.m)[c])(h) - dense).max() <= 1e-12 * scale

    # gradient rows vs direct per-sample summation, 1e-10
    for kind in ("pn", "fm"):
        for _ in range(10):
            op, _ = random_op(rng, 10, 6, 3, kind)
            h = rng.standard_normal(6)
            h /= np.linalg.norm(h)
            g = -op.quad_values(h)
            for c in range(3):
                direct = -sum(activation(kind, h, op.X.getrow(i).toarray().ravel()) * op.D[i, c]
                              for i in range(op.n))
                assert abs(g[c] - direct) <= 1e-10 * max(1.0, abs(direct))

    # loss gradients vs central finite differences, relative 1e-6
    for kind in LOSSES:
        for _ in range(40):
            m = 1 if kind == "squared" else int(rng.integers(2, 6))
            o = 2.0 * rng.standard_normal(m)
            if kind == "binary-logistic":
                y = rng.choice([-1.0, 1.0], size=m)
            elif kind == "squared":
                y = float(rng.standard_normal())
            else:
                y = int(rng.integers(1, m + 1))
            g = loss_gradient(kind, y, o)
            eps = 1e-5
            fd = np.empty(m)
            for j in range(m):
                e = np.zeros(m)
                e[j] = eps
                fd[j] = (loss_value(kind, y, o + e) - loss_value(kind, y, o - e)) / (2 * eps)
            scale = max(np.abs(g).max(), np.abs(fd).max(), 1e-8)
            assert np.abs(g - fd).max() <= 1e-6 * scale

    # prox operators vs numeric minimization, 1e-6 on the objective
    for kind in PENALTIES:
        for _ in range(20):
            v = 2.0 * rng.standard_normal(3)
            t = float(rng.uniform(0.2, 1.5))
            got = prox(kind, v[None, :], t)[0]

            def objective(u):
                return 0.5 * np.sum((u - v) ** 2) + t * row_norm(kind, u)

            res = minimize(objective, x0=v, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
            assert objective(got) <= res.fun + 1e-6

    # expected-relevance telescoping vs direct expectation, 1e-12
    for _ in range(200):
        m = int(rng.integers(2, 7))
        P = np.sort(rng.random(m))
        P[-1] = 1.0
        masses = np.diff(P, prepend=0.0)
        levels = np.arange(1, m + 1)
        telescoped = float(sum(c * (P[c - 1] - (P[c - 2] if c > 1 else 0.0))
                               for c in levels))
        assert abs(float(masses @ levels) - telescoped) <= 1e-12

    elapsed = time.perf_counter() - start
    report(1, elapsed < 60.0, f"oracle equivalences all within tolerance ({elapsed:.1f}s)")


def test_criterion_2_eigensolver_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    eps = 0.01
    failures = []
    worst = 1.0
    for i in range(200):
        d = int(rng.integers(5, 51))
        n = int(rng.integers(d, 3 * d))
        op, _ = random_op(rng, n, d, 1, "fm" if i % 2 else "pn")
        seed = int(rng.integers(0, 2**31))
        _, [[top, bottom]] = _spectrum_ends(op, seed)
        vals = np.linalg.eigvalsh(op.dense_matrix(0))
        rho = np.abs(vals).max()
        # the dominant end certifies the spectral radius; each end its eigenvalue
        ratio = max(abs(top), abs(bottom)) / rho
        worst = min(worst, ratio)
        ends_off = abs(top - vals[-1]) > eps * rho or abs(bottom - vals[0]) > eps * rho
        if ratio < 1.0 - eps or ends_off:
            failures.append((i, ratio))
    report(2, not failures,
           f"spectrum-end certificate held on 200/200 operators "
           f"(worst ratio {worst:.4f}, {time.perf_counter() - start:.1f}s)")


def test_criterion_3_subproblem_approximation():
    start = time.perf_counter()
    rng = np.random.default_rng(63)
    eps = 0.01
    nus = []
    rank_wins = 0
    hard_ok = True
    for i in range(50):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(6, 21))
        op, ds = logistic_op(rng, int(rng.integers(2 * d, 4 * d)), d, m)
        seed = int(rng.integers(0, 2**31))
        ours = f_value(select_group(op, 1, seed).quad_values, 1)
        exact = exact_oracle_linf(op).score
        nu = ours / exact
        nus.append(nu)
        if nu < (1.0 - eps) / m:
            hard_ok = False
        rand = baseline_random(op, seed)
        rivals = [
            f_value(refine(op, rand.h, 1).quad_values, 1),
            f_value(select_l1(op, seed).quad_values, 1),
            f_value(rand.quad_values, 1),
            f_value(baseline_best_data(op, ds).quad_values, 1),
        ]
        if ours >= max(rivals) - 1e-6 * exact:
            rank_wins += 1
    elapsed = time.perf_counter() - start
    median = float(np.median(nus))
    ok = hard_ok and median >= 0.95 and rank_wins >= 40 and elapsed < 300.0
    report(3, ok,
           f"nu-hat guarantee hard-held={hard_ok}, median nu-hat={median:.4f}, "
           f"ranking wins {rank_wins}/50, ({elapsed:.1f}s)")


def test_criterion_4_monotone_traces():
    rng = np.random.default_rng(4)
    checked = 0

    def non_increasing(seq):
        seq = np.asarray(seq, dtype=np.float64)
        return np.all(np.diff(seq) <= 1e-10 * np.maximum(np.abs(seq[:-1]), 1.0))

    # refinement traces are non-decreasing (maximization)
    for p in (1, 2):
        for seed in range(5):
            op, _ = logistic_op(np.random.default_rng(seed), 30, 8, 4)
            h0 = rng.standard_normal(8)
            h0 /= np.linalg.norm(h0)
            res = refine(op, h0, p)
            assert res.trace == sorted(res.trace), "refinement trace decreased"
            checked += 1

    # FISTA and full-refit traces non-increasing
    ds = make_multiclass(60, 6, 4, seed=5)
    from polyfactor.models import Model

    H = rng.standard_normal((4, 6))
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    for kind in ("pn", "fm"):
        for penalty in PENALTIES:
            model = Model(kind, H, 0.3 * rng.standard_normal((4, 4)),
                          "logistic", penalty, 0.05)
            _, tr1, _, _ = refit_output(model, ds)
            _, tr2, _, _ = refit_full(model, ds)
            assert non_increasing(tr1) and non_increasing(tr2)
            checked += 2

    # solver outer traces non-increasing on every penalty/refit combination
    for penalty in PENALTIES:
        for refit_mode in ("output", "full"):
            cfg = SolverConfig(model="pn", loss="logistic", penalty=penalty,
                               lam=0.05, k_max=6, refit=refit_mode, seed=0)
            _, trace = fit(ds, cfg)
            assert non_increasing([r.objective for r in trace])
            checked += 1
    report(4, True, f"all {checked} refinement/refit/solver traces monotone")


def test_criterion_5_multiclass_desk_scale(vowel_like):
    start = time.perf_counter()
    _, ds, pool = vowel_like
    train, valid, test = split(ds, SplitSpec(seed=0))
    grid = (0.3, 0.1, 0.03, 0.01)

    cfg = SolverConfig(model="pn", loss="logistic", penalty="l1l2", lam=0.1,
                       k_max=25, refit="full", seed=0)
    best, _ = fit_path(train, valid, cfg, lam_grid=grid)
    acc_full = accuracy(best, test)

    # matched-budget penalty comparison under output refitting; the large
    # fresh pool keeps the comparison out of 132-sample evaluation noise
    pool_acc = {}
    for penalty in ("l1l2", "l1"):
        cfg_out = SolverConfig(model="pn", loss="logistic", penalty=penalty,
                               lam=0.1, k_max=25, refit="output", seed=0)
        model, _ = fit_path(train, valid, cfg_out, lam_grid=grid)
        pool_acc[penalty] = accuracy(model, pool)

    elapsed = time.perf_counter() - start
    ok = acc_full >= 0.86 and pool_acc["l1l2"] >= pool_acc["l1"] - 0.005 \
        and elapsed < 600.0
    report(5, ok,
           f"l1/l2 full-refit test accuracy {acc_full:.4f} (gate 0.86); "
           f"output-refit pool accuracy l1/l2 {pool_acc['l1l2']:.4f} vs "
           f"l1 {pool_acc['l1']:.4f} ({elapsed:.0f}s)")


def test_criterion_6_support_bounds(vowel_like):
    _, ds, _ = vowel_like
    train, _, _ = split(ds, SplitSpec(seed=0))
    results = []
    for penalty in PENALTIES:
        cfg = SolverConfig(model="pn", loss="logistic", penalty=penalty,
                           lam=0.05, k_max=8, seed=0)
        model, trace = fit(train, cfg)
        rep = support_check(model, train, iterations=trace[-1].t)
        assert rep["k"] <= rep["iterations"], "k exceeded iteration count"
        if penalty == "l1":
            assert rep["support_bound"] == min(train.n * model.m + 1,
                                               train.d * model.m)
        assert rep["k"] <= rep["support_bound"]
        results.append((penalty, rep["k"], rep["support_bound"]))
    report(6, True, f"k <= iterations and within support bounds: {results}")


def test_criterion_7_recommender_desk_scale(ml100k_like, tmp_path):
    start = time.perf_counter()
    ds = ml100k_like
    assert ds.d == 2625 and ds.m == 5
    train, valid, test = split(ds, SplitSpec(seed=0))

    def pick_by_validation(loss):
        best = None
        for lam in (5.0, 2.0):
            cfg = SolverConfig(model="fm", loss=loss, penalty="l1linf", lam=lam,
                               k_max=50, refit="output", seed=0)
            model, _ = fit(build_ordinal(train) if loss == "binary-logistic" else train, cfg)
            score = evaluate_ranking(model, valid, ks=(1,))["ndcg@1"]
            if best is None or score > best[0]:
                best = (score, model)
        return best[1]

    multi = pick_by_validation("binary-logistic")
    single = pick_by_validation("squared")
    multi_rep = evaluate_ranking(multi, test)
    single_rep = evaluate_ranking(single, test)

    # the 1M-shaped file only needs to parse with the right record count
    users, items, ratings = make_ratings(6040, 3900, 1_000_209, rank=3,
                                         seed=1, noise=0.1)
    big = tmp_path / "ratings.dat"
    write_movielens(users, items, ratings, big, sep="::")
    parsed = load_movielens(big)
    assert parsed.n == 1_000_209
    assert parsed.d == 9940

    elapsed = time.perf_counter() - start
    ok = (multi.k <= 50
          and multi_rep["ndcg@1"] >= 0.70
          and multi_rep["ndcg@1"] >= single_rep["ndcg@1"]
          and multi_rep["rmse"] <= single_rep["rmse"] + 0.10
          and elapsed < 2700.0)
    report(7, ok,
           f"ordinal FM k={multi.k}: ndcg@1 {multi_rep['ndcg@1']:.4f} "
           f"(single-output {single_rep['ndcg@1']:.4f}), rmse "
           f"{multi_rep['rmse']:.4f} vs {single_rep['rmse']:.4f}; "
           f"1M-format count {parsed.n} ({elapsed:.0f}s)")


def test_criterion_8_trace_determinism(vowel_like, tmp_path):
    path, _, _ = vowel_like
    traces = []
    for run in ("a", "b"):
        trace = tmp_path / f"{run}.csv"
        code = cli_main(["train", "--data", str(path), "--model", "pn",
                         "--penalty", "l1l2", "--lambda", "0.05", "--k-max", "4",
                         "--seed", "3", "--deterministic-trace",
                         "--out", str(tmp_path / f"{run}.json"),
                         "--trace", str(trace)])
        assert code == 0
        traces.append(trace.read_bytes())
    models = [(tmp_path / "a.json").read_bytes(), (tmp_path / "b.json").read_bytes()]
    ok = traces[0] == traces[1] and models[0] == models[1]
    report(8, ok, f"two runs: trace CSVs byte-identical ({len(traces[0])} bytes), "
                  f"model JSONs byte-identical")
