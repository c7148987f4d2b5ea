import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import set_fista
from oracles import ndcg_loop
from polyfactor.data import DataError, make_dataset
from polyfactor.mcrank import (
    RankingGroups,
    build_ordinal,
    evaluate_ranking,
    expected_relevance,
    ndcg_at,
    rmse,
    threshold_probabilities,
)
from polyfactor.models import Model
from polyfactor.solver import SolverConfig, fit
from polyfactor.synth import make_ratings


def ratings_dataset(rng, n=60, d=6, m=5):
    X = rng.standard_normal((n, d))
    y = rng.integers(1, m + 1, size=n)
    return make_dataset(X, y, m)


class TestBuildOrdinal:
    def test_middle_rating(self, rng):
        X = rng.standard_normal((4, 3))
        ds = make_dataset(X, np.full(4, 3), 5)
        out = build_ordinal(ds)
        assert out.Y[0].tolist() == [-1.0, -1.0, 1.0, 1.0, 1.0]

    def test_boundary_ratings(self, rng):
        X = rng.standard_normal((2, 3))
        ds = make_dataset(X, np.array([1, 5]), 5)
        Y = build_ordinal(ds).Y
        assert Y[0].tolist() == [1.0] * 5
        assert Y[1].tolist() == [-1.0] * 4 + [1.0]

    @pytest.mark.parametrize("ratings", [[0, 2], [2, 6]], ids=["below 1", "above m"])
    def test_ratings_outside_the_levels_refused(self, ratings):
        # make_dataset checks the 1..m labels with a sign matrix given too,
        # so build_ordinal never sees a rating outside the levels
        with pytest.raises(DataError, match=r"labels must lie in 1\.\.5"):
            make_dataset(np.ones((2, 2)), np.array(ratings), 5, Y=np.ones((2, 5)))

    @given(ratings=st.lists(st.integers(1, 5), min_size=1, max_size=30))
    def test_rows_are_monotone_steps_ending_positive(self, ratings):
        n = len(ratings)
        X = np.arange(n * 2, dtype=np.float64).reshape(n, 2) + 1.0
        ds = make_dataset(X, np.asarray(ratings), 5)
        Y = build_ordinal(ds).Y
        assert np.all(Y[:, -1] == 1.0)
        assert np.all(np.diff(Y, axis=1) >= 0.0)


class TestExpectedRelevance:
    def test_uniform_distribution_mean(self):
        # p(y<=c) = c/m gives the uniform mean (m+1)/2
        m = 5
        P = np.arange(1, m + 1) / m
        masses = np.diff(P, prepend=0.0)
        got = float(masses @ np.arange(1, m + 1))
        assert got == pytest.approx((m + 1) / 2)

    def test_point_mass_scores_its_level(self, rng):
        # a single unit model driving a hard step at level r scores ~r
        m, r, d = 5, 3, 4
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        x = 2.0 * h  # (h^T x)^2 = 4 > 0 activation
        V = np.full((1, m), -50.0)
        V[0, r - 1:] = 50.0
        model = Model("pn", h[None, :], V, "binary-logistic", "l1linf", 0.1)
        assert expected_relevance(model, x[None, :])[0] == pytest.approx(r, abs=1e-6)

    def test_levels_read_through_label_map(self, rng):
        # the expected rating is in the model's label units, 1..m without a map
        m, r, d = 4, 3, 4
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        V = np.full((1, m), -50.0)
        V[0, r - 1:] = 50.0
        model = Model("pn", h[None, :], V, "binary-logistic", "l1linf", 0.1,
                      label_map=(-2.0, 0.5, 7.0, 9.0))
        x = 2.0 * h[None, :]
        assert expected_relevance(model, x)[0] == pytest.approx(7.0, abs=1e-6)
        X = rng.standard_normal((20, d))
        masses = np.diff(threshold_probabilities(model, X), axis=1, prepend=0.0)
        assert np.array_equal(expected_relevance(model, X), masses @ [-2.0, 0.5, 7.0, 9.0])

    @pytest.mark.parametrize("mode", ["warn", "raise"])
    def test_outputs_past_exp_overflow(self, mode):
        # an output of -900 overflows exp(-o): p = 0.0, with no warning
        h = np.array([1.0, 0.0])
        V = np.array([[-900.0, 900.0, -900.0]])
        model = Model("pn", h[None, :], V, "binary-logistic", "l1linf", 0.1)
        with np.errstate(over=mode):
            P = threshold_probabilities(model, h[None, :])
            scores = expected_relevance(model, h[None, :])
        assert P.tolist() == [[0.0, 1.0, 1.0]]
        assert scores.tolist() == [2.0]

    def test_last_level_clamped_for_empty_model(self, rng):
        model = Model("fm", np.zeros((0, 4)), np.zeros((0, 5)),
                      "binary-logistic", "l1linf", 0.1)
        P = threshold_probabilities(model, rng.standard_normal((1, 4)))
        assert P[0, -1] == 1.0

    def test_matches_direct_expectation_after_monotonization(self, rng):
        # telescoping sum equals sum_c c * p(y = c) with the same masses
        for _ in range(30):
            m = 5
            O = 3.0 * rng.standard_normal((1, m))
            P = 1.0 / (1.0 + np.exp(-O))
            P = np.maximum.accumulate(P, axis=1)
            P[:, -1] = 1.0
            masses = np.diff(P, axis=1, prepend=0.0)
            direct = float((masses * np.arange(1, m + 1)).sum())
            telescoped = float(sum(c * (P[0, c - 1] - (P[0, c - 2] if c > 1 else 0.0))
                                   for c in range(1, m + 1)))
            assert direct == pytest.approx(telescoped, abs=1e-12)

    def test_model_path_stays_in_range(self, rng):
        k, d, m = 3, 6, 5
        H = rng.standard_normal((k, d))
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        model = Model("fm", H, 2.0 * rng.standard_normal((k, m)),
                      "binary-logistic", "l1linf", 0.1)
        X = rng.standard_normal((50, d))
        scores = expected_relevance(model, X)
        assert np.all(scores >= 1.0 - 1e-12)
        assert np.all(scores <= m + 1e-12)


class TestMetrics:
    def test_perfect_predictions(self):
        groups = RankingGroups.from_ids([0, 0, 1, 1], [3, 1, 2, 5])
        preds = np.array([3.0, 1.0, 2.0, 5.0])
        assert rmse(preds, [3, 1, 2, 5]) == 0.0
        assert ndcg_at(groups, preds, 1) == 1.0
        assert ndcg_at(groups, preds, 5) == 1.0

    def test_reversed_pair_at_one(self):
        groups = RankingGroups.from_ids([0, 0], [3, 1])
        assert ndcg_at(groups, np.array([0.0, 1.0]), 1) == pytest.approx(1.0 / 7.0)

    def test_tie_breaks_by_sample_index(self):
        groups = RankingGroups.from_ids([0, 0], [1, 3])
        # constant predictions rank sample 0 (rating 1) first
        got = ndcg_at(groups, np.array([2.0, 2.0]), 1)
        assert got == pytest.approx(1.0 / 7.0)

    def test_ndcg_matches_bruteforce_permutations(self, rng):
        from itertools import permutations

        ratings = np.array([2, 5, 1, 3])
        groups = RankingGroups.from_ids([0] * 4, ratings)
        for _ in range(10):
            preds = rng.standard_normal(4)
            got = ndcg_at(groups, preds, 2)
            order = np.argsort(-preds, kind="stable")

            def dcg(seq):
                seq = np.asarray(seq, dtype=float)[:2]
                return ((2.0 ** seq - 1) / np.log2(np.arange(2, seq.size + 2))).sum()

            best = max(dcg(list(p)) for p in permutations(ratings))
            assert got == pytest.approx(dcg(ratings[order]) / best)

    def test_ndcg_matches_per_group_loop(self, rng):
        # 6,000 rows in groups of 1-40 with tied predictions and some groups
        # of zero ideal gain (all ratings 0). The vectorised sum adds each
        # group's gains in rank order, as numpy sums fewer than 8 terms; from
        # 8 terms on numpy's pairwise sum may reorder them
        n = 6000
        ids = rng.integers(0, 300, size=n) * 7
        ratings = rng.integers(0, 6, size=n).astype(np.float64)
        ratings[np.isin(ids, ids[:40])] = 0.0
        preds = rng.integers(0, 4, size=n).astype(np.float64)
        groups = RankingGroups.from_ids(ids, ratings)
        for k in (1, 5):
            assert ndcg_at(groups, preds, k) == ndcg_loop(groups, preds, k)
        assert abs(ndcg_at(groups, preds, 10) - ndcg_loop(groups, preds, 10)) <= 1e-15
        # groups of 1-7 rows (so every loop sum has fewer than 8 terms) with
        # singletons, tied predictions and zero-gain groups, shuffled: equal
        # bit for bit at every cutoff up to the largest group + 1 and at 2**62
        for _ in range(20):
            sizes = rng.integers(1, 8, size=int(rng.integers(1, 80)))
            ids = np.repeat(rng.permutation(sizes.size) * 3, sizes)
            ratings = rng.integers(0, 6, size=ids.size).astype(np.float64)
            ratings[np.isin(ids, ids[rng.random(ids.size) < 0.1])] = 0.0
            ratings[0] = 5.0  # at least one group with gain
            perm = rng.permutation(ids.size)
            groups = RankingGroups.from_ids(ids[perm], ratings[perm])
            preds = rng.integers(0, 3, size=ids.size).astype(np.float64)
            for k in [*range(1, int(sizes.max()) + 2), 2**62]:
                assert ndcg_at(groups, preds, k) == ndcg_loop(groups, preds, k), k
        single = RankingGroups.from_ids([4, 4], [0.0, 0.0])
        for fn in (ndcg_at, ndcg_loop):
            with pytest.raises(ValueError, match="zero ideal gain"):
                fn(single, np.zeros(2), 1)
            with pytest.raises(ValueError, match="empty ranking group"):
                fn(RankingGroups(order=np.zeros(0, dtype=np.int64), sizes=np.array([0]),
                                 ratings=np.zeros(0)), np.zeros(1), 1)

    def test_ndcg_bounds(self, rng):
        for _ in range(20):
            ids = rng.integers(0, 4, size=30)
            ratings = rng.integers(1, 6, size=30)
            groups = RankingGroups.from_ids(ids, ratings)
            v = ndcg_at(groups, rng.standard_normal(30), 5)
            assert 0.0 <= v <= 1.0

    def test_ndcg_cutoff_beyond_every_group_reads_the_largest_group(self, rng):
        # no rank past the largest group is read, so no discount is built for it
        ids = rng.integers(0, 20, size=500)
        groups = RankingGroups.from_ids(ids, rng.integers(1, 6, size=500))
        preds = rng.standard_normal(500)
        largest = int(groups.sizes.max())
        assert ndcg_at(groups, preds, 2**62) == ndcg_at(groups, preds, largest)

    def test_groups_match_bruteforce(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 60))
            ids = rng.integers(-5, 6, size=n) * 1000  # unsorted, negative, sparse ids
            ratings = rng.integers(1, 6, size=n)
            groups = RankingGroups.from_ids(ids, ratings)
            expected = [np.flatnonzero(ids == gid) for gid in sorted(set(ids.tolist()))]
            assert groups.sizes.tolist() == [want.size for want in expected]
            want = np.concatenate([np.zeros(0, dtype=np.int64), *expected])
            assert np.array_equal(groups.order, want)
            assert np.array_equal(groups.ratings, ratings[want])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError, match="at least one ranking group"):
            ndcg_at(RankingGroups.from_ids([], []), np.zeros(3), 1)

    def test_truth_is_the_label_value(self, rng):
        # rmse and the nDCG gains read label_map[y - 1], not the class index y
        label_map = (1.0, 2.5, 4.0)
        y = np.array([1, 3, 2, 3, 1, 2])
        ds = make_dataset(rng.standard_normal((6, 2)), y, 3, label_map=label_map,
                          group_ids=np.array([0, 0, 0, 1, 1, 1]))
        H = np.array([[0.6, 0.8]])
        model = Model("pn", H, np.array([[1.5]]), "squared", "l1", 0.1, label_map=label_map)
        preds = 1.5 * (ds.X @ H[0]) ** 2
        truth = np.asarray(label_map)[y - 1]
        report = evaluate_ranking(model, ds, ks=(1, 2))
        assert report["rmse"] == rmse(preds, truth)
        groups = RankingGroups.from_ids(ds.group_ids, truth)
        assert report["ndcg@2"] == ndcg_at(groups, preds, 2)
        assert report["ndcg@2"] != ndcg_at(RankingGroups.from_ids(ds.group_ids, y), preds, 2)

    def test_cutoffs_need_ranking_groups(self):
        model = Model("pn", np.zeros((0, 2)), np.zeros((0, 1)), "squared", "l1", 0.1)
        ds = make_dataset(np.ones((2, 2)), [1, 2], 2)
        with pytest.raises(ValueError, match="no ranking groups"):
            evaluate_ranking(model, ds, ks=(1,))
        assert set(evaluate_ranking(model, ds, ks=())) == {"rmse"}

    def test_multiclass_model_not_ranked(self):
        # a multi-class model's outputs are class scores, not ratings
        model = Model(kind="pn", H=np.zeros((0, 2)), V=np.zeros((0, 3)),
                      loss="logistic", penalty="l1", lam=1.0)
        ds = make_dataset(np.ones((2, 2)), [1, 2], 3, group_ids=np.array([0, 0]))
        with pytest.raises(ValueError, match="classes, not ratings"):
            evaluate_ranking(model, ds)


class TestFitMcrank:
    """The ordinal reduction trains as ``fit(build_ordinal(ds), cfg)``."""

    def test_build_ordinal_is_idempotent(self, rng, monkeypatch):
        # ratings, or ratings with the thresholds already attached: one model
        ds = ratings_dataset(rng, n=40, d=5, m=4)
        set_fista(monkeypatch, 100, 1e-4)
        cfg = SolverConfig(model="fm", loss="binary-logistic", penalty="l1linf",
                           lam=0.05, k_max=3, seed=0)
        a, trace_a = fit(build_ordinal(ds), cfg)
        b, trace_b = fit(build_ordinal(build_ordinal(ds)), cfg)
        assert a.k > 0
        assert np.array_equal(a.H, b.H) and np.array_equal(a.V, b.V)
        assert [r.objective for r in trace_a] == [r.objective for r in trace_b]

    def test_single_level_reduces_to_binary_classifier(self, rng, monkeypatch):
        # m=1: the threshold matrix is all +1 and training is plain binary
        X = rng.standard_normal((20, 4))
        ds = make_dataset(X, np.ones(20, dtype=np.int64), 1)
        set_fista(monkeypatch, 200, 1e-6)
        cfg = SolverConfig(model="fm", loss="binary-logistic", penalty="l1linf",
                           lam=0.1, k_max=2, seed=0)
        model, _ = fit(build_ordinal(ds), cfg)
        assert model.m == 1

    def test_constant_ratings_score_near_the_constant(self, rng, monkeypatch):
        users, items, _ = make_ratings(12, 15, 80, seed=3)
        ratings = np.full(users.size, 4)
        rows = np.arange(users.size)
        import scipy.sparse as sp

        X = sp.csr_matrix(
            (np.ones(2 * users.size),
             (np.repeat(rows, 2),
              np.concatenate([[u - 1, 11 + i] for u, i in zip(users, items)]))),
            shape=(users.size, 27))
        ds = make_dataset(X, ratings, 5, group_ids=users - 1)
        set_fista(monkeypatch, 500, 1e-8)
        cfg = SolverConfig(model="fm", loss="binary-logistic", penalty="l1linf",
                           lam=1e-3, k_max=8, seed=1)
        model, _ = fit(build_ordinal(ds), cfg)
        scores = expected_relevance(model, ds.X)
        assert np.all(np.abs(scores - 4.0) < 0.75)

    def test_evaluate_ranking_report_keys(self, rng, monkeypatch):
        users, items, ratings = make_ratings(10, 12, 70, seed=5)
        import scipy.sparse as sp

        rows = np.arange(users.size)
        X = sp.csr_matrix(
            (np.ones(2 * users.size),
             (np.repeat(rows, 2),
              np.concatenate([[u - 1, 9 + i] for u, i in zip(users, items)]))),
            shape=(users.size, 22))
        ds = make_dataset(X, ratings, int(ratings.max()), group_ids=users - 1)
        set_fista(monkeypatch, 300, 1e-6)
        cfg = SolverConfig(model="fm", loss="binary-logistic", penalty="l1linf",
                           lam=1e-2, k_max=4, seed=2)
        model, _ = fit(build_ordinal(ds), cfg)
        report = evaluate_ranking(model, ds)
        assert set(report) == {"rmse", "ndcg@1", "ndcg@5"}
        assert 0.0 <= report["ndcg@1"] <= 1.0
