import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import SHAPES, set_fista, shaped_operator
from polyfactor import solver
from polyfactor.data import make_dataset
from polyfactor.losses import loss_values
from polyfactor.models import MODEL_KINDS, accuracy
from polyfactor.penalties import PENALTIES, dual_norm
from polyfactor.solver import (
    ConfigError,
    SolverConfig,
    fit,
    fit_path,
    lambda_max,
    support_check,
)
from polyfactor.synth import make_multiclass


def xor_dataset():
    # degree-2 realizable with the bias feature prepended
    X = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [1.0, 1.0, 1.0],
    ])
    y = np.array([1, 2, 2, 1])
    return make_dataset(X, y, 2, bias_augmented=True)


@pytest.fixture(autouse=True)
def small_fista(monkeypatch):
    # a shorter, tighter refit than the package's 1000 iterations at 1e-3
    set_fista(monkeypatch, 500, 1e-6)


def small_config(**kw):
    base = dict(model="pn", loss="logistic", penalty="l1", lam=1e-3, k_max=6,
                refit="output", seed=0)
    base.update(kw)
    return SolverConfig(**base)


class TestFit:
    def test_xor_toy_reaches_perfect_training_accuracy(self):
        ds = xor_dataset()
        model, trace = fit(ds, small_config(k_max=4))
        assert accuracy(model, ds) == 1.0
        assert model.k <= 4

    def test_huge_lambda_gives_empty_model(self, rng):
        ds = make_multiclass(30, 5, 3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a nonzero score stops the fit silently
            model, trace = fit(ds, small_config(lam=1e9, k_max=3))
        assert model.k == 0 and len(trace) == 1
        base = float(loss_values("logistic", ds.y, np.zeros((ds.n, 3))).sum())
        assert trace[-1].objective == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("penalty", ["l1", "l1l2", "l1linf"])
    def test_certificate_stops_at_first_selection(self, penalty):
        # lambda above the first selection score: the new row would stay at
        # zero, so fit stops at once instead of re-selecting it k_max times
        ds = make_multiclass(40, 5, 3, seed=1)
        _, first = fit(ds, small_config(penalty=penalty, lam=1e-6, k_max=1))
        lam = 1.5 * first[1].score
        seen = []
        model, trace = fit(ds, small_config(penalty=penalty, lam=lam, k_max=10),
                           iteration_hook=lambda t, m: seen.append(t))
        assert model.k == 0
        assert seen == [] and trace[-1].t == 0

    def test_trace_objective_non_increasing(self, rng):
        ds = make_multiclass(60, 6, 4, seed=2)
        for penalty in ("l1", "l1l2", "l1linf"):
            _, trace = fit(ds, small_config(penalty=penalty, lam=0.05))
            objs = [r.objective for r in trace]
            assert all(b <= a + 1e-10 * max(abs(a), 1.0) for a, b in zip(objs, objs[1:]))

    def test_full_refit_descends_too(self, rng):
        ds = make_multiclass(40, 5, 3, seed=3)
        _, trace = fit(ds, small_config(refit="full", penalty="l1l2", lam=0.05))
        objs = [r.objective for r in trace]
        assert all(b <= a + 1e-10 * max(abs(a), 1.0) for a, b in zip(objs, objs[1:]))

    def test_deterministic_given_seed(self, rng):
        ds = make_multiclass(50, 6, 3, seed=4)
        cfg = small_config(penalty="l1l2", lam=0.02, seed=11)
        model_a, trace_a = fit(ds, cfg)
        model_b, trace_b = fit(ds, cfg)
        assert np.array_equal(model_a.H, model_b.H)
        assert np.array_equal(model_a.V, model_b.V)
        assert [(r.t, r.objective, r.score, r.k) for r in trace_a] == \
               [(r.t, r.objective, r.score, r.k) for r in trace_b]

    def test_empty_dataset_rejected(self):
        ds = make_dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ConfigError):
            fit(ds, small_config())

    def test_model_rows_feasible_and_k_bounded(self, rng):
        ds = make_multiclass(60, 6, 4, seed=5)
        cfg = small_config(penalty="l1linf", lam=0.05, k_max=5)
        model, trace = fit(ds, cfg)
        assert model.k <= 5
        assert np.all(np.linalg.norm(model.H, axis=1) <= 1.0 + 1e-9)

    def test_hook_sees_every_iteration(self, rng):
        ds = make_multiclass(40, 5, 3, seed=6)
        seen = []
        fit(ds, small_config(k_max=4, lam=0.02), iteration_hook=lambda t, m: seen.append((t, m.k)))
        assert [t for t, _ in seen] == list(range(1, len(seen) + 1))

    def test_duplicate_atom_adds_no_row_and_stops_without_progress(self, monkeypatch):
        # from t = 2 on, selection returns the row already in the basis
        set_fista(monkeypatch, 5000, 1e-14)  # t = 1 refits to convergence
        real = solver._select
        first = []

        def select(op, cfg):
            if not first:
                first.append(real(op, cfg))
            return first[0]

        monkeypatch.setattr(solver, "_select", select)
        ds = make_multiclass(40, 5, 3, seed=1)
        seen = []
        model, trace = fit(ds, small_config(lam=0.02, k_max=6),
                           iteration_hook=lambda t, m: seen.append(m.k))
        assert seen == [1, 1]
        assert np.array_equal(model.H, first[0].h[None, :])
        assert trace[-1].t == 2
        assert trace[2].objective >= trace[1].objective - 1e-12 * abs(trace[1].objective)

    def test_degenerate_first_selection_returns_empty_model(self):
        # an all-zero design matrix makes every gradient operator vanish: each
        # route scores 0.0 and the one stop test ends the fit at t = 1 with a
        # warning, the empty model and a one-record trace
        ds = make_dataset(np.zeros((6, 4)), np.array([1, 2, 1, 2, 1, 2]), 2)
        for penalty in PENALTIES:
            with pytest.warns(UserWarning, match="zero gradient"):
                model, trace = fit(ds, small_config(penalty=penalty, k_max=3))
            assert model.k == 0 and model.H.shape == (0, 4) and model.V.shape == (0, 2)
            assert len(trace) == 1 and trace[-1].t == 0


class TestStopCertificate:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape[-1])
    @pytest.mark.parametrize("penalty", PENALTIES)
    def test_score_is_dual_norm_of_g_h(self, penalty, shape, kind):
        # fit stops on score <= lam: the new row stays at zero exactly when
        # the penalty's dual norm of g_h = -quad_values is at most lam
        for seed in range(4):
            op = shaped_operator(np.random.default_rng(seed), shape, kind)
            sel = solver._select(op, SolverConfig(model=kind, penalty=penalty, seed=seed))
            np.testing.assert_allclose(sel.quad_values, op.quad_values(sel.h),
                                       rtol=1e-10, atol=1e-12)
            assert sel.score == pytest.approx(dual_norm(penalty, -sel.quad_values[None]),
                                              rel=1e-12)


class TestLambdaMax:
    @pytest.mark.parametrize("penalty", ["l1", "l1l2", "l1linf"])
    def test_empty_model_above_atom_below(self, penalty):
        ds = make_multiclass(60, 6, 4, seed=3)
        cfg = small_config(penalty=penalty, k_max=3)
        top = lambda_max(ds, cfg)
        assert top > 0.0
        above, trace = fit(ds, replace(cfg, lam=top * (1 + 1e-9)))
        assert above.k == 0 and trace[-1].t == 0
        _, trace = fit(ds, replace(cfg, lam=0.5 * top))
        assert trace[1].k >= 1

    def test_is_the_first_selection_score(self):
        ds = make_multiclass(60, 6, 4, seed=3)
        for penalty in ("l1", "l1l2", "l1linf"):
            cfg = small_config(penalty=penalty, lam=1e-6, k_max=1)
            _, trace = fit(ds, cfg)
            assert lambda_max(ds, cfg) == trace[1].score

    def test_zero_gradient(self):
        ds = make_dataset(np.zeros((6, 4)), np.array([1, 2, 1, 2, 1, 2]), 2)
        assert lambda_max(ds, small_config()) == 0.0


class TestSupportCheck:
    def test_k_bounded_by_iterations(self, rng):
        ds = make_multiclass(40, 5, 3, seed=7)
        model, trace = fit(ds, small_config(k_max=5, lam=0.02))
        report = support_check(model, ds, iterations=trace[-1].t)
        assert report["k"] <= report["iterations"]

    def test_l1_bound_uses_feature_count(self, rng):
        ds = make_multiclass(40, 5, 3, seed=8)
        model, _ = fit(ds, small_config(k_max=3, lam=0.02))
        report = support_check(model, ds, iterations=10)
        assert report["support_bound"] == min(ds.n * model.m + 1, ds.d * model.m)
        assert report["within_bound"]

    def test_violation_is_hard_error(self, rng):
        ds = make_multiclass(20, 4, 2, seed=9)
        model, _ = fit(ds, small_config(k_max=3, lam=0.02))
        if model.k > 0:
            with pytest.raises(RuntimeError):
                support_check(model, ds, iterations=model.k - 1)


class TestFitPath:
    @staticmethod
    def two_way(n, seed):
        from polyfactor.data import SplitSpec, split

        ds = make_multiclass(n, 6, 3, seed=seed)
        tr, va, _ = split(ds, SplitSpec(seed=seed))
        return tr, va

    def test_single_lambda_equals_fit_plus_argmax(self, rng):
        tr, va = self.two_way(160, 10)
        cfg = small_config(penalty="l1l2", lam=0.05, k_max=5)
        best, report = fit_path(tr, va, cfg, lam_grid=(cfg.lam,))
        snaps = []
        fit(tr, cfg, iteration_hook=lambda t, m: snaps.append((t, accuracy(m, va))))
        by_hand = max(snaps, key=lambda s: s[1])
        assert report["best"]["metric"] == pytest.approx(by_hand[1])
        assert report["best"]["t"] == min(t for t, a in snaps if a == by_hand[1])

    def test_dominating_lambda_selected(self, rng):
        tr, va = self.two_way(160, 12)
        cfg = small_config(penalty="l1l2", k_max=4)
        # a grid value so large it zeroes the model cannot win
        _, report = fit_path(tr, va, cfg, lam_grid=(1e9, 1e-4))
        assert report["best"]["lambda"] == 1e-4

    def test_reproducible_selection(self, rng):
        tr, va = self.two_way(120, 14)
        cfg = small_config(penalty="l1l2", k_max=4, seed=21)
        a = fit_path(tr, va, cfg, lam_grid=(0.1, 0.01))
        b = fit_path(tr, va, cfg, lam_grid=(0.1, 0.01))
        assert a[1] == b[1]
        assert np.array_equal(a[0].H, b[0].H)

    def test_path_matches_separate_fits(self):
        tr, va = self.two_way(160, 18)
        cfg = small_config(penalty="l1l2", k_max=3)
        grid = (0.3, 0.1, 0.03)
        per_lambda = []
        for lam in grid:
            snaps = []
            fit(tr, replace(cfg, lam=lam),
                iteration_hook=lambda t, m: snaps.append(
                    {"t": t, "k": m.k, "metric": accuracy(m, va)}))
            per_lambda.append(snaps)
        _, report = fit_path(tr, va, cfg, lam_grid=grid)
        # each lambda of the path takes the same route as a separate fit
        assert [entry["iterations"] for entry in report["per_lambda"]] == per_lambda

    def test_increasing_grid_rejected(self, rng):
        tr, va = self.two_way(40, 16)
        with pytest.raises(ConfigError, match="decreasing"):
            fit_path(tr, va, small_config(), lam_grid=(0.01, 0.1))


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(model="mlp")
        with pytest.raises(ConfigError):
            SolverConfig(loss="hinge-hinge")
        with pytest.raises(ConfigError):
            SolverConfig(penalty="l0")
        with pytest.raises(ConfigError):
            SolverConfig(k_max=0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=float("nan"))
        with pytest.raises(ConfigError):
            SolverConfig(refit="alternating")
