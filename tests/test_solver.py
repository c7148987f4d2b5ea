import os
import signal
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import SHAPES, set_fista, shaped_operator
from oracles import dual_norm
from polyfactor import solver
from polyfactor.data import make_dataset
from polyfactor.losses import loss_values
from polyfactor.models import MODEL_KINDS, accuracy, save_model
from polyfactor.penalties import PENALTIES
from polyfactor.refit import penalized_objective
from polyfactor.solver import (
    REFITS,
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


class TestTraceObjective:
    """Each trace objective after t = 0 is the last refit's final value."""

    @staticmethod
    def spied_fit(monkeypatch, ds, cfg):
        """fit(ds, cfg); per iteration, the last refit's trace, whether prune
        dropped a row and the model; and what penalized_objective returned."""
        refits, pruned, objective_calls = [], [], []

        def spy(name, record):
            real = getattr(solver, name)

            def wrapped(*args):
                out = real(*args)
                record(args, out)
                return out

            monkeypatch.setattr(solver, name, wrapped)

        spy("refit_output", lambda args, out: refits.append(out[1]))
        spy("refit_full", lambda args, out: refits.append(out[1]))
        spy("prune", lambda args, out: pruned.append((refits[-1], out.k < args[0].k)))
        spy("penalized_objective", lambda args, out: objective_calls.append(out))
        models = []
        _, trace = fit(ds, cfg, iteration_hook=lambda t, m: models.append(m))
        assert len(pruned) == len(models) == len(trace) - 1
        return trace, [p + (m,) for p, m in zip(pruned, models)], objective_calls

    @pytest.mark.parametrize("refit", REFITS)
    def test_penalized_objective_runs_once_per_fit(self, refit, monkeypatch):
        ds = make_multiclass(40, 5, 3, seed=2)
        trace, _, calls = self.spied_fit(
            monkeypatch, ds, small_config(penalty="l1l2", lam=0.02, k_max=4, refit=refit))
        assert len(trace) > 2
        assert calls == [trace[0].objective]

    @pytest.mark.parametrize("refit", REFITS)
    @pytest.mark.parametrize("penalty", PENALTIES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_objective_is_the_last_refit_value(self, kind, penalty, refit, monkeypatch):
        ds = make_multiclass(40, 5, 3, seed=7)
        trace, iterations, _ = self.spied_fit(
            monkeypatch, ds, small_config(model=kind, penalty=penalty, lam=0.02, k_max=4,
                                          refit=refit))
        assert len(trace) > 1
        for record, (refit_trace, dropped, model) in zip(trace[1:], iterations):
            assert record.objective == refit_trace[-1]
            if not dropped:
                assert record.objective == penalized_objective(model, ds)


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


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n} workers")
def workers(request, monkeypatch):
    # the CPU set fit_path sees: one CPU runs inline, more fork children
    monkeypatch.setattr(solver, "_usable_cpus", lambda: request.param)
    return request.param


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

    def test_reproducible_selection(self, workers):
        tr, va = self.two_way(120, 14)
        cfg = small_config(penalty="l1l2", k_max=4, seed=21)
        a = fit_path(tr, va, cfg, lam_grid=(0.1, 0.01))
        b = fit_path(tr, va, cfg, lam_grid=(0.1, 0.01))
        assert a[1] == b[1]
        assert np.array_equal(a[0].H, b[0].H)

    def test_path_matches_separate_fits(self, workers):
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

    @pytest.mark.parametrize("higher_is_better", [True, False])
    def test_report_and_model_bit_equal_to_one_process(self, workers, higher_is_better,
                                                       monkeypatch, tmp_path):
        # the forked path reports, picks and saves exactly what the inline
        # path does; the metric picks a late iteration on the lower side
        tr, va = self.two_way(160, 20)
        cfg = small_config(penalty="l1", k_max=4, refit="full")
        grid = (0.5, 0.2, 0.1, 0.05, 0.02)
        kw = dict(lam_grid=grid, higher_is_better=higher_is_better,
                  metric_fn=None if higher_is_better else lambda m, ds: float(m.k))
        model, report = fit_path(tr, va, cfg, **kw)
        save_model(model, tmp_path / "forked.json")
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 1)
        model_1, report_1 = fit_path(tr, va, cfg, **kw)
        save_model(model_1, tmp_path / "inline.json")
        assert report == report_1
        assert (tmp_path / "forked.json").read_bytes() == (tmp_path / "inline.json").read_bytes()
        assert model.H.tobytes() == model_1.H.tobytes()
        assert model.V.tobytes() == model_1.V.tobytes()

    def test_nan_metric_ranks_below_every_number(self, workers):
        # a nan at every first iteration neither wins nor blocks a later number
        tr, va = self.two_way(120, 22)
        cfg = small_config(penalty="l1l2", k_max=3)

        def metric(model, ds):
            return np.nan if model.k == 1 else accuracy(model, ds)

        _, report = fit_path(tr, va, cfg, lam_grid=(0.1, 0.03, 0.01), metric_fn=metric)
        finite = [e["metric"] for entry in report["per_lambda"] for e in entry["iterations"]
                  if not np.isnan(e["metric"])]
        assert finite and report["best"]["metric"] == max(finite)

    @pytest.mark.parametrize("cpus, grid", [(1, (0.3, 0.1, 0.03)), (4, (0.1,))],
                             ids=["one CPU", "one lambda"])
    def test_one_cpu_or_one_lambda_never_forks(self, cpus, grid, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        tr, va = self.two_way(80, 24)
        monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", no_fork)
        _, report = fit_path(tr, va, small_config(k_max=2), lam_grid=grid)
        assert len(report["per_lambda"]) == len(grid)

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_cpu_where_the_platform_cannot_tell_or_fork(self, missing, monkeypatch):
        monkeypatch.delattr(os, missing)
        assert solver._usable_cpus() == 1

    @pytest.mark.parametrize("failing", [(1, 3), (2, 3), (0, 1), (0, 1, 2, 3)])
    def test_earliest_failing_lambda_raises_its_exception(self, workers, failing,
                                                          monkeypatch):
        tr, va = self.two_way(80, 26)
        grid = (0.4, 0.2, 0.1, 0.05)
        real = solver.fit

        def fit_or_fail(ds, cfg, iteration_hook=None):
            if cfg.lam in [grid[i] for i in failing]:
                raise FloatingPointError(f"weight {cfg.lam} failed")
            return real(ds, cfg, iteration_hook=iteration_hook)

        monkeypatch.setattr(solver, "fit", fit_or_fail)
        with pytest.raises(FloatingPointError) as caught:
            fit_path(tr, va, small_config(k_max=2), lam_grid=grid)
        assert type(caught.value) is FloatingPointError
        assert str(caught.value) == f"weight {grid[failing[0]]} failed"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped

    def test_warnings_are_emitted_again_in_grid_order(self, workers, monkeypatch):
        tr, va = self.two_way(80, 28)
        grid = (0.4, 0.2, 0.1, 0.05, 0.02)
        real = solver.fit

        def fit_and_warn(ds, cfg, iteration_hook=None):
            warnings.warn(f"weight {cfg.lam}")
            return real(ds, cfg, iteration_hook=iteration_hook)

        monkeypatch.setattr(solver, "fit", fit_and_warn)
        with pytest.warns(UserWarning) as caught:
            fit_path(tr, va, small_config(k_max=2), lam_grid=grid)
        assert [str(w.message) for w in caught] == [f"weight {lam}" for lam in grid]

    def test_zero_gradient_warning_comes_back_from_every_lambda(self, workers):
        # fit's own warning comes back from every process; no model is produced
        ds = make_dataset(np.zeros((8, 4)), np.array([1, 2] * 4), 2)
        grid = (0.3, 0.1, 0.03)
        with pytest.warns(UserWarning, match="zero gradient") as caught, \
                pytest.raises(ConfigError, match="no model"):
            fit_path(ds, ds, small_config(k_max=2), lam_grid=grid)
        assert len(caught) == len(grid)


    def test_increasing_grid_rejected(self, rng):
        tr, va = self.two_way(40, 16)
        with pytest.raises(ConfigError, match="decreasing"):
            fit_path(tr, va, small_config(), lam_grid=(0.01, 0.1))


class TestPathWorkers:
    """The forked children of fit_path: they end in os._exit, a child that
    dies is reported, and none outlives the path."""

    @staticmethod
    def split_fit(monkeypatch, in_child, here=lambda: None):
        # fit runs ``in_child`` first in every forked child, ``here`` first
        # in this process
        parent, real = os.getpid(), solver.fit

        def fit_after(ds, cfg, iteration_hook=None):
            (here if os.getpid() == parent else in_child)()
            return real(ds, cfg, iteration_hook=iteration_hook)

        monkeypatch.setattr(solver, "fit", fit_after)

    @pytest.fixture
    def path_args(self, monkeypatch):
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 3)
        tr, va = TestFitPath.two_way(80, 30)
        return tr, va, small_config(k_max=2), (0.4, 0.2, 0.1, 0.05)

    @pytest.mark.parametrize("death, status", [
        (lambda: os._exit(7), 7),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
        (lambda: sys.exit(3), 1)],   # a BaseException ends the child in os._exit(1)
        ids=["exit 7", "SIGKILL", "SystemExit"])
    def test_child_dying_without_result_is_a_runtime_error(self, death, status,
                                                           path_args, monkeypatch):
        self.split_fit(monkeypatch, death)
        with pytest.raises(RuntimeError, match=f"exited with status {status} and no result"):
            fit_path(*path_args[:3], lam_grid=path_args[3])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_child_gets_its_stalled_sibling_killed(self, path_args, monkeypatch):
        # the first forked child fits 0.05 and exits; the second fits 0.1 and
        # stalls; this process fits 0.4 and 0.2
        assert solver._shares(4, 3) == [[3], [2], [0, 1]]
        real = solver.fit

        def fit_after(ds, cfg, iteration_hook=None):
            if cfg.lam == 0.05:
                os._exit(7)
            if cfg.lam == 0.1:
                time.sleep(30)
            return real(ds, cfg, iteration_hook=iteration_hook)

        monkeypatch.setattr(solver, "fit", fit_after)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with status 7 and no result"):
            fit_path(*path_args[:3], lam_grid=path_args[3])
        assert time.monotonic() - start < 20  # the stalled child was killed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_never_flush_inherited_buffers(self, path_args, tmp_path):
        log = tmp_path / "log.txt"
        with open(log, "w", encoding="utf-8") as fh:
            fh.write("written once")  # still in this process's buffer at each fork
            fit_path(*path_args[:3], lam_grid=path_args[3])
        assert log.read_text(encoding="utf-8") == "written once"

    def test_failing_parent_kills_and_reaps_its_children(self, path_args, monkeypatch):
        class Interrupted(BaseException):
            pass

        def interrupt():
            raise Interrupted

        self.split_fit(monkeypatch, lambda: time.sleep(30), here=interrupt)
        start = time.monotonic()
        with pytest.raises(Interrupted):
            fit_path(*path_args[:3], lam_grid=path_args[3])
        assert time.monotonic() - start < 20  # the stalled children were killed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
            SolverConfig(seed=-1)
