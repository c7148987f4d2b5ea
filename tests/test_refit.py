from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import csr_twin, set_fista
from polyfactor import losses, refit
from polyfactor.data import load_movielens, make_dataset
from polyfactor.gradients import GradientOperator
from polyfactor.losses import loss_values
from polyfactor.mcrank import build_ordinal
from polyfactor.models import Model, hidden_activations, outputs
from polyfactor.penalties import penalty_value, project_unit_rows, prox
from polyfactor.refit import (
    _fista,
    penalized_objective,
    prune,
    refit_full,
    refit_output,
)
from polyfactor.solver import SolverConfig, fit
from polyfactor.synth import make_multiclass, make_ratings, write_movielens


@pytest.fixture(autouse=True)
def tight_fista(monkeypatch):
    # a tighter refit than the package's 1000 iterations at 1e-3
    set_fista(monkeypatch, 1000, 1e-7)


def make_problem(rng, kind="pn", n=25, d=6, m=3, k=4, loss="logistic",
                 penalty="l1l2", lam=0.05):
    X = rng.standard_normal((n, d))
    y = rng.integers(1, m + 1, size=n)
    ds = make_dataset(X, y, m)
    H = rng.standard_normal((k, d))
    H /= np.maximum(np.linalg.norm(H, axis=1, keepdims=True), 1.0)
    V = 0.3 * rng.standard_normal((k, m))
    model = Model(kind, H, V, loss, penalty, lam)
    return model, ds


def capture_fista(monkeypatch, refit_fn, model, ds):
    """Run ``refit_fn`` and return its result plus every ``_fista`` call's
    (x0, smooth, model, L0)."""
    calls = []
    real = refit._fista

    def spy(x0, smooth, model, L0=1.0):
        calls.append((x0, smooth, model, L0))
        return real(x0, smooth, model, L0=L0)

    monkeypatch.setattr(refit, "_fista", spy)
    return refit_fn(model, ds), calls


def reference_fista(x0, L0, smooth_value, smooth_grad, prox_step, nonsmooth_value, max_iter,
                    tol):
    """The monotone FISTA loop on one array with separate value, gradient,
    prox and penalty oracles, re-evaluating every point it needs (candidates
    twice, and the accepted point again as the next y). L starts at L0 and
    eases by 0.8 before each iteration; returns (x, trace, last L)."""
    x = np.array(x0)
    obj = smooth_value(x) + nonsmooth_value(x)
    trace = [obj]
    y = x
    t = 1.0
    L = L0
    for _ in range(max_iter):
        L = max(L * 0.8, 1e-10)
        restarted = False
        while True:
            fy = smooth_value(y)
            gy = smooth_grad(y)
            for _ in range(80):
                step = 1.0 / L
                cand = prox_step(y - step * gy, step)
                diff = cand - y
                bound = fy + np.vdot(gy, diff) + 0.5 * L * np.vdot(diff, diff)
                if smooth_value(cand) <= bound + 1e-12 * max(abs(fy), 1.0):
                    break
                L *= 2.0
            cand_obj = smooth_value(cand) + nonsmooth_value(cand)
            if cand_obj <= obj + 1e-12 * max(abs(obj), 1.0) or restarted:
                break
            y = x
            t = 1.0
            restarted = True
        if cand_obj > obj:
            cand, cand_obj = x, obj
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = cand + (t - 1.0) / t_next * (cand - x)
        x, t = cand, t_next
        stop = abs(trace[-1] - cand_obj) < tol * max(abs(cand_obj), 1.0)
        obj = cand_obj
        trace.append(obj)
        if stop:
            break
    return x, trace, L


class TestOneOracle:
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("penalty", ["l1", "l1l2", "l1linf"])
    @pytest.mark.parametrize("refit_fn", [refit_output, refit_full])
    def test_matches_reference_loop(self, refit_fn, penalty, kind, monkeypatch):
        for seed in (0, 1):  # both seeds restart in some of the cases
            model, ds = make_problem(np.random.default_rng(seed), kind=kind, penalty=penalty)
            set_fista(monkeypatch, 300, 1e-7)
            (refitted, trace, L), [(x0, smooth, seen, L0)] = capture_fista(
                monkeypatch, refit_fn, model, ds)
            assert seen is model

            m = model.m  # x is V, or [V, H] for the joint refit

            def prox_step(x, step):
                return np.hstack([prox(penalty, x[:, :m], model.lam * step),
                                  project_unit_rows(x[:, m:])])

            x, ref_trace, ref_L = reference_fista(
                x0, L0, lambda x: smooth(x)[0], lambda x: smooth(x)[1](), prox_step,
                lambda x: model.lam * penalty_value(penalty, x[:, :m]), 300, 1e-7)
            assert trace == ref_trace and L == ref_L
            assert np.array_equal(refitted.V, x[:, :m])
            assert np.array_equal(refitted.H, x[:, m:] if x.shape[1] > m else model.H)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_no_point_evaluated_twice(self, kind, monkeypatch):
        model, ds = make_problem(np.random.default_rng(3), kind=kind)
        real = refit._fista
        points = []  # every x passed to smooth, kept alive so ids stay unique

        def spy(x0, smooth, model, **kwargs):
            def counted(x):
                assert not any(x is p for p in points), "point evaluated twice"
                points.append(x)
                return smooth(x)
            return real(x0, counted, model, **kwargs)

        monkeypatch.setattr(refit, "_fista", spy)
        for refit_fn in (refit_output, refit_full):
            _, trace, _ = refit_fn(model, ds)
            assert len(trace) > 2
        assert len(points) > 10

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("refit_fn", [refit_output, refit_full])
    def test_no_point_evaluated_again_next(self, refit_fn, kind, monkeypatch):
        # a zero momentum weight (first step, after a restart) makes y the
        # accepted point itself, not an equal copy that is evaluated again
        model, ds = make_problem(np.random.default_rng(3), kind=kind)
        real = refit._fista
        points = []  # the bytes of every x passed to smooth, in call order

        def spy(x0, smooth, model, **kwargs):
            def recorded(x):
                points.append(x.tobytes())
                return smooth(x)
            return real(x0, recorded, model, **kwargs)

        monkeypatch.setattr(refit, "_fista", spy)
        _, trace, _ = refit_fn(model, ds)
        assert len(trace) > 2
        assert all(a != b for a, b in zip(points, points[1:]))

    @pytest.mark.parametrize("loss", ["logistic", "squared-hinge"])
    @pytest.mark.parametrize("refit_fn", [refit_output, refit_full])
    def test_one_loss_pass_per_point(self, refit_fn, loss, monkeypatch):
        # the gradient thunk reuses the value pass: one margin computation
        # per evaluated point, however many gradients FISTA asks for
        model, ds = make_problem(np.random.default_rng(3), loss=loss)
        real_fista, real_margins = refit._fista, losses._class_margins
        points, margins = [], []

        def spy(x0, smooth, model, **kwargs):
            def counted(x):
                points.append(x)
                return smooth(x)
            return real_fista(x0, counted, model, **kwargs)

        def counted_margins(*args):
            margins.append(args)
            return real_margins(*args)

        monkeypatch.setattr(refit, "_fista", spy)
        monkeypatch.setattr(losses, "_class_margins", counted_margins)
        _, trace, _ = refit_fn(model, ds)
        assert len(trace) > 2
        assert len(margins) == len(points)

    @pytest.mark.parametrize("loss", ["logistic", "squared-hinge"])
    @pytest.mark.parametrize("refit_fn", [refit_output, refit_full])
    def test_labels_indexed_once_per_refit(self, refit_fn, loss, monkeypatch):
        # each refit binds its labels' flat index once, however many passes
        model, ds = make_problem(np.random.default_rng(3), loss=loss)
        real_index, real_pass = losses._label_index, refit.loss_pass
        builds, passes = [], []
        monkeypatch.setattr(losses, "_label_index",
                            lambda *args: builds.append(1) or real_index(*args))
        monkeypatch.setattr(refit, "loss_pass", lambda *args: passes.append(1) or real_pass(*args))
        for calls in (1, 2):
            refit_fn(model, ds)
            assert len(builds) == calls
        assert len(passes) > 10


class TestOutputRefit:
    def test_objective_never_increases(self, rng):
        for seed in range(5):
            model, ds = make_problem(np.random.default_rng(seed))
            before = penalized_objective(model, ds)
            refitted, trace, _ = refit_output(model, ds)
            assert trace == sorted(trace, reverse=True) or \
                all(b - a >= -1e-9 * max(abs(a), 1.0) for a, b in zip(trace[1:], trace[:-1]))
            assert penalized_objective(refitted, ds) <= before + 1e-9

    def test_huge_lambda_kills_all_rows(self, rng):
        model, ds = make_problem(rng, lam=1e9)
        refitted, _, _ = refit_output(model, ds)
        assert np.all(refitted.V == 0.0)

    def test_matches_scalar_line_search(self, rng, monkeypatch):
        # k=1, m=1: the penalized fit reduces to a 1-D convex problem
        n, d = 30, 4
        X = rng.standard_normal((n, d))
        y = rng.integers(1, 3, size=n)
        yy = np.where(y == 1, 1.0, -1.0)[:, None]
        ds = make_dataset(X, np.ones(n, dtype=np.int64), 1, Y=yy)
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        lam = 0.7
        model = Model("pn", h[None, :], np.zeros((1, 1)), "binary-logistic", "l1", lam)
        set_fista(monkeypatch, 5000, 1e-12)
        refitted, _, _ = refit_output(model, ds)

        phi = hidden_activations("pn", model.H, ds.X)[:, 0]

        def objective(v):
            return float(loss_values("binary-logistic", yy, (phi * v)[:, None]).sum()) + lam * abs(v)

        res = minimize_scalar(objective, bounds=(-50, 50), method="bounded",
                              options={"xatol": 1e-12})
        got = float(refitted.V[0, 0])
        assert objective(got) <= res.fun + 1e-4

    def test_empty_model_noop(self, rng):
        model, ds = make_problem(rng, k=0)
        model = Model("pn", np.zeros((0, 6)), np.zeros((0, 3)), "logistic", "l1l2", 0.1)
        refitted, trace, _ = refit_output(model, ds)
        assert refitted.k == 0 and len(trace) == 1

    def test_zero_lambda_approaches_unpenalized_minimum(self, rng, monkeypatch):
        # k = n spanning activations: the unpenalized minimum is zero loss
        model, ds = make_problem(rng, n=8, d=8, k=8, lam=1e-12,
                                 loss="squared-hinge", penalty="l1")
        set_fista(monkeypatch, 5000, 1e-14)
        refitted, trace, _ = refit_output(model, ds)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))
        O = outputs(refitted, ds.X)
        assert float(loss_values("squared-hinge", ds.y, O).sum()) <= 1e-3


class TestFullRefit:
    def test_objective_never_increases(self, rng):
        for kind in ("pn", "fm"):
            model, ds = make_problem(rng, kind=kind)
            before = penalized_objective(model, ds)
            refitted, trace, _ = refit_full(model, ds)
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))
            assert penalized_objective(refitted, ds) <= before + 1e-9

    def test_basis_rows_stay_feasible(self, rng):
        model, ds = make_problem(rng, kind="fm")
        refitted, _, _ = refit_full(model, ds)
        assert np.all(np.linalg.norm(refitted.H, axis=1) <= 1.0 + 1e-9)

    def test_stationary_point_returned_unchanged(self, rng):
        # perfectly separated squared hinge with zero penalty: gradients vanish
        d = 3
        X = np.vstack([np.eye(d) * 3.0, np.eye(d) * 2.0])
        y = np.array([1, 2, 2, 1, 2, 2])
        ds = make_dataset(X, y, 2)
        H = np.eye(3)
        V = np.array([[10.0, -10.0], [-10.0, 10.0], [-10.0, 10.0]])
        model = Model("pn", H, V, "squared-hinge", "l1", 1e-300)
        assert float(loss_values("squared-hinge", y, outputs(model, ds.X)).sum()) == 0.0
        refitted, _, _ = refit_full(model, ds)
        assert np.array_equal(refitted.H, H)
        assert np.array_equal(refitted.V, V)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_hidden_gradient_matches_finite_differences(self, kind, monkeypatch):
        # the gradient each refit's own smooth oracle hands to _fista
        model, ds = make_problem(np.random.default_rng(5), kind=kind, loss="logistic")
        eps = 1e-6
        set_fista(monkeypatch, 1, 1e-3)
        for refit_fn in (refit_output, refit_full):
            _, [(x0, smooth, _, _)] = capture_fista(monkeypatch, refit_fn, model, ds)
            value, grad = smooth(x0)
            assert value == pytest.approx(float(loss_values(
                model.loss, ds.y, outputs(model, ds.X)).sum()), rel=1e-12)
            g = grad()
            assert g.shape == x0.shape
            for idx in np.ndindex(*x0.shape):
                xp, xm = x0.copy(), x0.copy()
                xp[idx] += eps
                xm[idx] -= eps
                fd = (smooth(xp)[0] - smooth(xm)[0]) / (2 * eps)
                assert fd == pytest.approx(g[idx], rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_huge_lambda_zeroes_only_v(self, kind, rng):
        # the prox acts on the V columns of [V, H] only, the projection on the H columns only
        model, ds = make_problem(rng, kind=kind, lam=1e9)
        refitted, trace, _ = refit_full(model, ds)
        assert len(trace) > 1
        assert np.all(refitted.V == 0.0)
        norms = np.linalg.norm(refitted.H, axis=1)
        assert np.all(norms > 0.0) and np.all(norms <= 1.0 + 1e-12)
        assert not np.array_equal(refitted.H, model.H)

    def test_descent_from_perturbed_model(self, rng):
        model, ds = make_problem(rng)
        fitted, _, _ = refit_output(model, ds)
        noisy = Model(model.kind, fitted.H, fitted.V + 0.5 * rng.standard_normal(fitted.V.shape),
                      model.loss, model.penalty, model.lam)
        before = penalized_objective(noisy, ds)
        refitted, trace, _ = refit_full(noisy, ds)
        assert trace[-1] <= before
        assert penalized_objective(refitted, ds) <= before


class TestFeatureSquares:
    def test_fm_squares_built_once_per_dataset(self, rng, monkeypatch):
        # every FM refit, objective and gradient refresh reads the dataset's X∘X
        model, ds = make_problem(rng, kind="fm", n=15)
        calls = []
        square = ds.X.multiply
        monkeypatch.setattr(ds.X, "multiply", lambda other: calls.append(1) or square(other))
        set_fista(monkeypatch, 20, 1e-3)
        refit_full(model, ds)
        refit_output(model, ds)
        penalized_objective(model, ds)
        op = GradientOperator(ds, "fm")
        assert op.storage == "free"
        op.refresh(model)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_cached_squares_are_bit_identical(self, kind, rng):
        model, ds = make_problem(rng, kind=kind)
        assert ds.X2 is ds.X2
        assert np.array_equal(hidden_activations(kind, model.H, ds.X, ds.X2),
                              hidden_activations(kind, model.H, ds.X))
        assert np.array_equal(outputs(model, ds.X, ds.X2), outputs(model, ds.X))


class TestDenseProducts:
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("refit_fn", [refit_output, refit_full])
    def test_dense_x_matches_csr_x(self, refit_fn, kind, monkeypatch):
        # dense X (the fixture's) and its CSR twin run the same iterations at
        # the package's own refit tolerance; every loss pass agrees to
        # rounding. The full refit's traces agree less closely: hundreds of
        # non-convex steps amplify the per-pass rounding (2e-8 relative at
        # most over these seeds for PN; the output refit's stay within 4e-16)
        set_fista(monkeypatch, 1000, 1e-3)
        trace_rtol = 1e-12 if refit_fn is refit_output else 1e-6
        for seed in range(8):
            model, ds = make_problem(np.random.default_rng(seed), kind=kind)
            twin = csr_twin(ds, monkeypatch)
            assert isinstance(ds.Xmul, np.ndarray) and isinstance(ds.X2mul, np.ndarray)
            (fitted, trace, _), calls = capture_fista(monkeypatch, refit_fn, model, ds)
            (_, twin_trace, _), twin_calls = capture_fista(monkeypatch, refit_fn, model, twin)
            assert len(trace) == len(twin_trace) > 2
            np.testing.assert_allclose(trace, twin_trace, rtol=trace_rtol, atol=0)
            x_end = np.hstack([fitted.V, fitted.H]) if refit_fn is refit_full else fitted.V
            for x in (calls[0][0], x_end):
                value, grad = calls[0][1](x)
                twin_value, twin_grad = twin_calls[0][1](x)
                assert value == pytest.approx(twin_value, rel=1e-12, abs=0)
                np.testing.assert_allclose(grad(), twin_grad(), rtol=1e-12, atol=1e-13)
            assert penalized_objective(fitted, ds) == \
                pytest.approx(penalized_objective(fitted, twin), rel=1e-12, abs=0)


class TestPrune:
    def test_identity_when_no_dead_rows(self, rng):
        model, _ = make_problem(rng)
        model.V += np.sign(model.V) + 1.0  # push all entries away from zero
        assert prune(model) is model

    def test_drops_zero_row_without_changing_outputs(self, rng):
        model, ds = make_problem(rng, k=4)
        model.V[2] = 0.0
        pruned = prune(model)
        assert pruned.k == 3
        assert np.allclose(outputs(pruned, ds.X), outputs(model, ds.X), atol=1e-12)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_empty_model_unchanged(self, kind):
        model = Model(kind, np.zeros((0, 6)), np.zeros((0, 3)), "logistic", "l1l2", 0.1)
        assert prune(model) is model

    def test_only_exact_zero_rows_are_dead(self, rng):
        # a row with any nonzero weight, however small, still moves the outputs
        model, _ = make_problem(rng, k=3)
        model.V[0] = 0.0
        model.V[1] = [1e-300, -0.0, 0.0]
        model.V[2] = -0.0
        pruned = prune(model)
        assert pruned.k == 1
        assert np.array_equal(pruned.V, model.V[1:2]) and np.array_equal(pruned.H, model.H[1:2])

    def test_huge_lambda_then_prune_empties_model(self, rng):
        model, ds = make_problem(rng, lam=1e9)
        refitted, _, _ = refit_output(model, ds)
        assert prune(refitted).k == 0


class TestFista:
    def test_nan_candidate_objective_raises(self, monkeypatch):
        # finite at the start only: NaN fails both acceptance comparisons and
        # must raise, not slip into the trace
        calls = []

        def smooth(x):
            calls.append(1)
            return (1.0 if len(calls) == 1 else float("nan")), lambda: x

        V = np.array([[1.0, -2.0]])
        model = Model("pn", np.zeros((1, 2)), V, "logistic", "l1", 0.0)
        set_fista(monkeypatch, 5, 1e-3)
        with pytest.raises(FloatingPointError, match="non-finite"):
            _fista(V, smooth, model)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("refit_fn", [refit_output, refit_full])
    def test_empty_model_trace_is_its_objective(self, refit_fn, kind, rng):
        # an x with no rows is not iterated: the trace is the empty model's objective
        _, ds = make_problem(rng)
        model = Model(kind, np.zeros((0, 6)), np.zeros((0, 3)), "logistic", "l1l2", 0.1)
        refitted, trace, _ = refit_fn(model, ds)
        assert refitted.k == 0 and refitted.V.shape == (0, 3) and refitted.H.shape == (0, 6)
        assert trace == [penalized_objective(model, ds)]


class TestStartingStep:
    @staticmethod
    def record_starts(monkeypatch):
        """A list that receives the starting L of every later ``_fista`` call."""
        real, starts = refit._fista, []

        def spy(x0, smooth, model, **kwargs):
            starts.append(kwargs.get("L0", 1.0))
            return real(x0, smooth, model, **kwargs)

        monkeypatch.setattr(refit, "_fista", spy)
        return starts

    def test_one_hot_fm_starts_at_its_bound_below_one(self, monkeypatch, tmp_path):
        # one-hot activations are small: the binary-logistic bound
        # lambda_max(Phi^T Phi) / 4 lies far below 1
        write_movielens(*make_ratings(30, 40, 400, seed=0), tmp_path / "r.data")
        ds = build_ordinal(load_movielens(tmp_path / "r.data"))
        starts = self.record_starts(monkeypatch)
        fit(ds, SolverConfig(model="fm", loss="binary-logistic", penalty="l1linf", lam=0.5,
                             k_max=4))
        assert len(starts) == 4 and all(0.0 < L0 < 0.1 for L0 in starts)

    def test_vowel_shaped_pn_carries_each_kinds_step(self, monkeypatch):
        # dense activations of 10 features: the logistic bound is above 1, so
        # the first output refit and the first joint refit start at 1, and
        # each later one at the larger of 1 and the L its same-kind
        # predecessor returned
        ds = make_multiclass(264, 10, 11, n_basis=5, seed=0, margin=0.25)
        real, calls = refit._fista, {"output": [], "full": []}

        def spy(x0, smooth, model, L0=1.0):
            x, trace, L = real(x0, smooth, model, L0=L0)
            calls["output" if x0.shape[1] == model.m else "full"].append((L0, L))
            return x, trace, L

        monkeypatch.setattr(refit, "_fista", spy)
        fit(ds, SolverConfig(model="pn", loss="logistic", penalty="l1", lam=0.1, k_max=4,
                             refit="full"))
        for kind, runs in calls.items():
            assert len(runs) == 4, kind
            starts = [L0 for L0, _ in runs]
            returned = [L for _, L in runs]
            assert starts == [1.0] + [max(L, 1.0) for L in returned[:-1]], kind
            assert max(starts) > 1.0, kind  # the carry is exercised

    def test_carried_step_saves_loss_passes(self, monkeypatch):
        # at the package's own refit settings, restarting every refit at 1
        # and halving L before each iteration made 574 loss passes here
        set_fista(monkeypatch, 1000, 1e-3)
        ds = make_multiclass(264, 10, 11, n_basis=5, seed=0, margin=0.25)
        passes = []
        real = refit.loss_pass
        monkeypatch.setattr(refit, "loss_pass", lambda *args: passes.append(1) or real(*args))
        fit(ds, SolverConfig(model="pn", loss="logistic", penalty="l1", lam=0.1, k_max=4,
                             refit="full"))
        assert len(passes) <= 450

    @pytest.mark.parametrize("scale", [1.0, 0.05])
    def test_start_is_the_bound_capped_at_one(self, scale, monkeypatch):
        # squared hinge, c = 2m; the joint refit always starts at 1
        model, ds = make_problem(np.random.default_rng(0), loss="squared-hinge")
        model = replace(model, H=scale * model.H)
        Phi = hidden_activations(model.kind, model.H, ds.X)
        bound = 2.0 * model.m * np.linalg.eigvalsh(Phi.T @ Phi)[-1]
        assert (bound > 1.0) == (scale == 1.0)
        starts = self.record_starts(monkeypatch)
        refit_output(model, ds)
        refit_full(model, ds)
        assert starts == [pytest.approx(min(1.0, bound), rel=1e-12), 1.0]
