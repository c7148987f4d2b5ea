import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from polyfactor.data import make_dataset
from polyfactor.gradients import GradientOperator
from polyfactor.losses import loss_values
from polyfactor.models import Model, hidden_activations, outputs
from polyfactor.refit import (
    FistaConfig,
    _fista,
    penalized_objective,
    prune,
    refit_full,
    refit_output,
)

CFG = FistaConfig(max_iter=1000, tol=1e-7)


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


class TestOutputRefit:
    def test_objective_never_increases(self, rng):
        for seed in range(5):
            model, ds = make_problem(np.random.default_rng(seed))
            before = penalized_objective(model, ds)
            refitted, trace = refit_output(model, ds, CFG)
            assert trace == sorted(trace, reverse=True) or \
                all(b - a >= -1e-9 * max(abs(a), 1.0) for a, b in zip(trace[1:], trace[:-1]))
            assert penalized_objective(refitted, ds) <= before + 1e-9

    def test_huge_lambda_kills_all_rows(self, rng):
        model, ds = make_problem(rng, lam=1e9)
        refitted, _ = refit_output(model, ds, CFG)
        assert np.all(refitted.V == 0.0)

    def test_matches_scalar_line_search(self, rng):
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
        refitted, _ = refit_output(model, ds, FistaConfig(max_iter=5000, tol=1e-12))

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
        refitted, trace = refit_output(model, ds, CFG)
        assert refitted.k == 0 and len(trace) == 1

    def test_zero_lambda_approaches_unpenalized_minimum(self, rng):
        # k = n spanning activations: the unpenalized minimum is zero loss
        model, ds = make_problem(rng, n=8, d=8, k=8, lam=1e-12,
                                 loss="squared-hinge", penalty="l1")
        refitted, trace = refit_output(model, ds, FistaConfig(max_iter=5000, tol=1e-14))
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))
        O = outputs(refitted, ds.X)
        assert float(loss_values("squared-hinge", ds.y, O).sum()) <= 1e-3


class TestFullRefit:
    def test_objective_never_increases(self, rng):
        for kind in ("pn", "fm"):
            model, ds = make_problem(rng, kind=kind)
            before = penalized_objective(model, ds)
            refitted, trace = refit_full(model, ds, CFG)
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))
            assert penalized_objective(refitted, ds) <= before + 1e-9

    def test_basis_rows_stay_feasible(self, rng):
        model, ds = make_problem(rng, kind="fm")
        refitted, _ = refit_full(model, ds, CFG)
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
        refitted, _ = refit_full(model, ds, CFG)
        assert np.array_equal(refitted.H, H)
        assert np.array_equal(refitted.V, V)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_hidden_gradient_matches_finite_differences(self, kind, rng):
        from polyfactor.losses import targets_for

        model, ds = make_problem(rng, kind=kind, loss="logistic")
        targets = targets_for(model.loss, ds)

        def value(H):
            Phi = hidden_activations(kind, H, ds.X)
            return float(loss_values(model.loss, targets, Phi @ model.V).sum())

        # analytic gradient identical to the one refit_full uses
        X = ds.X
        X2 = X.multiply(X).tocsr()
        Z = np.asarray(X @ model.H.T)
        Phi = hidden_activations(kind, model.H, ds.X)
        from polyfactor.losses import loss_gradients

        G = loss_gradients(model.loss, targets, Phi @ model.V)
        W = G @ model.V.T
        gH = np.asarray(X.T @ (Z * W)).T
        if kind == "fm":
            gH = gH - model.H * np.asarray(X2.T @ W).T
        else:
            gH = 2.0 * gH

        eps = 1e-6
        for r in range(model.k):
            for j in range(model.d):
                Hp = model.H.copy()
                Hm = model.H.copy()
                Hp[r, j] += eps
                Hm[r, j] -= eps
                fd = (value(Hp) - value(Hm)) / (2 * eps)
                assert fd == pytest.approx(gH[r, j], rel=1e-4, abs=1e-7)

    def test_descent_from_perturbed_model(self, rng):
        model, ds = make_problem(rng)
        fitted, _ = refit_output(model, ds, CFG)
        noisy = Model(model.kind, fitted.H, fitted.V + 0.5 * rng.standard_normal(fitted.V.shape),
                      model.loss, model.penalty, model.lam)
        before = penalized_objective(noisy, ds)
        refitted, trace = refit_full(noisy, ds, CFG)
        assert trace[-1] <= before
        assert penalized_objective(refitted, ds) <= before


class TestFeatureSquares:
    def test_fm_squares_built_once_per_dataset(self, rng, monkeypatch):
        # every FM refit, objective and gradient refresh reads the dataset's X∘X
        model, ds = make_problem(rng, kind="fm", n=15)
        calls = []
        square = ds.X.multiply
        monkeypatch.setattr(ds.X, "multiply", lambda other: calls.append(1) or square(other))
        refit_full(model, ds, FistaConfig(max_iter=20))
        refit_output(model, ds, FistaConfig(max_iter=20))
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

    def test_huge_lambda_then_prune_empties_model(self, rng):
        model, ds = make_problem(rng, lam=1e9)
        refitted, _ = refit_output(model, ds, CFG)
        assert prune(refitted).k == 0


class TestFista:
    def test_nan_candidate_objective_raises(self):
        # finite at the start only: NaN fails both acceptance comparisons and
        # must raise, not slip into the trace
        calls = []

        def smooth_value(x):
            calls.append(1)
            return 1.0 if len(calls) == 1 else float("nan")

        with pytest.raises(FloatingPointError, match="non-finite"):
            _fista((np.array([1.0, -2.0]),), smooth_value, lambda x: (x[0],),
                   lambda x, step: x, lambda x: 0.0, FistaConfig(max_iter=5))
