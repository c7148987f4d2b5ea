import warnings
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import loss_gradient, loss_value
from polyfactor.losses import (
    CURVATURE,
    LOSSES,
    MULTICLASS_LOSSES,
    bind_labels,
    loss_gradients,
    loss_pass,
    loss_values,
    targets_for,
)
from polyfactor.data import make_dataset

ALL_BUT_SQUARED = [k for k in LOSSES if k != "squared"]


def random_instance(rng, kind, m):
    o = 3.0 * rng.standard_normal(m)
    if kind == "binary-logistic":
        y = rng.choice([-1.0, 1.0], size=m)
    elif kind == "squared":
        y = float(rng.standard_normal())
        o = o[:1]
    else:
        y = int(rng.integers(1, m + 1))
    return y, o


class TestValues:
    def test_logistic_at_zero(self):
        assert loss_value("logistic", 1, np.zeros(3)) == pytest.approx(np.log(3.0))

    def test_squared_hinge_at_zero(self):
        assert loss_value("squared-hinge", 2, np.zeros(3)) == pytest.approx(2.0)

    def test_logistic_binary_margin(self):
        # direct scalar evaluation: log(1 + exp(-5))
        got = loss_value("logistic", 1, np.array([5.0, 0.0]))
        assert got == pytest.approx(6.715348489118068e-3, rel=1e-12)

    def test_smoothed_hinge_indicator_inside_exponent(self):
        o = np.array([0.3, -0.2, 0.9])
        y = 2
        z = np.array([1.0 + o[0] - o[1], 0.0, 1.0 + o[2] - o[1]])
        expected = np.log(np.exp(z).sum())
        assert loss_value("smoothed-hinge", y, o) == pytest.approx(expected, rel=1e-12)

    def test_large_outputs_stable(self):
        v = loss_value("logistic", 1, np.array([800.0, -900.0, 200.0]))
        assert np.isfinite(v)
        g = loss_gradient("smoothed-hinge", 2, np.array([1e4, -1e4, 0.0]))
        assert np.all(np.isfinite(g))

    def test_binary_logistic_sums_output_losses(self):
        y = np.array([1.0, -1.0])
        o = np.array([0.5, 2.0])
        expected = np.log1p(np.exp(-0.5)) + np.log1p(np.exp(2.0))
        assert loss_value("binary-logistic", y, o) == pytest.approx(expected, rel=1e-12)

    def test_squared(self):
        assert loss_value("squared", 3.0, np.array([5.0])) == pytest.approx(2.0)


class TestGradients:
    def test_uniform_softmax(self):
        g = loss_gradient("logistic", 1, np.zeros(4))
        assert np.allclose(g, [-0.75, 0.25, 0.25, 0.25])

    def test_squared_hinge_at_zero(self):
        g = loss_gradient("squared-hinge", 1, np.zeros(3))
        assert np.allclose(g, [-4.0, 2.0, 2.0])

    def test_binary_logistic_at_zero(self):
        y = np.array([1.0, -1.0, 1.0])
        g = loss_gradient("binary-logistic", y, np.zeros(3))
        assert np.allclose(g, -y / 2.0)

    @pytest.mark.parametrize("mode", ["warn", "raise"])
    def test_binary_logistic_margin_past_exp_overflow(self, mode):
        # exp(y o) overflows past a margin of ~709: each entry is -y * 0.0,
        # with no warning, and none under numpy's "raise" either
        Y = np.array([[1.0, -1.0, 1.0, -1.0]])
        O = np.array([[800.0, -800.0, 1e300, -1e300]])
        with np.errstate(over=mode):
            g = loss_gradients("binary-logistic", Y, O)
            g_pass = loss_pass("binary-logistic", Y, O)[1]()
        for got in (g, g_pass):
            assert np.array_equal(got, np.zeros((1, 4)))
            assert np.signbit(got).tolist() == [[True, False, True, False]]

    @pytest.mark.parametrize("kind", MULTICLASS_LOSSES)
    def test_gradient_sums_to_zero_and_signs(self, kind, rng):
        for _ in range(20):
            m = int(rng.integers(2, 7))
            y, o = random_instance(rng, kind, m)
            g = loss_gradient(kind, y, o)
            assert abs(g.sum()) < 1e-12
            assert g[y - 1] <= 1e-15
            off = np.delete(g, y - 1)
            assert np.all(off >= -1e-15)

    @pytest.mark.parametrize("kind", LOSSES)
    def test_finite_differences(self, kind, rng):
        # central-difference oracle, >= 100 random instances per loss
        eps = 1e-5
        for _ in range(110):
            m = 1 if kind == "squared" else int(rng.integers(2, 6))
            y, o = random_instance(rng, kind, m)
            g = loss_gradient(kind, y, o)
            fd = np.empty_like(g)
            for j in range(o.size):
                e = np.zeros_like(o)
                e[j] = eps
                fd[j] = (loss_value(kind, y, o + e) - loss_value(kind, y, o - e)) / (2 * eps)
            scale = max(np.abs(g).max(), np.abs(fd).max(), 1e-8)
            assert np.abs(g - fd).max() <= 1e-6 * scale


class TestConvexity:
    @pytest.mark.parametrize("kind", ALL_BUT_SQUARED)
    @given(data=st.data())
    def test_segment_probe(self, kind, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        y, o1 = random_instance(rng, kind, m)
        _, o2 = random_instance(rng, kind, m)
        if kind == "binary-logistic":
            o2 = 3.0 * rng.standard_normal(m)
        t = rng.uniform(1e-3, 1 - 1e-3)
        lhs = loss_value(kind, y, t * o1 + (1 - t) * o2)
        rhs = t * loss_value(kind, y, o1) + (1 - t) * loss_value(kind, y, o2)
        assert lhs <= rhs + 1e-12


class TestCurvature:
    @pytest.mark.parametrize("kind", LOSSES)
    @given(data=st.data())
    def test_bounds_the_output_refit_gradient(self, kind, data):
        # f(V) = sum_i loss(Phi_i V) has gradient Phi^T G(Phi V), Lipschitz
        # in V with CURVATURE[kind](m) * lambda_max(Phi^T Phi)
        seed = data.draw(st.integers(0, 2**31 - 1))
        scale = data.draw(st.sampled_from([0.01, 1.0, 10.0]))
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        m = 1 if kind == "squared" else int(rng.integers(2, 7))
        if kind == "binary-logistic":
            labels = rng.choice([-1.0, 1.0], size=(n, m))
        elif kind == "squared":
            labels = rng.standard_normal(n)
        else:
            labels = rng.integers(1, m + 1, size=n)
        Phi = rng.standard_normal((n, k)) * rng.exponential(size=k)
        V1 = scale * rng.standard_normal((k, m))
        V2 = V1 + scale * rng.standard_normal((k, m)) * rng.choice([1e-3, 1.0])

        def grad(V):
            return Phi.T @ loss_gradients(kind, labels, Phi @ V)

        bound = CURVATURE[kind](m) * np.linalg.eigvalsh(Phi.T @ Phi)[-1]
        lhs = np.linalg.norm(grad(V1) - grad(V2))
        assert lhs <= bound * np.linalg.norm(V1 - V2) * (1 + 1e-8) + 1e-12


class TestVectorized:
    @pytest.mark.parametrize("kind", MULTICLASS_LOSSES)
    def test_matches_per_sample(self, kind, rng):
        n, m = 40, 5
        O = 2.0 * rng.standard_normal((n, m))
        y = rng.integers(1, m + 1, size=n)
        vals = loss_values(kind, y, O)
        grads = loss_gradients(kind, y, O)
        for i in range(n):
            assert vals[i] == pytest.approx(loss_value(kind, int(y[i]), O[i]), rel=1e-12)
            assert np.allclose(grads[i], loss_gradient(kind, int(y[i]), O[i]))


def binary_logistic_reference(z: float) -> float:
    """ln(1 + e^{-z}) to 50 digits, correctly rounded to float64; written as
    max(-z, 0) + ln(1 + x) with x = e^{-|z|}, so that no exponent overflows.
    Below x = 1e-25, ln(1 + x) is x - x^2 / 2 to better than 50 digits."""
    ctx = Context(prec=50)
    z = Decimal(z)
    x = ctx.exp(-abs(z))
    log1p = ctx.ln(ctx.add(1, x)) if x > Decimal("1e-25") else ctx.subtract(x, x * x / 2)
    return float(ctx.add(max(-z, Decimal(0)), log1p))


def sum_left_to_right(A):
    """Each row's sum, adding its entries left to right."""
    total = A[:, 0].copy()
    for c in range(1, A.shape[1]):
        total += A[:, c]
    return total


def reference_multiclass(kind, y, O, row_sum=sum_left_to_right):
    """Values and gradients by the row-max, softmax and squared-hinge formulas
    written out separately: the values pass and the gradient pass each
    recompute the margins. Each sum over classes is ``row_sum``."""
    rows = np.arange(O.shape[0])

    def margins():
        Z = O - O[rows, y - 1][:, None]
        if kind != "logistic":
            Z = Z + 1.0
            Z[rows, y - 1] = 0.0
        return Z

    Z = margins()
    if kind == "squared-hinge":
        M = np.maximum(Z, 0.0)
        M[rows, y - 1] = 0.0
        values = row_sum(M * M)
        G = 2.0 * np.maximum(margins(), 0.0)
        G[rows, y - 1] = 0.0
        G[rows, y - 1] = -row_sum(G)
        return values, G
    zmax = Z.max(axis=1)
    values = zmax + np.log(row_sum(np.exp(Z - zmax[:, None])))
    Z = margins()
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    G = E / row_sum(E)[:, None]
    G[rows, y - 1] -= 1.0
    return values, G


class TestLossPass:
    def test_binary_logistic_within_two_ulp_of_exact(self):
        zs = [0.0, 1e-300, 1e-8, 1.0, 36.0, 700.0, 745.0, 800.0, 1e300]
        z = np.array(zs + [-v for v in zs[1:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = loss_values("binary-logistic", np.ones((z.size, 1)), z[:, None])
        assert np.isfinite(got).all()
        for zi, gi in zip(z, got):
            ref = binary_logistic_reference(zi)
            assert abs(gi - ref) <= 2 * np.spacing(ref), (zi, gi, ref)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_binary_logistic_rows_sum_left_to_right(self, m, rng):
        # each row's value adds its per-entry values left to right; below 8
        # outputs that is numpy's axis-1 sum, bit for bit
        O = 3.0 * rng.standard_normal((300, m)) * np.exp(2.0 * rng.standard_normal((300, m)))
        Y = rng.choice([-1.0, 1.0], size=(300, m))
        t = np.column_stack([loss_values("binary-logistic", Y[:, [c]], O[:, [c]])
                             for c in range(m)])
        got = loss_values("binary-logistic", Y, O)
        assert np.array_equal(got, sum_left_to_right(t))
        if m <= 7:
            assert np.array_equal(got, t.sum(axis=1))

    @pytest.mark.parametrize("kind", MULTICLASS_LOSSES)
    def test_multiclass_bit_identical_to_separate_passes(self, kind, rng):
        for scale in (0.5, 3.0, 1e4):
            for n, m in ((1, 2), (40, 5), (264, 11)):
                O = scale * rng.standard_normal((n, m))
                O[rng.random((n, m)) < 0.2] = scale  # ties with the label
                y = rng.integers(1, m + 1, size=n)
                ref_values, ref_grad = reference_multiclass(kind, y, O)
                values, grad = loss_pass(kind, y, O)
                assert np.array_equal(values, ref_values)
                assert np.array_equal(grad(), ref_grad)
                assert np.array_equal(grad(), ref_grad)  # the thunk can run again
                assert np.array_equal(loss_values(kind, y, O), ref_values)
                assert np.array_equal(loss_gradients(kind, y, O), ref_grad)
                # the label entries are found by flat index in any memory layout
                values, grad = loss_pass(kind, y, np.asfortranarray(O))
                assert np.array_equal(values, ref_values)
                assert np.array_equal(grad(), ref_grad)

    @pytest.mark.parametrize("kind", MULTICLASS_LOSSES)
    @pytest.mark.parametrize("m", range(1, 17))
    def test_multiclass_sums_classes_left_to_right(self, kind, m, rng):
        # below 8 classes that is numpy's axis-1 sum, bit for bit
        O = 3.0 * rng.standard_normal((300, m))
        y = rng.integers(1, m + 1, size=300)
        values, grad = loss_pass(kind, y, O)
        G = grad()
        assert G.flags.c_contiguous
        ref_values, ref_grad = reference_multiclass(kind, y, O)
        assert np.array_equal(values, ref_values) and np.array_equal(G, ref_grad)
        if m <= 7:
            axis_values, axis_grad = reference_multiclass(kind, y, O, lambda A: A.sum(axis=1))
            assert np.array_equal(values, axis_values) and np.array_equal(G, axis_grad)

    @pytest.mark.parametrize("kind", MULTICLASS_LOSSES)
    def test_bound_labels_give_the_same_pass(self, kind, rng):
        # a refit binds its labels once; the pass reads them as the raw labels
        O = 3.0 * rng.standard_normal((40, 5))
        y = rng.integers(1, 6, size=40)
        bound = bind_labels(kind, y, O.shape)
        assert bind_labels(kind, bound, O.shape) is bound
        values, grad = loss_pass(kind, y, O)
        bound_values, bound_grad = loss_pass(kind, bound, O)
        assert np.array_equal(values, bound_values) and np.array_equal(grad(), bound_grad())
        with pytest.raises(ValueError, match="bound to outputs"):
            loss_pass(kind, bound, O[:30])

    @pytest.mark.parametrize("kind", LOSSES)
    def test_gradients_skip_the_values(self, kind, rng, monkeypatch):
        # loss_gradients returns the pass's gradient bit for bit and never
        # runs the log / log1p that only the values need
        n, m = 50, 1 if kind == "squared" else 4
        O = 3.0 * rng.standard_normal((n, m))
        if kind == "binary-logistic":
            labels = rng.choice([-1.0, 1.0], size=(n, m))
        elif kind == "squared":
            labels = rng.standard_normal(n)
        else:
            labels = rng.integers(1, m + 1, size=n)
        expected = loss_pass(kind, labels, O)[1]()

        def values_only(*args, **kwargs):
            raise AssertionError("a loss value was computed")

        monkeypatch.setattr(np, "log", values_only)
        monkeypatch.setattr(np, "log1p", values_only)
        got = loss_gradients(kind, labels, O)
        monkeypatch.undo()
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", MULTICLASS_LOSSES)
    @pytest.mark.parametrize("label", [0, 4])
    def test_label_outside_outputs_refused(self, kind, label, rng):
        # a label entry is found by flat index, which must not run into the
        # next row (label m + 1) or wrap to the last column (label 0)
        O = rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            loss_pass(kind, np.array([1, label, 2]), O)

    def test_squared_needs_one_output(self):
        y, O = np.zeros(3), np.zeros((3, 2))
        with pytest.raises(ValueError, match="single output"):
            loss_values("squared", y, O)
        with pytest.raises(ValueError, match="single output"):
            loss_gradients("squared", y, O)


class TestTargets:
    def test_squared_regresses_on_label_values(self, rng):
        ds = make_dataset(rng.standard_normal((3, 2)), np.array([2, 1, 2]), 2,
                          label_map=(-45.0, 218.5))
        assert targets_for("squared", ds).tolist() == [218.5, -45.0, 218.5]
        assert targets_for("logistic", ds) is ds.y
