import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import dual_norm, row_norm
from polyfactor.penalties import (
    PENALTIES,
    penalty_value,
    project_l1_ball,
    project_unit_rows,
    prox,
)


def random_ball_point(rng, kind, shape):
    """A random matrix with penalty value <= 1."""
    D = rng.standard_normal(shape)
    val = penalty_value(kind, D)
    return D / val if val > 0 else D


class TestValuesAndDuals:
    def test_values(self):
        V = np.array([[3.0, -4.0], [0.0, 2.0]])
        assert penalty_value("l1", V) == 9.0
        assert penalty_value("l1l2", V) == 7.0
        assert penalty_value("l1linf", V) == 6.0

    def test_duals(self):
        G = np.array([[3.0, -4.0], [0.0, 2.0]])
        assert dual_norm("l1", G) == 4.0
        assert dual_norm("l1l2", G) == 5.0
        assert dual_norm("l1linf", G) == 7.0

    @pytest.mark.parametrize("kind", PENALTIES)
    def test_dual_is_support_function_of_unit_ball(self, kind, rng):
        # max over Omega(D) <= 1 of <D, G> approached by random ball points
        G = rng.standard_normal((4, 3))
        star = dual_norm(kind, G)
        best = max(float(np.vdot(random_ball_point(rng, kind, (4, 3)), G))
                   for _ in range(4000))
        assert best <= star + 1e-12
        assert best >= 0.5 * star  # random probing gets within a factor

    @pytest.mark.parametrize("kind", PENALTIES)
    def test_dual_attained_by_single_row_subgradient(self, kind, rng):
        # the dual-norm argmax is a single-non-zero-row matrix
        G = rng.standard_normal((5, 3))
        D = np.zeros_like(G)
        if kind == "l1":
            r, c = np.unravel_index(np.argmax(np.abs(G)), G.shape)
            D[r, c] = np.sign(G[r, c])
        elif kind == "l1l2":
            r = np.argmax(np.linalg.norm(G, axis=1))
            D[r] = G[r] / np.linalg.norm(G[r])
        else:
            r = np.argmax(np.abs(G).sum(axis=1))
            D[r] = np.sign(G[r])
        assert penalty_value(kind, D) == pytest.approx(1.0)
        assert float(np.vdot(D, G)) == pytest.approx(dual_norm(kind, G), rel=1e-12)


class TestProx:
    def test_l1_soft_threshold(self):
        V = np.array([[0.5, -2.0]])
        assert np.allclose(prox("l1", V, 1.0), [[0.0, -1.0]])

    def test_l1l2_row_shrink(self):
        V = np.array([[3.0, 4.0]])
        assert np.allclose(prox("l1l2", V, 5.0), [[0.0, 0.0]])
        assert np.allclose(prox("l1l2", V, 2.5), [[1.5, 2.0]])

    def test_l1linf_known_row(self):
        assert np.allclose(prox("l1linf", np.array([[3.0, -1.0]]), 1.0), [[2.0, -1.0]])

    def test_l1linf_inside_ball_maps_to_zero(self):
        assert np.allclose(prox("l1linf", np.array([[0.4, -0.3]]), 1.0), [[0.0, 0.0]])

    @pytest.mark.parametrize("kind", PENALTIES)
    def test_prox_beats_random_perturbations(self, kind, rng):
        # prox(v) minimizes u -> 0.5||u - v||^2 + t * rownorm(u)
        for _ in range(100):
            v = 3.0 * rng.standard_normal(4)
            t = float(rng.uniform(0.1, 2.0))
            u = prox(kind, v[None, :], t)[0]
            base = 0.5 * np.sum((u - v) ** 2) + t * row_norm(kind, u)
            scales = rng.choice([1e-3, 1e-1, 1.0], size=1000)
            W = u[None, :] + rng.standard_normal((1000, 4)) * scales[:, None]
            alts = 0.5 * np.sum((W - v) ** 2, axis=1)
            if kind == "l1":
                alts += t * np.abs(W).sum(axis=1)
            elif kind == "l1l2":
                alts += t * np.linalg.norm(W, axis=1)
            else:
                alts += t * np.abs(W).max(axis=1)
            assert base <= alts.min() + 1e-12

    @pytest.mark.parametrize("kind", PENALTIES)
    def test_prox_matches_numeric_minimizer(self, kind, rng):
        for _ in range(25):
            v = 2.0 * rng.standard_normal(3)
            t = float(rng.uniform(0.2, 1.5))
            got = prox(kind, v[None, :], t)[0]

            def objective(u):
                return 0.5 * np.sum((u - v) ** 2) + t * row_norm(kind, u)

            res = minimize(objective, x0=v, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
            assert objective(got) <= res.fun + 1e-6

    def test_empty_output_matrix(self):
        # the empty model's V has no rows: value 0, prox another empty matrix
        V = np.zeros((0, 3))
        for kind in PENALTIES:
            assert penalty_value(kind, V) == 0.0
            out = prox(kind, V, 1.0)
            assert out.shape == (0, 3) and out is not V

    def test_zero_rows_preserved(self):
        V = np.zeros((2, 3))
        for kind in PENALTIES:
            assert np.allclose(prox(kind, V, 1.0), 0.0)


class TestProjections:
    def test_l1_ball_examples(self):
        v = np.array([3.0, -1.0])
        assert np.allclose(project_l1_ball(v, 1.0), [1.0, 0.0])
        assert np.allclose(project_l1_ball(v, 10.0), v)
        assert np.allclose(project_l1_ball(v, 0.0), 0.0)

    def test_l1_ball_is_euclidean_projection(self, rng):
        for _ in range(50):
            v = 2.0 * rng.standard_normal(5)
            radius = float(rng.uniform(0.3, 3.0))
            p = project_l1_ball(v, radius)
            assert np.abs(p).sum() <= radius + 1e-10
            # any other feasible point is farther away
            for _ in range(20):
                q = random_ball_point(rng, "l1", (1, 5))[0] * radius
                assert np.sum((p - v) ** 2) <= np.sum((q - v) ** 2) + 1e-10

    def test_unit_row_projection(self, rng):
        H = rng.standard_normal((6, 4)) * 3.0
        P = project_unit_rows(H)
        norms = np.linalg.norm(P, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        small = np.linalg.norm(H, axis=1) <= 1.0
        assert np.allclose(P[small], H[small])
