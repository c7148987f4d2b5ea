import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import dual_norm, project_l1_ball_row, prox_l1linf_loop, row_norm
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


def l1_ball_draws(rng, count):
    """(V, radius) pairs for the row-wise l1-ball checks: k 0-6 rows of m 1-12
    (from 8 numpy's sums turn pairwise), all-zero rows, -0.0 entries, radius 0,
    and a radius at one row's l1 norm, so rows fall inside, on and outside."""
    for _ in range(count):
        k, m = int(rng.integers(0, 7)), int(rng.integers(1, 13))
        V = rng.standard_normal((k, m)) * np.exp(rng.uniform(-3, 3, size=(k, 1)))
        V[rng.random(k) < 0.2] = 0.0
        V[rng.random((k, m)) < 0.1] = -0.0
        norms = np.abs(V).sum(axis=1)
        choice = rng.integers(3)
        if choice == 0 or not k:
            radius = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 50.0))
        else:
            radius = float(norms[rng.integers(k)]) * (1.0 if choice == 1 else rng.uniform(0, 2))
        yield V, radius


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

    def test_l1linf_matches_per_row_loop(self, rng):
        # bit for bit, signbits included, the row-at-a-time Moreau identity
        seen = set()
        for V, radius in l1_ball_draws(rng, 3000):
            assert prox("l1linf", V, radius).tobytes() == prox_l1linf_loop(V, radius).tobytes()
            inside = np.abs(V).sum(axis=1) <= radius
            seen.update({("radius 0", radius == 0.0), ("m >= 8", V.shape[1] >= 8),
                         ("inside", inside.any()), ("outside", (~inside).any()),
                         ("zero row", (V == 0).all(axis=1).any()),
                         ("-0.0", np.signbit(V[V == 0]).any())})
        assert {name for name, hit in seen if hit} == {
            "radius 0", "m >= 8", "inside", "outside", "zero row", "-0.0"}

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

    def test_l1_ball_rows_match_per_row_calls(self, rng):
        # all rows at once equal one call per 1-D row, and the per-row
        # reference, bit for bit with signbits
        for V, radius in l1_ball_draws(rng, 3000):
            rows = project_l1_ball(V, radius)
            assert rows.shape == V.shape
            for per_row in (project_l1_ball, project_l1_ball_row):
                expected = np.array([per_row(v, radius) for v in V]).reshape(V.shape)
                assert rows.tobytes() == expected.tobytes()

    def test_l1_ball_refuses_a_negative_radius(self):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            project_l1_ball(np.ones((2, 3)), -1.0)

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

    def test_unit_row_projection_matches_norm_reference(self, rng):
        # bit for bit the np.linalg.norm form, on rows inside, on and outside
        # the ball, zero rows and huge rows
        for _ in range(200):
            k, d = rng.integers(0, 6), rng.integers(1, 30)
            H = rng.standard_normal((k, d)) * np.exp(rng.uniform(-3, 3, size=(k, 1)))
            if k:
                H[0] /= np.linalg.norm(H[0])
                H[rng.integers(k)] = 0.0
                H[rng.integers(k)] *= 1e150
            norms = np.linalg.norm(H, axis=1)
            reference = H * np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)[:, None]
            assert np.array_equal(project_unit_rows(H), reference)

    def test_unit_row_projection(self, rng):
        H = rng.standard_normal((6, 4)) * 3.0
        P = project_unit_rows(H)
        norms = np.linalg.norm(P, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        small = np.linalg.norm(H, axis=1) <= 1.0
        assert np.allclose(P[small], H[small])
