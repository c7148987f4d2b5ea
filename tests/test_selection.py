import numpy as np
import pytest

from conftest import SHAPES, random_operator, shaped_operator
from polyfactor.data import make_dataset
from polyfactor.gradients import LANCZOS_EPS, GradientOperator
from polyfactor import gradients, selection
from polyfactor.losses import loss_gradients
from polyfactor.selection import (
    HUBER_DELTA,
    REFINE_MAX_ROUNDS,
    OracleLimitError,
    SelectionResult,
    _spectrum_ends,
    baseline_best_data,
    baseline_random,
    compare_methods,
    exact_oracle_linf,
    f_value,
    refine,
    select_group,
    select_l1,
)

SEED = 7


def diag_operator(diags):
    """Operators with X = I so that each output's matrix is diag(column c)."""
    diags = np.asarray(diags, dtype=np.float64)
    n, m = diags.shape
    ds = make_dataset(np.eye(n), np.ones(n, dtype=np.int64), m)
    op = GradientOperator(ds, "pn", n_outputs=m)
    op.set_gradients(diags)
    return op


def logistic_instance(rng, n, d, m):
    X = rng.standard_normal((n, d))
    y = rng.integers(1, m + 1, size=n)
    ds = make_dataset(X, y, m)
    op = GradientOperator(ds, "pn", n_outputs=m)
    op.set_gradients(loss_gradients("logistic", y, np.zeros((n, m))))
    return op, ds


# (n, d, m, one_hot): n >= d (dense when m d <= n), n < d (matrix-free),
# one-hot rows (sparse), d <= 2 shapes (sparse once m d^2 > nnz(X)), and two
# shapes wide enough that Lanczos stops on its residual test, not on d
STORAGE_SHAPES = [(30, 8, 1, False), (5, 12, 1, False), (6, 20, 2, False),
                  (40, 30, 3, True), (60, 6, 1, True), (3, 2, 2, False),
                  (1, 2, 1, False), (3, 1, 4, False),
                  (100, 150, 1, False), (400, 200, 2, True)]


def storage_operators(rng, kind):
    return [(shape, random_operator(rng, *shape[:3], kind=kind, one_hot=shape[3])[0])
            for shape in STORAGE_SHAPES]


class TestPowerMethod:
    """The spectrum ends of each output: the top and bottom eigenpairs,
    whose larger-magnitude end is the dominant (power-method) eigenpair."""

    def test_identity_operator(self, rng):
        op = diag_operator(np.ones((5, 1)))
        H, q = _spectrum_ends(op, SEED)
        assert H.shape == (1, 2, 5) and q.shape == (1, 2)
        assert q[0].any()
        for h, val in zip(H[0], q[0]):
            assert val == pytest.approx(1.0, rel=1e-6)
            assert np.linalg.norm(h) == pytest.approx(1.0)

    def test_dominant_diagonal(self):
        op = diag_operator(np.array([[3.0], [1.0]]))
        H, q = _spectrum_ends(op, SEED)
        for h, val, j, exact in zip(H[0], q[0], (0, 1), (3.0, 1.0)):
            assert val == pytest.approx(exact, rel=1e-4)
            assert abs(h[j]) == pytest.approx(1.0, abs=1e-3)
        res = select_l1(op, SEED)
        assert res.score == pytest.approx(3.0, rel=1e-4)
        assert abs(res.h[0]) == pytest.approx(1.0, abs=1e-3)

    def test_zero_operator_flagged(self, rng):
        op, _ = random_operator(rng, 6, 4, 2)
        op.set_gradients(np.zeros((6, 2)))
        _, q = _spectrum_ends(op, SEED)
        assert q.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_negative_dominant_eigenvalue(self):
        op = diag_operator(np.array([[-4.0], [2.0]]))
        _, [[top, bottom]] = _spectrum_ends(op, SEED)
        assert top == pytest.approx(2.0, rel=1e-4)
        assert bottom == pytest.approx(-4.0, rel=1e-4)
        res = select_l1(op, SEED)
        assert res.quad_values[0] == pytest.approx(-4.0, rel=1e-4)

    def test_certificate_against_dense_eigensolver(self, rng):
        for i in range(40):
            d = int(rng.integers(4, 30))
            op, _ = random_operator(rng, int(rng.integers(d, 2 * d)), d, 1,
                                    kind="fm" if i % 2 else "pn")
            vals = np.linalg.eigvalsh(op.dense_matrix(0))
            rho = np.abs(vals).max()
            H, q = _spectrum_ends(op, i)
            for h, val, exact in zip(H[0], q[0], (vals[-1], vals[0])):
                assert abs(val - exact) <= LANCZOS_EPS * rho
                assert np.linalg.norm(h) <= 1.0 + 1e-9
            res = select_l1(op, i)
            assert res.score >= (1 - LANCZOS_EPS) * rho
            assert np.linalg.norm(res.h) <= 1.0 + 1e-9

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_certificate_on_every_storage(self, kind, rng):
        seen = set()
        ops = storage_operators(rng, kind)
        for i, (shape, op) in enumerate(ops * 3):
            seen.add(op.storage)
            if i >= 2 * len(ops):  # last pass: the odd outputs' spectra are all zero
                D = op.D.copy()
                D[:, 1::2] = 0.0
                op.set_gradients(D)
            H, q = _spectrum_ends(op, i)
            assert H.shape == (op.m, 2, op.d) and q.shape == (op.m, 2), shape
            for c in range(op.m):
                A = op.dense_matrix(c)
                vals = np.linalg.eigvalsh(A)
                rho = np.abs(vals).max()
                # the oracle rounds an FM d = 1 operator to ~1e-16, not to 0
                tol = LANCZOS_EPS * rho + 1e-12
                # sorted ends: both are 0.0 exactly when the spectrum is all zero
                assert q[c, 0] >= q[c, 1], shape
                assert (not q[c].any()) == (rho <= 1e-12), shape
                for h, val, exact in zip(H[c], q[c], (vals[-1], vals[0])):
                    assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)
                    assert abs(val - h @ A @ h) <= 1e-10 * max(rho, 1.0)
                    assert abs(val - exact) <= tol, (shape, val, exact)
                    # both ends meet the Lanczos stop test (exact on eigh)
                    residual = np.linalg.norm(A @ h - val * h)
                    assert residual <= 0.05 * LANCZOS_EPS * rho * (1 + 1e-6) + 1e-12, shape
                dominant = np.abs(q[c]).max()
                assert dominant >= (1 - LANCZOS_EPS) * rho - 1e-12, shape
        assert seen == {"dense", "sparse", "free"}

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_zero_operator_degenerate_on_every_storage(self, kind, rng):
        for shape, op in storage_operators(rng, kind):
            op.set_gradients(np.zeros((op.n, op.m)))
            assert not _spectrum_ends(op, SEED)[1].any(), shape
            assert select_l1(op, SEED).score == 0.0, shape
            assert select_group(op, 1, SEED).score == 0.0, shape

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_select_group_deterministic(self, kind, rng):
        for shape, op in storage_operators(rng, kind):
            a, b = select_group(op, 1, SEED), select_group(op, 1, SEED)
            assert np.array_equal(a.h, b.h), shape


class TestSelectL1:
    def test_single_output_picks_the_dominant_spectrum_end(self, rng):
        # with one output the pick is the dominant spectrum end
        op, _ = random_operator(rng, 10, 6, 1)
        res = select_l1(op, SEED)
        H, q = _spectrum_ends(op, SEED)
        end = np.abs(q[0]).argmax()
        h, val = H[0, end], q[0, end]
        assert res.score == pytest.approx(abs(val), rel=1e-12)
        assert abs(res.h @ h) == pytest.approx(1.0, abs=1e-9)

    def test_picks_strongest_output(self):
        op = diag_operator(np.array([[3.0, 0.0], [1.0, 2.0]]))
        res = select_l1(op, SEED)
        assert res.score == pytest.approx(3.0, rel=1e-4)
        assert abs(res.h[0]) == pytest.approx(1.0, abs=1e-3)

    def test_score_is_inf_norm_of_quads(self, rng):
        op, _ = random_operator(rng, 12, 5, 4)
        res = select_l1(op, SEED)
        assert res.score == pytest.approx(np.abs(res.quad_values).max(), abs=1e-10)

    def test_all_zero_outputs_degenerate(self, rng):
        op, _ = random_operator(rng, 5, 4, 3)
        op.set_gradients(np.zeros((5, 3)))
        res = select_l1(op, SEED)
        assert res.score == 0.0
        assert res.quad_values.tolist() == [0.0, 0.0, 0.0]


def weights(q, p):
    """The weights a refinement round takes from the quadratic forms q."""
    return q if p == 2 else np.clip(q / HUBER_DELTA, -1.0, 1.0)


def weighted_dense(op, w):
    """sum_c w_c A_c from the dense oracle matrices."""
    return sum(w[c] * op.dense_matrix(c) for c in range(op.m))


def recorded_refine(op, h0, p, monkeypatch):
    """refine(op, h0, p) and every top-eigenvector proposal its rounds
    made, as (weights, current h, proposed h) in order."""
    rounds = []

    def recording(op, w, h):
        top = top_eigvector(op, w, h)
        rounds.append((w.copy(), h.copy(), top))
        return top

    top_eigvector = selection._top_eigvector
    monkeypatch.setattr(selection, "_top_eigvector", recording)
    try:
        return refine(op, h0, p), rounds
    finally:
        monkeypatch.undo()


def reference_refine(op, h0, p, rounds):
    """The rounds' bookkeeping recomputed around the recorded proposals:
    each round's weights come from q(h), each proposal is checked against
    the dense top eigenpair of sum_c w_c A_c, and the raw-f guard, the flat
    stop and the round cap decide which proposals are accepted. Returns
    (final h, its quadratic forms, accepted objective trace)."""
    h = np.asarray(h0, dtype=np.float64)
    q = op.quad_values(h)
    f = f_value(q, p)
    trace = [f]
    for i, (w, h_in, top) in enumerate(rounds):
        assert i < REFINE_MAX_ROUNDS
        assert np.array_equal(h_in, h)
        assert np.array_equal(w, weights(q, p)) and w.any()
        vals = np.linalg.eigvalsh(weighted_dense(op, w))
        rho = np.abs(vals).max()
        assert np.linalg.norm(top) == pytest.approx(1.0, abs=1e-12)
        assert top @ h >= 0.0
        assert top @ weighted_dense(op, w) @ top >= vals[-1] - LANCZOS_EPS * rho
        q_new = op.quad_values(top)
        f_new = f_value(q_new, p)
        if not f_new > f:
            assert i == len(rounds) - 1
            break
        gain = f_new - f
        h, q, f = top, q_new, f_new
        trace.append(f)
        if gain < 1e-8 * abs(f):
            assert i == len(rounds) - 1
            break
    else:
        # every proposal was accepted: the cap or all-zero weights stopped it
        assert len(rounds) == REFINE_MAX_ROUNDS or not weights(q, p).any()
    return h, q, trace


class TestRefine:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_matches_recomputing_reference(self, kind, p, rng, monkeypatch):
        for shape in SHAPES * 4:
            op = shaped_operator(rng, shape, kind)
            h0 = rng.standard_normal(op.d)
            h0 /= np.linalg.norm(h0)
            res, rounds = recorded_refine(op, h0, p, monkeypatch)
            h, q, trace = reference_refine(op, h0, p, rounds)
            assert res.trace == trace
            assert np.array_equal(res.h, h)
            assert np.array_equal(res.quad_values, q)
            assert np.array_equal(res.quad_values, op.quad_values(res.h))

    @pytest.mark.parametrize("p", [1, 2])
    def test_monotone_and_feasible(self, p, rng):
        for seed in range(8):
            op, _ = random_operator(np.random.default_rng(seed), 14, 8, 3)
            h0 = rng.standard_normal(8)
            h0 /= np.linalg.norm(h0)
            before = f_value(op.quad_values(h0), p)
            res = refine(op, h0, p)
            after = f_value(res.quad_values, p)
            assert after >= before - 1e-12
            assert np.linalg.norm(res.h) <= 1.0 + 1e-9

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape[-1])
    def test_fixed_point_certificate(self, shape, kind, p, rng):
        # a returned h that did not hit the round cap is (nearly) a top
        # eigenvector of M_w(h): lambda_max(M_w) <= w . q(h) (1 + bound).
        # p = 2 stops where no round rises, so the gap is the eigensolver's:
        # over 240 draws of every storage and kind (10 per seed, seeds
        # 0-23) the worst was 2.4e-6. p = 1 rounds follow the
        # Huber-smoothed f_1 but are judged on the raw f_1, which can stop
        # them short of the smoothed fixed point: there the worst gap was
        # 7.2e-2. An operator that is zero to rounding (an unused column's
        # end) gets the absolute slack
        bound = 1e-4 if p == 2 else 0.1
        for _ in range(10):
            op = shaped_operator(rng, shape, kind)
            starts = list(_spectrum_ends(op, SEED)[0].reshape(-1, op.d))
            starts += [h / np.linalg.norm(h) for h in rng.standard_normal((2, op.d))]
            for h0 in starts:
                res = refine(op, h0, p)
                assert res.trace[0] == f_value(op.quad_values(h0), p)
                assert np.all(np.diff(res.trace) > 0.0)
                assert f_value(res.quad_values, p) == res.trace[-1]
                if len(res.trace) - 1 == REFINE_MAX_ROUNDS:
                    continue
                w = weights(res.quad_values, p)
                lam = np.linalg.eigvalsh(weighted_dense(op, w))[-1]
                assert lam <= (w @ res.quad_values) * (1.0 + bound) + 1e-12, shape

    def test_single_output_recovers_power_method_fixed_point(self, rng):
        # with one output and p=2 the rounds' fixed points are eigenvectors
        op, _ = random_operator(rng, 10, 6, 1)
        M = op.dense_matrix(0)
        vals, vecs = np.linalg.eigh(M)
        top = vecs[:, np.argmax(np.abs(vals))]
        res = refine(op, top, 2)
        assert abs(res.h @ top) == pytest.approx(1.0, abs=1e-8)

    def test_stationary_point_unchanged(self):
        # the dominant eigenvector of a single diagonal output is a maximizer
        op = diag_operator(np.array([[5.0], [1.0]]))
        h0 = np.array([1.0, 0.0])
        res = refine(op, h0, 2)
        assert np.allclose(res.h, h0)

    def test_zero_start_stops_at_once(self, rng):
        for shape in SHAPES:
            op = shaped_operator(rng, shape, "fm")
            for p in (1, 2):
                res = refine(op, np.zeros(op.d), p)
                assert res.trace == [0.0] and not res.h.any()

    def test_improvement_tracks_random_restarts(self, rng):
        # refined value from the l1 init compares well against many restarts
        op, _ = random_operator(rng, 16, 8, 3)
        init = select_l1(op, SEED)
        res = refine(op, init.h, 1)
        best_restart = 0.0
        for i in range(20):
            h0 = np.random.default_rng(i).standard_normal(8)
            h0 /= np.linalg.norm(h0)
            r = refine(op, h0, 1)
            best_restart = max(best_restart, f_value(r.quad_values, 1))
        assert f_value(res.quad_values, 1) >= 0.99 * best_restart


def recording_refine(monkeypatch):
    """Route select_group's refine calls through a recorder; returns the
    list the starts are appended to."""
    starts = []

    def recording(op, h0, p):
        starts.append(h0)
        return refine(op, h0, p)

    monkeypatch.setattr(selection, "refine", recording)
    return starts


class TestSelectGroup:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape[-1])
    def test_lockstep_matches_per_start_loop(self, shape, kind, p, rng, monkeypatch):
        op = shaped_operator(rng, shape, kind)
        # select_group against refining its distinct starts one at a time:
        # both ends of every live output, or only the top ends under a mirror
        distinct = []
        H, q = _spectrum_ends(op, SEED)
        for ends, vals in zip(H, q):
            for h in (ends if op.mirror is None else ends[:1]) if vals.any() else ():
                if all(abs(h @ g) < 1.0 - 1e-6 for g in distinct):
                    distinct.append(h)
        best = None
        for h0 in distinct:
            r = refine(op, h0, p)
            if best is None or f_value(r.quad_values, p) > f_value(best.quad_values, p):
                best = r
        started = recording_refine(monkeypatch)
        res = select_group(op, p, SEED)
        monkeypatch.undo()
        # one refine call per distinct start, in order, so a tracer sees each
        assert len(started) == len(distinct)
        assert all(np.array_equal(a, b) for a, b in zip(started, distinct))
        assert np.array_equal(res.h, best.h)
        assert np.array_equal(res.quad_values, best.quad_values)
        assert res.trace == best.trace

    @pytest.mark.parametrize("p", [1, 2])
    def test_refine_commutes_with_mirror(self, p, rng):
        # on one-hot FM operators (dense and sparse storage) every round
        # maps h to s o h exactly (M_w(s o h) = -M_w(h) = diag(s) M_w(h)
        # diag(s)), so a mirrored start ends at the mirrored point with the
        # same trace, bit for bit
        for shape in [sh for sh in STORAGE_SHAPES if sh[3]]:
            op, _ = random_operator(rng, *shape[:3], kind="fm", one_hot=True)
            s = op.mirror
            for h0 in _spectrum_ends(op, SEED)[0].reshape(-1, op.d):
                a, b = refine(op, h0, p), refine(op, s * h0, p)
                assert np.array_equal(b.h, s * a.h)
                assert np.array_equal(b.quad_values, -a.quad_values)
                assert b.trace == a.trace

    @pytest.mark.parametrize("p", [1, 2])
    def test_mirror_refines_one_start_per_live_output(self, p, rng, monkeypatch):
        # select_group refines only top ends under a mirror, and its f
        # stays close to refining both ends of every live output (the start
        # set without the mirror). The Lanczos bottom end is the top end's
        # mirror only to the eigensolver's accuracy (overlap >= 1 - 1e-6),
        # and the p = 1 rounds are sensitive to such a change of start: over
        # 900 draws of random_operator(default_rng(501), 40, 30, 3, fm,
        # one-hot) at Lanczos seeds 0-3 and 7, the worst p = 1 shortfall was
        # 1.18e-3 (seed 3, draw 833) and 8.9e-4 (seed 7, draw 514), with
        # every end overlapping its mirror to >= 1 - 1e-6. The one draw with
        # a repeated top eigenvalue (seed 3, draw 625; overlap 4.6e-3) fell
        # short by only 2.9e-8. p = 2 fell short by at most 1.4e-6 on three
        # batches of 300 such operators. The draws here stay within the bounds
        bound = 1e-4 if p == 1 else 1e-5
        checked = 0
        for shape in [sh for sh in STORAGE_SHAPES if sh[3]] * 4:
            op, _ = random_operator(rng, *shape[:3], kind="fm", one_hot=True)
            assert op.mirror is not None
            H, q = _spectrum_ends(op, SEED)
            live = q.any(axis=1)
            best = max(f_value(refine(op, h, p).quad_values, p)
                       for h in H[live].reshape(-1, op.d))
            started = recording_refine(monkeypatch)
            res = select_group(op, p, SEED)
            monkeypatch.undo()
            assert len(started) == live.sum()
            assert f_value(res.quad_values, p) >= (1.0 - bound) * best
            checked += live.any()
        assert checked >= 10

    def test_single_output_matches_l1_route(self, rng):
        op, _ = random_operator(rng, 10, 5, 1)
        group = select_group(op, 1, SEED)
        l1 = select_l1(op, SEED)
        assert group.score >= l1.score - 1e-10

    @pytest.mark.parametrize("p", [1, 2])
    def test_never_worse_than_l1_init(self, p, rng):
        for seed in range(6):
            op, _ = random_operator(np.random.default_rng(100 + seed), 12, 6, 4)
            init = select_l1(op, SEED)
            group = select_group(op, p, SEED)
            assert f_value(group.quad_values, p) >= f_value(init.quad_values, p) - 1e-10

    def test_table_guarantee_against_exact_oracle(self, rng):
        for seed in range(10):
            m = 2 + seed % 5
            op, _ = logistic_instance(np.random.default_rng(200 + seed), 30, 9, m)
            group = select_group(op, 1, SEED)
            exact = exact_oracle_linf(op)
            nu = f_value(group.quad_values, 1) / exact.score
            assert nu >= (1 - LANCZOS_EPS) / m

    def test_degenerate_propagates(self, rng):
        op, _ = random_operator(rng, 5, 4, 2)
        op.set_gradients(np.zeros((5, 2)))
        res = select_group(op, 2, SEED)
        assert res.score == 0.0 and res.trace is None


class TestExactOracle:
    def test_single_output_matches_the_spectrum_ends(self, rng, monkeypatch):
        # the (100, 150) operator is matrix-free and wide enough for Lanczos
        # to stop on its residual test, which the tighter LANCZOS_EPS sets
        monkeypatch.setattr(gradients, "LANCZOS_EPS", 1e-3)
        for n, d in [(10, 6), (100, 150)]:
            op, _ = random_operator(rng, n, d, 1)
            exact = exact_oracle_linf(op)
            H, q = _spectrum_ends(op, 3)
            val = np.abs(q[0]).max()
            assert exact.score >= val >= (1 - 1e-3) * exact.score
            assert exact.score >= select_l1(op, 3).score >= (1 - 1e-3) * exact.score
            A = op.dense_matrix(0)
            for h, end in zip(H[0], q[0]):
                residual = np.linalg.norm(A @ h - end * h)
                assert residual <= 0.05 * 1e-3 * exact.score * (1 + 1e-6) + 1e-12

    def test_two_orthogonal_outputs(self):
        # f_1 = h1^2 + h2^2 = 1 on the whole unit sphere
        op = diag_operator(np.array([[1.0, 0.0], [0.0, 1.0]]))
        exact = exact_oracle_linf(op)
        assert exact.score == pytest.approx(1.0, rel=1e-12)

    def test_beats_random_sampling(self, rng):
        op, _ = random_operator(rng, 12, 6, 3)
        exact = exact_oracle_linf(op)
        sampler = np.random.default_rng(0)
        for _ in range(10000):
            h = sampler.standard_normal(6)
            h /= np.linalg.norm(h)
            assert f_value(op.quad_values(h), 1) <= exact.score + 1e-9

    def test_output_limit_refused(self, rng):
        op, _ = random_operator(rng, 5, 4, 13)
        with pytest.raises(OracleLimitError, match="exponential"):
            exact_oracle_linf(op)


class TestBaselines:
    def test_best_data_on_identity_rows(self, rng):
        # rows are standard basis vectors: the best row solves the diagonal case
        op = diag_operator(np.array([[5.0], [2.0]]))
        res = baseline_best_data(op, op.ds)
        assert res.score == pytest.approx(5.0)
        assert abs(res.h[0]) == pytest.approx(1.0)

    def test_single_row_dataset(self, rng):
        x = rng.standard_normal(4)
        ds = make_dataset(x[None, :], np.array([1]), 2)
        op = GradientOperator(ds, "pn", n_outputs=2)
        op.set_gradients(np.array([[1.0, -2.0]]))
        res = baseline_best_data(op, ds)
        assert abs(res.h @ (x / np.linalg.norm(x))) == pytest.approx(1.0)

    def test_best_data_skips_zero_rows(self, rng):
        X = np.zeros((3, 4))
        X[1] = rng.standard_normal(4)
        ds = make_dataset(X, np.array([1, 1, 1]), 2)
        op = GradientOperator(ds, "pn", n_outputs=2)
        op.set_gradients(rng.standard_normal((3, 2)))
        res = baseline_best_data(op, ds)
        assert np.array_equal(res.h, X[1] / np.linalg.norm(X[1]))
        assert np.array_equal(res.quad_values, op.quad_values(res.h))

    def test_best_data_on_all_zero_rows(self, rng):
        ds = make_dataset(np.zeros((3, 4)), np.array([1, 1, 1]), 2)
        op = GradientOperator(ds, "pn", n_outputs=2)
        op.set_gradients(rng.standard_normal((3, 2)))
        res = baseline_best_data(op, ds)
        assert res.score == 0.0
        assert not res.h.any() and not res.quad_values.any()
        assert res.h.shape == (4,) and res.quad_values.shape == (2,)

    def test_random_baseline_unit_norm(self, rng):
        op, _ = random_operator(rng, 8, 5, 2)
        res = baseline_random(op, SEED)
        assert np.linalg.norm(res.h) == pytest.approx(1.0)

    def test_group_selection_usually_beats_best_data(self):
        wins = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(300 + seed)
            op, ds = logistic_instance(rng, 30, 8, 4)
            ours = f_value(select_group(op, 1, seed).quad_values, 1)
            theirs = f_value(baseline_best_data(op, ds).quad_values, 1)
            if ours >= theirs - 1e-12:
                wins += 1
        assert wins >= 0.9 * trials


class TestCompareHarness:
    def test_contains_all_methods(self, rng):
        op, ds = logistic_instance(rng, 20, 6, 3)
        results = compare_methods(op, SEED, ds=ds)
        assert set(results) == {"l1-init+refine", "l1-init", "random-init",
                                "random-init+refine", "best-data", "exact"}
        for res in results.values():
            assert isinstance(res, SelectionResult)
            assert np.linalg.norm(res.h) <= 1.0 + 1e-9
