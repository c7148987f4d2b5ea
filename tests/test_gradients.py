import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import SHAPES, csr_twin, random_operator, shaped_operator
from oracles import activation, loss_gradient
from polyfactor import gradients
from polyfactor.data import make_dataset
from polyfactor.gradients import DENSE_BLOCK, LANCZOS_EPS, GradientOperator
from polyfactor.losses import loss_values
from polyfactor.models import Model, empty_model, hidden_activations
from polyfactor.mcrank import build_ordinal

TESTS = Path(__file__).resolve().parent


def eq8_direct(op, h, c):
    # per-sample summation of the gradient entry definition
    total = 0.0
    for i in range(op.n):
        x = op.X.getrow(i).toarray().ravel()
        total -= activation(op.kind, h, x) * op.D[i, c]
    return total


def oracle_matrix(Xd, D, c, kind):
    """A_c from a dense X, independent of the operator's own copy of X."""
    M = Xd.T @ (D[:, c][:, None] * Xd)
    if kind == "pn":
        return M
    return 0.5 * (M - np.diag((Xd * Xd).T @ D[:, c]))


class TestBackend:
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_rule_boundary(self, kind, rng):
        # dense 6 x 3 X has nnz = m d^2 = 18 with m = 2; one row fewer does
        # not, and then its 3-nonzero rows hold more than 2 nnz(X) feature
        # pairs for PN (r^2 = 9 > 6) but exactly 2 nnz(X) for FM (r(r-1) = 6)
        for n, storage in [(6, "dense"), (5, "free" if kind == "pn" else "sparse")]:
            ds = make_dataset(rng.standard_normal((n, 3)), np.ones(n, dtype=np.int64), 2)
            assert GradientOperator(ds, kind).storage == storage

    @pytest.mark.parametrize("kind, width", [("pn", 2), ("fm", 3)])
    def test_sparse_rule_boundary(self, kind, width, rng):
        # rows of `width` nonzeros hold exactly 2 nnz(X) feature pairs
        # (PN r^2, FM r(r-1)); widening one row by a nonzero tips it over
        n, d, m = 10, 12, 2
        X = np.zeros((n, d))
        for i in range(n):
            X[i, rng.choice(d, width, replace=False)] = 1.0 + rng.random(width)
        y = np.ones(n, dtype=np.int64)
        assert GradientOperator(make_dataset(X, y, m), kind).storage == "sparse"
        X[0, np.flatnonzero(X[0] == 0.0)[0]] = 1.0
        assert GradientOperator(make_dataset(X, y, m), kind).storage == "free"

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_dense_stack_built_only_from_gradients(self, kind, rng, monkeypatch):
        # construction holds no gradients, so it builds no placeholder stack
        calls = []
        build = GradientOperator._dense_stack
        monkeypatch.setattr(GradientOperator, "_dense_stack",
                            lambda op, D: calls.append(1) or build(op, D))
        n, d, m = SHAPES[1][:3]
        ds = make_dataset(rng.standard_normal((n, d)), np.ones(n, dtype=np.int64), m)
        op = GradientOperator(ds, kind)
        assert op.storage == "dense" and not calls
        op.set_gradients(rng.standard_normal((n, m)))
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_new_gradients_reassemble(self, kind, rng):
        for shape in SHAPES[1:]:
            op = shaped_operator(rng, shape, kind)
            op.set_gradients(rng.standard_normal((op.n, op.m)))
            h = rng.standard_normal(op.d)
            for c in range(op.m):
                assert np.abs(op.weighted(np.eye(op.m)[c])(h) - op.dense_matrix(c) @ h).max() \
                    < 1e-12

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("block", [1, 84])
    def test_dense_stack_in_row_blocks(self, kind, block, rng, monkeypatch):
        # the dense shape (n = 40, m d = 12) refreshes in 40 one-row blocks,
        # or in 7-row blocks with a short last one
        monkeypatch.setattr("polyfactor.gradients.DENSE_BLOCK", block)
        op = shaped_operator(rng, SHAPES[1], kind)
        op.set_gradients(rng.standard_normal((op.n, op.m)))
        h = rng.standard_normal(op.d)
        for c in range(op.m):
            assert np.abs(op.weighted(np.eye(op.m)[c])(h) - op.dense_matrix(c) @ h).max() < 1e-12

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("block", [1, 40])
    def test_free_block_in_chunks(self, kind, block, rng, monkeypatch):
        # DENSE_BLOCK chunks only the dense refresh: the matrix-free shape
        # (n m = 15) applies each of 7 vectors to every output and reads
        # their quadratic forms the same under any block size
        op = shaped_operator(rng, SHAPES[0], kind)
        H = rng.standard_normal((7, op.d))
        E = np.eye(op.m)
        whole = [([op.weighted(e)(h) for e in E], op.quad_values(h)) for h in H]
        monkeypatch.setattr("polyfactor.gradients.DENSE_BLOCK", block)
        for h, (rows, quads) in zip(H, whole):
            assert np.array_equal(op.quad_values(h), quads)
            for c, e in enumerate(E):
                assert np.array_equal(op.weighted(e)(h), rows[c])

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_dense_storage_memory_on_sparse_x(self, kind, rng):
        # sparse X (25% density) that still meets the dense rule: building and
        # refreshing allocate nothing near an n x d^2 pair map (25.6 MB here)
        n, d, m = 2000, 40, 2
        X = sp.random(n, d, density=0.25, random_state=1, format="csr")
        ds = make_dataset(X, np.ones(n, dtype=np.int64), m)
        D = rng.standard_normal((n, m))
        tracemalloc.start()
        try:
            op = GradientOperator(ds, kind)
            op.set_gradients(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.storage == "dense"
        assert peak < 8 * DENSE_BLOCK + 8 * n * d
        h = rng.standard_normal(d)
        assert np.abs(op.weighted(np.eye(op.m)[1])(h)
                      - oracle_matrix(X.toarray(), D, 1, kind) @ h).max() < 1e-12

    def test_sparse_storage_memory(self):
        # one-hot FM rows over 300 + 500 columns (18,738 distinct pairs, one
        # slot each): build and two refreshes retain the pair map plus one
        # (m, slots) value array and the slots' int32 pattern, which weighted,
        # eigenpairs and quad_values share (no m-fold stacked CSR, no value
        # array on the pattern, no second copy of the slots' columns); the
        # build gathers no a = b pair and no pair twice, so its peak stays
        # within a few pair maps
        n, m = 20_000, 5
        rng = np.random.default_rng(0)
        cols = np.stack([rng.integers(0, 300, n), rng.integers(300, 800, n)], 1)
        X = sp.csr_matrix((np.ones(2 * n), (np.repeat(np.arange(n), 2), cols.ravel())),
                          shape=(n, 800))
        ds = make_dataset(X, np.ones(n, dtype=np.int64), m)
        D1, D2 = rng.standard_normal((2, n, m))
        tracemalloc.start()
        try:
            op = GradientOperator(ds, "fm")
            build_peak = tracemalloc.get_traced_memory()[1]
            op.set_gradients(D1)
            op.set_gradients(D2)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        slots = op.P.shape[1]
        assert (op.storage, slots) == ("sparse", len(set(map(tuple, cols.tolist()))))
        assert slots == 18_738
        pair_map = op.M.data.nbytes + op.M.indices.nbytes + op.M.indptr.nbytes
        assert retained < pair_map + (8 * m + 8) * slots
        assert build_peak < 6.5 * pair_map

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_sparse_weighted_sums_the_stored_values(self, kind, rng):
        # one slot per unordered pair of X^T X's pattern (FM: off the
        # diagonal): w @ P is the CSR data of C, bit for bit (P[c] itself at w
        # = e_c), and weighted(w) applies C + C^T. C is the triangle a <= b
        # (PN halves its diagonal), or under a mirror the smaller colour
        # class's rows by the other class's columns
        op = shaped_operator(rng, SHAPES[2], kind)
        absX = abs(op.X.toarray())
        pattern = absX.T @ absX > 0
        if kind == "fm":
            np.fill_diagonal(pattern, False)
        assert op.P.shape[1] == np.triu(pattern).sum()
        U, V = op._sides
        if op.mirror is not None:
            assert len(U) <= len(V) and np.all(op.mirror[U] == op.mirror[U[0]])
        for w in [*rng.standard_normal((3, op.m)), *np.eye(op.m)]:
            block = op._block(w)
            assert np.array_equal(block.data, w @ op.P)
            C = np.zeros((op.d, op.d))
            C[np.ix_(U, V)] = block.toarray()
            if op.mirror is None:
                assert np.array_equal(C, np.triu(C))
            assert np.array_equal((C != 0) | (C.T != 0), pattern & ((C != 0) | (C.T != 0)))
            apply = op.weighted(w)
            for j, e in enumerate(np.eye(op.d)):
                assert np.array_equal(apply(e), (C + C.T)[:, j])

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_all_zero_design(self, kind, rng):
        ds = make_dataset(np.zeros((6, 4)), np.ones(6, dtype=np.int64), 2)
        op = GradientOperator(ds, kind)
        op.set_gradients(rng.standard_normal((6, 2)))
        assert op.storage == "sparse"
        h = rng.standard_normal(4)
        assert not op.weighted(rng.standard_normal(2))(h).any()
        assert not op.weighted(np.eye(op.m)[1])(h).any()
        assert not op.quad_values(h).any()

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_single_nonzero_rows(self, kind, rng):
        n, d, m = 7, 5, 2
        X = np.zeros((n, d))
        X[np.arange(n), rng.integers(0, d, n)] = rng.standard_normal(n)
        op = GradientOperator(make_dataset(X, np.ones(n, dtype=np.int64), m), kind)
        op.set_gradients(rng.standard_normal((n, m)))
        assert op.storage == "sparse"
        h = rng.standard_normal(d)
        for c in range(m):
            assert np.abs(op.weighted(np.eye(op.m)[c])(h)
                          - oracle_matrix(X, op.D, c, kind) @ h).max() < 1e-12

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_non_canonical_csr(self, kind, rng):
        # duplicate and unsorted column indices, canonicalised by make_dataset
        X = sp.csr_matrix((rng.standard_normal(6), np.array([3, 1, 3, 0, 2, 0]),
                           np.array([0, 3, 6])), shape=(2, 4))
        ds = make_dataset(X, np.ones(2, dtype=np.int64), 2)
        op = GradientOperator(ds, kind)
        op.set_gradients(rng.standard_normal((2, 2)))
        assert op.storage == "sparse"
        h = rng.standard_normal(4)
        for c in range(2):
            assert np.abs(op.weighted(np.eye(op.m)[c])(h)
                          - oracle_matrix(X.toarray(), op.D, c, kind) @ h).max() \
                < 1e-12

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_no_features_refused(self, kind):
        # d = 0 leaves no basis vector to select
        ds = make_dataset(sp.csr_matrix((3, 0)), np.array([1, 2, 1]), 2)
        with pytest.raises(ValueError, match="no features"):
            GradientOperator(ds, kind)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape[-1])
    def test_overflowing_build_refused(self, shape, kind, rng):
        # finite features whose products overflow float64, on every storage
        op = shaped_operator(rng, shape, kind)
        ds = make_dataset(op.X * 1e200, np.ones(op.n, dtype=np.int64), op.m)
        huge = GradientOperator(ds, kind, n_outputs=op.m)
        assert huge.storage == op.storage
        with pytest.raises(FloatingPointError, match="non-finite gradient operator.*overflow"):
            huge.set_gradients(op.D)


def pair_rows(pairs, d, extra=()):
    """A 0/1 design with one row per column pair, then the rows ``extra``
    (tuples of columns; empty for an all-zero row)."""
    rows = [tuple(pr) for pr in pairs] + [tuple(r) for r in extra]
    X = np.zeros((len(rows), d))
    for i, cols in enumerate(rows):
        X[i, list(cols)] = 1.0
    return make_dataset(X, np.ones(len(rows), dtype=np.int64), 2)


def two_colourable(pairs, d):
    return any(all(s[a] != s[b] for a, b in pairs)
               for s in itertools.product((0, 1), repeat=d))


class TestMirror:
    """``op.mirror``: a sign vector s with s_a s_b = -1 on every FM row pair,
    so that s o (A_c (s o h)) = -A_c h, or None when no such s exists."""

    def test_one_hot_fm_data(self, rng):
        # users 0-5, items 6-13, and columns 14 and 15 in no pair (isolated),
        # plus all-zero rows and single-nonzero rows
        pairs = np.stack([rng.integers(0, 6, 40), rng.integers(6, 14, 40)], axis=1)
        ds = pair_rows(pairs, 16, extra=[(), (3,), (), (15,)])
        op = GradientOperator(ds, "fm")
        s = op.mirror
        assert s is not None and set(np.unique(s)) <= {-1.0, 1.0}
        assert np.all(s[pairs[:, 0]] * s[pairs[:, 1]] == -1.0)
        op.set_gradients(rng.standard_normal((ds.n, 2)))
        for c in range(2):
            M = op.dense_matrix(c)  # its diagonal is a rounding residue
            assert np.allclose(s[:, None] * M * s[None, :], -M, rtol=0, atol=1e-12)

    def test_components_coloured_apart(self):
        # an even cycle, a path longer than the cycle, and two isolated columns
        cycle = [(i, (i + 1) % 6) for i in range(6)]
        path = [(i, i + 1) for i in range(6, 17)]
        s = GradientOperator(pair_rows(cycle + path, 20), "fm").mirror
        assert s is not None
        assert all(s[a] * s[b] == -1.0 for a, b in cycle + path)

    def test_none_for_pn_triangles_and_odd_cycles(self, rng):
        pairs = np.stack([rng.integers(0, 4, 20), rng.integers(4, 9, 20)], axis=1)
        assert GradientOperator(pair_rows(pairs, 9), "pn").mirror is None
        assert GradientOperator(pair_rows(pairs, 9, extra=[(0, 4, 5)]), "fm").mirror is None
        # a 5-cycle of 2-nonzero rows next to a bipartite component
        cycle = [(9, 10), (10, 11), (11, 12), (12, 13), (9, 13)]
        assert GradientOperator(pair_rows(np.vstack([pairs, cycle]), 14), "fm").mirror is None

    def test_matches_brute_force_colouring(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            pairs = [tuple(rng.choice(d, 2, replace=False)) for _ in range(rng.integers(1, 10))]
            s = GradientOperator(pair_rows(pairs, d), "fm").mirror
            assert (s is not None) == two_colourable(pairs, d), pairs
            assert s is None or all(s[a] * s[b] == -1.0 for a, b in pairs)

    @pytest.mark.parametrize("shape", [(60, 6, 1, 1.0, True, "dense")] + SHAPES[::-1],
                             ids=lambda shape: ("one-hot-" if shape[4] else "") + shape[-1])
    def test_mirror_negates_every_output(self, shape, rng):
        # one-hot FM rows reach the dense and the sparse storage with a
        # mirror; rows of three or more nonzeros (the other shapes, and all
        # matrix-free FM data) are triangles, so there the mirror is None
        for _ in range(10):
            op = shaped_operator(rng, shape, "fm")
            s = op.mirror
            if not shape[4]:
                assert s is None
                continue
            H = rng.standard_normal((3, op.d))
            E = np.eye(op.m)
            for h in H:
                for e in E:
                    A = op.weighted(e)
                    assert np.array_equal(s * A(s * h), -A(h))
            for c in range(op.m):
                M = op.dense_matrix(c)
                assert np.allclose(s * (M @ (s * H[0])), -(M @ H[0]), rtol=0, atol=1e-12)
                assert np.abs(op.weighted(E[c])(H[0]) - M @ H[0]).max() < 1e-12
            assert np.array_equal(op.quad_values(s * H[0]), -op.quad_values(H[0]))
            w = rng.standard_normal(op.m)
            assert np.array_equal(s * op.weighted(w)(s * H[0]),
                                  -op.weighted(w)(H[0]))


class TestRefresh:
    def test_empty_logistic_model_gives_centered_softmax(self, rng):
        n, d, m = 12, 4, 5
        X = rng.standard_normal((n, d))
        y = rng.integers(1, m + 1, size=n)
        ds = make_dataset(X, y, m)
        op = GradientOperator(ds, "pn")
        op.refresh(empty_model("pn", d, m, "logistic", "l1", 0.1))
        for i in range(n):
            for c in range(m):
                expected = 1.0 / m - (1.0 if c + 1 == y[i] else 0.0)
                assert op.D[i, c] == pytest.approx(expected, rel=1e-12)

    def test_binary_logistic_at_zero_outputs(self, rng):
        n, d, m = 10, 3, 4
        X = rng.standard_normal((n, d))
        y = rng.integers(1, m + 1, size=n)
        ds = build_ordinal(make_dataset(X, y, m))
        op = GradientOperator(ds, "fm")
        op.refresh(empty_model("fm", d, m, "binary-logistic", "l1linf", 0.1))
        assert np.allclose(op.D, -ds.Y / 2.0)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_dense_x_matches_csr_x(self, kind, rng, monkeypatch):
        # a dense design's refresh reads the dense X: the outputs, hence D,
        # agree with the CSR X's to rounding, and the same D builds the same
        # stack bit for bit (both blocks are the same dense rows)
        n, d, m, k = 40, 4, 3, 3
        ds = make_dataset(rng.standard_normal((n, d)), rng.integers(1, m + 1, size=n), m)
        twin = csr_twin(ds, monkeypatch)
        H = rng.standard_normal((k, d))
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        model = Model(kind, H, rng.standard_normal((k, m)), "logistic", "l1", 0.1)
        op, twin_op = GradientOperator(ds, kind), GradientOperator(twin, kind)
        assert op.storage == twin_op.storage == "dense"
        op.refresh(model)
        twin_op.refresh(model)
        np.testing.assert_allclose(op.D, twin_op.D, rtol=1e-12, atol=1e-15)
        twin_op.set_gradients(op.D)
        assert np.array_equal(op.stack, twin_op.stack)

    def test_matches_rowwise_loss_gradients(self, rng):
        n, d, m, k = 15, 6, 3, 4
        X = rng.standard_normal((n, d))
        y = rng.integers(1, m + 1, size=n)
        ds = make_dataset(X, y, m)
        H = rng.standard_normal((k, d))
        H /= np.maximum(np.linalg.norm(H, axis=1, keepdims=True), 1.0)
        model = Model("pn", H, rng.standard_normal((k, m)), "squared-hinge", "l1", 0.1)
        op = GradientOperator(ds, "pn")
        op.refresh(model)
        Phi = hidden_activations("pn", H, ds.X)
        for i in range(n):
            o = Phi[i] @ model.V
            assert np.allclose(op.D[i], loss_gradient("squared-hinge", int(y[i]), o))


class TestMatvec:
    def test_zero_diagonal_gives_zero(self, rng):
        op, _ = random_operator(rng, 8, 5, 2)
        op.set_gradients(np.zeros((8, 2)))
        assert np.allclose(op.weighted(np.eye(op.m)[0])(rng.standard_normal(5)), 0.0)

    def test_identity_design_is_diagonal(self, rng):
        # X = I makes the PN operator the diagonal of the gradient column
        n = 6
        w = rng.standard_normal(n)
        ds = make_dataset(np.eye(n), np.ones(n, dtype=np.int64), 1)
        op = GradientOperator(ds, "pn")
        op.set_gradients(w[:, None])
        h = rng.standard_normal(n)
        assert np.allclose(op.weighted(np.eye(op.m)[0])(h), w * h)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_matches_dense_assembly(self, kind, rng):
        for shape in SHAPES * 25:
            op = shaped_operator(rng, shape, kind)
            for c in range(op.m):
                M = op.dense_matrix(c)
                h = rng.standard_normal(op.d)
                assert np.abs(op.weighted(np.eye(op.m)[c])(h) - M @ h).max() < 1e-12

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_unit_weights_apply_each_output(self, kind, rng):
        # weighted at the c-th unit vector is A_c, on every storage
        for shape in SHAPES:
            op = shaped_operator(rng, shape, kind)
            h = rng.standard_normal(op.d)
            for c, e in enumerate(np.eye(op.m)):
                applied = op.weighted(e)(h)
                assert applied.shape == (op.d,)
                assert np.abs(applied - op.dense_matrix(c) @ h).max() < 1e-12

    def test_fm_dense_form_disambiguation(self, rng):
        # dense FM operator equals (X^T D_c X - sum_i D_ic diag(x_i)^2) / 2
        op, _ = random_operator(rng, 7, 4, 2, kind="fm")
        Xd = op.X.toarray()
        for c in range(2):
            M = Xd.T @ np.diag(op.D[:, c]) @ Xd
            corr = np.zeros((4, 4))
            for i in range(7):
                corr += op.D[i, c] * np.diag(Xd[i] ** 2)
            assert np.allclose(op.dense_matrix(c), 0.5 * (M - corr), atol=1e-12)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_operator_symmetry(self, kind, rng):
        op, _ = random_operator(rng, 10, 6, 3, kind=kind)
        for c in range(3):
            for _ in range(5):
                u = rng.standard_normal(6)
                v = rng.standard_normal(6)
                a = u @ op.weighted(np.eye(op.m)[c])(v)
                b = v @ op.weighted(np.eye(op.m)[c])(u)
                assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_tracer_shims_are_weighted(self, kind, rng):
        # matvec and weighted_matvec stay only because the benchmark tracer
        # wraps them by name: each is ``weighted`` bit for bit
        for shape in SHAPES:
            op = shaped_operator(rng, shape, kind)
            h = rng.standard_normal(op.d)
            w = rng.standard_normal(op.m)
            assert np.array_equal(op.weighted_matvec(w, h), op.weighted(w)(h))
            for c in range(op.m):
                assert np.array_equal(op.matvec(c, h), op.weighted(np.eye(op.m)[c])(h))

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_weighted_matvec_is_weighted_sum(self, kind, rng):
        for shape in SHAPES:
            op = shaped_operator(rng, shape, kind)
            h = rng.standard_normal(op.d)
            # random weights, and the one-hot weights of the spectrum ends
            for w in [rng.standard_normal(op.m), *np.eye(op.m)]:
                expected = sum(w[c] * (op.dense_matrix(c) @ h) for c in range(op.m))
                assert np.allclose(op.weighted(w)(h), expected, rtol=1e-12, atol=1e-12)


def no_starts():
    """A start generator that fails when drawn from (dense storage draws none)."""
    raise AssertionError("dense storage drew a Lanczos start")
    yield


class TestEigenpairs:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape[-1])
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_rows_are_one_row_calls(self, shape, kind, rng):
        # unit weights (the spectrum ends) and random weights (the rounds)
        op = shaped_operator(rng, shape, kind)
        W = np.vstack([np.eye(op.m), rng.standard_normal((3, op.m))])
        starts = rng.standard_normal((len(W), op.d))
        starts /= np.linalg.norm(starts, axis=1)[:, None]
        if op.storage == "dense":
            starts = no_starts()
        H, q = op.eigenpairs(W, starts, [-1, 0])
        assert H.shape == (len(W), 2, op.d) and q.shape == (len(W), 2)
        for i, w in enumerate(W):
            one = no_starts() if op.storage == "dense" else starts[i:i + 1]
            H1, q1 = op.eigenpairs(w[None], one, [-1, 0])
            assert np.array_equal(H1[0], H[i]) and np.array_equal(q1[0], q[i])
            A = sum(w[c] * op.dense_matrix(c) for c in range(op.m))
            vals = np.linalg.eigvalsh(A)
            rho = np.abs(vals).max()
            assert np.abs(q[i] - vals[[-1, 0]]).max() <= LANCZOS_EPS * rho + 1e-12
            for h, val in zip(H[i], q[i]):
                assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)
                assert abs(val - h @ A @ h) <= 1e-10 * max(rho, 1.0)

    @staticmethod
    def diagonal_run(d, gap):
        # a diagonal operator whose two ends stand `gap` clear of the rest
        lam = np.linspace(-1.0, 1.0, d)
        lam[[0, -1]] = -1.0 - gap, 1.0 + gap
        steps = []

        def apply(h):
            steps.append(1)
            return lam * h

        H, q = gradients._lanczos(apply, np.full(d, d ** -0.5), [-1, 0])
        return H, q, len(steps)

    def test_lanczos_stops_at_the_first_passing_step(self):
        # the Ritz residual is not monotone: on this clustered top the stop
        # test first passes at step 24 (0-based), holds to step 27, fails at
        # steps 28-42 and passes again at 43. A stop test run only every few
        # steps must still stop at step 24, after 25 applies
        d = 200
        rng = np.random.default_rng(1)
        lam = np.sort(rng.uniform(-1.0, 1.0, d))
        lam[-5:] = 1.0 + 0.001 * rng.random(5)
        applies = []

        def apply(h):
            applies.append(1)
            return lam * h

        H, q = gradients._lanczos(apply, np.full(d, d ** -0.5), [-1])
        assert len(applies) == 25
        assert abs(q[0] - lam.max()) <= LANCZOS_EPS * lam.max()
        assert np.linalg.norm(H[0]) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def resident_rise(d, gap):
        """(steps, q, bytes): one diagonal_run in a fresh process and how far
        its peak resident set ends above the resident set it started from.
        Both come from Linux's /proc/self/status (VmHWM, VmRSS, in KiB):
        ru_maxrss would start at the peak of the process that spawned it,
        since Linux carries that across exec. The imports' own peak may lie
        above the start, so the figure can only overstate the run's."""
        code = ("import json\n"
                "from test_gradients import TestEigenpairs\n"
                "def status(key):\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(1024 * int(line.split()[1]) for line in fh\n"
                "                    if line.startswith(key + ':'))\n"
                "before = status('VmRSS')\n"
                f"H, q, steps = TestEigenpairs.diagonal_run({d}, {gap})\n"
                "print(json.dumps([steps, list(q), status('VmHWM') - before]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        steps, q, rise = json.loads(proc.stdout.splitlines()[-1])
        return steps, np.array(q), rise

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak resident set from Linux's /proc")
    def test_lanczos_buffers_grow_with_the_steps(self):
        # Q is allocated for LANCZOS_MAX_STEPS rows (48 MB at d = 20,000) but
        # only the 36 rows written, 5.8 MB, become resident
        steps, q, rise = self.resident_rise(20_000, 0.045)
        assert steps == 36
        assert rise < 12e6
        assert np.abs(q - [1.045, -1.045]).max() <= LANCZOS_EPS * 1.045

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak resident set from Linux's /proc")
    def test_mid_length_lanczos_run_holds_only_its_rows(self):
        # 188 steps at d = 20,000 write 30 MB of rows; a buffer grown by
        # copying holds the old rows and the new ones at once (48 MB)
        steps, q, rise = self.resident_rise(20_000, 0.0002)
        assert steps == 188
        assert rise < 40e6
        assert np.abs(q - [1.0002, -1.0002]).max() <= LANCZOS_EPS * 1.0002

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_dense_unit_weights_are_the_stack_eigh(self, kind, rng):
        op = shaped_operator(rng, SHAPES[1], kind)
        vals, vecs = np.linalg.eigh(op.stack)
        H, q = op.eigenpairs(np.eye(op.m), no_starts(), [-1, 0])
        assert np.array_equal(q, vals[:, [-1, 0]])
        assert np.array_equal(H, vecs.transpose(0, 2, 1)[:, [-1, 0]])


def bipartite_operator(rng, n, d, m):
    """A one-hot FM operator on sparse storage with a sign mirror, and its
    colour classes (U the smaller)."""
    op, _ = random_operator(rng, n, d, m, kind="fm", one_hot=True)
    assert op.storage == "sparse" and op.mirror is not None
    U, V = op._sides
    assert len(U) + len(V) == op.d and len(U) <= len(V)
    return op, U, V


class TestBipartite:
    """Sparse storage under a mirror solves A_w = [[0, B], [B^T, 0]] on B's
    Gram side: the top end from B's top singular triplet, the bottom end
    its mirror."""

    def test_ends_match_eigh(self, rng, monkeypatch):
        # shuffled one-hot columns: the colour classes are neither contiguous
        # nor the user and item fields
        lengths = []
        lanczos = gradients._lanczos
        monkeypatch.setattr(gradients, "_lanczos",
                            lambda apply, v0, ends: lengths.append(v0.size)
                            or lanczos(apply, v0, ends))
        for n, d, m in [(40, 30, 3), (400, 200, 2), (60, 16, 1)] * 3:
            op, U, V = bipartite_operator(rng, n, d, m)
            assert not (np.all(np.diff(U) == 1) and np.all(np.diff(V) == 1))
            W = np.vstack([np.eye(m), rng.standard_normal((2, m))])
            starts = rng.standard_normal((len(W), op.d))
            starts /= np.linalg.norm(starts, axis=1)[:, None]
            lengths.clear()
            H, q = op.eigenpairs(W, starts, [-1, 0])
            assert lengths == [len(U)] * len(W)  # Lanczos ran on the Gram side only
            for w, (top, bottom), (hi, lo) in zip(W, H, q):
                A = sum(w[c] * op.dense_matrix(c) for c in range(m))
                vals = np.linalg.eigvalsh(A)
                sigma = np.abs(vals).max()
                assert np.array_equal(bottom, op.mirror * top) and lo == -hi
                assert abs(hi - vals[-1]) <= LANCZOS_EPS * sigma + 1e-12
                assert abs(lo - vals[0]) <= LANCZOS_EPS * sigma + 1e-12
                for h, val in ((top, hi), (bottom, lo)):
                    assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)
                    assert abs(val - h @ A @ h) <= 1e-10 * max(sigma, 1.0)
                    assert np.linalg.norm(A @ h - val * h) <= 0.05 * LANCZOS_EPS * sigma + 1e-12

    def test_weighted_is_the_weighted_sum(self, rng):
        for n, d, m in [(40, 30, 3), (400, 200, 2)]:
            op, _, _ = bipartite_operator(rng, n, d, m)
            for w in [rng.standard_normal(m), *np.eye(m), np.zeros(m)]:
                A = sum(w[c] * op.dense_matrix(c) for c in range(m))
                for h in rng.standard_normal((3, op.d)):
                    assert np.abs(op.weighted(w)(h) - A @ h).max() < 1e-12

    def test_zero_weights(self, rng):
        # sigma = 0: the top end is the start's normalised U part, at 0
        op, U, V = bipartite_operator(rng, 40, 30, 3)
        v0 = rng.standard_normal(op.d)
        v0 /= np.linalg.norm(v0)
        [[top, bottom]], [[hi, lo]] = op.eigenpairs(np.zeros((1, 3)), [v0], [-1, 0])
        assert hi == lo == 0.0
        assert np.allclose(top[U], v0[U] / np.linalg.norm(v0[U]), rtol=0, atol=1e-12)
        assert not top[V].any()
        assert np.array_equal(bottom, op.mirror * top)

    def test_start_without_mass_on_the_rows(self, rng):
        # a start on V alone begins the Gram side from a uniform vector
        op, U, V = bipartite_operator(rng, 40, 30, 3)
        v0 = np.zeros(op.d)
        v0[V] = rng.standard_normal(len(V))
        v0 /= np.linalg.norm(v0)
        H, q = op.eigenpairs(np.eye(3), [v0] * 3, [-1, 0])
        for c in range(3):
            vals = np.linalg.eigvalsh(op.dense_matrix(c))
            sigma = np.abs(vals).max()
            assert np.abs(q[c] - vals[[-1, 0]]).max() <= LANCZOS_EPS * sigma
            assert np.array_equal(H[c, 1], op.mirror * H[c, 0])

    def test_empty_colour_class(self, rng):
        # FM rows of one nonzero each form no pair: every column has one
        # colour, U is empty, A is zero, and both ends are the start at 0
        n, d = 12, 5
        X = np.zeros((n, d))
        X[np.arange(n), rng.integers(0, d, n)] = 1.0
        op = GradientOperator(make_dataset(X, np.ones(n, dtype=np.int64), 2), "fm")
        op.set_gradients(rng.standard_normal((n, 2)))
        assert op.storage == "sparse" and op.mirror is not None
        U, V = op._sides
        assert (len(U), len(V), op.P.shape[1]) == (0, d, 0)
        v0 = rng.standard_normal(d)
        v0 /= np.linalg.norm(v0)
        H, q = op.eigenpairs(np.eye(2), [v0, v0], [-1, 0])
        assert not q.any()
        for top, bottom in H:
            assert np.array_equal(top, v0) and np.array_equal(bottom, op.mirror * v0)
        h = rng.standard_normal(d)
        assert not op.weighted(np.ones(2))(h).any() and not op.quad_values(h).any()


class TestGradRow:
    def test_zero_vector(self, rng):
        op, _ = random_operator(rng, 6, 4, 3)
        assert np.allclose(-op.quad_values(np.zeros(4)), 0.0)

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_single_sample_expansion(self, kind, rng):
        x = rng.standard_normal(5)
        delta = 0.37
        ds = make_dataset(x[None, :], np.array([1]), 2)
        op = GradientOperator(ds, kind)
        op.set_gradients(np.array([[delta, 0.0]]))
        h = rng.standard_normal(5)
        g = -op.quad_values(h)
        assert g[0] == pytest.approx(-delta * activation(kind, h, x), rel=1e-12)
        assert g[1] == 0.0

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_matches_direct_summation(self, kind, rng):
        for _ in range(10):
            op, _ = random_operator(rng, 8, 5, 3, kind=kind)
            h = rng.standard_normal(5)
            h /= max(np.linalg.norm(h), 1.0)
            g = -op.quad_values(h)
            for c in range(3):
                direct = eq8_direct(op, h, c)
                assert abs(g[c] - direct) <= 1e-10 * max(1.0, abs(direct))

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    @pytest.mark.parametrize("shape", [(30, 6, 1, 1.0, False, "dense")] + SHAPES,
                             ids=lambda shape: f"{shape[-1]}-m{shape[2]}")
    def test_quad_values_ignore_memory_layout(self, shape, kind, rng):
        # an eigh column is a strided view; its contiguous copy reads the same
        # (a one-output dense stack rounded the two differently)
        for _ in range(30):
            op = shaped_operator(rng, shape, kind)
            view = np.linalg.eigh(op.dense_matrix(0))[1][:, -1]
            assert not view.flags.c_contiguous
            assert np.array_equal(op.quad_values(view), op.quad_values(view.copy()))

    def test_quad_values_match_dense_quadratic_forms(self, rng):
        for kind in ("pn", "fm"):
            for shape in SHAPES:
                op = shaped_operator(rng, shape, kind)
                h = rng.standard_normal(op.d)
                q = op.quad_values(h)
                for c in range(op.m):
                    assert q[c] == pytest.approx(h @ op.dense_matrix(c) @ h, rel=1e-10)


class TestChainRule:
    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_directional_derivative_of_objective(self, kind, rng):
        # adding weight eps*v on a fresh basis row h changes the total loss
        # at rate <v, -g_h> in eps
        n, d, m = 12, 5, 3
        X = rng.standard_normal((n, d))
        y = rng.integers(1, m + 1, size=n)
        ds = make_dataset(X, y, m)
        H = rng.standard_normal((2, d))
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        model = Model(kind, H, rng.standard_normal((2, m)), "logistic", "l1l2", 0.1)
        op = GradientOperator(ds, kind)
        op.refresh(model)

        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        v = rng.standard_normal(m)
        g = -op.quad_values(h)

        def objective(eps):
            ext = Model(kind, np.vstack([model.H, h[None, :]]),
                        np.vstack([model.V, eps * v[None, :]]),
                        model.loss, model.penalty, model.lam)
            Phi = hidden_activations(kind, ext.H, ds.X)
            return float(loss_values("logistic", y, Phi @ ext.V).sum())

        eps = 1e-6
        fd = (objective(eps) - objective(-eps)) / (2 * eps)
        analytic = -float(v @ g)
        assert abs(fd - analytic) <= 1e-4 * max(abs(analytic), 1e-3)
