import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from polyfactor.data import (
    SPLIT_FRACTIONS,
    DataError,
    Dataset,
    SplitSpec,
    load_movielens,
    load_svmlight,
    make_dataset,
    save_svmlight,
    split,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSvmlight:
    def test_basic_line(self, tmp_path):
        ds = load_svmlight(write(tmp_path, "a.txt", "3 1:0.5 4:2.0\n"))
        assert ds.n == 1 and ds.d == 4 and ds.m == 1
        assert ds.X.toarray().tolist() == [[0.5, 0.0, 0.0, 2.0]]
        assert ds.label_map == (3.0,)

    def test_bias_augmentation_prepends_unit_column(self, tmp_path):
        ds = load_svmlight(write(tmp_path, "a.txt", "1 2:1.0\n"), augment_bias=True)
        assert ds.d == 3
        assert ds.X.toarray().tolist() == [[1.0, 0.0, 1.0]]
        assert ds.bias_augmented

    def test_empty_file(self, tmp_path):
        ds = load_svmlight(write(tmp_path, "a.txt", ""))
        assert ds.n == 0

    def test_labels_remapped_sorted(self, tmp_path):
        ds = load_svmlight(write(tmp_path, "a.txt", "7 1:1\n-1 1:2\n7 2:3\n3 1:0.5\n"))
        assert ds.m == 3
        assert ds.label_map == (-1.0, 3.0, 7.0)
        assert ds.y.tolist() == [3, 1, 3, 2]

    @pytest.mark.parametrize("augment", [False, True])
    def test_width_pads_rows_that_stop_short(self, tmp_path, augment):
        # an absent feature is 0, so a file need not reach the width it is read at
        ds = load_svmlight(write(tmp_path, "a.txt", "1 1:0.5\n2 2:3.0\n"),
                           augment_bias=augment, d=4 + augment)
        assert ds.d == 4 + augment
        want = [[0.5, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]]
        assert ds.X.toarray().tolist() == [[1.0] * augment + row for row in want]

    @pytest.mark.parametrize("augment", [False, True])
    def test_index_past_width_refused(self, tmp_path, augment):
        path = write(tmp_path, "a.txt", "1 1:0.5 4:1.0\n2 2:3.0 5:1.0\n")
        with pytest.raises(DataError, match="line 2: feature index 5 is past the 4 features"):
            load_svmlight(path, augment_bias=augment, d=4 + augment)

    @pytest.mark.parametrize("line", [
        "x 1:1.0",
        "1 e:1.0",
        "1 1:abc",
        "1 0:1.0",
        "1 3:1.0 2:1.0",
        "1 1:nan",
        "1 1:inf",
    ])
    def test_malformed_lines_report_line_number(self, tmp_path, line):
        path = write(tmp_path, "a.txt", f"1 1:1.0\n{line}\n")
        with pytest.raises(DataError, match="line 2"):
            load_svmlight(path)

    def test_round_trip(self, tmp_path, rng):
        n, d = 30, 8
        X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.4)
        X[0, d - 1] = 1.2345678912345678e-3  # pin the last column
        y = rng.integers(1, 4, size=n)
        ds = make_dataset(X, y, 3, label_map=(-2.0, 5.0, 9.5))
        path = tmp_path / "rt.txt"
        save_svmlight(ds, path)
        back = load_svmlight(path)
        assert back.n == ds.n and back.d == ds.d
        assert (back.X != ds.X).nnz == 0
        assert np.array_equal(back.y, ds.y)
        assert back.label_map == ds.label_map
        # integral labels are written as integers, the rest exactly
        assert {line.split(" ", 1)[0] for line in path.read_text().splitlines()} == \
            {"-2", "5", "9.5"}


class TestMovielens:
    def test_one_hot_layout_users_first(self, tmp_path):
        # user 2 of 3, item 1 of 2, rating 4
        text = "1\t2\t1\n2\t1\t4\n3\t2\t2\n1\t1\t3\n2\t2\t5\n"
        ds = load_movielens(write(tmp_path, "u.data", text))
        assert ds.d == 5 and ds.m == 5
        row = ds.X.toarray()[1]
        assert row.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]
        assert ds.y[1] == 4

    def test_double_colon_separator(self, tmp_path):
        text = "1::10::5::978300760\n2::20::3::978300761\n"
        ds = load_movielens(write(tmp_path, "r.dat", text), sep="::")
        assert ds.n == 2 and ds.d == 4
        assert ds.y.tolist() == [5, 3]

    def test_rows_have_exactly_two_unit_nonzeros(self, tmp_path, rng):
        lines = [f"{rng.integers(1, 20)}\t{rng.integers(1, 30)}\t{rng.integers(1, 6)}"
                 for _ in range(200)]
        ds = load_movielens(write(tmp_path, "u.data", "\n".join(lines) + "\n"))
        counts = np.diff(ds.X.indptr)
        assert np.all(counts == 2)
        assert np.all(ds.X.data == 1.0)

    def test_labels_are_the_ratings(self, tmp_path):
        # MovieLens label maps are 1..m, so a row's label is its level y
        ds = load_movielens(write(tmp_path, "u.data", "1\t1\t2\n2\t1\t5\n2\t2\t4\n"))
        assert ds.label_map == (1, 2, 3, 4, 5)
        assert ds.labels.dtype == ds.y.dtype and np.array_equal(ds.labels, ds.y)

    def test_group_ids_track_users(self, tmp_path):
        text = "5\t1\t1\n5\t2\t2\n7\t1\t3\n"
        ds = load_movielens(write(tmp_path, "u.data", text))
        assert ds.group_ids.tolist() == [0, 0, 1]

    def test_bad_separator_rejected(self, tmp_path):
        path = write(tmp_path, "u.data", "1\t1\t1\n")
        with pytest.raises(DataError, match="separator"):
            load_movielens(path, sep="|")

    def test_bad_rating_rejected(self, tmp_path):
        path = write(tmp_path, "u.data", "1\t1\t0\n")
        with pytest.raises(DataError, match="rating"):
            load_movielens(path)
        path = write(tmp_path, "u.data", "1\t1\t3.5\n")
        with pytest.raises(DataError, match="rating"):
            load_movielens(path)


class TestSplit:
    def make(self, n, rng):
        X = rng.standard_normal((n, 3))
        return make_dataset(X, np.ones(n, dtype=np.int64), 1)

    def test_sizes_100(self, rng):
        tr, va, te = split(self.make(100, rng), SplitSpec(seed=3))
        assert (tr.n, va.n, te.n) == (50, 25, 25)

    def test_sizes_minimum(self, rng):
        tr, va, te = split(self.make(4, rng), SplitSpec(seed=3))
        assert (tr.n, va.n, te.n) == (2, 1, 1)

    def test_same_seed_same_partition(self, rng):
        ds = self.make(37, rng)
        a = split(ds, SplitSpec(seed=11))
        b = split(ds, SplitSpec(seed=11))
        for x, y in zip(a, b):
            assert (x.X != y.X).nnz == 0
            assert np.array_equal(x.y, y.y)

    def test_too_small(self, rng):
        with pytest.raises(DataError):
            split(self.make(3, rng), SplitSpec())

    @given(n=st.integers(4, 200), seed=st.integers(0, 2**32 - 1))
    def test_partition_disjoint_and_exhaustive(self, n, seed):
        rng = np.random.default_rng(0)
        X = np.arange(n, dtype=np.float64)[:, None] + 1.0
        ds = make_dataset(X, np.ones(n, dtype=np.int64), 1)
        parts = split(ds, SplitSpec(seed=seed))
        ids = np.concatenate([p.X.toarray().ravel() for p in parts])
        assert sorted(ids.tolist()) == (np.arange(n) + 1.0).tolist()
        for frac, part in zip(SPLIT_FRACTIONS, parts):
            assert abs(part.n - frac * n) <= 1


class TestDatasetInvariants:
    def test_non_canonical_csr_refused(self, rng):
        # duplicate and unsorted column indices, bypassing make_dataset
        X = sp.csr_matrix((rng.standard_normal(6), np.array([3, 1, 3, 0, 2, 0]),
                           np.array([0, 3, 6])), shape=(2, 4))
        with pytest.raises(DataError, match="make_dataset"):
            Dataset(X=X, y=np.ones(2, dtype=np.int64), m=2, label_map=(1, 2))
        ds = make_dataset(X, np.ones(2, dtype=np.int64), 2)
        assert ds.X.has_canonical_format
        assert np.array_equal(ds.X.toarray(), X.toarray())

    def test_sign_matrix_validated(self, rng):
        X = rng.standard_normal((3, 2))
        Y = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 0.5]])
        with pytest.raises(DataError, match="-1 or \\+1"):
            make_dataset(X, np.array([1, 1, 2]), 2, Y=Y)

    def test_labels_read_through_label_map(self, rng):
        ds = make_dataset(rng.standard_normal((4, 2)), np.array([3, 1, 2, 3]), 3,
                          label_map=(-1.5, 4.0, 9.0))
        assert ds.labels.tolist() == [9.0, -1.5, 4.0, 9.0]
        assert not ds.labels.flags.writeable

    def test_labels_validated(self, rng):
        X = rng.standard_normal((2, 2))
        with pytest.raises(DataError):
            make_dataset(X, np.array([0, 1]), 2)
