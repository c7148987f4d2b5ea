import hashlib
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from polyfactor import data
from polyfactor.data import (
    SPLIT_FRACTIONS,
    DataError,
    Dataset,
    SplitSpec,
    format_label,
    load_movielens,
    load_svmlight,
    make_dataset,
    prefer_dense,
    save_svmlight,
    split,
)
from polyfactor.synth import make_ratings, write_movielens


# MovieLens fields: tokens Python's int / float and numpy's parser may read
# differently, ids at the int64 ends, and ratings that fail the checks
ID_TOKENS = (["1", "2", "7", "1682"],
             [" 3", "+3", "-0", "007", "1_0", "٣", "3.0", "1e3", "", str(2**63 - 1),
              str(-(2**63 - 1)), str(-2**63), str(2**63)])
RATING_TOKENS = (["1", "3", "5"],
                 ["4.0", "4.", " 2", "+2", "nan", "infinity", "0", "3.5", "1e1", "-0", "1_0", ""])
PADS = (["", " "], ["\x0c", "\u3000", "\t"])


@st.composite
def movielens_texts(draw):
    """A MovieLens-like text: records of 3-5 fields on one separator (at
    times another), blank and whitespace-only lines, LF or CRLF ends. One
    token in eight is drawn from the irregular ones, so many files are
    plain."""
    def token(choices):
        regular, irregular = choices
        return draw(st.sampled_from(irregular if draw(st.integers(0, 7)) == 0 else regular))

    sep = draw(st.sampled_from(["\t", "::"]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(token(([""], ["  ", "\t", " \t "])))
            continue
        fields = [token(ID_TOKENS), token(ID_TOKENS), token(RATING_TOKENS)]
        fields += [token((["881250949"], ["x", ""])) for _ in range(draw(st.integers(0, 2)))]
        joint = token(([sep], ["\t", "::", " "]))
        lines.append(token(PADS) + joint.join(fields) + token(PADS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def loop_dataset(path):
    """The Dataset the line loop alone builds from a ratings file."""
    return data._one_hot_ratings(*data._read_lines(path, path.read_text(encoding="utf-8")))


def assert_same_ratings(ds, expected):
    for got, want in [(ds.X.indptr, expected.X.indptr), (ds.X.indices, expected.X.indices),
                      (ds.X.data, expected.X.data), (ds.y, expected.y),
                      (ds.group_ids, expected.group_ids)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert ds.X.shape == expected.X.shape
    assert (ds.m, ds.label_map) == (expected.m, expected.label_map)


@st.composite
def svmlight_texts(draw):
    """A plain svmlight text: 1-6 lines of a label and the same number of
    features, labels negative and non-integral among them, indices at times
    zero-padded, values any finite float in ``repr`` notation."""
    k = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        label = format_label(draw(st.sampled_from([-3.0, -0.125, 0.0, 1.0, 2.5, 7.0, 1e20])))
        indices = sorted(draw(st.sets(st.integers(1, 12), min_size=k, max_size=k)))
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=k, max_size=k))
        feats = [f"{i:0{draw(st.integers(1, 3))}d}:{v!r}" for i, v in zip(indices, values)]
        lines.append(" ".join([label] + feats))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def svm_loop_dataset(path, **kwargs):
    """The Dataset ``load_svmlight`` builds when the line loop reads the file."""
    with mock.patch.object(data, "_read_svm_whole", lambda *args: None):
        return load_svmlight(path, **kwargs)


def assert_same_svmlight(ds, expected):
    for got, want in [(ds.X.indptr, expected.X.indptr), (ds.X.indices, expected.X.indices),
                      (ds.X.data, expected.X.data), (ds.y, expected.y)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert ds.X.shape == expected.X.shape and ds.m == expected.m
    assert [repr(v) for v in ds.label_map] == [repr(v) for v in expected.label_map]
    assert ds.bias_augmented == expected.bias_augmented


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

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        # whole-line and trailing comments and blank lines add no row
        rows = "".join(f"{i % 2 + 1} {i + 1}:1.0\n" for i in range(6))
        text = f"# header\n{rows}\n2 3:0.5 # trailing comment\n"
        ds = load_svmlight(write(tmp_path, "a.txt", text))
        assert ds.n == 7 and ds.d == 6
        assert ds.X[6].toarray().tolist() == [[0.0, 0.0, 0.5, 0.0, 0.0, 0.0]]

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

    def test_non_finite_label_refused_by_line(self, tmp_path):
        path = write(tmp_path, "a.txt", "1 1:1.0\nnan 1:2.0\n")
        with pytest.raises(DataError, match="line 2: non-finite label"):
            load_svmlight(path)

    @pytest.mark.parametrize("augment", [False, True])
    def test_index_past_int64_refused(self, tmp_path, augment):
        # a column index must fit int64; with the bias column one index less does
        big = 2**63 - augment
        ok = load_svmlight(write(tmp_path, "a.txt", f"1 {big - 1}:1.0\n"), augment_bias=augment)
        assert ok.d == 2**63 - 1
        path = write(tmp_path, "b.txt", f"1 1:1.0\n2 {big}:1.0\n")
        with pytest.raises(DataError, match=f"line 2: feature index {big} is too large"):
            load_svmlight(path, augment_bias=augment)

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

    def test_round_trip_with_bias(self, tmp_path, rng):
        # the constant column is not written, so a reload adds it back once
        n, d = 30, 5
        X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.5)
        X[0, d - 1] = -1.4097
        path = tmp_path / "plain.txt"
        save_svmlight(make_dataset(X, rng.integers(1, 4, size=n), 3), path)
        ds = load_svmlight(path, augment_bias=True)
        assert ds.d == d + 1
        again = tmp_path / "again.txt"
        save_svmlight(ds, again)
        assert again.read_text() == path.read_text()
        back = load_svmlight(again, augment_bias=True)
        assert back.n == ds.n and back.d == ds.d and back.bias_augmented
        assert (back.X != ds.X).nnz == 0
        assert np.array_equal(back.y, ds.y) and back.label_map == ds.label_map


    @given(text=svmlight_texts(), augment=st.booleans(), extra=st.none() | st.integers(0, 3))
    def test_whole_file_read_matches_the_line_loop(self, text, augment, extra):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plain.svm"
            path.write_text(text)
            d = None if extra is None else svm_loop_dataset(path, augment_bias=augment).d + extra
            assert data._read_svm_whole(text, int(augment), d) is not None
            assert_same_svmlight(load_svmlight(path, augment_bias=augment, d=d),
                                 svm_loop_dataset(path, augment_bias=augment, d=d))

    @given(text=svmlight_texts(), change=st.sampled_from(["comment", "blank", "tab", "ragged"]))
    def test_irregular_file_goes_to_the_loop(self, text, change):
        # a comment, a blank line or a tab leaves the rows as they are
        lines = text.splitlines()
        if change == "comment":
            lines[0] += " # note"
        elif change == "blank":
            lines.insert(len(lines) // 2, "")
        elif change == "tab":
            lines[-1] = lines[-1].replace(" ", "\t", 1)
        else:
            lines.append(lines[0] + " 13:1.5")
        irregular = "\n".join(lines) + "\n"
        assert data._read_svm_whole(irregular, 0, None) is None
        with tempfile.TemporaryDirectory() as tmp:
            plain, path = Path(tmp) / "plain.svm", Path(tmp) / "irregular.svm"
            plain.write_text(text)
            path.write_text(irregular)
            got = load_svmlight(path)
            assert_same_svmlight(got, svm_loop_dataset(path))
            if change != "ragged":
                assert_same_svmlight(got, load_svmlight(plain))

    def test_plain_file_read_whole(self, tmp_path, rng, monkeypatch):
        # save_svmlight's dense set never reaches the line loop
        ds = make_dataset(rng.standard_normal((40, 6)), rng.integers(1, 4, size=40), 3,
                          label_map=(-1.5, 0.0, 2.0))
        path = tmp_path / "dense.svm"
        save_svmlight(ds, path)
        expected = svm_loop_dataset(path, augment_bias=True)
        monkeypatch.setattr(data, "_read_svm_lines", None)
        assert_same_svmlight(load_svmlight(path, augment_bias=True), expected)

    @pytest.mark.parametrize("line, message", [
        ("1 1.0:3 2:1", "bad feature '1.0:3'"),
        ("1 3: 4", "bad feature '3:'"),
        ("1 0:1 2:1", "index 0 is not 1-based"),
        ("1 a:1 2:1", "bad feature 'a:1'"),
        ("1 3:1 2:1", "indices must be strictly increasing"),
        ("1 1:1 5:1", "feature index 5 is past the 4 features expected"),
        (f"1 1:1 {2**63}:1", f"feature index {2**63} is too large"),
        ("1 1:1 2:nan", "non-finite value 'nan'"),
        ("inf 1:1 2:1", "non-finite label"),
    ])
    def test_refusals_come_from_the_loop(self, tmp_path, line, message):
        text = f"1 1:1.0 2:2.0\n{line}\n2 1:0.5 3:1.0\n"
        assert data._read_svm_whole(text, 0, 4) is None
        with pytest.raises(DataError, match=re.escape(f"line 2: {message}")):
            load_svmlight(write(tmp_path, "a.svm", text), d=4)


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
        ds = load_movielens(write(tmp_path, "r.dat", text))
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
        # a record with neither "::" nor a tab gives one field on the tab
        path = write(tmp_path, "u.data", "1|1|1\n2|1|4\n")
        with pytest.raises(DataError, match=re.escape(
                "line 1: expected 3 fields separated by '\\t'")):
            load_movielens(path)

    @pytest.mark.parametrize("text, lineno, sep", [
        ("1\t1\t1\n\n2\t1\t4\n3::2::5\n", 4, "\t"),
        ("1::1::1\n2\t1\t4\n", 2, "::"),
    ], ids=["tab-then-double-colon", "double-colon-then-tab"])
    def test_first_record_decides_the_separator(self, tmp_path, text, lineno, sep):
        path = write(tmp_path, "u.data", text)
        with pytest.raises(DataError, match=re.escape(
                f"line {lineno}: expected 3 fields separated by {sep!r}")):
            load_movielens(path)

    @pytest.mark.parametrize("record", ["\t3\t1\t5", "\x0c\t 3\t1\t5\x0c"],
                             ids=["tab", "form-feed-then-tab"])
    def test_empty_first_field_refused(self, tmp_path, record):
        # the empty user field is not stripped away as padding: that would
        # read the item as the user and the timestamp column as the rating
        # (a timestamp rating of ~9e8 asks for ~9e8 label levels)
        path = write(tmp_path, "u.data", f"1\t1\t3\n{record}\n")
        with pytest.raises(DataError, match="line 2: bad record"):
            load_movielens(path)

    def test_bad_rating_rejected(self, tmp_path):
        path = write(tmp_path, "u.data", "1\t1\t0\n")
        with pytest.raises(DataError, match="rating"):
            load_movielens(path)
        path = write(tmp_path, "u.data", "1\t1\t3.5\n")
        with pytest.raises(DataError, match="rating"):
            load_movielens(path)

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf", "1e400", "1e300", "9.3e18"])
    def test_rating_past_int64_refused(self, tmp_path, rating):
        path = write(tmp_path, "u.data", f"1\t1\t3\n2\t1\t{rating}\n")
        with pytest.raises(DataError, match=re.escape(
                f"line 2: rating '{rating}' is not an integer in [1, 2^63)")):
            load_movielens(path)

    @pytest.mark.parametrize("record", [f"{2**63}\t1\t3", f"1\t{2**63}\t3",
                                        f"-{2**63 + 1}\t1\t3"],
                             ids=["user", "item", "negative-user"])
    def test_id_past_int64_refused(self, tmp_path, record):
        path = write(tmp_path, "u.data", f"1\t1\t3\n{record}\n")
        with pytest.raises(DataError, match="line 2: user or item id past"):
            load_movielens(path)

    def test_largest_int64_ids_load(self, tmp_path):
        big = 2**63 - 1
        ds = load_movielens(write(tmp_path, "u.data", f"{big}\t{-big}\t2\n1\t1\t1\n"))
        assert ds.n == 2 and ds.d == 4 and ds.y.tolist() == [2, 1]

    @pytest.mark.parametrize("sep", ["\t", "::"])
    def test_plain_file_read_whole(self, tmp_path, sep, monkeypatch):
        # a plain file never reaches the line loop
        u, i, r = make_ratings(30, 40, 200, rank=2, seed=3)
        path = tmp_path / "r.data"
        write_movielens(u, i, r, path, sep=sep)
        expected = loop_dataset(path)
        monkeypatch.setattr(data, "_read_lines", None)
        assert_same_ratings(load_movielens(path), expected)

    @pytest.mark.parametrize("text", ["1_0\t1\t3\n", "٣\t1\t3\n", "1\t3.0\t3\n",
                                      f"-{2**63}\t1\t3\n", "1::1::3\t4\n", "1\t1\tnan\n"],
                             ids=["underscore", "arabic-indic", "float-id", "int64-min",
                                  "tab-in-double-colon", "nan-rating"])
    def test_irregular_file_goes_to_the_loop(self, text):
        assert data._read_whole(text) is None

    @given(text=movielens_texts())
    def test_whole_file_read_matches_the_line_loop(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ratings"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = loop_dataset(path)
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    load_movielens(path)
                assert str(got.value) == str(exc)
            else:
                assert_same_ratings(load_movielens(path), expected)


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

    def test_empty_splits_into_empty_parts(self, rng):
        # the solver, not split, refuses to train on no rows
        assert [part.n for part in split(self.make(0, rng), SplitSpec())] == [0, 0, 0]

    def test_negative_seed_refused_by_name(self):
        with pytest.raises(DataError, match="split seed must be at least 0, got -1"):
            SplitSpec(seed=-1)

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


class TestProductForm:
    def test_dense_design_multiplied_as_read_only_arrays(self, rng):
        X = rng.standard_normal((30, 5))
        X[rng.random(X.shape) < 0.4] = 0.0     # 60% dense: n d <= 2 nnz
        ds = make_dataset(X, np.ones(30, dtype=np.int64), 2)
        assert prefer_dense(ds.X)
        assert ds.Xmul is ds.Xmul and ds.X2mul is ds.X2mul
        assert np.array_equal(ds.Xmul, X) and np.array_equal(ds.X2mul, ds.X2.toarray())
        assert not ds.Xmul.flags.writeable and not ds.X2mul.flags.writeable

    def test_ratings_one_hot_design_stays_csr(self):
        # the ratings workload's shape: 12,000 rows with one user (of 300)
        # and one item (of 500) column each, so n d = 9.6M against 2 nnz = 48k
        n, users, items = 12_000, 300, 500
        rng = np.random.default_rng(0)
        cols = np.stack([rng.integers(0, users, n), users + rng.integers(0, items, n)], axis=1)
        X = sp.csr_matrix((np.ones(2 * n), np.sort(cols, axis=1).ravel(),
                           np.arange(0, 2 * n + 1, 2)), shape=(n, users + items))
        assert not prefer_dense(X)
        ds = make_dataset(X, np.ones(n, dtype=np.int64), 2)
        assert ds.Xmul is ds.X and ds.X2mul is ds.X2

    def test_rule_reads_shape_and_nonzeros_only(self):
        # a copy is bounded by 16 bytes per nonzero: a 10^6 x 3,000 X with 10
        # nonzeros per row (24 GB dense) stays sparse; no array is built here
        def shaped(n, d, nnz):
            return SimpleNamespace(shape=(n, d), nnz=nnz)

        assert not prefer_dense(shaped(10**6, 3000, 10**7))
        assert prefer_dense(shaped(264, 11, 264 * 11))
        assert prefer_dense(shaped(10, 10, 50)) and not prefer_dense(shaped(10, 10, 49))


def reference_make_ratings(n_users, n_items, n_ratings, rank=4, seed=0, noise=0.05):
    """make_ratings with its pairs drawn one at a time into a Python set."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n_users, rank)) / np.sqrt(rank)
    Q = rng.standard_normal((n_items, rank)) / np.sqrt(rank)
    users = [np.arange(n_users), rng.integers(0, n_users, size=n_items)]
    items = [rng.integers(0, n_items, size=n_users), np.arange(n_items)]
    seen = set(zip(np.concatenate(users).tolist(), np.concatenate(items).tolist()))
    need = n_ratings - len(seen)
    while need > 0:
        u = rng.integers(0, n_users, size=int(1.3 * need) + 8)
        i = rng.integers(0, n_items, size=u.size)
        for pair in zip(u.tolist(), i.tolist()):
            if pair not in seen and need > 0:
                seen.add(pair)
                need -= 1
    pairs = np.array(sorted(seen), dtype=np.int64)
    order = rng.permutation(pairs.shape[0])
    u, i = pairs[order, 0], pairs[order, 1]
    scores = np.einsum("ij,ij->i", P[u], Q[i]) + noise * rng.standard_normal(u.size)
    cuts = np.quantile(scores, np.cumsum([0.06, 0.11, 0.27, 0.34, 0.22])[:-1])
    return u + 1, i + 1, (1 + np.searchsorted(cuts, scores)).astype(np.int64)


class TestMakeRatings:
    @pytest.mark.parametrize("shape, rank, seed, digest", [
        ((40, 60, 800), 4, 0, "a68dbaee69ff1a5c98960490f86c76dc5ab10c47e7be26f2237f3d98f043d4f8"),
        ((5, 6, 30), 4, 3, "845e6c6f3eeb75a6a116edc594de317caed4f30f64b83c32eeb20a359a215090"),
        ((5, 6, 11), 2, 1, "c1da6ce3ee746b6a1fb44fb2f034d875e50991b7666a0e40a551ecc94a8a7243"),
    ], ids=["40x60-800", "5x6-all-pairs", "5x6-coverage-only"])
    def test_output_pinned(self, shape, rank, seed, digest):
        # sha256 of the stacked (users, items, ratings) int64 arrays as the
        # generator drew them when it kept its pairs in a Python set
        out = make_ratings(*shape, rank=rank, seed=seed)
        assert all(a.dtype == np.int64 for a in out)
        assert hashlib.sha256(np.stack(out).astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("shape", [(40, 60, 800), (5, 6, 11), (5, 6, 30), (12, 7, 50)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_set_loop_reference(self, shape, seed):
        for got, want in zip(make_ratings(*shape, seed=seed),
                             reference_make_ratings(*shape, seed=seed)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_pairs_unique_and_covering(self):
        users, items, ratings = make_ratings(30, 45, 500, seed=2)
        assert len(set(zip(users.tolist(), items.tolist()))) == 500
        assert set(users.tolist()) == set(range(1, 31))
        assert set(items.tolist()) == set(range(1, 46))
        assert set(ratings.tolist()) <= set(range(1, 6))

    @pytest.mark.parametrize("shape", [(1, 1, 2), (5, 6, 31), (2, 3, 100)])
    def test_more_ratings_than_pairs_refused(self, shape):
        # there are only n_users * n_items distinct pairs; asking for more
        # used to wait forever for a pair that does not exist
        with pytest.raises(ValueError, match="exceed the"):
            make_ratings(*shape)
