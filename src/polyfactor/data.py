"""Dataset container, svmlight / MovieLens ingestion and train/valid/test splitting."""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

SPLIT_FRACTIONS = (0.5, 0.25, 0.25)  # train, valid, test


class DataError(ValueError):
    """Malformed input file or inconsistent dataset construction."""


@dataclass(frozen=True)
class Dataset:
    """Immutable design matrix with labels.

    ``X`` is CSR with sorted, duplicate-free column indices per row
    (``make_dataset`` canonicalises it; any other X is refused). ``y``
    holds contiguous class indices (or rating levels) in 1..m; the original
    file labels live in ``label_map`` (position c-1 = original label of
    class c), and ``labels`` gives each row's. ``Y``, when present, is a
    {-1,+1} sign matrix of shape (n, m).
    ``group_ids`` carries a per-row ranking-group id (the user index for
    MovieLens loads). ``X2`` is X∘X (entrywise square, for the FM terms),
    built on first use and kept for the dataset's lifetime. ``Xmul`` and
    ``X2mul`` are X and X∘X in the form their products run fastest (see
    ``prefer_dense``), built on first use too.
    """

    X: sp.csr_matrix
    y: np.ndarray
    m: int
    label_map: tuple
    Y: np.ndarray | None = None
    group_ids: np.ndarray | None = None
    bias_augmented: bool = False

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @cached_property
    def labels(self) -> np.ndarray:
        """Each row's file label, ``label_map[y - 1]``: the value a rating
        metric or a regression target reads, not the class index y."""
        labels = np.asarray(self.label_map)[self.y - 1]
        labels.setflags(write=False)
        return labels

    @cached_property
    def X2(self) -> sp.csr_matrix:
        X2 = self.X.multiply(self.X).tocsr()
        _freeze(X2)
        return X2

    @cached_property
    def Xmul(self):
        """X as the refits and gradient refreshes multiply it: a read-only
        dense array when ``prefer_dense(X)``, else X itself."""
        return _dense(self.X) if prefer_dense(self.X) else self.X

    @cached_property
    def X2mul(self):
        """X∘X in ``Xmul``'s form, densified from ``X2``: scipy squares
        without numpy's overflow warning, and X∘X is squared once."""
        return _dense(self.X2) if prefer_dense(self.X) else self.X2

    def __post_init__(self):
        if not self.X.has_canonical_format:
            raise DataError("X must be CSR with sorted, duplicate-free indices; "
                            "build datasets with make_dataset")
        _freeze(self.X)
        self.y.setflags(write=False)
        if self.Y is not None:
            self.Y.setflags(write=False)
        if self.group_ids is not None:
            self.group_ids.setflags(write=False)


@dataclass(frozen=True)
class SplitSpec:
    seed: int = 0  # row permutation of ``split``; the sizes are SPLIT_FRACTIONS

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"split seed must be at least 0, got {self.seed}")


def prefer_dense(X: sp.csr_matrix) -> bool:
    """Whether X's products run on a dense copy: n d <= 2 nnz(X), the form
    of the gradient operator's sparse-storage rule. A dense copy then takes
    at most 16 bytes per nonzero, about 1.3 times the CSR arrays, whatever
    the shape (the operator's m d^2 <= nnz(X) rule would densify a very tall
    sparse X)."""
    n, d = X.shape
    return n * d <= 2 * X.nnz


def _dense(A: sp.csr_matrix) -> np.ndarray:
    a = A.toarray()
    a.setflags(write=False)
    return a


def _freeze(X: sp.csr_matrix) -> None:
    X.data.setflags(write=False)
    X.indices.setflags(write=False)
    X.indptr.setflags(write=False)


def make_dataset(X, y, m, label_map=None, Y=None, group_ids=None, bias_augmented=False) -> Dataset:
    """Build a validated Dataset from a CSR matrix and contiguous labels,
    which must lie in 1..m whether or not a sign matrix Y is given."""
    X = sp.csr_matrix(X, dtype=np.float64, copy=True)
    X.sum_duplicates()
    X.sort_indices()
    y = np.array(y, copy=True)
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if y.size and (y.min() < 1 or y.max() > m):
        raise DataError(f"labels must lie in 1..{m}")
    if Y is not None:
        Y = np.array(Y, dtype=np.float64, copy=True)
        if Y.shape != (X.shape[0], m):
            raise DataError(f"Y has shape {Y.shape}, expected {(X.shape[0], m)}")
        if not np.all(np.abs(Y) == 1.0):
            raise DataError("sign-matrix entries must be exactly -1 or +1")
    if label_map is None:
        label_map = tuple(range(1, m + 1))
    return Dataset(X=X, y=y, m=m, label_map=tuple(label_map), Y=Y,
                   group_ids=group_ids, bias_augmented=bias_augmented)


def load_svmlight(path, augment_bias: bool = False, d: int | None = None) -> Dataset:
    """Parse an svmlight/libsvm multi-class file (1-based feature indices).

    Labels are remapped to contiguous 1..m preserving the sorted order of the
    observed labels. With ``augment_bias`` a constant-1 feature is prepended
    as column 1 and all feature indices shift right by one. ``d`` fixes the
    column count (bias included): an absent feature is 0, so rows may stop
    short of it, and a feature index past it is refused. By default d is
    the largest index seen.

    A plain file (each line a label and the same number of ``i:v``
    features, single-spaced, in digits, sign, point and exponent only; no
    comment, no blank line) is read whole by one ``np.loadtxt`` pass
    (``_read_svm_whole``), as ``save_svmlight`` writes a dense set. Any
    other file (ragged widths, a comment, a blank line, any other character,
    or a value that fails a check) goes through the line loop
    ``_read_svm_lines``. The two give the same arrays for every file both
    accept, so the reader is an optimisation only, and every refusal comes
    from the loop and names its line.
    """
    shift = 1 if augment_bias else 0
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    rows = _read_svm_whole(text, shift, d)
    if rows is None:
        rows = _read_svm_lines(path, text, shift, d)
    labels, indptr, indices, values = rows
    n = labels.size
    if d is None:
        # indices rise along each row, so the largest is some row's last
        d = (int(indices.max()) if indices.size else 0) + shift
    # file indices are 1-based; unshifted they map to columns i-1
    indices = indices + (shift - 1)
    if augment_bias:
        # the constant feature opens each row, as column 0
        indices = np.insert(indices, indptr[:-1], 0)
        values = np.insert(values, indptr[:-1], 1.0)
        indptr = indptr + np.arange(n + 1)
    X = sp.csr_matrix((values, indices, indptr), shape=(n, d))

    uniq = sorted(set(labels.tolist()))
    y = np.searchsorted(uniq, labels) + 1
    m = max(len(uniq), 1)
    return make_dataset(X, y, m, label_map=uniq, bias_augmented=augment_bias)


def _read_svm_whole(text: str, shift: int, d: int | None):
    """(labels, indptr, 1-based indices, values) of a plain svmlight file in
    one ``np.loadtxt`` pass, or None when the line loop must read it.

    A plain file is ASCII; each line is a label and k >= 1 ``i:v`` features,
    with the same k on every line, one space before each feature and no
    other space, and every number written with digits, sign, point and
    exponent only. On those characters numpy's parser and Python's ``float``
    read the same values, and its int64 parser refuses what ``int`` refuses
    (``1.0:3``). The file also goes to the loop when numpy refuses a field
    or warns (warnings are errors, so every numpy version agrees) or a value
    fails one of the loop's checks.
    """
    if not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"
    raw = text.encode()
    k = text.count(":", 0, text.index("\n"))
    # no other character, and on each line the delimiters " :" k times
    if k == 0 or raw.translate(None, b"-+.0123456789eE: \n") or \
            raw.translate(None, b"-+.0123456789eE") != (b" :" * k + b"\n") * text.count("\n"):
        return None
    fields = np.dtype([("label", np.float64), ("f", [("i", np.int64), ("v", np.float64)], (k,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = np.loadtxt(io.StringIO(text.replace(":", " ")), dtype=fields, delimiter=" ",
                           comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    labels, indices, values = a["label"], a["f"]["i"], a["f"]["v"]
    last = int(indices[:, -1].max())  # each row's indices must rise
    if not (np.isfinite(labels).all() and np.isfinite(values).all()
            and (indices[:, 0] >= 1).all() and (np.diff(indices, axis=1) > 0).all()
            and last + shift <= np.iinfo(np.int64).max and (d is None or last + shift <= d)):
        return None
    indptr = np.arange(labels.size + 1, dtype=np.int64) * k
    return labels, indptr, indices.ravel(), values.ravel()


def _read_svm_lines(path, text: str, shift: int, d: int | None):
    """(labels, indptr, 1-based indices, values) of any svmlight file, one
    line at a time: each refusal names its line."""
    top = int(np.iinfo(np.int64).max)  # the largest column index the arrays hold
    labels = []
    indptr = [0]
    indices = []
    values = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad label {parts[0]!r}") from None
        if not math.isfinite(label):
            raise DataError(f"{path}: line {lineno}: non-finite label")
        prev = 0
        for tok in parts[1:]:
            try:
                i_str, v_str = tok.split(":", 1)
                i = int(i_str)
                v = float(v_str)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad feature {tok!r}") from None
            if i < 1:
                raise DataError(f"{path}: line {lineno}: index {i} is not 1-based")
            if i <= prev:
                raise DataError(f"{path}: line {lineno}: indices must be strictly increasing")
            if i + shift > top:
                raise DataError(f"{path}: line {lineno}: feature index {i} is too large")
            if not math.isfinite(v):
                raise DataError(f"{path}: line {lineno}: non-finite value {v_str!r}")
            prev = i
            indices.append(i)
            values.append(v)
        if d is not None and prev + shift > d:
            raise DataError(f"{path}: line {lineno}: feature index {prev} is past "
                            f"the {d - shift} features expected")
        labels.append(label)
        indptr.append(len(indices))
    return (np.array(labels, dtype=np.float64), np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int64), np.array(values, dtype=np.float64))


def format_label(label) -> str:
    """A label as svmlight text: integral values as integers ("4", not "4.0")."""
    v = float(label)
    return str(int(v)) if v.is_integer() else repr(v)


# rows per write of the text writers. A block's text and the Python objects
# it is formatted from take ~100 kB for 11-feature svmlight rows, whatever
# the row count. 512-row blocks lifted the benchmark's vowel set-up peak
# resident set by ~0.1 MB, and no size from 128 to 1,024 rows set up its
# ratings inputs measurably faster
_BLOCK_ROWS = 128


def write_blocks(fh, n: int, render) -> None:
    """Write rows 0..n-1 to the text stream ``fh`` with one write per block
    of ``_BLOCK_ROWS`` rows; ``render(lo, hi)`` returns rows lo..hi-1 as text."""
    for lo in range(0, n, _BLOCK_ROWS):
        fh.write(render(lo, min(lo + _BLOCK_ROWS, n)))


def save_svmlight(ds: Dataset, path) -> None:
    """Write a Dataset back to svmlight text (exact round-trip of values),
    a bias-augmented one without its constant column, as feature j for
    column j: ``load_svmlight(path, augment_bias=True)`` reads it back.

    Each row is one line: its label as ``format_label`` writes it, then one
    `` j:repr(v)`` token per stored entry in column order (a row with no
    entry is its label alone), then a newline. A block of rows is one
    ``%``-format over its entries, written at once (``write_blocks``).
    """
    X = ds.X[:, 1:] if ds.bias_augmented else ds.X
    labels = [format_label(v) for v in ds.label_map]

    def render(lo, hi):
        ptr = X.indptr[lo:hi + 1].tolist()
        a, b = ptr[0], ptr[-1]
        fields = [0] * (2 * (b - a))
        fields[0::2] = (X.indices[a:b] + 1).tolist()
        fields[1::2] = X.data[a:b].tolist()
        rows = "".join([labels[c - 1] + " %d:%r" * (e - s) + "\n"
                        for c, s, e in zip(ds.y[lo:hi].tolist(), ptr, ptr[1:])])
        return rows % tuple(fields)

    with open(path, "w", encoding="utf-8") as fh:
        write_blocks(fh, ds.n, render)


# a MovieLens record's first three fields, as the whole-file reader holds them
_RECORD = np.dtype([("user", np.int64), ("item", np.int64), ("rating", np.float64)])


def load_movielens(path) -> Dataset:
    """Parse a MovieLens ratings file into one-hot user/item rows.

    Each record is ``user item rating [timestamp]``, split on ``::`` (the 1M
    release) if the first record holds one and on tabs (100k) otherwise; a
    record that gives fewer than three fields is refused. Observed
    user ids map (sorted) to the first columns, item ids to the following
    ones, so every row has exactly two unit entries. Ratings become the
    label levels 1..m with m = max rating.

    A plain file is read whole by numpy's parser (``_read_whole``). Any
    other file (one that parser refuses, or whose values fail a check) goes
    through the line loop ``_read_lines``. The two give the same arrays for
    every file both accept, so the reader is an optimisation only, and every
    refusal comes from the loop and names its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    records = _read_whole(text)
    if records is None:
        records = _read_lines(path, text)
    return _one_hot_ratings(*records)


def _read_whole(text: str):
    """(user ids, item ids, ratings) of a plain ratings file in one
    ``np.loadtxt`` pass, or None when the line loop must read it: numpy
    refuses a field or warns (warnings are errors, so every numpy version
    agrees), a ``::`` file also holds a tab, or a value fails one of the
    loop's checks. Python's ``int`` accepts some ids numpy refuses (``1_0``,
    non-ASCII digits); those files go through the loop too."""
    first = next((line for line in io.StringIO(text) if line.strip()), "")
    if "::" in first:
        if "\t" in text:
            return None
        text = text.replace("::", "\t")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = np.loadtxt(io.StringIO(text), dtype=_RECORD, delimiter="\t", comments=None,
                           usecols=(0, 1, 2), ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    users, items, r = a["user"], a["item"], a["rating"]
    low = np.iinfo(np.int64).min  # numpy reads it; the loop refuses its magnitude
    # chained so that nan fails too
    if not ((r >= 1.0) & (r < 2.0**63) & (r == np.floor(r))).all() \
            or (users == low).any() or (items == low).any():
        return None
    return users, items, r.astype(np.int64)


def _read_lines(path, text: str):
    """(user ids, item ids, ratings) of any ratings file, one line at a
    time: each refusal names its line."""
    users = []
    items = []
    ratings = []
    top = int(np.iinfo(np.int64).max)  # the largest id the arrays hold
    sep = None
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if sep is None:
            sep = "::" if "::" in line else "\t"
        # split before stripping: a leading separator opens an empty field
        # rather than shifting a timestamp into the rating
        fields = [field.strip() for field in raw.split(sep)]
        if len(fields) < 3:
            raise DataError(f"{path}: line {lineno}: expected 3 fields separated by {sep!r}")
        try:
            u = int(fields[0])
            i = int(fields[1])
            r = float(fields[2])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad record {line!r}") from None
        # chained so that nan fails too
        if not 1.0 <= r < 2.0**63 or r != int(r):
            raise DataError(f"{path}: line {lineno}: rating {fields[2]!r} is not "
                            f"an integer in [1, 2^63)")
        if abs(u) > top or abs(i) > top:
            raise DataError(f"{path}: line {lineno}: user or item id past "
                            f"+-(2^63 - 1) in {line!r}")
        users.append(u)
        items.append(i)
        ratings.append(int(r))
    return (np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64),
            np.asarray(ratings, dtype=np.int64))


def _one_hot_ratings(user_ids, item_ids, y) -> Dataset:
    """The MovieLens Dataset of ``load_movielens`` from its three arrays."""
    n = y.size
    uniq_users, user_col = np.unique(user_ids, return_inverse=True)
    uniq_items, item_col = np.unique(item_ids, return_inverse=True)
    n_users = uniq_users.size
    d = n_users + uniq_items.size

    indptr = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
    indices = np.empty(2 * n, dtype=np.int64)
    indices[0::2] = user_col
    indices[1::2] = n_users + item_col
    data = np.ones(2 * n, dtype=np.float64)
    X = sp.csr_matrix((data, indices, indptr), shape=(n, d))

    m = int(y.max()) if n else 1
    return make_dataset(X, y, m, label_map=range(1, m + 1), group_ids=user_col)


def take_rows(ds: Dataset, rows: np.ndarray) -> Dataset:
    """Row-subset of a Dataset (keeps label_map / m / metadata)."""
    rows = np.asarray(rows)
    return make_dataset(
        ds.X[rows],
        ds.y[rows],
        ds.m,
        label_map=ds.label_map,
        Y=None if ds.Y is None else ds.Y[rows],
        group_ids=None if ds.group_ids is None else ds.group_ids[rows],
        bias_augmented=ds.bias_augmented,
    )


def _partition_sizes(n: int, fractions) -> np.ndarray:
    # largest-remainder rounding: sizes within 1 of n * fraction, summing to n
    target = np.asarray(fractions, dtype=np.float64) * n
    base = np.floor(target).astype(np.int64)
    leftover = n - int(base.sum())
    order = np.argsort(-(target - base), kind="stable")
    base[order[:leftover]] += 1
    return base


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint, exhaustive, seed-reproducible train/valid/test row
    partition in the proportions SPLIT_FRACTIONS. An empty dataset splits
    into three empty parts, which the solver refuses to train on."""
    if 0 < ds.n < 4:
        raise DataError(f"need at least 4 samples to split, got {ds.n}")
    sizes = _partition_sizes(ds.n, SPLIT_FRACTIONS)
    perm = np.random.default_rng(spec.seed).permutation(ds.n)
    a, b = sizes[0], sizes[0] + sizes[1]
    return take_rows(ds, perm[:a]), take_rows(ds, perm[a:b]), take_rows(ds, perm[b:])
