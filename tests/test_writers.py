"""The text writers format a block of rows per write: each gives the bytes
of its one-row-at-a-time reference in ``oracles``, refuses what it cannot
write, and holds one block of Python objects at a time."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from oracles import (predict_loop, render_floats_loop, save_svmlight_loop,
                     write_movielens_loop)
from polyfactor import cli, data
from polyfactor.data import load_movielens, load_svmlight, make_dataset, save_svmlight
from polyfactor.models import (Model, _render_floats, empty_model, load_model, model_to_json,
                               save_model)
from polyfactor.synth import make_ratings, write_movielens

TESTS = Path(__file__).resolve().parent
BLOCK = data._BLOCK_ROWS
# no rows, one row, and each side of a block boundary
ROW_COUNTS = st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]) | st.integers(0, 5)
# negative zero, the smallest subnormal, the largest subnormal, the largest
# double, and values whose shortest repr takes 1 to 17 digits
SPECIAL = np.array([-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                    -1.7976931348623157e308, 0.1, -2.5, 1e16, 1 / 3, 123456789.0])
LABELS = [-3, -1.5, 0, 1, 2, 2.5, 7, 1e6, 0.1, 1e-300]
INT64_MAX = 2**63 - 1


def draw_values(rng, shape):
    """Doubles across the exponent range, three in ten of them special."""
    spread = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    return np.where(rng.random(shape) < 0.3, rng.choice(SPECIAL, shape), spread)


@st.composite
def svm_sets(draw):
    """Datasets with empty rows, stored zeros (-0.0 too), negative and
    non-integral labels, some bias-augmented."""
    n, d = draw(ROW_COUNTS), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = np.nonzero(rng.random((n, d)) < draw(st.sampled_from([0.0, 0.4, 1.0])))
    X = sp.csr_matrix((draw_values(rng, rows.size), (rows, cols)), shape=(n, d))
    label_map = sorted(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4,
                                     unique=True)))
    y = rng.integers(1, len(label_map) + 1, n)
    augment = draw(st.booleans())
    if augment:
        X = sp.hstack([sp.csr_matrix(np.ones((n, 1))), X], format="csr")
    return make_dataset(X, y, len(label_map), label_map=label_map, bias_augmented=augment)


@st.composite
def ratings_columns(draw):
    """(users, items, ratings) as int64 or uint64 arrays with ids up to the
    int64 maximum, as lists of such ints, or as floats (integral or not,
    negative too) in arrays, lists and lists mixed with big ints."""
    n = draw(ROW_COUNTS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["int64", "uint64", "int list", "integral floats",
                                 "floats", "float list", "mixed list"]))
    ids = rng.integers(1, INT64_MAX, (2, n), endpoint=True)
    ids[:, rng.random(n) < 0.2] = INT64_MAX
    ratings = rng.integers(1, 6, n)
    if kind == "uint64":
        return ids[0].astype(np.uint64), ids[1].astype(np.uint64), ratings.astype(np.uint64)
    if kind == "int list":
        return ids[0].tolist(), ids[1].tolist(), ratings.tolist()
    if kind == "integral floats":
        return (ids[0] >> 11).astype(np.float64), (ids[1] >> 11).astype(np.float64), \
            ratings.astype(np.float64)
    floats = rng.uniform(-1e6, 1e6, (3, n))
    if kind == "floats":
        return floats[0], floats[1], floats[2]
    if kind == "float list":
        return floats[0].tolist(), floats[1].tolist(), floats[2].tolist()
    if kind == "mixed list":
        return ids[0].tolist(), floats[1].tolist(), [*ratings.tolist()]
    return ids[0], ids[1], ratings


class TestWriteMovielens:
    @settings(max_examples=60, deadline=None)
    @given(columns=ratings_columns(), sep=st.sampled_from(["\t", "::"]))
    def test_bytes_match_the_row_loop(self, columns, sep):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got"), Path(tmp, "want")
            write_movielens(*columns, got, sep=sep)
            write_movielens_loop(*columns, want, sep=sep)
            assert got.read_bytes() == want.read_bytes()

    def test_int64_ids_write_exactly(self, tmp_path):
        # through float64 the largest id would read 9223372036854775808
        path = tmp_path / "r.data"
        for column in ([INT64_MAX], np.array([INT64_MAX])):
            write_movielens(column, column, [5], path)
            assert path.read_text() == f"{INT64_MAX}\t{INT64_MAX}\t5\t880000000\n"

    def test_lists_and_arrays_write_the_same_bytes(self, tmp_path):
        columns = make_ratings(30, 40, 400, seed=0)
        write_movielens(*columns, tmp_path / "arrays", sep="::")
        write_movielens(*(c.tolist() for c in columns), tmp_path / "lists", sep="::")
        assert (tmp_path / "arrays").read_bytes() == (tmp_path / "lists").read_bytes()

    @pytest.mark.parametrize("sizes", [(3, 2, 3), (2, 3, 3), (3, 3, 2), (0, 1, 1)])
    def test_unequal_columns_refused(self, sizes, tmp_path):
        # zip would write the shortest column's rows and drop the rest
        users, items, ratings = ([1] * size for size in sizes)
        with pytest.raises(ValueError, match="each row needs all three"):
            write_movielens(users, items, ratings, tmp_path / "r.data")
        assert not (tmp_path / "r.data").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_non_finite_refused(self, bad, as_list, tmp_path):
        ratings = np.array([1.0, 2.0, bad])
        with pytest.raises(ValueError):
            write_movielens([1, 2, 3], [1, 2, 3], ratings.tolist() if as_list else ratings,
                            tmp_path / "r.data")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak resident set from Linux's /proc")
    def test_million_row_file_holds_one_block(self):
        # 1,000,209 rows (the 1M release's count) from int64 arrays: one
        # block's objects, not one per row. The whole file in one block
        # held ~196 MB; 128-row blocks measured 4 kB and 4,096-row blocks
        # 0.47 MB, so the bound allows for allocator noise
        bound = 1e6
        assert resident_rise(None) < bound < resident_rise(1_000_209)


def resident_rise(block):
    """Bytes by which writing the 1M-row "::" file to the null device (in
    blocks of ``block`` rows, or the default) lifts a fresh process's peak
    resident set above its resident set after the arrays are built. Both
    come from /proc/self/status (VmHWM, VmRSS), as in test_gradients."""
    code = ("import json, os\n"
            "import numpy as np\n"
            "from polyfactor import data, synth\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(1024 * int(line.split()[1]) for line in fh\n"
            "                    if line.startswith(key + ':'))\n"
            "rng = np.random.default_rng(0)\n"
            "n = 1_000_209\n"
            "users, items = rng.integers(1, 6041, n), rng.integers(1, 3953, n)\n"
            "ratings = rng.integers(1, 6, n)\n"
            f"data._BLOCK_ROWS = {block} or data._BLOCK_ROWS\n"
            "before = status('VmRSS')\n"
            "synth.write_movielens(users, items, ratings, os.devnull, sep='::')\n"
            "print(json.dumps(status('VmHWM') - before))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestSaveSvmlight:
    @settings(max_examples=60, deadline=None)
    @given(ds=svm_sets())
    def test_bytes_match_the_row_loop(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got"), Path(tmp, "want")
            save_svmlight(ds, got)
            save_svmlight_loop(ds, want)
            assert got.read_bytes() == want.read_bytes()

    def test_rewrites_a_written_file(self, tmp_path):
        first, again = tmp_path / "first.svm", tmp_path / "again.svm"
        save_svmlight(pinned_svm_set(False), first)
        save_svmlight(load_svmlight(first, augment_bias=True), again)
        assert again.read_bytes() == first.read_bytes()


class TestRenderFloats:
    @given(st.lists(st.floats() | st.sampled_from(SPECIAL.tolist()), max_size=40))
    def test_text_matches_the_value_loop(self, values):
        values = np.array(values, dtype=np.float64)
        assert _render_floats(values) == render_floats_loop(values)

    @pytest.mark.parametrize("kind, d, m", [("pn", 3, 2), ("fm", 0, 1), ("fm", 5, 0)])
    def test_empty_model_json(self, kind, d, m):
        doc = json.loads(model_to_json(empty_model(kind, d, m, "squared", "l1", 0.5)))
        assert doc["k"] == 0 and doc["H"] == [] and doc["V"] == []


class TestPredict:
    @settings(max_examples=40, deadline=None)
    @given(n=ROW_COUNTS, loss=st.sampled_from(["logistic", "squared-hinge", "binary-logistic",
                                               "squared"]),
           kind=st.sampled_from(["pn", "fm"]), k=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), augment=st.booleans())
    def test_lines_match_the_row_loop(self, n, loss, kind, k, seed, augment):
        rng = np.random.default_rng(seed)
        d = 4
        X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.7)
        if loss == "squared":
            m, label_map = 1, rng.choice(LABELS, rng.integers(0, 4), replace=False)
        else:
            m = int(rng.integers(2, 5))
            label_map = np.sort(rng.choice(LABELS, m, replace=False)) if rng.random() < 0.8 else []
        model = random_model(rng, kind, k, d + augment, m, loss, label_map, augment)
        with tempfile.TemporaryDirectory() as tmp:
            path, model_path = Path(tmp, "rows.svm"), Path(tmp, "model.json")
            save_svmlight(make_dataset(X, np.ones(n, dtype=np.int64), 1), path)
            save_model(model, model_path)
            got = predicted(["--data", path, "--model", model_path])
            model = load_model(model_path)
            want = predict_loop(model, load_svmlight(path, augment_bias=augment, d=model.d).X)
        assert got == want and got.count("\n") == n

    def test_movielens_lines_match_the_row_loop(self, tmp_path):
        path = tmp_path / "r.dat"
        write_movielens(*make_ratings(30, 40, BLOCK * 3 + 5, seed=2), path, sep="::")
        ds = load_movielens(path)
        for loss, m in (("binary-logistic", ds.m), ("squared", 1)):
            model = random_model(np.random.default_rng(3), "fm", 2, ds.d, m, loss,
                                 range(1, ds.m + 1), False)
            save_model(model, tmp_path / "m.json")
            got = predicted(["--data", path, "--format", "movielens",
                             "--model", tmp_path / "m.json"])
            assert got == predict_loop(model, ds.X)


def random_model(rng, kind, k, d, m, loss, label_map, augment):
    H = rng.standard_normal((k, d))
    H /= np.maximum(np.linalg.norm(H, axis=1, keepdims=True), 1.0)
    return Model(kind=kind, H=H, V=5.0 * rng.standard_normal((k, m)), loss=loss,
                 penalty="l1", lam=0.1, label_map=tuple(np.asarray(label_map).tolist()),
                 bias_augmented=augment)


def predicted(flags) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["predict", *map(str, flags)]) == 0
    return out.getvalue()


def pinned_svm_set(augment):
    """300 rows of 6 features, 30% of them absent and row 5 empty, labels
    -1, 2.5 and 7; no BLAS product, so every platform draws the same."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((300, 6)) * (rng.random((300, 6)) < 0.7)
    X[5] = 0.0
    if augment:
        X = np.hstack([np.ones((300, 1)), X])
    return make_dataset(X, rng.integers(1, 4, 300), 3, label_map=(-1, 2.5, 7),
                        bias_augmented=augment)


def pinned_model():
    rng = np.random.default_rng(11)
    return random_model(rng, "pn", 3, 7, 4, "logistic", (1, 2, 3.5, 9), True)


class TestPinnedOutputs:
    # sha256 of each file as the one-row-at-a-time writers wrote it
    @pytest.mark.parametrize("write, digest", [
        (lambda p: write_movielens(*make_ratings(30, 40, 400, seed=0), p),
         "f8f4d23f0cd7c9718aaecd1069e6c86596f40c3fe271d286d57480a1e449f1a3"),
        (lambda p: write_movielens(*make_ratings(30, 40, 400, seed=0), p, sep="::"),
         "62994c11cb1eadcc05bb262b89cab1d14c0bc530b452949b3328f4c95f14c01f"),
        (lambda p: save_svmlight(pinned_svm_set(False), p),
         "6373a8bbf1ac7233104294fdcd50e7b9b1586414468cc0f0fbc3e4faf3d52a20"),
        (lambda p: save_svmlight(pinned_svm_set(True), p),
         "6373a8bbf1ac7233104294fdcd50e7b9b1586414468cc0f0fbc3e4faf3d52a20"),
        (lambda p: save_model(pinned_model(), p),
         "9358bec610b56ee9f787d539635d6def06b6dfa3b0497ad7f068a387f5e13e46"),
        (lambda p: save_model(empty_model("fm", 3, 2, "squared", "l1", 0.5), p),
         "6577bb7b7145a64b3511cf39d30dbfc8b5a4d8dc867261be9e44833a4eb68ec7"),
    ], ids=["movielens-tab", "movielens-colons", "svmlight", "svmlight-bias-augmented",
            "model", "k0-model"])
    def test_output_pinned(self, write, digest, tmp_path):
        path = tmp_path / "out"
        write(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
