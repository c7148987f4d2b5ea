import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import polyfactor
from polyfactor import cli, solver
from polyfactor.cli import main
from polyfactor.data import load_movielens, load_svmlight, make_dataset, save_svmlight, take_rows
from polyfactor.gradients import GradientOperator
from polyfactor.mcrank import expected_relevance
from polyfactor.models import load_model, outputs, predict_labels
from polyfactor.solver import SolverConfig
from polyfactor.synth import make_multiclass, make_ratings, write_movielens


@pytest.fixture(scope="module")
def svm_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "multi.svm"
    ds = make_multiclass(120, 6, 3, n_basis=4, seed=0)
    save_svmlight(ds, path)
    return path


@pytest.fixture(scope="module")
def ml_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "u.data"
    users, items, ratings = make_ratings(25, 30, 300, seed=1)
    write_movielens(users, items, ratings, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestTrain:
    def test_train_writes_model_and_manifest(self, svm_file, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run("train", "--data", svm_file, "--out", out,
                   "--k-max", 4, "--lambda", "0.01")
        assert code == 0
        assert "final objective" in capsys.readouterr().out
        model = load_model(out)
        assert 0 < model.k <= 4
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["data"]["sha256"]
        assert manifest["config"]["k_max"] == 4
        assert manifest["config"]["seed"] == 0 and "seed" not in manifest
        assert "sep" not in manifest["config"]

    @pytest.mark.parametrize("flags", [("--model", "fm"), ("--loss", "squared")],
                             ids=lambda flags: " ".join(flags))
    def test_labels_only_file_refused(self, flags, tmp_path, capsys):
        # no features and no bias column (FM, or a squared loss): nothing to select
        data = tmp_path / "labels.svm"
        data.write_text("1\n2\n1\n3\n")
        out = tmp_path / "model.json"
        assert run("train", "--data", data, *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no features" in err
        assert err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "model.json.manifest.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, shape", [
        (("train", "--model", "pn"), (60, 3)), (("train", "--model", "fm"), (60, 3)),
        (("path",), (60, 3)), (("oracle-compare", "--instances", "0"), (60, 3)),
        # 30 x 20 dense rows hold PN's operators matrix-free
        (("train", "--model", "pn"), (30, 20)), (("path",), (30, 20))],
        ids=["train --model pn", "train --model fm", "path", "oracle-compare --instances 0",
             "train --model pn free", "path free"])
    def test_overflowing_features_refused(self, argv, shape, tmp_path, capsys):
        # finite values whose products overflow: the operator build refuses
        # them, with no numpy warning before the one error line
        X = np.random.default_rng(0).standard_normal(shape)
        X[:, 0] *= 1e200
        data = tmp_path / "huge.svm"
        ds = make_dataset(X, np.arange(shape[0]) % 3 + 1, 3)
        if shape[1] > 3:
            assert GradientOperator(ds, "pn").storage == "free"
        save_svmlight(ds, data)
        side = {"train": ("--trace", tmp_path / "side.out"),
                "path": ("--report", tmp_path / "side.out")}.get(argv[0], ())
        assert run(*argv, "--data", data, "--out", tmp_path / "model.json", *side) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite gradient operator") and "overflow" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [data]

    def test_out_of_memory_is_one_error_line(self, svm_file, tmp_path, capsys, monkeypatch):
        # an operator too large to allocate (an svmlight feature index of
        # 10^12 asks for terabytes) ends in one error line, not a traceback
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(GradientOperator, "__init__", no_memory)
        out = tmp_path / "model.json"
        assert run("train", "--data", svm_file, "--out", out) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [(), ("--mcrank", "--model", "fm")],
                             ids=["plain", "--mcrank --model fm"])
    def test_empty_ratings_file_refused(self, flags, tmp_path, capsys):
        data, out = tmp_path / "empty.data", tmp_path / "model.json"
        data.write_text("")
        assert run("train", "--data", data, "--format", "movielens", *flags, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot train on an empty dataset\n"
        assert not out.exists()

    def test_missing_data_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--out", tmp_path / "m.json")
        assert exc.value.code == 2

    def test_mcrank_loss_conflict(self, ml_file, tmp_path):
        code = run("train", "--data", ml_file, "--format", "movielens",
                   "--mcrank", "--model", "fm", "--loss", "logistic",
                   "--out", tmp_path / "m.json")
        assert code == 2

    def test_mcrank_needs_fm(self, ml_file, tmp_path):
        code = run("train", "--data", ml_file, "--format", "movielens",
                   "--mcrank", "--model", "pn", "--out", tmp_path / "m.json")
        assert code == 2

    def test_binary_logistic_without_mcrank_rejected(self, svm_file, tmp_path):
        code = run("train", "--data", svm_file, "--loss", "binary-logistic",
                   "--out", tmp_path / "m.json")
        assert code == 2

    def test_mcrank_model_has_rating_outputs(self, ml_file, tmp_path):
        out = tmp_path / "mc.json"
        code = run("train", "--data", ml_file, "--format", "movielens",
                   "--mcrank", "--model", "fm", "--penalty", "l1linf",
                   "--k-max", 3, "--lambda", "0.05", "--out", out)
        assert code == 0
        model = load_model(out)
        assert model.m == 5 and model.kind == "fm"

    def test_trace_deterministic_bytes(self, svm_file, tmp_path):
        args = ("train", "--data", svm_file, "--k-max", 3, "--lambda", "0.01",
                "--seed", 7, "--deterministic-trace")
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", tmp_path / "m1.json", "--trace", t1) == 0
        assert run(*args, "--out", tmp_path / "m2.json", "--trace", t2) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_trace_math_columns_deterministic_with_timing(self, svm_file, tmp_path):
        args = ("train", "--data", svm_file, "--k-max", 3, "--lambda", "0.01",
                "--seed", 7)
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(*args, "--out", tmp_path / "m1.json", "--trace", t1)
        run(*args, "--out", tmp_path / "m2.json", "--trace", t2)
        with t1.open() as f1, t2.open() as f2:
            rows1, rows2 = list(csv.reader(f1)), list(csv.reader(f2))
        assert [r[:4] for r in rows1] == [r[:4] for r in rows2]
        assert rows1[0] == ["t", "objective", "score", "k", "seconds"]

    @pytest.mark.parametrize("fixture, flags, augmented", [
        ("svm_file", ("--model", "pn"), True),
        ("svm_file", ("--model", "fm"), False),
        ("svm_file", ("--model", "pn", "--loss", "squared"), False),
        ("ml_file", ("--format", "movielens", "--mcrank", "--model", "fm"), False),
    ], ids=["svmlight-pn-logistic", "svmlight-fm", "svmlight-pn-squared", "movielens-mcrank"])
    def test_bias_feature_only_for_svmlight_pn_multiclass(self, fixture, flags, augmented,
                                                          request, tmp_path):
        data = request.getfixturevalue(fixture)
        out = tmp_path / "m.json"
        assert run("train", "--data", data, *flags, "--k-max", 2, "--lambda", "0.01",
                   "--out", out) == 0
        raw = load_svmlight(data) if fixture == "svm_file" else load_movielens(data)
        model = load_model(out)
        assert model.bias_augmented is augmented
        assert model.d == raw.d + augmented
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["config"]["augment_bias"] is augmented


@pytest.fixture(scope="module")
def trained(svm_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    assert run("train", "--data", svm_file, "--out", out,
               "--k-max", 5, "--lambda", "0.005", "--refit", "full",
               "--penalty", "l1l2") == 0
    return out


@pytest.fixture(scope="module")
def dropped_class(tmp_path_factory):
    """A model trained on 9 separable rows labelled 1, 2, 3 (a perfect fit),
    the 9-row file, and the 6 rows left when the class-2 rows are dropped."""
    tmp = tmp_path_factory.mktemp("dropped")
    rng = np.random.default_rng(3)
    y = np.arange(9) % 3 + 1
    ds = make_dataset(rng.standard_normal((9, 3)) + np.outer(y, [0.0, 3.0, 0.0]), y, 3)
    full, rest, model = tmp / "nine.svm", tmp / "six.svm", tmp / "model.json"
    save_svmlight(ds, full)
    save_svmlight(take_rows(ds, np.flatnonzero(y != 2)), rest)
    assert run("train", "--data", full, "--penalty", "l1l2", "--lambda", "0.01",
               "--k-max", 5, "--out", model) == 0
    return model, full, rest


@pytest.mark.parametrize("argv", [
    ("oracle-compare", "--m-max", "1"),
    ("oracle-compare", "--m-max", "0"),
    ("oracle-compare", "--m-max", "-3"),
    ("oracle-compare", "--n", "0"),
    ("oracle-compare", "--d", "0"),
    ("oracle-compare", "--instances", "-1"),
    ("oracle-compare", "--d", "65"),
    ("path", "--lambdas", "0.1,abc"),
    ("path", "--lambdas", ""),
    ("path", "--lambdas", "nan"),
    ("path", "--lambdas", "0.1,-1"),
    ("train", "--lambda", "nan"),
    ("train", "--lambda", "inf"),
    ("train", "--lambda", "1e309"),
    ("path", "--lambdas", "inf,1"),
    ("path", "--metric", "ndcg@x"),
    ("path", "--metric", "ndcg@0"),
    ("path", "--metric", "ndcg@1"),  # a multi-class loss has no ranking metric
    ("path", "--metric", "rmse"),
    ("path", "--loss", "squared"),  # the default metric is accuracy
    ("path", "--mcrank", "--model", "fm"),
    ("path", "--loss", "squared", "--metric", "ndcg@1"),  # svmlight rows carry no groups
], ids=lambda argv: " ".join(argv))
def test_malformed_values_are_usage_errors(argv, svm_file, tmp_path, capsys, monkeypatch):
    # refused before any fit: exit 2, a message, and no output file
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(cli, "fit", no_fit)
    monkeypatch.setattr(solver, "fit", no_fit)
    monkeypatch.setattr(cli, "compare_methods", no_fit)
    out = tmp_path / "out"
    data = () if argv[0] == "oracle-compare" else ("--data", svm_file, "--k-max", 2)
    assert run(*argv, *data, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("train",),
    ("train", "--format", "movielens", "--mcrank", "--model", "fm"),
    ("path",),
    ("path", "--format", "movielens", "--mcrank", "--model", "fm", "--metric", "rmse"),
    ("oracle-compare", "--instances", "1"),
], ids=lambda argv: " ".join(argv))
def test_negative_seed_refused_by_name(argv, svm_file, ml_file, tmp_path, capsys):
    # on dense svmlight data train never draws from the seed; on MovieLens
    # data numpy refused it without naming it
    data = ml_file if "movielens" in argv else svm_file
    data = () if argv[0] == "oracle-compare" else ("--data", data, "--k-max", 2)
    assert run(*argv, *data, "--seed", -1, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt, text", [
    ("movielens", "1\t1\t3\n2\t1\tinf\n"),
    ("movielens", "1\t1\t3\n2\t1\t1e400\n"),
    ("movielens", "1\t1\t3\n2\t1\t1e300\n"),
    ("movielens", "1\t1\t3\n2\t1\tnan\n"),
    ("movielens", f"1\t1\t3\n{2**63}\t1\t3\n"),
    ("movielens", f"1\t1\t3\n1\t{2**64}\t3\n"),
    ("svmlight", f"1 1:1.0\n2 {2**63}:1.0\n"),
    ("svmlight", "1 1:1.0\nnan 1:2.0\n"),
], ids=["inf-rating", "1e400-rating", "1e300-rating", "nan-rating", "big-user", "big-item",
        "big-index", "nan-label"])
def test_numbers_past_the_arrays_are_data_errors(fmt, text, tmp_path, capsys):
    # each loader refuses a number its arrays cannot hold, naming the line
    data = tmp_path / "input.txt"
    data.write_text(text)
    out = tmp_path / "model.json"
    flags = ("--mcrank", "--model", "fm") if fmt == "movielens" else ()
    assert run("train", "--data", data, "--format", fmt, *flags, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 2: " in err and not out.exists()


def test_auto_grid_refused_on_a_zero_gradient(tmp_path, capsys):
    # one label: every loss gradient is zero, so no lambda_max exists
    data = tmp_path / "one-label.svm"
    data.write_text("".join(f"1 1:{i + 1}.0 2:0.5\n" for i in range(20)))
    out = tmp_path / "model.json"
    assert run("path", "--data", data, "--lambdas", "auto", "--out", out) == 2
    assert capsys.readouterr().err == ("error: cannot derive a lambda grid from a zero "
                                       "gradient\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, flags", [
    ("empty.svm", ()),
    ("empty.data", ("--format", "movielens", "--mcrank", "--model", "fm", "--metric", "rmse"))],
    ids=["plain", "--mcrank --model fm --metric rmse"])
def test_path_on_an_empty_file_refused_as_train_refuses_it(name, flags, tmp_path, capsys):
    # an empty file splits into empty parts, which the solver refuses; 1-3
    # rows are still too few to split
    data, out = tmp_path / name, tmp_path / "model.json"
    data.write_text("")
    assert run("path", "--data", data, *flags, "--out", out) == 2
    assert capsys.readouterr().err == "error: cannot train on an empty dataset\n"
    assert not out.exists()
    data.write_text("1 1:1.0\n" if name.endswith(".svm") else "1\t1\t3\t0\n")
    assert run("path", "--data", data, *flags, "--out", out) == 1
    assert capsys.readouterr().err == "error: need at least 4 samples to split, got 1\n"
    assert not out.exists()


class TestFlags:
    def test_settable_values_per_command(self):
        parser = cli.build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        counts = {name: sum(not isinstance(action, argparse._HelpAction)
                            for action in sub._actions)
                  for name, sub in commands.items()}
        assert counts == {"train": 13, "predict": 3, "eval": 3, "path": 13,
                          "oracle-compare": 9}

    @pytest.mark.parametrize("command", ["train", "path"])
    def test_solver_flag_defaults_are_solver_config_defaults(self, command):
        args = cli.build_parser().parse_args([command, "--data", "d", "--out", "o"])
        lam = args.lam if command == "train" else SolverConfig.lam
        assert cli._solver_config(args, cli._resolve_loss(args), lam) == SolverConfig()

    @pytest.mark.parametrize("argv", [
        ("train", "--out", "m.json"),
        ("predict", "--model", "m.json"),
        ("eval", "--model", "m.json"),
        ("path", "--out", "m.json"),
        ("oracle-compare", "--out", "nu.csv"),
    ], ids=lambda argv: argv[0])
    def test_sep_flag_refused(self, argv, ml_file, tmp_path, capsys):
        # the separator comes from the file's first record
        argv = [tmp_path / a if a.endswith((".json", ".csv")) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--data", ml_file, "--format", "movielens", "--sep", "::")
        assert exc.value.code == 2
        assert "unrecognized arguments: --sep ::" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestPredictEval:
    def test_eval_beats_majority_class(self, trained, svm_file, capsys):
        assert run("eval", "--model", trained, "--data", svm_file) == 0
        report = json.loads(capsys.readouterr().out)
        ds = load_svmlight(svm_file, augment_bias=True)
        majority = max(np.bincount(ds.y)[1:]) / ds.n
        assert report["accuracy"] >= majority

    def test_predict_streams_one_line_per_row(self, trained, tmp_path, capsys):
        rows = tmp_path / "three.svm"
        save_svmlight(make_multiclass(3, 6, 3, seed=5), rows)
        assert run("predict", "--model", trained, "--data", rows) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eval_on_an_empty_file_refused(self, trained, tmp_path, capsys):
        # no rows, no accuracy: one error line and no report
        data = tmp_path / "empty.svm"
        data.write_text("")
        assert run("eval", "--model", trained, "--data", data) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", [b"", b"\xff{}"], ids=["empty", "not UTF-8"])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_model_file_that_is_not_json_is_named(self, command, text, svm_file, tmp_path,
                                                  capsys):
        model = tmp_path / "model.json"
        model.write_bytes(text)
        assert run(command, "--model", model, "--data", svm_file) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {model}: ") and captured.err.count("\n") == 1

    def test_eval_compares_labels(self, dropped_class, capsys):
        # without the class-2 rows the file's labels {1, 3} load as classes 1..2
        model, full, rest = dropped_class
        for data in (full, rest):
            assert run("eval", "--model", model, "--data", data) == 0
            assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0

    def test_predict_prints_labels_as_the_file_writes_them(self, dropped_class, capsys):
        model, full, rest = dropped_class
        for data in (full, rest):
            assert run("predict", "--model", model, "--data", data) == 0
            written = [line.split()[0] for line in data.read_text().splitlines()]
            assert capsys.readouterr().out.split() == written

    def test_dimension_mismatch_is_runtime_error(self, trained, tmp_path, capsys):
        # the model has 6 features and a bias column; the file's rows use 12
        bad = tmp_path / "wide.svm"
        save_svmlight(make_multiclass(4, 12, 3, seed=6), bad)
        for command in ("eval", "predict"):
            assert run(command, "--model", trained, "--data", bad) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert re.search(r"line 1: feature index (7|8|9|1[0-2]) is past the 6 features", err)

    @pytest.mark.parametrize("flags", [(), ("--loss", "squared")], ids=["logistic", "squared"])
    def test_narrower_svmlight_file_reads_at_model_width(self, flags, tmp_path, capsys):
        # an absent svmlight feature is 0: rows that skip the highest feature are
        # the model's rows with a zero there, not a different feature space
        rng = np.random.default_rng(8)
        y = np.arange(12) % 3 + 1
        X = rng.standard_normal((12, 3)) + np.outer(y, [0.0, 2.0, 0.0])
        wide, narrow, model_path = tmp_path / "wide.svm", tmp_path / "narrow.svm", tmp_path / "m.json"
        save_svmlight(make_dataset(X, y, 3), wide)
        X[:, 2] = 0.0
        save_svmlight(make_dataset(X, y, 3), narrow)
        assert "3:" not in narrow.read_text()
        assert run("train", "--data", wide, *flags, "--k-max", 3, "--lambda", "0.01",
                   "--out", model_path) == 0
        model = load_model(model_path)
        padded = sp.csr_matrix(np.hstack([np.ones((12, 1)), X]) if model.bias_augmented else X)
        capsys.readouterr()
        assert run("predict", "--model", model_path, "--data", narrow) == 0
        got = capsys.readouterr().out.split()
        if model.loss == "squared":
            assert [float(v) for v in got] == outputs(model, padded)[:, 0].tolist()
        else:
            assert [float(v) for v in got] == predict_labels(model, padded).tolist()
        assert run("eval", "--model", model_path, "--data", narrow) == 0
        assert capsys.readouterr().err == ""

    def test_movielens_width_mismatch_is_runtime_error(self, ml_file, tmp_path, capsys):
        # MovieLens columns come from the file's own id sets: another width is
        # another feature space, so it is refused
        out = tmp_path / "mc.json"
        assert run("train", "--data", ml_file, "--format", "movielens", "--mcrank",
                   "--model", "fm", "--k-max", 2, "--lambda", "0.05", "--out", out) == 0
        lines = ml_file.read_text().splitlines()
        first_user = lines[0].split("\t")[0]
        fewer = tmp_path / "fewer.data"
        fewer.write_text("".join(line + "\n" for line in lines
                                 if line.split("\t")[0] != first_user))
        d_model, d_data = load_model(out).d, load_movielens(fewer).d
        assert d_data < d_model
        capsys.readouterr()
        for command in ("eval", "predict"):
            assert run(command, "--model", out, "--data", fewer, "--format", "movielens") == 1
            assert capsys.readouterr().err == (f"error: model expects d={d_model} features "
                                               f"but the data has d={d_data}\n")

    def test_squared_loss_regresses_on_label_values(self, tmp_path, capsys):
        # real-valued labels: each is its own class index 1..60, but the
        # regression target and the predictions are the labels themselves
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 3))
        labels = np.round(20.0 * (X @ [0.6, 0.8, 0.0]) ** 2 - 10.0 * X[:, 2] ** 2, 1)
        data, out = tmp_path / "reg.svm", tmp_path / "reg.json"
        data.write_text("".join(f"{float(lab)!r} " + " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row))
                                + "\n" for lab, row in zip(labels, X)))
        assert run("train", "--data", data, "--loss", "squared", "--k-max", 4,
                   "--lambda", "0.01", "--out", out) == 0
        capsys.readouterr()
        assert run("predict", "--model", out, "--data", data) == 0
        preds = np.array([float(v) for v in capsys.readouterr().out.split()])
        assert np.sqrt(np.mean((preds - labels) ** 2)) < 0.2 * labels.std()
        assert run("eval", "--model", out, "--data", data) == 0
        assert json.loads(capsys.readouterr().out)["rmse"] == \
            pytest.approx(np.sqrt(np.mean((preds - labels) ** 2)), rel=1e-12)

    def test_rating_metrics_read_file_labels(self, tmp_path, capsys):
        # a model fit on labels {1, 2, 3}, scored on the rows labelled 2 or 3:
        # that file loads them as classes 1..2, but the truth is 2 and 3
        rng = np.random.default_rng(6)
        y = np.arange(30) % 3 + 1
        ds = make_dataset(rng.standard_normal((30, 3)) + np.outer(y, [0.0, 1.0, 0.0]), y, 3)
        full, rest, out = tmp_path / "full.svm", tmp_path / "rest.svm", tmp_path / "m.json"
        save_svmlight(ds, full)
        save_svmlight(take_rows(ds, np.flatnonzero(y != 1)), rest)
        assert run("train", "--data", full, "--loss", "squared", "--k-max", 3,
                   "--lambda", "0.01", "--out", out) == 0
        capsys.readouterr()
        assert run("predict", "--model", out, "--data", rest) == 0
        preds = np.array([float(v) for v in capsys.readouterr().out.split()])
        truth = y[y != 1].astype(np.float64)
        assert run("eval", "--model", out, "--data", rest) == 0
        rmse = json.loads(capsys.readouterr().out)["rmse"]
        assert rmse == pytest.approx(np.sqrt(np.mean((preds - truth) ** 2)), rel=1e-12)
        assert rmse != pytest.approx(np.sqrt(np.mean((preds - (truth - 1.0)) ** 2)), rel=1e-3)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: {key: value for key, value in doc.items() if key != "V"},
        lambda doc: [doc],
        lambda doc: {**doc, "k": -1},
    ], ids=["missing-field", "json-list", "negative-k"])
    def test_malformed_model_file_is_runtime_error(self, corrupt, trained, svm_file,
                                                   tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(corrupt(json.loads(trained.read_text()))))
        assert run("eval", "--model", bad, "--data", svm_file) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_single_output_regression_baseline(self, ml_file, tmp_path, capsys):
        # the squared-loss FM baseline used in the recommender comparison
        out = tmp_path / "reg.json"
        code = run("train", "--data", ml_file, "--format", "movielens",
                   "--model", "fm", "--loss", "squared", "--penalty", "l1linf",
                   "--k-max", 3, "--lambda", "0.05", "--out", out)
        assert code == 0
        model = load_model(out)
        assert model.m == 1 and model.loss == "squared"
        capsys.readouterr()
        assert run("eval", "--model", out, "--data", ml_file,
                   "--format", "movielens") == 0
        report = json.loads(capsys.readouterr().out)
        assert {"rmse", "ndcg@1", "ndcg@5"} <= set(report)

    @pytest.mark.parametrize("flags", [("--mcrank",), ("--loss", "squared")])
    def test_predict_rating_models(self, flags, ml_file, tmp_path, capsys):
        # mcrank models predict the expected rating, squared ones the raw output
        out = tmp_path / "m.json"
        assert run("train", "--data", ml_file, "--format", "movielens", *flags,
                   "--model", "fm", "--penalty", "l1linf", "--k-max", 3,
                   "--lambda", "0.05", "--out", out) == 0
        capsys.readouterr()
        assert run("predict", "--model", out, "--data", ml_file,
                   "--format", "movielens") == 0
        got = [float(v) for v in capsys.readouterr().out.split()]
        model, ds = load_model(out), load_movielens(ml_file)
        assert model.k > 0
        if model.loss == "binary-logistic":
            want = expected_relevance(model, ds.X)
        else:
            want = outputs(model, ds.X)[:, 0]
        assert got == want.tolist()

    def test_double_colon_file_needs_no_flag(self, tmp_path, capsys):
        # the same records as a 100k-style tab file and a 1M-style "::" file
        users, items, ratings = make_ratings(25, 30, 300, seed=1)
        reports, models = [], []
        for name, sep in (("u.data", "\t"), ("ratings.dat", "::")):
            data, out = tmp_path / name, tmp_path / f"{name}.json"
            write_movielens(users, items, ratings, data, sep=sep)
            assert run("train", "--data", data, "--format", "movielens", "--mcrank",
                       "--model", "fm", "--penalty", "l1linf", "--k-max", 3,
                       "--lambda", "0.05", "--out", out) == 0
            assert run("eval", "--model", out, "--data", data, "--format", "movielens") == 0
            reports.append(capsys.readouterr().out)
            models.append(out.read_bytes())
        assert reports[0] == reports[1] and models[0] == models[1]
        assert json.loads(reports[0].splitlines()[-1])["k"] > 0

    def test_mcrank_eval_reports_ranking_metrics(self, ml_file, tmp_path, capsys):
        out = tmp_path / "mc.json"
        run("train", "--data", ml_file, "--format", "movielens", "--mcrank",
            "--model", "fm", "--penalty", "l1linf", "--k-max", 3,
            "--lambda", "0.05", "--out", out)
        capsys.readouterr()
        assert run("eval", "--model", out, "--data", ml_file,
                   "--format", "movielens") == 0
        report = json.loads(capsys.readouterr().out)
        assert {"rmse", "ndcg@1", "ndcg@5", "k", "lambda", "penalty",
                "model_kind"} <= set(report)


class TestPath:
    def test_single_point_grid(self, svm_file, tmp_path, capsys):
        out = tmp_path / "best.json"
        report_path = tmp_path / "report.json"
        code = run("path", "--data", svm_file, "--lambdas", "0.01",
                   "--k-max", 4, "--out", out, "--report", report_path)
        assert code == 0
        best = json.loads(capsys.readouterr().out)
        assert best["lambda"] == 0.01
        report = json.loads(report_path.read_text())
        assert len(report["per_lambda"]) == 1
        assert load_model(out).k == best["k"]

    def test_two_point_grid_selects_best_validation(self, svm_file, tmp_path, capsys):
        out = tmp_path / "best.json"
        code = run("path", "--data", svm_file, "--lambdas", "1000000,0.01",
                   "--k-max", 4, "--out", out)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == 0.01

    def test_lambda_flag_refused(self, svm_file, tmp_path):
        # the grid sets every fit's weight, so path takes no --lambda
        out = tmp_path / "best.json"
        with pytest.raises(SystemExit) as exc:
            run("path", "--data", svm_file, "--lambda", "5", "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_auto_grid_has_ten_points(self, svm_file, tmp_path, capsys):
        out = tmp_path / "best.json"
        report_path = tmp_path / "report.json"
        code = run("path", "--data", svm_file, "--k-max", 2, "--out", out,
                   "--report", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        lams = [entry["lambda"] for entry in report["per_lambda"]]
        assert len(lams) == 10
        assert lams == sorted(lams, reverse=True)
        assert lams[0] / lams[-1] == pytest.approx(1000.0, rel=1e-6)

    @pytest.mark.parametrize("flags, metric, best_of", [
        (("--mcrank",), "ndcg@1", max),
        (("--loss", "squared"), "rmse", min),
    ])
    def test_rating_metrics_select_best(self, flags, metric, best_of, ml_file, tmp_path,
                                        capsys):
        out = tmp_path / "best.json"
        report_path = tmp_path / "report.json"
        code = run("path", "--data", ml_file, "--format", "movielens", *flags,
                   "--model", "fm", "--penalty", "l1linf", "--lambdas", "0.5,0.05",
                   "--k-max", 3, "--metric", metric, "--out", out,
                   "--report", report_path)
        assert code == 0
        best = json.loads(capsys.readouterr().out)
        report = json.loads(report_path.read_text())
        metrics = [entry["metric"] for per in report["per_lambda"]
                   for entry in per["iterations"]]
        assert len(metrics) > 1
        assert best["metric"] == best_of(metrics)
        model = load_model(out)
        assert model.k == best["k"]
        assert model.m == (5 if "--mcrank" in flags else 1)

    @pytest.mark.parametrize("penalty", ["l1", "l1l2", "l1linf"])
    def test_auto_grid_top_learns_nothing(self, penalty, svm_file, tmp_path):
        # the grid starts at lambda_max, where the first atom stays at zero
        report_path = tmp_path / "report.json"
        code = run("path", "--data", svm_file, "--penalty", penalty, "--k-max", 2,
                   "--out", tmp_path / "best.json", "--report", report_path)
        assert code == 0
        top = json.loads(report_path.read_text())["per_lambda"][0]
        assert top["iterations"] == []


def test_cli_import_leaves_scipy_linalg_out():
    # scipy.sparse.linalg alone adds ~9 MB of peak RSS to every run
    src = str(Path(polyfactor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, polyfactor.cli; "
            "loaded = [m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules]; "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestOracleCompare:
    def test_writes_method_rows(self, tmp_path):
        out = tmp_path / "nu.csv"
        code = run("oracle-compare", "--instances", 12, "--n", 24, "--d", 8,
                   "--m-max", 4, "--out", out, "--seed", 3)
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {
            "exact", "l1-init+refine", "l1-init", "random-init",
            "random-init+refine", "best-data"}
        medians = {}
        for method in ("l1-init+refine", "l1-init", "random-init",
                       "random-init+refine", "best-data"):
            nus = [float(r["nu_hat"]) for r in rows if r["method"] == method]
            assert all(nu <= 1.0 + 1e-9 for nu in nus)
            medians[method] = float(np.median(nus))
        best = max(medians, key=medians.get)
        assert medians["l1-init+refine"] >= medians[best] - 1e-9

    def test_dataset_rows(self, svm_file, tmp_path):
        # the dataset's logistic gradient at the zero model as one more instance
        out = tmp_path / "nu.csv"
        code = run("oracle-compare", "--data", svm_file, "--instances", 0,
                   "--out", out, "--seed", 3)
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["instance"] for r in rows} == {"dataset"}
        assert [r["method"] for r in rows] == [
            "exact", "l1-init+refine", "l1-init", "random-init",
            "random-init+refine", "best-data"]
        assert rows[0]["nu_hat"] == "1.0"
        assert all(0.0 < float(r["nu_hat"]) <= 1.0 + 1e-9 for r in rows)

    def test_m_over_limit_refused(self, tmp_path, capsys):
        code = run("oracle-compare", "--m-max", 13, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "exponential" in capsys.readouterr().err

    def test_d_over_limit_refused_before_any_instance(self, tmp_path, capsys, monkeypatch):
        # the exact oracle runs 2^m dense d x d eigensolves: random instances
        # and a --data set alike are held to d <= 64
        def no_run(*args, **kwargs):
            raise AssertionError("an instance ran")

        wide, out = tmp_path / "wide.svm", tmp_path / "x.csv"
        save_svmlight(make_multiclass(20, cli.ORACLE_MAX_D + 1, 3, seed=0), wide)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "compare_methods", no_run)
            for argv in (("--d", cli.ORACLE_MAX_D + 1), ("--data", wide)):
                assert run("oracle-compare", *argv, "--out", out) == 2
                assert str(cli.ORACLE_MAX_D) in capsys.readouterr().err
                assert not out.exists()
        assert run("oracle-compare", "--d", cli.ORACLE_MAX_D, "--instances", 1, "--m-max", 2,
                   "--n", 4, "--out", out) == 0

    def test_dataset_over_limit_refused(self, tmp_path, capsys):
        # every one of 13 labels present, so the file loads as m = 13
        rng = np.random.default_rng(0)
        data = tmp_path / "thirteen.svm"
        save_svmlight(make_dataset(rng.standard_normal((26, 4)), np.tile(np.arange(1, 14), 2), 13),
                      data)
        out = tmp_path / "x.csv"
        code = run("oracle-compare", "--data", data, "--instances", 0, "--out", out)
        assert code == 2
        assert "exponential" in capsys.readouterr().err
        assert not out.exists()
