import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyfactor
from polyfactor import cli, solver
from polyfactor.cli import main
from polyfactor.data import load_movielens, load_svmlight, save_svmlight
from polyfactor.mcrank import expected_relevance
from polyfactor.models import load_model, outputs
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
        rows1 = list(csv.reader(t1.open()))
        rows2 = list(csv.reader(t2.open()))
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


@pytest.mark.parametrize("argv", [
    ("oracle-compare", "--m-max", "1"),
    ("oracle-compare", "--m-max", "0"),
    ("oracle-compare", "--m-max", "-3"),
    ("oracle-compare", "--n", "0"),
    ("oracle-compare", "--d", "0"),
    ("oracle-compare", "--instances", "-1"),
    ("path", "--lambdas", "0.1,abc"),
    ("path", "--lambdas", ""),
    ("path", "--lambdas", "nan"),
    ("path", "--lambdas", "0.1,-1"),
    ("train", "--lambda", "nan"),
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

    def test_dimension_mismatch_is_runtime_error(self, trained, tmp_path, capsys):
        bad = tmp_path / "wide.svm"
        save_svmlight(make_multiclass(4, 12, 3, seed=6), bad)
        for command in ("eval", "predict"):
            assert run(command, "--model", trained, "--data", bad) == 1
            assert capsys.readouterr().err == ("error: model expects d=7 features "
                                               "but the data has d=13\n")

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
        rows = list(csv.DictReader(out.open()))
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
        rows = list(csv.DictReader(out.open()))
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
