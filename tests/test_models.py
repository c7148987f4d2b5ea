import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from polyfactor.data import make_dataset
from polyfactor.models import (
    Model,
    accuracy,
    activation,
    check_model,
    empty_model,
    hidden_activations,
    load_model,
    model_to_json,
    outputs,
    predict_class,
    save_model,
)


def anova_bruteforce(h, x):
    return sum(x[i] * h[i] * x[j] * h[j]
               for i in range(len(x)) for j in range(i + 1, len(x)))


def dense_weights(model, c):
    # explicit per-output weight matrix H^T diag(V[:, c]) H
    return model.H.T @ np.diag(model.V[:, c]) @ model.H


def random_model(rng, kind, d=5, m=3, k=4):
    H = rng.standard_normal((k, d))
    H /= np.maximum(np.linalg.norm(H, axis=1, keepdims=True), 1.0)
    V = rng.standard_normal((k, m))
    return Model(kind=kind, H=H, V=V, loss="logistic", penalty="l1l2", lam=0.1)


class TestActivation:
    def test_pn_zero_projection(self):
        h = np.array([1.0, -1.0])
        x = np.array([1.0, 1.0])
        assert activation("pn", h, x) == 0.0

    def test_fm_single_pair(self):
        assert activation("fm", np.array([3.0, 4.0]), np.array([1.0, 2.0])) == pytest.approx(24.0)

    def test_fm_matches_pair_enumeration(self, rng):
        for _ in range(50):
            h = rng.standard_normal(6)
            x = rng.standard_normal(6)
            assert activation("fm", h, x) == pytest.approx(anova_bruteforce(h, x), abs=1e-10)

    def test_fm_ignores_single_nonzero(self, rng):
        x = np.zeros(7)
        x[3] = rng.standard_normal()
        h = rng.standard_normal(7)
        assert activation("fm", h, x) == pytest.approx(0.0, abs=1e-15)

    def test_sparse_input(self, rng):
        h = rng.standard_normal(5)
        x = np.array([0.0, 2.0, 0.0, -1.0, 0.0])
        xs = sp.csr_matrix(x)
        assert activation("fm", h, xs) == pytest.approx(activation("fm", h, x))

    def test_matrix_form_matches_scalar(self, rng):
        H = rng.standard_normal((4, 6))
        X = rng.standard_normal((9, 6)) * (rng.random((9, 6)) < 0.5)
        Xs = sp.csr_matrix(X)
        for kind in ("pn", "fm"):
            Phi = hidden_activations(kind, H, Xs)
            for i in range(9):
                for r in range(4):
                    assert Phi[i, r] == pytest.approx(activation(kind, H[r], X[i]), abs=1e-10)


class TestOutputs:
    def test_empty_model_outputs_zero(self, rng):
        X = sp.csr_matrix(rng.standard_normal((5, 4)))
        for kind in ("pn", "fm"):
            model = empty_model(kind, 4, 3, "logistic", "l1", 0.1)
            got = outputs(model, X)
            assert got.shape == (5, 3) and np.array_equal(got, np.zeros((5, 3))), kind

    def test_single_unit_hits_one_output(self, rng):
        h = rng.standard_normal(4)
        h /= np.linalg.norm(h)
        V = np.zeros((1, 3))
        V[0, 1] = 2.5
        model = Model("pn", h[None, :], V, "logistic", "l1", 0.1)
        x = rng.standard_normal(4)
        o = outputs(model, sp.csr_matrix(x))[0]
        assert o[0] == 0.0 and o[2] == 0.0
        assert o[1] == pytest.approx(2.5 * activation("pn", h, x))

    def test_pn_outputs_match_dense_weight_oracle(self, rng):
        for _ in range(20):
            model = random_model(rng, "pn")
            x = rng.standard_normal(5)
            o = outputs(model, sp.csr_matrix(x))[0]
            for c in range(3):
                assert o[c] == pytest.approx(x @ dense_weights(model, c) @ x, rel=1e-10, abs=1e-12)

    def test_linear_in_v(self, rng):
        model = random_model(rng, "fm")
        model2 = Model(model.kind, model.H, 2.0 * model.V, model.loss, model.penalty, model.lam)
        X = sp.csr_matrix(rng.standard_normal((6, 5)))
        assert np.allclose(outputs(model2, X), 2.0 * outputs(model, X))

    @pytest.mark.parametrize("kind", ["pn", "fm"])
    def test_scale_identity(self, kind, rng):
        model = random_model(rng, kind)
        s = 0.7
        scaled = Model(kind, s * model.H, model.V / s**2, model.loss, model.penalty, model.lam)
        X = sp.csr_matrix(rng.standard_normal((8, 5)))
        assert np.allclose(outputs(scaled, X), outputs(model, X), atol=1e-10)


class TestPredict:
    def test_argmax(self):
        model = empty_model("pn", 2, 3, "logistic", "l1", 0.1)
        assert np.argmax(np.array([1.0, 3.0, 2.0])) + 1 == 2

    def test_tie_goes_to_smallest_class(self, rng):
        # an empty model outputs all zeros: every class ties
        model = empty_model("pn", 3, 4, "logistic", "l1", 0.1)
        X = sp.csr_matrix(rng.standard_normal((5, 3)))
        assert np.all(predict_class(model, X) == 1)

    def test_agrees_with_dense_weight_oracle(self, rng):
        for _ in range(20):
            model = random_model(rng, "pn", m=4)
            x = rng.standard_normal(5)
            dense_o = [x @ dense_weights(model, c) @ x for c in range(4)]
            assert predict_class(model, sp.csr_matrix(x))[0] == np.argmax(dense_o) + 1


class TestAccuracy:
    def class_2_model(self, label_map):
        # one basis row on feature 1 feeding output 2 only: every row with a
        # nonzero feature 1 predicts class 2
        return Model("pn", np.array([[1.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]), "logistic",
                     "l1", 0.1, label_map=label_map)

    def test_labels_not_class_indices(self):
        # the model predicts label 5; the file's labels {5, 9} are its classes 1..2
        ds = make_dataset(np.ones((3, 2)), np.array([1, 1, 2]), 2, label_map=(5.0, 9.0))
        assert accuracy(self.class_2_model((2, 5, 9)), ds) == pytest.approx(2 / 3)

    def test_empty_label_maps_read_as_class_numbers(self):
        ds = make_dataset(np.ones((4, 2)), np.array([2, 2, 1, 3]), 3)
        assert accuracy(self.class_2_model(()), ds) == 0.5

    def test_unseen_label_counts_as_wrong(self):
        # the file's class 2 is label 4, which the model never saw: no match
        ds = make_dataset(np.ones((2, 2)), np.array([1, 2]), 2, label_map=(2, 4))
        assert accuracy(self.class_2_model((2, 5, 9)), ds) == 0.0


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path, rng):
        model = random_model(rng, "fm", d=6, m=3, k=5)
        model.label_map = (1.0, 2.0, 5.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == model.kind and back.loss == model.loss
        assert back.penalty == model.penalty and back.lam == model.lam
        assert np.array_equal(back.H, model.H)
        assert np.array_equal(back.V, model.V)
        assert back.label_map == model.label_map
        X = sp.csr_matrix(rng.standard_normal((10, 6)))
        assert np.array_equal(outputs(back, X), outputs(model, X))

    def test_fixed_field_names(self, rng):
        import json

        doc = json.loads(model_to_json(random_model(rng, "pn")))
        assert set(doc) == {"kind", "loss", "penalty", "lambda", "d", "m", "k",
                            "H", "V", "label_map", "bias_augmented"}
        assert doc["k"] == 4 and doc["d"] == 5 and doc["m"] == 3
        assert len(doc["H"]) == 4 * 5 and len(doc["V"]) == 4 * 3

    def test_doubles_rendered_with_17_significant_digits(self, rng):
        text = model_to_json(random_model(rng, "pn"))
        payload = text.split('"H": [', 1)[1].split("]", 1)[0]
        first = payload.split(",")[0].strip()
        mantissa = first.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 17

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_float_rendering_round_trips(self, v):
        assert float(format(v, ".16e")) == v


class TestValidation:
    def test_unit_ball_enforced(self, rng):
        model = random_model(rng, "pn")
        model.H[0] *= 3.0
        with pytest.raises(ValueError, match="unit ball"):
            check_model(model)

    def test_row_count_mismatch(self, rng):
        model = random_model(rng, "pn")
        model.V = model.V[:-1]
        with pytest.raises(ValueError):
            check_model(model)

    @pytest.mark.parametrize("field", ["H", "V"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, field, bad, rng):
        model = random_model(rng, "pn")
        getattr(model, field)[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_model(model)


class TestLoadValidation:
    def write(self, tmp_path, rng, **changes):
        import json

        doc = json.loads(model_to_json(random_model(rng, "pn", m=3)))
        doc.update(changes)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    def test_valid_file_loads(self, tmp_path, rng):
        assert load_model(self.write(tmp_path, rng, label_map=[1, 2, 7])).m == 3

    def test_unknown_loss_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError, match="unknown loss"):
            load_model(self.write(tmp_path, rng, loss="hinge"))

    def test_unknown_penalty_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError, match="unknown penalty"):
            load_model(self.write(tmp_path, rng, penalty="l0"))

    def test_short_label_map_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError, match="label_map"):
            load_model(self.write(tmp_path, rng, label_map=[1, 2]))

    @pytest.mark.parametrize("loss", ["logistic", "binary-logistic"])
    def test_long_label_map_rejected(self, loss, tmp_path, rng):
        # predictions and expected ratings read one label per output
        with pytest.raises(ValueError, match="label_map has 4 entries for 3 outputs"):
            load_model(self.write(tmp_path, rng, loss=loss, label_map=[1, 2, 7, 9]))

    @pytest.mark.parametrize("field", ["kind", "lambda", "k", "H", "V", "label_map",
                                       "bias_augmented"])
    def test_missing_field_named(self, field, tmp_path, rng):
        path = self.write(tmp_path, rng)
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"lacks the field '{field}'"):
            load_model(path)

    def test_json_list_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="one JSON object, not a list"):
            load_model(path)

    @pytest.mark.parametrize("field, bad", [("k", -1), ("d", -5), ("m", -1), ("k", 1.5),
                                            ("d", "5"), ("m", True), ("k", None)])
    def test_counts_must_be_non_negative_integers(self, field, bad, tmp_path, rng):
        # a negative k used to pass, because reshape(k, d) infers the rows
        with pytest.raises(ValueError, match=f"'{field}' must be a non-negative integer"):
            load_model(self.write(tmp_path, rng, **{field: bad}))

    @pytest.mark.parametrize("field, bad, match", [
        ("H", [0.1] * 19, "'H' must be a flat list of k\\*d = 20 numbers"),
        ("V", [0.1] * 13, "'V' must be a flat list of k\\*m = 12 numbers"),
        ("H", [[0.1] * 5] * 4, "'H' must be a flat list"),
        ("V", ["a"] * 12, "'V' must be a list of numbers"),
        ("H", 0.5, "'H' must be a flat list"),
        ("lambda", [0.1], "'lambda' must be a positive number"),
        ("lambda", -1.0, "'lambda' must be a positive number"),
        ("label_map", 3, "'label_map' must be a list"),
        ("bias_augmented", "no", "'bias_augmented' must be true or false"),
    ])
    def test_malformed_values_named(self, field, bad, match, tmp_path, rng):
        with pytest.raises(ValueError, match=match):
            load_model(self.write(tmp_path, rng, **{field: bad}))

    def test_empty_model_loads(self, tmp_path, rng):
        # k = 0 with empty arrays is a valid (empty) model
        model = load_model(self.write(tmp_path, rng, k=0, H=[], V=[]))
        assert model.H.shape == (0, 5) and model.V.shape == (0, 3)
