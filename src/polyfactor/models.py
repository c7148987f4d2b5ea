"""Factored degree-2 models: squared (PN) and ANOVA (FM) activations,
multi-output prediction and JSON persistence.

A model is a basis matrix H (k x d, rows inside the unit l2 ball) and an
output matrix V (k x m); output c is sum_r sigma(h_r, x) v_{r,c}. The dense
per-output weight matrices implied by the factorization are never built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .losses import LOSSES
from .penalties import PENALTIES

MODEL_KINDS = ("pn", "fm")
ROW_NORM_SLACK = 1e-9


@dataclass
class Model:
    kind: str
    H: np.ndarray  # (k, d)
    V: np.ndarray  # (k, m)
    loss: str
    penalty: str
    lam: float
    label_map: tuple = ()
    bias_augmented: bool = False

    @property
    def k(self) -> int:
        return self.H.shape[0]

    @property
    def d(self) -> int:
        return self.H.shape[1]

    @property
    def m(self) -> int:
        return self.V.shape[1]


def empty_model(kind, d, m, loss, penalty, lam, label_map=(), bias_augmented=False) -> Model:
    return Model(kind=kind, H=np.zeros((0, d)), V=np.zeros((0, m)), loss=loss,
                 penalty=penalty, lam=float(lam), label_map=tuple(label_map),
                 bias_augmented=bias_augmented)


def check_model(model: Model) -> None:
    if model.kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model.kind!r}")
    if model.H.shape[0] != model.V.shape[0]:
        raise ValueError(f"H has {model.H.shape[0]} rows but V has {model.V.shape[0]}")
    if not (np.isfinite(model.H).all() and np.isfinite(model.V).all()):
        raise ValueError("H or V has non-finite entries")
    worst = np.linalg.norm(model.H, axis=1).max(initial=0.0)
    if worst > 1.0 + ROW_NORM_SLACK:
        raise ValueError(f"basis row norm {worst} exceeds the unit ball")


def hidden_activations(kind: str, H: np.ndarray, X, X2=None, Z=None) -> np.ndarray:
    """Activation matrix Phi (n x k): Phi[i, r] = sigma(h_r, x_i).

    FM reads X∘X from ``X2`` when given (``Dataset.X2`` caches it) and
    squares X otherwise; ``Z`` passes X H^T when the caller already has it.
    """
    Z = np.asarray(X @ H.T if Z is None else Z)
    if kind == "pn":
        return Z * Z
    if kind == "fm":
        if X2 is None:
            X2 = X.multiply(X) if sp.issparse(X) else np.asarray(X) ** 2
        return 0.5 * (Z * Z - np.asarray(X2 @ (H * H).T))
    raise ValueError(f"unknown model kind {kind!r}")


def outputs(model: Model, X, X2=None) -> np.ndarray:
    """Model outputs (n x m); the empty model gives zeros. ``X2`` as in
    ``hidden_activations``."""
    return hidden_activations(model.kind, model.H, X, X2) @ model.V


def predict_class(model: Model, X) -> np.ndarray:
    """Argmax class indices in 1..m; ties go to the smallest index."""
    return np.argmax(outputs(model, X), axis=1) + 1


def class_labels(label_map, m: int) -> np.ndarray:
    """The label of each class 1..m: ``label_map``, or 1..m when it is empty."""
    return np.asarray(label_map if label_map else range(1, m + 1))


def predict_labels(model: Model, X) -> np.ndarray:
    """Predicted labels: each row's argmax class through the model's label_map."""
    return class_labels(model.label_map, model.m)[predict_class(model, X) - 1]


def accuracy(model: Model, ds) -> float:
    """Share of rows whose predicted label equals the row's label. Both sides
    are label values, each read through its own label_map, so a file that
    lacks some of the training labels (and re-indexes the rest) scores the
    same; a label the model never saw counts as wrong. A dataset with no rows
    has no share and is refused."""
    if ds.n < 1:
        raise ValueError("cannot score accuracy on an empty dataset")
    return float(np.mean(predict_labels(model, ds.X) == ds.labels))


def _render_floats(values: np.ndarray) -> str:
    """The array as a JSON list: each value ``%.16e`` (17 significant digits
    always round-trip a double), ", " between them, in one format call."""
    values = values.tolist()
    return "[" + ", ".join(["%.16e"] * len(values)) % tuple(values) + "]"


def model_to_json(model: Model) -> str:
    """Serialize to the fixed single-document JSON layout."""
    fields = [
        f'"kind": {json.dumps(model.kind)}',
        f'"loss": {json.dumps(model.loss)}',
        f'"penalty": {json.dumps(model.penalty)}',
        f'"lambda": {format(float(model.lam), ".16e")}',
        f'"d": {model.d}',
        f'"m": {model.m}',
        f'"k": {model.k}',
        f'"H": {_render_floats(model.H.ravel())}',
        f'"V": {_render_floats(model.V.ravel())}',
        f'"label_map": {json.dumps(list(model.label_map))}',
        f'"bias_augmented": {json.dumps(model.bias_augmented)}',
    ]
    return "{\n" + ",\n".join("  " + f for f in fields) + "\n}\n"


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


_MODEL_FIELDS = ("kind", "loss", "penalty", "lambda", "d", "m", "k", "H", "V",
                 "label_map", "bias_augmented")


def _float_array(doc, field: str, size: int, shape_note: str) -> np.ndarray:
    """The flat list ``doc[field]`` as float64, which must hold ``size`` values."""
    try:
        values = np.asarray(doc[field], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"model field {field!r} must be a list of numbers") from None
    if values.ndim != 1 or values.size != size:
        raise ValueError(f"model field {field!r} must be a flat list of "
                         f"{shape_note} = {size} numbers")
    return values


def load_model(path) -> Model:
    """Read a model file, refusing with ValueError that names the file one that
    is not UTF-8 JSON or not a complete, consistent model; OSError passes through."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _model_from_doc(json.load(fh))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
            raise ValueError(f"{path}: {exc}") from None


def _model_from_doc(doc) -> Model:
    """The model a decoded model file describes, checked field by field."""
    if not isinstance(doc, dict):
        raise ValueError(f"a model file holds one JSON object, not a {type(doc).__name__}")
    missing = [field for field in _MODEL_FIELDS if field not in doc]
    if missing:
        raise ValueError(f"model file lacks the field {missing[0]!r}")
    for field in ("k", "d", "m"):
        if type(doc[field]) is not int or doc[field] < 0:
            raise ValueError(f"model field {field!r} must be a non-negative integer, "
                             f"not {doc[field]!r}")
    k, d, m = doc["k"], doc["d"], doc["m"]
    big = float(np.finfo(np.float64).max)  # NaN, Infinity and huge ints fail below
    if type(doc["lambda"]) not in (int, float) or not 0 < doc["lambda"] <= big:
        raise ValueError(f"model field 'lambda' must be a positive number, "
                         f"not {doc['lambda']!r}")
    if not isinstance(doc["label_map"], list) or not all(
            type(label) in (int, float) and -big <= label <= big
            for label in doc["label_map"]):
        raise ValueError("model field 'label_map' must be a list of finite numbers")
    if type(doc["bias_augmented"]) is not bool:
        raise ValueError(f"model field 'bias_augmented' must be true or false, "
                         f"not {doc['bias_augmented']!r}")
    if doc["loss"] not in LOSSES:
        raise ValueError(f"unknown loss {doc['loss']!r}; expected one of {LOSSES}")
    if doc["penalty"] not in PENALTIES:
        raise ValueError(f"unknown penalty {doc['penalty']!r}; expected one of {PENALTIES}")
    # one label per output; a squared model keeps all of its training file's labels
    n_labels = len(doc["label_map"])
    if n_labels and (n_labels < m or (n_labels > m and doc["loss"] != "squared")):
        raise ValueError(f"label_map has {n_labels} entries for {m} outputs")
    model = Model(
        kind=doc["kind"],
        H=_float_array(doc, "H", k * d, "k*d").reshape(k, d),
        V=_float_array(doc, "V", k * m, "k*m").reshape(k, m),
        loss=doc["loss"],
        penalty=doc["penalty"],
        lam=float(doc["lambda"]),
        label_map=tuple(doc["label_map"]),
        bias_augmented=bool(doc["bias_augmented"]),
    )
    check_model(model)
    return model

