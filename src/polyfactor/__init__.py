"""Multi-output polynomial networks and factorization machines trained by
greedy conditional-gradient basis selection with group-sparse refitting."""

from .data import Dataset, SplitSpec, load_movielens, load_svmlight, save_svmlight, split
from .losses import loss_gradients, loss_values
from .models import Model, load_model, outputs, predict_class, save_model
from .solver import SolverConfig, TraceRecord, fit, fit_path, support_check

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "SplitSpec",
    "load_movielens",
    "load_svmlight",
    "save_svmlight",
    "split",
    "loss_values",
    "loss_gradients",
    "Model",
    "outputs",
    "predict_class",
    "save_model",
    "load_model",
    "SolverConfig",
    "TraceRecord",
    "fit",
    "fit_path",
    "support_check",
]
