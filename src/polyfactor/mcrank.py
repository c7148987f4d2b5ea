"""Ordinal-to-multi-output reduction for rating prediction and the ranking
and regression metrics used to evaluate it.

One probabilistic binary classifier per rating threshold ("is the rating at
most c?") is trained jointly as a multi-output model with a shared basis;
items are scored by the expected rating implied by the threshold
probabilities.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import MULTICLASS_LOSSES
from .models import Model, class_labels, outputs
from .solver import ConfigError, SolverConfig, TraceRecord, fit


@dataclass(frozen=True)
class RankingGroups:
    """Samples grouped by query/user id: ``order`` holds the sample indices
    sorted by id, stable within a group, ``sizes`` each group's count in
    ascending id order, and ``ratings`` the true ratings in ``order``."""

    order: np.ndarray
    sizes: np.ndarray
    ratings: np.ndarray

    @staticmethod
    def from_ids(group_ids, ratings) -> "RankingGroups":
        group_ids = np.asarray(group_ids)
        order = np.argsort(group_ids, kind="stable")
        sizes = np.unique(group_ids[order], return_counts=True)[1]
        return RankingGroups(order=order, sizes=sizes, ratings=np.asarray(ratings)[order])


def build_ordinal(ds: Dataset) -> Dataset:
    """Attach the {-1,+1} threshold matrix: +1 at column c iff y <= c+1."""
    if ds.y.min() < 1 or ds.y.max() > ds.m:
        raise ValueError(f"ratings must lie in 1..{ds.m}")
    levels = np.arange(1, ds.m + 1)
    Y = np.where(ds.y[:, None] <= levels[None, :], 1.0, -1.0)
    return dataclasses.replace(ds, Y=Y)


def fit_mcrank(ds: Dataset, cfg: SolverConfig) -> tuple[Model, list[TraceRecord]]:
    """Train the multi-output threshold classifiers with a shared basis on
    the ratings ``ds``; the threshold matrix is attached here."""
    if cfg.model != "fm":
        raise ConfigError("the ordinal reduction is wired for FM activations")
    if cfg.loss != "binary-logistic":
        raise ConfigError("threshold classifiers need the binary-logistic loss")
    return fit(build_ordinal(ds), cfg)


def threshold_probabilities(model: Model, X) -> np.ndarray:
    """Monotone cumulative probabilities p(y <= c | x), clamped to end at 1."""
    P = 1.0 / (1.0 + np.exp(-outputs(model, X)))
    P = np.maximum.accumulate(P, axis=1)  # raw sigmoids need not be monotone
    P[:, -1] = 1.0
    return P


def expected_relevance(model: Model, X) -> np.ndarray:
    """Expected rating sum_c r_c * [p(y<=c) - p(y<=c-1)] with p(y<=0) = 0,
    where r_c is the label of level c in the model's label_map."""
    P = threshold_probabilities(model, X)
    masses = np.diff(P, axis=1, prepend=0.0)
    levels = class_labels(model.label_map, model.m).astype(np.float64)
    return masses @ levels


def rmse(preds, truths) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.size == 0 or preds.shape != truths.shape:
        raise ValueError("need matching non-empty prediction/truth vectors")
    return float(np.sqrt(np.mean((preds - truths) ** 2)))


def ndcg_at(groups: RankingGroups, preds, k: int) -> float:
    """Mean over groups of DCG@k / IDCG@k with exponential gains.

    Within a group, items are ranked by descending prediction with ties
    broken by sample index; groups with zero ideal gain are skipped. One
    lexsort ranks every group at once, and each group's DCG adds its gains
    one rank position at a time, in the order a per-group sum takes them.
    """
    preds = np.asarray(preds, dtype=np.float64)
    sizes, idx = groups.sizes, groups.order
    if not sizes.size:
        raise ValueError("need at least one ranking group")
    if not sizes.all():
        raise ValueError("empty ranking group")
    ratings = groups.ratings.astype(np.float64)
    group = np.repeat(np.arange(sizes.size), sizes)
    first = np.cumsum(sizes) - sizes      # each group's first position
    discounts = np.log2(np.arange(2, k + 2))

    def dcg(order):
        gains = 2.0 ** ratings[order] - 1.0
        total = np.zeros(sizes.size)
        for j in range(min(k, sizes.max())):
            has = sizes > j
            total[has] += gains[first[has] + j] / discounts[j]
        return total

    ranked = dcg(np.lexsort((np.arange(idx.size), -preds[idx], group)))
    ideal = dcg(np.lexsort((-ratings, group)))
    kept = ideal != 0.0
    if not kept.any():
        raise ValueError("all groups had zero ideal gain")
    return float(np.mean(ranked[kept] / ideal[kept]))


def evaluate_ranking(model: Model, ds: Dataset, ks=(1, 5)) -> dict:
    """RMSE plus nDCG at the requested cutoffs for a rating dataset.

    The model must predict ratings: an ordinal (binary-logistic) or a
    squared-loss model. A multi-class model's outputs are class scores, not
    ratings, so it is refused. The truth is each row's label value
    (``ds.labels``), in the units the model predicts.
    """
    if model.loss in MULTICLASS_LOSSES:
        raise ValueError(f"a {model.loss} model predicts classes, not ratings; "
                         f"rank only binary-logistic or squared-loss models")
    if ds.group_ids is None and ks:
        raise ValueError("dataset carries no ranking groups")
    if model.loss == "binary-logistic":
        preds = expected_relevance(model, ds.X)
    else:
        preds = outputs(model, ds.X)[:, 0]
    out = {"rmse": rmse(preds, ds.labels)}
    if ks:
        groups = RankingGroups.from_ids(ds.group_ids, ds.labels)
        for k in ks:
            out[f"ndcg@{k}"] = ndcg_at(groups, preds, k)
    return out
