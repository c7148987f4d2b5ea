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
from .models import Model, outputs
from .solver import ConfigError, SolverConfig, TraceRecord, fit


@dataclass(frozen=True)
class RankingGroups:
    """Per-group (query/user) sample indices and their true ratings."""

    groups: tuple  # tuple of (group_id, index array, rating array)

    @staticmethod
    def from_ids(group_ids, ratings) -> "RankingGroups":
        group_ids = np.asarray(group_ids)
        ratings = np.asarray(ratings)
        order = np.argsort(group_ids, kind="stable")
        gids, starts = np.unique(group_ids[order], return_index=True)
        ends = np.append(starts[1:], order.size)
        return RankingGroups(groups=tuple((gid, order[a:b], ratings[order[a:b]])
                                          for gid, a, b in zip(gids, starts, ends)))


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
    """Expected rating sum_c c * [p(y<=c) - p(y<=c-1)] with p(y<=0) = 0."""
    P = threshold_probabilities(model, X)
    masses = np.diff(P, axis=1, prepend=0.0)
    levels = np.arange(1, P.shape[1] + 1, dtype=np.float64)
    return masses @ levels


def rmse(preds, truths) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.size == 0 or preds.shape != truths.shape:
        raise ValueError("need matching non-empty prediction/truth vectors")
    return float(np.sqrt(np.mean((preds - truths) ** 2)))


def _dcg(ratings_in_rank_order, k: int) -> float:
    top = np.asarray(ratings_in_rank_order, dtype=np.float64)[:k]
    gains = 2.0 ** top - 1.0
    discounts = np.log2(np.arange(2, top.size + 2))
    return float((gains / discounts).sum())


def ndcg_at(groups: RankingGroups, preds, k: int) -> float:
    """Mean over groups of DCG@k / IDCG@k with exponential gains.

    Within a group, items are ranked by descending prediction with ties
    broken by sample index; groups with zero ideal gain are skipped.
    """
    preds = np.asarray(preds, dtype=np.float64)
    if not groups.groups:
        raise ValueError("need at least one ranking group")
    scores = []
    for _, idx, ratings in groups.groups:
        if idx.size == 0:
            raise ValueError("empty ranking group")
        order = np.argsort(-preds[idx], kind="stable")
        ideal = _dcg(np.sort(ratings)[::-1], k)
        if ideal == 0.0:
            continue
        scores.append(_dcg(ratings[order], k) / ideal)
    if not scores:
        raise ValueError("all groups had zero ideal gain")
    return float(np.mean(scores))


def evaluate_ranking(model: Model, ds: Dataset, ks=(1, 5)) -> dict:
    """RMSE plus nDCG at the requested cutoffs for a rating dataset.

    The model must predict ratings: an ordinal (binary-logistic) or a
    squared-loss model. A multi-class model's outputs are class scores, not
    ratings, so it is refused.
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
    out = {"rmse": rmse(preds, ds.y)}
    if ks:
        groups = RankingGroups.from_ids(ds.group_ids, ds.y)
        for k in ks:
            out[f"ndcg@{k}"] = ndcg_at(groups, preds, k)
    return out
