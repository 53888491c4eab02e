"""Evaluation metrics: ranking accuracy, coverage, diversity, novelty,
prediction error, and recommendation-count summaries."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from diffrec.bigraph import BipartiteGraph
from diffrec.corpus import RatingDataset, RatingScale
from diffrec.recommend import RecommendationList
from diffrec.simkit import SimilarityMatrix


class MetricError(ValueError):
    pass


def liked_test_set(test: RatingDataset, threshold: float) -> dict[int, set[int]]:
    """Per-user set of test items rated at or above the like threshold."""
    likes: dict[int, set[int]] = {}
    for u, i, r in test.triples():
        if r >= threshold:
            likes.setdefault(u, set()).add(i)
    return likes


def ars(lists: Sequence[RecommendationList], likes: Mapping[int, set[int]]) -> float:
    """Average ranking score over users with at least one liked candidate
    test item: the user count divided by the sum of relative ranks
    (1-based rank / full candidate count). Higher is better."""
    total = 0.0
    n_users = 0
    for rec in lists:
        liked = likes.get(rec.user)
        if not liked:
            continue
        length = len(rec.ranked)
        if length == 0:
            continue
        positions = [
            pos for pos, (item, _) in enumerate(rec.ranked, start=1) if item in liked
        ]
        if not positions:
            continue
        n_users += 1
        total += sum(pos / length for pos in positions)
    if n_users == 0:
        raise MetricError("no user has a liked candidate test item")
    return n_users / total


def gini(counts: np.ndarray) -> float:
    """Coverage as the complement of the Gini concentration index over
    per-item recommendation counts; 1 = perfectly balanced exposure."""
    counts = np.asarray(counts, dtype=np.float64)
    n = len(counts)
    if n < 2:
        raise MetricError("need at least 2 items")
    total = counts.sum()
    if total <= 0:
        raise MetricError("no recommendations counted")
    share = np.sort(counts) / total
    ranks = np.arange(1, n + 1)
    g = float(((2 * ranks - n - 1) * share).sum() / (n - 1))
    return 1.0 - g


def rec_counts(lists: Sequence[RecommendationList], n_items: int, length: int) -> np.ndarray:
    """Per-item appearance counts across truncated top-length lists."""
    counts = np.zeros(n_items, dtype=np.int64)
    for rec in lists:
        for item in rec.top(length):
            counts[item] += 1
    return counts


def internal_diversity(
    lists: Sequence[RecommendationList], sim: SimilarityMatrix, length: int
) -> float:
    """Mean over users of 1 - average pairwise similarity within the
    truncated list; users with fewer than two recommendations are skipped."""
    vals = []
    for rec in lists:
        top = rec.top(length)
        l = len(top)
        if l < 2:
            continue
        idx = np.asarray(top)
        block = sim.values[np.ix_(idx, idx)]
        pair_sum = (block.sum() - np.trace(block)) / 2.0
        vals.append(1.0 - 2.0 * pair_sum / (l * (l - 1)))
    if not vals:
        raise MetricError("no user has a list of length >= 2")
    return float(np.mean(vals))


def inter_user_diversity(lists: Sequence[RecommendationList], length: int) -> float:
    """Mean Hamming distance 1 - |overlap|/length over all user pairs."""
    tops = [set(rec.top(length)) for rec in lists]
    n = len(tops)
    if n < 2:
        raise MetricError("need at least 2 users")
    total = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            total += 1.0 - len(tops[a] & tops[b]) / length
    return total / (n * (n - 1) / 2.0)


def novelty(
    lists: Sequence[RecommendationList],
    histories: Mapping[int, Iterable[int]],
    sim: SimilarityMatrix,
    length: int,
) -> float:
    """Mean over users of 1 - average similarity between recommended items
    and the user's training history."""
    vals = []
    for rec in lists:
        top = rec.top(length)
        hist = np.asarray(list(histories.get(rec.user, ())), dtype=np.int64)
        if len(top) == 0 or len(hist) == 0:
            continue
        block = sim.values[np.ix_(np.asarray(top), hist)]
        vals.append(1.0 - float(block.mean()))
    if not vals:
        raise MetricError("no user has both a list and a history")
    return float(np.mean(vals))


def nrmse(preds: np.ndarray, actual: np.ndarray, scale: RatingScale) -> np.ndarray:
    """Root mean square prediction error normalized by the rating range.

    `preds` is (n,) or (n, len(ks)), one column per neighbor count;
    the result has one value per column.
    """
    preds = np.asarray(preds, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(actual) == 0:
        raise MetricError("no predictions")
    if preds.shape[0] != len(actual):
        raise MetricError(f"{preds.shape[0]} predictions for {len(actual)} ratings")
    diff = preds - (actual[:, None] if preds.ndim == 2 else actual)
    return np.sqrt((diff**2).sum(axis=0) / len(actual)) / scale.range


def avg_popularity(lists: Sequence[RecommendationList], g: BipartiteGraph, length: int) -> float:
    """Mean training degree over every recommended slot."""
    degs = []
    for rec in lists:
        for item in rec.top(length):
            degs.append(g.item_degree[item])
    if not degs:
        raise MetricError("no recommendations made")
    return float(np.mean(degs))
