"""Evaluation metrics: ranking accuracy, coverage, diversity, novelty,
prediction error, and recommendation-count summaries."""

from __future__ import annotations

from typing import Mapping, Sequence

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


def ars(lists: Sequence[RecommendationList]) -> float:
    """Average ranking score over users with at least one liked candidate
    test item: the user count divided by the sum of relative ranks
    (1-based rank in the full ranking / candidate count). Higher is better."""
    total = 0.0
    n_users = 0
    for rec in lists:
        if len(rec.liked_ranks) == 0:
            continue
        n_users += 1
        length = rec.n_candidates
        total += sum(pos / length for pos in rec.liked_ranks.tolist())
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


def tops(lists: Sequence[RecommendationList], length: int) -> np.ndarray:
    """Every list's top-length items, concatenated: the input of the
    count-based metrics."""
    return np.concatenate([np.empty(0, dtype=np.int64)] + [rec.top(length) for rec in lists])


def rec_counts(tops: np.ndarray, n_items: int) -> np.ndarray:
    """Per-item appearance counts across the lists' concatenated tops."""
    return np.bincount(tops, minlength=n_items)


def _block_gather(sim: SimilarityMatrix):
    """A function of (rows, cols) returning sim.values[np.ix_(rows, cols)].

    The block is read through flat indices into a C-ordered array, so its
    sums add the same values in the same order as the np.ix_ block, while
    only len(rows) x len(cols) values are touched, not whole rows.
    """
    flat = np.ascontiguousarray(sim.values).ravel()
    n = sim.values.shape[1]
    return lambda rows, cols: flat.take(rows[:, None] * n + cols)


def internal_diversity(
    lists: Sequence[RecommendationList], sim: SimilarityMatrix, length: int
) -> float:
    """Mean over users of 1 - average pairwise similarity within the
    truncated list; users with fewer than two recommendations are skipped."""
    gather = _block_gather(sim)
    vals = []
    for rec in lists:
        top = rec.top(length)
        l = len(top)
        if l < 2:
            continue
        block = gather(top, top)
        pair_sum = (block.sum() - block.trace()) / 2.0
        vals.append(1.0 - 2.0 * pair_sum / (l * (l - 1)))
    if not vals:
        raise MetricError("no user has a list of length >= 2")
    return float(np.mean(vals))


def inter_user_diversity(tops: np.ndarray, n: int, length: int) -> float:
    """Mean Hamming distance 1 - |overlap|/length over all pairs of the n
    users whose top-length lists concatenate to `tops`.

    An item in c of the lists is shared by c(c-1)/2 pairs, so the overlaps
    sum to an exact integer without visiting the pairs.
    """
    if n < 2:
        raise MetricError("need at least 2 users")
    shared = np.bincount(tops)
    overlap = int((shared * (shared - 1)).sum()) // 2
    return 1.0 - overlap / (length * (n * (n - 1) / 2.0))


def novelty(
    lists: Sequence[RecommendationList],
    histories: Mapping[int, Sequence[int]],
    sim: SimilarityMatrix,
    length: int,
) -> float:
    """Mean over users of 1 - average similarity between recommended items
    and the user's training history.

    A block's average is its sum over its size: `ndarray.mean` of float64
    values computes the same sum and the same division."""
    gather = _block_gather(sim)
    vals = []
    for rec in lists:
        top = rec.top(length)
        hist = histories.get(rec.user, ())
        if len(top) == 0 or len(hist) == 0:
            continue
        block = gather(top, hist)
        vals.append(1.0 - float(block.sum() / block.size))
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


def avg_popularity(tops: np.ndarray, g: BipartiteGraph) -> float:
    """Mean training degree over every recommended slot, the lists'
    concatenated tops."""
    if len(tops) == 0:
        raise MetricError("no recommendations made")
    return float(np.mean(g.item_degree[tops]))
