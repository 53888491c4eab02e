"""Recommenders: kNN rating prediction and CF scoring, mass diffusion,
a matrix-factorization baseline, and the similarity-guided three-step
resource walk. Each method scores every item; `rank` turns one user's
score row into a ranked list."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from diffrec.bigraph import BipartiteGraph
from diffrec.corpus import RatingDataset
from diffrec.simkit import SimilarityMatrix


class RecommendError(ValueError):
    pass


class MfDivergenceError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"matrix factorization diverged at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True, eq=False)
class RecommendationList:
    """Full descending ranking of unseen items for one user: `items` in
    rank order and their `scores`.

    Ties break by ascending item id, so repeated runs are byte-identical.
    """

    user: int
    items: np.ndarray
    scores: np.ndarray

    def top(self, length: int) -> np.ndarray:
        return self.items[:length]


Step3Weight = Literal["literal-w_vi", "alt-w_vj"]


@dataclass(frozen=True)
class MfConfig:
    factors: int = 32
    learning_rate: float = 0.005
    regularization: float = 0.02
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.factors < 1:
            raise RecommendError("factors must be >= 1")
        if self.epochs < 1:
            raise RecommendError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise RecommendError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not (math.isfinite(self.regularization) and self.regularization >= 0):
            raise RecommendError(
                f"regularization must be finite and >= 0, got {self.regularization}"
            )


def rank(user: int, scores: np.ndarray, seen: np.ndarray) -> RecommendationList:
    """Rank every item not in `seen` by descending score, ties by ascending id."""
    candidates = np.setdiff1d(np.arange(scores.shape[0]), seen, assume_unique=False)
    items = candidates[np.lexsort((candidates, -scores[candidates]))]
    return RecommendationList(user=user, items=items, scores=scores[items])


# ---------------------------------------------------------------------------
# kNN collaborative filtering


def knn_predict(
    sim: SimilarityMatrix,
    g: BipartiteGraph,
    users: np.ndarray,
    items: np.ndarray,
    ks: Sequence[int],
) -> np.ndarray:
    """Predicted ratings for (user, item) pairs, one column per k in `ks`.

    A prediction is the similarity-weighted mean rating over the k most
    similar neighbors (descending similarity, ties by id) with a defined,
    positive similarity: the users who rated the item (user axis) or the
    items the user rated (item axis). Pairs without such a neighbor fall
    back to the user's mean rating, then the item's, then the scale
    midpoint; results are clipped to the rating scale.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if np.any(ks < 1):
        raise RecommendError(f"k must be >= 1, got {ks.tolist()}")
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if sim.axis == "users":
        anchors, rows, csr = users, items, g.weights_t
    else:
        anchors, rows, csr = items, users, g.weights
    n_pairs = len(rows)
    # every pair's neighbor edges, gathered from the CSR rows
    starts = csr.indptr[rows]
    counts = csr.indptr[rows + 1] - starts
    pair = np.repeat(np.arange(n_pairs), counts)
    edge = np.arange(len(pair)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    nbr = csr.indices[edge]
    anchor = anchors[pair]
    sims = sim.values[anchor, nbr]
    keep = sim.defined[anchor, nbr] & (sims > 0) & (nbr != anchor)
    pair, nbr, anchor, sims = pair[keep], nbr[keep], anchor[keep], sims[keep]
    weighted = sims * csr.data[edge[keep]]
    # neighbor preference: rank in the anchor's descending-similarity row
    row_of, slot = np.unique(anchor, return_inverse=True)
    order = np.argsort(-sim.values[row_of], axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(sim.n), axis=1)
    srt = np.argsort(pair * (sim.n + 1) + rank[slot, nbr], kind="stable")
    pair, sims, weighted = pair[srt], sims[srt], weighted[srt]
    per_pair = np.bincount(pair, minlength=n_pairs)
    nth = np.arange(len(pair)) - (np.cumsum(per_pair) - per_pair)[pair]
    num = np.empty((n_pairs, len(ks)))
    den = np.empty((n_pairs, len(ks)))
    for col, k in enumerate(ks):
        take = nth < k
        num[:, col] = np.bincount(pair[take], weights=weighted[take], minlength=n_pairs)
        den[:, col] = np.bincount(pair[take], weights=sims[take], minlength=n_pairs)
    return _predictions(num, den, g, users[:, None], items[:, None])


def _ibcf_scores(sim: SimilarityMatrix, g: BipartiteGraph, user: int, k: int) -> np.ndarray:
    """Predicted ratings for every item at once under item-axis kNN."""
    rated, ratings = g.user_items(user)
    s = sim.values[:, rated].copy()
    ok = sim.defined[:, rated] & (s > 0)
    ok[rated, np.arange(len(rated))] = False  # item never neighbors itself
    s[~ok] = 0.0
    if len(rated) > k:
        # keep only the k largest similarities per row (ties by item id)
        keys = s - np.arange(len(rated))[None, :] * 1e-12
        drop = np.argpartition(-keys, k, axis=1)[:, k:]
        np.put_along_axis(s, drop, 0.0, axis=1)
    return _predictions(s @ ratings, s.sum(axis=1), g, user, np.arange(g.n_items))


def _predictions(num, den, g: BipartiteGraph, users, items) -> np.ndarray:
    """num / den where a neighbor contributed, else the user's mean rating,
    the item's mean rating or the scale midpoint; clipped to the scale."""
    user_deg, item_deg = g.user_degree[users], g.item_degree[items]
    with np.errstate(divide="ignore", invalid="ignore"):
        fallback = np.where(
            user_deg > 0,
            g.user_weight_sum[users] / user_deg,
            np.where(item_deg > 0, g.item_weight_sum[items] / item_deg, g.scale.midpoint),
        )
        pred = np.where(den > 0, num / den, fallback)
    return np.clip(pred, g.scale.min, g.scale.max)


def knn_scores(sim: SimilarityMatrix, g: BipartiteGraph, user: int, k: int) -> np.ndarray:
    """Predicted rating of every item for one user: user-based kNN on a
    users-axis similarity, item-based on an items-axis one."""
    if sim.axis == "users":
        return knn_predict(sim, g, np.full(g.n_items, user), np.arange(g.n_items), [k])[:, 0]
    return _ibcf_scores(sim, g, user, k)


# ---------------------------------------------------------------------------
# Mass diffusion


def md_scores(g: BipartiteGraph, user: int) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted two-hop diffusion; returns (user resources after the
    backtracking step, item resources after the diffusion step, including
    seen items)."""
    seen, _ = g.user_items(user)
    if len(seen) == 0:
        raise RecommendError(f"user {user} has no training interactions")
    init = np.zeros(g.n_items)
    init[seen] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        per_item = np.where(g.item_degree > 0, init / g.item_degree, 0.0)
        res_users = g.adjacency @ per_item
        per_user = np.where(g.user_degree > 0, res_users / g.user_degree, 0.0)
    res_items = g.adjacency_t @ per_user
    return res_users, res_items


# ---------------------------------------------------------------------------
# Similarity-guided resource walk


class PimraScorer:
    """Per-fold precomputation for the three-step weighted resource walk.

    The walk scores item j for user u as

        score(j) = |U_j|^-theta * sum_{i in I_u} R1(i)/w_i * sim(i, j) * M[i, j]

    where R1(i) = 1/|I_u| + ln(|I_u|/|U_i|) is the (possibly negative)
    initial resource, and M[i, j] aggregates the user-hop transfer
    sum_{v in U_i ∩ U_j} w_vi^2 / w_v (or w_vi * w_vj / w_v in the
    alternate weight convention). M and the similarity product are
    computed once and shared across users and theta values.
    """

    def __init__(
        self,
        g: BipartiteGraph,
        item_sim: SimilarityMatrix,
        step3_weight: Step3Weight = "literal-w_vi",
    ):
        if item_sim.axis != "items":
            raise RecommendError(f"expected items-axis similarity, got {item_sim.axis}")
        if item_sim.values.shape != (g.n_items, g.n_items):
            raise RecommendError(
                f"similarity dimension {item_sim.values.shape} "
                f"does not match items count {g.n_items}"
            )
        if not item_sim.normalized:
            raise RecommendError("item similarity must be normalized to [0, 1]")
        self.g = g
        inv_wv = np.zeros(g.n_users)
        pos = g.user_weight_sum > 0
        inv_wv[pos] = 1.0 / g.user_weight_sum[pos]

        b = g.weights_t.copy()  # items x users
        if step3_weight == "literal-w_vi":
            b.data = b.data * b.data * inv_wv[b.indices]
            m = (b @ g.adjacency).toarray()
        elif step3_weight == "alt-w_vj":
            b.data = b.data * inv_wv[b.indices]
            m = (b @ g.weights).toarray()
        else:
            raise RecommendError(f"unknown step3 weight mode {step3_weight!r}")
        self._p = item_sim.values * m

    def scores(self, user: int, theta: float) -> np.ndarray:
        """Walk scores for all items, seen ones included, under the
        popularity-penalty exponent theta in [0, 1]."""
        if not 0.0 <= theta <= 1.0:
            raise RecommendError(f"theta must be in [0, 1], got {theta}")
        g = self.g
        seen, _ = g.user_items(user)
        if len(seen) == 0:
            raise RecommendError(f"user {user} has no training interactions")
        n_u = float(len(seen))
        r1 = 1.0 / n_u + np.log(n_u / g.item_degree[seen])
        coef = r1 / g.item_weight_sum[seen]
        raw = coef @ self._p[seen]
        deg = g.item_degree.astype(np.float64)
        return raw / np.where(deg > 0, deg, 1.0) ** theta


# ---------------------------------------------------------------------------
# Matrix factorization baseline


@dataclass(frozen=True)
class MFModel:
    global_mean: float
    user_bias: np.ndarray
    item_bias: np.ndarray
    user_factors: np.ndarray
    item_factors: np.ndarray
    scale_min: float
    scale_max: float


def train_mf(train: RatingDataset, cfg: MfConfig) -> MFModel:
    """Biased latent-factor model fit by per-rating stochastic gradient
    descent on squared error; deterministic given cfg.seed.

    Each epoch visits the ratings in a fresh random permutation, one SGD
    step per rating, but applies the steps in dependency waves: a step's
    wave is one past the latest wave that already holds its user or its
    item. No two steps in a wave share a user or an item, so each wave is
    one vectorised update, and every row of the biases and factors gets
    the same updates, in the same order and with the same element-wise
    arithmetic, as when the steps run one at a time (the interchangeable
    strata of Gemulla et al., KDD 2011). The parameters are therefore
    those of plain sequential SGD, bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    n_users, n_items = train.n_users, train.n_items
    p = rng.normal(0.0, 0.1, size=(n_users, cfg.factors))
    q = rng.normal(0.0, 0.1, size=(n_items, cfg.factors))
    bu = np.zeros(n_users)
    bi = np.zeros(n_items)
    mu = float(train.ratings.mean())
    users, items, ratings = train.users, train.items, train.ratings
    lr, reg = cfg.learning_rate, cfg.regularization
    # divergence surfaces as non-finite error; silence the interim overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(ratings))
            wave = _waves(users[order].tolist(), items[order].tolist(), n_users, n_items)
            by_wave = np.argsort(wave, kind="stable")
            ends = np.cumsum(np.bincount(wave)).tolist()
            steps = order[by_wave]
            wu, wi, wr = users[steps], items[steps], ratings[steps]
            errs = np.empty(len(steps))
            lo = 0
            for hi in ends:
                u, i, r = wu[lo:hi], wi[lo:hi], wr[lo:hi]
                bu_u, bi_i, pu, qi = bu[u], bi[i], p[u], q[i]
                # 1×k by k×1 products take the dot kernel of `pu @ qi`;
                # einsum or (pu * qi).sum(1) would add in another order
                dot = np.matmul(pu[:, None, :], qi[:, :, None])[:, 0, 0]
                err = r - (mu + bu_u + bi_i + dot)
                errs[lo:hi] = err
                bu[u] = bu_u + lr * (err - reg * bu_u)
                bi[i] = bi_i + lr * (err - reg * bi_i)
                err = err[:, None]
                pu_new = pu + lr * (err * qi - reg * pu)
                q[i] = qi + lr * (err * pu - reg * qi)
                p[u] = pu_new
                lo = hi
            # the squared errors summed in permutation order, as step by step
            sq = np.empty_like(errs)
            sq[by_wave] = errs * errs
            if len(sq) and not np.isfinite(np.cumsum(sq)[-1]):
                raise MfDivergenceError(epoch)
    return MFModel(
        global_mean=mu,
        user_bias=bu,
        item_bias=bi,
        user_factors=p,
        item_factors=q,
        scale_min=train.scale.min,
        scale_max=train.scale.max,
    )


def _waves(users: list[int], items: list[int], n_users: int, n_items: int) -> list[int]:
    """Wave of each SGD step: one past the latest wave of an earlier step
    on the same user or item, counting from 0."""
    user_wave = [-1] * n_users
    item_wave = [-1] * n_items
    waves = []
    for u, i in zip(users, items):
        a, b = user_wave[u], item_wave[i]
        w = (a if a > b else b) + 1
        user_wave[u] = item_wave[i] = w
        waves.append(w)
    return waves


def predict_mf(model: MFModel, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    raw = (
        model.global_mean
        + model.user_bias[users]
        + model.item_bias[items]
        + np.einsum("ij,ij->i", model.user_factors[users], model.item_factors[items])
    )
    return np.clip(raw, model.scale_min, model.scale_max)
