"""Recommenders: kNN rating prediction and top-L CF, mass diffusion,
a matrix-factorization baseline, and the similarity-guided three-step
resource walk."""

from __future__ import annotations

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


@dataclass(frozen=True)
class RecommendationList:
    """Full descending ranking of unseen items for one user.

    Ties break by ascending item id, so repeated runs are byte-identical.
    """

    user: int
    ranked: tuple[tuple[int, float], ...]
    seen: frozenset[int]

    def top(self, length: int) -> list[int]:
        return [item for item, _ in self.ranked[:length]]


Step3Weight = Literal["literal-w_vi", "alt-w_vj"]


@dataclass(frozen=True)
class RaConfig:
    """Resource-walk settings: popularity-penalty exponent theta in [0,1]
    and the step-3 numerator weight convention."""

    theta: float = 0.0
    step3_weight: Step3Weight = "literal-w_vi"

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise RecommendError(f"theta must be in [0, 1], got {self.theta}")


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


def _rank(user: int, scores: np.ndarray, seen: np.ndarray) -> RecommendationList:
    candidates = np.setdiff1d(np.arange(scores.shape[0]), seen, assume_unique=False)
    order = np.lexsort((candidates, -scores[candidates]))
    ranked = tuple((int(j), float(scores[j])) for j in candidates[order])
    return RecommendationList(user=user, ranked=ranked, seen=frozenset(int(s) for s in seen))


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


def recommend_knn_cf(
    sim: SimilarityMatrix,
    g: BipartiteGraph,
    user: int,
    mode: Literal["UBCF", "IBCF"],
    k: int = 20,
) -> RecommendationList:
    """Full ranking of unseen items scored by predicted rating."""
    expected_axis = "users" if mode == "UBCF" else "items"
    if sim.axis != expected_axis:
        raise RecommendError(f"{mode} requires {expected_axis}-axis similarity")
    if mode == "UBCF":
        scores = knn_predict(sim, g, np.full(g.n_items, user), np.arange(g.n_items), [k])[:, 0]
    else:
        scores = _ibcf_scores(sim, g, user, k)
    seen, _ = g.user_items(user)
    return _rank(user, scores, seen)


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


def recommend_md(g: BipartiteGraph, user: int) -> RecommendationList:
    _, res_items = md_scores(g, user)
    seen, _ = g.user_items(user)
    return _rank(user, res_items, seen)


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

    def __init__(self, g: BipartiteGraph, cfg: RaConfig):
        if g.item_sim is None:
            raise RecommendError("graph has no attached item similarity")
        self.g = g
        self.cfg = cfg
        inv_wv = np.zeros(g.n_users)
        pos = g.user_weight_sum > 0
        inv_wv[pos] = 1.0 / g.user_weight_sum[pos]

        b = g.weights_t.copy()  # items x users
        if cfg.step3_weight == "literal-w_vi":
            b.data = b.data * b.data * inv_wv[b.indices]
            m = (b @ g.adjacency).toarray()
        elif cfg.step3_weight == "alt-w_vj":
            b.data = b.data * inv_wv[b.indices]
            m = (b @ g.weights).toarray()
        else:
            raise RecommendError(f"unknown step3 weight mode {cfg.step3_weight!r}")
        self._p = g.item_sim.values * m
        self._deg_pow_cache: dict[float, np.ndarray] = {}

    def _deg_pow(self, theta: float) -> np.ndarray:
        cached = self._deg_pow_cache.get(theta)
        if cached is None:
            deg = self.g.item_degree.astype(np.float64)
            cached = np.where(deg > 0, deg, 1.0) ** theta
            self._deg_pow_cache[theta] = cached
        return cached

    def scores(self, user: int, theta: float | None = None) -> np.ndarray:
        """Raw walk scores for all items, before seen-item removal."""
        g = self.g
        seen, _ = g.user_items(user)
        if len(seen) == 0:
            raise RecommendError(f"user {user} has no training interactions")
        n_u = float(len(seen))
        r1 = 1.0 / n_u + np.log(n_u / g.item_degree[seen])
        coef = r1 / g.item_weight_sum[seen]
        raw = coef @ self._p[seen]
        return raw / self._deg_pow(self.cfg.theta if theta is None else theta)

    def recommend(self, user: int, theta: float | None = None) -> RecommendationList:
        scores = self.scores(user, theta)
        seen, _ = self.g.user_items(user)
        return _rank(user, scores, seen)


def recommend_pimra(g: BipartiteGraph, user: int, cfg: RaConfig) -> RecommendationList:
    return PimraScorer(g, cfg).recommend(user)


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
    descent on squared error; deterministic given cfg.seed."""
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
            sq_err = 0.0
            for n in order:
                u, i, r = users[n], items[n], ratings[n]
                pu, qi = p[u], q[i]
                err = r - (mu + bu[u] + bi[i] + pu @ qi)
                sq_err += err * err
                bu[u] += lr * (err - reg * bu[u])
                bi[i] += lr * (err - reg * bi[i])
                pu_new = pu + lr * (err * qi - reg * pu)
                q[i] = qi + lr * (err * pu - reg * qi)
                p[u] = pu_new
            if not np.isfinite(sq_err):
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


def predict_mf(model: MFModel, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    raw = (
        model.global_mean
        + model.user_bias[users]
        + model.item_bias[items]
        + np.einsum("ij,ij->i", model.user_factors[users], model.item_factors[items])
    )
    return np.clip(raw, model.scale_min, model.scale_max)


def recommend_mf(model: MFModel, g: BipartiteGraph, user: int) -> RecommendationList:
    items = np.arange(g.n_items)
    scores = predict_mf(model, np.full(g.n_items, user), items)
    seen, _ = g.user_items(user)
    return _rank(user, scores, seen)
