"""Recommenders: kNN rating prediction and CF scoring, mass diffusion,
a matrix-factorization baseline, and the similarity-guided three-step
resource walk. Each method scores every item; `rank` turns a block of
users' score rows into their top-L lists."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Literal, Mapping, Sequence

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
    """Head of one user's ranking of unseen items.

    `items` and `scores` hold the first L candidates in descending score,
    ties by ascending item id, so repeated runs are byte-identical.
    `liked_ranks` holds, ascending, the 1-based rank in the full ranking of
    each liked test item that is a candidate; `n_candidates` is the length
    of that full ranking.
    """

    user: int
    items: np.ndarray
    scores: np.ndarray
    liked_ranks: np.ndarray
    n_candidates: int

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


# elements of the (pairs x items) comparison stack for liked ranks
_LIKED_CHUNK = 1 << 17


def rank(
    g: BipartiteGraph,
    users: Sequence[int],
    scores: np.ndarray,
    length: int,
    likes: Mapping[int, Collection[int]] | None = None,
) -> list[RecommendationList]:
    """Top-`length` lists for a block of users, one per row of `scores`.

    Row r of the (users x items) `scores` scores every item for users[r];
    the items that user rated in `g` are not candidates. A list holds the
    first `length` candidates of the full ranking by descending score, ties
    by ascending id: every candidate strictly above the length-th score,
    then the tied ones in ascending id order. `likes` maps a user to the
    test items they like, whose full-ranking ranks the list records.
    """
    if length < 1:
        raise RecommendError(f"list length must be >= 1, got {length}")
    users = np.asarray(users, dtype=np.int64)
    n_rows, n_items = scores.shape
    pair, edge = _row_edges(g.weights, users)
    seen = np.zeros((n_rows, n_items), dtype=bool)
    seen[pair, g.weights.indices[edge]] = True
    k = min(length, n_items)
    key = np.where(seen, -np.inf, scores)
    kth = np.argpartition(key, n_items - k, axis=1)[:, n_items - k]
    bound = key[np.arange(n_rows), kth][:, None]
    tied = ~seen & (key == bound)
    fill = k - (key > bound).sum(axis=1)
    keep = (key > bound) | (tied & (np.cumsum(tied, axis=1) <= fill[:, None]))
    # kept items row by row in ascending id; a stable sort on -score within
    # each row then orders them by (-score, id), padding (+inf) last
    counts = keep.sum(axis=1)
    rows, items = np.divmod(np.flatnonzero(keep), n_items)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    width = int(counts.max(initial=0))
    neg = np.full((n_rows, width), np.inf)
    neg[rows, slot] = -scores[rows, items]
    ids = np.zeros((n_rows, width), dtype=np.int64)
    ids[rows, slot] = items
    ids = np.take_along_axis(ids, np.argsort(neg, axis=1, kind="stable"), axis=1)
    top = np.take_along_axis(scores, ids, axis=1)
    liked = _liked_ranks(users, scores, seen, likes or {})
    n_candidates = (n_items - seen.sum(axis=1)).tolist()
    return [
        RecommendationList(
            user=u, items=ids[r, :c], scores=top[r, :c], liked_ranks=liked[r], n_candidates=n
        )
        for r, (u, c, n) in enumerate(zip(users.tolist(), counts.tolist(), n_candidates))
    ]


def _liked_ranks(
    users: np.ndarray, scores: np.ndarray, seen: np.ndarray, likes: Mapping[int, Collection[int]]
) -> list[np.ndarray]:
    """Per row, the ascending full-ranking ranks of the user's liked
    candidates: 1 + the candidates that beat each on (-score, id)."""
    n_rows, n_items = scores.shape
    liked = [np.fromiter(likes.get(u, ()), dtype=np.int64) for u in users.tolist()]
    pr = np.repeat(np.arange(n_rows), [len(a) for a in liked])
    pj = np.concatenate([np.empty(0, dtype=np.int64)] + liked)
    cand = ~seen[pr, pj]
    pr, pj = pr[cand], pj[cand]
    ranks = np.empty(len(pr), dtype=np.int64)
    ids = np.arange(n_items)
    step = max(1, _LIKED_CHUNK // n_items)
    for lo in range(0, len(pr), step):
        r, j = pr[lo : lo + step], pj[lo : lo + step]
        row, s = scores[r], scores[r, j][:, None]
        beats = ((row > s) | ((row == s) & (ids < j[:, None]))) & ~seen[r]
        ranks[lo : lo + step] = 1 + beats.sum(axis=1)
    # rows stay grouped in order; ranks (<= n_items) sort within each row
    offset = pr * (n_items + 1)
    ranks = np.sort(offset + ranks) - offset
    ends = np.cumsum(np.bincount(pr, minlength=n_rows)).tolist()
    return [ranks[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _row_edges(csr, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in `rows`, index into csr.indices/data) of every stored
    entry in the given CSR rows, row by row."""
    starts = csr.indptr[rows]
    counts = csr.indptr[rows + 1] - starts
    pair = np.repeat(np.arange(len(rows)), counts)
    edge = np.arange(len(pair)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return pair, edge


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
    pair, edge = _row_edges(csr, rows)
    nbr = csr.indices[edge]
    anchor = anchors[pair]
    sims = sim.values[anchor, nbr]
    keep = sim.defined[anchor, nbr] & (sims > 0) & (nbr != anchor)
    pair, sims = pair[keep], sims[keep]
    weighted = sims * csr.data[edge[keep]]
    # within a pair the edges come in ascending neighbor id, so a stable
    # sort by (pair, descending similarity) breaks ties by id
    srt = np.lexsort((-sims, pair))
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
        # popularity penalty base |U_j| (1 for unrated items), raised to
        # theta once per theta value
        deg = g.item_degree.astype(np.float64)
        self._deg = np.where(deg > 0, deg, 1.0)
        self._theta, self._penalty = None, None

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
        if theta != self._theta:
            self._theta, self._penalty = theta, self._deg**theta
        return raw / self._penalty


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
