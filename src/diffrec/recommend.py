"""Recommenders: kNN rating prediction and CF scoring, mass diffusion,
a matrix-factorization baseline, and the similarity-guided three-step
resource walk. Each method scores every item for a block of users, one
row per user; `rank` turns a block's score rows into their top-L lists."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Literal, Mapping, Sequence

import numpy as np

from diffrec import simkit
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


def rank(
    g: BipartiteGraph,
    users: Sequence[int],
    scores: Iterable[np.ndarray],
    length: int,
    likes: Mapping[int, Collection[int]] | None = None,
) -> list[list[RecommendationList]]:
    """Top-`length` lists for a block of users, one list of lists per
    (users x items) score block in `scores`, one list per row.

    Row r of a block scores every item for users[r]; the items that user
    rated in `g` are not candidates, and a NaN score is an error. One
    stable sort per row gives the full ranking by descending score, ties
    by ascending id; a list holds its first `length` candidates. `likes`
    maps a user to the test items they like, whose full-ranking ranks the
    list records.

    The seen mask, candidate counts and liked candidates depend on the
    users alone: they are built once, and every block is ranked against
    them. The blocks are read one at a time, so an iterator that makes
    each on demand holds one alive.
    """
    if length < 1:
        raise RecommendError(f"list length must be >= 1, got {length}")
    users = np.asarray(users, dtype=np.int64)
    n_rows, n_items = len(users), g.n_items
    pair, edge = _row_edges(g.weights, users)
    seen = np.zeros((n_rows, n_items), dtype=bool)
    seen[pair, g.weights.indices[edge]] = True
    n_candidates = (n_items - seen.sum(axis=1)).tolist()
    # the liked candidates as (row, item) pairs, row by row
    liked = [np.fromiter((likes or {}).get(u, ()), dtype=np.int64) for u in users.tolist()]
    pr = np.repeat(np.arange(n_rows), [len(a) for a in liked])
    pj = np.concatenate([np.empty(0, dtype=np.int64)] + liked)
    cand = ~seen[pr, pj]
    pr, pj = pr[cand], pj[cand]
    offset = pr * (n_items + 1)
    ends = np.cumsum(np.bincount(pr, minlength=n_rows)).tolist()
    spans = list(zip(users.tolist(), n_candidates, [0] + ends, ends))
    ranked = []
    for block in scores:
        nan_rows = np.flatnonzero(np.isnan(block).any(axis=1))
        if len(nan_rows):
            raise RecommendError(f"user {users[nan_rows[0]]} has a NaN score")
        # a stable sort keeps ties (0.0 and -0.0 too) in ascending id; seen
        # items (NaN) sort after every candidate
        order = np.argsort(np.where(seen, np.nan, -block), axis=1, kind="stable")
        ids = order[:, : min(length, n_items)].copy()  # the lists keep no full order alive
        top = np.take_along_axis(block, ids, axis=1)
        # the liked candidates ranked through the inverse permutation of
        # each row's order
        position = np.empty_like(order)
        np.put_along_axis(position, order, np.arange(n_items), axis=1)
        del order
        ranks = position[pr, pj] + 1
        del position
        # rows stay grouped in order; ranks (<= n_items) sort within each row
        ranks = np.sort(offset + ranks) - offset
        ranked.append([
            RecommendationList(u, ids[r, :n], top[r, :n], ranks[lo:hi], n)
            for r, (u, n, lo, hi) in enumerate(spans)
        ])
    return ranked


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


# neighbor edges one run of knn_predict's pairs gathers at most: the
# time per edge grows with the run, and this was the fastest cap timed
# on the bench corpora
_KNN_EDGES = 20_000


def knn_predict(
    sim: SimilarityMatrix,
    g: BipartiteGraph,
    users: np.ndarray,
    items: np.ndarray,
    ks: Sequence[int],
) -> np.ndarray:
    """Predicted ratings for (user, item) pairs, one column per k in `ks`.

    A prediction is the similarity-weighted mean rating over the k most
    similar neighbors (descending similarity, ties by id) with a positive
    similarity: the users who rated the item (user axis) or the items the
    user rated (item axis). Pairs without such a neighbor fall back to the
    user's mean rating, then the item's, then the scale midpoint; results
    are clipped to the rating scale.

    The pairs are taken in runs that gather at most _KNN_EDGES neighbor
    edges, and at least one pair. A pair's prediction is its own, so the
    bytes do not depend on the runs.
    """
    ks = np.asarray(ks, dtype=np.int64).tolist()
    if not ks:
        raise RecommendError("no neighbor counts given")
    if min(ks) < 1:
        raise RecommendError(f"k must be >= 1, got {ks}")
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if sim.axis == "users":
        anchors, rows, csr = users, items, g.weights_t
    else:
        anchors, rows, csr = items, users, g.weights
    # (pairs x ks) blocks in C order, as the sums over pairs read them
    num = np.empty((len(rows), len(ks)))
    den = np.empty_like(num)
    # the offset of each pair's first edge in the gathered edges
    first = np.concatenate(([0], np.cumsum(np.diff(csr.indptr)[rows])))
    lo = 0
    while lo < len(rows):
        hi = int(np.searchsorted(first, first[lo] + _KNN_EDGES, side="right")) - 1
        hi = max(hi, lo + 1)
        num[lo:hi], den[lo:hi] = _neighbor_sums(sim, csr, anchors[lo:hi], rows[lo:hi], ks)
        lo = hi
    return _predictions(num, den, g, users[:, None], items[:, None])


def _neighbor_sums(sim: SimilarityMatrix, csr, anchors, rows, ks: list[int]) -> np.ndarray:
    """The weighted-rating and similarity sums of each pair's k nearest
    neighbors, (2, pairs, ks): a pair's neighbors are the stored entries
    of its CSR row, compared with its anchor node.

    The neighbors are ordered by one sort of distinct integer keys, and
    one prefix sum down a table of each pair's j-th neighbor gives the
    sums for every k. Each sum adds 0 + s_0 + s_1 + ... in neighbor order,
    as a running total over the sorted neighbors would.
    """
    n_pairs = len(rows)
    # every pair's neighbor edges, gathered from the CSR rows in ascending
    # neighbor id; an undefined similarity is 0, so `sims > 0` drops it
    pair, edge = _row_edges(csr, rows)
    nbr = csr.indices[edge]
    anchor = anchors[pair]
    # one flat take gathers the entries about twice as fast as a 2-d index
    sims = sim.values.reshape(-1).take(anchor * sim.n + nbr)
    # positions, not a mask: three gathers by position take a fraction of
    # the time of three boolean selections
    keep = np.flatnonzero((sims > 0) & (nbr != anchor))
    del nbr, anchor
    pair, edge, sims = pair[keep], edge[keep], sims[keep]
    del keep
    per_pair = np.bincount(pair, minlength=n_pairs)
    # each edge's place among its pair's edges; sorting moves edges only
    # within their pair, so the sorted edges have the same pair and place
    nth = np.arange(len(pair)) - (np.cumsum(per_pair) - per_pair)[pair]
    widest = int(per_pair.max(initial=0))
    kmax = min(max(ks), widest)
    order = _neighbor_order(pair, sims, nth, widest)
    # row j + 1 of the table holds each pair's j-th weighted rating and
    # similarity; row 0 and the rows past a pair's last neighbor hold 0
    take = np.flatnonzero(nth < kmax)
    src = order[take]
    del order
    slot = (nth[take] + 1) * (2 * n_pairs) + pair[take]
    del pair, nth, take
    table = np.zeros((kmax + 1, 2, n_pairs))
    flat = table.reshape(-1)
    sims = sims[src]
    flat[slot + n_pairs] = sims
    flat[slot] = sims * csr.data[edge[src]]
    del slot, src, sims, edge
    # the running sums down the rows, at each k: numpy reduces a leading
    # axis one row after another, so each reduce adds its rows in order
    # onto the running sum at the k before (a cumsum along that axis steps
    # one column at a time, several times slower)
    at = [min(k, kmax) for k in ks]
    lo = 0
    for k in sorted(set(at)):
        table[k] = np.add.reduce(table[lo : k + 1], axis=0)
        lo = k
    return table[at].transpose(1, 2, 0)


def _neighbor_order(
    pair: np.ndarray, sims: np.ndarray, nth: np.ndarray, widest: int
) -> np.ndarray:
    """The permutation that sorts edges by pair, then descending
    similarity, then place in the pair: what a stable sort by (pair,
    -sims) gives when each pair's edges come in ascending neighbor id.

    Each edge's key (pair, dense rank of its similarity, place) is one
    int64, and the keys are distinct, so one unstable sort gives that
    order. Pairs x ranks x `widest` must fit an int64."""
    n = len(sims)
    by_value = np.argsort(-sims)
    ordered = sims[by_value]
    new = np.empty(n, dtype=bool)
    new[:1] = False
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    n_ranks = int(np.count_nonzero(new)) + 1
    n_pairs = int(pair[-1]) + 1 if n else 0  # one past the last pair with an edge
    span = n_ranks * widest  # the keys of one pair
    if n_pairs * span >= 2**63:
        raise RecommendError(
            f"{n_pairs:,} pairs times {n_ranks:,} similarity ranks times {widest:,} "
            f"neighbors of one pair do not fit an int64 sort key"
        )
    # each edge's dense rank by descending similarity turns into its key
    # and then into its order, in place
    out = np.empty(n, dtype=np.int64)
    out[by_value] = np.cumsum(new)
    del by_value, new
    out *= widest
    out += nth
    out += pair * span
    # sorting the keys themselves is several times faster than an argsort;
    # a sorted key's last part is its edge's place in the pair, and the
    # pair's first edge is at its position less its place
    out.sort()
    out %= widest
    out -= nth
    out += np.arange(n)
    return out


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


def ubcf_scores(
    sim: SimilarityMatrix, g: BipartiteGraph, users: Sequence[int], k: int
) -> np.ndarray:
    """User-based kNN predictions of every item for a block of users, one
    row per user: one knn_predict call per run of users whose pairs
    gather at most _KNN_EDGES neighbor edges (users x training links),
    and at least one user, so that a call's pair arrays stay small."""
    if sim.axis != "users":
        raise RecommendError(f"user-based kNN needs a users-axis similarity, got {sim.axis!r}")
    users = np.asarray(users, dtype=np.int64)
    per_call = max(1, _KNN_EDGES // g.n_links)
    items = np.arange(g.n_items)
    out = np.empty((len(users), g.n_items))
    for lo in range(0, len(users), per_call):
        run = users[lo : lo + per_call]
        pairs = knn_predict(sim, g, np.repeat(run, g.n_items), np.tile(items, len(run)), [k])
        out[lo : lo + len(run)] = pairs.reshape(len(run), g.n_items)
    return out


def ibcf_scores(
    sim: SimilarityMatrix, g: BipartiteGraph, users: Sequence[int], k: int
) -> np.ndarray:
    """Item-based kNN predictions of every item for a block of users, one
    row per user, from the similarity columns of the user's rated items."""
    if sim.axis != "items":
        raise RecommendError(f"item-based kNN needs an items-axis similarity, got {sim.axis!r}")
    items = np.arange(g.n_items)
    out = np.empty((len(users), g.n_items))
    for r, user in enumerate(users):
        rated, ratings = g.user_items(user)
        # an undefined similarity is +0, so `s > 0` drops it
        s = sim.values[:, rated].copy()
        ok = s > 0
        ok[rated, np.arange(len(rated))] = False  # item never neighbors itself
        s[~ok] = 0.0
        if len(rated) > k:
            # keep only the k largest similarities per row (ties by item id)
            keys = s - np.arange(len(rated))[None, :] * 1e-12
            drop = np.argpartition(-keys, k, axis=1)[:, k:]
            np.put_along_axis(s, drop, 0.0, axis=1)
        out[r] = _predictions(s @ ratings, s.sum(axis=1), g, user, items)
    return out


# ---------------------------------------------------------------------------
# Mass diffusion


def md_scores(g: BipartiteGraph, users: Sequence[int]) -> np.ndarray:
    """Unweighted two-hop diffusion, one row per user: the item resources
    after the diffusion step, seen items included. Each step is one sparse
    product with the block's items x users resources (Zhou et al., 2007)."""
    users = np.asarray(users, dtype=np.int64)
    idle = users[g.user_degree[users] == 0]
    if len(idle):
        raise RecommendError(f"user {idle[0]} has no training interactions")
    pair, edge = _row_edges(g.weights, users)
    seen = g.weights.indices[edge]
    per_item = np.zeros((g.n_items, len(users)))
    per_item[seen, pair] = 1.0 / g.item_degree[seen]
    per_user = g.adjacency @ per_item
    # a user without ratings holds no resource and keeps its +0
    active = g.user_degree > 0
    per_user[active] /= g.user_degree[active, None]
    return (g.adjacency_t @ per_user).T


# ---------------------------------------------------------------------------
# Similarity-guided resource walk


class PimraScorer:
    """Per-fold state for the three-step weighted resource walk.

    The walk scores item j for user u as

        score(j) = |U_j|^-theta * sum_{i in I_u} R1(i)/w_i * sim(i, j) * M[i, j]

    where R1(i) = 1/|I_u| + ln(|I_u|/|U_i|) is the (possibly negative)
    initial resource, and M[i, j] aggregates the user-hop transfer
    sum_{v in U_i ∩ U_j} w_vi^2 / w_v (or w_vi * w_vj / w_v in the
    alternate weight convention). The sum does not depend on theta:
    `walk` computes it once for a block of users, and each theta's scores
    are those rows divided by `penalty(theta)`. A row i of P = sim * M is
    built on first use, when a block of users that rated item i is
    walked, and is then shared across blocks; M is never held whole, and
    P is resident only for the rows that were read.
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
        self._sim = item_sim.values
        inv_wv = np.zeros(g.n_users)
        pos = g.user_weight_sum > 0
        inv_wv[pos] = 1.0 / g.user_weight_sum[pos]

        b = g.weights_t.copy()  # items x users
        if step3_weight == "literal-w_vi":
            b.data = b.data * b.data * inv_wv[b.indices]
            self._right = g.adjacency
        elif step3_weight == "alt-w_vj":
            b.data = b.data * inv_wv[b.indices]
            self._right = g.weights
        else:
            raise RecommendError(f"unknown step3 weight mode {step3_weight!r}")
        self._b = b
        # P's rows are built a chunk of similarity's tile size at a time,
        # with two chunk-sized temporaries alive (the product and the
        # gathered similarity rows)
        n = g.n_items
        self._per_chunk = max(1, simkit._TILE_BYTES // (8 * n))
        simkit._check_fits(
            f"PIM+RA product over {n} items", 8 * n * n + 2 * 8 * min(self._per_chunk, n) * n
        )
        # pages of P are touched, and so held, only as its rows are built
        self._p = np.empty((n, n))
        self._built = np.zeros(n, dtype=bool)
        # popularity penalty base |U_j| (1 for unrated items)
        deg = g.item_degree.astype(np.float64)
        self._deg = np.where(deg > 0, deg, 1.0)

    def _build(self, users: np.ndarray) -> None:
        """Build the rows of P that the users' rated items need and that
        are not built yet. A sparse product row depends only on its own
        row of b, so P's bytes do not depend on which rows are built
        together."""
        _, edge = _row_edges(self.g.weights, users)
        need = np.zeros(len(self._built), dtype=bool)
        need[self.g.weights.indices[edge]] = True
        rows = np.flatnonzero(need & ~self._built)
        for lo in range(0, len(rows), self._per_chunk):
            chunk = rows[lo : lo + self._per_chunk]
            prod = (self._b[chunk] @ self._right).toarray()
            np.multiply(self._sim[chunk], prod, out=prod)
            self._p[chunk] = prod
        self._built[rows] = True

    def walk(self, users: Sequence[int]) -> np.ndarray:
        """The walk's resources on all items, seen ones included, before
        the popularity penalty: one row per user, each that user's own
        `coef @ P[seen]` product, so a row's bits do not depend on the
        block it is computed in."""
        g = self.g
        users = np.asarray(users, dtype=np.int64)
        idle = users[g.user_degree[users] == 0]
        if len(idle):
            raise RecommendError(f"user {idle[0]} has no training interactions")
        self._build(users)
        out = np.empty((len(users), g.n_items))
        for r, u in enumerate(users.tolist()):
            seen, _ = g.user_items(u)
            n_u = float(len(seen))
            r1 = 1.0 / n_u + np.log(n_u / g.item_degree[seen])
            coef = r1 / g.item_weight_sum[seen]
            out[r] = coef @ self._p[seen]
        return out

    def penalty(self, theta: float) -> np.ndarray:
        """|U_j|^theta for every item j (1 for an unrated item): a walk row
        divided by it scores every item under the exponent theta in [0, 1]."""
        if not 0.0 <= theta <= 1.0:
            raise RecommendError(f"theta must be in [0, 1], got {theta}")
        return self._deg**theta


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


# the most SGD steps that one vectorised update takes: a wave of five
# ML-1M-shaped folds averages about 1,350 steps, and taken whole such waves
# made an epoch about 10% slower than in chunks of 512
_SGD_CHUNK = 512


def train_mf(
    trains: Sequence[RatingDataset], cfg: MfConfig, seed: int
) -> list[MFModel | MfDivergenceError]:
    """Biased latent-factor models, one per training set, each fit by
    per-rating stochastic gradient descent on squared error; deterministic
    given the seed. Returns, per set, its model or the
    `MfDivergenceError` that ended its training.

    Each set draws from its own `default_rng(seed)`: its user factors, its
    item factors, then each epoch a fresh permutation of its ratings, one
    SGD step per rating. The steps run in dependency waves: a step's wave
    is one past the latest wave of its set that already holds its user or
    its item. No two steps in a wave share a user or an item, and no two
    sets share a parameter, so wave w of every set still training is one
    vectorised update, taken in chunks of at most `_SGD_CHUNK` steps. Every
    row of the biases and factors gets the same updates, in the same order
    and with the same element-wise arithmetic, as when one set's steps run
    one at a time (the interchangeable strata of Gemulla et al., KDD 2011).
    Each model is therefore that of plain sequential SGD on its set alone,
    bit for bit.

    A set whose squared errors over an epoch, summed in its permutation
    order, are not finite has diverged: it stops at that epoch, and the
    other sets go on.
    """
    k = cfg.factors
    rngs = [np.random.default_rng(seed) for _ in trains]
    # one parameter table: each set's users, then its items, one row each of
    # k factors and then the bias
    firsts = np.cumsum([0] + [t.n_users + t.n_items for t in trains]).tolist()
    table = np.zeros((firsts[-1], k + 1))
    for t, rng, lo, hi in zip(trains, rngs, firsts, firsts[1:]):
        table[lo : lo + t.n_users, :k] = rng.normal(0.0, 0.1, size=(t.n_users, k))
        table[lo + t.n_users : hi, :k] = rng.normal(0.0, 0.1, size=(t.n_items, k))
    mus = [float(t.ratings.mean()) for t in trains]
    results: list[MFModel | MfDivergenceError | None] = [None] * len(trains)
    live = list(range(len(trains)))
    # divergence surfaces as non-finite error; silence the interim overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            sets = [(trains[s], rngs[s], firsts[s], mus[s]) for s in live]
            finite = _sgd_epoch(table, sets, cfg.learning_rate, cfg.regularization)
            for s, ok in zip(live, finite):
                if not ok:
                    results[s] = MfDivergenceError(epoch)
            live = [s for s in live if results[s] is None]
    for s in live:
        t, lo = trains[s], firsts[s]
        users, items = table[lo : lo + t.n_users], table[lo + t.n_users : firsts[s + 1]]
        results[s] = MFModel(
            global_mean=mus[s],
            user_bias=users[:, k].copy(),
            item_bias=items[:, k].copy(),
            user_factors=users[:, :k].copy(),
            item_factors=items[:, :k].copy(),
            scale_min=t.scale.min,
            scale_max=t.scale.max,
        )
    return results


def _sgd_epoch(table: np.ndarray, sets: list, lr: float, reg: float) -> list[bool]:
    """One SGD epoch of every (train, rng, first row, mean) set on the
    parameter table; per set, whether its squared errors summed in its
    permutation order are finite."""
    k = table.shape[1] - 1
    n = sum(t.n_links for t, _, _, _ in sets)
    wave = np.empty(n, dtype=np.int32)
    rows = np.empty((2, n), dtype=np.int32)  # each step's user row and item row
    r = np.empty(n)
    # each step's set, which gathers the set's mean rating chunk by chunk
    owner = np.empty(n, dtype=np.min_scalar_type(len(sets) - 1))
    means = np.array([mean for _, _, _, mean in sets])
    spans, a = [], 0
    for s, (t, rng, lo, _) in enumerate(sets):
        order = rng.permutation(t.n_links)
        b = a + len(order)
        u, i = t.users[order], t.items[order]
        wave[a:b] = _waves(u.tolist(), i.tolist(), t.n_users, t.n_items)
        rows[0, a:b] = u + lo
        rows[1, a:b] = i + (lo + t.n_users)
        r[a:b], owner[a:b] = t.ratings[order], s
        spans.append((a, b))
        a = b
    # every set's wave w together, each cut into chunks; keys of 16 bits or
    # fewer take numpy's radix sort
    by_wave = np.argsort(wave.astype(np.min_scalar_type(wave.max(initial=0))), kind="stable")
    ends, hi = [], 0
    for count in np.bincount(wave).tolist():
        lo, hi = hi, hi + count
        ends.extend(range(lo + _SGD_CHUNK, hi, _SGD_CHUNK))
        ends.append(hi)
    # each per-step array goes once it is read no more: at ML-1M shape
    # every one holds tens of MB
    del wave
    rows = rows[:, by_wave]
    r = r[by_wave]
    owner = owner[by_wave]
    errs = np.empty(n)
    lo = 0
    for hi in ends:
        # (2, steps, k + 1): the steps' user rows, then their item rows;
        # `take` gathers rows several times faster than fancy indexing
        g = np.take(table, rows[:, lo:hi], axis=0)
        # 1×k by k×1 products take the dot kernel of `pu @ qi`;
        # einsum or (pu * qi).sum(1) would add in another order
        dot = np.matmul(g[0, :, None, :k], g[1, :, :k, None])[:, 0, 0]
        mu = means[owner[lo:hi]]
        err = r[lo:hi] - (mu + g[0, :, k] + g[1, :, k] + dot)
        errs[lo:hi] = err
        # s + lr * (err * t - reg * s), where a row's partner t is the other
        # row of its step with 1.0 in the bias column (err * 1.0 is err),
        # computed in place to spare three chunk-sized temporaries
        step = g[::-1] * err[:, None]
        step[:, :, k] = err
        step -= reg * g
        step *= lr
        step += g
        table[rows[:, lo:hi]] = step
        lo = hi
    del rows, r, owner
    # each set's squared errors summed in its permutation order, as step by step
    np.multiply(errs, errs, out=errs)
    sq = np.empty(n)
    sq[by_wave] = errs
    return [a == b or bool(np.isfinite(np.cumsum(sq[a:b])[-1])) for a, b in spans]


def _waves(users: list[int], items: list[int], n_users: int, n_items: int) -> list[int]:
    """Wave of each SGD step: one past the latest wave of an earlier step
    on the same user or item, counting from 0."""
    user_wave = [-1] * n_users
    item_wave = [-1] * n_items
    waves = []
    append = waves.append
    for u, i in zip(users, items):
        a, b = user_wave[u], item_wave[i]
        w = (a if a > b else b) + 1
        user_wave[u] = item_wave[i] = w
        append(w)
    return waves


def predict_mf(model: MFModel, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    raw = (
        model.global_mean
        + model.user_bias[users]
        + model.item_bias[items]
        + np.einsum("ij,ij->i", model.user_factors[users], model.item_factors[items])
    )
    return np.clip(raw, model.scale_min, model.scale_max)
