"""Naive scalar reference implementations used to cross-check the
matrix-level code. Deliberately slow and independent of the package's
computation paths."""

import csv
import math

import numpy as np

from diffrec import bigraph, simkit
from diffrec.corpus import CorpusError, RatingDataset, kfold_split
from diffrec.recommend import (
    MFModel,
    MfDivergenceError,
    RecommendationList,
    _predictions,
    _row_edges,
)
from diffrec.simkit import LOG_BASE_POPULARITY, SimilarityError, SimilarityMatrix


def rating_map(ds):
    """dict (user, item) -> rating from a dataset."""
    return {(u, i): r for u, i, r in ds.triples()}


def user_items_map(ds):
    out = {}
    for u, i, r in ds.triples():
        out.setdefault(u, {})[i] = r
    return out


def item_users_map(ds):
    out = {}
    for u, i, r in ds.triples():
        out.setdefault(i, {})[u] = r
    return out


def cosine_pair(vec_a, vec_b, dims):
    dot = sum(vec_a.get(d, 0.0) * vec_b.get(d, 0.0) for d in dims)
    na = math.sqrt(sum(v * v for v in vec_a.values()))
    nb = math.sqrt(sum(v * v for v in vec_b.values()))
    if na == 0 or nb == 0:
        return None
    return dot / (na * nb)


def pcc_pair(vec_a, vec_b):
    cri = sorted(set(vec_a) & set(vec_b))
    if not cri:
        return None
    ma = sum(vec_a.values()) / len(vec_a)
    mb = sum(vec_b.values()) / len(vec_b)
    num = sum((vec_a[d] - ma) * (vec_b[d] - mb) for d in cri)
    da = sum((vec_a[d] - ma) ** 2 for d in cri)
    db = sum((vec_b[d] - mb) ** 2 for d in cri)
    if da == 0 or db == 0:
        return None
    return num / math.sqrt(da * db)


def average_cri_ratio(vectors):
    keys = sorted(vectors)
    total = 0.0
    pairs = 0
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            sa, sb = set(vectors[keys[a]]), set(vectors[keys[b]])
            union = len(sa | sb)
            total += len(sa & sb) / union if union else 0.0
            pairs += 1
    return total / pairs


def pim_pair(vec_a, vec_b, col_degree, ar, max_degree=None):
    """Scalar corrected-Pearson value; max_degree switches to the
    global-max penalty variant when given."""
    cri = sorted(set(vec_a) & set(vec_b))
    if not cri:
        return None
    ma = sum(vec_a.values()) / len(vec_a)
    mb = sum(vec_b.values()) / len(vec_b)
    num = sum(
        (vec_a[d] - ma) * (vec_b[d] - mb) / math.log10(1 + col_degree[d]) for d in cri
    )
    da = sum((vec_a[d] - ma) ** 2 for d in cri)
    db = sum((vec_b[d] - mb) ** 2 for d in cri)
    if da == 0 or db == 0:
        return None
    union = len(set(vec_a) | set(vec_b))
    ln_factor = math.log(1 + len(cri) / (union * ar))
    top = max_degree if max_degree is not None else max(len(vec_a), len(vec_b))
    penalty = 1 + math.exp(top / (len(vec_a) + len(vec_b)))
    return ln_factor * num / (math.sqrt(da * db) * penalty)


# ---------------------------------------------------------------------------
# Dense similarity: the untiled matrix path, whole n x m rating matrices
# and whole n x n products, mirrored at the end.


def _mirror(values):
    upper = np.triu(values)
    return upper + np.triu(values, 1).T


def _axis_vectors(g, axis):
    if axis == "users":
        w, deg, other_deg = g.weights, g.user_degree, g.item_degree
    else:
        w, deg, other_deg = g.weights_t, g.item_degree, g.user_degree
    dense = np.asarray(w.todense(), dtype=np.float64)
    mask = (dense != 0).astype(np.float64)
    return dense, mask, deg.astype(np.float64), other_deg.astype(np.float64)


def cosine_matrix(g, axis):
    x, _, _, _ = _axis_vectors(g, axis)
    norms = np.sqrt((x * x).sum(axis=1))
    dot = x @ x.T
    denom = np.outer(norms, norms)
    defined = denom > 0
    values = np.zeros_like(dot)
    np.divide(dot, denom, out=values, where=defined)
    np.clip(values, -1.0, 1.0, out=values)
    values = _mirror(values)
    np.fill_diagonal(values, np.where(norms > 0, 1.0, 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def _pearson_core(g, axis):
    x, mask, deg, other_deg = _axis_vectors(g, axis)
    sums = x.sum(axis=1)
    means = np.divide(sums, deg, out=np.zeros_like(sums), where=deg > 0)
    xc = (x - means[:, None]) * mask
    d = (xc * xc) @ mask.T
    denom = np.sqrt(d * d.T)
    inter = mask @ mask.T
    defined = (inter > 0) & (denom > 0)
    defined &= defined.T
    return xc, deg, other_deg, denom, inter, defined


def pcc_matrix(g, axis):
    xc, _, _, denom, _, defined = _pearson_core(g, axis)
    num = xc @ xc.T
    values = np.zeros_like(num)
    np.divide(num, denom, out=values, where=defined)
    np.clip(values, -1.0, 1.0, out=values)
    values = _mirror(values)
    np.fill_diagonal(values, np.where(np.diag(defined), 1.0, 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def _cri_ratio(inter, deg):
    """(pair ratio matrix, AR) from co-rating counts and node degrees."""
    n = inter.shape[0]
    if n < 2:
        raise SimilarityError("need at least 2 nodes to average pair ratios")
    union = deg[:, None] + deg[None, :] - inter
    ratio = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    total = (ratio.sum() - np.trace(ratio)) / 2.0
    return ratio, float(total / (n * (n - 1) / 2.0))


def dense_average_cri_ratio(g, axis):
    _, mask, deg, _ = _axis_vectors(g, axis)
    return _cri_ratio(mask @ mask.T, deg)[1]


def pim_matrix(g, axis, penalty_variant="pair-max"):
    xc, deg, other_deg, denom, inter, defined = _pearson_core(g, axis)
    col_w = np.zeros_like(other_deg)
    pos = other_deg > 0
    col_w[pos] = np.log(LOG_BASE_POPULARITY) / np.log1p(other_deg[pos])
    num = (xc * col_w[None, :]) @ xc.T
    ratio, ar = _cri_ratio(inter, deg)
    if ar <= 0:
        raise SimilarityError(f"no two {axis} co-rate, so the mean co-rating ratio is 0")
    num *= np.log1p(ratio / ar)
    deg_sum = deg[:, None] + deg[None, :]
    if penalty_variant == "pair-max":
        top = np.maximum(deg[:, None], deg[None, :])
    else:
        top = np.full_like(deg_sum, deg.max())
    x_pen = np.divide(top, deg_sum, out=np.zeros_like(deg_sum), where=deg_sum > 0)
    denom *= 1.0 + np.exp(x_pen)
    values = np.zeros_like(num)
    np.divide(num, denom, out=values, where=defined)
    values = _mirror(values)
    np.fill_diagonal(values, np.where(np.diag(defined), np.diag(values), 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def normalize(m):
    """Min-max normalization through boolean-indexed copies of the whole matrix."""
    n = m.n
    off = ~np.eye(n, dtype=bool)
    sel = m.defined & off
    if not sel.any():
        raise SimilarityError("no defined off-diagonal values to normalize")
    lo = m.values[sel].min()
    hi = m.values[sel].max()
    values = np.zeros_like(m.values)
    if hi > lo:
        values[sel] = (m.values[sel] - lo) / (hi - lo)
    else:
        values[sel] = 0.5
    np.fill_diagonal(values, 1.0)
    defined = m.defined.copy()
    np.fill_diagonal(defined, True)
    return SimilarityMatrix(axis=m.axis, values=values, defined=defined, normalized=True)


def top_k_neighbors(m, node, k):
    """k most similar defined neighbors of `node` in a SimilarityMatrix as
    (id, value), descending similarity, ties by id."""
    cands = [
        (j, float(m.values[node, j]))
        for j in range(m.n)
        if j != node and m.defined[node, j]
    ]
    cands.sort(key=lambda t: (-t[1], t[0]))
    return cands[:k]


def md_item_scores(ds, user):
    """Literal three-step unweighted diffusion over a dataset. Each sum
    adds its terms in ascending id order, as the sparse products do, so a
    tie between two items' scores has the same bits as in md_scores."""
    by_user = user_items_map(ds)
    by_item = item_users_map(ds)
    seen = set(by_user[user])
    res_users = {}
    for i in sorted(seen):
        for v in by_item[i]:
            res_users[v] = res_users.get(v, 0.0) + 1.0 / len(by_item[i])
    res_items = {}
    for v, res in sorted(res_users.items()):
        for j in by_user[v]:
            res_items[j] = res_items.get(j, 0.0) + res / len(by_user[v])
    return res_users, res_items


def pimra_item_scores(ds, user, sim, theta, alt_weight=False):
    """Literal path-tracked three-step weighted walk.

    `sim` is a dense item-similarity lookup: sim[i][j]. Ratings of 0 are
    clamped to the scale step, matching the graph construction rule.
    """
    by_user = user_items_map(ds)
    by_item = item_users_map(ds)
    clamp = lambda r: r if r != 0 else ds.scale.step
    w_user = {v: sum(clamp(r) for r in items.values()) for v, items in by_user.items()}
    w_item = {i: sum(clamp(r) for r in users.values()) for i, users in by_item.items()}
    seen = by_user[user]
    scores = {}
    for i in seen:
        r1 = 1.0 / len(seen) + math.log(len(seen) / len(by_item[i]))
        for v, r_vi in by_item[i].items():
            w_vi = clamp(r_vi)
            r2 = r1 * w_vi / w_item[i]
            for j, r_vj in by_user[v].items():
                w = clamp(r_vj) if alt_weight else w_vi
                contrib = r2 * w * sim[i][j] / (len(by_item[j]) ** theta * w_user[v])
                scores[j] = scores.get(j, 0.0) + contrib
    return scores


def knn_prediction(ds, sim_lookup, user, item, k, axis="users"):
    """Literal weighted-mean prediction over the k nearest raters."""
    by_user = user_items_map(ds)
    by_item = item_users_map(ds)
    if axis == "users":
        cands = [
            (v, sim_lookup[user][v], r)
            for v, r in by_item.get(item, {}).items()
            if v != user and sim_lookup[user][v] > 0
        ]
    else:
        cands = [
            (j, sim_lookup[item][j], r)
            for j, r in by_user.get(user, {}).items()
            if j != item and sim_lookup[item][j] > 0
        ]
    cands.sort(key=lambda t: (-t[1], t[0]))
    cands = cands[:k]
    if not cands:
        return None
    num = sum(s * r for _, s, r in cands)
    den = sum(s for _, s, _ in cands)
    return num / den


def knn_rating(ds, sim_lookup, user, item, k, axis="users"):
    """knn_prediction, or without neighbors the user's mean rating, else
    the item's, else the scale midpoint; clipped to the rating scale."""
    pred = knn_prediction(ds, sim_lookup, user, item, k, axis)
    if pred is None:
        rated = user_items_map(ds).get(user) or item_users_map(ds).get(item)
        pred = sum(rated.values()) / len(rated) if rated else (ds.scale.min + ds.scale.max) / 2
    return min(max(pred, ds.scale.min), ds.scale.max)


def knn_predict(sim, g, users, items, ks):
    """recommend.knn_predict by a stable two-key sort and one bincount per
    k: the neighbor order of `np.lexsort((-sims, pair))` (edges come in
    ascending neighbor id within a pair, so ties go by id), each pair's
    first k weighted ratings and similarities summed by `np.bincount`.
    Its bytes are the arbiter of the prefix-sum kernel's."""
    ks = np.asarray(ks, dtype=np.int64)
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if sim.axis == "users":
        anchors, rows, csr = users, items, g.weights_t
    else:
        anchors, rows, csr = items, users, g.weights
    n_pairs = len(rows)
    pair, edge = _row_edges(csr, rows)
    nbr = csr.indices[edge]
    anchor = anchors[pair]
    sims = sim.values[anchor, nbr]
    keep = sim.defined[anchor, nbr] & (sims > 0) & (nbr != anchor)
    pair, sims = pair[keep], sims[keep]
    weighted = sims * csr.data[edge[keep]]
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


def rank(scores, seen):
    """Full ranking of every item not in `seen`: (items, scores) by
    descending score, ties by ascending id."""
    candidates = np.setdiff1d(np.arange(scores.shape[0]), seen, assume_unique=False)
    items = candidates[np.lexsort((candidates, -scores[candidates]))]
    return items, scores[items]


def ars(lists, likes):
    """Average ranking score from full rankings (`rec.items` holds every
    candidate): relative rank is the 1-based position over the list's
    length; None without a user having a liked candidate."""
    total = 0.0
    n_users = 0
    for rec in lists:
        liked = likes.get(rec.user)
        if not liked:
            continue
        length = len(rec.items)
        if length == 0:
            continue
        positions = np.flatnonzero(np.isin(rec.items, list(liked))) + 1
        if len(positions) == 0:
            continue
        n_users += 1
        total += sum(pos / length for pos in positions.tolist())
    if n_users == 0:
        return None
    return n_users / total


def full_lists(g, users, scores, likes=None):
    """One full-ranking RecommendationList per row of `scores`: every
    candidate, and the liked ranks read off their positions."""
    lists = []
    for u, row in zip(users, scores):
        items, top = rank(row, g.user_items(u)[0])
        liked = list((likes or {}).get(u, ()))
        ranks = np.flatnonzero(np.isin(items, liked)) + 1
        lists.append(RecommendationList(u, items, top, ranks, len(items)))
    return lists


def internal_diversity(lists, values, length):
    """Mean of 1 - average pairwise similarity over lists of two or more,
    each block gathered with np.ix_; None without such a list."""
    vals = []
    for rec in lists:
        top = rec.top(length)
        l = len(top)
        if l < 2:
            continue
        block = values[np.ix_(top, top)]
        pair_sum = (block.sum() - np.trace(block)) / 2.0
        vals.append(1.0 - 2.0 * pair_sum / (l * (l - 1)))
    return float(np.mean(vals)) if vals else None


def novelty(lists, histories, values, length):
    """Mean of 1 - average list-to-history similarity, each block gathered
    with np.ix_; None without a user having both."""
    vals = []
    for rec in lists:
        top = rec.top(length)
        hist = np.asarray(list(histories.get(rec.user, ())), dtype=np.int64)
        if len(top) == 0 or len(hist) == 0:
            continue
        vals.append(1.0 - float(values[np.ix_(top, hist)].mean()))
    return float(np.mean(vals)) if vals else None


def rec_count_distribution(lists, g, length):
    """Rows of (item, training degree, recommendation count), all items."""
    counts = rec_counts(lists, g.n_items, length)
    return [(j, int(g.item_degree[j]), counts[j]) for j in range(g.n_items)]


def rec_counts(lists, n_items, length):
    """Per-item appearance counts, one list slot at a time."""
    counts = [0] * n_items
    for rec in lists:
        for item in rec.top(length).tolist():
            counts[item] += 1
    return counts


def avg_popularity(lists, g, length):
    """Mean training degree over every recommended slot; None without one."""
    degs = [int(g.item_degree[item]) for rec in lists for item in rec.top(length).tolist()]
    return sum(degs) / len(degs) if degs else None


def inter_user_diversity(lists, length):
    """Mean of 1 - |overlap|/length over every pair of users' top sets."""
    tops = [set(rec.top(length).tolist()) for rec in lists]
    n = len(tops)
    total = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            total += 1.0 - len(tops[a] & tops[b]) / length
    return total / (n * (n - 1) / 2.0)


def gini_complement_mad(counts):
    """Gini complement via the mean-absolute-difference definition,
    rescaled from the population to the n-1 denominator."""
    n = len(counts)
    total = sum(counts)
    mean = total / n
    mad = sum(abs(a - b) for a in counts for b in counts) / (n * n)
    gini = mad / (2 * mean) * (n / (n - 1))
    return 1.0 - gini


def train_mf(train, cfg, seed):
    """Biased latent-factor model fit by per-rating stochastic gradient
    descent on squared error, one rating at a time in each epoch's
    permutation order."""
    rng = np.random.default_rng(seed)
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


def load_ratings(path, format, scale):
    """Row-by-row loader: read every row into a tuple, then build the
    dataset one rating at a time."""
    if format == "ml100k-tsv":
        rows = _read_ml100k(path)
    elif format == "generic-csv":
        rows = _read_generic_csv(path)
    else:
        raise CorpusError(f"unknown format {format!r}")
    return from_triples(rows, scale)


def _read_ml100k(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise CorpusError(f"line {line_no}: expected 4 tab-separated fields")
            u, i, r, ts = parts
            try:
                rows.append((u, i, _number(float, r), _number(int, ts)))
            except ValueError as exc:
                raise CorpusError(f"line {line_no}: {exc}") from exc
    return rows


def _number(parse, text):
    if "_" in text:
        raise ValueError(f"digit separator '_' in number {text!r}")
    if not text.isascii():
        raise ValueError(f"non-ASCII character in number {text!r}")
    return parse(text)


def _read_generic_csv(path):
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        header = [h.strip().lower() for h in header]
        if header[:3] != ["user", "item", "rating"]:
            raise CorpusError(
                "line 1: expected header user,item,rating[,timestamp], "
                f"got {','.join(header)}"
            )
        has_ts = len(header) == 4 and header[3] == "timestamp"
        width = 4 if has_ts else 3
        start = reader.line_num + 1
        for parts in reader:
            # a record's physical line is the one after its predecessor's end
            line_no, start = start, reader.line_num + 1
            if not parts:
                continue
            if len(parts) != width:
                raise CorpusError(f"line {line_no}: expected {width} fields")
            try:
                if has_ts:
                    u, i, r, ts = parts
                    rows.append((u, i, _number(float, r), _number(int, ts)))
                else:
                    u, i, r = parts
                    rows.append((u, i, _number(float, r)))
            except ValueError as exc:
                raise CorpusError(f"line {line_no}: {exc}") from exc
    return rows


def from_triples(triples, scale):
    """Dataset from (user, item, rating[, timestamp]) tuples, one row at a
    time: ids on first appearance, a set of seen pairs, on_grid per row.
    The tests build their fixtures with it."""
    user_ids = {}
    item_ids = {}
    users, items, ratings, stamps = [], [], [], []
    seen = set()
    has_ts = None
    for row_no, row in enumerate(triples, start=1):
        if len(row) == 3:
            u, i, r = row
            ts = None
        elif len(row) == 4:
            u, i, r, ts = row
        else:
            raise CorpusError(f"row {row_no}: expected 3 or 4 fields, got {len(row)}")
        if has_ts is None:
            has_ts = ts is not None
        elif has_ts != (ts is not None):
            raise CorpusError(f"row {row_no}: inconsistent timestamp presence")
        r = float(r)
        if not scale.on_grid(r):
            raise CorpusError(
                f"row {row_no}: rating {r} is off the scale grid "
                f"[{scale.min}, {scale.max}] step {scale.step}"
            )
        uid = user_ids.setdefault(str(u), len(user_ids))
        iid = item_ids.setdefault(str(i), len(item_ids))
        if (uid, iid) in seen:
            raise CorpusError(f"row {row_no}: duplicate (user, item) pair ({u}, {i})")
        seen.add((uid, iid))
        users.append(uid)
        items.append(iid)
        ratings.append(r)
        if ts is not None:
            stamps.append(int(ts))
    for row_no, ts in enumerate(stamps, start=1):
        if not -(2**63) <= ts < 2**63:
            raise CorpusError(f"row {row_no}: timestamp {ts} is beyond int64")
    return RatingDataset(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        ratings=np.asarray(ratings, dtype=np.float64),
        scale=scale,
        user_labels=tuple(user_ids),
        item_labels=tuple(item_ids),
        timestamps=np.asarray(stamps, dtype=np.int64) if stamps else None,
    )


def write_ratings(ds, path):
    """generic-csv, one csv.writer row per rating, indexed by numpy scalars."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if ds.timestamps is not None:
            writer.writerow(["user", "item", "rating", "timestamp"])
            for n in range(ds.n_links):
                writer.writerow(
                    [
                        ds.user_labels[ds.users[n]],
                        ds.item_labels[ds.items[n]],
                        _fmt_rating(ds.ratings[n]),
                        int(ds.timestamps[n]),
                    ]
                )
        else:
            writer.writerow(["user", "item", "rating"])
            for n in range(ds.n_links):
                writer.writerow(
                    [
                        ds.user_labels[ds.users[n]],
                        ds.item_labels[ds.items[n]],
                        _fmt_rating(ds.ratings[n]),
                    ]
                )


def write_fold_manifest(folds, path):
    """fold,user,item,rating,split, one csv.writer row per rating."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "user", "item", "rating", "split"])
        for f, pair in enumerate(folds):
            for part, name in ((pair.train, "train"), (pair.test, "test")):
                for u, i, r in part.triples():
                    writer.writerow(
                        [f, part.user_labels[u], part.item_labels[i], _fmt_rating(r), name]
                    )


def _fmt_rating(r):
    return str(int(r)) if float(r).is_integer() else repr(float(r))


# ---------------------------------------------------------------------------
# End-to-end run: the k-fold split composed with the scalar oracles above.


class _Defined:
    """Equal to any defined value."""

    def __eq__(self, other):
        return other is not None

    def __repr__(self):
        return "<defined>"


# the value of a row whose lists rest on a PIM+RA near-tie
DEFINED = _Defined()


def run_experiment(ds, cfg):
    """harness.run_experiment's report for UBCF, SVD, MD and PIM+RA as a
    dict (fold, method, theta, L, metric) -> value, None where undefined,
    the cross-fold mean rows included; None when no fold ranks anything.

    Every test user with a liked test item and a training rating gets a
    full ranking of the oracle's scores. A method whose similarity or MF
    training fails on a fold has undefined rows there. The similarities
    are simkit's: a kNN neighbour order and a ranking tie depend on their
    bits. UBCF and MD sum as the library does, so their ties have its
    bits; PIM+RA's walk sums in BLAS order, which no scalar loop follows,
    so where two of a user's candidate scores are within rounding of each
    other its order is noise, and the fold's defined PIM+RA values are
    DEFINED."""
    rows, ranked = {}, False
    for f, pair in enumerate(kfold_split(ds, cfg.k_folds, cfg.seed)):
        train, g = pair.train, bigraph.build_graph(pair.train)
        by_user = user_items_map(train)
        likes = {}
        for u, i, r in pair.test.triples():
            if r >= cfg.like_threshold:
                likes.setdefault(u, set()).add(i)
        users = sorted(u for u in likes if u in by_user)
        for method in cfg.methods:
            lists, noise = None, False
            if users:
                try:
                    scores = np.array(_scores(method, train, g, users, cfg))
                    lists = full_lists(g, users, scores, likes)
                    noise = method == "PIM+RA" and _near_tie(g, users, scores)
                except (SimilarityError, MfDivergenceError):
                    pass
            ranked |= lists is not None
            theta = cfg.theta if method == "PIM+RA" else None
            for metric, length, value in _list_metrics(lists, likes, g, by_user, cfg):
                if noise and value is not None:
                    value = DEFINED
                rows[(str(f), method, theta, length, metric)] = value
    if not ranked:
        return None
    folds = {}
    for (fold, *key), value in rows.items():
        if value is not None:
            folds.setdefault(tuple(key), []).append(value)
    for key, vs in folds.items():
        rows[("mean", *key)] = DEFINED if any(v is DEFINED for v in vs) else sum(vs) / len(vs)
    return rows


def _near_tie(g, users, scores):
    """Whether a user has two candidate scores, not both 0, that differ by
    at most 1e-12 of the row's largest magnitude."""
    for u, row in zip(users, scores):
        cand = np.sort(np.delete(row, g.user_items(u)[0]))
        close = np.diff(cand) <= 1e-12 * np.abs(cand).max(initial=0.0)
        if np.any(close & ((cand[1:] != 0) | (cand[:-1] != 0))):
            return True
    return False


def _scores(method, train, g, users, cfg):
    """Each user's score of every item under `method`, one row per user."""
    items = range(train.n_items)
    if method == "UBCF":
        sim = simkit.similarity(g, cfg.knn_measure, "users", cfg.penalty_variant).values
        return [[knn_rating(train, sim, u, j, cfg.knn_k) for j in items] for u in users]
    if method == "SVD":
        m = train_mf(train, cfg.mf, cfg.seed)
        raw = [
            [m.global_mean + m.user_bias[u] + m.item_bias[j]
             + m.user_factors[u] @ m.item_factors[j] for j in items]
            for u in users
        ]
        return np.clip(raw, m.scale_min, m.scale_max)
    if method == "MD":
        found = [md_item_scores(train, u)[1] for u in users]
    elif method == "PIM+RA":
        sim = simkit.similarity(g, "pim", "items", cfg.penalty_variant).values
        alt = cfg.step3_weight == "alt-w_vj"
        found = [pimra_item_scores(train, u, sim, cfg.theta, alt) for u in users]
    else:
        raise ValueError(f"no oracle for method {method!r}")
    return [[scores.get(j, 0.0) for j in items] for scores in found]


def _list_metrics(lists, likes, g, by_user, cfg):
    """(metric, L, value) of one fold's lists, in report order: None
    throughout without lists, else where a metric is undefined (ID and
    novelty where the fold has no metric similarity)."""
    length = cfg.list_length
    names = ("gini", "id", "iud", "novelty", "avg_popularity")
    if lists is None:
        return [("ars", None, None)] + [(name, length, None) for name in names]
    try:
        sim = simkit.similarity(g, cfg.metric_sim, "items", cfg.penalty_variant).values
    except SimilarityError:
        sim = None
    counts = rec_counts(lists, g.n_items, length)
    histories = {u: sorted(by_user[u]) for u in by_user}
    values = (
        gini_complement_mad(counts) if len(counts) > 1 and sum(counts) else None,
        None if sim is None else internal_diversity(lists, sim, length),
        inter_user_diversity(lists, length) if len(lists) > 1 else None,
        None if sim is None else novelty(lists, histories, sim, length),
        avg_popularity(lists, g, length),
    )
    return [("ars", None, ars(lists, likes))] + [
        (name, length, value) for name, value in zip(names, values)
    ]
