"""Similarity measures over either graph axis: cosine, Pearson, and the
co-rating/activity/popularity-corrected Pearson variant, and one entry
point that computes one of them and min-max normalizes it.

All three measures run on one tiled core. The axis's rating rows are
scattered from the CSR rows into dense tiles of about _TILE_BYTES, and
every pair of tiles on or above the diagonal fills its block of the
n x n output and the mirrored block below it. Memory is the output plus
at most four dense tiles (in the Pearson column loop, three of the row
tile and one of the column tile), never a dense copy of the rating
matrix (the row-block scheme of Bayardo, Ma and Srikant, "Scaling up all
pairs similarity search", WWW 2007); `defined` is written after them.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, get_args

import numpy as np

if TYPE_CHECKING:
    from diffrec.bigraph import BipartiteGraph

Axis = Literal["users", "items"]
PenaltyVariant = Literal["pair-max", "global-max"]
MEASURES = ("cosine", "pcc", "pim")
# base of the logarithm in pim's popularity down-weighting
LOG_BASE_POPULARITY = 10.0
# bytes of one dense tile of float64 rows: rating rows, or output rows in _normalize
_TILE_BYTES = 24 << 20
# dense tiles counted in a size estimate, a loose upper bound on the four
# alive at once (module docstring), a scatter's temporaries and a pair's products
_TILES_ALIVE = 8
# rows of the strips in which _put mirrors a diagonal tile's upper triangle
_MIRROR_ROWS = 64
# the largest degree whose co-rating counts, float32 sums of ones, are exact
_FLOAT32_EXACT = 2**24


class SimilarityError(ValueError):
    pass


class MemoryCeilingError(SimilarityError):
    """The matrix does not fit the memory this process may hold: a limit
    of the machine, not a fault of the input."""


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric node-pair similarity over one axis.

    `defined` flags pairs with a computable value; undefined entries
    (empty co-rating set, zero variance) hold +0 and never NaN. A raw
    builder derives it after its tiles, from their NaN marks.
    """

    axis: Axis
    values: np.ndarray
    defined: np.ndarray
    normalized: bool = False

    @property
    def n(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# Tiles


def _axis_rows(g: "BipartiteGraph", axis: Axis):
    """(CSR rows = axis nodes, their 0/1 adjacency rows, node degrees,
    opposite-side degrees), the degrees as float64."""
    if axis == "users":
        w, a, deg, other_deg = g.weights, g.adjacency, g.user_degree, g.item_degree
    elif axis == "items":
        w, a, deg, other_deg = g.weights_t, g.adjacency_t, g.item_degree, g.user_degree
    else:
        raise SimilarityError(f"unknown axis {axis!r}")
    return w, a, deg.astype(np.float64), other_deg.astype(np.float64)


def _spans(n: int, m: int) -> list[slice]:
    """Row ranges of the tiles: as many m-wide float64 rows as fit in
    _TILE_BYTES, at least one."""
    h = max(1, _TILE_BYTES // (8 * m))
    return [slice(lo, min(lo + h, n)) for lo in range(0, n, h)]


def _scatter(w, rows: slice, dtype=np.float64, means=None) -> np.ndarray:
    """Dense rows `rows` of CSR `w` less each row's `means` if given, 0
    where nothing is stored."""
    lo, hi = w.indptr[rows.start], w.indptr[rows.stop]
    height = rows.stop - rows.start
    local = np.repeat(np.arange(height), np.diff(w.indptr[rows.start : rows.stop + 1]))
    out = np.zeros((height, w.shape[1]), dtype)
    data = w.data[lo:hi]
    out[local, w.indices[lo:hi]] = data if means is None else data - means[rows][local]
    return out


def _row_sums(w, spans, square: bool = False) -> np.ndarray:
    """Sum of each dense row (of its squares if `square`), summed over
    the full row with its zeros, as `x.sum(axis=1)` sums."""
    sums = np.empty(w.shape[0])
    for rows in spans:
        x = _scatter(w, rows)
        sums[rows] = (x * x if square else x).sum(axis=1)
    return sums


def _tile_pairs(spans, build):
    """(b, c, tile_b, tile_c) for every pair of tile spans with b on or
    before c. A diagonal pair is one built tile twice, so that a tile
    times its own transpose takes numpy's symmetric product, as the
    whole matrix times its transpose does."""
    for k, b in enumerate(spans):
        tb = build(b)
        yield b, b, tb, tb
        for c in spans[k + 1 :]:
            yield b, c, tb, build(c)


def _put(out: np.ndarray, b: slice, c: slice, tile: np.ndarray, mirror: bool = False) -> None:
    """Write the tile of pair (b, c) at [b, c] and its transpose at
    [c, b]; the tile may be overwritten. A diagonal tile is bitwise
    symmetric already when it is a function of a tile times itself
    (numpy's symmetric product) and of terms symmetric in the pair.
    Otherwise `mirror` keeps its upper triangle, mirrored below, so
    sim(a, b) == sim(b, a) bitwise (other BLAS products are symmetric
    only up to rounding). Adding a zero makes -0.0 +0.0."""
    tile += 0.0
    out[b, c] = tile
    if b != c:
        out[c, b] = tile.T
    elif mirror:
        _mirror_upper(out[b, b])


def _mirror_upper(square: np.ndarray) -> None:
    """Copy the upper triangle of `square` onto its lower one, a strip of
    _MIRROR_ROWS rows at a time, so that no temporary is square-sized."""
    h = square.shape[0]
    for lo in range(0, h, _MIRROR_ROWS):
        hi = min(lo + _MIRROR_ROWS, h)
        block = square[lo:hi, lo:hi]
        block[...] = np.triu(block) + np.triu(block, 1).T
        square[hi:, lo:hi] = square[lo:hi, hi:].T


def _marked(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """num / denom over num, NaN where denom (>= 0, overwritten) is 0. Plain
    passes, as a masked ufunc is about ten times slower over a random mask:
    denom over its denom > 0 flag is itself or 0/0, NaN whatever num is."""
    with np.errstate(invalid="ignore"):
        np.divide(denom, denom > 0, out=denom)
    return np.divide(num, denom, out=num)


def _unmarked(v: np.ndarray) -> np.ndarray:
    """v with each NaN mark made +0, in place, in plain passes with no
    temporary but a flag per entry: fmin(v, the largest float) puts it in
    place of a mark, +0 times its False flag; other values times True stay."""
    ok = v == v
    np.fmin(v, np.finfo(v.dtype).max, out=v)
    return np.multiply(v, ok, out=v)


def _memory_limit() -> int:
    """Bytes this process may hold: its address-space limit when set,
    else physical memory."""
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return phys if soft == resource.RLIM_INFINITY else min(soft, phys)


def _check_fits(what: str, need: int) -> None:
    """MemoryCeilingError, naming `what`, unless `need` bytes fit in
    what this process may hold."""
    limit = _memory_limit()
    if need > limit:
        raise MemoryCeilingError(
            f"{what} needs {need:,} bytes ({need / 2**20:,.0f} MiB), "
            f"more than the {limit:,} this process may hold"
        )


def _output(measure: str, axis: Axis, w) -> tuple[np.ndarray, list[slice]]:
    """The n x n values array and the tile spans, after checking that
    it, the defined flags written last and the tiles fit in memory."""
    n, m = w.shape
    spans = _spans(n, m)
    _check_fits(
        f"{measure} similarity over {n} {axis}",
        9 * n * n + _TILES_ALIVE * 8 * (spans[0].stop if spans else 0) * m,
    )
    return np.empty((n, n)), spans


# ---------------------------------------------------------------------------
# Measures


def cosine_matrix(g: "BipartiteGraph", axis: Axis) -> SimilarityMatrix:
    """Cosine similarity over full rating vectors, missing entries as 0."""
    w, _, _, _ = _axis_rows(g, axis)
    values, spans = _output("cosine", axis, w)
    norms = np.sqrt(_row_sums(w, spans, square=True))
    for b, c, xb, xc in _tile_pairs(spans, lambda rows: _scatter(w, rows)):
        tile = _marked(xb @ xc.T, np.outer(norms[b], norms[c]))
        _put(values, b, c, np.clip(tile, -1.0, 1.0, out=tile))
    defined = values == values
    _unmarked(values)
    np.fill_diagonal(values, np.where(norms > 0, 1.0, 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def _pearson_tiles(w, a, spans, deg, col_w=None):
    """For every tile pair (b, c, num, denom): `num` the co-rating sums
    of centred products (each column weighted by `col_w` if given) and
    `denom` the per-pair variance product over the co-rating set. A
    centred tile holds each rating minus its node's mean over all its
    ratings (0 where unrated); a mask tile holds the adjacency `a`, 1
    where rated even where the centred rating is 0.

    A pair has a value where denom > 0. That needs a co-rated column,
    since a centred rating is nonzero only where its node rated, so
    no co-rating count is needed to tell which pairs are defined.

    Each row tile's diagonal pair is computed first and given last, so
    that no dense tile is alive while the caller works on it. A column
    span's centred tile is freed before its mask tile is scattered."""
    means = _unmarked(_marked(_row_sums(w, spans), deg.copy()))
    for k, b in enumerate(spans):
        xb, mb = _scatter(w, b, means=means), _scatter(a, b)
        left = xb if col_w is None else xb * col_w[None, :]
        sq_b = xb * xb
        d = sq_b @ mb.T
        denom = d * d.T
        del d
        # the tile times its own transpose, as x @ x.T is computed whole
        diagonal = left @ xb.T, np.sqrt(denom, out=denom)
        del xb, denom
        for c in spans[k + 1 :]:
            xc = _scatter(w, c, means=means)
            num = left @ xc.T
            # this column tile is not used again, so it is squared in place
            sq_c = np.multiply(xc, xc, out=xc) @ mb.T
            del xc
            denom = (sq_b @ _scatter(a, c).T) * sq_c.T
            yield b, c, num, np.sqrt(denom, out=denom)
        del left, sq_b, mb
        yield (b, b, *diagonal)


def pcc_matrix(g: "BipartiteGraph", axis: Axis) -> SimilarityMatrix:
    """Pearson similarity: sums over the co-rating set, means over all
    of each node's own ratings."""
    w, a, deg, _ = _axis_rows(g, axis)
    values, spans = _output("pcc", axis, w)
    for b, c, num, denom in _pearson_tiles(w, a, spans, deg):
        _put(values, b, c, np.clip(_marked(num, denom), -1.0, 1.0, out=num))
    defined = values == values
    _unmarked(values)
    np.fill_diagonal(values, np.where(np.diag(defined), 1.0, 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def _cri_ratios(a, spans, deg, out: np.ndarray) -> float:
    """Write each pair's intersection/union ratio of rating sets, from the
    0/1 adjacency rows `a`, into `out` (both triangles; empty-union pairs
    0) and return its mean over all unordered distinct node pairs (AR)."""
    n = out.shape[0]
    if n < 2:
        raise SimilarityError("need at least 2 nodes to average pair ratios")
    # the mask product runs in float32, about a third faster than float64
    # at ML-1M; its counts, at most the larger degree, are exact up to 2**24
    if deg.max() > _FLOAT32_EXACT:
        raise SimilarityError(
            f"a node has {deg.max():,.0f} ratings, more than the {_FLOAT32_EXACT:,} "
            f"whose co-rating counts are exact in float32"
        )
    for b, c, mb, mc in _tile_pairs(spans, lambda rows: _scatter(a, rows, np.float32)):
        inter = (mb @ mc.T).astype(np.float64)  # exact co-rating counts
        union = deg[b, None] + deg[None, c] - inter
        _put(out, b, c, _unmarked(_marked(inter, union)))
    total = (out.sum() - np.trace(out)) / 2.0
    return float(total / (n * (n - 1) / 2.0))


def pim_matrix(
    g: "BipartiteGraph", axis: Axis, penalty_variant: PenaltyVariant = "pair-max"
) -> SimilarityMatrix:
    """Corrected Pearson similarity.

    Three corrections on top of the Pearson core: a log reward/penalty on
    the co-rating intersection/union ratio relative to its axis mean AR,
    a per-column popularity down-weighting 1/log(1 + column degree), and
    an activity penalty 1/(1 + e^x) driven by the node degrees.
    penalty_variant picks the numerator of x: 'pair-max' the larger of
    the two node degrees, 'global-max' the maximum degree on the axis.
    AR = 0 (no two nodes co-rate) is a SimilarityError.

    Two passes over the tile pairs: the first writes the ratios into the
    output and takes AR from them, the second overwrites each ratio tile
    with its similarities.
    """
    if penalty_variant not in get_args(PenaltyVariant):
        raise SimilarityError(f"unknown penalty variant {penalty_variant!r}")
    w, a, deg, other_deg = _axis_rows(g, axis)
    values, spans = _output("pim", axis, w)
    ar = _cri_ratios(a, spans, deg, values)
    if ar <= 0:
        raise SimilarityError(f"no two {axis} co-rate, so the mean co-rating ratio is 0")

    log_deg = np.log1p(other_deg)
    col_w = _unmarked(_marked(np.full_like(log_deg, np.log(LOG_BASE_POPULARITY)), log_deg))
    deg_max = None if penalty_variant == "pair-max" else deg.max()
    for b, c, num, denom in _pearson_tiles(w, a, spans, deg, col_w):
        reward = values[b, c] / ar
        num *= np.log1p(reward, out=reward)
        del reward
        # a positive penalty keeps denom > 0 where it was
        denom *= _activity_penalty(deg[b], deg[c], deg_max)
        # a diagonal num is the column-weighted tile times the plain one
        _put(values, b, c, _marked(num, denom), mirror=True)
    defined = values == values
    _unmarked(values)
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def _activity_penalty(deg_b: np.ndarray, deg_c: np.ndarray, deg_max=None) -> np.ndarray:
    """1 + e^x for every pair of a tile: x is the larger of the pair's
    degrees (or deg_max, if given) over their sum, 0 where the sum is 0.

    A pair's penalty depends only on its two degrees, so it is computed
    once per pair of distinct degrees, a table no larger than the tile,
    and gathered: the same bits for a fraction of the passes."""
    levels_b, at_b = np.unique(deg_b, return_inverse=True)
    levels_c, at_c = np.unique(deg_c, return_inverse=True)
    deg_sum = levels_b[:, None] + levels_c[None, :]
    if deg_max is None:
        x = np.maximum(levels_b[:, None], levels_c[None, :])
    else:
        x = np.full_like(deg_sum, deg_max)
    x = _unmarked(_marked(x, deg_sum))
    x = np.exp(x, out=x)
    x += 1.0
    return x.take(at_b, axis=0).take(at_c, axis=1)


def similarity(
    g: "BipartiteGraph", measure: str, axis: Axis, penalty_variant: PenaltyVariant = "pair-max"
) -> SimilarityMatrix:
    """Normalized similarity of one of MEASURES over one axis;
    penalty_variant applies to pim only."""
    if measure == "cosine":
        raw = cosine_matrix(g, axis)
    elif measure == "pcc":
        raw = pcc_matrix(g, axis)
    elif measure == "pim":
        raw = pim_matrix(g, axis, penalty_variant)
    else:
        raise SimilarityError(f"unknown similarity measure {measure!r}")
    return _normalize(raw)


def _normalize(m: SimilarityMatrix) -> SimilarityMatrix:
    """Min-max normalize defined off-diagonal values to [0, 1], overwriting
    m's arrays one block of rows at a time.

    Undefined entries map to 0, the diagonal to 1. If every defined
    off-diagonal value is equal, they all map to 0.5.

    Every pass is plain in-place arithmetic. The first marks each
    undefined or diagonal entry NaN (a value times its 0/1 flag, over
    the flag, is itself or 0/0) and takes the bounds with NaN-ignoring
    reductions. The second scales, and fmax(v, 0) maps NaN to +0; a
    scaled value is never below +0, since v >= lo.
    """
    values, defined = m.values, m.defined
    if np.count_nonzero(defined) == np.count_nonzero(np.diagonal(defined)):
        raise SimilarityError("no defined off-diagonal values to normalize")
    blocks = _spans(m.n, m.n)
    lo, hi = np.inf, -np.inf
    for rows in blocks:
        v, d = values[rows], defined[rows]
        np.fill_diagonal(v[:, rows], np.nan)
        with np.errstate(invalid="ignore"):
            v *= d
            v /= d
        lo = np.fmin(lo, np.fmin.reduce(v, axis=None))
        hi = np.fmax(hi, np.fmax.reduce(v, axis=None))
    for rows in blocks:
        v = values[rows]
        if hi > lo:
            v -= lo
            v /= hi - lo
        else:
            v *= 0.0
            v += 0.5
        np.fmax(v, 0.0, out=v)
    np.fill_diagonal(values, 1.0)
    np.fill_diagonal(defined, True)
    return SimilarityMatrix(axis=m.axis, values=values, defined=defined, normalized=True)
