"""Similarity measures over either graph axis: cosine, Pearson, and the
co-rating/activity/popularity-corrected Pearson variant, and one entry
point that computes one of them and min-max normalizes it.

All three measures run on one tiled core. Every pair of row spans of
about _TILE_BYTES on or above the diagonal gives its block of the n x n
result, which is its transpose below the diagonal. Each builder hands the
blocks to one output sink. The full sink writes them into the n x n
output; the rows sink, given sorted node ids `rows`, keeps only those
rows (len(rows) x n) and the bounds of the defined off-diagonal values
that normalization needs, so no n x n float64 array is allocated. A build
holds two dense tile slots, each sized for the largest span. A fill
writes the stored entries of some CSR rows into a slot after zeroing only
what the slot's last fill wrote, and every product's operands are fills
made just before it, so memory is the output, the two slots and a tile
pair's products, never a fresh tile per span nor a dense copy of the
rating matrix (the row-block scheme of Bayardo, Ma and Srikant, "Scaling
up all pairs similarity search", WWW 2007); `defined` is written after
the slots are released. pim also holds the co-rating count of every
pair, n x n in the smallest unsigned type that holds the largest degree
(2 bytes a pair at ML-1M), from which each intersection/union ratio tile
is rebuilt when it is read.
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
# h x h float64 products of a tile pair counted in a size estimate, beside
# the two tile slots: the most alive at once, in pim's activity penalty
# (two tables and two gathers) beside the num and denom of the pair and of
# its row's diagonal pair
_PRODUCTS_ALIVE = 8
# rows of the strips in which a diagonal tile's upper triangle is mirrored
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
    """Symmetric node-pair similarity over one axis of `n` nodes.

    `defined` flags pairs with a computable value; undefined entries
    (empty co-rating set, zero variance) hold +0 and never NaN. A raw
    builder derives it after its tiles, from their NaN marks.

    `values` and `defined` are n x n, or, when `rows` holds sorted node
    ids, len(rows) x n: row r is node rows[r]'s row of the whole matrix.
    """

    axis: Axis
    values: np.ndarray
    defined: np.ndarray
    normalized: bool = False
    rows: np.ndarray | None = None

    @property
    def n(self) -> int:
        """The number of nodes on the axis: the columns of `values`."""
        return self.values.shape[1]


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


class _Slot:
    """A dense tile buffer that every fill of a build reuses: room for h
    rows of m float64 entries, or of m float32 ones, all +0 but where
    the last fill wrote."""

    def __init__(self, h: int, m: int):
        self.buf, self.m, self.written = np.zeros(h * m), m, None

    def fill(self, w, span: slice, values=None, dtype=np.float64) -> np.ndarray:
        """Dense rows `span` of CSR `w` as `dtype`: `values` (by default
        the stored data) at the stored entries, +0 elsewhere. Only the
        entries that the last fill wrote are cleared first, so a fill
        costs its stored entries, not the tile's. An in-place edit of a
        fill that keeps its zeros (squaring) keeps this true."""
        self._clear()
        h, m = span.stop - span.start, self.m
        stored = _stored(w, span)
        at = np.repeat(np.arange(0, h * m, m), np.diff(w.indptr[span.start : span.stop + 1]))
        at += w.indices[stored]
        flat = self.buf.view(dtype)
        flat[at] = w.data[stored] if values is None else values
        self.written = flat, at
        return flat[: h * m].reshape(h, m)

    def _clear(self) -> None:
        """Zero what the last fill wrote, and drop its positions."""
        if self.written is not None:
            flat, at = self.written
            flat[at] = 0
        self.written = None

    def release(self) -> None:
        """Drop the buffer, freed once no filled tile refers to it."""
        self.buf = self.written = None


class _Tiles:
    """The row spans of a build over the rows of an n x m CSR, and its
    two dense tile slots, each sized for the largest span: every tile the
    build reads is a fill of one of them."""

    def __init__(self, spans: list[slice], m: int):
        h = spans[0].stop if spans else 0
        self.spans, self.slots = spans, (_Slot(h, m), _Slot(h, m))

    def release(self) -> None:
        for slot in self.slots:
            slot.release()


def _stored(w, span: slice) -> slice:
    """Where CSR rows `span` keep their entries in `w.data` and `w.indices`."""
    return slice(w.indptr[span.start], w.indptr[span.stop])


def _row_sums(w, tiles: _Tiles, square: bool = False) -> np.ndarray:
    """Sum of each dense row (of its squares if `square`), summed over
    the full row with its zeros, as `x.sum(axis=1)` sums."""
    sums = np.empty(w.shape[0])
    for rows in tiles.spans:
        data = w.data[_stored(w, rows)]
        sums[rows] = tiles.slots[0].fill(w, rows, data * data if square else None).sum(axis=1)
    return sums


def _products(w, tiles: _Tiles, dtype=np.float64, release: bool = True):
    """(b, c, x_b @ x_c.T) for every pair of tile spans with b on or
    before c, x the dense rows of CSR `w` in `dtype`. A row span's
    diagonal pair is computed first and given last: one filled tile times
    its own transpose, numpy's symmetric product, as the whole matrix
    times its transpose is computed. With `release`, the slots are
    released before the last pair is given, so that an output written
    from it can take their pages."""
    row, col = tiles.slots
    for k, b in enumerate(tiles.spans):
        xb = row.fill(w, b, dtype=dtype)
        diagonal = xb @ xb.T
        for c in tiles.spans[k + 1 :]:
            yield b, c, xb @ col.fill(w, c, dtype=dtype).T
        del xb
        if release and k == len(tiles.spans) - 1:
            tiles.release()
        yield b, b, diagonal


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


def _sink(measure: str, axis: Axis, w, rows, pair_bytes: int = 0):
    """The output sink (the whole matrix if `rows` is None, else those
    rows) and the build's tiles, after checking that the build fits in
    memory: the kept rows with their defined flags, `pair_bytes` for each
    pair of the whole matrix (pim's counts), the two tile slots and a
    tile pair's products."""
    n, m = w.shape
    spans = _spans(n, m)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        ordered = rows.ndim == 1 and (np.diff(rows) > 0).all()
        if not (ordered and (rows[:1] >= 0).all() and (rows[-1:] < n).all()):
            raise SimilarityError(f"rows must be sorted, unique ids of the {n} {axis}")
    kept = n if rows is None else len(rows)
    h = spans[0].stop if spans else 0
    _check_fits(
        f"{measure} similarity over {n} {axis}",
        (9 * kept + pair_bytes * n) * n + 8 * h * (2 * m + _PRODUCTS_ALIVE * h),
    )
    return (_Full(n) if rows is None else _Rows(n, rows)), _Tiles(spans, m)


class _Full:
    """The sink of a whole matrix: each tile pair goes into the n x n
    output. The output is allocated at the first write, so that it can
    take the pages of the temporaries freed before it: a one-tile build,
    whose first write comes after its row tiles are freed, peaks lower."""

    def __init__(self, n: int):
        self.n, self.values = n, None

    def put(self, b: slice, c: slice, tile: np.ndarray, mirror: bool = False) -> None:
        """Write the tile of pair (b, c) at [b, c] and its transpose at
        [c, b]; the tile may be overwritten. A diagonal tile is bitwise
        symmetric already when it is a function of a tile times itself
        (numpy's symmetric product) and of terms symmetric in the pair.
        Otherwise `mirror` keeps its upper triangle, mirrored below, so
        sim(a, b) == sim(b, a) bitwise (other BLAS products are symmetric
        only up to rounding). Adding a zero makes -0.0 +0.0."""
        tile += 0.0
        if self.values is None:
            self.values = np.empty((self.n, self.n))
        self.values[b, c] = tile
        if b != c:
            self.values[c, b] = tile.T
        elif mirror:
            _mirror_upper(self.values[b, b])

    def finish(self, axis: Axis, diagonal=None) -> SimilarityMatrix:
        """The raw matrix: `defined` from the NaN marks, which become +0,
        and then, if given, the diagonal `diagonal(its defined flags)`."""
        values = self.values
        defined = values == values
        _unmarked(values)
        if diagonal is not None:
            np.fill_diagonal(values, diagonal(np.diagonal(defined)))
        return SimilarityMatrix(axis=axis, values=values, defined=defined)


class _Rows:
    """The sink of the rows `rows` (sorted node ids) of a matrix that is
    normalized as it is built. Each tile pair gives the kept rows that
    fall in its spans, in its tile or its transpose, and its defined
    off-diagonal values fold into the bounds that `_normalize` takes over
    the whole matrix."""

    def __init__(self, n: int, rows: np.ndarray):
        self.rows = rows
        self.values = np.empty((len(rows), n))
        self.lo, self.hi = np.inf, -np.inf

    def put(self, b: slice, c: slice, tile: np.ndarray, mirror: bool = False) -> None:
        """The kept rows of the tile as `_Full.put` writes it; the tile is
        overwritten."""
        tile += 0.0
        if b == c and mirror:
            _mirror_upper(tile)
        rows = self.rows
        lo, hi = np.searchsorted(rows, (b.start, b.stop))
        self.values[lo:hi, c] = tile[rows[lo:hi] - b.start]
        if b == c:
            np.fill_diagonal(tile, np.nan)
        else:
            lo, hi = np.searchsorted(rows, (c.start, c.stop))
            self.values[lo:hi, b] = tile[:, rows[lo:hi] - c.start].T
        self.lo = np.fmin(self.lo, np.fmin.reduce(tile, axis=None))
        self.hi = np.fmax(self.hi, np.fmax.reduce(tile, axis=None))

    def finish(self, axis: Axis, diagonal=None) -> SimilarityMatrix:
        """The kept rows normalized as `_normalize` does the whole matrix,
        which overwrites the raw diagonal (so `diagonal` is not read)."""
        if not self.lo <= self.hi:
            raise SimilarityError("no defined off-diagonal values to normalize")
        values, rows = self.values, self.rows
        defined = values == values
        own = np.arange(len(rows)), rows
        values[own] = np.nan
        _scale(values, self.lo, self.hi)
        values[own] = 1.0
        defined[own] = True
        return SimilarityMatrix(
            axis=axis, values=values, defined=defined, normalized=True, rows=rows
        )


# ---------------------------------------------------------------------------
# Measures
#
# Each builder gives the raw n x n matrix, or, with `rows`, those rows of
# the normalized matrix (see `similarity`).


def cosine_matrix(g: "BipartiteGraph", axis: Axis, rows=None) -> SimilarityMatrix:
    """Cosine similarity over full rating vectors, missing entries as 0."""
    w, _, _, _ = _axis_rows(g, axis)
    out, tiles = _sink("cosine", axis, w, rows)
    norms = np.sqrt(_row_sums(w, tiles, square=True))
    for b, c, tile in _products(w, tiles):
        tile = _marked(tile, np.outer(norms[b], norms[c]))
        out.put(b, c, np.clip(tile, -1.0, 1.0, out=tile))
    return out.finish(axis, lambda _: np.where(norms > 0, 1.0, 0.0))


def _centred(w, span: slice, means: np.ndarray) -> np.ndarray:
    """The stored entries of CSR rows `span`, each less its row's mean."""
    centred = np.repeat(means[span], np.diff(w.indptr[span.start : span.stop + 1]))
    return np.subtract(w.data[_stored(w, span)], centred, out=centred)


def _pearson_tiles(w, a, tiles: _Tiles, deg, col_w=None):
    """For every tile pair (b, c, num, denom): `num` the co-rating sums
    of centred products (each column weighted by `col_w` if given) and
    `denom` the per-pair variance product over the co-rating set. A
    centred tile holds each rating minus its node's mean over all its
    ratings (0 where unrated); a mask tile holds the adjacency `a`, 1
    where rated even where the centred rating is 0.

    A pair has a value where denom > 0. That needs a co-rated column,
    since a centred rating is nonzero only where its node rated, so
    no co-rating count is needed to tell which pairs are defined.

    Every tile is a fill of one of the two slots, made just before the
    product that reads it, from values taken over the stored entries:
    the weighted and squared row tiles are those of the centred one, and
    an unrated entry stays +0 in each, as in the elementwise passes over
    a dense tile. Each row tile's diagonal pair is computed first and
    given last; the slots are released before the last pair is given."""
    means = _unmarked(_marked(_row_sums(w, tiles), deg.copy()))
    row, col = tiles.slots
    for k, b in enumerate(tiles.spans):
        xb = _centred(w, b, means)
        left = xb if col_w is None else xb * col_w[w.indices[_stored(w, b)]]
        sq_b = xb * xb
        d = row.fill(w, b, sq_b) @ col.fill(a, b).T
        denom = d * d.T
        del d
        if col_w is None:
            # the tile times its own transpose, as x @ x.T is computed whole
            x = row.fill(w, b, xb)
            diagonal = x @ x.T, np.sqrt(denom, out=denom)
            del x
        else:
            diagonal = row.fill(w, b, left) @ col.fill(w, b, xb).T, np.sqrt(denom, out=denom)
        for c in tiles.spans[k + 1 :]:
            xc = col.fill(w, c, _centred(w, c, means))
            num = row.fill(w, b, left) @ xc.T
            # this column tile is not used again, so it is squared in place
            sq_c = np.multiply(xc, xc, out=xc) @ row.fill(a, b).T
            del xc
            denom = row.fill(w, b, sq_b) @ col.fill(a, c).T
            denom *= sq_c.T
            del sq_c
            yield b, c, num, np.sqrt(denom, out=denom)
        if k == len(tiles.spans) - 1:
            tiles.release()
        yield (b, b, *diagonal)


def pcc_matrix(g: "BipartiteGraph", axis: Axis, rows=None) -> SimilarityMatrix:
    """Pearson similarity: sums over the co-rating set, means over all
    of each node's own ratings."""
    w, a, deg, _ = _axis_rows(g, axis)
    out, tiles = _sink("pcc", axis, w, rows)
    for b, c, num, denom in _pearson_tiles(w, a, tiles, deg):
        out.put(b, c, np.clip(_marked(num, denom), -1.0, 1.0, out=num))
    return out.finish(axis, lambda defined: np.where(defined, 1.0, 0.0))


def _count_type(deg: np.ndarray) -> np.dtype:
    """The smallest unsigned type that holds every co-rating count."""
    return np.min_scalar_type(int(deg.max()))


def _co_counts(a, tiles: _Tiles, deg) -> np.ndarray:
    """Each node pair's co-rating count, n x n in `_count_type(deg)`, from
    the 0/1 adjacency rows `a`. The tiles are kept for a later pass."""
    # the mask product runs in float32, about a third faster than float64
    # at ML-1M; its counts, at most the larger degree, are exact up to 2**24
    if deg.max() > _FLOAT32_EXACT:
        raise SimilarityError(
            f"a node has {deg.max():,.0f} ratings, more than the {_FLOAT32_EXACT:,} "
            f"whose co-rating counts are exact in float32"
        )
    counts = np.empty((len(deg), len(deg)), _count_type(deg))
    for b, c, tile in _products(a, tiles, np.float32, release=False):
        counts[b, c] = tile
        if b != c:
            counts[c, b] = tile.T
    return counts


def _ratios(counts: np.ndarray, deg: np.ndarray, b: slice, c: slice) -> np.ndarray:
    """The intersection/union ratio of the rating sets of each pair of
    tile (b, c), in float64 from the counts; 0 where the union is empty."""
    inter = counts[b, c].astype(np.float64)
    union = deg[b, None] + deg[None, c]
    union -= inter
    return _unmarked(_marked(inter, union))


# numpy's pairwise summation adds a run of at most this many values in one
# unrolled loop, and halves a longer one (PW_BLOCKSIZE in its loops)
_PAIRWISE_RUN = 128


def _mean_ratio(counts: np.ndarray, deg: np.ndarray) -> float:
    """AR, the mean ratio over all unordered distinct node pairs, with the
    bits of (R.sum() - trace(R)) / 2 over the pair count, R the dense
    n x n ratio matrix in row-major order.

    numpy sums a contiguous array pairwise: it halves a run longer than
    _PAIRWISE_RUN into a first part of a multiple of 8 values and the
    rest. The halving is replayed here down to runs of at most one tile's
    values; each such run is rebuilt from the counts and summed by numpy,
    so R is never whole."""
    n = counts.shape[0]
    if n < 2:
        raise SimilarityError("need at least 2 nodes to average pair ratios")
    leaf = max(_TILE_BYTES // 8, _PAIRWISE_RUN)

    def total(lo: int, size: int):
        if size > leaf:
            half = size // 2
            half -= half % 8
            return total(lo, half) + total(lo + half, size - half)
        first, last = lo // n, (lo + size - 1) // n + 1  # the rows of R the run spans
        run = _ratios(counts, deg, slice(first, last), slice(0, n)).reshape(-1)
        return run[lo - first * n : lo - first * n + size].sum()

    inter = np.diagonal(counts).astype(np.float64)
    trace = _unmarked(_marked(inter, deg + deg - inter)).sum()
    return float((total(0, n * n) - trace) / 2.0 / (n * (n - 1) / 2.0))


def pim_matrix(
    g: "BipartiteGraph", axis: Axis, penalty_variant: PenaltyVariant = "pair-max", rows=None
) -> SimilarityMatrix:
    """Corrected Pearson similarity.

    Three corrections on top of the Pearson core: a log reward/penalty on
    the co-rating intersection/union ratio relative to its axis mean AR,
    a per-column popularity down-weighting 1/log(1 + column degree), and
    an activity penalty 1/(1 + e^x) driven by the node degrees.
    penalty_variant picks the numerator of x: 'pair-max' the larger of
    the two node degrees, 'global-max' the maximum degree on the axis.
    AR = 0 (no two nodes co-rate) is a SimilarityError.

    Two passes over the tile pairs: the first counts each pair's
    co-ratings, from which AR is taken; the second rebuilds each tile's
    ratios from the counts and gives its similarities.
    """
    if penalty_variant not in get_args(PenaltyVariant):
        raise SimilarityError(f"unknown penalty variant {penalty_variant!r}")
    w, a, deg, other_deg = _axis_rows(g, axis)
    out, tiles = _sink("pim", axis, w, rows, _count_type(deg).itemsize)
    counts = _co_counts(a, tiles, deg)
    ar = _mean_ratio(counts, deg)
    if ar <= 0:
        raise SimilarityError(f"no two {axis} co-rate, so the mean co-rating ratio is 0")

    log_deg = np.log1p(other_deg)
    col_w = _unmarked(_marked(np.full_like(log_deg, np.log(LOG_BASE_POPULARITY)), log_deg))
    deg_max = None if penalty_variant == "pair-max" else deg.max()
    for b, c, num, denom in _pearson_tiles(w, a, tiles, deg, col_w):
        reward = _ratios(counts, deg, b, c)
        reward /= ar
        num *= np.log1p(reward, out=reward)
        del reward
        # a positive penalty keeps denom > 0 where it was
        denom *= _activity_penalty(deg[b], deg[c], deg_max)
        # a diagonal num is the column-weighted tile times the plain one
        out.put(b, c, _marked(num, denom), mirror=True)
    del counts  # before `finish` allocates the flags
    return out.finish(axis)


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
    g: "BipartiteGraph",
    measure: str,
    axis: Axis,
    penalty_variant: PenaltyVariant = "pair-max",
    rows=None,
) -> SimilarityMatrix:
    """Normalized similarity of one of MEASURES over one axis;
    penalty_variant applies to pim only.

    With `rows`, sorted unique node ids, the matrix holds only those rows
    (SimilarityMatrix.rows), bitwise the same rows of the whole normalized
    matrix, which is never held: every tile pair is still computed, for
    the bounds that normalization takes over all defined pairs."""
    if measure == "cosine":
        m = cosine_matrix(g, axis, rows)
    elif measure == "pcc":
        m = pcc_matrix(g, axis, rows)
    elif measure == "pim":
        m = pim_matrix(g, axis, penalty_variant, rows)
    else:
        raise SimilarityError(f"unknown similarity measure {measure!r}")
    return _normalize(m) if rows is None else m


def _normalize(m: SimilarityMatrix) -> SimilarityMatrix:
    """Min-max normalize defined off-diagonal values to [0, 1], overwriting
    m's arrays one block of rows at a time.

    Undefined entries map to 0, the diagonal to 1. If every defined
    off-diagonal value is equal, they all map to 0.5.

    Every pass is plain in-place arithmetic. The first marks each
    undefined or diagonal entry NaN (a value times its 0/1 flag, over
    the flag, is itself or 0/0) and takes the bounds with NaN-ignoring
    reductions. The second scales (`_scale`).
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
        _scale(values[rows], lo, hi)
    np.fill_diagonal(values, 1.0)
    np.fill_diagonal(defined, True)
    return SimilarityMatrix(axis=m.axis, values=values, defined=defined, normalized=True)


def _scale(v: np.ndarray, lo, hi) -> None:
    """Map v from [lo, hi] onto [0, 1] in place, or every value to 0.5 if
    hi == lo; fmax(v, 0) maps a NaN mark to +0. A scaled value is never
    below +0, since v >= lo."""
    if hi > lo:
        v -= lo
        v /= hi - lo
    else:
        v *= 0.0
        v += 0.5
    np.fmax(v, 0.0, out=v)
