"""Similarity measures over either graph axis: cosine, Pearson, and the
co-rating/activity/popularity-corrected Pearson variant, plus min-max
normalization and nearest-neighbor extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

if TYPE_CHECKING:
    from diffrec.bigraph import BipartiteGraph

Axis = Literal["users", "items"]
PenaltyVariant = Literal["pair-max", "global-max"]


def _mirror(values: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower so sim(a,b) == sim(b,a)
    bitwise (BLAS products are only symmetric up to rounding)."""
    upper = np.triu(values)
    return upper + np.triu(values, 1).T


class SimilarityError(ValueError):
    pass


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric node-pair similarity over one axis.

    `defined` flags pairs with a computable value; undefined entries
    (empty co-rating set, zero variance) hold 0 and never NaN.
    """

    axis: Axis
    values: np.ndarray
    defined: np.ndarray
    normalized: bool = False

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PimConfig:
    """Settings for the corrected-Pearson measure.

    penalty_variant picks the activity-penalty exponent numerator:
    'pair-max' uses max of the two node degrees, 'global-max' the maximum
    degree on the axis. `ar` is the precomputed mean co-rating ratio for
    the axis; `log_base_popularity` is the base of the popularity
    down-weighting logarithm.
    """

    ar: float
    penalty_variant: PenaltyVariant = "pair-max"
    log_base_popularity: float = 10.0


def _axis_vectors(g: "BipartiteGraph", axis: Axis):
    """Rows = axis nodes, columns = the opposite side; returns
    (dense weight matrix, dense 0/1 mask, node degrees, opposite-side degrees)."""
    if axis == "users":
        w = g.weights
        deg = g.user_degree
        other_deg = g.item_degree
    elif axis == "items":
        w = g.weights_t
        deg = g.item_degree
        other_deg = g.user_degree
    else:
        raise SimilarityError(f"unknown axis {axis!r}")
    dense = np.asarray(w.todense(), dtype=np.float64)
    mask = (dense != 0).astype(np.float64)
    return dense, mask, deg.astype(np.float64), other_deg.astype(np.float64)


def cosine_matrix(g: "BipartiteGraph", axis: Axis) -> SimilarityMatrix:
    """Cosine similarity over full rating vectors, missing entries as 0."""
    x, _, deg, _ = _axis_vectors(g, axis)
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


def _centered(g: "BipartiteGraph", axis: Axis):
    x, mask, deg, other_deg = _axis_vectors(g, axis)
    sums = x.sum(axis=1)
    means = np.divide(sums, deg, out=np.zeros_like(sums), where=deg > 0)
    xc = (x - means[:, None]) * mask
    return x, mask, xc, deg, other_deg


def pcc_matrix(g: "BipartiteGraph", axis: Axis) -> SimilarityMatrix:
    """Pearson similarity: sums over the co-rating set, means over all
    of each node's own ratings."""
    _, mask, xc, _, _ = _centered(g, axis)
    num = xc @ xc.T
    sq = xc * xc
    # per-pair variance terms restricted to the co-rating set
    d = sq @ mask.T
    denom = np.sqrt(d * d.T)
    cri = mask @ mask.T
    defined = (cri > 0) & (denom > 0)
    values = np.zeros_like(num)
    np.divide(num, denom, out=values, where=defined)
    np.clip(values, -1.0, 1.0, out=values)
    values = _mirror(values)
    defined = defined & defined.T
    self_def = np.diag(defined).copy()
    np.fill_diagonal(values, np.where(self_def, 1.0, 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def average_cri_ratio(g: "BipartiteGraph", axis: Axis) -> float:
    """Mean intersection/union ratio of rating sets over all unordered
    distinct node pairs; empty-union pairs contribute 0."""
    _, mask, deg, _ = _axis_vectors(g, axis)
    n = mask.shape[0]
    if n < 2:
        raise SimilarityError("need at least 2 nodes to average pair ratios")
    inter = mask @ mask.T
    union = deg[:, None] + deg[None, :] - inter
    ratio = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    total = (ratio.sum() - np.trace(ratio)) / 2.0
    return float(total / (n * (n - 1) / 2.0))


def pim_matrix(g: "BipartiteGraph", axis: Axis, cfg: PimConfig) -> SimilarityMatrix:
    """Corrected Pearson similarity.

    Three corrections on top of the Pearson core: a log reward/penalty on
    the co-rating intersection/union ratio relative to the axis mean `ar`,
    a per-column popularity down-weighting 1/log(1 + column degree), and
    an activity penalty 1/(1 + e^x) driven by the node degrees.
    """
    if cfg.ar <= 0:
        raise SimilarityError(f"ar must be > 0, got {cfg.ar}")
    _, mask, xc, deg, other_deg = _centered(g, axis)

    logb = np.log(cfg.log_base_popularity)
    col_w = np.zeros_like(other_deg)
    pos = other_deg > 0
    col_w[pos] = logb / np.log1p(other_deg[pos])
    num = (xc * col_w[None, :]) @ xc.T

    sq = xc * xc
    d = sq @ mask.T
    denom = np.sqrt(d * d.T)

    inter = mask @ mask.T
    union = deg[:, None] + deg[None, :] - inter
    ratio = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    ln_factor = np.log1p(ratio / cfg.ar)

    deg_sum = deg[:, None] + deg[None, :]
    if cfg.penalty_variant == "pair-max":
        top = np.maximum(deg[:, None], deg[None, :])
    elif cfg.penalty_variant == "global-max":
        top = np.full_like(deg_sum, deg.max())
    else:
        raise SimilarityError(f"unknown penalty variant {cfg.penalty_variant!r}")
    x_pen = np.divide(top, deg_sum, out=np.zeros_like(deg_sum), where=deg_sum > 0)
    penalty = 1.0 + np.exp(x_pen)

    defined = (inter > 0) & (denom > 0)
    defined &= defined.T
    values = np.zeros_like(num)
    np.divide(ln_factor * num, denom * penalty, out=values, where=defined)
    values = _mirror(values)
    self_def = np.diag(defined).copy()
    np.fill_diagonal(values, np.where(self_def, np.diag(values), 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def normalize(m: SimilarityMatrix) -> SimilarityMatrix:
    """Min-max normalize defined off-diagonal values to [0, 1].

    Undefined entries map to 0, the diagonal to 1. If every defined
    off-diagonal value is equal, they all map to 0.5.
    """
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


def top_k_neighbors(m: SimilarityMatrix, node: int, k: int) -> list[tuple[int, float]]:
    """k most similar defined neighbors, descending similarity, ties by id."""
    if k < 1:
        raise SimilarityError(f"k must be >= 1, got {k}")
    row = m.values[node]
    ok = m.defined[node].copy()
    ok[node] = False
    ids = np.flatnonzero(ok)
    order = np.lexsort((ids, -row[ids]))
    chosen = ids[order[:k]]
    return [(int(j), float(row[j])) for j in chosen]
