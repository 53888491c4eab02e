"""Similarity measures over either graph axis: cosine, Pearson, and the
co-rating/activity/popularity-corrected Pearson variant, plus min-max
normalization and one entry point choosing among them."""

from __future__ import annotations

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


def _pearson_core(g: "BipartiteGraph", axis: Axis):
    """Centered ratings and the Pearson terms shared by pcc and pim.

    Returns (xc, deg, other_deg, denom, inter, defined): `xc` holds each
    rating minus its node's mean rating (0 where unrated), `denom` the
    per-pair variance product over the co-rating set, `inter` the
    co-rating counts and `defined` the pairs with a computable value.
    """
    x, mask, deg, other_deg = _axis_vectors(g, axis)
    sums = x.sum(axis=1)
    means = np.divide(sums, deg, out=np.zeros_like(sums), where=deg > 0)
    xc = (x - means[:, None]) * mask
    del x
    # per-pair variance terms restricted to the co-rating set
    d = (xc * xc) @ mask.T
    denom = np.sqrt(d * d.T)
    del d
    inter = mask @ mask.T
    defined = (inter > 0) & (denom > 0)
    defined &= defined.T
    return xc, deg, other_deg, denom, inter, defined


def pcc_matrix(g: "BipartiteGraph", axis: Axis) -> SimilarityMatrix:
    """Pearson similarity: sums over the co-rating set, means over all
    of each node's own ratings."""
    xc, _, _, denom, _, defined = _pearson_core(g, axis)
    num = xc @ xc.T
    del xc
    values = np.zeros_like(num)
    np.divide(num, denom, out=values, where=defined)
    np.clip(values, -1.0, 1.0, out=values)
    values = _mirror(values)
    np.fill_diagonal(values, np.where(np.diag(defined), 1.0, 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


def _cri_ratio(inter: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-pair intersection/union ratio of rating sets and its mean over
    all unordered distinct node pairs (AR); empty-union pairs count 0."""
    n = inter.shape[0]
    if n < 2:
        raise SimilarityError("need at least 2 nodes to average pair ratios")
    union = deg[:, None] + deg[None, :] - inter
    ratio = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    total = (ratio.sum() - np.trace(ratio)) / 2.0
    return ratio, float(total / (n * (n - 1) / 2.0))


def average_cri_ratio(g: "BipartiteGraph", axis: Axis) -> float:
    """AR: the mean intersection/union ratio of rating sets over all
    unordered distinct node pairs; empty-union pairs contribute 0."""
    _, mask, deg, _ = _axis_vectors(g, axis)
    return _cri_ratio(mask @ mask.T, deg)[1]


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
    """
    if penalty_variant not in get_args(PenaltyVariant):
        raise SimilarityError(f"unknown penalty variant {penalty_variant!r}")
    xc, deg, other_deg, denom, inter, defined = _pearson_core(g, axis)

    col_w = np.zeros_like(other_deg)
    pos = other_deg > 0
    col_w[pos] = np.log(LOG_BASE_POPULARITY) / np.log1p(other_deg[pos])
    num = (xc * col_w[None, :]) @ xc.T
    del xc

    ratio, ar = _cri_ratio(inter, deg)
    del inter
    if ar <= 0:
        raise SimilarityError(f"no two {axis} co-rate, so the mean co-rating ratio is 0")
    num *= np.log1p(ratio / ar)
    del ratio

    deg_sum = deg[:, None] + deg[None, :]
    if penalty_variant == "pair-max":
        top = np.maximum(deg[:, None], deg[None, :])
    else:
        top = np.full_like(deg_sum, deg.max())
    x_pen = np.divide(top, deg_sum, out=np.zeros_like(deg_sum), where=deg_sum > 0)
    del top, deg_sum
    denom *= 1.0 + np.exp(x_pen)
    del x_pen

    values = np.zeros_like(num)
    np.divide(num, denom, out=values, where=defined)
    values = _mirror(values)
    np.fill_diagonal(values, np.where(np.diag(defined), np.diag(values), 0.0))
    return SimilarityMatrix(axis=axis, values=values, defined=defined)


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
    return normalize(raw)


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
