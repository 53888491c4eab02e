"""Immutable rating-weighted bipartite graph."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from diffrec.corpus import RatingDataset, RatingScale


class GraphError(ValueError):
    """Raised for invalid graph construction."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Dual-orientation sparse user-item graph with rating edge weights.

    `weights` is users x items CSR; `weights_t` the items x users CSC view
    re-packed as CSR so both orientations iterate in sorted id order.
    `adjacency` and `adjacency_t` are their 0/1 patterns: each shares its
    orientation's `indices` and `indptr`, and both take their values from
    one stored 1.0 (a zero-stride view). Those arrays are read-only, so an
    in-place edit raises instead of changing the weights' structure; edit
    a copy.
    """

    n_users: int
    n_items: int
    weights: sp.csr_matrix
    weights_t: sp.csr_matrix
    adjacency: sp.csr_matrix
    adjacency_t: sp.csr_matrix
    user_degree: np.ndarray
    item_degree: np.ndarray
    user_weight_sum: np.ndarray
    item_weight_sum: np.ndarray
    scale: RatingScale

    @property
    def n_links(self) -> int:
        return int(self.weights.nnz)

    def user_items(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Items rated by user u with edge weights, sorted by item id."""
        row = self.weights
        lo, hi = row.indptr[u], row.indptr[u + 1]
        return row.indices[lo:hi], row.data[lo:hi]

    def item_users(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Users who rated item i with edge weights, sorted by user id."""
        row = self.weights_t
        lo, hi = row.indptr[i], row.indptr[i + 1]
        return row.indices[lo:hi], row.data[lo:hi]


def build_graph(train: RatingDataset) -> BipartiteGraph:
    """Build the weighted graph from a training dataset.

    Edge weights are the ratings; a rating of exactly 0 (possible on
    scales starting at 0) is clamped to one scale step so the edge still
    conducts resource in weight-normalized walks.
    """
    if train.n_links == 0:
        raise GraphError("cannot build a graph from an empty dataset")
    weights = train.ratings.copy()
    weights[weights == 0.0] = train.scale.step
    shape = (train.n_users, train.n_items)
    w = sp.csr_matrix((weights, (train.users, train.items)), shape=shape)
    w.sort_indices()
    wt = w.T.tocsr()
    wt.sort_indices()
    # scipy copies the zero-stride ones into a contiguous array for each
    # sparse product that reads them, and frees the copy after it
    ones = np.broadcast_to(np.ones(1, w.dtype), w.data.shape)
    for arr in (w.indices, w.indptr, wt.indices, wt.indptr):
        arr.flags.writeable = False
    a = sp.csr_matrix((ones, w.indices, w.indptr), shape=shape, copy=False)
    at = sp.csr_matrix((ones, wt.indices, wt.indptr), shape=shape[::-1], copy=False)
    return BipartiteGraph(
        n_users=train.n_users,
        n_items=train.n_items,
        weights=w,
        weights_t=wt,
        adjacency=a,
        adjacency_t=at,
        user_degree=np.diff(w.indptr).astype(np.int64),
        item_degree=np.diff(wt.indptr).astype(np.int64),
        user_weight_sum=np.asarray(w.sum(axis=1)).ravel(),
        item_weight_sum=np.asarray(wt.sum(axis=1)).ravel(),
        scale=train.scale,
    )
