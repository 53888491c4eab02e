"""Immutable rating-weighted bipartite graph with an item-similarity attachment point."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from diffrec.corpus import RatingDataset, RatingScale
from diffrec.simkit import SimilarityMatrix


class GraphError(ValueError):
    """Raised for invalid graph construction or attachment."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Dual-orientation sparse user-item graph with rating edge weights.

    `weights` is users x items CSR; `weights_t` the items x users CSC view
    re-packed as CSR so both orientations iterate in sorted id order.
    An attached item similarity matrix stands in for item self-connections:
    it carries item-to-item similarity into walk-based recommenders without
    altering the walk topology.
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
    item_sim: SimilarityMatrix | None = None

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
    a = w.copy()
    a.data = np.ones_like(a.data)
    at = wt.copy()
    at.data = np.ones_like(at.data)
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


def attach_similarity(g: BipartiteGraph, item_sim: SimilarityMatrix) -> BipartiteGraph:
    """Return a graph carrying a read-only item similarity matrix.

    Self-similarity is forced to 1 on the attached copy.
    """
    if item_sim.axis != "items":
        raise GraphError(f"expected items-axis similarity, got {item_sim.axis}")
    if item_sim.values.shape != (g.n_items, g.n_items):
        raise GraphError(
            f"similarity dimension {item_sim.values.shape} does not match items count {g.n_items}"
        )
    if not item_sim.normalized:
        raise GraphError("attached similarity must be normalized to [0, 1]")
    values = item_sim.values.copy()
    np.fill_diagonal(values, 1.0)
    defined = item_sim.defined.copy()
    np.fill_diagonal(defined, True)
    sim = SimilarityMatrix(axis="items", values=values, defined=defined, normalized=True)
    return replace(g, item_sim=sim)
