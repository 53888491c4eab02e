"""Bipartite-network recommendation toolkit.

Rating-data handling, bipartite graph construction, similarity measures
(cosine, Pearson, and an improved Pearson with co-rating and popularity
corrections), several recommenders (kNN CF, mass diffusion, matrix
factorization, and a similarity-guided resource-allocation walk), and an
evaluation harness covering accuracy, coverage, diversity, and novelty.
"""

from diffrec.corpus import (
    FilterSpec,
    FoldPair,
    RatingDataset,
    RatingScale,
    dataset_stats,
    filter_dataset,
    kfold_split,
    load_ratings,
)
from diffrec.bigraph import BipartiteGraph, build_graph
from diffrec.simkit import (
    SimilarityMatrix,
    cosine_matrix,
    pcc_matrix,
    pim_matrix,
)
from diffrec.recommend import (
    MfConfig,
    PimraScorer,
    RecommendationList,
    md_scores,
    rank,
    train_mf,
)

__all__ = [
    "BipartiteGraph",
    "FilterSpec",
    "FoldPair",
    "MfConfig",
    "PimraScorer",
    "RatingDataset",
    "RatingScale",
    "RecommendationList",
    "SimilarityMatrix",
    "build_graph",
    "cosine_matrix",
    "dataset_stats",
    "filter_dataset",
    "kfold_split",
    "load_ratings",
    "md_scores",
    "pcc_matrix",
    "pim_matrix",
    "rank",
    "train_mf",
]

__version__ = "0.1.0"
