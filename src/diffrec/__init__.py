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
    average_cri_ratio,
    cosine_matrix,
    normalize,
    pcc_matrix,
    pim_matrix,
)
from diffrec.recommend import (
    MfConfig,
    RaConfig,
    RecommendationList,
    recommend_knn_cf,
    recommend_md,
    recommend_pimra,
    train_mf,
)

__all__ = [
    "BipartiteGraph",
    "FilterSpec",
    "FoldPair",
    "MfConfig",
    "RaConfig",
    "RatingDataset",
    "RatingScale",
    "RecommendationList",
    "SimilarityMatrix",
    "average_cri_ratio",
    "build_graph",
    "cosine_matrix",
    "dataset_stats",
    "filter_dataset",
    "kfold_split",
    "load_ratings",
    "normalize",
    "pcc_matrix",
    "pim_matrix",
    "recommend_knn_cf",
    "recommend_md",
    "recommend_pimra",
    "train_mf",
]

__version__ = "0.1.0"
