"""Bipartite-network recommendation toolkit.

Rating-data handling, bipartite graph construction, similarity measures
(cosine, Pearson, and an improved Pearson with co-rating and popularity
corrections), several recommenders (kNN CF, mass diffusion, matrix
factorization, and a similarity-guided resource-allocation walk), and an
evaluation harness covering accuracy, coverage, diversity, and novelty.

The modules are the API: `from diffrec import corpus, simkit`, and so on.
"""

__version__ = "0.1.0"
