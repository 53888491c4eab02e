import csv
import os
from pathlib import Path

import numpy as np
import pytest

from diffrec import bigraph, corpus


# The canonical 4-user / 4-item oracle fixture on a [1,5,1] scale.
FIX4_TRIPLES = (
    ("u1", "i1", 5),
    ("u1", "i3", 3),
    ("u1", "i4", 2),
    ("u2", "i2", 4),
    ("u2", "i3", 3),
    ("u3", "i1", 4),
    ("u3", "i3", 1),
    ("u3", "i4", 2),
    ("u4", "i2", 3),
    ("u4", "i4", 5),
)


@pytest.fixture
def fix4():
    return corpus.from_triples(FIX4_TRIPLES, corpus.RatingScale(1, 5, 1))


@pytest.fixture
def fix4_graph(fix4):
    return bigraph.build_graph(fix4)


@pytest.fixture
def uid(fix4):
    return {label: n for n, label in enumerate(fix4.user_labels)}


@pytest.fixture
def iid(fix4):
    return {label: n for n, label in enumerate(fix4.item_labels)}


def random_dataset(seed, n_users=6, n_items=6, density=0.5, scale=None):
    """Random grid-rating dataset with at least one rating per user/item."""
    scale = scale or corpus.RatingScale(1, 5, 1)
    rng = np.random.default_rng(seed)
    grid = np.arange(scale.min, scale.max + scale.step / 2, scale.step)
    triples = []
    for u in range(n_users):
        items = rng.permutation(n_items)
        count = max(1, int(rng.binomial(n_items, density)))
        for i in items[:count]:
            triples.append((f"u{u}", f"i{i}", float(rng.choice(grid))))
    rated_items = {t[1] for t in triples}
    for i in range(n_items):
        if f"i{i}" not in rated_items:
            u = int(rng.integers(n_users))
            triples.append((f"u{u}", f"i{i}", float(rng.choice(grid))))
    return corpus.from_triples(triples, scale)


def dump_csv(g, path):
    """Edge list dump (user,item,weight) of a graph, sorted by (user, item)."""
    coo = g.weights.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "item", "weight"])
        for n in order:
            writer.writerow([int(coo.row[n]), int(coo.col[n]), float(coo.data[n])])


def ml100k_path():
    """Location of the real ML-100K u.data file, if supplied."""
    for candidate in (
        os.environ.get("ML100K_PATH"),
        "data/ml-100k/u.data",
        str(Path(__file__).resolve().parent.parent / "data" / "ml-100k" / "u.data"),
    ):
        if candidate and Path(candidate).is_file():
            return Path(candidate)
    return None


requires_ml100k = pytest.mark.skipif(
    ml100k_path() is None,
    reason="ML-100K u.data not available (set ML100K_PATH to run)",
)
