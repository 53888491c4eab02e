import csv
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from diffrec import bigraph, corpus, simkit
from diffrec.harness import HarnessError

import oracles


# Property tests run without a per-example deadline: wall time on a shared
# host swings several-fold, and a slow example is not a failing one.
settings.register_profile("diffrec", deadline=None)
settings.load_profile("diffrec")


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


def cri_ratios(g, axis):
    """(pair ratio matrix, AR) over one axis, from the co-rating counts
    that pim_matrix keeps (simkit._co_counts), at the tile size in force,
    after pim's memory check."""
    w, a, deg, _ = simkit._axis_rows(g, axis)
    _, spans = simkit._sink("pim", axis, w, None, simkit._count_type(deg).itemsize)
    counts = simkit._co_counts(a, spans, deg)
    whole = slice(0, len(deg))
    return simkit._ratios(counts, deg, whole, whole), simkit._mean_ratio(counts, deg)


def average_cri_ratio(g, axis):
    return cri_ratios(g, axis)[1]


@pytest.fixture
def fix4():
    return oracles.from_triples(FIX4_TRIPLES, corpus.RatingScale(1, 5, 1))


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
    return oracles.from_triples(triples, scale)


def with_full_user(ds):
    """`random_dataset`'s ds and one more user, who rated every item 3."""
    rated = list(ds.triples()) + [(ds.n_users, i, 3.0) for i in range(ds.n_items)]
    return oracles.from_triples([(f"u{u}", f"i{i}", r) for u, i, r in rated], ds.scale)


def random_ranking(seed, n_users, n_items, density, full_user=False):
    """(graph, users x items scores, likes) for ranking properties.

    Scores come from a few values, -inf among them and 0.0 next to -0.0,
    so ties are common, at the list-length boundary too; likes may name
    seen items. With `full_user`, one more user has rated every item.
    """
    ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
    if full_user:
        ds = with_full_user(ds)
    g = bigraph.build_graph(ds)
    rng = np.random.default_rng(seed)
    values = [-np.inf, -1.5, -0.0, 0.0, 0.25, 0.25 + 2**-50, 3.0]
    scores = rng.choice(values, size=(g.n_users, g.n_items))
    likes = {
        u: set(rng.choice(g.n_items, size=rng.integers(0, g.n_items + 1), replace=False).tolist())
        for u in range(g.n_users)
        if rng.random() < 0.8
    }
    return g, scores, likes


def pimra_scores(scorer, users, theta):
    """PIM+RA score rows of `users` under theta: the walk over the penalty."""
    return scorer.walk(users) / scorer.penalty(theta)


def report_mean(report, method, metric, theta=None):
    """Mean of a report's defined values for (method, metric), over every
    row (per-fold and mean rows alike), at `theta` if given."""
    vals = [
        r.value
        for r in report.rows
        if r.method == method
        and r.metric == metric
        and r.value is not None
        and (theta is None or r.theta == theta)
    ]
    if not vals:
        raise HarnessError(f"no values for ({method}, {metric})")
    return float(np.mean(vals))


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
