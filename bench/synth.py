"""Seeded synthetic rating corpora for the benchmark.

Users get Pareto-distributed degrees, items Pareto-distributed
popularity weights; each user rates a distinct set of items drawn with
probability proportional to item weight. Degrees and weights are the
distribution's quantiles in a seeded order, so every seed of a shape has
the same degree profile and about the same work; the seed decides who
has which degree, which items each user rates, and the ratings. Ratings are uniform on 1..5,
no (user, item) pair repeats, and every user and item appears. The same
(shape, seed) always yields the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    users: int
    items: int
    ratings: int
    min_user_degree: int
    max_user_degree: int
    max_item_weight: float


# The bounded Pareto tails keep a seed's total work close to every other
# seed's, so run-to-run spread measures the machine, not the corpus.
SHAPES = {
    "small": Shape(60, 150, 450, 4, 40, 60.0),
    "medium": Shape(120, 220, 3_000, 8, 120, 60.0),
    "large": Shape(300, 540, 10_000, 10, 250, 60.0),
    "ml1m": Shape(6040, 3706, 1_000_000, 20, 2000, 60.0),
}

_PARETO_ALPHA = 1.5
_USER_BLOCK = 256


def _pareto_quantiles(rng: np.random.Generator, n: int) -> np.ndarray:
    """The n evenly spaced quantiles of Pareto(alpha, x_m=1), shuffled."""
    q = (np.arange(n) + 0.5) / n
    return rng.permutation((1.0 - q) ** (-1.0 / _PARETO_ALPHA))


def _user_degrees(rng: np.random.Generator, s: Shape) -> np.ndarray:
    w = _pareto_quantiles(rng, s.users)
    d = np.round(w * (s.ratings / w.sum())).astype(np.int64)
    d = np.clip(d, s.min_user_degree, s.max_user_degree)
    while (diff := s.ratings - int(d.sum())) != 0:
        room = np.flatnonzero(d < s.max_user_degree if diff > 0 else d > s.min_user_degree)
        pick = rng.choice(room, size=min(abs(diff), len(room)), replace=False)
        d[pick] += 1 if diff > 0 else -1
    return d


def generate(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(user ids, item ids, ratings) in file order, 0-based ids."""
    rng = np.random.default_rng([seed, shape.users, shape.items, shape.ratings])
    degrees = _user_degrees(rng, shape)
    item_w = np.minimum(_pareto_quantiles(rng, shape.items), shape.max_item_weight)
    users, items = [], []
    # Efraimidis-Spirakis: the d largest keys log(U)/w are a weighted
    # sample of d distinct items.
    for lo in range(0, shape.users, _USER_BLOCK):
        hi = min(lo + _USER_BLOCK, shape.users)
        keys = np.log(rng.random((hi - lo, shape.items))) / item_w
        order = np.argsort(-keys, axis=1, kind="stable")
        take = np.arange(shape.items)[None, :] < degrees[lo:hi, None]
        rows, cols = np.nonzero(take)
        users.append(rows + lo)
        items.append(order[rows, cols])
    users = np.concatenate(users)
    items = np.concatenate(items)
    missing = np.setdiff1d(np.arange(shape.items), items)
    users = np.concatenate([users, rng.integers(0, shape.users, len(missing))])
    items = np.concatenate([items, missing])
    ratings = rng.integers(1, 6, len(users))
    perm = rng.permutation(len(users))
    return users[perm], items[perm], ratings[perm]


def write_csv(path: Path, users: np.ndarray, items: np.ndarray, ratings: np.ndarray) -> None:
    """Write generic-csv (user,item,rating) with labels u<id+1>, i<id+1>."""
    lines = [
        f"u{u},i{i},{r}"
        for u, i, r in zip((users + 1).tolist(), (items + 1).tolist(), ratings.tolist())
    ]
    tmp = Path(f"{path}.tmp")
    tmp.write_text("user,item,rating\n" + "\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)


def corpus_file(cache_dir: Path, shape_name: str, seed: int) -> Path:
    """Path of the generic-csv corpus for (shape, seed), generated on first use."""
    path = cache_dir / f"{shape_name}-seed{seed}.csv"
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        write_csv(path, *generate(SHAPES[shape_name], seed))
    return path

