"""Rating dataset loading, validation, filtering, splitting, and statistics."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class CorpusError(ValueError):
    """Raised for malformed input data or invalid dataset operations."""


@dataclass(frozen=True)
class RatingScale:
    """Discrete rating grid [min, max] with a fixed step."""

    min: float
    max: float
    step: float

    def __post_init__(self):
        if not self.min < self.max:
            raise CorpusError(f"scale min must be < max, got [{self.min}, {self.max}]")
        if self.step <= 0:
            raise CorpusError(f"scale step must be > 0, got {self.step}")
        span = (self.max - self.min) / self.step
        if abs(span - round(span)) > 1e-9:
            raise CorpusError(
                f"scale span {self.max - self.min} is not a multiple of step {self.step}"
            )

    def on_grid(self, rating: float) -> bool:
        if rating < self.min - 1e-9 or rating > self.max + 1e-9:
            return False
        k = (rating - self.min) / self.step
        return abs(k - round(k)) < 1e-6

    @property
    def midpoint(self) -> float:
        return (self.min + self.max) / 2.0

    @property
    def range(self) -> float:
        return self.max - self.min


@dataclass(frozen=True)
class RatingDataset:
    """Immutable multiset of (user, item, rating[, timestamp]) triples.

    Users and items carry dense integer ids; the original external labels
    are kept for output. Splitting a dataset preserves the parent's label
    space so that train/test halves stay mutually addressable.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    scale: RatingScale
    user_labels: tuple[str, ...]
    item_labels: tuple[str, ...]
    timestamps: np.ndarray | None = None

    @property
    def n_users(self) -> int:
        return len(self.user_labels)

    @property
    def n_items(self) -> int:
        return len(self.item_labels)

    @property
    def n_links(self) -> int:
        return len(self.ratings)

    def triples(self):
        """Iterate (dense user id, dense item id, rating)."""
        return zip(self.users.tolist(), self.items.tolist(), self.ratings.tolist())

    def subset(self, index: np.ndarray) -> "RatingDataset":
        """Row subset sharing this dataset's label space."""
        ts = self.timestamps[index] if self.timestamps is not None else None
        return RatingDataset(
            users=self.users[index],
            items=self.items[index],
            ratings=self.ratings[index],
            scale=self.scale,
            user_labels=self.user_labels,
            item_labels=self.item_labels,
            timestamps=ts,
        )


@dataclass(frozen=True)
class FoldPair:
    train: RatingDataset
    test: RatingDataset


@dataclass(frozen=True)
class DatasetStats:
    users: int
    items: int
    links: int
    sparsity: float


@dataclass(frozen=True)
class FilterSpec:
    """Sequential dataset filter: item-level cuts first, then user-level."""

    top_items: int = 0
    min_item_ratings: int = 0
    min_user_ratings: int = 0

    def __post_init__(self):
        if min(self.top_items, self.min_item_ratings, self.min_user_ratings) < 0:
            raise CorpusError("filter thresholds must be >= 0")


def from_triples(
    triples,
    scale: RatingScale,
) -> RatingDataset:
    """Build a dataset from (user, item, rating[, timestamp]) tuples.

    Labels get dense ids in order of first appearance. Duplicate
    (user, item) pairs and off-grid ratings are errors.
    """
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    users, items, ratings, stamps = [], [], [], []
    seen: set[tuple[int, int]] = set()
    has_ts = None
    for row_no, row in enumerate(triples, start=1):
        if len(row) == 3:
            u, i, r = row
            ts = None
        elif len(row) == 4:
            u, i, r, ts = row
        else:
            raise CorpusError(f"row {row_no}: expected 3 or 4 fields, got {len(row)}")
        if has_ts is None:
            has_ts = ts is not None
        elif has_ts != (ts is not None):
            raise CorpusError(f"row {row_no}: inconsistent timestamp presence")
        r = float(r)
        if not scale.on_grid(r):
            raise CorpusError(
                f"row {row_no}: rating {r} is off the scale grid "
                f"[{scale.min}, {scale.max}] step {scale.step}"
            )
        uid = user_ids.setdefault(str(u), len(user_ids))
        iid = item_ids.setdefault(str(i), len(item_ids))
        if (uid, iid) in seen:
            raise CorpusError(f"row {row_no}: duplicate (user, item) pair ({u}, {i})")
        seen.add((uid, iid))
        users.append(uid)
        items.append(iid)
        ratings.append(r)
        if ts is not None:
            stamps.append(int(ts))
    return RatingDataset(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        ratings=np.asarray(ratings, dtype=np.float64),
        scale=scale,
        user_labels=tuple(user_ids),
        item_labels=tuple(item_ids),
        timestamps=np.asarray(stamps, dtype=np.int64) if stamps else None,
    )


def load_ratings(path, format: str, scale: RatingScale) -> RatingDataset:
    """Load a rating file in 'ml100k-tsv' or 'generic-csv' format."""
    if format == "ml100k-tsv":
        rows = _read_ml100k(path)
    elif format == "generic-csv":
        rows = _read_generic_csv(path)
    else:
        raise CorpusError(f"unknown format {format!r}")
    return from_triples(rows, scale)


def _read_ml100k(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise CorpusError(f"line {line_no}: expected 4 tab-separated fields")
            u, i, r, ts = parts
            try:
                rows.append((u, i, float(r), int(ts)))
            except ValueError as exc:
                raise CorpusError(f"line {line_no}: {exc}") from exc
    return rows


def _read_generic_csv(path):
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        header = [h.strip().lower() for h in header]
        if header[:3] != ["user", "item", "rating"]:
            raise CorpusError(
                "line 1: expected header user,item,rating[,timestamp], "
                f"got {','.join(header)}"
            )
        has_ts = len(header) == 4 and header[3] == "timestamp"
        width = 4 if has_ts else 3
        for line_no, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) != width:
                raise CorpusError(f"line {line_no}: expected {width} fields")
            try:
                if has_ts:
                    u, i, r, ts = parts
                    rows.append((u, i, float(r), int(ts)))
                else:
                    u, i, r = parts
                    rows.append((u, i, float(r)))
            except ValueError as exc:
                raise CorpusError(f"line {line_no}: {exc}") from exc
    return rows


def write_ratings(ds: RatingDataset, path) -> None:
    """Write a dataset as generic-csv using the original labels."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if ds.timestamps is not None:
            writer.writerow(["user", "item", "rating", "timestamp"])
            for n in range(ds.n_links):
                writer.writerow(
                    [
                        ds.user_labels[ds.users[n]],
                        ds.item_labels[ds.items[n]],
                        _fmt_rating(ds.ratings[n]),
                        int(ds.timestamps[n]),
                    ]
                )
        else:
            writer.writerow(["user", "item", "rating"])
            for n in range(ds.n_links):
                writer.writerow(
                    [
                        ds.user_labels[ds.users[n]],
                        ds.item_labels[ds.items[n]],
                        _fmt_rating(ds.ratings[n]),
                    ]
                )


def _fmt_rating(r: float) -> str:
    return str(int(r)) if float(r).is_integer() else repr(float(r))


def filter_dataset(ds: RatingDataset, spec: FilterSpec) -> RatingDataset:
    """Apply item-level filters, then user-level, one pass each; re-densify ids."""
    keep = np.ones(ds.n_links, dtype=bool)

    item_counts = np.bincount(ds.items, minlength=ds.n_items)
    if spec.top_items > 0:
        # top-N by rating count; ties broken by ascending item id
        order = np.lexsort((np.arange(ds.n_items), -item_counts))
        chosen = np.zeros(ds.n_items, dtype=bool)
        chosen[order[: spec.top_items]] = True
        keep &= chosen[ds.items]
    if spec.min_item_ratings > 0:
        keep &= (item_counts >= spec.min_item_ratings)[ds.items]

    user_counts = np.bincount(ds.users[keep], minlength=ds.n_users)
    if spec.min_user_ratings > 0:
        keep &= (user_counts >= spec.min_user_ratings)[ds.users]

    if not keep.any():
        raise CorpusError("filter removed all ratings")

    sub = ds.subset(np.flatnonzero(keep))
    return _densify(sub)


def _densify(ds: RatingDataset) -> RatingDataset:
    """Re-map ids so that only referenced users/items remain, order preserved."""
    users_present = np.unique(ds.users)
    items_present = np.unique(ds.items)
    umap = np.full(ds.n_users, -1, dtype=np.int64)
    imap = np.full(ds.n_items, -1, dtype=np.int64)
    umap[users_present] = np.arange(len(users_present))
    imap[items_present] = np.arange(len(items_present))
    return RatingDataset(
        users=umap[ds.users],
        items=imap[ds.items],
        ratings=ds.ratings,
        scale=ds.scale,
        user_labels=tuple(ds.user_labels[u] for u in users_present),
        item_labels=tuple(ds.item_labels[i] for i in items_present),
        timestamps=ds.timestamps,
    )


def kfold_split(ds: RatingDataset, k: int, seed: int) -> list[FoldPair]:
    """Random k-fold split of the triples; deterministic given the seed.

    Fold datasets share the source label space, so ids remain comparable
    between each train/test pair.
    """
    if k < 2:
        raise CorpusError(f"k must be >= 2, got {k}")
    if ds.n_links < k:
        raise CorpusError(f"cannot split {ds.n_links} triples into {k} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n_links)
    folds = []
    bounds = np.linspace(0, ds.n_links, k + 1).astype(int)
    for f in range(k):
        test_idx = np.sort(perm[bounds[f] : bounds[f + 1]])
        mask = np.zeros(ds.n_links, dtype=bool)
        mask[test_idx] = True
        folds.append(
            FoldPair(
                train=ds.subset(np.flatnonzero(~mask)),
                test=ds.subset(test_idx),
            )
        )
    return folds


def write_fold_manifest(folds: list[FoldPair], path) -> None:
    """Write fold membership as CSV: fold,user,item,rating,split."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "user", "item", "rating", "split"])
        for f, pair in enumerate(folds):
            for part, name in ((pair.train, "train"), (pair.test, "test")):
                for u, i, r in part.triples():
                    writer.writerow(
                        [f, part.user_labels[u], part.item_labels[i], _fmt_rating(r), name]
                    )


def dataset_stats(ds: RatingDataset) -> DatasetStats:
    """Users/items/links counts and the sparsity fraction 1 - links/(users*items)."""
    cells = ds.n_users * ds.n_items
    sparsity = 1.0 - ds.n_links / cells if cells else 0.0
    return DatasetStats(users=ds.n_users, items=ds.n_items, links=ds.n_links, sparsity=sparsity)
