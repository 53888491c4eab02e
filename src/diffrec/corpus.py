"""Rating dataset loading, validation, filtering, splitting, and statistics."""

from __future__ import annotations

import csv
import io
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice
from operator import itemgetter
from typing import Callable, Iterable

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
        if not all(math.isfinite(v) for v in (self.min, self.max, self.step)):
            raise CorpusError(
                f"scale min, max and step must be finite, got {self.min}:{self.max}:{self.step}"
            )
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
        if not math.isfinite(rating):
            return False
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


# characters of a text file split into fields at a time: the strings of
# one chunk's fields, not of the whole file's, are alive at once
_CHUNK_CHARS = 1 << 18
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class _Columns:
    """Rating rows, unparsed: `chunks` yields `rows` rows in all, as flat
    lists of `width` fields per row, and is read once.

    `where(row)` names a row in a parse error: its line in a file.
    `error` belongs to the input after the last row; it stands unless one
    of the rows fails to parse first.
    """

    chunks: Iterable[list]
    rows: int
    width: int
    where: Callable[[int], str]
    error: CorpusError | None = None


def load_ratings(path, format: str, scale: RatingScale) -> RatingDataset:
    """Load a rating file in 'ml100k-tsv' or 'generic-csv' format.

    Errors name the first offending input: `line N` (physical lines,
    blank ones counted) for a wrong field count or an unparsable value,
    `row N` (data rows) for an off-grid rating, a repeated pair or a
    timestamp beyond int64.
    """
    if format == "ml100k-tsv":
        with open(path, encoding="utf-8") as fh:  # \r\n and lone \r read as \n
            cols = _text_columns(fh.read(), "\t", 4, 1, "tab-separated ")
    elif format == "generic-csv":
        cols = _read_generic_csv(path)
    else:
        raise CorpusError(f"unknown format {format!r}")
    return _dataset(cols, scale)


def _read_generic_csv(path) -> _Columns:
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not text:
        return _text_columns(text, ",", 3, 2, "")  # no header and no rows
    if '"' in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        # quoted fields or lone \r line ends: the csv module's rules
        reader = csv.reader(io.StringIO(text, newline=""))
        records, ends = [], []
        for record in reader:  # a plain loop: zip(*generator) is about 3x slower here
            records.append(record)
            ends.append(reader.line_num)
        body = records[1:]
        widths = np.fromiter(map(len, body), np.intp, len(body))
        # a record starts on the physical line after the one its predecessor ends on
        starts = np.asarray(ends[:-1]) + 1
        return _columns(
            widths,
            _header_width(records[0]),
            starts.__getitem__,
            "",
            lambda n: [list(chain.from_iterable(body[:n]))],
        )
    head, _, text = text.replace("\r\n", "\n").partition("\n")
    return _text_columns(text, ",", _header_width(head.split(",") if head else []), 2, "")


def _header_width(header: list[str]) -> int:
    header = [h.strip().lower() for h in header]
    if header[:3] != ["user", "item", "rating"]:
        raise CorpusError(
            "line 1: expected header user,item,rating[,timestamp], "
            f"got {','.join(header)}"
        )
    return 4 if len(header) == 4 and header[3] == "timestamp" else 3


def _text_columns(body: str, sep: str, width: int, first_line: int, what: str) -> _Columns:
    """Columns of unquoted `sep`-separated lines, split on "\\n" only."""
    widths = _line_widths(body, sep)

    def chunks(n: int):
        # whole lines, about _CHUNK_CHARS at a time
        text = body if n == len(widths) else "\n".join(body.split("\n", n)[:n])
        start = 0
        while start < len(text):
            end = text.find("\n", start + _CHUNK_CHARS)
            end = len(text) if end < 0 else end
            part = text[start:end].strip("\n")
            if "\n\n" in part:
                part = re.sub("\n\n+", "\n", part)  # blank lines hold no fields
            if part:
                yield part.replace("\n", sep).split(sep)
            start = end + 1

    return _columns(widths, width, lambda k: k + first_line, what, chunks)


def _line_widths(body: str, sep: str) -> np.ndarray:
    """Fields on each "\\n"-separated line of body, 0 on a blank line.

    Counted on the UTF-8 bytes: sep and "\\n" are single bytes there, and
    no multi-byte character contains them.
    """
    b = np.frombuffer(body.encode(), np.uint8)
    ends = np.append(np.flatnonzero(b == 10), len(b))
    seps = np.searchsorted(np.flatnonzero(b == ord(sep)), ends)
    return np.where(np.diff(ends, prepend=-1) > 1, np.diff(seps, prepend=0) + 1, 0)


def _columns(widths, width: int, line_of, what: str, chunks) -> _Columns:
    """The rows before the first line whose field count is not `width`,
    with that line's error; blank lines (width 0) hold no row. `line_of(k)`
    is the physical line number of line k, and `chunks(n)` gives the first
    n lines' fields, row after row, in flat lists."""
    bad = np.flatnonzero((widths != width) & (widths != 0))
    n = int(bad[0]) if len(bad) else len(widths)
    error = None
    if len(bad):
        error = CorpusError(f"line {line_of(n)}: expected {width} {what}fields")
    filled = widths[:n] != 0
    return _Columns(
        chunks(n),
        np.count_nonzero(filled),
        width,
        lambda row: f"line {line_of(np.flatnonzero(filled)[row])}",
        error,
    )


def _dataset(cols: _Columns, scale: RatingScale) -> RatingDataset:
    """Parse, check and number the columns; an error names the first row
    at fault. Parse and field-count errors come before grid and duplicate
    errors; within a row the rating comes before the timestamp, and the
    grid check before the duplicate check, and a timestamp beyond int64
    comes last. float() and on_grid run once per distinct rating; ids
    follow first appearance."""
    n, w = cols.rows, cols.width
    codes, user_ids, item_ids = (defaultdict(count().__next__) for _ in range(3))
    users, items, rating_code = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n, np.intp)
    stamps = np.empty(n, np.int64) if w == 4 and n else None
    errors, overflow, lo = [], None, 0
    for fields in cols.chunks:
        hi = lo + len(fields) // w
        for out, ids, k in ((users, user_ids, 0), (items, item_ids, 1), (rating_code, codes, 2)):
            column = islice(fields, k, None, w)
            out[lo:hi] = np.fromiter(map(ids.__getitem__, column), out.dtype, hi - lo)
        if stamps is not None and not errors:
            texts = fields[3::w]
            try:
                stamps[lo:hi] = np.fromiter(map(int, texts), np.int64, hi - lo)
                joined = "".join(texts)
                if "_" in joined or not joined.isascii():
                    raise ValueError  # what _number refuses and int() takes
            except (ValueError, OverflowError):
                # an unparsable stamp, or one beyond int64
                for row, text in enumerate(texts, lo):
                    try:
                        stamp = _number(int, text)
                    except ValueError as bad:
                        errors.append((row, 1, bad))
                        break
                    if overflow is None and not _INT64.min <= stamp <= _INT64.max:
                        overflow = CorpusError(f"row {row + 1}: timestamp {stamp} is beyond int64")
        lo = hi
    values, failed = [], {}
    for code, text in enumerate(codes):
        try:
            values.append(_number(float, text))
        except ValueError as exc:
            values.append(math.nan)
            failed[code] = exc
    if failed:
        row = int(np.flatnonzero(np.isin(rating_code, list(failed)))[0])
        errors.append((row, 0, failed[rating_code[row]]))
    if errors:
        row, _, exc = min(errors, key=itemgetter(0, 1))
        raise CorpusError(f"{cols.where(row)}: {exc}") from exc
    if cols.error is not None:
        raise cols.error

    user_labels, item_labels = tuple(user_ids), tuple(item_ids)
    on_grid = np.array([scale.on_grid(v) for v in values], dtype=bool)
    off = int(np.argmin(on_grid[rating_code])) if not on_grid.all() else n
    pairs = users * len(item_labels)
    pairs += items
    dup = _first_repeat(pairs)
    if off < n and off <= dup:
        raise CorpusError(
            f"row {off + 1}: rating {values[rating_code[off]]} is off the scale grid "
            f"[{scale.min}, {scale.max}] step {scale.step}"
        )
    if dup < n:
        u, i = user_labels[users[dup]], item_labels[items[dup]]
        raise CorpusError(f"row {dup + 1}: duplicate (user, item) pair ({u}, {i})")
    if overflow is not None:
        raise overflow  # ranks after every row check
    return RatingDataset(
        users=users,
        items=items,
        ratings=np.array(values, dtype=np.float64)[rating_code],
        scale=scale,
        user_labels=user_labels,
        item_labels=item_labels,
        timestamps=stamps,
    )


def _number(parse, text: str):
    """parse(text), where parse is int or float, refusing what both take
    beyond ASCII numbers: the "_" digit separators of Python literals
    ("1_000"), and non-ASCII digits and spaces ("٣", "１２")."""
    if "_" in text:
        raise ValueError(f"digit separator '_' in number {text!r}")
    if not text.isascii():
        raise ValueError(f"non-ASCII character in number {text!r}")
    return parse(text)


def _first_repeat(keys: np.ndarray) -> int:
    """Index of the first key equal to an earlier one, or len(keys)."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return len(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return int(order[1:][ordered[1:] == ordered[:-1]].min())


def write_ratings(ds: RatingDataset, path) -> None:
    """Write a dataset as generic-csv using the original labels, with
    csv.writer's quoting and line ends."""
    header, end, stamps = "user,item,rating\r\n", "\r\n", ()
    if ds.timestamps is not None:
        header, end = "user,item,rating,timestamp\r\n", ","
        stamps = (np.array([f"{t}\r\n" for t in ds.timestamps.tolist()], dtype=object),)
    users, items = _leading_fields(ds.user_labels), _leading_fields(ds.item_labels)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        fh.write(_csv_lines(ds, users, items, end, *stamps))


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
    """Write fold membership as CSV: fold,user,item,rating,split, with
    csv.writer's quoting and line ends. The folds must share one label
    space, as kfold_split's do; a part with other labels is a CorpusError."""
    space = folds[0].train if folds else None
    for f, pair in enumerate(folds):
        for part, name in ((pair.train, "train"), (pair.test, "test")):
            # equal at once when shared, as no label is compared
            if (part.user_labels, part.item_labels) != (space.user_labels, space.item_labels):
                raise CorpusError(f"fold {f} {name} labels differ from fold 0's")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("fold,user,item,rating,split\r\n")
        if not folds:
            return
        users = _leading_fields(space.user_labels)
        items = _leading_fields(space.item_labels)
        for f, pair in enumerate(folds):
            fold_users = f"{f}," + users
            for part, name in ((pair.train, "train"), (pair.test, "test")):
                fh.write(_csv_lines(part, fold_users, items, f",{name}\r\n"))


def _leading_fields(labels: tuple[str, ...]) -> np.ndarray:
    """Each label as a CSV field followed by a comma, quoted once."""
    return np.array([_csv_field(label) + "," for label in labels], dtype=object)


def _csv_lines(part: RatingDataset, users: np.ndarray, items: np.ndarray, end: str, *more) -> str:
    """part's rows as one join of object-array pieces: `users[u]`,
    `items[i]`, the rating, formatted once per distinct value, with `end`
    after it, and then each piece array of `more`."""
    values, codes = np.unique(part.ratings, return_inverse=True)
    ratings = np.array([_fmt_rating(r) + end for r in values.tolist()], dtype=object)
    pieces = [users[part.users], items[part.items], ratings[codes], *more]
    return "".join(np.stack(pieces, axis=1).ravel().tolist())


def _csv_field(text: str) -> str:
    """One field as csv.writer's default dialect writes it in a row of
    several: quoted, with doubled quotes, if it holds , " \r or \n."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def dataset_stats(ds: RatingDataset) -> DatasetStats:
    """Users/items/links counts and the sparsity fraction 1 - links/(users*items)."""
    cells = ds.n_users * ds.n_items
    sparsity = 1.0 - ds.n_links / cells if cells else 0.0
    return DatasetStats(users=ds.n_users, items=ds.n_items, links=ds.n_links, sparsity=sparsity)
