"""Rating dataset loading, validation, filtering, splitting, and statistics.

A rating file is loaded from its bytes. Line ends and separators are found
with numpy, and each field is kept as byte offsets into the file, 4 bytes a
field while the file is under 2 GiB. The user, item and rating fields are
then numbered in order of first appearance, _BLOCK_ROWS rows at a time:
each field of a block is packed into a uint64 key as wide as the field
itself, a word for every 8 bytes (see _keys), each column's keys are
sorted, and the block keeps the column, row and byte offsets of the first
field of each distinct key, not its key. The fields kept by several blocks
are keyed again from their bytes and grouped once more at the end. Each
distinct label is decoded, and each distinct rating parsed, once, from the
file's bytes. A timestamp is parsed in its row, from its bytes, a block at
a time, into one int64 array. Only one block's keys are alive at once, and
a key is as wide as its own field, so a long label costs its own key words
and no other field's. A key's words are built only until they set apart
every field of its width, so a label unlike every other costs one or two.
Quoted fields and lone \r line ends go through the csv module, whose
fields then take the same path from their encoded bytes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator

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


# rows of a file grouped at a time, and the most keys sorted at once: the
# keys of one block's three columns, not of the whole file's, are alive
_BLOCK_ROWS = 1 << 16
# bytes of a file searched for line ends and separators at a time
_SCAN_BYTES = 1 << 20
_INT64 = np.iinfo(np.int64)
# A field's key word j, by the field's bytes from word j on (clipped to
# -1..8, plus 1): the mask of the bytes it keeps, and the end mark of the
# first word that is not full (see _keys).
_WORD_MASKS = np.array([0] + [(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_WORD_MARKS = np.array([0] + [1 << 8 * k for k in range(8)] + [0], dtype=np.uint64)


@dataclass(frozen=True)
class _Columns:
    """Rating rows, unparsed, as byte offsets into `data`, which holds the
    fields' UTF-8 bytes and 8 spare zero bytes after them. Row r's fields
    lie between cuts: field k spans data[cut[i + k] + 1:cut[i + k + 1]],
    where i = first[r].

    `where(row)` names a row in a parse error: its line in a file.
    `error` belongs to the input after the last row; it stands unless one
    of the rows fails to parse first.
    """

    data: np.ndarray
    cut: np.ndarray
    first: np.ndarray
    width: int
    where: Callable[[int], str]
    error: CorpusError | None = None


def load_ratings(path, format: str, scale: RatingScale) -> RatingDataset:
    """Load a rating file in 'ml100k-tsv' or 'generic-csv' format.

    Errors name the first offending input: `line N` (physical lines,
    blank ones counted) for a byte that is not UTF-8, a wrong field count
    or an unparsable value, `row N` (data rows) for an off-grid rating, a
    repeated pair or a timestamp beyond int64.
    """
    # the file's bytes and offsets are freed once _parse has returned
    return _dataset(scale, *_parse(_read_columns(path, format)))


def _read_columns(path, format: str) -> _Columns:
    if format not in ("ml100k-tsv", "generic-csv"):
        raise CorpusError(f"unknown format {format!r}")
    with open(path, "rb") as fh:
        data = fh.read()
    _check_utf8(data)
    if format == "ml100k-tsv":
        if b"\r" in data:  # \r\n and lone \r end a line, as text mode reads them
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        start, sep, width, first_line, what = 0, b"\t", 4, 1, "tab-separated "
    else:
        if b'"' in data or b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
            # quoted fields or lone \r line ends: the csv module's rules
            return _csv_columns(data.decode())
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n")
        end = data.find(b"\n")
        end = len(data) if end < 0 else end
        head = data[:end].decode()
        width = _header_width(head.split(",") if head else []) if data else 3
        start, sep, width, first_line, what = end + 1, b",", width, 2, ""
    # the lines between two line ends, and 8 spare bytes (see _keys)
    buf = np.frombuffer(b"".join((b"\n", memoryview(data)[start:], b"\n", bytes(8))), np.uint8)
    del data
    return _text_columns(buf, sep, width, first_line, what)


def _check_utf8(data: bytes) -> None:
    """Raise a CorpusError naming the line of the first byte that is not
    UTF-8; \\n, \\r\\n and a lone \\r each end a line."""
    if data.isascii():
        return
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise CorpusError(f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


def _csv_columns(text: str) -> _Columns:
    reader = csv.reader(io.StringIO(text, newline=""))
    records, ends = [], []
    for record in reader:  # a plain loop: zip(*generator) is about 3x slower here
        records.append(record)
        ends.append(reader.line_num)
    width = _header_width(records[0])
    body = records[1:]
    # a record starts on the physical line after the one its predecessor ends on
    starts = np.asarray(ends[:-1]) + 1
    widths = np.fromiter(map(len, body), np.intp, len(body))
    n, error = _rows(widths, width, starts.__getitem__, "")
    lines = (widths[:n] != 0).nonzero()[0]
    fields = [field.encode() for k in lines.tolist() for field in body[k]]
    # field i spans data[cut[i] + 1:cut[i + 1]], with a spare byte after each
    cut = np.cumsum([-1] + [len(field) + 1 for field in fields])
    data = np.frombuffer(b"\n".join(fields) + bytes(8), np.uint8)
    first = np.arange(len(lines)) * width
    return _Columns(data, cut, first, width, lambda row: f"line {starts[lines[row]]}", error)


def _header_width(header: list[str]) -> int:
    header = [h.strip().lower() for h in header]
    if header[:3] != ["user", "item", "rating"]:
        raise CorpusError(
            "line 1: expected header user,item,rating[,timestamp], "
            f"got {','.join(header)}"
        )
    return 4 if len(header) == 4 and header[3] == "timestamp" else 3


def _text_columns(
    buf: np.ndarray, sep: bytes, width: int, first_line: int, what: str
) -> _Columns:
    """Columns of the unquoted `sep`-separated lines in buf, split on
    "\\n" only. buf holds a "\\n", the lines, a "\\n" and 8 spare bytes;
    line 0 is line `first_line` of the file. Line ends and separators are
    found on the bytes: both are single bytes in UTF-8, and no multi-byte
    character contains them. Offsets are int32 where they fit."""
    text = buf[:-8]
    index = np.int32 if len(buf) < 2**31 else np.int64
    # the line ends and separators, and which of them are line ends: line
    # k spans the cuts line_cut[k]..line_cut[k + 1]
    cut, line_cut, count = [], [], 0
    for lo in range(0, len(text), _SCAN_BYTES):
        part = text[lo : lo + _SCAN_BYTES]
        found = part == 10
        found |= part == ord(sep)
        at = found.nonzero()[0]
        line_cut.append((part[at] == 10).nonzero()[0].astype(index) + count)
        cut.append((at + lo).astype(index))
        count += len(at)
    cut, line_cut = np.concatenate(cut), np.concatenate(line_cut)
    widths = line_cut[1:] - line_cut[:-1]
    line_end = cut[line_cut]
    widths[line_end[1:] - line_end[:-1] == 1] = 0  # a blank line holds no fields
    del line_end
    n, error = _rows(widths, width, lambda k: k + first_line, what)
    first = line_cut[:n][widths[:n] != 0]

    def where(row):
        start = cut[first[row]] + 1
        return f"line {np.count_nonzero(text[:start] == 10) - 1 + first_line}"

    return _Columns(buf, cut, first, width, where, error)


def _rows(widths: np.ndarray, width: int, line_of, what: str) -> tuple[int, CorpusError | None]:
    """The lines that can hold rows, those before the first line whose
    field count is not `width`, with that line's error; of these, the
    blank lines (width 0) hold none. `line_of(k)` is the physical line
    number of line k."""
    bad = ((widths != width) & (widths != 0)).nonzero()[0]
    n = int(bad[0]) if len(bad) else len(widths)
    error = CorpusError(f"line {line_of(n)}: expected {width} {what}fields") if len(bad) else None
    return n, error


def _parse(cols: _Columns) -> tuple:
    """The user and item ids and labels; the rating ids and values, and the
    rows where each rating id first appears; the timestamps, parsed in
    their rows (None without the column or rows); and the (row, value) of
    the first timestamp beyond int64 in each block that has one. Ids follow
    first appearance; each distinct label is decoded, and each distinct
    rating parsed, once. A parse error names the first row at fault, the
    rating before the timestamp within a row, and comes before `cols.error`.

    A block's user, item and rating fields are grouped together, by column
    and bytes (see _groups), and each field's code points at its group's
    first field, whose column, row, start and length the block keeps. The
    fields kept by several blocks are grouped once more, from their bytes."""
    n = len(cols.first)
    codes = np.empty((3, n), np.int32 if n < 2**31 else np.int64)
    kept, total = [], np.zeros(3, np.int64)  # each block's kept fields; each column's count
    stamps = np.empty(n, np.int64) if cols.width == 4 and n else None
    errors, beyond = [], []  # (row, column, error) of parse errors; (row, value) beyond int64
    for lo in range(0, n, _BLOCK_ROWS):
        m = min(n - lo, _BLOCK_ROWS)
        cut = cols.cut[cols.first[lo : lo + m] + np.arange(cols.width + 1)[:, None]]
        starts = cut[:-1] + 1  # one row a column
        lengths = cut[1:] - starts
        if stamps is not None:
            stamps[lo : lo + m], failure, big = _integers(cols.data, starts[3], lengths[3])
            errors += [(lo + failure[0], 1, failure[1])] if failure else []
            beyond += [(lo + big[0], big[1])] if big else []
        starts, lengths, bounds = starts[:3].ravel(), lengths[:3].ravel(), np.arange(4) * m
        group, first = _groups(cols.data, starts, lengths, bounds)
        at = np.searchsorted(first, bounds)  # each column's first group
        codes[:, lo : lo + m] = group.reshape(3, m) + (total - at[:-1])[:, None]
        total += np.diff(at)
        # the column, row, start and length of each kept field
        kept.append(np.stack((first // m, first % m + lo, starts[first], lengths[first])))
    kept = np.concatenate(kept or [np.zeros((4, 0), np.int64)], axis=1).astype(cols.cut.dtype)
    bounds = np.concatenate(([0], total.cumsum()))  # each column's kept fields
    if n > _BLOCK_ROWS:  # each column's fields kept by all blocks, in row order
        kept = kept[:, np.argsort(kept[0], kind="stable")]
        group, first = _groups(cols.data, kept[2], kept[3], bounds)
        at = np.searchsorted(first, bounds)
        for k in range(3):
            codes[k] = (group[bounds[k] : bounds[k + 1]] - at[k]).astype(codes.dtype)[codes[k]]
        kept, bounds = kept[:, first], at
    _, rows, starts, lengths = kept

    texts = _texts(cols.data, starts, lengths)
    values, failure = _numbers(float, texts[bounds[2] :])
    ratings = (codes[2], values, rows[bounds[2] :])
    errors += [(int(ratings[2][failure[0]]), 0, failure[1])] if failure else []
    if errors:
        row, _, exc = min(errors, key=itemgetter(0, 1))
        raise CorpusError(f"{cols.where(row)}: {exc}") from exc
    if cols.error is not None:
        raise cols.error
    users, items = (codes[0], texts[: bounds[1]]), (codes[1], texts[bounds[1] : bounds[2]])
    return users, items, ratings, stamps, beyond


def _dataset(scale: RatingScale, users, items, ratings, stamps, beyond) -> RatingDataset:
    """The dataset of _parse's columns, once the rows pass the checks; an
    error names the first row at fault. The grid check comes before the
    duplicate check within a row, and a timestamp beyond int64 last."""
    (users, user_labels), (items, item_labels) = users, items
    rating_ids, values, rating_first = ratings
    n = len(rating_ids)
    off = [code for code, v in enumerate(values) if not scale.on_grid(v)]
    off = int(rating_first[off[0]]) if off else n
    # the pairs, and their sorted copy, are gone before the int64 ids are made
    pairs = users.astype(np.int64) * len(item_labels)
    pairs += items
    dup = _first_repeat(pairs)
    del pairs
    if off < n and off <= dup:
        raise CorpusError(
            f"row {off + 1}: rating {values[rating_ids[off]]} is off the scale grid "
            f"[{scale.min}, {scale.max}] step {scale.step}"
        )
    if dup < n:
        u, i = user_labels[users[dup]], item_labels[items[dup]]
        raise CorpusError(f"row {dup + 1}: duplicate (user, item) pair ({u}, {i})")
    if beyond:  # ranks after every row check
        row, stamp = beyond[0]
        raise CorpusError(f"row {row + 1}: timestamp {stamp} is beyond int64")
    return RatingDataset(
        users=users.astype(np.int64),
        items=items.astype(np.int64),
        ratings=np.array(values, dtype=np.float64)[rating_ids],
        scale=scale,
        user_labels=tuple(user_labels),
        item_labels=tuple(item_labels),
        timestamps=stamps,
    )


def _keys(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> Iterator[np.ndarray]:
    """Keys of the fields of the given starts and lengths in data, as
    columns of uint64 words, equal exactly where the fields are, each
    column built when it is asked for. A field's bytes fill little-endian
    words, 8 a word; its last word is the first that is not full, and
    holds a mark, a byte 1, after the field's last byte. The words after
    it are 0. So "a" and "a\\x00" differ, a field of 8 bytes or more takes
    more than one word, and a short field's key is a small number. data
    has 8 spare bytes after the last field, so the word at every field's
    start can be read."""
    words = np.ndarray((len(data) - 7,), np.dtype("<u8"), data, 0, (1,))
    for j in range(int(lengths.max(initial=0)) // 8 + 1):
        # a word past the field's end keeps none of its bytes: read any word
        at = starts if j == 0 else np.minimum(starts + 8 * j, len(words) - 1)
        left = lengths - (8 * j - 1)  # bytes from word j on, plus 1
        if j:
            np.maximum(left, 0, out=left)
        np.minimum(left, 9, out=left)
        word = words[at]
        word &= _WORD_MASKS.take(left)
        word |= _WORD_MARKS.take(left)
        yield word


def _groups(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each field's group of the fields of its column equal to it in bytes,
    given the fields' starts and lengths in data, column after column,
    column k's from bounds[k] to bounds[k + 1]: the groups numbered by
    column and then first appearance. Also the first field of each group,
    in that order.

    Fields of different width classes (lengths // 8) are never equal, so
    the fields of each class are keyed (see _keys) and grouped apart, and
    a field's key is as wide as the field; the groups of all classes are
    then numbered together."""
    if lengths.min(initial=0) // 8 == lengths.max(initial=0) // 8:  # one class
        return _key_groups(_keys(data, starts, lengths), bounds)
    classes = lengths // 8
    group, count = np.empty(len(starts), np.int64), 0
    for c in np.flatnonzero(np.bincount(classes)):
        field = np.flatnonzero(classes == c)
        keys = _keys(data, starts[field], lengths[field])
        part, first = _key_groups(keys, np.searchsorted(field, bounds))
        group[field] = part + count
        count += len(first)
    return _key_groups([group], bounds)


def _key_groups(
    keys: Iterable[np.ndarray], bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each field's group of the fields equal to it in key, given the keys
    as columns of words, and the first field of each group. The fields lie
    in runs, run k from bounds[k] to bounds[k + 1], and fields of different
    runs never group: the groups are numbered by run and then first
    appearance. Each run is sorted apart, which keeps a block's sorts as
    small as its columns. Once every field is in a group of its own, no
    later word can split a group, and the words left are not read."""
    group = None
    for word in keys:
        n = len(word)
        if group is not None:  # group by the words before, then by this one
            if int(word.max()) >= _INT64.max // len(first):  # the sum below would overflow
                word, _ = _key_groups([word], np.array([0, n]))
            step = int(word.max()) + 1
            word = word.astype(np.int64)
            word += group * step
        runs = zip(bounds[:-1].tolist(), bounds[1:].tolist())
        order = np.concatenate([word[lo:hi].argsort() + lo for lo, hi in runs])
        ordered = word[order]
        new = np.empty(n + 1, bool)  # and a spare for empty runs at the end
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:n])
        del ordered
        new[bounds[:-1]] = True
        first = np.minimum.reduceat(order, new[:n].nonzero()[0])  # in key order
        by = first.argsort()
        number = np.empty(len(first) + 1, np.int64)  # of the k-th distinct key, at k + 1
        number[by + 1] = np.arange(len(first))
        group = np.empty(n, np.int64)
        group[order] = number[new[:n].cumsum()]
        first = first[by]
        if len(first) == n:
            break
    return group, first


def _texts(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The fields of the given starts and lengths in data, decoded at once:
    each field's bytes and a byte 0xff, which UTF-8 never holds, in place
    of the byte after the field (a separator, a line end or a spare byte),
    split at the 0xff that surrogateescape decodes to "\\udcff"."""
    span = lengths + 1
    end = span.cumsum()
    at = np.repeat(starts - (end - span), span)
    at += np.arange(len(at))
    raw = data[at]
    raw[end - 1] = 0xFF
    return raw.tobytes().decode("utf-8", "surrogateescape").split("\udcff")[:-1]


def _numbers(parse, texts: list[str]) -> tuple[list, tuple[int, ValueError] | None]:
    """_number(parse, text) of each text, or the index and error of the
    first text that fails."""
    values = []
    for k, text in enumerate(texts):
        try:
            values.append(_number(parse, text))
        except ValueError as exc:
            return values, (k, exc)
    return values, None


def _integers(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, tuple | None, tuple | None]:
    """_numbers(int, texts) of the fields of the given starts and lengths
    in data, as an int64 array, with the index and value of the first
    beyond int64. A field of an optional "-" and 1 to 18 ASCII digits is
    parsed from its bytes, all such fields at once; int() takes the others."""
    minus = data[starts] == ord("-")
    digits, count = starts + minus, lengths - minus
    plain = (count >= 1) & (count <= 18)
    values = np.zeros(len(lengths), np.int64)
    for j in range(min(int(count.max(initial=0)), 18)):
        inside = count > j
        # a byte that is not a digit wraps past 9; a read past the data is clipped
        digit = data.take(digits + j, mode="clip") - np.uint8(48)
        plain &= (digit <= 9) | ~inside
        values = np.where(inside, values * 10 + digit, values)
    values[minus] *= -1
    rest = np.flatnonzero(~plain)
    more, failure = _numbers(int, _texts(data, starts[rest], lengths[rest]))
    if failure is not None:
        return values, (int(rest[failure[0]]), failure[1]), None
    beyond = None
    for k, value in zip(rest.tolist(), more):
        if _INT64.min <= value <= _INT64.max:
            values[k] = value
        elif beyond is None:
            beyond = (k, value)
    return values, None, beyond


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
