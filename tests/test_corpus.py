import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrec import corpus
from diffrec.corpus import (
    CorpusError,
    FilterSpec,
    FoldPair,
    RatingScale,
    dataset_stats,
    filter_dataset,
    kfold_split,
    load_ratings,
)

import oracles
from conftest import random_dataset


SCALE15 = RatingScale(1, 5, 1)


class TestRatingScale:
    def test_invalid(self):
        with pytest.raises(CorpusError):
            RatingScale(5, 1, 1)
        with pytest.raises(CorpusError):
            RatingScale(1, 5, 0)
        with pytest.raises(CorpusError):
            RatingScale(0, 1, 0.3)

    def test_grid(self):
        scale = RatingScale(0, 1, 0.2)
        assert scale.on_grid(0.6)
        assert not scale.on_grid(0.5)
        assert not scale.on_grid(1.2)

    @pytest.mark.parametrize("rating", [math.nan, math.inf, -math.inf])
    def test_non_finite_rating_is_off_grid(self, rating):
        assert not SCALE15.on_grid(rating)

    @pytest.mark.parametrize(
        "bounds", [(math.nan, 5, 1), (1, math.nan, 1), (1, 5, math.nan), (-math.inf, 5, 1),
                   (1, math.inf, 1), (1, 5, math.inf)]
    )
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(CorpusError, match="must be finite"):
            RatingScale(*bounds)


class TestLoad:
    def test_fix4_counts(self, fix4):
        assert fix4.n_users == 4
        assert fix4.n_items == 4
        assert fix4.n_links == 10

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        ds = load_ratings(path, "generic-csv", SCALE15)
        assert (ds.n_users, ds.n_items, ds.n_links) == (0, 0, 0)

    def test_ml100k_tsv(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t10\t4\t880\n2\t10\t3\t881\n")
        ds = load_ratings(path, "ml100k-tsv", SCALE15)
        assert ds.n_users == 2 and ds.n_items == 1 and ds.n_links == 2

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("1\t10\t4\t880\n1\t11\tx\t880\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_ratings(path, "ml100k-tsv", SCALE15)

    def test_off_grid_rating(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\na,b,3.5\n")
        with pytest.raises(CorpusError, match="off the scale grid"):
            load_ratings(path, "generic-csv", SCALE15)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\na,b,3\na,b,4\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_ratings(path, "generic-csv", SCALE15)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("usr,item,rating\na,b,3\n")
        with pytest.raises(CorpusError, match="header"):
            load_ratings(path, "generic-csv", SCALE15)

    def test_round_trip(self, tmp_path):
        ds = random_dataset(7, n_users=8, n_items=9)
        path = tmp_path / "out.csv"
        corpus.write_ratings(ds, path)
        back = load_ratings(path, "generic-csv", ds.scale)
        assert back.user_labels == ds.user_labels
        assert back.item_labels == ds.item_labels
        assert list(back.triples()) == list(ds.triples())


def load_text(tmp_path, text, fmt="generic-csv"):
    """Load `text`, written byte for byte (no newline translation)."""
    path = tmp_path / ("r.csv" if fmt == "generic-csv" else "u.data")
    path.write_bytes(text.encode("utf-8"))
    return load_ratings(path, fmt, SCALE15)


class TestLoadErrors:
    """Which error a malformed file raises: `line N` counts physical lines,
    blank ones included; `row N` counts data rows; field-count and parse
    errors come before grid and duplicate errors."""

    @pytest.mark.parametrize(
        "text,message",
        [
            ("user,item,rating\n\na,b,3\n\nc,d,x\n", "line 5: could not convert string to float: 'x'"),
            ("user,item,rating\n\n\na,b\n", "line 4: expected 3 fields"),
            ("user,item,rating\n\na,b,3\n\na,b,4\n", r"row 2: duplicate \(user, item\) pair \(a, b\)"),
            ("user,item,rating\n\na,b,3\n\n\nc,d,3.5\n", r"row 2: rating 3.5 is off the scale grid"),
        ],
    )
    def test_blank_lines_before_the_bad_row(self, tmp_path, text, message):
        with pytest.raises(CorpusError, match=f"^{message}"):
            load_text(tmp_path, text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ('user,item,rating\n"a\nb",c,3\nd,e\n', "line 4: expected 3 fields"),
            ('user,item,rating\n"a\nb",c\nd,e,3\n', "line 2: expected 3 fields"),
            ('user,item,rating\n"a\n\nb",c,3\n\nd,e,x\n', "line 6: could not convert"),
            ('user,item,rating\r"a\r\nb",c,3\rd,e\r', "line 4: expected 3 fields"),
        ],
    )
    def test_line_breaks_in_quoted_fields_count(self, tmp_path, text, message):
        # the csv path numbers a record by the physical line it starts on
        for load in (load_ratings, oracles.load_ratings):
            path = tmp_path / "r.csv"
            path.write_bytes(text.encode("utf-8"))
            with pytest.raises(CorpusError, match=f"^{message}"):
                load(path, "generic-csv", SCALE15)

    def test_blank_lines_in_ml100k(self, tmp_path):
        with pytest.raises(CorpusError, match="^line 4: expected 4 tab-separated fields$"):
            load_text(tmp_path, "1\t10\t4\t880\n\n\n1\t11\n", "ml100k-tsv")

    @pytest.mark.parametrize(
        "text,fmt,bad_line",
        [
            ("user,item,rating,timestamp\r\na,b,3,7\r\n\r\nc,b,4,8\r\n", "generic-csv", 4),
            ("a\tb\t3\t7\r\n\r\nc\tb\t4\t8\r\n", "ml100k-tsv", 3),
        ],
    )
    def test_crlf(self, tmp_path, text, fmt, bad_line):
        ds = load_text(tmp_path, text, fmt)
        assert ds.user_labels == ("a", "c") and ds.item_labels == ("b",)
        assert ds.ratings.tolist() == [3.0, 4.0] and ds.timestamps.tolist() == [7, 8]
        with pytest.raises(CorpusError, match=f"^line {bad_line}: could not convert"):
            load_text(tmp_path, text.replace("4", "x", 1), fmt)

    @pytest.mark.parametrize("header", ["user,item,rating", "user,item,rating,timestamp\n"])
    def test_header_only(self, tmp_path, header):
        ds = load_text(tmp_path, header)
        assert (ds.n_users, ds.n_items, ds.n_links) == (0, 0, 0)
        assert ds.timestamps is None

    def test_timestamps(self, tmp_path):
        ds = load_text(tmp_path, "user,item,rating,timestamp\na,b,3,880\nc,b,4,-5\n")
        assert ds.timestamps.dtype == np.int64 and ds.timestamps.tolist() == [880, -5]
        with pytest.raises(CorpusError, match=r"^line 3: invalid literal for int\(\)"):
            load_text(tmp_path, "user,item,rating,timestamp\na,b,3,880\nc,b,4,8.5\n")

    def test_timestamp_header_with_another_fourth_column_means_three_fields(self, tmp_path):
        with pytest.raises(CorpusError, match="^line 2: expected 3 fields$"):
            load_text(tmp_path, "user,item,rating,when\na,b,3,880\n")

    def test_short_row_after_unparsable_rating(self, tmp_path):
        with pytest.raises(CorpusError, match="^line 2: could not convert string to float: 'x'$"):
            load_text(tmp_path, "user,item,rating\na,b,x\nc,d\n")

    def test_unparsable_rating_before_timestamp_in_a_row(self, tmp_path):
        with pytest.raises(CorpusError, match="^line 2: could not convert string to float"):
            load_text(tmp_path, "user,item,rating,timestamp\na,b,x,y\n")

    def test_short_row_before_duplicate(self, tmp_path):
        # the duplicate comes first in the file, but a field-count error wins
        with pytest.raises(CorpusError, match="^line 4: expected 3 fields$"):
            load_text(tmp_path, "user,item,rating\na,b,3\na,b,4\nc\n")

    def test_grid_before_duplicate_in_one_row(self, tmp_path):
        with pytest.raises(CorpusError, match="^row 2: rating 9.0 is off the scale grid"):
            load_text(tmp_path, "user,item,rating\na,b,3\na,b,9\n")

    def test_first_duplicate_is_reported(self, tmp_path):
        with pytest.raises(CorpusError, match=r"^row 4: duplicate \(user, item\) pair \(c, d\)$"):
            load_text(tmp_path, "user,item,rating\na,b,3\nc,d,3\na,x,3\nc,d,3\na,b,3\n")

    def test_nan_rating_is_off_the_grid(self, tmp_path):
        with pytest.raises(
            CorpusError, match=r"^row 1: rating nan is off the scale grid \[1, 5\] step 1$"
        ):
            load_text(tmp_path, "user,item,rating\na,b,nan\n")

    @pytest.mark.parametrize(
        "text,fmt,message",
        [
            ("user,item,rating,timestamp\na,x,3,1_000\nb,x,4, 7\n", "generic-csv",
             "line 2: digit separator '_' in number '1_000'"),
            ("user,item,rating\na,x,3\nb,x,1_0\n", "generic-csv",
             "line 3: digit separator '_' in number '1_0'"),
            ('user,item,rating\n"a",x,1_0\n', "generic-csv",
             "line 2: digit separator '_' in number '1_0'"),
            ('user,item,rating,timestamp\n"a",x,3,7\nb,x,4,-1_0\n', "generic-csv",
             "line 3: digit separator '_' in number '-1_0'"),
            ("a\tx\t3\t7\n\nb\tx\t4\t1_0\n", "ml100k-tsv",
             "line 3: digit separator '_' in number '1_0'"),
            # the rating's error comes first within a row
            ("user,item,rating,timestamp\na,x,1_0,2_0\n", "generic-csv",
             "line 2: digit separator '_' in number '1_0'"),
        ],
        ids=["stamp", "rating", "csv-rating", "csv-stamp", "ml100k", "rating-first"],
    )
    def test_digit_separators_are_unparsable(self, tmp_path, text, fmt, message):
        # int() and float() take Python's "1_000"; a rating file does not
        path = tmp_path / "r.txt"
        path.write_text(text, encoding="utf-8")
        for load in (load_ratings, oracles.load_ratings):
            with pytest.raises(CorpusError, match=f"^{message}$"):
                load(path, fmt, RatingScale(1, 10, 1))

    @pytest.mark.parametrize(
        "text,fmt,message",
        [
            # the rating's error comes first within a row
            ("user,item,rating,timestamp\na,x,\u0663,\uff11\uff12\n", "generic-csv",
             "line 2: non-ASCII character in number '\u0663'"),
            ("user,item,rating,timestamp\na,x,3,7\nb,x,4,\uff11\uff12\n", "generic-csv",
             "line 3: non-ASCII character in number '\uff11\uff12'"),
            ('user,item,rating\n"a",x,3\nb,x,\u0664\n', "generic-csv",
             "line 3: non-ASCII character in number '\u0664'"),
            ('user,item,rating,timestamp\n"a",x,3,\u00a07\n', "generic-csv",
             r"line 2: non-ASCII character in number '\\xa07'"),  # a no-break space
            ("a\tx\t3\t7\n\nb\tx\t\uff14\t8\n", "ml100k-tsv",
             "line 3: non-ASCII character in number '\uff14'"),
            ("a\tx\t3\t7\nb\tx\t4\t\u0668\n", "ml100k-tsv",
             "line 2: non-ASCII character in number '\u0668'"),
        ],
        ids=["rating-first", "stamp", "csv-rating", "csv-stamp-space", "ml100k", "ml100k-stamp"],
    )
    def test_non_ascii_digits_are_unparsable(self, tmp_path, text, fmt, message):
        # int() and float() take any Unicode digit or space; a rating file does not
        path = tmp_path / "r.txt"
        path.write_text(text, encoding="utf-8")
        for load in (load_ratings, oracles.load_ratings):
            with pytest.raises(CorpusError, match=f"^{message}$"):
                load(path, fmt, RatingScale(1, 10, 1))

    def test_quoted_and_lone_cr_files_read_through_csv(self, tmp_path):
        ds = load_text(tmp_path, 'user,item,rating\r"a,1",b,3\r"say ""hi""",b,4\r')
        assert ds.user_labels == ("a,1", 'say "hi"')
        with pytest.raises(CorpusError, match="^line 3: expected 3 fields$"):
            load_text(tmp_path, 'user,item,rating\r"a,1",b,3\rc,d\r')


# Generated rating files for the loader property. Small label alphabets
# and repeated pairs make duplicates. A file's noise level sets what else
# can go wrong in it:
# 0 only duplicates, 1 also off-grid ratings, 2 also bad headers, short,
# long and blank lines, and unparsable values.
LABELS = ["a", "b", "c", "u1", "i1", "é", " a", "\x0c", "\x00", "", "x,y", 'q"t']
GOOD_RATINGS = ["1", "2", "3", "4", "5", "4.0", " 2", "1e0"]
OFF_GRID = ["3.5", "0", "6", "nan", "inf", "-1"]
BAD = {
    "rating": ["x", "", "4,0", "\u0663"],
    "stamp": ["x", "1.5", "", "\uff11\uff12"],
    "line": ["short", "long", "blank"],
}
STAMPS = ["880", "0", "-3", " 7", "1_0"]
HEADERS = ["user,item,rating", "user,item,rating,timestamp", " User , ITEM,rating"]
BAD_HEADERS = ["user,item,rating,when", "usr,item,rating", ""]


def _csv_field(text, quote):
    return '"' + text.replace('"', '""') + '"' if quote or "," in text or '"' in text else text


@st.composite
def rating_files(draw):
    """(text, format): a generic-csv or ml100k-tsv file, well formed or not."""
    fmt = draw(st.sampled_from(["generic-csv", "ml100k-tsv"]))
    noise = draw(st.integers(0, 2))
    rare = lambda: draw(st.integers(0, 7)) == 0  # noqa: E731
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r"]]))
    quoting = fmt == "generic-csv" and draw(st.booleans())
    labels = st.sampled_from(LABELS[: 10 if fmt == "ml100k-tsv" or quoting else 9])
    lines = []
    width, sep = 4, "\t"
    if fmt == "generic-csv":
        header = draw(st.sampled_from(HEADERS + (BAD_HEADERS if noise == 2 else [])))
        if not (noise == 2 and rare()):  # else a file of rows, or empty, without one
            lines.append(header)
        width, sep = (4 if header.endswith("timestamp") else 3), ","
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        if pairs and draw(st.integers(0, 5)) == 0:  # a pair given before
            pair = draw(st.sampled_from(pairs))
        else:
            pair = [draw(labels), draw(labels)]
            pairs.append(pair)
        rating = draw(st.sampled_from(OFF_GRID if noise and rare() else GOOD_RATINGS))
        fields = (pair + [rating, draw(st.sampled_from(STAMPS))])[:width]
        if noise == 2 and rare():
            fields[2] = draw(st.sampled_from(BAD["rating"]))
        if noise == 2 and width == 4 and rare():
            fields[3] = draw(st.sampled_from(BAD["stamp"]))
        if quoting and rare():  # a label only the csv module reads
            fields[0] = draw(st.sampled_from(LABELS[10:]))
        if fmt == "generic-csv":
            fields = [_csv_field(f, quoting and rare()) for f in fields]
        line = sep.join(fields)
        if noise == 2 and rare():
            kind = draw(st.sampled_from(BAD["line"]))
            line = "" if kind == "blank" else sep.join(fields[:-1] if kind == "short" else fields + ["9"])
        lines.append(line)
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if text and draw(st.booleans()):
        text = text[: -1 - text.endswith("\r\n")]  # no line end after the last line
    return text, fmt


def outcome(load, path, fmt):
    try:
        ds = load(path, fmt, SCALE15)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = [ds.users, ds.items, ds.ratings] + ([] if ds.timestamps is None else [ds.timestamps])
    return (
        [(a.dtype, a.tolist()) for a in arrays],
        ds.timestamps is None,
        ds.user_labels,
        ds.item_labels,
    )


class TestLoaderMatchesRowOracle:
    @settings(max_examples=600)
    @given(rating_files(), st.sampled_from([1, 2, 5, 16, corpus._CHUNK_CHARS]))
    def test_load_matches_oracle(self, case, chunk_chars):
        # small chunks put chunk boundaries among the lines of small files
        text, fmt = case
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            corpus, "_CHUNK_CHARS", chunk_chars
        ):
            path = Path(tmp) / "ratings"
            path.write_bytes(text.encode("utf-8"))
            assert outcome(load_ratings, path, fmt) == outcome(oracles.load_ratings, path, fmt)

    def test_timestamp_beyond_int64_fails_after_the_checks(self, tmp_path):
        big = str(2**70)
        for text in (f"user,item,rating,timestamp\na,b,3,{big}\n",
                     f"user,item,rating,timestamp\na,b,3,{big}\na,b,4,1\n"):
            path = tmp_path / "r.csv"
            path.write_text(text)
            assert outcome(load_ratings, path, "generic-csv") == outcome(
                oracles.load_ratings, path, "generic-csv"
            )


# labels csv.writer quotes, or might be thought to, and a rating of every pair
QUOTING_LABELS = ["a,b", 'say "x"', "cr\rx", "lf\nx", "", " lead", "plain", '"', ","]
QUOTING_TRIPLES = [(u, i, 1.0 + (n % 9) / 2, n) for n, (u, i) in enumerate(
    (u, i) for u in QUOTING_LABELS for i in reversed(QUOTING_LABELS)
)]


class TestWriters:
    """The column writers give the row-by-row writers' bytes."""

    SCALE = RatingScale(0, 5, 0.5)
    TRIPLES = [
        ("plain", "i1", 4.5, 880),
        ("comma, user", 'quote "i"', 0.0, 881),
        ('say "hi"', "i1", 5.0, -2),
        ("plain", 'quote "i"', 2.5, 10**12),
        ("é", "line\nbreak", 1.0, 0),
    ]

    @pytest.mark.parametrize("stamped", [True, False])
    def test_ratings_bytes_and_round_trip(self, tmp_path, stamped):
        triples = self.TRIPLES + QUOTING_TRIPLES
        ds = oracles.from_triples([t if stamped else t[:3] for t in triples], self.SCALE)
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        corpus.write_ratings(ds, ours)
        oracles.write_ratings(ds, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        assert b"\r\n" in ours.read_bytes() and b'"comma, user"' in ours.read_bytes()
        assert b'"a,b"' in ours.read_bytes() and b'"say ""x"""' in ours.read_bytes()
        back = load_ratings(ours, "generic-csv", self.SCALE)
        assert (back.user_labels, back.item_labels) == (ds.user_labels, ds.item_labels)
        assert list(back.triples()) == list(ds.triples())
        assert (back.timestamps is None) == (not stamped)
        if stamped:
            assert back.timestamps.tolist() == ds.timestamps.tolist()

    def test_fold_manifest_bytes(self, tmp_path):
        ds = oracles.from_triples(self.TRIPLES, self.SCALE)
        folds = kfold_split(ds, 2, seed=3)
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        corpus.write_fold_manifest(folds, ours)
        oracles.write_fold_manifest(folds, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_fold_manifest_bytes_with_labels_that_need_quoting(self, tmp_path):
        folds = kfold_split(oracles.from_triples(QUOTING_TRIPLES, self.SCALE), 3, seed=1)
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        corpus.write_fold_manifest(folds, ours)
        oracles.write_fold_manifest(folds, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        assert b'"a,b"' in ours.read_bytes() and b'"say ""x"""' in ours.read_bytes()

    def test_fold_manifest_rejects_folds_with_other_labels(self, tmp_path):
        folds = kfold_split(oracles.from_triples(self.TRIPLES, self.SCALE), 2, seed=3)
        # the same codes under a relabelled user space
        test = folds[1].test
        relabelled = replace(test, user_labels=tuple(f"x{u}" for u in test.user_labels))
        path = tmp_path / "out.csv"
        with pytest.raises(CorpusError, match="^fold 1 test labels differ from fold 0's$"):
            corpus.write_fold_manifest([folds[0], FoldPair(folds[1].train, relabelled)], path)
        assert not path.exists()

    def test_fold_manifest_of_no_folds_is_a_header(self, tmp_path):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        corpus.write_fold_manifest([], ours)
        oracles.write_fold_manifest([], theirs)
        assert ours.read_bytes() == theirs.read_bytes() == b"fold,user,item,rating,split\r\n"

    def test_crlf_output_takes_the_split_path(self, tmp_path):
        ds = random_dataset(5, n_users=7, n_items=9)
        path = tmp_path / "out.csv"
        corpus.write_ratings(ds, path)
        text = path.read_bytes()
        assert text.count(b"\r\n") == ds.n_links + 1 and b'"' not in text
        assert outcome(load_ratings, path, "generic-csv") == outcome(
            oracles.load_ratings, path, "generic-csv"
        )


class TestFilter:
    def test_noop(self, fix4):
        out = filter_dataset(fix4, FilterSpec())
        assert list(out.triples()) == list(fix4.triples())
        assert out.user_labels == fix4.user_labels

    def test_item_filter_before_user_filter(self):
        # i1 has one rating and is dropped first; u2 then falls below the
        # user threshold even though it originally had 2 ratings.
        triples = [
            ("u0", "i0", 3),
            ("u0", "i2", 4),
            ("u1", "i0", 4),
            ("u1", "i2", 2),
            ("u2", "i0", 5),
            ("u2", "i1", 1),
        ]
        ds = oracles.from_triples(triples, SCALE15)
        out = filter_dataset(ds, FilterSpec(min_item_ratings=2, min_user_ratings=2))
        assert "i1" not in out.item_labels
        assert "u2" not in out.user_labels
        assert out.n_links == 4

    def test_top_items(self):
        triples = [("u0", "i0", 3), ("u1", "i0", 4), ("u0", "i1", 2), ("u1", "i2", 5)]
        ds = oracles.from_triples(triples, SCALE15)
        out = filter_dataset(ds, FilterSpec(top_items=1))
        assert out.item_labels == ("i0",)
        assert out.n_links == 2

    def test_all_removed(self, fix4):
        with pytest.raises(CorpusError, match="removed all"):
            filter_dataset(fix4, FilterSpec(min_user_ratings=100))

    def test_densify(self):
        triples = [("u0", "i0", 3), ("u1", "i1", 4), ("u1", "i0", 2)]
        ds = oracles.from_triples(triples, SCALE15)
        out = filter_dataset(ds, FilterSpec(min_item_ratings=2))
        assert out.n_items == 1
        assert out.users.max() == out.n_users - 1


class TestKfold:
    def test_fix4_fold_sizes(self, fix4):
        folds = kfold_split(fix4, 5, seed=1)
        assert [pair.test.n_links for pair in folds] == [2] * 5

    def test_partition(self):
        ds = random_dataset(3, n_users=10, n_items=12)
        folds = kfold_split(ds, 4, seed=9)
        all_test = []
        for pair in folds:
            rows = list(pair.test.triples())
            all_test.extend(rows)
            assert pair.train.n_links + pair.test.n_links == ds.n_links
            assert not set(rows) & set(pair.train.triples())
        assert sorted(all_test) == sorted(ds.triples())
        sizes = [pair.test.n_links for pair in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self, fix4):
        a = kfold_split(fix4, 5, seed=42)
        b = kfold_split(fix4, 5, seed=42)
        for pa, pb in zip(a, b):
            assert list(pa.test.triples()) == list(pb.test.triples())

    def test_bad_k(self, fix4):
        with pytest.raises(CorpusError):
            kfold_split(fix4, 1, seed=0)
        with pytest.raises(CorpusError):
            kfold_split(fix4, 11, seed=0)

    def test_manifest(self, fix4, tmp_path):
        folds = kfold_split(fix4, 5, seed=0)
        path = tmp_path / "folds.csv"
        corpus.write_fold_manifest(folds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fold,user,item,rating,split"
        assert len(lines) == 1 + 5 * 10


class TestStats:
    def test_fix4(self, fix4):
        st = dataset_stats(fix4)
        assert (st.users, st.items, st.links) == (4, 4, 10)
        assert st.sparsity == pytest.approx(1 - 10 / 16)

    def test_empty(self):
        ds = oracles.from_triples([], SCALE15)
        st = dataset_stats(ds)
        assert (st.users, st.items, st.links, st.sparsity) == (0, 0, 0, 0.0)
