import math
import re
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diffrec import bigraph, simkit
from diffrec.corpus import RatingScale
from diffrec.simkit import (
    SimilarityError,
    SimilarityMatrix,
    cosine_matrix,
    pcc_matrix,
    pim_matrix,
)

import oracles
from conftest import average_cri_ratio, cri_ratios, random_dataset


FIX4_AR = 0.3889  # hand enumeration over all 6 pairs, both axes


class TestCosine:
    def test_fix4_u3_row(self, fix4_graph, uid):
        cs = cosine_matrix(fix4_graph, "users")
        u3 = uid["u3"]
        assert cs.values[u3, uid["u1"]] == pytest.approx(0.956, abs=1e-3)
        assert cs.values[u3, uid["u2"]] == pytest.approx(0.131, abs=1e-3)
        assert cs.values[u3, uid["u4"]] == pytest.approx(0.374, abs=1e-3)

    def test_self_similarity(self, fix4_graph):
        cs = cosine_matrix(fix4_graph, "users")
        assert np.allclose(np.diag(cs.values), 1.0)

    def test_orthogonal_pair_zero(self):
        ds = oracles.from_triples(
            [("a", "x", 3), ("b", "y", 4)], RatingScale(1, 5, 1)
        )
        cs = cosine_matrix(bigraph.build_graph(ds), "users")
        assert cs.values[0, 1] == 0.0


class TestPcc:
    def test_fix4_u3_row(self, fix4_graph, uid):
        pcc = pcc_matrix(fix4_graph, "users")
        u3 = uid["u3"]
        assert pcc.values[u3, uid["u1"]] == pytest.approx(0.786, abs=1e-3)
        assert pcc.values[u3, uid["u2"]] == pytest.approx(1.000, abs=1e-3)
        assert pcc.values[u3, uid["u4"]] == pytest.approx(-1.000, abs=1e-3)

    def test_identical_vectors(self):
        triples = [("a", "x", 2), ("a", "y", 5), ("b", "x", 2), ("b", "y", 5)]
        ds = oracles.from_triples(triples, RatingScale(1, 5, 1))
        pcc = pcc_matrix(bigraph.build_graph(ds), "users")
        assert pcc.values[0, 1] == pytest.approx(1.0)

    def test_empty_cri_undefined(self):
        ds = oracles.from_triples(
            [("a", "x", 3), ("b", "y", 4)], RatingScale(1, 5, 1)
        )
        pcc = pcc_matrix(bigraph.build_graph(ds), "users")
        assert not pcc.defined[0, 1]
        assert pcc.values[0, 1] == 0.0


class TestAverageCriRatio:
    def test_fix4_users(self, fix4_graph):
        assert average_cri_ratio(fix4_graph, "users") == pytest.approx(FIX4_AR, abs=1e-4)

    def test_fix4_items(self, fix4_graph):
        assert average_cri_ratio(fix4_graph, "items") == pytest.approx(FIX4_AR, abs=1e-4)

    def test_identical_sets(self):
        triples = [("a", "x", 2), ("a", "y", 5), ("b", "x", 3), ("b", "y", 4)]
        ds = oracles.from_triples(triples, RatingScale(1, 5, 1))
        assert average_cri_ratio(bigraph.build_graph(ds), "users") == pytest.approx(1.0)

    def test_single_node_rejected(self):
        ds = oracles.from_triples([("a", "x", 3)], RatingScale(1, 5, 1))
        with pytest.raises(SimilarityError):
            average_cri_ratio(bigraph.build_graph(ds), "users")

    @pytest.mark.parametrize("call", [average_cri_ratio, pim_matrix], ids=["ar", "pim"])
    def test_degrees_past_exact_counts_are_rejected(self, fix4_graph, call):
        top = int(fix4_graph.user_degree.max())
        with mock.patch.object(simkit, "_FLOAT32_EXACT", top - 1):
            with pytest.raises(SimilarityError, match=(
                rf"^a node has {top} ratings, more than the {top - 1} whose co-rating "
                rf"counts are exact in float32$"
            )):
                call(fix4_graph, "users")
        with mock.patch.object(simkit, "_FLOAT32_EXACT", top):
            call(fix4_graph, "users")

    def test_matches_scalar_oracle(self, fix4):
        expected = oracles.average_cri_ratio(oracles.user_items_map(fix4))
        g = bigraph.build_graph(fix4)
        assert average_cri_ratio(g, "users") == pytest.approx(expected, abs=1e-12)


class TestPim:
    def test_fix4_u3_u1(self, fix4_graph, uid):
        pim = pim_matrix(fix4_graph, "users")
        assert pim.values[uid["u3"], uid["u1"]] == pytest.approx(0.752, abs=1e-3)

    def test_fix4_factors(self, fix4, uid, iid):
        # scalar decomposition of the u3/u1 value
        vecs = oracles.user_items_map(fix4)
        col_deg = {i: len(us) for i, us in oracles.item_users_map(fix4).items()}
        u3, u1 = uid["u3"], uid["u1"]
        val = oracles.pim_pair(vecs[u3], vecs[u1], col_deg, FIX4_AR)
        ln_factor = math.log(1 + 1.0 / FIX4_AR)
        assert ln_factor == pytest.approx(1.2730, abs=1e-4)
        assert val == pytest.approx(0.752, abs=1e-3)

    def test_sign_matches_pcc(self, fix4_graph, uid):
        pim = pim_matrix(fix4_graph, "users")
        pcc = pcc_matrix(fix4_graph, "users")
        off = ~np.eye(4, dtype=bool) & pim.defined
        assert np.all(np.sign(pim.values[off]) == np.sign(pcc.values[off]))

    def test_empty_cri_undefined(self):
        # a and b share no item; c co-rates with each, so AR > 0
        ds = oracles.from_triples(
            [
                ("a", "x", 3), ("a", "z", 4),
                ("b", "y", 4), ("b", "w", 2),
                ("c", "x", 2), ("c", "y", 5), ("c", "v", 1),
            ],
            RatingScale(1, 5, 1),
        )
        g = bigraph.build_graph(ds)
        assert average_cri_ratio(g, "users") > 0
        pim = pim_matrix(g, "users")
        assert not pim.defined[0, 1]
        assert pim.values[0, 1] == 0.0
        assert pim.defined[0, 2] and pim.defined[1, 2]

    def test_no_co_rating_rejected(self):
        # AR = 0: no two users share an item
        ds = oracles.from_triples(
            [("a", "x", 3), ("a", "z", 4), ("b", "y", 4), ("b", "w", 2)],
            RatingScale(1, 5, 1),
        )
        g = bigraph.build_graph(ds)
        assert average_cri_ratio(g, "users") == 0.0
        with pytest.raises(SimilarityError, match="co-rat"):
            pim_matrix(g, "users")

    def test_unknown_penalty_variant(self, fix4_graph):
        with pytest.raises(SimilarityError, match="penalty variant"):
            pim_matrix(fix4_graph, "users", "bogus")

    def test_global_max_variant(self, fix4, fix4_graph, uid):
        ar = average_cri_ratio(fix4_graph, "users")
        pim = pim_matrix(fix4_graph, "users", "global-max")
        vecs = oracles.user_items_map(fix4)
        col_deg = {i: len(us) for i, us in oracles.item_users_map(fix4).items()}
        expected = oracles.pim_pair(
            vecs[uid["u3"]], vecs[uid["u4"]], col_deg, ar, max_degree=3
        )
        assert pim.values[uid["u3"], uid["u4"]] == pytest.approx(expected, abs=1e-12)

    def test_cri_reward_monotone(self):
        # the log reward strictly grows with the intersection/union ratio
        ar = 0.4
        vals = [math.log(1 + r / ar) for r in (0.1, 0.3, 0.5, 0.9)]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)

    def test_activity_penalty_never_raises_similarity(self):
        # same CRI deviations; the second graph doubles one user's
        # non-shared degree with mean-preserving ratings. With two users
        # the pair's ratio over AR is 1 in both graphs.
        base = [
            ("a", "c1", 4), ("a", "c2", 3), ("a", "c3", 5),
            ("b", "c1", 2), ("b", "c2", 3), ("b", "c3", 4),
            ("a", "x1", 4), ("a", "x2", 4),
        ]
        extra = [("a", f"y{n}", 4) for n in range(6)]
        scale = RatingScale(1, 5, 1)
        g1 = bigraph.build_graph(oracles.from_triples(base, scale))
        g2 = bigraph.build_graph(oracles.from_triples(base + extra, scale))
        s1 = pim_matrix(g1, "users").values[0, 1]
        s2 = pim_matrix(g2, "users").values[0, 1]
        assert abs(s2) <= abs(s1)


class TestMatrixVsScalarOracle:
    @pytest.mark.parametrize("seed", range(50))
    def test_random_6x6(self, seed):
        ds = random_dataset(seed, n_users=6, n_items=6, density=0.6)
        g = bigraph.build_graph(ds)
        by_user = oracles.user_items_map(ds)
        by_item = oracles.item_users_map(ds)
        col_deg = {i: len(us) for i, us in by_item.items()}
        dims = range(ds.n_items)

        cs = cosine_matrix(g, "users")
        pcc = pcc_matrix(g, "users")
        ar = average_cri_ratio(g, "users")
        pim = pim_matrix(g, "users")
        for a in range(ds.n_users):
            for b in range(a + 1, ds.n_users):
                va, vb = by_user.get(a, {}), by_user.get(b, {})
                exp_cs = oracles.cosine_pair(va, vb, dims)
                if exp_cs is not None:
                    assert cs.values[a, b] == pytest.approx(exp_cs, abs=1e-9)
                exp_pcc = oracles.pcc_pair(va, vb)
                if exp_pcc is None:
                    assert not pcc.defined[a, b]
                else:
                    assert pcc.values[a, b] == pytest.approx(exp_pcc, abs=1e-9)
                exp_pim = oracles.pim_pair(va, vb, col_deg, ar)
                if exp_pim is None:
                    assert not pim.defined[a, b]
                else:
                    assert pim.values[a, b] == pytest.approx(exp_pim, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_item_axis_matches_oracle(self, seed):
        ds = random_dataset(100 + seed, n_users=6, n_items=6, density=0.6)
        g = bigraph.build_graph(ds)
        by_item = oracles.item_users_map(ds)
        row_deg = {u: len(its) for u, its in oracles.user_items_map(ds).items()}
        ar = average_cri_ratio(g, "items")
        pim = pim_matrix(g, "items")
        for a in range(ds.n_items):
            for b in range(a + 1, ds.n_items):
                exp = oracles.pim_pair(
                    by_item.get(a, {}), by_item.get(b, {}), row_deg, ar
                )
                if exp is None:
                    assert not pim.defined[a, b]
                else:
                    assert pim.values[a, b] == pytest.approx(exp, abs=1e-9)


@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(2, 7),
    n_items=st.integers(2, 7),
    axis=st.sampled_from(["users", "items"]),
    variant=st.sampled_from(["pair-max", "global-max"]),
)
@settings(max_examples=80)
def test_pim_matches_oracle_with_independent_ar(seed, n_users, n_items, axis, variant):
    # every node has a rating, so the oracle's AR averages over all pairs
    ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=0.4)
    g = bigraph.build_graph(ds)
    by_user, by_item = oracles.user_items_map(ds), oracles.item_users_map(ds)
    vecs, cols = (by_user, by_item) if axis == "users" else (by_item, by_user)
    ar = oracles.average_cri_ratio(vecs)
    if ar == 0:
        with pytest.raises(SimilarityError):
            pim_matrix(g, axis, variant)
        return
    col_degree = {c: len(v) for c, v in cols.items()}
    max_degree = max(len(v) for v in vecs.values()) if variant == "global-max" else None
    pim = pim_matrix(g, axis, variant)
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            exp = oracles.pim_pair(vecs[a], vecs[b], col_degree, ar, max_degree)
            if exp is None:
                assert not pim.defined[a, b]
            else:
                assert pim.values[a, b] == pytest.approx(exp, abs=1e-9)


class TestDispatch:
    @pytest.mark.parametrize("axis", ["users", "items"])
    @pytest.mark.parametrize(
        "measure,variant",
        [("cosine", "pair-max"), ("pcc", "pair-max"), ("pim", "pair-max"), ("pim", "global-max")],
    )
    def test_bitwise_equal_to_normalized_matrix(self, measure, variant, axis):
        g = bigraph.build_graph(random_dataset(11, n_users=7, n_items=8, density=0.5))
        if measure == "pim":
            raw = pim_matrix(g, axis, variant)
        else:
            raw = {"cosine": cosine_matrix, "pcc": pcc_matrix}[measure](g, axis)
        got = simkit.similarity(g, measure, axis, variant)
        expected = oracles.normalize(raw)
        assert got.axis == expected.axis and got.normalized
        assert np.array_equal(got.values, expected.values)
        assert np.array_equal(got.defined, expected.defined)

    def test_unknown_measure(self, fix4_graph):
        with pytest.raises(SimilarityError, match="unknown similarity measure 'bogus'"):
            simkit.similarity(fix4_graph, "bogus", "users")


class TestSymmetryAndBounds:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("axis", ["users", "items"])
    def test_symmetric(self, seed, axis):
        ds = random_dataset(seed, n_users=7, n_items=8, density=0.5)
        g = bigraph.build_graph(ds)
        for m in (
            cosine_matrix(g, axis),
            pcc_matrix(g, axis),
            pim_matrix(g, axis),
        ):
            assert np.array_equal(m.values, m.values.T)
            assert np.array_equal(m.defined, m.defined.T)

    @pytest.mark.parametrize("seed", range(8))
    def test_cs_pcc_bounds(self, seed):
        ds = random_dataset(seed, n_users=7, n_items=8, density=0.5)
        g = bigraph.build_graph(ds)
        for m in (cosine_matrix(g, "users"), pcc_matrix(g, "users")):
            assert m.values.min() >= -1 - 1e-9
            assert m.values.max() <= 1 + 1e-9


def _sink_fed(values, defined, rows):
    """The rows sink of every row of a symmetric raw matrix, given its tile
    pairs of `rows`-row spans as a build gives them: on or above the
    diagonal, each row span's diagonal pair last, undefined pairs NaN."""
    n = len(values)
    marked = np.where(defined, values, np.nan)
    with mock.patch.object(simkit, "_TILE_BYTES", 8 * n * rows):
        spans = simkit._spans(n, n)
    assert len(spans) == -(-n // rows)
    sink = simkit._Rows(n, np.arange(n))
    for k, b in enumerate(spans):
        for c in (*spans[k + 1 :], b):
            sink.put(b, c, marked[b, c].copy())
    return sink


def _normalized(values, defined, rows):
    return _sink_fed(values, defined, rows).finish("users")


class TestNormalize:
    def test_minmax(self):
        values = np.array(
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        )
        for rows in (1, 2, 3):
            out = _normalized(values, np.ones((3, 3), dtype=bool), rows)
            assert out.values[0, 1] == 0.0
            assert out.values[0, 2] == 0.5
            assert out.values[1, 2] == 1.0
            assert np.all(np.diag(out.values) == 1.0)

    def test_degenerate_all_equal(self):
        values = np.full((3, 3), 0.7)
        off = ~np.eye(3, dtype=bool)
        for rows in (1, 2, 3):
            out = _normalized(values, np.ones((3, 3), dtype=bool), rows)
            assert np.all(out.values[off] == 0.5)

    def test_undefined_maps_to_zero(self):
        values = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, -0.5], [0.0, -0.5, 1.0]])
        defined = np.ones((3, 3), dtype=bool)
        defined[0, 2] = defined[2, 0] = False
        for rows in (1, 2, 3):
            out = _normalized(values, defined, rows)
            assert out.values[0, 2] == 0.0 and not out.defined[0, 2]

    def test_rank_order_preserved(self, fix4_graph, uid):
        out = simkit.similarity(fix4_graph, "pcc", "users")
        u3 = uid["u3"]
        assert (
            out.values[u3, uid["u2"]]
            > out.values[u3, uid["u1"]]
            > out.values[u3, uid["u4"]]
        )


class TestTopK:
    def test_fix4_rankings(self, fix4_graph, uid):
        pcc = simkit.similarity(fix4_graph, "pcc", "users")
        cs = simkit.similarity(fix4_graph, "cosine", "users")
        u3 = uid["u3"]
        assert oracles.top_k_neighbors(pcc, u3, 1)[0][0] == uid["u2"]
        assert oracles.top_k_neighbors(cs, u3, 1)[0][0] == uid["u1"]
        # full neighbor orderings for u3 under each measure
        assert [n for n, _ in oracles.top_k_neighbors(cs, u3, 3)] == [
            uid["u1"], uid["u4"], uid["u2"]
        ]
        assert [n for n, _ in oracles.top_k_neighbors(pcc, u3, 3)] == [
            uid["u2"], uid["u1"], uid["u4"]
        ]

    def test_saturation(self, fix4_graph, uid):
        pcc = simkit.similarity(fix4_graph, "pcc", "users")
        assert len(oracles.top_k_neighbors(pcc, uid["u3"], 99)) == 3

    def test_tie_break_by_id(self):
        values = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.2], [0.5, 0.2, 1.0]])
        m = SimilarityMatrix(
            axis="users", values=values, defined=np.ones((3, 3), dtype=bool),
            normalized=True,
        )
        assert [n for n, _ in oracles.top_k_neighbors(m, 0, 2)] == [1, 2]


@given(
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=12, unique=True),
    st.integers(1, 3),
)
@settings(max_examples=50)
def test_normalize_preserves_order(values, rows):
    n = len(values) + 1
    mat = np.zeros((n, n))
    mat[0, 1:] = values
    mat[1:, 0] = values
    out = _normalized(mat, np.ones((n, n), dtype=bool), rows)
    order_raw = np.argsort(mat[0, 1:], kind="stable")
    by_raw_order = out.values[0, 1:][order_raw]
    assert np.all(np.diff(by_raw_order) >= 0)


# ---------------------------------------------------------------------------
# The tiled core

MEASURE_CASES = [
    ("cosine", "pair-max"), ("pcc", "pair-max"), ("pim", "pair-max"), ("pim", "global-max")
]


def _raw(g, measure, axis, variant="pair-max", module=simkit):
    if measure == "pim":
        return module.pim_matrix(g, axis, variant)
    return {"cosine": module.cosine_matrix, "pcc": module.pcc_matrix}[measure](g, axis)


def _other_side(g, axis):
    return g.n_items if axis == "users" else g.n_users


def _bits(m):
    """values (signed zeros told apart) and defined, as bytes."""
    return m.values.tobytes(), m.defined.tobytes()


def _assert_marks_cleared(g, axis, measure, variant, rows):
    """The raw build at `rows`-row tiles (None: one tile) holds no NaN
    and +0.0 at every undefined pair, and has the dense oracle's defined
    flags and values: bitwise at one tile, within 1e-12 at several
    (diagonal tiles take the symmetric product, the others gemm).
    Returns the build, or None where both raise the same error."""
    tile = mock.patch.object(simkit, "_TILE_BYTES", 8 * _other_side(g, axis) * (rows or 10**6))
    try:
        expected = _raw(g, measure, axis, variant, module=oracles)
    except SimilarityError as exc:
        with tile, pytest.raises(SimilarityError, match=str(exc)):
            _raw(g, measure, axis, variant)
        return None
    with tile:
        got = _raw(g, measure, axis, variant)
    assert not np.isnan(got.values).any()
    assert got.values[~got.defined].tobytes() == bytes(8 * np.count_nonzero(~got.defined))
    assert got.defined.tobytes() == expected.defined.tobytes()
    if rows is None:
        assert got.values.tobytes() == expected.values.tobytes()
    else:
        np.testing.assert_allclose(got.values, expected.values, rtol=0, atol=1e-12)
    return got


@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(2, 9),
    n_items=st.integers(2, 9),
    density=st.sampled_from([0.2, 0.5, 0.9]),
    rows=st.integers(1, 3),
    measure=st.sampled_from(MEASURE_CASES),
    axis=st.sampled_from(["users", "items"]),
)
@settings(max_examples=150, deadline=None)
def test_tiles_agree_with_one_tile(seed, n_users, n_items, density, rows, measure, axis):
    # tiles of 1-3 rows against one tile holding every row
    g = bigraph.build_graph(random_dataset(seed, n_users=n_users, n_items=n_items, density=density))
    name, variant = measure
    try:
        whole = _raw(g, name, axis, variant)
    except SimilarityError:
        with mock.patch.object(simkit, "_TILE_BYTES", 8 * _other_side(g, axis) * rows):
            with pytest.raises(SimilarityError):
                _raw(g, name, axis, variant)
        return
    with mock.patch.object(simkit, "_TILE_BYTES", 8 * _other_side(g, axis) * rows):
        assert len(simkit._spans(whole.n, _other_side(g, axis))) > 1 or whole.n <= rows
        tiled = _raw(g, name, axis, variant)
        if name == "pim":
            assert average_cri_ratio(g, axis) == oracles.dense_average_cri_ratio(g, axis)
    np.testing.assert_allclose(tiled.values, whole.values, rtol=0, atol=1e-12)
    assert np.array_equal(tiled.defined, whole.defined)
    for m in (tiled, whole):
        assert np.array_equal(m.values, m.values.T)
        assert np.array_equal(m.defined, m.defined.T)


@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(2, 7),
    n_items=st.integers(2, 7),
    density=st.sampled_from([0.2, 0.5, 0.9]),
    flat=st.sampled_from([1.0, 3.0, 5.0]),
    rows=st.sampled_from([None, 1, 2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_undefined_pairs_hold_zero(seed, n_users, n_items, density, flat, rows):
    # knn_predict keeps neighbors by `values > 0` alone, which drops
    # undefined pairs only if each holds 0: raw and normalized, every
    # measure, variant and axis, with a zero-variance rater and a user and
    # an item that co-rate with no one. The builders mark undefined pairs
    # NaN tile by tile and clear the marks at the end.
    base = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
    triples = [(base.user_labels[u], base.item_labels[i], r) for u, i, r in base.triples()]
    triples += [("flat", base.item_labels[i], flat) for i in range(base.n_items)]
    triples += [("alone", "unshared", 2.0)]
    g = bigraph.build_graph(oracles.from_triples(triples, RatingScale(1, 5, 1)))
    for measure, variant in MEASURE_CASES:
        for axis in ("users", "items"):
            if _assert_marks_cleared(g, axis, measure, variant, rows) is None:
                continue
            try:
                norm = simkit.similarity(g, measure, axis, variant)
            except SimilarityError:  # no defined pair to normalize
                continue
            assert np.all(norm.values[~norm.defined] == 0.0)


class TestOneTileMatchesDenseOracle:
    """At bench shapes every axis is one tile, and the tiled core gives
    the dense matrix path's bits, signed zeros included."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("axis", ["users", "items"])
    @pytest.mark.parametrize("measure,variant", MEASURE_CASES)
    def test_bitwise(self, seed, axis, measure, variant):
        g = bigraph.build_graph(random_dataset(seed, n_users=9, n_items=12, density=0.4))
        assert len(simkit._spans(g.n_users, g.n_items)) == 1
        try:
            expected = _raw(g, measure, axis, variant, module=oracles)
        except SimilarityError as exc:
            with pytest.raises(SimilarityError, match=str(exc)):
                _raw(g, measure, axis, variant)
            return
        got = _raw(g, measure, axis, variant)
        assert _bits(got) == _bits(expected)
        assert _bits(simkit.similarity(g, measure, axis, variant)) == _bits(
            oracles.normalize(expected)
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("axis", ["users", "items"])
    def test_average_cri_ratio_bitwise(self, seed, axis):
        g = bigraph.build_graph(random_dataset(seed, n_users=9, n_items=12, density=0.4))
        assert average_cri_ratio(g, axis) == oracles.dense_average_cri_ratio(g, axis)

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_normalize_in_row_blocks_is_bitwise(self, rows):
        g = bigraph.build_graph(random_dataset(4, n_users=11, n_items=9, density=0.5))
        raw = pim_matrix(g, "users")
        got = _normalized(raw.values, raw.defined, rows)
        assert _bits(got) == _bits(oracles.normalize(raw))

    def test_similarity_normalizes_its_own_matrix(self, fix4_graph):
        # no second n x n copy: the raw arrays become the normalized ones
        made = []
        real = simkit.pcc_matrix

        def spy(*args):
            made.append(real(*args))
            return made[-1]

        with mock.patch.object(simkit, "pcc_matrix", spy):
            out = simkit.similarity(fix4_graph, "pcc", "users")
        assert out.values is made[0].values and out.defined is made[0].defined


class TestRatingsAtTheMean:
    """A rating equal to its node's mean centres to a stored 0.0 and still
    counts as rated, in the co-rating ratios and in the variance sums:
    the masks come from the adjacency, not from the centred values."""

    @staticmethod
    def graph():
        base = random_dataset(5, n_users=6, n_items=7, density=0.5)
        u, i = base.user_labels, base.item_labels
        triples = [(u[a], i[b], r) for a, b, r in base.triples()]
        triples += [("flat", i[b], 3) for b in range(4)]  # every rating at the mean
        triples += [("wide", i[b], r) for b, r in ((0, 1), (2, 3), (4, 5))]  # one at it
        triples += [(u[a], "same", 4) for a in range(3)]
        triples += [(u[a], "mid", r) for a, r in zip(range(3, 6), (2, 3, 4))]
        return bigraph.build_graph(oracles.from_triples(triples, RatingScale(1, 5, 1)))

    @pytest.mark.parametrize("rows", [None, 1, 2, 3])
    @pytest.mark.parametrize("axis", ["users", "items"])
    def test_ratios_and_defined_match_the_dense_oracles(self, axis, rows):
        g = self.graph()
        _, mask, deg, _ = oracles._axis_vectors(g, axis)
        tile = mock.patch.object(simkit, "_TILE_BYTES", 8 * _other_side(g, axis) * (rows or 10**6))
        with tile:
            ratios, ar = cri_ratios(g, axis)
        expected_ratios, expected_ar = oracles._cri_ratio(mask @ mask.T, deg)
        assert np.array_equal(ratios, expected_ratios) and ar == expected_ar
        for name, variant in MEASURE_CASES:
            assert _assert_marks_cleared(g, axis, name, variant, rows) is not None, name


class TestTileMemory:
    """A multi-tile build holds, beside its values, two tile slots, the
    positions and values of a fill's stored entries and a pair's
    products: no fresh tile per fill, no centred copy of the ratings, and
    no `defined` flags while the slots are alive."""

    RAW = {"pcc": pcc_matrix, "pim": pim_matrix, "cosine": cosine_matrix}

    # the raw builds, and the whole normalized builds of `similarity`
    @pytest.mark.parametrize("build", [*RAW, *(f"similarity-{name}" for name in RAW)])
    def test_traced_peak_beyond_values(self, build):
        measure = build.removeprefix("similarity-")
        run = self.RAW.get(build, lambda g, axis: simkit.similarity(g, measure, axis))
        g = bigraph.build_graph(random_dataset(0, n_users=2000, n_items=300, density=0.1))
        row_tile = 8 * g.n_users * 10
        with mock.patch.object(simkit, "_TILE_BYTES", row_tile):
            assert len(simkit._spans(g.n_items, g.n_users)) == 30
            run(g, "items")  # so that no first-call set-up is traced
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                m = run(g, "items")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # pim also holds its co-rating counts, one byte a pair here
        held = m.values.nbytes + (g.n_items**2 if measure == "pim" else 0)
        assert g.item_degree.max() < 256
        # 2.8 (pcc), 3.2 (pim) and 2.5 (cosine) row tiles when written,
        # against 4.5, 4.7 and 3.4 with a fresh tile per scatter; a third
        # slot adds 1, `defined` 0.56 and the centred copy of the ratings 3
        assert (peak - base - held) / row_tile < 3.5


_STORED = st.one_of(st.sampled_from([1.0, 3.0, 0.5]), st.floats(-1e6, 1e6, width=64))


@given(data=st.data(), m=st.integers(1, 6), fills=st.integers(1, 10))
@settings(max_examples=300)
def test_slot_fills_equal_fresh_scatters(data, m, fills):
    # each fill clears only what the last one wrote, so any sequence of
    # fills of any CSRs, spans and dtypes, with a fill squared in place
    # between, must read as a fresh zero tile with the entries scattered
    slot = simkit._Slot(3, m)
    for _ in range(fills):
        n = data.draw(st.integers(1, 5))
        w = sp.csr_matrix(data.draw(hnp.arrays(np.float64, (n, m), elements=_STORED)))
        lo = data.draw(st.integers(0, n - 1))
        span = slice(lo, data.draw(st.integers(lo + 1, min(lo + 3, n))))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        values = None
        if data.draw(st.booleans()):  # values other than the stored data
            w = sp.csr_matrix((w.data * -0.5 + 2.0, w.indices, w.indptr), shape=w.shape)
            values = w.data[w.indptr[span.start] : w.indptr[span.stop]]
        tile = slot.fill(w, span, values, dtype)
        expected = oracles._scatter(w, span, dtype)
        assert tile.dtype == expected.dtype and tile.shape == expected.shape
        assert tile.tobytes() == expected.tobytes()
        assert not slot.buf.view(np.uint8)[tile.nbytes :].any()
        if data.draw(st.booleans()):
            np.multiply(tile, tile, out=tile)


@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(2, 14),
    n_items=st.integers(2, 14),
    density=st.sampled_from([0.2, 0.4, 0.9]),
    kind=st.sampled_from(["random", "flat and alone"]),
    tile=st.sampled_from([1, 2, 3, None]),
    measure=st.sampled_from(MEASURE_CASES),
    axis=st.sampled_from(["users", "items"]),
    picked=st.sets(st.integers(0, 13)),
)
# a graph whose pcc items diagonal tile differs between numpy's symmetric
# product and a gemm in the last bits
@example(seed=5, n_users=9, n_items=12, density=0.4, kind="random", tile=None,
         measure=("pcc", "pair-max"), axis="items", picked={0})
@settings(max_examples=300, deadline=None)
def test_builds_are_bitwise_the_four_tile_builds(
    seed, n_users, n_items, density, kind, tile, measure, axis, picked
):
    # the two reused slots against a fresh dense tile per scatter, with
    # the same spans: whole raw matrices and some rows of normalized ones
    g = _edge_graph(kind, seed, n_users, n_items, density)
    name, variant = measure
    n = g.n_users if axis == "users" else g.n_items
    rows = sorted(r for r in picked if r < n) or [n - 1]
    tiles = mock.patch.object(simkit, "_TILE_BYTES", 8 * _other_side(g, axis) * (tile or 10**6))
    for chosen in (None, rows):
        with tiles:
            try:
                expected = oracles.four_tile_matrix(g, name, axis, variant, chosen)
            except SimilarityError as exc:
                with pytest.raises(SimilarityError, match=f"^{re.escape(str(exc))}$"):
                    if chosen is None:
                        _raw(g, name, axis, variant)
                    else:
                        simkit.similarity(g, name, axis, variant, rows=chosen)
                continue
            if chosen is None:
                got = _raw(g, name, axis, variant)
            else:
                got = simkit.similarity(g, name, axis, variant, rows=chosen)
        assert _bits(got) == _bits(expected)


class TestMemoryCeiling:
    # (build, rows it keeps, bytes a pair of the whole matrix): pim's
    # co-rating counts take one byte a pair, as no degree reaches 256
    @pytest.mark.parametrize("call, kept, pair_bytes", [
        (lambda g: cosine_matrix(g, "items"), 4, 0),
        (lambda g: pcc_matrix(g, "items"), 4, 0),
        (lambda g: pim_matrix(g, "items"), 4, 1),
        (lambda g: average_cri_ratio(g, "items"), 4, 1),
        (lambda g: simkit.similarity(g, "pim", "items"), 4, 1),
        (lambda g: simkit.similarity(g, "pcc", "items", rows=[1, 3]), 2, 0),
        (lambda g: simkit.similarity(g, "pim", "items", rows=[2]), 1, 1),
    ], ids=["cosine", "pcc", "pim", "ar", "similarity", "pcc-rows", "pim-rows"])
    def test_too_big_fails_before_any_tile(self, fix4_graph, call, kept, pair_bytes):
        n, m = fix4_graph.n_items, fix4_graph.n_users
        # one tile of n rows: two n x m slots and n x n products
        need = (9 * kept + pair_bytes * n) * n + 8 * n * (2 * m + simkit._PRODUCTS_ALIVE * n)
        with mock.patch.object(simkit, "_memory_limit", return_value=need - 1), \
                mock.patch.object(simkit._Slot, "fill", side_effect=AssertionError("tile built")):
            with pytest.raises(simkit.MemoryCeilingError) as info:
                call(fix4_graph)
        msg = str(info.value)
        assert f"over {n} items needs {need:,} bytes" in msg
        assert msg.split()[0] in {"cosine", "pcc", "pim"}

    def test_fitting_size_runs(self, fix4_graph):
        n, m = fix4_graph.n_items, fix4_graph.n_users
        need = (9 + 1) * n * n + 8 * n * (2 * m + simkit._PRODUCTS_ALIVE * n)
        with mock.patch.object(simkit, "_memory_limit", return_value=need):
            pim_matrix(fix4_graph, "items")

    def test_message_names_measure_axis_size_and_bytes(self, fix4_graph):
        # 4 x 4 values and defined flags, two slots of 4 rows of 4 floats, and
        # the products of the one tile pair, each 4 x 4 floats
        need = 9 * 4 * 4 + 8 * 4 * (2 + simkit._PRODUCTS_ALIVE) * 4
        with mock.patch.object(simkit, "_memory_limit", return_value=need - 1):
            with pytest.raises(SimilarityError, match=(
                rf"^pcc similarity over 4 users needs {need:,} bytes \(0 MiB\), "
                rf"more than the {need - 1:,} this process may hold$"
            )):
                pcc_matrix(fix4_graph, "users")

    def test_ceiling_is_a_similarity_error(self):
        assert issubclass(simkit.MemoryCeilingError, SimilarityError)

    def test_limit_reader(self):
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        for soft, expected in ((1000, 1000), (simkit.resource.RLIM_INFINITY, phys)):
            with mock.patch.object(simkit.resource, "getrlimit", return_value=(soft, soft)):
                assert simkit._memory_limit() == expected


# ---------------------------------------------------------------------------
# Plain passes: the unmasked quotient and normalization give the bits of
# the masked and boolean-indexed expressions they replace

_FINITE = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
_DENOM = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-150, 1e150))


@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
@settings(max_examples=200)
def test_quotient_matches_masked_divide(data, shape):
    # the marked quotient is NaN exactly where denom > 0 fails, whatever
    # num is, and the masked divide's bits elsewhere; unmarked, +0 there
    num = data.draw(hnp.arrays(np.float64, shape, elements=_FINITE))
    denom = data.draw(hnp.arrays(np.float64, shape, elements=_DENOM))
    ok = denom > 0
    expected = np.divide(num, denom, out=np.zeros_like(num), where=ok)
    marked = simkit._marked(num.copy(), denom.copy())
    assert np.array_equal(np.isnan(marked), ~ok)
    assert marked[ok].tobytes() == expected[ok].tobytes()
    assert simkit._unmarked(marked).tobytes() == expected.tobytes()


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 7),
    rows=st.integers(1, 3),
    density=st.sampled_from([0.1, 0.5, 0.9]),
    kind=st.sampled_from(["signed", "few", "all-equal", "none-defined"]),
)
@example(seed=0, n=1, rows=1, density=0.9, kind="signed")
@example(seed=1, n=5, rows=2, density=0.9, kind="all-equal")
@example(seed=2, n=4, rows=3, density=0.9, kind="none-defined")
@settings(max_examples=200)
def test_normalize_matches_oracle_in_row_blocks(seed, n, rows, density, kind):
    rng = np.random.default_rng(seed)
    if kind == "few":  # ties, zeros and negatives
        values = rng.choice([-0.75, -0.5, 0.0, 0.25], size=(n, n))
    else:
        values = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-5, 5, size=(n, n))
    defined = rng.random((n, n)) < density
    if kind == "all-equal":  # the 0.5 path
        values[defined] = 0.3
    if kind == "none-defined":  # the diagonal alone, or nothing
        defined = np.diag(np.diag(defined))
    # symmetric, as every raw build is
    values = np.triu(values) + np.triu(values, 1).T
    defined = np.triu(defined) | np.triu(defined, 1).T
    sink = _sink_fed(values, defined, rows)
    try:
        expected = oracles.normalize(SimilarityMatrix("users", values, defined))
    except SimilarityError as exc:
        with pytest.raises(SimilarityError, match=f"^{re.escape(str(exc))}$"):
            sink.finish("users")
        # the error comes before any write
        assert sink.values.tobytes() == (np.where(defined, values, np.nan) + 0.0).tobytes()
        return
    assert _bits(sink.finish("users")) == _bits(expected)


# ---------------------------------------------------------------------------
# Rows mode: some rows of the normalized matrix, never the whole of it


def _edge_graph(kind, seed=0, n_users=2, n_items=2, density=0.5):
    """A random graph; with a zero-variance rater and a user and an item
    that co-rate with no one; a graph whose one defined pair of either
    axis maps to 0.5; or one in which no two nodes co-rate."""
    scale = RatingScale(1, 5, 1)
    if kind == "all equal":
        triples = [("a", "x", 1), ("a", "y", 5), ("b", "x", 2), ("b", "y", 4), ("c", "z", 3)]
    elif kind == "no pair":
        triples = [("a", "x", 3), ("b", "y", 4)]
    else:
        base = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
        triples = [(base.user_labels[u], base.item_labels[i], r) for u, i, r in base.triples()]
        if kind == "flat and alone":
            triples += [("flat", base.item_labels[i], 3) for i in range(base.n_items)]
            triples += [("alone", "unshared", 2)]
    return bigraph.build_graph(oracles.from_triples(triples, scale))


@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(2, 8),
    n_items=st.integers(2, 8),
    density=st.sampled_from([0.2, 0.5, 0.9]),
    kind=st.sampled_from(["random", "flat and alone", "all equal", "no pair"]),
    tile=st.sampled_from([1, 2, 3, None]),
    chosen=st.sampled_from(["one row", "all rows", "one tile", "across tiles"]),
    measure=st.sampled_from(MEASURE_CASES),
    axis=st.sampled_from(["users", "items"]),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_rows_are_bitwise_the_rows_of_the_whole_matrix(
    seed, n_users, n_items, density, kind, tile, chosen, measure, axis, data
):
    g = _edge_graph(kind, seed, n_users, n_items, density)
    name, variant = measure
    n = g.n_users if axis == "users" else g.n_items
    h = tile or n  # rows of a tile
    if chosen == "one row":
        rows = [data.draw(st.integers(0, n - 1))]
    elif chosen == "all rows":
        rows = list(range(n))
    elif chosen == "one tile":
        lo = h * data.draw(st.integers(0, (n - 1) // h))
        rows = sorted(data.draw(st.sets(st.integers(lo, min(lo + h, n) - 1), min_size=1)))
    else:  # the first and last rows, so more than one tile when there is
        rows = sorted(data.draw(st.sets(st.integers(0, n - 1))) | {0, n - 1})
    tiles = mock.patch.object(simkit, "_TILE_BYTES", 8 * _other_side(g, axis) * (tile or 10**6))
    with tiles:
        assert len(simkit._spans(n, _other_side(g, axis))) == -(-n // h)
        try:
            whole = simkit.similarity(g, name, axis, variant)
        except SimilarityError as exc:
            with pytest.raises(SimilarityError, match=f"^{re.escape(str(exc))}$"):
                simkit.similarity(g, name, axis, variant, rows=rows)
            return
        got = simkit.similarity(g, name, axis, variant, rows=np.array(rows))
    assert got.normalized and got.axis == axis and got.n == n
    assert got.rows.tolist() == rows
    assert got.values.tobytes() == whole.values[rows].tobytes()
    assert got.defined.tobytes() == whole.defined[rows].tobytes()


class TestRowsMode:
    @pytest.mark.parametrize("measure", ["pcc", "pim"])
    @pytest.mark.parametrize("axis", ["users", "items"])
    def test_one_defined_pair_maps_to_one_half(self, measure, axis):
        g = _edge_graph("all equal")
        got = simkit.similarity(g, measure, axis, rows=[0, 2])
        # a-b (x-y) is the axis's one defined pair; c (z) co-rates with no one
        assert got.values.tolist() == [[1.0, 0.5, 0.0], [0.0, 0.0, 1.0]]
        assert got.defined.tolist() == [[True, True, False], [False, False, True]]

    @pytest.mark.parametrize("rows", [[1, 0], [1, 1], [4], [-1], [[0, 1]]])
    def test_rows_must_be_sorted_unique_ids(self, fix4_graph, rows):
        message = "^rows must be sorted, unique ids of the 4 users$"
        with pytest.raises(SimilarityError, match=message):
            simkit.similarity(fix4_graph, "pcc", "users", rows=rows)

    def test_no_rows_still_checks_for_a_defined_pair(self, fix4_graph):
        got = simkit.similarity(fix4_graph, "pim", "items", rows=[])
        assert got.values.shape == got.defined.shape == (0, 4)
        with pytest.raises(SimilarityError, match="^no defined off-diagonal values"):
            simkit.similarity(_edge_graph("no pair"), "pcc", "users", rows=[])

    def test_pim_rows_allocate_no_square_float64_array(self):
        g = bigraph.build_graph(random_dataset(3, n_users=40, n_items=600, density=0.2))
        n = g.n_items
        rows = np.arange(0, n, 97)

        def traced_peak(rows):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                simkit.similarity(g, "pim", "items", rows=rows)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # 50-row tiles: a tile pair's float64 arrays are 50 x 50
        with mock.patch.object(simkit, "_TILE_BYTES", 8 * g.n_users * 50):
            simkit.similarity(g, "pim", "items", rows=rows)  # first-call set-up untraced
            # the whole matrix's build does allocate one, so the peak tells
            assert traced_peak(None) > 8 * n * n
            assert traced_peak(rows) < 8 * n * n // 2


@pytest.mark.parametrize("tile_bytes", [8, 8 * 130, 8 * 1000])
@pytest.mark.parametrize("axis", ["users", "items"])
@pytest.mark.parametrize("seed", range(3))
def test_mean_ratio_replays_numpy_pairwise_sum(seed, axis, tile_bytes):
    # runs of at most 128 values (numpy's own unrolled run) and 130, below
    # one row of the 140 or 150 ratios, and 1000, a few rows, so the
    # halving recurses below a tile in every case
    g = bigraph.build_graph(random_dataset(seed, n_users=150, n_items=140, density=0.05))
    n = g.n_users if axis == "users" else g.n_items
    with mock.patch.object(simkit, "_TILE_BYTES", tile_bytes), \
            mock.patch.object(simkit, "_ratios", wraps=simkit._ratios) as ratios:
        got = average_cri_ratio(g, axis)
    # one call per run summed, and one for the whole ratio matrix
    assert ratios.call_count - 1 >= n * n // max(tile_bytes // 8, 128)
    assert got == oracles.dense_average_cri_ratio(g, axis)
