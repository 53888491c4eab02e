import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrec import bigraph, corpus, simkit
from diffrec.corpus import RatingScale
from diffrec.simkit import (
    SimilarityError,
    SimilarityMatrix,
    average_cri_ratio,
    cosine_matrix,
    normalize,
    pcc_matrix,
    pim_matrix,
)

import oracles
from conftest import random_dataset


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
        ds = corpus.from_triples(
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
        ds = corpus.from_triples(triples, RatingScale(1, 5, 1))
        pcc = pcc_matrix(bigraph.build_graph(ds), "users")
        assert pcc.values[0, 1] == pytest.approx(1.0)

    def test_empty_cri_undefined(self):
        ds = corpus.from_triples(
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
        ds = corpus.from_triples(triples, RatingScale(1, 5, 1))
        assert average_cri_ratio(bigraph.build_graph(ds), "users") == pytest.approx(1.0)

    def test_single_node_rejected(self):
        ds = corpus.from_triples([("a", "x", 3)], RatingScale(1, 5, 1))
        with pytest.raises(SimilarityError):
            average_cri_ratio(bigraph.build_graph(ds), "users")

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
        ds = corpus.from_triples(
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
        ds = corpus.from_triples(
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
        g1 = bigraph.build_graph(corpus.from_triples(base, scale))
        g2 = bigraph.build_graph(corpus.from_triples(base + extra, scale))
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
@settings(deadline=None, max_examples=80)
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
        expected = normalize(raw)
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


class TestNormalize:
    def test_minmax(self):
        values = np.array(
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        )
        m = SimilarityMatrix(
            axis="users", values=values, defined=np.ones((3, 3), dtype=bool)
        )
        out = normalize(m)
        assert out.values[0, 1] == 0.0
        assert out.values[0, 2] == 0.5
        assert out.values[1, 2] == 1.0
        assert np.all(np.diag(out.values) == 1.0)

    def test_degenerate_all_equal(self):
        values = np.full((3, 3), 0.7)
        m = SimilarityMatrix(
            axis="users", values=values, defined=np.ones((3, 3), dtype=bool)
        )
        out = normalize(m)
        off = ~np.eye(3, dtype=bool)
        assert np.all(out.values[off] == 0.5)

    def test_undefined_maps_to_zero(self):
        values = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, -0.5], [0.0, -0.5, 1.0]])
        defined = np.ones((3, 3), dtype=bool)
        defined[0, 2] = defined[2, 0] = False
        m = SimilarityMatrix(axis="users", values=values, defined=defined)
        out = normalize(m)
        assert out.values[0, 2] == 0.0

    def test_rank_order_preserved(self, fix4_graph, uid):
        pcc = pcc_matrix(fix4_graph, "users")
        out = normalize(pcc)
        u3 = uid["u3"]
        assert (
            out.values[u3, uid["u2"]]
            > out.values[u3, uid["u1"]]
            > out.values[u3, uid["u4"]]
        )


class TestTopK:
    def test_fix4_rankings(self, fix4_graph, uid):
        pcc = normalize(pcc_matrix(fix4_graph, "users"))
        cs = normalize(cosine_matrix(fix4_graph, "users"))
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
        pcc = normalize(pcc_matrix(fix4_graph, "users"))
        assert len(oracles.top_k_neighbors(pcc, uid["u3"], 99)) == 3

    def test_tie_break_by_id(self):
        values = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.2], [0.5, 0.2, 1.0]])
        m = SimilarityMatrix(
            axis="users", values=values, defined=np.ones((3, 3), dtype=bool),
            normalized=True,
        )
        assert [n for n, _ in oracles.top_k_neighbors(m, 0, 2)] == [1, 2]


@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=12, unique=True))
@settings(deadline=None, max_examples=50)
def test_normalize_preserves_order(values):
    n = len(values) + 1
    mat = np.zeros((n, n))
    mat[0, 1:] = values
    mat[1:, 0] = values
    m = SimilarityMatrix(axis="users", values=mat, defined=np.ones((n, n), dtype=bool))
    out = normalize(m)
    order_raw = np.argsort(mat[0, 1:], kind="stable")
    by_raw_order = out.values[0, 1:][order_raw]
    assert np.all(np.diff(by_raw_order) >= 0)
