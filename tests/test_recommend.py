import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffrec import bigraph, corpus, recommend, simkit
from diffrec.bigraph import build_graph
from diffrec.corpus import RatingScale
from diffrec.recommend import (
    MfConfig,
    MfDivergenceError,
    PimraScorer,
    RecommendError,
    ibcf_scores,
    knn_predict,
    md_scores,
    predict_mf,
    rank,
    train_mf,
    ubcf_scores,
)
from diffrec.simkit import SimilarityMatrix

import oracles
from conftest import FIX4_TRIPLES, pimra_scores, random_dataset, random_ranking, with_full_user


SCALE15 = RatingScale(1, 5, 1)


def identity_item_sim(n):
    return SimilarityMatrix(
        axis="items",
        values=np.eye(n),
        defined=np.ones((n, n), dtype=bool),
        normalized=True,
    )


def pim_item_sim(g):
    return simkit.similarity(g, "pim", "items")


def ranked(g, user, scores):
    """The full ranking of `scores` over the items `user` has not rated in g."""
    return rank(g, [user], [scores[None, :]], g.n_items)[0][0]


def seen(g, user):
    return set(g.user_items(user)[0].tolist())


def unblocked_p(g, sim, mode):
    """P = sim * M from the whole step-3 transfer matrix, in one product."""
    inv_wv = np.zeros(g.n_users)  # a user without ratings sends nothing
    pos = g.user_weight_sum > 0
    inv_wv[pos] = 1.0 / g.user_weight_sum[pos]
    b = g.weights_t.copy()
    if mode == "literal-w_vi":
        b.data = b.data * b.data * inv_wv[b.indices]
        return sim.values * (b @ g.adjacency).toarray()
    b.data = b.data * inv_wv[b.indices]
    return sim.values * (b @ g.weights).toarray()


def built_p(scorer):
    """(which items' rows of P are built, those rows in item-id order),
    read through the scorer's packing slots."""
    built = scorer._slot >= 0
    return built, scorer._p[scorer._slot[built]]


def walk_row(g, p, u, theta):
    """User u's walk scores, computed for that user alone from a whole P."""
    seen, _ = g.user_items(u)
    n_u = float(len(seen))
    coef = (1.0 / n_u + np.log(n_u / g.item_degree[seen])) / g.item_weight_sum[seen]
    deg = g.item_degree.astype(np.float64)
    return coef @ p[seen] / np.where(deg > 0, deg, 1.0) ** theta


# ---------------------------------------------------------------------------
# Mass diffusion


class TestMassDiffusion:
    def test_fix4_u1(self, fix4_graph, fix4, uid, iid):
        rec = ranked(fix4_graph, uid["u1"], md_scores(fix4_graph, [uid["u1"]])[0])
        assert rec.items.tolist() == [iid["i2"]]
        assert rec.scores[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_fix4_step2_resources(self, fix4, uid):
        res_users, _ = oracles.md_item_scores(fix4, uid["u1"])
        expected = {"u1": 7 / 6, "u2": 1 / 3, "u3": 7 / 6, "u4": 1 / 3}
        assert res_users == pytest.approx({uid[label]: val for label, val in expected.items()},
                                          abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_mass_conservation(self, seed):
        ds = random_dataset(seed, n_users=8, n_items=10, density=0.4)
        g = build_graph(ds)
        for u in range(g.n_users):
            if g.user_degree[u] == 0:
                continue
            res_users, _ = oracles.md_item_scores(ds, u)
            init = float(g.user_degree[u])
            assert sum(res_users.values()) == pytest.approx(init, abs=1e-9)
            assert md_scores(g, [u])[0].sum() == pytest.approx(init, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_literal_oracle(self, seed):
        ds = random_dataset(40 + seed, n_users=7, n_items=7, density=0.5)
        g = build_graph(ds)
        for u in range(ds.n_users):
            _, exp_items = oracles.md_item_scores(ds, u)
            res_items = md_scores(g, [u])[0]
            for j, val in exp_items.items():
                assert res_items[j] == pytest.approx(val, abs=1e-9)

    def test_sole_rater_returns_mass(self):
        ds = oracles.from_triples([("a", "x", 3), ("a", "y", 5)], SCALE15)
        g = build_graph(ds)
        res_users, _ = oracles.md_item_scores(ds, 0)
        assert res_users == pytest.approx({0: 2.0})
        assert md_scores(g, [0])[0].tolist() == pytest.approx([1.0, 1.0])

    def test_isolated_user(self, fix4):
        # user present in the label space but absent from this subset
        sub = fix4.subset(np.arange(3))  # only u1's ratings
        g = build_graph(sub)
        with pytest.raises(RecommendError):
            md_scores(g, [1])

    def test_fold_user_without_ratings_warns_nothing(self, fix4, uid):
        # a training fold that holds none of u2's ratings
        sub = fix4.subset(np.flatnonzero(fix4.users != uid["u2"]))
        g = build_graph(sub)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res_items = md_scores(g, [uid["u1"]])[0]
        _, exp_items = oracles.md_item_scores(sub, uid["u1"])
        for j, val in exp_items.items():
            assert res_items[j] == pytest.approx(val, abs=1e-12)

    def test_no_seen_items_in_output(self, fix4_graph, uid):
        for u in uid.values():
            rec = ranked(fix4_graph, u, md_scores(fix4_graph, [u])[0])
            assert not set(rec.items.tolist()) & seen(fix4_graph, u)

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 7),
        n_items=st.integers(1, 7),
        density=st.floats(0.1, 0.9),
        full_user=st.booleans(),
        n_block=st.integers(1, 12),
    )
    @example(seed=3, n_users=4, n_items=5, density=0.5, full_user=True, n_block=12)
    @settings(max_examples=60)
    def test_blocks_match_single_users_and_oracle(
        self, seed, n_users, n_items, density, full_user, n_block
    ):
        ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
        if full_user:
            ds = with_full_user(ds)
        g = build_graph(ds)
        rng = np.random.default_rng(seed)
        # repeats allowed; every user who rated every item is in the block
        block = np.concatenate(
            [rng.integers(0, g.n_users, n_block), np.flatnonzero(g.user_degree == g.n_items)]
        )
        got = md_scores(g, block)
        assert got.shape == (len(block), g.n_items)
        for row, u in zip(got, block.tolist()):
            assert row.tobytes() == md_scores(g, [u])[0].tobytes()
            _, expected = oracles.md_item_scores(ds, u)
            for j in range(g.n_items):
                assert row[j] == pytest.approx(expected.get(j, 0.0), abs=1e-9)


# ---------------------------------------------------------------------------
# kNN collaborative filtering


def predict_one(sim, g, user, item, k):
    return knn_predict(sim, g, [user], [item], [k])[0, 0]


class TestKnnPrediction:
    def test_single_neighbor_similarity_cancels(self):
        ds = oracles.from_triples(
            [("a", "x", 2), ("a", "y", 4), ("b", "x", 2), ("b", "y", 4), ("b", "z", 5)],
            SCALE15,
        )
        g = build_graph(ds)
        sim = simkit.similarity(g, "pcc", "users")
        pred = predict_one(sim, g, user=0, item=2, k=5)
        assert pred == pytest.approx(5.0)

    def test_fallback_user_mean(self, fix4_graph, uid, iid):
        n = fix4_graph.n_users
        sim = SimilarityMatrix(
            axis="users",
            values=np.eye(n),
            defined=np.ones((n, n), dtype=bool),
            normalized=True,
        )
        # identity sim: no neighbor has positive similarity
        pred = predict_one(sim, fix4_graph, uid["u3"], iid["i2"], k=3)
        assert pred == pytest.approx(7 / 3)  # u3's mean rating

    def test_fix4_ubcf_k3_oracle(self, fix4, fix4_graph, uid, iid):
        sim = simkit.similarity(fix4_graph, "pcc", "users")
        lookup = sim.values
        expected = oracles.knn_prediction(fix4, lookup, uid["u3"], iid["i2"], k=3)
        pred = predict_one(sim, fix4_graph, uid["u3"], iid["i2"], k=3)
        assert pred == pytest.approx(expected, abs=1e-12)
        # pinned: u2 is the only positive-similarity rater of i2, so the
        # prediction equals u2's rating of i2
        assert pred == pytest.approx(4.0)

    def test_scale_invariance(self, fix4, fix4_graph, uid, iid):
        base = simkit.similarity(fix4_graph, "pcc", "users")
        scaled = SimilarityMatrix(
            axis="users",
            values=base.values * 0.37,
            defined=base.defined,
            normalized=True,
        )
        for item in range(4):
            a = predict_one(base, fix4_graph, uid["u3"], item, k=3)
            b = predict_one(scaled, fix4_graph, uid["u3"], item, k=3)
            assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_k_below_one(self, fix4_graph):
        sim = simkit.similarity(fix4_graph, "pcc", "users")
        with pytest.raises(RecommendError):
            knn_predict(sim, fix4_graph, [0], [1], [3, 0])

    def test_rejects_no_ks(self, fix4_graph):
        sim = simkit.similarity(fix4_graph, "pcc", "users")
        with pytest.raises(RecommendError, match="no neighbor counts given"):
            knn_predict(sim, fix4_graph, [0], [1], [])

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 9),
        n_items=st.integers(1, 9),
        density=st.floats(0.1, 0.9),
        axis=st.sampled_from(["users", "items"]),
        values=st.sampled_from(["cosine", "pcc", "near-tie", "runs", "none"]),
        zero_based=st.booleans(),
        ks=st.lists(st.sampled_from([1, 2, 3, 5, 10**9]), min_size=1, max_size=5),
        n_pairs=st.integers(0, 60),
    )
    @example(
        seed=3, n_users=9, n_items=9, density=0.9, axis="users", values="runs",
        zero_based=False, ks=[2, 1], n_pairs=60,
    )
    @example(
        seed=1, n_users=5, n_items=5, density=0.6, axis="users", values="none",
        zero_based=False, ks=[2], n_pairs=20,
    )
    @example(
        seed=1, n_users=5, n_items=5, density=0.6, axis="items", values="pcc",
        zero_based=False, ks=[3, 1, 3], n_pairs=0,
    )
    @example(
        seed=2, n_users=1, n_items=6, density=0.9, axis="users", values="runs",
        zero_based=True, ks=[10**9, 1], n_pairs=10,
    )
    @settings(max_examples=60)
    def test_bytes_match_lexsort_oracle(
        self, seed, n_users, n_items, density, axis, values, zero_based, ks, n_pairs
    ):
        # k = 10**9 also checks that nothing k-sized is allocated
        scale = RatingScale(0, 4, 1) if zero_based else SCALE15
        ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density, scale=scale)
        g = build_graph(ds)
        # raw matrices: signed, 0 where undefined
        sim = (simkit.cosine_matrix if values == "cosine" else simkit.pcc_matrix)(g, axis)
        rng = np.random.default_rng(seed)
        shape = sim.values.shape
        if values == "near-tie":  # defined similarities 1 ulp apart
            v = np.where(rng.random(shape) < 0.5, np.nextafter(0.5, 1.0), 0.5)
        elif values == "runs":  # runs of equal similarities
            v = rng.choice([0.25, 0.5, 0.75], size=shape)
        elif values == "none":  # no positive similarity: no edge at all
            v = np.zeros(shape)
        if values in ("near-tie", "runs", "none"):
            sim = SimilarityMatrix(axis, np.where(sim.defined, v, 0.0), sim.defined)
        users = rng.integers(0, g.n_users, n_pairs)
        items = rng.integers(0, g.n_items, n_pairs)
        got = knn_predict(sim, g, users, items, ks)
        expected = oracles.knn_predict(sim, g, users, items, ks)
        # C order: sums over the pairs (nrmse) add in memory order
        assert got.flags.c_contiguous
        assert got.shape == expected.shape == (n_pairs, len(ks))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("axis", ["users", "items"])
    def test_one_key_sort_gives_the_oracle_bytes(self, seed, axis):
        # every pair of a 7 x 7 grid in one call, and one key sort per call
        ds = random_dataset(seed, n_users=7, n_items=7, density=0.6)
        g = build_graph(ds)
        sim = simkit.pcc_matrix(g, axis)
        users, items = np.divmod(np.arange(g.n_users * g.n_items), g.n_items)
        ks = [2, 1, 10**9]
        got = knn_predict(sim, g, users, items, ks)
        assert got.tobytes() == oracles.knn_predict(sim, g, users, items, ks).tobytes()

    def test_neighbor_keys_must_fit_an_int64(self):
        # two pairs, two similarity ranks: keys below 2 * 2 * widest
        pair = np.array([0, 0, 1, 1])
        sims = np.array([0.25, 0.5, 0.5, 0.25])
        nth = np.array([0, 1, 0, 1])
        for widest in (2, 2**61 - 1):
            order = recommend._neighbor_order(pair, sims, nth, widest)
            assert order.tolist() == [1, 0, 2, 3]
        with pytest.raises(RecommendError, match="do not fit an int64 sort key"):
            recommend._neighbor_order(pair, sims, nth, 2**61)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("axis", ["users", "items"])
    def test_edge_runs_of_any_size_give_the_same_bytes(self, seed, axis):
        # from one pair per run (a cap below any pair's edges) to every
        # pair in one run, with pairs repeated and in no particular order
        ds = random_dataset(seed, n_users=7, n_items=7, density=0.6)
        g = build_graph(ds)
        sim = simkit.pcc_matrix(g, axis)
        rng = np.random.default_rng(seed)
        users = rng.integers(0, g.n_users, 80)
        items = rng.integers(0, g.n_items, 80)
        ks = [2, 1, 10**9]
        expected = oracles.knn_predict(sim, g, users, items, ks).tobytes()
        for cap in (0, 1, 3, 7, 20, 10**9):
            with mock.patch.object(recommend, "_KNN_EDGES", cap):
                got = knn_predict(sim, g, users, items, ks)
            assert got.flags.c_contiguous
            assert got.tobytes() == expected

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(2, 7),
        n_items=st.integers(2, 7),
        density=st.floats(0.2, 0.9),
        axis=st.sampled_from(["users", "items"]),
        measure=st.sampled_from(["cosine", "pcc", "near-tie"]),
    )
    @example(seed=5, n_users=6, n_items=6, density=0.8, axis="users", measure="near-tie")
    @example(seed=5, n_users=6, n_items=6, density=0.8, axis="items", measure="near-tie")
    @settings(max_examples=60)
    def test_matches_oracle(self, seed, n_users, n_items, density, axis, measure):
        ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
        g = build_graph(ds)
        # raw matrices: pcc is signed and cosine ties often, so the
        # positive-similarity filter and the id tie-break both matter
        sim = simkit.cosine_matrix(g, axis) if measure == "cosine" else simkit.pcc_matrix(g, axis)
        if measure == "near-tie":
            # defined similarities 1 ulp apart: only an exact order by value,
            # then id, takes the same neighbors as the oracle
            up = np.random.default_rng(seed).random(sim.values.shape) < 0.5
            values = np.where(up, np.nextafter(0.5, 1.0), 0.5)
            sim = SimilarityMatrix(axis, np.where(sim.defined, values, 0.0), sim.defined)
        users, items = np.divmod(np.arange(g.n_users * g.n_items), g.n_items)
        ks = [1, 2, 3, max(n_users, n_items) + 1]
        got = knn_predict(sim, g, users, items, ks)
        for row, (u, i) in enumerate(zip(users.tolist(), items.tolist())):
            for col, k in enumerate(ks):
                expected = oracles.knn_rating(ds, sim.values, u, i, k, axis)
                assert got[row, col] == pytest.approx(expected, abs=1e-9)


class TestKnnRecommend:
    def test_fix4_u1_singleton(self, fix4_graph, uid, iid):
        sim = simkit.similarity(fix4_graph, "pcc", "users")
        rec = ranked(fix4_graph, uid["u1"], ubcf_scores(sim, fix4_graph, [uid["u1"]], k=3)[0])
        assert rec.items.tolist() == [iid["i2"]]

    def test_rated_everything_empty(self):
        ds = oracles.from_triples(
            [("a", "x", 2), ("a", "y", 4), ("b", "x", 3)], SCALE15
        )
        g = build_graph(ds)
        sim = simkit.similarity(g, "cosine", "users")
        rec = ranked(g, 0, ubcf_scores(sim, g, [0], k=1)[0])
        assert rec.items.size == rec.scores.size == 0

    def test_ibcf_identity_falls_back_to_user_mean(self, fix4_graph, uid):
        sim = identity_item_sim(fix4_graph.n_items)
        rec = ranked(fix4_graph, uid["u1"], ibcf_scores(sim, fix4_graph, [uid["u1"]], k=2)[0])
        items = rec.items.tolist()
        assert items == sorted(items)  # id-ordered under constant scores
        assert all(s == pytest.approx(10 / 3) for s in rec.scores)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode,axis", [("UBCF", "users"), ("IBCF", "items")])
    def test_batch_matches_pointwise(self, seed, mode, axis):
        ds = random_dataset(60 + seed, n_users=8, n_items=9, density=0.5)
        g = build_graph(ds)
        sim = simkit.similarity(g, "pcc", axis)
        users = np.flatnonzero(g.user_degree > 0)
        block = {"UBCF": ubcf_scores, "IBCF": ibcf_scores}[mode](sim, g, users, 3)
        for u, row in zip(users.tolist(), block):
            rec = ranked(g, u, row)
            for item, score in zip(rec.items.tolist(), rec.scores.tolist()):
                expected = oracles.knn_rating(ds, sim.values, u, item, 3, axis)
                assert score == pytest.approx(expected, abs=1e-9)

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 9),
        n_items=st.integers(1, 9),
        density=st.floats(0.1, 0.9),
        values=st.sampled_from(["pcc", "near-tie"]),
        k=st.sampled_from([1, 2, 3, 10**9]),
        n_block=st.integers(0, 12),
        # gathered-edge caps from one user per call up to the whole block
        cap=st.sampled_from([1, 10, 40, 100, 10**9]),
    )
    @example(seed=5, n_users=6, n_items=6, density=0.8, values="near-tie", k=2, n_block=12, cap=1)
    @settings(max_examples=60)
    def test_ubcf_blocks_match_per_user_scores(
        self, seed, n_users, n_items, density, values, k, n_block, cap
    ):
        ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
        g = build_graph(ds)
        sim = simkit.pcc_matrix(g, "users")
        rng = np.random.default_rng(seed)
        if values == "near-tie":  # defined similarities 1 ulp apart
            up = rng.random(sim.values.shape) < 0.5
            v = np.where(up, np.nextafter(0.5, 1.0), 0.5)
            sim = SimilarityMatrix("users", np.where(sim.defined, v, 0.0), sim.defined)
        block = rng.integers(0, g.n_users, n_block)  # repeats allowed
        with mock.patch.object(recommend, "_KNN_EDGES", cap):
            got = recommend.ubcf_scores(sim, g, block, k)
        assert got.shape == (n_block, g.n_items)
        items = np.arange(g.n_items)
        for row, u in enumerate(block.tolist()):
            alone = knn_predict(sim, g, np.full(g.n_items, u), items, [k])[:, 0]
            assert got[row].tobytes() == alone.tobytes()
            assert got[row].tobytes() == ubcf_scores(sim, g, [u], k)[0].tobytes()

    def test_ubcf_scores_need_a_users_axis(self, fix4_graph):
        sim = simkit.similarity(fix4_graph, "pcc", "items")
        with pytest.raises(RecommendError, match="users-axis similarity"):
            recommend.ubcf_scores(sim, fix4_graph, [0], 3)

    def test_ibcf_scores_need_an_items_axis(self, fix4_graph):
        sim = simkit.similarity(fix4_graph, "pcc", "users")
        with pytest.raises(RecommendError, match="items-axis similarity"):
            ibcf_scores(sim, fix4_graph, [0], 3)

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 7),
        n_items=st.integers(1, 7),
        density=st.floats(0.1, 0.9),
        values=st.sampled_from(["pcc", "near-tie"]),
        k=st.sampled_from([1, 2, 3, 10**9]),
        full_user=st.booleans(),
        n_block=st.integers(0, 12),
    )
    @example(
        seed=5, n_users=6, n_items=6, density=0.8, values="near-tie", k=2, full_user=True,
        n_block=12,
    )
    @settings(max_examples=60)
    def test_ibcf_blocks_match_per_user_scores(
        self, seed, n_users, n_items, density, values, k, full_user, n_block
    ):
        ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
        if full_user:
            ds = with_full_user(ds)
        g = build_graph(ds)
        sim = simkit.pcc_matrix(g, "items")
        rng = np.random.default_rng(seed)
        if values == "near-tie":  # defined similarities 1 ulp apart
            up = rng.random(sim.values.shape) < 0.5
            v = np.where(up, np.nextafter(0.5, 1.0), 0.5)
            sim = SimilarityMatrix("items", np.where(sim.defined, v, 0.0), sim.defined)
        # repeats allowed; every user who rated every item is in the block
        block = np.concatenate(
            [rng.integers(0, g.n_users, n_block), np.flatnonzero(g.user_degree == g.n_items)]
        )
        got = ibcf_scores(sim, g, block, k)
        assert got.shape == (len(block), g.n_items)
        for row, u in zip(got, block.tolist()):
            assert row.tobytes() == ibcf_scores(sim, g, [u], k)[0].tobytes()

    @pytest.mark.xfail(
        strict=True, reason="IBCF orders 1-ulp near-ties by item id (ROADMAP item 2)"
    )
    def test_ibcf_takes_the_nearest_of_near_ties(self):
        # user a rated x, y and z; t's similarity to z is 1 ulp above its
        # 0.5 to x and y, so at k = 1 z alone predicts a's rating of t
        ds = oracles.from_triples(
            [("a", "x", 1), ("a", "y", 3), ("a", "z", 5), ("b", "t", 4)], SCALE15
        )
        g = build_graph(ds)
        values = np.zeros((4, 4))
        values[3, :3] = values[:3, 3] = [0.5, 0.5, np.nextafter(0.5, 1.0)]
        sim = SimilarityMatrix("items", values, values > 0, normalized=True)
        got = ibcf_scores(sim, g, [0], 1)[0]
        expected = [oracles.knn_rating(ds, values, 0, j, 1, "items") for j in range(4)]
        assert got.tolist() == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# Resource walk


class TestPimra:
    def test_single_user_single_item(self):
        ds = oracles.from_triples([("a", "x", 4)], SCALE15)
        g = build_graph(ds)
        scores = pimra_scores(PimraScorer(g, identity_item_sim(1)), [0], 0.0)[0]
        assert scores[0] == pytest.approx(1.0)  # R1 = 1, all mass returns
        assert ranked(g, 0, scores).items.size == 0

    def test_fix4_identity_theta0_table(self, fix4, fix4_graph, uid, iid):
        scores = pimra_scores(PimraScorer(fix4_graph, identity_item_sim(4)), [uid["u1"]], 0.0)[0]
        expected = {
            "i1": 0.3928531395,
            "i2": 0.0,
            "i3": 0.1108843537,
            "i4": 0.1517195767,
        }
        for label, val in expected.items():
            assert scores[iid[label]] == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6, 1.0])
    @pytest.mark.parametrize("mode", ["literal-w_vi", "alt-w_vj"])
    def test_fix4_matches_path_oracle(self, fix4, fix4_graph, theta, mode):
        sim = pim_item_sim(fix4_graph)
        scorer = PimraScorer(fix4_graph, sim, step3_weight=mode)
        for u in range(fix4.n_users):
            expected = oracles.pimra_item_scores(
                fix4, u, sim.values, theta, alt_weight=(mode == "alt-w_vj")
            )
            scores = pimra_scores(scorer, [u], theta)[0]
            for j in range(fix4.n_items):
                assert scores[j] == pytest.approx(expected.get(j, 0.0), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matches_path_oracle(self, seed):
        ds = random_dataset(80 + seed, n_users=7, n_items=6, density=0.5)
        g = build_graph(ds)
        sim = pim_item_sim(g)
        scorer = PimraScorer(g, sim)
        for u in range(ds.n_users):
            expected = oracles.pimra_item_scores(ds, u, sim.values, 0.4)
            scores = pimra_scores(scorer, [u], 0.4)[0]
            for j in range(ds.n_items):
                assert scores[j] == pytest.approx(expected.get(j, 0.0), abs=1e-9)

    def test_theta_scaling_identity(self, fix4_graph, uid):
        scorer = PimraScorer(fix4_graph, pim_item_sim(fix4_graph))
        base = pimra_scores(scorer, [uid["u2"]], 0.0)[0]
        deg = np.where(fix4_graph.item_degree > 0, fix4_graph.item_degree, 1).astype(float)
        for theta in (0.25, 0.5, 1.0):
            scaled = pimra_scores(scorer, [uid["u2"]], theta)[0]
            assert np.allclose(scaled, base / deg**theta, atol=1e-12)

    def test_penalty_once_per_theta_is_bitwise_the_per_user_expression(self):
        # a fold's training graph, so that some items have no training rating
        train = corpus.kfold_split(random_dataset(91, n_users=9, n_items=12, density=0.3), 2, 0)[0].train
        g = build_graph(train)
        assert (g.item_degree == 0).any()
        sim = pim_item_sim(g)
        scorer = PimraScorer(g, sim)
        users = np.flatnonzero(g.user_degree > 0)
        scorer.walk(users)
        # every rated item's row is built, and no unrated item's
        p = unblocked_p(g, sim, "literal-w_vi")
        built, rows = built_p(scorer)
        assert np.array_equal(built, g.item_degree > 0)
        assert rows.tobytes() == p[built].tobytes()
        for theta in (0.6, 0.0, 1.0, 0.6, 0.25, 0.25, 1 / 3):
            for u in users.tolist():
                assert np.array_equal(pimra_scores(scorer, [u], theta)[0], walk_row(g, p, u, theta))

    def test_theta_demotes_popular_relative_to_rare(self, fix4_graph, uid, iid):
        # u2's candidates: i1 (degree 2) and i4 (degree 3)
        scorer = PimraScorer(fix4_graph, pim_item_sim(fix4_graph))
        prev = None
        for theta in np.linspace(0.0, 1.0, 11):
            scores = pimra_scores(scorer, [uid["u2"]], theta)[0]
            hi, lo = scores[iid["i4"]], scores[iid["i1"]]
            if lo > 0 and hi > 0:
                ratio = hi / lo
                if prev is not None:
                    assert ratio <= prev + 1e-12
                prev = ratio

    @pytest.mark.parametrize(
        "axis,n,normalized,match",
        [
            ("users", 4, True, "axis"),
            ("items", 3, True, "dimension"),
            ("items", 4, False, "normalized"),
        ],
        ids=["axis", "dimension", "normalized"],
    )
    def test_rejects_bad_similarity(self, fix4_graph, axis, n, normalized, match):
        sim = SimilarityMatrix(
            axis=axis,
            values=np.eye(n),
            defined=np.ones((n, n), dtype=bool),
            normalized=normalized,
        )
        with pytest.raises(RecommendError, match=match):
            PimraScorer(fix4_graph, sim)

    def test_uniform_ratings_step2_matches_reweighted_diffusion(self):
        # with equal ratings the weighted user hop reduces to the plain
        # diffusion hop scaled by the initialization term
        triples = [(u, i, 3) for u, i, _ in FIX4_TRIPLES]
        ds = oracles.from_triples(triples, SCALE15)
        g = build_graph(ds)
        by_user = oracles.user_items_map(ds)
        by_item = oracles.item_users_map(ds)
        for u in range(ds.n_users):
            seen = by_user[u]
            for i in seen:
                r1 = 1 / len(seen) + math.log(len(seen) / len(by_item[i]))
                for v in by_item[i]:
                    # weighted hop: r1 * w/w_i == r1 / |U_i| under equal weights
                    w_i = 3 * len(by_item[i])
                    assert r1 * 3 / w_i == pytest.approx(r1 / len(by_item[i]))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", ["literal-w_vi", "alt-w_vj"])
    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    def test_blocked_p_is_the_unblocked_product(self, seed, mode, rows, monkeypatch):
        g = build_graph(random_dataset(seed, n_users=8, n_items=7, density=0.4))
        sim = pim_item_sim(g)
        if rows is not None:
            monkeypatch.setattr(simkit, "_TILE_BYTES", 8 * g.n_items * rows)
        scorer = PimraScorer(g, sim, step3_weight=mode)
        scorer.walk(np.arange(g.n_users))  # every item is rated, so every row is built
        built, rows = built_p(scorer)
        assert built.all()
        assert rows.tobytes() == unblocked_p(g, sim, mode).tobytes()

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 8),
        n_items=st.integers(1, 8),
        density=st.floats(0.1, 0.9),
        rows=st.integers(1, 3),
        mode=st.sampled_from(["literal-w_vi", "alt-w_vj"]),
        theta=st.sampled_from([0.0, 0.6, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_in_any_order_build_each_read_row_once(
        self, seed, n_users, n_items, density, rows, mode, theta, data
    ):
        g = build_graph(random_dataset(seed, n_users, n_items, density))
        vals = np.random.default_rng(seed).random((n_items, n_items))
        sim = SimilarityMatrix("items", vals, np.ones_like(vals, dtype=bool), normalized=True)
        p = unblocked_p(g, sim, mode)
        # the users cut into blocks, scored in a random order
        users = data.draw(st.permutations(range(n_users)))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n_users - 1)))))
        blocks = [users[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n_users]) if lo < hi]
        with mock.patch.object(simkit, "_TILE_BYTES", 8 * n_items * rows):
            scorer = PimraScorer(g, sim, step3_weight=mode)
        read = np.zeros(n_items, dtype=bool)
        for block in data.draw(st.permutations(blocks)):
            got = pimra_scores(scorer, block, theta)
            for r, u in enumerate(block):
                assert got[r].tobytes() == walk_row(g, p, u, theta).tobytes()
                read[g.user_items(u)[0]] = True
            assert np.array_equal(scorer._slot >= 0, read)

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 8),
        n_items=st.integers(1, 8),
        density=st.floats(0.1, 0.9),
        rows=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_packed_in_build_order(self, seed, n_users, n_items, density, rows, data):
        g = build_graph(random_dataset(seed, n_users, n_items, density))
        vals = np.random.default_rng(seed).random((n_items, n_items))
        sim = SimilarityMatrix("items", vals, np.ones_like(vals, dtype=bool), normalized=True)
        with mock.patch.object(simkit, "_TILE_BYTES", 8 * n_items * rows):
            scorer = PimraScorer(g, sim)
        users = data.draw(st.permutations(range(n_users)))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n_users - 1)))))
        for lo, hi in zip([0] + cuts, cuts + [n_users]):
            before = scorer._slot.copy()
            scorer.walk(users[lo:hi])
            # a block's new rows follow the rows built before, in item-id order
            new = np.flatnonzero((before < 0) & (scorer._slot >= 0))
            k = int((before >= 0).sum())
            assert np.array_equal(scorer._slot[new], np.arange(k, k + len(new)))
            # the built rows hold slots 0 ... k-1 exactly
            slots = np.sort(scorer._slot[scorer._slot >= 0])
            assert np.array_equal(slots, np.arange(len(slots)))

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"), reason="reads resident pages from /proc/self/statm"
    )
    def test_one_user_holds_its_rows_not_the_pages_between_them(self):
        # 3,000 items, every 30th rated by one user: P reserves 72 MB, of
        # which the user's 100 rows are 2.4 MB; rows written at their item
        # ids would touch most of P's huge pages where those are in use
        n_items, raters = 3000, 50
        triples = [(f"v{i % raters}", f"i{i}", 1 + i % 5) for i in range(n_items)]
        triples += [(f"v{(7 * i + 3) % raters}", f"i{i}", 1 + i % 4) for i in range(0, n_items, 3)]
        triples += [("u", f"i{i}", 4) for i in range(0, n_items, 30)]
        g = build_graph(oracles.from_triples(triples, SCALE15))
        u = g.n_users - 1
        assert g.user_degree[u] == 100
        vals = np.random.default_rng(0).random((n_items, n_items))
        sim = SimilarityMatrix("items", vals, np.ones_like(vals, dtype=bool), normalized=True)
        scorer = PimraScorer(g, sim)

        def resident() -> int:
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = resident()
        scorer.walk([u])
        assert resident() - before < 16 << 20

    @staticmethod
    def assert_p_needs(monkeypatch, g, sim, need, user):
        monkeypatch.setattr(simkit, "_memory_limit", lambda: need - 1)
        with pytest.raises(simkit.MemoryCeilingError, match=(
            rf"^PIM\+RA product over {g.n_items} items needs {need:,} bytes \(0 MiB\), "
            rf"more than the {need - 1:,} this process may hold$"
        )):
            PimraScorer(g, sim)
        monkeypatch.setattr(simkit, "_memory_limit", lambda: need)
        PimraScorer(g, sim).walk([user])

    def test_p_that_does_not_fit_is_a_memory_ceiling_error(self, fix4_graph, monkeypatch):
        n = fix4_graph.n_items
        # P's n x n floats, a one-chunk sparse product of up to 4 rows of 4
        # entries, 12 bytes each, and a float per link for scipy's copy of
        # the adjacency's ones
        need = 8 * n * n + 12 * n * n + 8 * fix4_graph.n_links
        self.assert_p_needs(monkeypatch, fix4_graph, pim_item_sim(fix4_graph), need, 0)

    def test_p_over_some_similarity_rows_counts_those_rows(self, fix4_graph, monkeypatch):
        n = fix4_graph.n_items
        sim = simkit.similarity(fix4_graph, "pim", "items", rows=[1, 3])
        # two rows of P and of the one-chunk product; u2 (user 1) rated
        # i3 and i2, items 1 and 3
        need = 8 * 2 * n + 12 * 2 * n + 8 * fix4_graph.n_links
        self.assert_p_needs(monkeypatch, fix4_graph, sim, need, 1)

    def test_invalid_theta(self, fix4_graph):
        scorer = PimraScorer(fix4_graph, identity_item_sim(4))
        for theta in (-0.1, 1.5):
            with pytest.raises(RecommendError, match=r"theta must be in \[0, 1\]"):
                scorer.penalty(theta)


# ---------------------------------------------------------------------------
# Matrix factorization


def trained(ds, cfg, seed):
    """train_mf on one set: its model, or the error that ended it."""
    (result,) = train_mf([ds], cfg, seed)
    return result


def oracle_result(ds, cfg, seed):
    try:
        return oracles.train_mf(ds, cfg, seed)
    except MfDivergenceError as exc:
        return exc


def assert_same_result(got, expected):
    """The same model bit for bit (signed zeros too), or a divergence at the
    same epoch."""
    assert type(got) is type(expected)
    if isinstance(expected, MfDivergenceError):
        assert got.epoch == expected.epoch
        return
    assert got.global_mean == expected.global_mean
    for field in ("user_bias", "item_bias", "user_factors", "item_factors"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field


class TestMf:
    def test_descent_on_fix4(self, fix4):
        cfg = MfConfig(factors=4, epochs=200)
        model = trained(fix4, cfg, 3)
        # reconstruct the epoch-0 parameters from the same seed
        rng = np.random.default_rng(3)
        p0 = rng.normal(0.0, 0.1, size=(fix4.n_users, cfg.factors))
        q0 = rng.normal(0.0, 0.1, size=(fix4.n_items, cfg.factors))
        mu = fix4.ratings.mean()
        pred0 = mu + np.einsum("ij,ij->i", p0[fix4.users], q0[fix4.items])
        rmse0 = np.sqrt(np.mean((pred0 - fix4.ratings) ** 2))
        pred = predict_mf(model, fix4.users, fix4.items)
        rmse = np.sqrt(np.mean((pred - fix4.ratings) ** 2))
        assert rmse < rmse0

    def test_constant_ratings(self):
        triples = [(f"u{u}", f"i{i}", 3) for u in range(4) for i in range(4)]
        ds = oracles.from_triples(triples, SCALE15)
        model = trained(ds, MfConfig(factors=4, epochs=300), 1)
        pred = predict_mf(model, ds.users, ds.items)
        assert np.allclose(pred, 3.0, atol=0.05)
        assert np.linalg.norm(model.user_factors) < 0.1 * np.sqrt(16)

    def test_deterministic(self, fix4):
        a = trained(fix4, MfConfig(epochs=5), 7)
        b = trained(fix4, MfConfig(epochs=5), 7)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(
            predict_mf(a, fix4.users, fix4.items),
            predict_mf(b, fix4.users, fix4.items),
        )

    def test_divergence_reports_epoch(self, fix4):
        # learning rates at which the scalar oracle diverges on fix4, seed 0,
        # and the epoch at which it does
        for lr, epoch in ((1e6, 1), (2.0, 2), (0.8, 3)):
            cfg = MfConfig(learning_rate=lr, epochs=10)
            with pytest.raises(MfDivergenceError) as expected:
                oracles.train_mf(fix4, cfg, 0)
            got = trained(fix4, cfg, 0)
            assert isinstance(got, MfDivergenceError)
            assert got.epoch == expected.value.epoch == epoch, lr

    def test_sets_diverge_on_their_own(self):
        # at this learning rate the oracle keeps sets 0 and 2 finite, and
        # sets 1, 3 and 4 diverge at epochs 3, 2 and 1
        shapes = [(0, 4, 5, 0.5), (0, 8, 9, 0.5), (0, 3, 3, 0.4), (0, 9, 9, 0.9), (1, 9, 9, 0.9)]
        sets = [random_dataset(s, n_users=u, n_items=i, density=d) for s, u, i, d in shapes]
        cfg = MfConfig(factors=4, learning_rate=0.5, epochs=6)
        got = train_mf(sets, cfg, 0)
        epochs = [getattr(r, "epoch", None) for r in got]
        assert epochs == [None, 3, None, 2, 1]
        for ds, result in zip(sets, got):
            assert_same_result(result, oracle_result(ds, cfg, 0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("factors", 0),
            ("epochs", 0),
            ("learning_rate", 0.0),
            ("learning_rate", -0.01),
            ("learning_rate", math.inf),
            ("learning_rate", math.nan),
            ("regularization", -0.01),
            ("regularization", math.inf),
            ("regularization", math.nan),
        ],
    )
    def test_config_validation(self, field, value):
        with pytest.raises(RecommendError, match=field):
            MfConfig(**{field: value})

    def test_config_accepts_zero_regularization(self):
        assert MfConfig(regularization=0.0).regularization == 0.0

    @given(
        shapes=st.lists(
            st.tuples(
                st.integers(0, 2**16),  # dataset seed
                st.integers(1, 9),  # users
                st.integers(1, 9),  # items
                st.floats(0.05, 1.0),  # density
                st.booleans(),  # one more user who rated every item
            ),
            min_size=1,
            max_size=4,
        ),
        factors=st.integers(1, 8),
        epochs=st.integers(1, 4),
        learning_rate=st.sampled_from([0.005, 0.5]),
        mf_seed=st.integers(0, 3),
        chunk=st.sampled_from([1, 2, 3, 512]),
    )
    @example(shapes=[(0, 5, 1, 0.5, False)], factors=3, epochs=2, learning_rate=0.005, mf_seed=0,
             chunk=512)
    @example(shapes=[(1, 4, 7, 0.2, True)], factors=8, epochs=4, learning_rate=0.005, mf_seed=1,
             chunk=512)
    # chunks of one and of two steps cut the merged waves of these sets
    @example(shapes=[(2, 6, 8, 0.6, True), (3, 9, 4, 0.8, False)], factors=2, epochs=3,
             learning_rate=0.005, mf_seed=2, chunk=1)
    @example(shapes=[(2, 6, 8, 0.6, True), (3, 9, 4, 0.8, False), (4, 3, 9, 0.9, True)],
             factors=5, epochs=3, learning_rate=0.005, mf_seed=0, chunk=2)
    @settings(max_examples=80)
    def test_matches_scalar_sgd(self, shapes, factors, epochs, learning_rate, mf_seed, chunk):
        sets = []
        for seed, n_users, n_items, density, full_user in shapes:
            ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
            if full_user:
                rated = list(ds.triples()) + [(n_users, i, 3.0) for i in range(ds.n_items)]
                ds = oracles.from_triples([(f"u{u}", f"i{i}", r) for u, i, r in rated], SCALE15)
            sets.append(ds)
        cfg = MfConfig(factors=factors, epochs=epochs, learning_rate=learning_rate)
        with mock.patch.object(recommend, "_SGD_CHUNK", chunk):
            got = train_mf(sets, cfg, mf_seed)
        assert len(got) == len(sets)
        for ds, result in zip(sets, got):
            assert_same_result(result, oracle_result(ds, cfg, mf_seed))

    def test_recommend_excludes_seen(self, fix4, fix4_graph, uid):
        model = trained(fix4, MfConfig(epochs=5), 0)
        n = fix4_graph.n_items
        u = uid["u1"]
        rec = ranked(fix4_graph, u, predict_mf(model, np.full(n, u), np.arange(n)))
        assert not set(rec.items.tolist()) & seen(fix4_graph, u)
        assert len(rec.items) == n - len(seen(fix4_graph, u))


# ---------------------------------------------------------------------------
# Ranking contracts


class TestRankingContracts:
    def test_tie_break_ascending_id(self):
        # symmetric two-user graph: both unseen items tie
        triples = [("a", "x", 3), ("b", "x", 3), ("b", "y", 3), ("b", "z", 3)]
        ds = oracles.from_triples(triples, SCALE15)
        g = build_graph(ds)
        rec = ranked(g, 0, md_scores(g, [0])[0])
        assert rec.scores[0] == rec.scores[1]
        assert rec.items.tolist() == sorted(rec.items.tolist())

    def test_rank_orders_by_score_then_id(self):
        # user 1 has rated item 3 only
        ds = oracles.from_triples([("a", f"i{i}", 3) for i in range(6)] + [("b", "i3", 4)], SCALE15)
        g = build_graph(ds)
        scores = np.array([0.5, 2.0, 0.5, 1.0, 2.0, 0.0])
        rec = ranked(g, 1, scores)
        assert rec.user == 1
        assert rec.items.tolist() == [1, 4, 0, 2, 5]
        assert rec.scores.tolist() == [2.0, 2.0, 0.5, 0.5, 0.0]
        assert rec.top(2).tolist() == [1, 4]
        assert rec.n_candidates == 5
        # the list holds the head of that ranking; ties at the boundary by id
        short = rank(g, [1], [scores[None, :]], 3, likes={1: {2, 3, 5}})[0][0]
        assert short.items.tolist() == [1, 4, 0]
        assert short.scores.tolist() == [2.0, 2.0, 0.5]
        assert short.liked_ranks.tolist() == [4, 5]  # item 3 is seen
        assert short.n_candidates == 5

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 7),
        n_items=st.integers(1, 9),
        density=st.floats(0.05, 1.0),
        full_user=st.booleans(),
        length=st.integers(1, 11),
        block=st.integers(1, 8),
    )
    @example(seed=3, n_users=4, n_items=6, density=0.5, full_user=True, length=2, block=1)
    @example(seed=5, n_users=6, n_items=9, density=0.3, full_user=False, length=4, block=3)
    # user 1's candidates score 3.0, -0.0 (item 4), 0.0 (item 5) and -inf:
    # the zeros tie, so the list of two ends at item 4
    @example(seed=3, n_users=3, n_items=6, density=0.3, full_user=False, length=2, block=3)
    @settings(max_examples=200)
    def test_block_rank_matches_full_oracle(
        self, seed, n_users, n_items, density, full_user, length, block
    ):
        # lists shorter than `length`, lengths above the item count, blocks
        # of one and of several users in no particular order, each ranked
        # under two scorings at once
        g, scores, likes = random_ranking(seed, n_users, n_items, density, full_user)
        users = np.random.default_rng(seed).permutation(g.n_users)
        for lo in range(0, len(users), block):
            chunk = users[lo : lo + block]
            scorings = [scores[chunk], scores[chunk][:, ::-1]]
            ranked = rank(g, chunk, iter(scorings), length, likes)
            assert len(ranked) == len(scorings)
            for got, rows in zip(ranked, scorings):
                expected = oracles.full_lists(g, chunk, rows, likes)
                assert len(got) == len(chunk)
                for rec, full in zip(got, expected):
                    assert rec.user == full.user
                    assert np.array_equal(rec.items, full.items[:length])
                    assert np.array_equal(rec.scores, full.scores[:length])
                    assert np.array_equal(rec.liked_ranks, full.liked_ranks)
                    assert rec.n_candidates == full.n_candidates

    def test_user_who_has_seen_every_item(self):
        g, scores, _ = random_ranking(2, 3, 5, 0.5, full_user=True)
        rec = rank(g, [g.n_users - 1], [scores[-1:]], 3, {g.n_users - 1: {0, 4}})[0][0]
        assert rec.n_candidates == 0
        assert rec.items.size == rec.scores.size == rec.liked_ranks.size == 0

    @pytest.mark.parametrize("length", [1, 2])
    def test_nan_score_is_an_error(self, length):
        # user 1 has rated item 0 only, so the NaN item is a candidate
        triples = [("a", f"i{i}", 3) for i in range(4)] + [("b", "i0", 4)]
        g = build_graph(oracles.from_triples(triples, SCALE15))
        scores = np.array([[0.1, 0.2, np.nan, 0.3]])
        with pytest.raises(RecommendError, match="user 1 has a NaN score"):
            rank(g, [1], [scores], length)

    def test_rejects_length_below_one(self, fix4_graph):
        with pytest.raises(RecommendError, match="list length"):
            rank(fix4_graph, [0], [np.zeros((1, fix4_graph.n_items))], 0)

    def test_repeat_runs_identical(self, fix4_graph, uid):
        u = uid["u2"]
        runs = []
        for _ in range(2):
            scorer = PimraScorer(fix4_graph, pim_item_sim(fix4_graph))
            runs.append(ranked(fix4_graph, u, pimra_scores(scorer, [u], 0.6)[0]))
        assert np.array_equal(runs[0].items, runs[1].items)
        assert np.array_equal(runs[0].scores, runs[1].scores)
