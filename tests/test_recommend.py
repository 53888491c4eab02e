import math
import warnings

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
    knn_predict,
    knn_scores,
    md_scores,
    predict_mf,
    rank,
    train_mf,
)
from diffrec.simkit import SimilarityMatrix

import oracles
from conftest import FIX4_TRIPLES, random_dataset, random_ranking


SCALE15 = RatingScale(1, 5, 1)


def identity_item_sim(n):
    return SimilarityMatrix(
        axis="items",
        values=np.eye(n),
        defined=np.ones((n, n), dtype=bool),
        normalized=True,
    )


def pim_item_sim(g):
    return simkit.normalize(simkit.pim_matrix(g, "items"))


def ranked(g, user, scores):
    """The full ranking of `scores` over the items `user` has not rated in g."""
    return rank(g, [user], scores[None, :], g.n_items)[0]


def seen(g, user):
    return set(g.user_items(user)[0].tolist())


# ---------------------------------------------------------------------------
# Mass diffusion


class TestMassDiffusion:
    def test_fix4_u1(self, fix4_graph, fix4, uid, iid):
        rec = ranked(fix4_graph, uid["u1"], md_scores(fix4_graph, uid["u1"])[1])
        assert rec.items.tolist() == [iid["i2"]]
        assert rec.scores[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_fix4_step2_resources(self, fix4_graph, uid):
        res_users, _ = md_scores(fix4_graph, uid["u1"])
        expected = {"u1": 7 / 6, "u2": 1 / 3, "u3": 7 / 6, "u4": 1 / 3}
        for label, val in expected.items():
            assert res_users[uid[label]] == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_mass_conservation(self, seed):
        ds = random_dataset(seed, n_users=8, n_items=10, density=0.4)
        g = build_graph(ds)
        for u in range(g.n_users):
            if g.user_degree[u] == 0:
                continue
            res_users, res_items = md_scores(g, u)
            init = float(g.user_degree[u])
            assert res_users.sum() == pytest.approx(init, abs=1e-9)
            assert res_items.sum() == pytest.approx(init, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_literal_oracle(self, seed):
        ds = random_dataset(40 + seed, n_users=7, n_items=7, density=0.5)
        g = build_graph(ds)
        for u in range(ds.n_users):
            exp_users, exp_items = oracles.md_item_scores(ds, u)
            res_users, res_items = md_scores(g, u)
            for v, val in exp_users.items():
                assert res_users[v] == pytest.approx(val, abs=1e-9)
            for j, val in exp_items.items():
                assert res_items[j] == pytest.approx(val, abs=1e-9)

    def test_sole_rater_returns_mass(self):
        ds = corpus.from_triples([("a", "x", 3), ("a", "y", 5)], SCALE15)
        g = build_graph(ds)
        res_users, _ = md_scores(g, 0)
        assert res_users[0] == pytest.approx(2.0)

    def test_isolated_user(self, fix4):
        # user present in the label space but absent from this subset
        sub = fix4.subset(np.arange(3))  # only u1's ratings
        g = build_graph(sub)
        with pytest.raises(RecommendError):
            md_scores(g, 1)

    def test_fold_user_without_ratings_warns_nothing(self, fix4, uid):
        # a training fold that holds none of u2's ratings
        sub = fix4.subset(np.flatnonzero(fix4.users != uid["u2"]))
        g = build_graph(sub)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res_users, res_items = md_scores(g, uid["u1"])
        exp_users, exp_items = oracles.md_item_scores(sub, uid["u1"])
        assert res_users[uid["u2"]] == 0.0
        for v, val in exp_users.items():
            assert res_users[v] == pytest.approx(val, abs=1e-12)
        for j, val in exp_items.items():
            assert res_items[j] == pytest.approx(val, abs=1e-12)

    def test_no_seen_items_in_output(self, fix4_graph, uid):
        for u in uid.values():
            rec = ranked(fix4_graph, u, md_scores(fix4_graph, u)[1])
            assert not set(rec.items.tolist()) & seen(fix4_graph, u)


# ---------------------------------------------------------------------------
# kNN collaborative filtering


def predict_one(sim, g, user, item, k):
    return knn_predict(sim, g, [user], [item], [k])[0, 0]


class TestKnnPrediction:
    def test_single_neighbor_similarity_cancels(self):
        ds = corpus.from_triples(
            [("a", "x", 2), ("a", "y", 4), ("b", "x", 2), ("b", "y", 4), ("b", "z", 5)],
            SCALE15,
        )
        g = build_graph(ds)
        sim = simkit.normalize(simkit.pcc_matrix(g, "users"))
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
        sim = simkit.normalize(simkit.pcc_matrix(fix4_graph, "users"))
        lookup = sim.values
        expected = oracles.knn_prediction(fix4, lookup, uid["u3"], iid["i2"], k=3)
        pred = predict_one(sim, fix4_graph, uid["u3"], iid["i2"], k=3)
        assert pred == pytest.approx(expected, abs=1e-12)
        # pinned: u2 is the only positive-similarity rater of i2, so the
        # prediction equals u2's rating of i2
        assert pred == pytest.approx(4.0)

    def test_scale_invariance(self, fix4, fix4_graph, uid, iid):
        base = simkit.normalize(simkit.pcc_matrix(fix4_graph, "users"))
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
        sim = simkit.normalize(simkit.pcc_matrix(fix4_graph, "users"))
        with pytest.raises(RecommendError):
            knn_predict(sim, fix4_graph, [0], [1], [3, 0])

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
        sim = simkit.normalize(simkit.pcc_matrix(fix4_graph, "users"))
        rec = ranked(fix4_graph, uid["u1"], knn_scores(sim, fix4_graph, uid["u1"], k=3))
        assert rec.items.tolist() == [iid["i2"]]

    def test_rated_everything_empty(self):
        ds = corpus.from_triples(
            [("a", "x", 2), ("a", "y", 4), ("b", "x", 3)], SCALE15
        )
        g = build_graph(ds)
        sim = simkit.normalize(simkit.cosine_matrix(g, "users"))
        rec = ranked(g, 0, knn_scores(sim, g, 0, k=1))
        assert rec.items.size == rec.scores.size == 0

    def test_ibcf_identity_falls_back_to_user_mean(self, fix4_graph, uid):
        sim = identity_item_sim(fix4_graph.n_items)
        rec = ranked(fix4_graph, uid["u1"], knn_scores(sim, fix4_graph, uid["u1"], k=2))
        items = rec.items.tolist()
        assert items == sorted(items)  # id-ordered under constant scores
        assert all(s == pytest.approx(10 / 3) for s in rec.scores)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode,axis", [("UBCF", "users"), ("IBCF", "items")])
    def test_batch_matches_pointwise(self, seed, mode, axis):
        # the similarity's axis selects the mode
        ds = random_dataset(60 + seed, n_users=8, n_items=9, density=0.5)
        g = build_graph(ds)
        sim = simkit.normalize(simkit.pcc_matrix(g, axis))
        for u in range(g.n_users):
            if g.user_degree[u] == 0:
                continue
            rec = ranked(g, u, knn_scores(sim, g, u, k=3))
            for item, score in zip(rec.items.tolist(), rec.scores.tolist()):
                expected = oracles.knn_rating(ds, sim.values, u, item, 3, axis)
                assert score == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# Resource walk


class TestPimra:
    def test_single_user_single_item(self):
        ds = corpus.from_triples([("a", "x", 4)], SCALE15)
        g = build_graph(ds)
        scores = PimraScorer(g, identity_item_sim(1)).scores(0, theta=0.0)
        assert scores[0] == pytest.approx(1.0)  # R1 = 1, all mass returns
        assert ranked(g, 0, scores).items.size == 0

    def test_fix4_identity_theta0_table(self, fix4, fix4_graph, uid, iid):
        scores = PimraScorer(fix4_graph, identity_item_sim(4)).scores(uid["u1"], theta=0.0)
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
            scores = scorer.scores(u, theta)
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
            scores = scorer.scores(u, 0.4)
            for j in range(ds.n_items):
                assert scores[j] == pytest.approx(expected.get(j, 0.0), abs=1e-9)

    def test_theta_scaling_identity(self, fix4_graph, uid):
        scorer = PimraScorer(fix4_graph, pim_item_sim(fix4_graph))
        base = scorer.scores(uid["u2"], theta=0.0)
        deg = np.where(fix4_graph.item_degree > 0, fix4_graph.item_degree, 1).astype(float)
        for theta in (0.25, 0.5, 1.0):
            scaled = scorer.scores(uid["u2"], theta=theta)
            assert np.allclose(scaled, base / deg**theta, atol=1e-12)

    def test_penalty_once_per_theta_is_bitwise_the_per_user_expression(self):
        # a fold's training graph, so that some items have no training rating
        train = corpus.kfold_split(random_dataset(91, n_users=9, n_items=12, density=0.3), 2, 0)[0].train
        g = build_graph(train)
        assert (g.item_degree == 0).any()
        scorer = PimraScorer(g, pim_item_sim(g))
        deg = g.item_degree.astype(np.float64)
        for theta in (0.6, 0.0, 1.0, 0.6, 0.25, 0.25, 1 / 3):
            for u in np.flatnonzero(g.user_degree > 0).tolist():
                seen, _ = g.user_items(u)
                n_u = float(len(seen))
                coef = (1.0 / n_u + np.log(n_u / g.item_degree[seen])) / g.item_weight_sum[seen]
                expected = coef @ scorer._p[seen] / np.where(deg > 0, deg, 1.0) ** theta
                assert np.array_equal(scorer.scores(u, theta), expected)

    def test_theta_demotes_popular_relative_to_rare(self, fix4_graph, uid, iid):
        # u2's candidates: i1 (degree 2) and i4 (degree 3)
        scorer = PimraScorer(fix4_graph, pim_item_sim(fix4_graph))
        prev = None
        for theta in np.linspace(0.0, 1.0, 11):
            scores = scorer.scores(uid["u2"], theta=theta)
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
        ds = corpus.from_triples(triples, SCALE15)
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

    def test_invalid_theta(self, fix4_graph):
        scorer = PimraScorer(fix4_graph, identity_item_sim(4))
        for theta in (-0.1, 1.5):
            with pytest.raises(RecommendError, match=r"theta must be in \[0, 1\]"):
                scorer.scores(0, theta)


# ---------------------------------------------------------------------------
# Matrix factorization


class TestMf:
    def test_descent_on_fix4(self, fix4):
        cfg = MfConfig(factors=4, epochs=200, seed=3)
        model = train_mf(fix4, cfg)
        # reconstruct the epoch-0 parameters from the same seed
        rng = np.random.default_rng(cfg.seed)
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
        ds = corpus.from_triples(triples, SCALE15)
        model = train_mf(ds, MfConfig(factors=4, epochs=300, seed=1))
        pred = predict_mf(model, ds.users, ds.items)
        assert np.allclose(pred, 3.0, atol=0.05)
        assert np.linalg.norm(model.user_factors) < 0.1 * np.sqrt(16)

    def test_deterministic(self, fix4):
        a = train_mf(fix4, MfConfig(epochs=5, seed=7))
        b = train_mf(fix4, MfConfig(epochs=5, seed=7))
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(
            predict_mf(a, fix4.users, fix4.items),
            predict_mf(b, fix4.users, fix4.items),
        )

    def test_divergence_reports_epoch(self, fix4):
        # learning rates at which the scalar oracle diverges on fix4, seed 0,
        # and the epoch at which it does
        for lr, epoch in ((1e6, 1), (2.0, 2), (0.8, 3)):
            cfg = MfConfig(learning_rate=lr, epochs=10, seed=0)
            with pytest.raises(MfDivergenceError) as expected:
                oracles.train_mf(fix4, cfg)
            with pytest.raises(MfDivergenceError) as exc:
                train_mf(fix4, cfg)
            assert exc.value.epoch == expected.value.epoch == epoch, lr

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
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 9),
        n_items=st.integers(1, 9),
        density=st.floats(0.05, 1.0),
        full_user=st.booleans(),
        factors=st.integers(1, 8),
        epochs=st.integers(1, 4),
        mf_seed=st.integers(0, 3),
    )
    @example(seed=0, n_users=5, n_items=1, density=0.5, full_user=False, factors=3, epochs=2, mf_seed=0)
    @example(seed=1, n_users=4, n_items=7, density=0.2, full_user=True, factors=8, epochs=4, mf_seed=1)
    @settings(max_examples=80)
    def test_matches_scalar_sgd(
        self, seed, n_users, n_items, density, full_user, factors, epochs, mf_seed
    ):
        ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
        if full_user:
            # one more user who rated every item
            rated = list(ds.triples()) + [(n_users, i, 3.0) for i in range(ds.n_items)]
            ds = corpus.from_triples([(f"u{u}", f"i{i}", r) for u, i, r in rated], SCALE15)
        cfg = MfConfig(factors=factors, epochs=epochs, seed=mf_seed)
        got, expected = train_mf(ds, cfg), oracles.train_mf(ds, cfg)
        assert got.global_mean == expected.global_mean
        for field in ("user_bias", "item_bias", "user_factors", "item_factors"):
            assert np.array_equal(getattr(got, field), getattr(expected, field)), field

    def test_recommend_excludes_seen(self, fix4, fix4_graph, uid):
        model = train_mf(fix4, MfConfig(epochs=5, seed=0))
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
        ds = corpus.from_triples(triples, SCALE15)
        g = build_graph(ds)
        rec = ranked(g, 0, md_scores(g, 0)[1])
        assert rec.scores[0] == rec.scores[1]
        assert rec.items.tolist() == sorted(rec.items.tolist())

    def test_rank_orders_by_score_then_id(self):
        # user 1 has rated item 3 only
        ds = corpus.from_triples([("a", f"i{i}", 3) for i in range(6)] + [("b", "i3", 4)], SCALE15)
        g = build_graph(ds)
        scores = np.array([0.5, 2.0, 0.5, 1.0, 2.0, 0.0])
        rec = ranked(g, 1, scores)
        assert rec.user == 1
        assert rec.items.tolist() == [1, 4, 0, 2, 5]
        assert rec.scores.tolist() == [2.0, 2.0, 0.5, 0.5, 0.0]
        assert rec.top(2).tolist() == [1, 4]
        assert rec.n_candidates == 5
        # the list holds the head of that ranking; ties at the boundary by id
        short = rank(g, [1], scores[None, :], 3, likes={1: {2, 3, 5}})[0]
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
    @settings(max_examples=200)
    def test_block_rank_matches_full_oracle(
        self, seed, n_users, n_items, density, full_user, length, block
    ):
        # lists shorter than `length`, lengths above the item count, blocks
        # of one and of several users in no particular order
        g, scores, likes = random_ranking(seed, n_users, n_items, density, full_user)
        users = np.random.default_rng(seed).permutation(g.n_users)
        for lo in range(0, len(users), block):
            chunk = users[lo : lo + block]
            got = rank(g, chunk, scores[chunk], length, likes)
            expected = oracles.full_lists(g, chunk, scores[chunk], likes)
            assert len(got) == len(chunk)
            for rec, full in zip(got, expected):
                assert rec.user == full.user
                assert np.array_equal(rec.items, full.items[:length])
                assert np.array_equal(rec.scores, full.scores[:length])
                assert np.array_equal(rec.liked_ranks, full.liked_ranks)
                assert rec.n_candidates == full.n_candidates

    def test_user_who_has_seen_every_item(self):
        g, scores, _ = random_ranking(2, 3, 5, 0.5, full_user=True)
        rec = rank(g, [g.n_users - 1], scores[-1:], 3, {g.n_users - 1: {0, 4}})[0]
        assert rec.n_candidates == 0
        assert rec.items.size == rec.scores.size == rec.liked_ranks.size == 0

    def test_rejects_length_below_one(self, fix4_graph):
        with pytest.raises(RecommendError, match="list length"):
            rank(fix4_graph, [0], np.zeros((1, fix4_graph.n_items)), 0)

    def test_repeat_runs_identical(self, fix4_graph, uid):
        u = uid["u2"]
        runs = [
            ranked(fix4_graph, u, PimraScorer(fix4_graph, pim_item_sim(fix4_graph)).scores(u, 0.6))
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].items, runs[1].items)
        assert np.array_equal(runs[0].scores, runs[1].scores)
