import csv
import gc
import json
import weakref
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from diffrec import corpus, bigraph, evalmetrics, harness, recommend, simkit
from diffrec.simkit import SimilarityMatrix
from diffrec.harness import (
    ExperimentConfig,
    FoldContext,
    HarnessError,
    METHODS,
    analyze_corpus,
    run_experiment,
    sweep_knn,
    sweep_list_length,
    sweep_theta,
    write_manifest,
    write_report_csv,
)

import oracles
from conftest import random_dataset, report_mean


LIST_METRICS = ("gini", "id", "iud", "novelty", "avg_popularity")


@pytest.fixture(scope="module")
def ds():
    return random_dataset(123, n_users=20, n_items=15, density=0.4)


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(
        dataset_name="synthetic",
        k_folds=3,
        seed=7,
        list_length=5,
        knn_k=5,
        theta=0.6,
        mf=recommend.MfConfig(factors=8, epochs=20),
    )


@pytest.fixture(scope="module")
def report(ds, cfg):
    return run_experiment(ds, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(HarnessError):
            ExperimentConfig(k_folds=1)
        with pytest.raises(HarnessError):
            ExperimentConfig(list_length=0)
        with pytest.raises(HarnessError):
            ExperimentConfig(methods=("MD", "NOPE"))
        with pytest.raises(HarnessError):
            ExperimentConfig(methods=())
        with pytest.raises(HarnessError):
            ExperimentConfig(knn_k=0)
        for theta in (-0.1, 1.5):
            with pytest.raises(HarnessError, match=r"theta must be in \[0, 1\]"):
                ExperimentConfig(theta=theta)

    def test_rejects_a_repeated_method(self):
        # each fold would rank it twice and write its rows twice
        with pytest.raises(HarnessError, match="^methods repeat 'MD'$"):
            ExperimentConfig(methods=("MD", "PIM+RA", "MD"))

    @pytest.mark.parametrize(
        "name,allowed",
        [
            ("knn_measure", "cosine, pcc, pim"),
            ("metric_sim", "cosine, pcc, pim"),
            ("penalty_variant", "pair-max, global-max"),
            ("step3_weight", "literal-w_vi, alt-w_vj"),
        ],
    )
    def test_rejects_unknown_choice(self, name, allowed):
        for value in allowed.split(", "):
            ExperimentConfig(**{name: value})
        with pytest.raises(HarnessError, match=f"{name} must be one of {allowed}, got 'bogus'"):
            ExperimentConfig(**{name: "bogus"})

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=1)
        c = ExperimentConfig(seed=2)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestRunExperiment:
    def test_row_completeness(self, report, cfg):
        folds = {str(f) for f in range(cfg.k_folds)} | {"mean"}
        for method in METHODS:
            for fold in folds:
                got = {
                    r.metric
                    for r in report.rows
                    if r.method == method and r.fold == fold
                }
                assert "ars" in got
                assert set(LIST_METRICS) <= got

    def test_values_in_bounds(self, report):
        for r in report.rows:
            if r.value is None:
                continue
            if r.metric == "ars":
                assert r.value > 0
            elif r.metric in ("gini", "id", "iud", "novelty"):
                assert -1e-12 <= r.value <= 1.0 + 1e-12, (r.method, r.metric)
            elif r.metric == "avg_popularity":
                assert r.value >= 1.0

    def test_theta_only_on_pimra(self, report):
        for r in report.rows:
            if r.method == "PIM+RA":
                assert r.theta == 0.6
            else:
                assert r.theta is None

    def test_mean_accessor(self, report, cfg):
        per_fold = [
            r.value
            for r in report.rows
            if r.method == "MD" and r.metric == "gini" and r.fold != "mean"
        ]
        assert len(per_fold) == cfg.k_folds
        mean_row = [
            r.value
            for r in report.rows
            if r.method == "MD" and r.metric == "gini" and r.fold == "mean"
        ]
        assert mean_row[0] == pytest.approx(np.mean(per_fold))

    def test_list_sink_called(self, ds, cfg):
        calls = []
        run_experiment(ds, cfg, list_sink=lambda f, m, lists: calls.append((f, m, len(lists))))
        assert len(calls) == cfg.k_folds * len(cfg.methods)
        assert all(n > 0 for _, _, n in calls)

    def test_no_evaluable_users_raises(self, ds):
        cfg = ExperimentConfig(k_folds=3, like_threshold=6.0)
        with pytest.raises(HarnessError, match="no evaluable"):
            run_experiment(ds, cfg)

    def test_deterministic_reports(self, ds, cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(run_experiment(ds, cfg), a)
        write_report_csv(run_experiment(ds, cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_mf_trains_with_the_run_seed(self, monkeypatch):
        ds = random_dataset(17, n_users=8, n_items=9, density=0.5)
        cfg = ExperimentConfig(
            k_folds=2, seed=3, list_length=5, methods=("SVD",),
            mf=recommend.MfConfig(factors=3, epochs=2),
        )
        calls, real = [], recommend.train_mf

        def spy(trains, mf, seed):
            calls.append((trains, real(trains, mf, seed)))
            return calls[-1][1]

        monkeypatch.setattr(recommend, "train_mf", spy)
        run_experiment(ds, cfg)
        folds = corpus.kfold_split(ds, cfg.k_folds, 3)
        assert len(calls) == 1
        trains, models = calls[0]
        assert len(trains) == len(models) == len(folds)
        for pair, train, model in zip(folds, trains, models):
            assert np.array_equal(train.ratings, pair.train.ratings)
            expected = oracles.train_mf(pair.train, cfg.mf, 3)
            assert model.user_factors.tobytes() == expected.user_factors.tobytes()
            assert model.item_factors.tobytes() == expected.item_factors.tobytes()

    def test_a_diverged_fold_has_na_svd_rows(self, monkeypatch):
        # at this learning rate the oracle diverges on fold 1's training set
        # at epoch 3 and keeps folds 0 and 2 finite
        ds = random_dataset(1, n_users=12, n_items=10, density=0.5)
        cfg = ExperimentConfig(
            k_folds=3, seed=0, list_length=5, methods=("SVD",),
            mf=recommend.MfConfig(factors=3, learning_rate=0.4, epochs=5),
        )
        models, real = [], recommend.train_mf

        def spy(*args):
            models.extend(real(*args))
            return models

        monkeypatch.setattr(recommend, "train_mf", spy)
        report = run_experiment(ds, cfg)
        note = "method SVD failed: matrix factorization diverged at epoch 3"
        for f, pair in enumerate(corpus.kfold_split(ds, cfg.k_folds, cfg.seed)):
            rows = [r for r in report.rows if r.fold == str(f)]
            assert rows and FoldContext(pair, cfg).test_users
            if f == 1:
                assert all(r.value is None and r.note == note for r in rows)
                assert models[f].epoch == 3
                continue
            assert all(r.value is not None for r in rows if r.metric == "ars")
            expected = oracles.train_mf(pair.train, cfg.mf, cfg.seed)
            for field in ("user_bias", "item_bias", "user_factors", "item_factors"):
                assert getattr(models[f], field).tobytes() == getattr(expected, field).tobytes()


# IBCF stays out: its ranking breaks near-ties between similarities 1 ulp
# apart by item id (the strict xfail test_ibcf_takes_the_nearest_of_near_ties)
ORACLE_METHODS = ("UBCF", "SVD", "MD", "PIM+RA")


def rated(cells, ratings):
    """A corpus of (user, item) cells rated on the 1-5 scale."""
    triples = [(f"u{u}", f"i{i}", r) for (u, i), r in zip(cells, ratings)]
    return oracles.from_triples(triples, corpus.RatingScale(1, 5, 1))


def oracle_config(**settings):
    """A config of the methods the end-to-end oracle covers, with a two-epoch MF."""
    return ExperimentConfig(
        methods=ORACLE_METHODS, mf=recommend.MfConfig(factors=2, epochs=2), **settings
    )


@st.composite
def oracle_cases(draw):
    ds = random_dataset(
        draw(st.integers(0, 2**16)), draw(st.integers(2, 12)), draw(st.integers(2, 15)),
        draw(st.floats(0.05, 0.9)),
    )
    if draw(st.integers(0, 3)) == 0:  # all equal: no pcc or pim is defined
        ds = rated([(u, i) for u, i, _ in ds.triples()], [3.0] * ds.n_links)
    return ds, oracle_config(
        k_folds=draw(st.integers(2, min(5, ds.n_links))),
        seed=draw(st.integers(0, 3)),
        list_length=draw(st.integers(1, 10)),
        like_threshold=draw(st.sampled_from([1.0, 3.0])),
        theta=draw(st.sampled_from([0.0, 0.6, 1.0])),
        knn_k=draw(st.integers(1, 5)),
        knn_measure=draw(st.sampled_from(simkit.MEASURES)),
        penalty_variant=draw(st.sampled_from(["pair-max", "global-max"])),
        step3_weight=draw(st.sampled_from(["literal-w_vi", "alt-w_vj"])),
    )


class TestOracleRun:
    """run_experiment against the k-fold split composed with the scalar
    oracles, on corpora of at most 12 users x 15 items. A PIM+RA row whose
    lists rest on a near-tie of the oracle's scores is only checked to be
    defined (oracles.DEFINED)."""

    @given(case=oracle_cases())
    @example(case=(  # all-equal ratings: UBCF and PIM+RA fail on every fold
        rated([(u, i) for u in range(4) for i in range(5) if (u + i) % 3], [3.0] * 13),
        oracle_config(k_folds=3),
    ))
    @example(case=(  # one rating, so one item, in each test fold
        rated([(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)], [5.0, 3.0, 4.0, 2.0, 1.0, 5.0]),
        oracle_config(k_folds=6, knn_k=1),
    ))
    @example(case=(  # a fold trained on one item has no metric similarity
        rated([(0, 0), (0, 1), (1, 0)], [4.0, 4.0, 2.0]), oracle_config(k_folds=3),
    ))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_oracle_run(self, case):
        ds, cfg = case
        want = oracles.run_experiment(ds, cfg)
        if want is None:
            with pytest.raises(HarnessError):
                run_experiment(ds, cfg)
            return
        rows = run_experiment(ds, cfg).rows
        got = {(r.fold, r.method, r.theta, r.length, r.metric): r.value for r in rows}
        assert len(got) == len(rows)
        assert got == pytest.approx(want, abs=1e-9)


class TestRankingErrors:
    @pytest.mark.parametrize(
        "raised,expected",
        [(recommend.RecommendError, HarnessError), (IndexError, IndexError)],
    )
    def test_only_domain_errors_are_wrapped(self, ds, cfg, monkeypatch, raised, expected):
        def broken(g, users):
            raise raised("boom")

        monkeypatch.setattr(recommend, "md_scores", broken)
        ctx = FoldContext(corpus.kfold_split(ds, cfg.k_folds, cfg.seed)[0], cfg)
        with pytest.raises(expected, match="boom") as info:
            ctx.rank("MD", ctx.test_users, [None], cfg.list_length)
        assert type(info.value) is expected


class TestMethodTable:
    @pytest.mark.parametrize("measure", ["pcc", "cosine"])
    def test_each_method_reads_its_similarities(self, ds, monkeypatch, measure):
        cfg = ExperimentConfig(
            k_folds=3, list_length=5, knn_measure=measure,
            mf=recommend.MfConfig(factors=3, epochs=2),
        )
        pair = corpus.kfold_split(ds, cfg.k_folds, cfg.seed)[0]
        reads, real = [], FoldContext.similarity

        def spy(self, measure, axis, *rows):
            reads.append((measure, axis))
            return real(self, measure, axis, *rows)

        monkeypatch.setattr(FoldContext, "similarity", spy)
        expected = {
            "UBCF": [(measure, "users")],
            "IBCF": [(measure, "items")],
            "SVD": [],
            "MD": [],
            "PIM+RA": [("pim", "items")],
        }
        assert list(expected) == list(METHODS)
        for method, keys in expected.items():
            ctx = FoldContext(pair, cfg)
            reads.clear()
            ctx.rank(method, ctx.test_users, [None], cfg.list_length)
            assert sorted(set(reads)) == keys, method
            assert list(METHODS[method].reads(cfg)) == keys, method


class TestSimilarityLifetimes:
    """A fold keeps each similarity only until its last reader, and builds
    each (measure, axis) once."""

    @staticmethod
    def spy_builds(monkeypatch) -> list:
        """Record each `simkit.similarity` call's key and a weakref to the
        values it built."""
        builds, real = [], simkit.similarity

        def spy(g, measure, axis, *args):
            sim = real(g, measure, axis, *args)
            builds.append(((measure, axis), weakref.ref(sim.values)))
            return sim

        monkeypatch.setattr(simkit, "similarity", spy)
        return builds

    def test_sweep_knn_holds_one_matrix_at_a_time(self, ds, cfg, monkeypatch):
        builds, real = [], simkit.similarity

        def spy(*args):
            gc.collect()
            assert all(ref() is None for ref in builds)
            sim = real(*args)
            builds.append(weakref.ref(sim.values))
            return sim

        monkeypatch.setattr(simkit, "similarity", spy)
        sweep_knn(ds, cfg, (1, 3))
        assert len(builds) == cfg.k_folds * len(simkit.MEASURES) * 2

    def test_ranked_run_releases_a_key_after_its_last_reader(self, ds, cfg, monkeypatch):
        events, real_rank, real_release = [], FoldContext.rank, FoldContext.release

        def rank(self, method, *args):
            events.append(("rank", method))
            return real_rank(self, method, *args)

        def release(self, key):
            real_release(self, key)
            gc.collect()
            dead = all(ref() is None for k, ref in builds if k == key)
            events.append(("release", key, dead))

        builds = self.spy_builds(monkeypatch)
        monkeypatch.setattr(FoldContext, "rank", rank)
        monkeypatch.setattr(FoldContext, "release", release)
        run_experiment(ds, cfg, list_sink=lambda f, method, lists: events.append(("sink", method)))
        measure = cfg.knn_measure
        one_fold = [
            ("rank", "UBCF"), ("sink", "UBCF"), ("release", (measure, "users"), True),
            ("rank", "IBCF"), ("sink", "IBCF"), ("release", (measure, "items"), True),
            ("rank", "SVD"), ("sink", "SVD"), ("rank", "MD"), ("sink", "MD"),
            ("rank", "PIM+RA"), ("sink", "PIM+RA"), ("release", ("pim", "items"), True),
        ]
        assert events == one_fold * cfg.k_folds

    @pytest.mark.parametrize(
        "metric_sim, knn_measure", [("pcc", "pcc"), ("pim", "pcc"), ("cosine", "pcc")]
    )
    def test_metric_similarity_lives_to_the_fold_end(
        self, ds, cfg, monkeypatch, metric_sim, knn_measure
    ):
        builds = self.spy_builds(monkeypatch)
        released, real = [], FoldContext.release
        monkeypatch.setattr(
            FoldContext, "release", lambda self, key: (released.append(key), real(self, key))
        )
        cfg = replace(cfg, metric_sim=metric_sim, knn_measure=knn_measure)
        run_experiment(ds, cfg)
        metric_key = (metric_sim, "items")
        assert metric_key not in released
        # each distinct key once a fold: nothing is built again after a release
        keys = {(knn_measure, "users"), (knn_measure, "items"), ("pim", "items"), metric_key}
        assert Counter(key for key, _ in builds) == {key: cfg.k_folds for key in keys}
        assert sorted(set(released)) == sorted(keys - {metric_key})

    def test_release_drops_the_matrix_its_error_and_the_scorer(self, ds, cfg, monkeypatch):
        ctx = FoldContext(corpus.kfold_split(ds, cfg.k_folds, cfg.seed)[0], cfg)
        builds = self.spy_builds(monkeypatch)
        scorer = ctx.pimra_scorer
        ctx.release(("pim", "items"))
        assert ctx.pimra_scorer is not scorer and len(builds) == 2

        def fail(*args):
            raise simkit.SimilarityError("no pair")

        monkeypatch.setattr(simkit, "similarity", fail)
        with pytest.raises(simkit.SimilarityError):
            ctx.similarity("pcc", "users")
        ctx.release(("pcc", "users"))
        monkeypatch.undo()
        assert ctx.similarity("pcc", "users").axis == "users"


class TestMemoryCeiling:
    """A similarity matrix too big for this process stops the run: NA rows
    would make the report depend on the machine."""

    @staticmethod
    def items_fit_users_do_not(ds, monkeypatch):
        # the metrics' cosine over items fits, UBCF's pcc over users does not
        n_users, n_items = ds.n_users, ds.n_items
        assert n_users > n_items
        need = 9 * n_items**2 + 8 * n_items * (2 * n_users + simkit._PRODUCTS_ALIVE * n_items)
        monkeypatch.setattr(simkit, "_memory_limit", lambda: need)

    def test_rank_raises_it_unwrapped(self, ds, cfg, monkeypatch):
        ctx = FoldContext(corpus.kfold_split(ds, cfg.k_folds, cfg.seed)[0], cfg)
        self.items_fit_users_do_not(ds, monkeypatch)
        with pytest.raises(simkit.MemoryCeilingError, match="^pcc similarity over 20 users needs"):
            ctx.rank("UBCF", ctx.test_users, [None], cfg.list_length)

    def test_run_fails_rather_than_writing_na_rows(self, ds, cfg, monkeypatch):
        self.items_fit_users_do_not(ds, monkeypatch)
        with pytest.raises(simkit.MemoryCeilingError):
            run_experiment(ds, replace(cfg, methods=("MD", "UBCF")))

    def test_metric_similarity_raises_it_unwrapped(self, ds, cfg, monkeypatch):
        # MD needs no similarity, so only the metrics' cosine over items can fail
        monkeypatch.setattr(simkit, "_memory_limit", lambda: 0)
        with pytest.raises(simkit.MemoryCeilingError, match="^cosine similarity over 15 items"):
            run_experiment(ds, replace(cfg, methods=("MD",)))

    def test_sweep_knn_raises_it_unwrapped(self, ds, cfg, monkeypatch):
        monkeypatch.setattr(simkit, "_memory_limit", lambda: 0)
        with pytest.raises(simkit.MemoryCeilingError, match="^pcc similarity over 20 users"):
            sweep_knn(ds, cfg, [5], ["pcc"])


class TestPimraRowsOnDemand:
    def test_one_user_builds_only_its_rows(self, cfg):
        # the recommend command's fold: every rating trains, none tests
        ds = random_dataset(5, n_users=12, n_items=15, density=0.4)
        pair = corpus.FoldPair(train=ds, test=ds.subset(np.arange(0)))
        ctx = FoldContext(pair, cfg)
        g = ctx.graph
        u = int(np.argmin(g.user_degree))
        assert 0 < g.user_degree[u] < g.n_items
        got = ctx.rank("PIM+RA", [u], [None], cfg.list_length)[0][0]
        assert (ctx.pimra_scorer._slot >= 0).sum() == g.user_degree[u]
        # a scorer with every row built ranks the same list
        full = FoldContext(pair, cfg)
        full.pimra_scorer.walk(np.arange(g.n_users))
        assert (full.pimra_scorer._slot >= 0).all()
        want = full.rank("PIM+RA", [u], [None], cfg.list_length)[0][0]
        assert got.items.tobytes() == want.items.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()


class TestContextForSomeUsers:
    """A context given the users it ranks (the recommend command's) builds
    only their rated items' rows of PIM+RA's similarity."""

    @staticmethod
    def record_builds(monkeypatch) -> list:
        """Each `simkit.similarity` call's (measure, axis, rows)."""
        calls, real = [], simkit.similarity

        def spy(g, measure, axis, variant="pair-max", rows=None):
            calls.append((measure, axis, None if rows is None else rows.tolist()))
            return real(g, measure, axis, variant, rows)

        monkeypatch.setattr(simkit, "similarity", spy)
        return calls

    @pytest.mark.parametrize("seed", range(4))
    def test_pimra_reads_its_users_rows_and_ranks_as_the_whole_matrix(
        self, cfg, monkeypatch, seed
    ):
        ds = random_dataset(seed, n_users=12, n_items=15, density=0.4)
        pair = corpus.FoldPair(train=ds, test=ds.subset(np.arange(0)))
        users = [3, 7] if seed % 2 else [5]
        full = FoldContext(pair, cfg).rank("PIM+RA", users, [0.0, None], cfg.list_length)
        calls = self.record_builds(monkeypatch)
        ctx = FoldContext(pair, cfg, users=users)
        got = ctx.rank("PIM+RA", users, [0.0, None], cfg.list_length)
        rated = np.unique(np.concatenate([ctx.graph.user_items(u)[0] for u in users]))
        assert calls == [("pim", "items", rated.tolist())]
        assert ctx.pimra_scorer._p.shape == (len(rated), ctx.graph.n_items)
        for want_lists, got_lists in zip(full, got):
            for want, rec in zip(want_lists, got_lists):
                assert rec.items.tobytes() == want.items.tobytes()
                assert rec.scores.tobytes() == want.scores.tobytes()

    def test_ibcf_with_pim_reads_the_whole_matrix(self, ds, cfg, monkeypatch):
        cfg = replace(cfg, knn_measure="pim", methods=("IBCF", "PIM+RA"))
        pair = corpus.FoldPair(train=ds, test=ds.subset(np.arange(0)))
        want = FoldContext(pair, cfg).rank("IBCF", [4], [None], cfg.list_length)[0][0]
        calls = self.record_builds(monkeypatch)
        ctx = FoldContext(pair, cfg, users=[4])
        got = ctx.rank("IBCF", [4], [None], cfg.list_length)[0][0]
        ctx.rank("PIM+RA", [4], [None], cfg.list_length)
        rated = ctx.graph.user_items(4)[0].tolist()
        assert calls == [("pim", "items", None), ("pim", "items", rated)]
        assert got.items.tobytes() == want.items.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()
        # a release drops both builds
        ctx.release(("pim", "items"))
        assert not ctx._sims

    def test_pimra_for_a_user_outside_the_rows_is_an_error(self, ds, cfg):
        pair = corpus.FoldPair(train=ds, test=ds.subset(np.arange(0)))
        ctx = FoldContext(pair, cfg, users=[0])
        g = ctx.graph
        other = next(u for u in range(g.n_users)
                     if not np.isin(g.user_items(u)[0], g.user_items(0)[0]).all())
        no_row = r"^method PIM\+RA failed: the item similarity holds no row for item"
        with pytest.raises(HarnessError, match=no_row):
            ctx.rank("PIM+RA", [other], [None], cfg.list_length)

    @pytest.mark.parametrize("methods, kept", [(("PIM+RA",), False), (("MD", "SVD"), True)])
    def test_ratings_are_kept_only_for_a_method_that_trains(self, ds, cfg, methods, kept):
        pair = corpus.FoldPair(train=ds, test=ds.subset(np.arange(0)))
        models, _ = FoldContext(pair, replace(cfg, methods=methods))._mf
        assert models._trains == ([pair.train] if kept else [])
        if not kept:
            with pytest.raises(HarnessError, match="^no training set kept"):
                FoldContext(pair, replace(cfg, methods=methods)).mf_model


class TestGraphsStayUnchanged:
    def test_runs_leave_every_graph_array_as_built(self, ds, cfg, monkeypatch):
        # the graph's adjacency shares the weights' arrays, so no reader may
        # edit either in place
        built = []

        def arrays(g):
            out = [g.user_degree, g.item_degree, g.user_weight_sum, g.item_weight_sum]
            for m in (g.weights, g.weights_t, g.adjacency, g.adjacency_t):
                out += [m.data, m.indices, m.indptr]
            return out

        def recording(train):
            g = build(train)
            built.append((g, [x.tobytes() for x in arrays(g)]))
            return g

        build = bigraph.build_graph
        monkeypatch.setattr(bigraph, "build_graph", recording)
        run_experiment(ds, cfg)
        sweep_knn(ds, cfg, [2, 5], ["cosine", "pcc", "pim"])
        assert len(built) == 2 * cfg.k_folds
        for g, before in built:
            assert [x.tobytes() for x in arrays(g)] == before


class TestSerialization:
    def test_csv_format(self, report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,fold,method,theta,L,metric,value"
        assert len(lines) == 1 + len(report.rows)
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 7
            assert parts[0] == "synthetic"
            if parts[6] != "NA":
                float(parts[6])

    def test_dataset_name_is_quoted(self, report, tmp_path):
        path, name = tmp_path / "report.csv", 'ml,100k "small"'
        write_report_csv(replace(report, rows=[replace(r, dataset=name) for r in report.rows]), path)
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 1 + len(report.rows)
        assert all(len(record) == 7 for record in records)
        assert {record[0] for record in records[1:]} == {name}

    def test_manifest(self, ds, report, tmp_path):
        path, data = tmp_path / "manifest.json", tmp_path / "ratings.csv"
        corpus.write_ratings(ds, data)
        write_manifest(report, path, data)
        doc = json.loads(path.read_text())
        assert doc["config_hash"] == report.config.digest()
        assert doc["seed"] == report.config.seed
        assert doc["rows"] == len(report.rows)
        assert doc["config"]["k_folds"] == report.config.k_folds

    def test_manifest_names_its_environment(self, ds, report, tmp_path, monkeypatch):
        corpus.write_ratings(ds, tmp_path / "ratings.csv")
        for madvise in ("0", None):
            if madvise is None:
                monkeypatch.delenv("NUMPY_MADVISE_HUGEPAGE", raising=False)
            else:
                monkeypatch.setenv("NUMPY_MADVISE_HUGEPAGE", madvise)
            write_manifest(report, tmp_path / "manifest.json", tmp_path / "ratings.csv")
            env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
            assert set(env) == {
                "numpy_cpu", "blas_build", "openblas", "transparent_hugepage",
                "NUMPY_MADVISE_HUGEPAGE",
            }
            assert env["NUMPY_MADVISE_HUGEPAGE"] == madvise
        cpu = env["numpy_cpu"]
        assert set(cpu) == {"baseline", "dispatched", "ufuncs"}
        assert all(isinstance(f, str) for f in cpu["baseline"] + cpu["dispatched"])
        if isinstance(cpu["ufuncs"], dict):
            assert set(cpu["ufuncs"]) == {"exp", "log", "log1p", "power"}
            assert all(cpu["ufuncs"][name] for name in cpu["ufuncs"])
        # each part is its value or a note saying why it is missing
        assert isinstance(env["blas_build"], (dict, str))
        if isinstance(env["openblas"], dict):
            assert set(env["openblas"]) == {"corename", "threads"}
            assert env["openblas"]["corename"] and env["openblas"]["threads"] >= 1
        else:
            assert isinstance(env["openblas"], str)
        thp = env["transparent_hugepage"]
        assert thp is None or thp in {"always", "madvise", "never"}

    def test_manifest_similarity_seconds_sum_over_folds(self, ds, cfg, tmp_path):
        # a clock that ticks one second per reading: each build takes 1 s
        ticks = iter(range(10**6))
        cfg = replace(cfg, methods=("UBCF", "PIM+RA"), knn_measure="pcc", metric_sim="cosine")
        with mock.patch.object(harness.time, "perf_counter", lambda: float(next(ticks))):
            report = run_experiment(ds, cfg)
        ranked_folds = sum(1 for f in report.fold_users if f["evaluated_users"])
        assert ranked_folds > 1
        built = {"pcc/users": ranked_folds, "pim/items": ranked_folds, "cosine/items": ranked_folds}
        assert report.similarity_s == built
        corpus.write_ratings(ds, tmp_path / "ratings.csv")
        write_manifest(report, tmp_path / "manifest.json", tmp_path / "ratings.csv")
        assert json.loads((tmp_path / "manifest.json").read_text())["similarity_s"] == built
        # the report itself does not change
        write_report_csv(report, tmp_path / "timed.csv")
        write_report_csv(run_experiment(ds, cfg), tmp_path / "report.csv")
        assert (tmp_path / "timed.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()

    def test_manifest_rank_seconds_sum_over_folds(self, ds, cfg, tmp_path):
        # a clock that ticks one second per reading: a ranking reads it at
        # its start and end, and a similarity build or MF training that it
        # starts reads it twice more and takes 1 s, which is not counted
        ticks = iter(range(10**6))
        cfg = replace(cfg, methods=("SVD", "MD", "PIM+RA"))
        with mock.patch.object(harness.time, "perf_counter", lambda: float(next(ticks))):
            report = run_experiment(ds, cfg)
        folds = sum(1 for f in report.fold_users if f["evaluated_users"])
        assert folds > 1
        # SVD trains every fold's model on its first ranking
        ranked = {"SVD": folds + 1, "MD": folds, "PIM+RA": 2 * folds}
        assert report.rank_s == ranked
        assert report.mf_train_s == 1
        corpus.write_ratings(ds, tmp_path / "ratings.csv")
        write_manifest(report, tmp_path / "manifest.json", tmp_path / "ratings.csv")
        assert json.loads((tmp_path / "manifest.json").read_text())["rank_s"] == ranked
        write_report_csv(report, tmp_path / "timed.csv")
        write_report_csv(run_experiment(ds, cfg), tmp_path / "report.csv")
        assert (tmp_path / "timed.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()


    def test_manifest_user_counts_and_na_notes(self, tmp_path):
        ds = one_user_fold_corpus()
        cfg = ExperimentConfig(k_folds=8, methods=("MD",))
        report = run_experiment(ds, cfg)
        corpus.write_ratings(ds, tmp_path / "ratings.csv")
        write_manifest(report, tmp_path / "manifest.json", tmp_path / "ratings.csv")
        doc = json.loads((tmp_path / "manifest.json").read_text())
        contexts = [FoldContext(pair, cfg) for pair in corpus.kfold_split(ds, 8, cfg.seed)]
        assert [{k: v for k, v in f.items() if k != "peak_rss_mb"} for f in doc["folds"]] == [
            {"fold": f, "evaluated_users": len(ctx.test_users), "excluded_users": ctx.excluded_users}
            for f, ctx in enumerate(contexts)
        ]
        na = [r for r in report.rows if r.value is None]
        assert na and all(r.note for r in na)
        assert doc["na"] == [
            {"fold": r.fold, "method": r.method, "theta": r.theta, "L": r.length,
             "metric": r.metric, "note": r.note}
            for r in na
        ]
        # the notes stay out of the report itself
        write_report_csv(report, tmp_path / "report.csv")
        assert "need at least" not in (tmp_path / "report.csv").read_text()

    def test_manifest_peak_rss_per_fold(self, ds, cfg, tmp_path):
        report = run_experiment(ds, cfg)
        corpus.write_ratings(ds, tmp_path / "ratings.csv")
        write_manifest(report, tmp_path / "manifest.json", tmp_path / "ratings.csv")
        doc = json.loads((tmp_path / "manifest.json").read_text())
        # the process's peak at each fold's end, which only climbs, up to the run's
        peaks = [f["peak_rss_mb"] for f in doc["folds"]]
        assert len(peaks) == cfg.k_folds and peaks[0] > 0
        assert peaks == sorted(peaks) and peaks[-1] <= doc["peak_rss_mb"]


def one_user_fold_corpus():
    """8 x 8 corpus whose 8-fold split has folds with one evaluable user."""
    return oracles.from_triples(
        [(f"u{u}", f"i{i}", 1 + (u * i) % 5) for u in range(8) for i in range(8) if (u + i) % 3],
        corpus.RatingScale(1, 5, 1),
    )


class TestSingleUserFold:
    def test_list_metrics_undefined_on_one_user_are_na(self):
        ds = one_user_fold_corpus()
        cfg = ExperimentConfig(k_folds=8)
        report = run_experiment(ds, cfg)
        single = [
            str(f)
            for f, pair in enumerate(corpus.kfold_split(ds, 8, cfg.seed))
            if len(FoldContext(pair, cfg).test_users) == 1
        ]
        assert single
        for fold in single:
            for method in cfg.methods:
                (row,) = [
                    r for r in report.rows
                    if r.fold == fold and r.method == method and r.metric == "iud"
                ]
                assert row.value is None and row.note == "need at least 2 users"
        assert all(r.value is not None for r in report.rows if r.fold == "mean")


class TestDegenerateInputs:
    """Degenerate corpora through the whole run: a report with finite
    values, or a typed error."""

    CFG = ExperimentConfig(
        k_folds=3, list_length=5, knn_k=3, mf=recommend.MfConfig(factors=4, epochs=5)
    )

    @staticmethod
    def assert_finite_report(report):
        assert report.rows
        for r in report.rows:
            assert r.value is None or np.isfinite(r.value), r

    @staticmethod
    def corpus_8x8(scale=corpus.RatingScale(1, 5, 1), extra=()):
        rng = np.random.default_rng(0)
        lo, hi = int(scale.min), int(scale.max)
        triples = [
            (f"u{u}", f"i{i}", int(rng.integers(lo, hi + 1)))
            for u in range(8)
            for i in range(8)
            if (u * i + u) % 3
        ]
        return oracles.from_triples(triples + list(extra), scale)

    def test_all_equal_ratings_leave_only_the_similarity_methods_na(self):
        ds = oracles.from_triples(
            [(f"u{u}", f"i{i}", 4) for u in range(6) for i in range(6) if (u + i) % 2],
            corpus.RatingScale(1, 5, 1),
        )
        lists = {}
        report = run_experiment(
            ds, self.CFG, list_sink=lambda f, m, ls: lists.setdefault(m, []).append(ls)
        )
        self.assert_finite_report(report)
        folds = [r for r in report.rows if r.fold != "mean"]
        # MD and SVD need no rating similarity; the others normalize a
        # Pearson matrix that no pair of raters defines
        for method in ("MD", "SVD"):
            assert all(r.value is not None for r in folds if r.method == method)
            assert all(lists[method])
        for method in ("UBCF", "IBCF", "PIM+RA"):
            rows = [r for r in folds if r.method == method]
            assert rows and all(r.value is None for r in rows)
            assert all(
                r.note.startswith(f"method {method} failed: ")
                and r.note.endswith("no defined off-diagonal values to normalize")
                for r in rows
            )
            assert lists[method] == [[]] * self.CFG.k_folds
        # with only failing methods there is nothing to report
        with pytest.raises(HarnessError, match="no defined off-diagonal values to normalize"):
            run_experiment(ds, replace(self.CFG, methods=("UBCF", "PIM+RA")))

    def test_user_who_has_seen_every_item(self):
        ds = self.corpus_8x8(extra=[("full", f"i{i}", 2 + i % 4) for i in range(8)])
        self.assert_finite_report(run_experiment(ds, self.CFG))
        # trained on everything, as `diffrec recommend` is: no candidates left
        ctx = FoldContext(corpus.FoldPair(train=ds, test=ds.subset(np.arange(0))), self.CFG)
        full = ds.user_labels.index("full")
        for method in METHODS:
            ((rec,),) = ctx.rank(method, [full], [None], self.CFG.list_length)
            assert rec.n_candidates == 0
            assert rec.items.size == rec.scores.size == rec.liked_ranks.size == 0

    def test_user_present_only_in_test(self):
        ds = self.corpus_8x8(extra=[("lone", "i0", 5)])
        report = run_experiment(ds, self.CFG)
        self.assert_finite_report(report)
        assert sum(f["excluded_users"] for f in report.fold_users) == 1

    def test_scale_starting_at_zero(self):
        ds = self.corpus_8x8(scale=corpus.RatingScale(0, 5, 1))
        assert (ds.ratings == 0).any()
        self.assert_finite_report(run_experiment(ds, self.CFG))

    def test_one_item_folds(self):
        # every rating liked, so each one-rating test fold has one evaluable user
        triples = [
            (f"u{u}", f"i{i}", 3 + (u + i) % 3) for u in range(4) for i in range(4) if (u + i) % 2
        ]
        ds = oracles.from_triples(triples, corpus.RatingScale(1, 5, 1))
        cfg = ExperimentConfig(
            k_folds=ds.n_links, list_length=5, knn_k=3, mf=recommend.MfConfig(factors=4, epochs=5)
        )
        report = run_experiment(ds, cfg)
        self.assert_finite_report(report)
        assert [f["evaluated_users"] for f in report.fold_users] == [1] * ds.n_links
        # a one-rating fold whose rating is not liked has no one to evaluate:
        # its metrics are NA rows with the reason, and the other folds run
        ds = oracles.from_triples(
            [(u, i, 2 if r == 3 else r) for u, i, r in triples], corpus.RatingScale(1, 5, 1)
        )
        report = run_experiment(ds, cfg)
        self.assert_finite_report(report)
        empty = [str(f["fold"]) for f in report.fold_users if f["evaluated_users"] == 0]
        assert len(empty) == 4
        note = "fold has no evaluable test users (like_threshold 3.0)"
        for fold in empty:
            rows = [r for r in report.rows if r.fold == fold]
            assert len(rows) == 6 * len(METHODS)
            assert all(r.value is None and r.note == note for r in rows)
        assert any(r.value is not None for r in report.rows if r.fold not in empty)


class TestSweepTheta:
    def test_matches_single_runs(self, ds, cfg):
        thetas = (0.0, 0.5)
        swept = sweep_theta(ds, cfg, thetas)
        for theta in thetas:
            single = run_experiment(
                ds,
                ExperimentConfig(
                    dataset_name=cfg.dataset_name,
                    k_folds=cfg.k_folds,
                    seed=cfg.seed,
                    list_length=cfg.list_length,
                    knn_k=cfg.knn_k,
                    theta=theta,
                    methods=("PIM+RA",),
                    mf=cfg.mf,
                ),
            )
            for metric in ("ars", "gini", "iud", "novelty", "avg_popularity"):
                assert report_mean(swept, "PIM+RA", metric, theta=theta) == pytest.approx(
                    report_mean(single, "PIM+RA", metric), abs=1e-12
                )

    def test_rejects_out_of_range(self, ds, cfg):
        with pytest.raises(HarnessError):
            sweep_theta(ds, cfg, [0.0, 1.5])

    def test_rows_are_those_of_single_theta_sweeps(self, ds, cfg, monkeypatch):
        # blocks of two users, so that every fold ranks several blocks
        monkeypatch.setattr(harness, "_BLOCK_BYTES", 8 * ds.n_items * 2)
        thetas = (0.0, 0.2, 1 / 3, 0.6, 0.8, 1.0)
        swept = sweep_theta(ds, cfg, thetas)
        for theta in thetas:
            single = sweep_theta(ds, cfg, (theta,))
            assert [r for r in swept.rows if r.theta == theta] == single.rows

    def test_walk_runs_once_per_fold_and_block(self, ds, cfg, monkeypatch):
        walked, real = [], recommend.PimraScorer.walk

        def counted(self, users):
            walked.append(len(users))
            return real(self, users)

        monkeypatch.setattr(recommend.PimraScorer, "walk", counted)
        monkeypatch.setattr(harness, "_BLOCK_BYTES", 8 * ds.n_items * 3)
        report = sweep_theta(ds, cfg, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
        blocks = [
            min(3, f["evaluated_users"] - lo)
            for f in report.fold_users
            for lo in range(0, f["evaluated_users"], 3)
        ]
        assert len(blocks) > cfg.k_folds
        assert walked == blocks


def theta_fold(seed, n_users, n_items, density):
    """A fold of `random_dataset`'s ratings, each user liking up to two
    unrated items in its test set, plus one more user who rated every item
    but one in training and likes that one."""
    ds = random_dataset(seed, n_users=n_users, n_items=n_items, density=density)
    rng = np.random.default_rng(seed)
    train = [(f"u{u}", f"i{i}", r) for u, i, r in ds.triples()]
    test = []
    for u in range(n_users):
        unrated = np.setdiff1d(np.arange(n_items), ds.items[ds.users == u])
        for i in rng.permutation(unrated)[: rng.integers(0, 3)].tolist():
            test.append((f"u{u}", f"i{i}", float(rng.choice([2.0, 4.0, 5.0]))))
    train += [("near-full", f"i{i}", float(1 + i % 5)) for i in range(1, n_items)]
    test.append(("near-full", "i0", 5.0))
    both = oracles.from_triples(train + test, ds.scale)
    return corpus.FoldPair(
        train=both.subset(np.arange(len(train))),
        test=both.subset(np.arange(len(train), len(train) + len(test))),
    )


class TestThetaBlocks:
    """A method's thetas are ranked together, each block of users scored
    and its ranking inputs built once for all of them."""

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(2, 7),
        n_items=st.integers(3, 9),
        density=st.floats(0.2, 0.9),
        thetas=st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.6, 1 / 3]), min_size=1, max_size=4,
                        unique=True),
        rows=st.integers(1, 3),
        length=st.integers(1, 10),
    )
    @example(seed=1, n_users=5, n_items=6, density=0.4, thetas=[0.0, 1.0], rows=2, length=3)
    @example(seed=2, n_users=3, n_items=4, density=0.5, thetas=[1.0, 0.6, 0.0, 0.25], rows=1,
             length=10)
    @settings(max_examples=40, deadline=None)
    def test_thetas_ranked_together_equal_single_theta_runs(
        self, seed, n_users, n_items, density, thetas, rows, length
    ):
        pair = theta_fold(seed, n_users, n_items, density)
        cfg = ExperimentConfig(k_folds=2, list_length=length)
        # any normalized item similarity: a small fold's pim may be undefined
        vals = np.random.default_rng(seed).random((pair.train.n_items,) * 2)
        sim = SimilarityMatrix("items", vals, np.ones_like(vals, dtype=bool), normalized=True)
        with mock.patch.object(harness, "_BLOCK_BYTES", 8 * pair.train.n_items * rows), \
                mock.patch.object(simkit, "similarity", lambda *args: sim):
            ctx = FoldContext(pair, cfg)
            users = ctx.test_users
            together = ctx.rank("PIM+RA", users, thetas, length)
            alone = [FoldContext(pair, cfg).rank("PIM+RA", users, [t], length)[0] for t in thetas]
        g, scorer = ctx.graph, ctx.pimra_scorer
        near_full = pair.train.user_labels.index("near-full")
        assert near_full in users and g.n_items - g.user_degree[near_full] == 1
        # each user's rows walked alone, then ranked in full by the oracle
        walks = np.array([scorer.walk([u])[0] for u in users])
        assert len(together) == len(alone) == len(thetas)
        for theta, got, single in zip(thetas, together, alone):
            full = oracles.full_lists(g, users, walks / scorer.penalty(theta), ctx.likes)
            for rec, one, want in zip(got, single, full, strict=True):
                for other in (one, want):
                    assert rec.user == other.user
                    assert rec.items.tobytes() == other.items[:length].tobytes()
                    assert rec.scores.tobytes() == other.scores[:length].tobytes()
                    assert rec.liked_ranks.tobytes() == other.liked_ranks.tobytes()
                    assert rec.n_candidates == other.n_candidates


class TestSweepListLength:
    def test_structure(self, ds, cfg):
        lengths = (2, 4, 6)
        rep = sweep_list_length(ds, cfg, lengths)
        assert not any(r.metric == "ars" for r in rep.rows)
        for method in cfg.methods:
            for length in lengths:
                vals = [
                    r.value
                    for r in rep.rows
                    if r.method == method and r.length == length and r.metric == "gini"
                ]
                assert len(vals) == cfg.k_folds + 1  # folds + mean

    def test_matches_run_experiment_length(self, ds, cfg):
        rep = sweep_list_length(ds, cfg, (5,))
        assert report_mean(rep, "MD", "gini") == pytest.approx(
            report_mean(run_experiment(ds, cfg), "MD", "gini"), abs=1e-12
        )

    def test_rejects_bad_length(self, ds, cfg):
        with pytest.raises(HarnessError):
            sweep_list_length(ds, cfg, (0,))
        with pytest.raises(HarnessError, match="no list lengths"):
            sweep_list_length(ds, cfg, ())

    def test_lengths_above_list_length_match_full_oracle(self, monkeypatch):
        # lists hold the largest length asked for, not -L
        ds = random_dataset(321, n_users=12, n_items=170, density=0.3)
        cfg = ExperimentConfig(
            k_folds=3, seed=1, list_length=100, knn_k=5,
            mf=recommend.MfConfig(factors=4, epochs=5),
        )
        lengths = (10, 150)
        got = sweep_list_length(ds, cfg, lengths)
        monkeypatch.setattr(
            recommend, "rank",
            lambda g, users, blocks, length, likes=None: [
                oracles.full_lists(g, users, scores, likes) for scores in blocks
            ],
        )
        expected = sweep_list_length(ds, cfg, lengths)
        assert got.rows == expected.rows
        at_150 = [r for r in got.rows if r.length == 150 and r.metric == "avg_popularity"]
        at_100 = sweep_list_length(ds, cfg, (100,)).rows
        assert [r.value for r in at_150] != [
            r.value for r in at_100 if r.metric == "avg_popularity"
        ]


    def test_a_failed_similarity_build_is_not_retried(self, monkeypatch):
        # fold 2 trains on (a, x) and (b, x) alone, where the metric
        # similarity fails; fold 1's test rating is not liked
        ds = oracles.from_triples(
            [("a", "x", 4), ("a", "y", 4), ("b", "x", 2)], corpus.RatingScale(1, 5, 1)
        )
        cfg = ExperimentConfig(k_folds=3, methods=("MD", "SVD"),
                               mf=recommend.MfConfig(factors=2, epochs=2))
        lengths = list(range(10, 101, 10))
        build = simkit.similarity
        with monkeypatch.context() as m:  # every request builds anew
            m.setattr(FoldContext, "similarity",
                      lambda ctx, measure, axis: build(ctx.graph, measure, axis))
            expected = sweep_list_length(ds, cfg, lengths)
        calls = []

        def spy(*args):
            calls.append(args[1:3])
            return build(*args)

        monkeypatch.setattr(simkit, "similarity", spy)
        got = sweep_list_length(ds, cfg, lengths)
        assert calls == [("cosine", "items")] * 2
        assert got.rows == expected.rows
        assert [r.note for r in got.rows if r.metric in ("id", "novelty") and r.fold == "2"] == [
            "no defined off-diagonal values to normalize"] * 2 * 2 * len(lengths)


class TestSweepKnn:
    def test_table_shape_and_bounds(self, ds, cfg):
        ks = (1, 3, 5)
        rep = sweep_knn(ds, cfg, ks)
        methods = {f"{mode}-{m}" for mode in ("UBCF", "IBCF") for m in ("cosine", "pcc", "pim")}
        got = {r.method for r in rep.rows}
        assert got == methods
        per_fold = [r for r in rep.rows if r.fold != "mean"]
        assert len(per_fold) == cfg.k_folds * len(methods) * len(ks)
        for r in rep.rows:
            assert r.metric == "nrmse"
            assert 0.0 <= r.value <= 1.0

    def test_never_finds_the_liked_test_items(self, ds, cfg, monkeypatch):
        # kNN prediction reads neither the liked test items nor the evaluated users
        def no_likes(*args):
            raise AssertionError("sweep_knn found the liked test items")

        expected = sweep_knn(ds, cfg, (1, 3))
        monkeypatch.setattr(evalmetrics, "liked_test_set", no_likes)
        assert sweep_knn(ds, cfg, (1, 3)).rows == expected.rows

    def test_rejects_unknown_measure_before_any_fold(self, ds, cfg, monkeypatch):
        def no_graph(train):
            raise AssertionError("a fold ran before the measures were checked")

        monkeypatch.setattr(bigraph, "build_graph", no_graph)
        expected = "measures must be drawn from cosine, pcc, pim, got 'bogus'"
        with pytest.raises(HarnessError, match=expected):
            sweep_knn(ds, cfg, (3,), measures=("pcc", "bogus"))

    def test_failed_similarity_names_its_fold_and_build(self, cfg):
        # every user rates 2 items, and no fold's pcc over items defines a pair
        triples = [("a", "x", 3), ("a", "y", 4), ("b", "x", 5), ("b", "z", 2)]
        triples += [("c", "y", 4), ("c", "z", 5), ("d", "x", 1), ("d", "w", 5)]
        ds = oracles.from_triples(triples, corpus.RatingScale(1, 5, 1))
        with pytest.raises(HarnessError, match="^fold 0 similarity pcc/items: no defined") as info:
            sweep_knn(ds, cfg, (3,), measures=("pcc",))
        assert type(info.value.__cause__) is simkit.SimilarityError

    @pytest.mark.parametrize(
        "sweep,message",
        [
            (lambda ds, cfg: sweep_knn(ds, cfg, ()), "no ks given"),
            (lambda ds, cfg: sweep_knn(ds, cfg, (5, 3, 5)), "ks repeat 5"),
            (lambda ds, cfg: sweep_knn(ds, cfg, (3,), measures=()), "no measures given"),
            (lambda ds, cfg: sweep_knn(ds, cfg, (3,), measures=("pim", "pim")),
             "measures repeat 'pim'"),
            (lambda ds, cfg: sweep_theta(ds, cfg, ()), "no thetas given"),
            (lambda ds, cfg: sweep_theta(ds, cfg, (0.5, 0.2, 0.5)), "thetas repeat 0.5"),
            (lambda ds, cfg: sweep_list_length(ds, cfg, (5, 5)), "list lengths repeat 5"),
        ],
    )
    def test_rejects_empty_or_repeated_values_before_any_fold(
        self, ds, cfg, monkeypatch, sweep, message
    ):
        # an empty sweep would write a bare header, a repeated value its rows twice
        def no_split(*args):
            raise AssertionError("a fold ran before the sweep values were checked")

        monkeypatch.setattr(corpus, "kfold_split", no_split)
        with pytest.raises(HarnessError, match=f"^{message}$"):
            sweep(ds, cfg)

    def test_matches_pointwise_predictions(self, ds, cfg):
        k = 3
        rep = sweep_knn(ds, cfg, (k,), measures=("pcc",))
        pair = corpus.kfold_split(ds, cfg.k_folds, cfg.seed)[0]
        g = bigraph.build_graph(pair.train)
        sim = simkit.similarity(g, "pcc", "users")
        sq = [
            (oracles.knn_rating(pair.train, sim.values, u, i, k) - r) ** 2
            for u, i, r in pair.test.triples()
        ]
        expected = np.sqrt(np.mean(sq)) / ds.scale.range
        got = [
            r.value
            for r in rep.rows
            if r.fold == "0" and r.method == "UBCF-pcc" and r.length == k
        ]
        assert got[0] == pytest.approx(expected, abs=1e-9)


class TestAnalyzeCorpus:
    def test_ratio_sample_matches_bruteforce(self):
        small = random_dataset(99, n_users=6, n_items=8, density=0.5)
        # _SAMPLE_USERS >= n_users, so every user pair is included
        analysis = analyze_corpus(small, ExperimentConfig())
        sets = {u: set() for u in range(small.n_users)}
        for u, i, _ in small.triples():
            sets[u].add(i)
        expected = []
        for a in range(small.n_users):
            for b in range(a + 1, small.n_users):
                union = sets[a] | sets[b]
                expected.append(len(sets[a] & sets[b]) / len(union) if union else 0.0)
        # every user rates something, so the pairs are all pairs, in row-major order
        assert all(sets.values())
        assert analysis.cri_ratios.tolist() == expected
        assert analysis.cri_skewness == pytest.approx(
            float(stats.skew(analysis.cri_ratios))
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    def test_similarity_samples_are_the_upper_triangle_gather(self, seed, rows, monkeypatch):
        ds = random_dataset(seed, n_users=9, n_items=7, density=0.3)
        g = bigraph.build_graph(ds)
        if rows is not None:
            monkeypatch.setattr(simkit, "_TILE_BYTES", 8 * ds.n_users * rows)
        monkeypatch.setattr(harness, "_SAMPLE_USERS", 4)
        # a sample larger than the pair count keeps every defined pair in order
        monkeypatch.setattr(harness, "_SIM_SAMPLE", 10**6)
        analysis = analyze_corpus(ds, ExperimentConfig(seed=seed))
        for measure in ("pcc", "pim"):
            norm = simkit.similarity(g, measure, "users")
            # the whole-matrix gather
            off = norm.defined & ~np.eye(norm.n, dtype=bool)
            iu, ju = np.triu_indices(norm.n, k=1)
            keep = off[iu, ju]
            expected = norm.values[iu[keep], ju[keep]]
            assert analysis.similarity_samples[measure].tobytes() == expected.tobytes()

    def test_pim_samples_follow_the_penalty_variant(self, ds, monkeypatch):
        monkeypatch.setattr(harness, "_SIM_SAMPLE", 10**6)  # every defined pair, in order
        g = bigraph.build_graph(ds)
        samples = {}
        for variant in ("pair-max", "global-max"):
            analysis = analyze_corpus(ds, ExperimentConfig(penalty_variant=variant))
            samples[variant] = analysis.similarity_samples["pim"]
            norm = simkit.similarity(g, "pim", "users", variant)
            iu, ju = np.triu_indices(norm.n, k=1)
            keep = norm.defined[iu, ju]
            assert samples[variant].tobytes() == norm.values[iu[keep], ju[keep]].tobytes()
        assert samples["pair-max"].tobytes() != samples["global-max"].tobytes()

    def test_too_few_user_pairs_is_an_error(self):
        two = oracles.from_triples(
            [("a", "x", 4), ("b", "x", 2), ("b", "y", 3)], corpus.RatingScale(1, 5, 1)
        )
        with pytest.raises(HarnessError, match="^need at least 3 user pairs"):
            analyze_corpus(two, ExperimentConfig())

    def test_too_few_popularity_levels_is_an_error(self):
        # users rate 1, 2 and 3 items, and every item has 2 raters
        triples = [("a", "x", 4), ("b", "y", 2), ("b", "z", 3)]
        triples += [("c", i, 5) for i in "xyz"]
        ds = oracles.from_triples(triples, corpus.RatingScale(1, 5, 1))
        with pytest.raises(
            HarnessError,
            match="^need at least 3 points for the popularity-rating regression, got 1$",
        ):
            analyze_corpus(ds, ExperimentConfig())

    def test_shapes_and_bounds(self, ds, monkeypatch):
        monkeypatch.setattr(harness, "_SAMPLE_USERS", 15)
        analysis = analyze_corpus(ds, ExperimentConfig(seed=1))
        assert np.all((analysis.cri_ratios >= 0) & (analysis.cri_ratios <= 1))
        assert np.isfinite(analysis.activity_regression.slope)
        assert np.isfinite(analysis.popularity_regression.p_value)
        for vals in analysis.similarity_samples.values():
            assert np.all((vals >= 0) & (vals <= 1))
        # grouped means are keyed by ascending level
        levels = [lvl for lvl, _ in analysis.activity_popularity]
        assert levels == sorted(levels)
