import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from diffrec import corpus, bigraph, recommend, simkit
from diffrec.harness import (
    ExperimentConfig,
    FoldContext,
    HarnessError,
    KNOWN_METHODS,
    analyze_corpus,
    run_experiment,
    sweep_knn,
    sweep_list_length,
    sweep_theta,
    write_manifest,
    write_report_csv,
)

import oracles
from conftest import random_dataset


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
        mf=recommend.MfConfig(factors=8, epochs=20, seed=7),
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
        for method in KNOWN_METHODS:
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


class TestRankingErrors:
    @pytest.mark.parametrize(
        "raised,expected",
        [(recommend.RecommendError, HarnessError), (IndexError, IndexError)],
    )
    def test_only_domain_errors_are_wrapped(self, ds, cfg, monkeypatch, raised, expected):
        def broken(g, user):
            raise raised("boom")

        monkeypatch.setattr(recommend, "md_scores", broken)
        ctx = FoldContext(corpus.kfold_split(ds, cfg.k_folds, cfg.seed)[0], cfg)
        with pytest.raises(expected, match="boom") as info:
            ctx.rank("MD", ctx.test_users, None, cfg.list_length)
        assert type(info.value) is expected


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

    def test_manifest(self, report, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(report, path)
        doc = json.loads(path.read_text())
        assert doc["config_hash"] == report.config.digest()
        assert doc["seed"] == report.config.seed
        assert doc["rows"] == len(report.rows)
        assert doc["config"]["k_folds"] == report.config.k_folds


    def test_manifest_user_counts_and_na_notes(self, tmp_path):
        ds = one_user_fold_corpus()
        cfg = ExperimentConfig(k_folds=8, methods=("MD",))
        report = run_experiment(ds, cfg)
        write_manifest(report, tmp_path / "manifest.json")
        doc = json.loads((tmp_path / "manifest.json").read_text())
        contexts = [FoldContext(pair, cfg) for pair in corpus.kfold_split(ds, 8, cfg.seed)]
        assert doc["folds"] == [
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


def one_user_fold_corpus():
    """8 x 8 corpus whose 8-fold split has folds with one evaluable user."""
    return corpus.from_triples(
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
        return corpus.from_triples(triples + list(extra), scale)

    def test_all_equal_ratings_leave_only_the_similarity_methods_na(self):
        ds = corpus.from_triples(
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
        for method in KNOWN_METHODS:
            (rec,) = ctx.rank(method, [full], None, self.CFG.list_length)
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
        ds = corpus.from_triples(triples, corpus.RatingScale(1, 5, 1))
        cfg = ExperimentConfig(
            k_folds=ds.n_links, list_length=5, knn_k=3, mf=recommend.MfConfig(factors=4, epochs=5)
        )
        report = run_experiment(ds, cfg)
        self.assert_finite_report(report)
        assert [f["evaluated_users"] for f in report.fold_users] == [1] * ds.n_links
        # a one-rating fold whose rating is not liked has no one to evaluate:
        # its metrics are NA rows with the reason, and the other folds run
        ds = corpus.from_triples(
            [(u, i, 2 if r == 3 else r) for u, i, r in triples], corpus.RatingScale(1, 5, 1)
        )
        report = run_experiment(ds, cfg)
        self.assert_finite_report(report)
        empty = [str(f["fold"]) for f in report.fold_users if f["evaluated_users"] == 0]
        assert len(empty) == 4
        note = "fold has no evaluable test users (like_threshold 3.0)"
        for fold in empty:
            rows = [r for r in report.rows if r.fold == fold]
            assert len(rows) == 6 * len(KNOWN_METHODS)
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
                assert swept.mean("PIM+RA", metric, theta=theta) == pytest.approx(
                    single.mean("PIM+RA", metric), abs=1e-12
                )

    def test_rejects_out_of_range(self, ds, cfg):
        with pytest.raises(HarnessError):
            sweep_theta(ds, cfg, [0.0, 1.5])


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
        assert rep.mean("MD", "gini") == pytest.approx(
            run_experiment(ds, cfg).mean("MD", "gini"), abs=1e-12
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
            mf=recommend.MfConfig(factors=4, epochs=5, seed=1),
        )
        lengths = (10, 150)
        got = sweep_list_length(ds, cfg, lengths)
        monkeypatch.setattr(
            recommend, "rank",
            lambda g, users, scores, length, likes=None: oracles.full_lists(g, users, scores, likes),
        )
        expected = sweep_list_length(ds, cfg, lengths)
        assert got.rows == expected.rows
        at_150 = [r for r in got.rows if r.length == 150 and r.metric == "avg_popularity"]
        at_100 = sweep_list_length(ds, cfg, (100,)).rows
        assert [r.value for r in at_150] != [
            r.value for r in at_100 if r.metric == "avg_popularity"
        ]


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

    def test_rejects_unknown_measure_before_any_fold(self, ds, cfg, monkeypatch):
        def no_graph(train):
            raise AssertionError("a fold ran before the measures were checked")

        monkeypatch.setattr(bigraph, "build_graph", no_graph)
        expected = "measures must be drawn from cosine, pcc, pim, got 'bogus'"
        with pytest.raises(HarnessError, match=expected):
            sweep_knn(ds, cfg, (3,), measures=("pcc", "bogus"))

    def test_rejects_unknown_mode_before_any_fold(self, ds, cfg, monkeypatch):
        def no_graph(train):
            raise AssertionError("a fold ran before the modes were checked")

        monkeypatch.setattr(bigraph, "build_graph", no_graph)
        expected = "modes must be drawn from UBCF, IBCF, got 'bogus'"
        with pytest.raises(HarnessError, match=expected):
            sweep_knn(ds, cfg, (3,), measures=("pcc",), modes=("IBCF", "bogus"))

    def test_matches_pointwise_predictions(self, ds, cfg):
        k = 3
        rep = sweep_knn(ds, cfg, (k,), measures=("pcc",), modes=("UBCF",))
        pair = corpus.kfold_split(ds, cfg.k_folds, cfg.seed)[0]
        g = bigraph.build_graph(pair.train)
        sim = simkit.normalize(simkit.pcc_matrix(g, "users"))
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
        # sample_users >= n_users, so every user pair is included
        analysis = analyze_corpus(small, sample_users=10)
        sets = {u: set() for u in range(small.n_users)}
        for u, i, _ in small.triples():
            sets[u].add(i)
        expected = []
        for a in range(small.n_users):
            for b in range(a + 1, small.n_users):
                union = sets[a] | sets[b]
                expected.append(len(sets[a] & sets[b]) / len(union) if union else 0.0)
        assert np.allclose(sorted(analysis.cri_ratios), sorted(expected))
        assert analysis.cri_skewness == pytest.approx(
            float(stats.skew(analysis.cri_ratios))
        )

    def test_shapes_and_bounds(self, ds):
        analysis = analyze_corpus(ds, seed=1, sample_users=15)
        assert np.all((analysis.cri_ratios >= 0) & (analysis.cri_ratios <= 1))
        assert np.isfinite(analysis.activity_regression.slope)
        assert np.isfinite(analysis.popularity_regression.p_value)
        for vals in analysis.similarity_samples.values():
            assert np.all((vals >= 0) & (vals <= 1))
        # grouped means are keyed by ascending level
        levels = [lvl for lvl, _ in analysis.activity_popularity]
        assert levels == sorted(levels)
