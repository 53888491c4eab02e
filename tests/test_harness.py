import json

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

        monkeypatch.setattr(recommend, "recommend_md", broken)
        ctx = FoldContext(corpus.kfold_split(ds, cfg.k_folds, cfg.seed)[0], cfg)
        with pytest.raises(expected, match="boom") as info:
            ctx.rankings("MD")
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
