"""End-to-end acceptance checks.

Each test class covers one release criterion. Checks that need the real
ML-100K rating file skip with a message when it is absent; everything
else runs on every build.
"""

import numpy as np
import pytest

from diffrec import bigraph, corpus, harness, recommend, simkit
from diffrec.corpus import FilterSpec, RatingScale
from diffrec.harness import ExperimentConfig

import oracles
from conftest import (
    average_cri_ratio, ml100k_path, pimra_scores, random_dataset, report_mean, requires_ml100k
)


@pytest.fixture(scope="module")
def ml100k():
    path = ml100k_path()
    if path is None:
        pytest.skip("ML-100K u.data not available (set ML100K_PATH to run)")
    return corpus.load_ratings(path, "ml100k-tsv", RatingScale(1, 5, 1))


@pytest.fixture(scope="module")
def ml_cfg():
    return ExperimentConfig(
        dataset_name="ml100k",
        k_folds=5,
        seed=0,
        list_length=100,
        theta=0.6,
        knn_k=20,
    )


# ---------------------------------------------------------------------------
# Criterion 1: similarity worked example on the 4x4 fixture


class TestCriterion1WorkedExample:
    def test_cosine_values_and_ranking(self, fix4_graph, uid):
        cs = simkit.cosine_matrix(fix4_graph, "users")
        row = cs.values[uid["u3"]]
        assert row[uid["u1"]] == pytest.approx(0.956, abs=1e-3)
        assert row[uid["u2"]] == pytest.approx(0.131, abs=1e-3)
        assert row[uid["u4"]] == pytest.approx(0.374, abs=1e-3)
        ranking = [n for n, _ in oracles.top_k_neighbors(cs, uid["u3"], 3)]
        assert ranking == [uid["u1"], uid["u4"], uid["u2"]]

    def test_pearson_values_and_ranking(self, fix4_graph, uid):
        pcc = simkit.pcc_matrix(fix4_graph, "users")
        row = pcc.values[uid["u3"]]
        assert row[uid["u1"]] == pytest.approx(0.786, abs=1e-3)
        assert row[uid["u2"]] == pytest.approx(1.000, abs=1e-3)
        assert row[uid["u4"]] == pytest.approx(-1.000, abs=1e-3)
        ranking = [n for n, _ in oracles.top_k_neighbors(pcc, uid["u3"], 3)]
        assert ranking == [uid["u2"], uid["u1"], uid["u4"]]


# ---------------------------------------------------------------------------
# Criterion 2: dataset statistics and filtering


class TestCriterion2DatasetStats:
    @requires_ml100k
    def test_ml100k_exact_stats(self, ml100k):
        st = corpus.dataset_stats(ml100k)
        assert (st.users, st.items, st.links) == (943, 1682, 100000)
        assert round(st.sparsity * 100, 2) == 93.70

    # raw Netflix / Eachmovie archives are never bundled; the filter
    # pipeline is exercised on synthetic data instead
    @pytest.mark.parametrize("seed", range(5))
    def test_filter_properties_synthetic(self, seed):
        ds = random_dataset(seed, n_users=15, n_items=12, density=0.35)
        out = corpus.filter_dataset(
            ds, FilterSpec(min_item_ratings=2, min_user_ratings=2)
        )
        g = bigraph.build_graph(out)
        assert g.user_degree.min() >= 2
        # the user pass may re-lower some item degrees, but the item pass
        # itself ran against the pre-user-filter counts
        item_counts_before_user_pass = np.zeros(ds.n_items, dtype=int)
        for _, i, _ in ds.triples():
            item_counts_before_user_pass[i] += 1
        for label in out.item_labels:
            assert item_counts_before_user_pass[ds.item_labels.index(label)] >= 2

    def test_top_items_keeps_most_popular(self):
        ds = random_dataset(77, n_users=15, n_items=12, density=0.4)
        counts = np.zeros(ds.n_items, dtype=int)
        for _, i, _ in ds.triples():
            counts[i] += 1
        out = corpus.filter_dataset(ds, FilterSpec(top_items=4))
        kept = {ds.item_labels.index(l) for l in out.item_labels}
        threshold = sorted(counts, reverse=True)[3]
        assert all(counts[i] >= threshold for i in kept)
        assert len(kept) == 4


# ---------------------------------------------------------------------------
# Criterion 3: neighbor-prediction accuracy ordering across measures


class TestCriterion3PredictionAccuracy:
    @requires_ml100k
    def test_best_k_nrmse_ordering(self, ml100k, ml_cfg):
        ks = [5, 10, 20, 40, 80]
        rep = harness.sweep_knn(ml100k, ml_cfg, ks)

        def best(mode, measure):
            means = {
                r.length: r.value
                for r in rep.rows
                if r.method == f"{mode}-{measure}" and r.fold == "mean"
            }
            return min(means[k] for k in ks)

        for mode in ("UBCF", "IBCF"):
            pim = best(mode, "pim")
            pcc = best(mode, "pcc")
            cs = best(mode, "cosine")
            assert pim <= pcc, f"{mode}: corrected measure worse than Pearson"
            assert pim <= cs, f"{mode}: corrected measure worse than cosine"
        assert best("UBCF", "pim") <= best("UBCF", "pcc") * 0.99
        assert best("IBCF", "pim") <= best("IBCF", "pcc") * 0.95


# ---------------------------------------------------------------------------
# Criterion 4: headline comparison table


class TestCriterion4MethodComparison:
    @requires_ml100k
    def test_rankings_and_loose_values(self, ml100k, ml_cfg):
        rep = harness.run_experiment(ml100k, ml_cfg)
        ars = {m: report_mean(rep, m, "ars") for m in harness.METHODS}
        for m in ("MD", "UBCF", "IBCF", "SVD"):
            assert ars["PIM+RA"] > ars[m], f"PIM+RA ARS not above {m}"
        nov = {m: report_mean(rep, m, "novelty") for m in harness.METHODS}
        assert max(nov, key=nov.get) == "PIM+RA"
        gin = {m: report_mean(rep, m, "gini") for m in harness.METHODS}
        assert gin["IBCF"] > gin["PIM+RA"]
        for m in ("UBCF", "SVD", "MD"):
            assert gin["PIM+RA"] > gin[m]
        assert 0.9389 * 0.8 <= ars["PIM+RA"] <= 0.9389 * 1.2
        assert 0.8588 * 0.8 <= ars["MD"] <= 0.8588 * 1.2


# ---------------------------------------------------------------------------
# Criterion 5: popularity-penalty sweep trends


class TestCriterion5ThetaTrends:
    @requires_ml100k
    def test_theta_sweep_trends(self, ml100k, ml_cfg):
        thetas = [round(0.1 * t, 1) for t in range(11)]
        rep = harness.sweep_theta(ml100k, ml_cfg, thetas)

        def series(metric):
            return [report_mean(rep, "PIM+RA", metric, theta=t) for t in thetas]

        pop = series("avg_popularity")
        assert all(a > b for a, b in zip(pop, pop[1:])), "popularity not decreasing"
        for metric in ("gini", "iud", "novelty"):
            vals = series(metric)
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), metric
        ars = {t: report_mean(rep, "PIM+RA", "ars", theta=t) for t in (0.0, 0.5, 1.0)}
        assert ars[0.5] > ars[0.0]
        assert ars[1.0] < ars[0.5]


# ---------------------------------------------------------------------------
# Criterion 6: list-length sweep trends


class TestCriterion6LengthTrends:
    @requires_ml100k
    def test_length_sweep_trends(self, ml100k, ml_cfg):
        lengths = list(range(10, 101, 10))
        rep = harness.sweep_list_length(ml100k, ml_cfg, lengths)
        for method in harness.METHODS:
            gini = [
                np.mean(
                    [
                        r.value
                        for r in rep.rows
                        if r.method == method
                        and r.length == L
                        and r.metric == "gini"
                        and r.fold == "mean"
                    ]
                )
                for L in lengths
            ]
            assert all(b >= a - 1e-9 for a, b in zip(gini, gini[1:])), method
        idiv = [
            np.mean(
                [
                    r.value
                    for r in rep.rows
                    if r.method == "PIM+RA"
                    and r.length == L
                    and r.metric == "id"
                    and r.fold == "mean"
                    and r.value is not None
                ]
            )
            for L in lengths
        ]
        assert all(b >= a - 1e-9 for a, b in zip(idiv, idiv[1:]))


# ---------------------------------------------------------------------------
# Criterion 7: fast property suite (every build)


class TestCriterion7Properties:
    @pytest.mark.parametrize("seed", range(20))
    def test_md_mass_conservation(self, seed):
        ds = random_dataset(300 + seed, n_users=7, n_items=8, density=0.4)
        g = bigraph.build_graph(ds)
        for u in range(g.n_users):
            res_users, _ = oracles.md_item_scores(ds, u)
            init = float(g.user_degree[u])
            assert abs(sum(res_users.values()) - init) < 1e-9
            assert abs(recommend.md_scores(g, [u])[0].sum() - init) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_similarity_symmetry(self, seed):
        ds = random_dataset(400 + seed, n_users=6, n_items=6)
        g = bigraph.build_graph(ds)
        for axis in ("users", "items"):
            for build in (
                lambda: simkit.cosine_matrix(g, axis),
                lambda: simkit.pcc_matrix(g, axis),
                lambda: simkit.pim_matrix(g, axis),
            ):
                m = build()
                assert np.array_equal(m.values, m.values.T)
                assert np.array_equal(m.defined, m.defined.T)

    def test_metric_bounds(self):
        ds = random_dataset(55, n_users=10, n_items=12, density=0.4)
        cfg = ExperimentConfig(k_folds=3, list_length=5, knn_k=5)
        rep = harness.run_experiment(ds, cfg)
        for r in rep.rows:
            if r.value is None:
                continue
            if r.metric == "ars":
                assert r.value > 0
            elif r.metric in ("gini", "id", "iud", "novelty"):
                assert -1e-12 <= r.value <= 1 + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_kfold_partition(self, seed):
        ds = random_dataset(500 + seed, n_users=9, n_items=9)
        folds = corpus.kfold_split(ds, 4, seed=seed)
        seen = []
        for pair in folds:
            rows = list(pair.test.triples())
            seen.extend(rows)
            assert not set(rows) & set(pair.train.triples())
        assert sorted(seen) == sorted(ds.triples())

    def test_determinism_identical_csv_bytes(self, tmp_path):
        ds = random_dataset(66, n_users=12, n_items=10, density=0.4)
        cfg = ExperimentConfig(k_folds=3, list_length=5, knn_k=5)
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            harness.write_report_csv(harness.run_experiment(ds, cfg), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("seed", range(50))
    def test_similarity_matches_scalar_oracle(self, seed):
        ds = random_dataset(600 + seed, n_users=6, n_items=6, density=0.5)
        g = bigraph.build_graph(ds)
        ar = average_cri_ratio(g, "users")
        pim = simkit.pim_matrix(g, "users")
        pcc = simkit.pcc_matrix(g, "users")
        cs = simkit.cosine_matrix(g, "users")
        vecs = oracles.user_items_map(ds)
        col_degree = {i: len(us) for i, us in oracles.item_users_map(ds).items()}
        dims = range(ds.n_items)
        for a in range(ds.n_users):
            for b in range(a + 1, ds.n_users):
                va, vb = vecs.get(a, {}), vecs.get(b, {})
                for matrix, expected in (
                    (cs, oracles.cosine_pair(va, vb, dims)),
                    (pcc, oracles.pcc_pair(va, vb)),
                    (pim, oracles.pim_pair(va, vb, col_degree, ar)),
                ):
                    if expected is None:
                        assert not matrix.defined[a, b] or matrix.values[a, b] == 0.0
                    else:
                        assert matrix.values[a, b] == pytest.approx(expected, abs=1e-9)

    def test_pimra_fix4_oracle(self, fix4, fix4_graph):
        sim = simkit.similarity(fix4_graph, "pim", "items")
        scorer = recommend.PimraScorer(fix4_graph, sim)
        for u in range(fix4.n_users):
            expected = oracles.pimra_item_scores(fix4, u, sim.values, 0.6)
            scores = pimra_scores(scorer, [u], 0.6)[0]
            for j in range(fix4.n_items):
                assert scores[j] == pytest.approx(expected.get(j, 0.0), abs=1e-9)


# ---------------------------------------------------------------------------
# Criterion 8: corpus structure analyses


class TestCriterion8CorpusAnalyses:
    @requires_ml100k
    def test_cri_ratio_right_skew(self, ml100k):
        analysis = harness.analyze_corpus(ml100k, ExperimentConfig())
        assert analysis.cri_skewness > 0

    @requires_ml100k
    def test_popularity_rating_slope(self, ml100k):
        analysis = harness.analyze_corpus(ml100k, ExperimentConfig())
        assert analysis.popularity_regression.slope > 0
        assert analysis.popularity_regression.p_value < 0.05
