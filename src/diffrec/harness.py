"""Experiment orchestration: k-fold runs, parameter sweeps, and dataset
analyses, aggregated into CSV-ready reports."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Sequence, get_args

import numpy as np
from scipy import stats

from diffrec import bigraph, corpus, evalmetrics, recommend, simkit
from diffrec.corpus import FoldPair, RatingDataset
from diffrec.recommend import MfConfig, RecommendationList, Step3Weight
from diffrec.simkit import PenaltyVariant, SimilarityMatrix


class HarnessError(RuntimeError):
    pass


KNOWN_METHODS = ("UBCF", "IBCF", "SVD", "MD", "PIM+RA")
KNN_AXES = {"UBCF": "users", "IBCF": "items"}
# errors a method raises on its input; anything else is a bug and propagates
_METHOD_ERRORS = (
    recommend.RecommendError,
    recommend.MfDivergenceError,
    simkit.SimilarityError,
    bigraph.GraphError,
)
# bytes of float64 score rows ranked together in one block
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_name: str = "dataset"
    k_folds: int = 5
    seed: int = 0
    list_length: int = 100
    like_threshold: float = 3.0
    methods: tuple[str, ...] = KNOWN_METHODS
    theta: float = 0.6
    knn_k: int = 20
    knn_measure: str = "pcc"
    penalty_variant: PenaltyVariant = "pair-max"
    step3_weight: Step3Weight = "literal-w_vi"
    metric_sim: str = "cosine"
    mf: MfConfig = field(default_factory=MfConfig)

    def __post_init__(self):
        if self.k_folds < 2:
            raise HarnessError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.list_length < 1:
            raise HarnessError("list_length must be >= 1")
        if not 0.0 <= self.theta <= 1.0:
            raise HarnessError(f"theta must be in [0, 1], got {self.theta}")
        if self.knn_k < 1:
            raise HarnessError(f"knn_k must be >= 1, got {self.knn_k}")
        if not self.methods:
            raise HarnessError("methods must name at least one method")
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise HarnessError(f"unknown methods: {sorted(unknown)}")
        for name, allowed in (
            ("knn_measure", simkit.MEASURES),
            ("metric_sim", simkit.MEASURES),
            ("penalty_variant", get_args(PenaltyVariant)),
            ("step3_weight", get_args(Step3Weight)),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise HarnessError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")

    def run_theta(self, method: str, theta: float | None = None) -> float | None:
        """The theta a run of `method` uses: only PIM+RA takes one, by
        default the configured theta."""
        if method != "PIM+RA":
            return None
        return self.theta if theta is None else theta

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class MetricRow:
    dataset: str
    fold: str
    method: str
    theta: float | None
    length: int | None
    metric: str
    value: float | None
    note: str = ""


@dataclass
class EvaluationReport:
    rows: list[MetricRow]
    config: ExperimentConfig
    # per fold: evaluated test users, and those excluded for want of training ratings
    fold_users: list[dict[str, int]] = field(default_factory=list)

    def mean(self, method: str, metric: str, theta: float | None = None) -> float:
        vals = [
            r.value
            for r in self.rows
            if r.method == method
            and r.metric == metric
            and r.value is not None
            and (theta is None or r.theta == theta)
        ]
        if not vals:
            raise HarnessError(f"no values for ({method}, {metric})")
        return float(np.mean(vals))

    def with_means(self) -> "EvaluationReport":
        """Append cross-fold mean rows (fold='mean')."""
        groups: dict[tuple, list[float]] = {}
        for r in self.rows:
            if r.fold == "mean" or r.value is None:
                continue
            groups.setdefault((r.method, r.theta, r.length, r.metric), []).append(r.value)
        extra = [
            MetricRow(self.config.dataset_name, "mean", m, th, ln, met, float(np.mean(v)))
            for (m, th, ln, met), v in sorted(
                groups.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), str(kv[0][2]), kv[0][3])
            )
        ]
        return EvaluationReport(self.rows + extra, self.config, self.fold_users)


def write_report_csv(report: EvaluationReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("dataset,fold,method,theta,L,metric,value\n")
        for r in report.rows:
            theta = "" if r.theta is None else f"{r.theta:g}"
            length = "" if r.length is None else str(r.length)
            value = "NA" if r.value is None else f"{r.value:.4f}"
            fh.write(f"{r.dataset},{r.fold},{r.method},{theta},{length},{r.metric},{value}\n")


def write_manifest(report: EvaluationReport, path) -> None:
    manifest = {
        "config": asdict(report.config),
        "config_hash": report.config.digest(),
        "seed": report.config.seed,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "rows": len(report.rows),
        "folds": report.fold_users,
        "na": [
            {"fold": r.fold, "method": r.method, "theta": r.theta, "L": r.length,
             "metric": r.metric, "note": r.note}
            for r in report.rows
            if r.value is None
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Per-fold context


class FoldContext:
    """Shared per-fold state: graph, lazily computed similarity matrices,
    the evaluated-user population, and the method dispatch."""

    def __init__(self, pair: FoldPair, cfg: ExperimentConfig):
        self.pair = pair
        self.cfg = cfg
        self.graph = bigraph.build_graph(pair.train)
        self.likes = evalmetrics.liked_test_set(pair.test, cfg.like_threshold)
        self.test_users = sorted(
            u for u, liked in self.likes.items() if liked and self.graph.user_degree[u] > 0
        )
        # users with a liked test item but no training ratings
        self.excluded_users = len(self.likes) - len(self.test_users)
        self._sims: dict[tuple[str, str], SimilarityMatrix] = {}
        self._pimra: recommend.PimraScorer | None = None
        self._mf: recommend.MFModel | None = None

    def similarity(self, measure: str, axis: str) -> SimilarityMatrix:
        """Normalized similarity matrix, computed once per (measure, axis)."""
        key = (measure, axis)
        if key not in self._sims:
            self._sims[key] = simkit.similarity(
                self.graph, measure, axis, self.cfg.penalty_variant
            )
        return self._sims[key]

    @property
    def metric_sim(self) -> SimilarityMatrix:
        return self.similarity(self.cfg.metric_sim, "items")

    @property
    def pimra_scorer(self) -> recommend.PimraScorer:
        if self._pimra is None:
            self._pimra = recommend.PimraScorer(
                self.graph, self.similarity("pim", "items"), self.cfg.step3_weight
            )
        return self._pimra

    @property
    def mf_model(self) -> recommend.MFModel:
        if self._mf is None:
            self._mf = recommend.train_mf(self.pair.train, self.cfg.mf)
        return self._mf

    def user_counts(self, fold: int) -> dict[str, int]:
        return {
            "fold": fold,
            "evaluated_users": len(self.test_users),
            "excluded_users": self.excluded_users,
        }

    def histories(self) -> dict[int, np.ndarray]:
        return {u: self.graph.user_items(u)[0] for u in self.test_users}

    def rank(
        self, method: str, users: Sequence[int], theta: float | None, length: int
    ) -> list[RecommendationList]:
        """One top-`length` list of unseen items per user, from the training
        graph; score rows are ranked in blocks of at most _BLOCK_BYTES."""
        g = self.graph
        try:
            if method == "MD":
                score = lambda u: recommend.md_scores(g, u)[1]
            elif method in KNN_AXES:
                sim = self.similarity(self.cfg.knn_measure, KNN_AXES[method])
                score = lambda u: recommend.knn_scores(sim, g, u, self.cfg.knn_k)
            elif method == "SVD":
                model, items = self.mf_model, np.arange(g.n_items)
                score = lambda u: recommend.predict_mf(model, np.full(g.n_items, u), items)
            elif method == "PIM+RA":
                scorer, theta = self.pimra_scorer, self.cfg.run_theta(method, theta)
                score = lambda u: scorer.scores(u, theta)
            else:
                raise HarnessError(f"unknown method {method!r}")
            per_block = max(1, _BLOCK_BYTES // (8 * g.n_items))
            lists = []
            for lo in range(0, len(users), per_block):
                block = users[lo : lo + per_block]
                rows = np.empty((len(block), g.n_items))
                for r, u in enumerate(block):
                    rows[r] = score(u)
                lists.extend(recommend.rank(g, block, rows, length, self.likes))
            return lists
        except _METHOD_ERRORS as exc:
            raise HarnessError(f"method {method} failed: {exc}") from exc


def _metric_rows(
    ctx: FoldContext,
    fold: str,
    method: str,
    lists: list[RecommendationList],
    theta: float | None,
    length: int,
    reason: str,
    ars: bool,
) -> list[MetricRow]:
    """One row per metric, ARS only if `ars`. A metric undefined on these
    lists is NA, and so is every metric when `reason` says why nothing was
    ranked; the row's note gives the reason."""

    def row(metric: str, at: int | None, compute: Callable[[], float]) -> MetricRow:
        value, note = None, reason
        if not reason:
            try:
                value = compute()
            except evalmetrics.MetricError as exc:
                note = str(exc)
        return MetricRow(ctx.cfg.dataset_name, fold, method, theta, at, metric, value, note)

    counts = evalmetrics.rec_counts(lists, ctx.graph.n_items, length)
    rows = [row("ars", None, lambda: evalmetrics.ars(lists))] if ars else []
    return rows + [
        row("gini", length, lambda: evalmetrics.gini(counts)),
        row("id", length, lambda: evalmetrics.internal_diversity(lists, ctx.metric_sim, length)),
        row("iud", length, lambda: evalmetrics.inter_user_diversity(lists, length)),
        row("novelty", length,
            lambda: evalmetrics.novelty(lists, ctx.histories(), ctx.metric_sim, length)),
        row("avg_popularity", length,
            lambda: evalmetrics.avg_popularity(lists, ctx.graph, length)),
    ]


ListSink = Callable[[int, str, list[RecommendationList]], None]


def _folds(ds: RatingDataset, cfg: ExperimentConfig) -> Iterator[tuple[int, FoldContext]]:
    """Each fold of the configured k-fold split with its context."""
    for f, pair in enumerate(corpus.kfold_split(ds, cfg.k_folds, cfg.seed)):
        yield f, FoldContext(pair, cfg)


def _ranked_run(
    ds: RatingDataset,
    cfg: ExperimentConfig,
    runs: Sequence[tuple[str, float | None]],
    lengths: Sequence[int],
    list_sink: ListSink | None = None,
    ars: bool = True,
) -> EvaluationReport:
    """Rank each (method, theta) run once per fold, at the largest length,
    and report its metrics at every length, with cross-fold means.

    A fold without evaluable test users ranks nothing, and neither does a
    method that fails on a fold; their rows are NA with the reason and
    their lists are empty. A run that ranks nothing at all is an error."""
    rows: list[MetricRow] = []
    fold_users = []
    failures: list[HarnessError] = []
    ranked = False
    for f, ctx in _folds(ds, cfg):
        fold_users.append(ctx.user_counts(f))
        for method, theta in runs:
            theta = cfg.run_theta(method, theta)
            lists, reason = [], ""
            if not ctx.test_users:
                reason = f"fold has no evaluable test users (like_threshold {cfg.like_threshold})"
            else:
                try:
                    lists = ctx.rank(method, ctx.test_users, theta, max(lengths))
                    ranked = True
                except HarnessError as exc:  # a method's domain error
                    reason = str(exc)
                    failures.append(exc)
            for length in lengths:
                rows.extend(_metric_rows(ctx, str(f), method, lists, theta, length, reason, ars))
            if list_sink is not None:
                list_sink(f, method, lists)
    if not any(f["evaluated_users"] for f in fold_users):
        raise HarnessError(
            f"no evaluable test users in any fold (like_threshold {cfg.like_threshold})"
        )
    if failures and not ranked:
        raise failures[0]
    return EvaluationReport(rows, cfg, fold_users).with_means()


def run_experiment(
    ds: RatingDataset,
    cfg: ExperimentConfig,
    list_sink: ListSink | None = None,
) -> EvaluationReport:
    """Evaluate every configured method over a k-fold split."""
    runs = [(method, None) for method in cfg.methods]
    return _ranked_run(ds, cfg, runs, [cfg.list_length], list_sink)


def sweep_theta(
    ds: RatingDataset, cfg: ExperimentConfig, thetas: Sequence[float]
) -> EvaluationReport:
    """PIM+RA metrics per theta; folds and similarity matrices are shared
    across theta values."""
    for t in thetas:
        if not 0.0 <= t <= 1.0:
            raise HarnessError(f"theta {t} outside [0, 1]")
    return _ranked_run(ds, cfg, [("PIM+RA", t) for t in thetas], [cfg.list_length])


def sweep_list_length(
    ds: RatingDataset, cfg: ExperimentConfig, lengths: Sequence[int]
) -> EvaluationReport:
    """List-length sweep without ARS, which no length changes; each
    (fold, method) is ranked once."""
    if not lengths:
        raise HarnessError("no list lengths given")
    for length in lengths:
        if length < 1:
            raise HarnessError(f"list length {length} must be >= 1")
    runs = [(method, None) for method in cfg.methods]
    return _ranked_run(ds, cfg, runs, lengths, ars=False)


def sweep_knn(
    ds: RatingDataset,
    cfg: ExperimentConfig,
    ks: Sequence[int],
    measures: Sequence[str] = simkit.MEASURES,
    modes: Sequence[str] = tuple(KNN_AXES),
) -> EvaluationReport:
    """Prediction-error table: NRMSE per (measure, mode, neighbor count)."""
    for k in ks:
        if k < 1:
            raise HarnessError(f"k {k} must be >= 1")
    for name, values, allowed in (
        ("measures", measures, simkit.MEASURES),
        ("modes", modes, KNN_AXES),
    ):
        for value in values:
            if value not in allowed:
                raise HarnessError(
                    f"{name} must be drawn from {', '.join(allowed)}, got {value!r}"
                )
    rows: list[MetricRow] = []
    for f, ctx in _folds(ds, cfg):
        test = ctx.pair.test
        for measure in measures:
            for mode in modes:
                sim = ctx.similarity(measure, KNN_AXES[mode])
                preds = recommend.knn_predict(sim, ctx.graph, test.users, test.items, ks)
                errors = evalmetrics.nrmse(preds, test.ratings, ctx.graph.scale)
                name = f"{mode}-{measure}"
                for k, err in zip(ks, errors):
                    rows.append(MetricRow(cfg.dataset_name, str(f), name, None, k, "nrmse", err))
    return EvaluationReport(rows=rows, config=cfg).with_means()


# ---------------------------------------------------------------------------
# Corpus analyses


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    p_value: float


@dataclass(frozen=True)
class CorpusAnalysis:
    cri_ratios: np.ndarray
    cri_skewness: float
    activity_popularity: list[tuple[int, float]]
    activity_regression: RegressionResult
    popularity_rating: list[tuple[int, float]]
    popularity_regression: RegressionResult
    similarity_samples: dict[str, np.ndarray]


def analyze_corpus(
    ds: RatingDataset, seed: int = 0, sample_users: int = 50, sim_sample: int = 20000
) -> CorpusAnalysis:
    """Dataset structure analyses: co-rating ratio skew, activity vs item
    popularity, popularity vs mean rating, and normalized similarity
    distributions for the Pearson and corrected-Pearson measures."""
    g = bigraph.build_graph(ds)
    rng = np.random.default_rng(seed)

    active = np.flatnonzero(g.user_degree > 0)
    chosen = (
        rng.choice(active, size=sample_users, replace=False)
        if len(active) > sample_users
        else active
    )
    sets = [set(g.user_items(int(u))[0].tolist()) for u in chosen]
    ratios = []
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            union = len(sets[a] | sets[b])
            ratios.append(len(sets[a] & sets[b]) / union if union else 0.0)
    ratios = np.asarray(ratios)
    if len(ratios) < 3:
        raise HarnessError("need at least 3 user pairs for the skewness analysis")
    skewness = float(stats.skew(ratios))

    act_pop = _grouped_mean(
        g.user_degree[active],
        np.array([g.item_degree[g.user_items(int(u))[0]].mean() for u in active]),
    )
    act_reg = _ols(act_pop)

    items_rated = np.flatnonzero(g.item_degree > 0)
    pop_rating = _grouped_mean(
        g.item_degree[items_rated],
        np.array([g.item_users(int(i))[1].mean() for i in items_rated]),
    )
    pop_reg = _ols(pop_rating)

    samples = {}
    for measure in ("pcc", "pim"):
        norm = simkit.similarity(g, measure, "users")
        off = norm.defined & ~np.eye(norm.n, dtype=bool)
        iu, ju = np.triu_indices(norm.n, k=1)
        keep = off[iu, ju]
        vals = norm.values[iu[keep], ju[keep]]
        if len(vals) > sim_sample:
            vals = rng.choice(vals, size=sim_sample, replace=False)
        samples[measure] = vals
    return CorpusAnalysis(
        cri_ratios=ratios,
        cri_skewness=skewness,
        activity_popularity=act_pop,
        activity_regression=act_reg,
        popularity_rating=pop_rating,
        popularity_regression=pop_reg,
        similarity_samples=samples,
    )


def _grouped_mean(levels: np.ndarray, values: np.ndarray) -> list[tuple[int, float]]:
    table: dict[int, list[float]] = {}
    for lvl, val in zip(levels.tolist(), values.tolist()):
        table.setdefault(int(lvl), []).append(val)
    return [(lvl, float(np.mean(vs))) for lvl, vs in sorted(table.items())]


def _ols(points: list[tuple[int, float]]) -> RegressionResult:
    if len(points) < 3:
        raise HarnessError("need at least 3 points for a regression")
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points])
    res = stats.linregress(xs, ys)
    return RegressionResult(
        slope=float(res.slope), intercept=float(res.intercept), p_value=float(res.pvalue)
    )
