"""Experiment orchestration: k-fold runs, parameter sweeps, and dataset
analyses, aggregated into CSV-ready reports."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, get_args

import numpy as np
import scipy

import diffrec
from diffrec import bigraph, corpus, evalmetrics, recommend, simkit
from diffrec.corpus import FoldPair, RatingDataset
from diffrec.recommend import MfConfig, RecommendationList, Step3Weight
from diffrec.simkit import PenaltyVariant, SimilarityMatrix


class HarnessError(RuntimeError):
    pass


# errors a method raises on its input; anything else is a bug and propagates
_METHOD_ERRORS = (
    recommend.RecommendError,
    recommend.MfDivergenceError,
    simkit.SimilarityError,
    bigraph.GraphError,
)
# bytes of float64 score rows ranked together in one block
_BLOCK_BYTES = 8 << 20


class _Method(NamedTuple):
    # (fold context, users) -> one item-score row per user
    score: Callable
    # (fold context, theta) -> each item's score divisor, if the method takes theta
    penalty: Callable | None = None
    knn_axis: str | None = None  # a kNN method's similarity axis
    # config -> the (measure, axis) similarities the scorer requests
    reads: Callable[[ExperimentConfig], tuple[tuple[str, str], ...]] = lambda cfg: ()
    trains: bool = False  # whether the method trains on the fold's ratings


def _knn(axis: str, scores: Callable) -> _Method:
    """kNN on the knn measure's `axis` similarity: `scores(sim, g, users, k)`."""

    def score(ctx: FoldContext, users: Sequence[int]) -> np.ndarray:
        sim = ctx.similarity(ctx.cfg.knn_measure, axis)
        return scores(sim, ctx.graph, users, ctx.cfg.knn_k)

    return _Method(score, knn_axis=axis, reads=lambda cfg: ((cfg.knn_measure, axis),))


def _svd(ctx: FoldContext, users: Sequence[int]) -> np.ndarray:
    """One `predict_mf` call per user: a block's pairs at once would
    gather users x items x factors floats."""
    model, items = ctx.mf_model, np.arange(ctx.graph.n_items)
    return np.array([recommend.predict_mf(model, np.full(len(items), u), items) for u in users])


_PIM_KEY = ("pim", "items")  # PIM+RA's similarity, which its scorer holds

# Every method by name. The order is the default `methods`, and so the
# report's row order. Scorers look up `recommend`'s functions when called,
# so that wrappers installed later (a tracer, a test's patch) see the calls.
METHODS = {
    "UBCF": _knn("users", lambda *args: recommend.ubcf_scores(*args)),
    "IBCF": _knn("items", lambda *args: recommend.ibcf_scores(*args)),
    "SVD": _Method(_svd, trains=True),
    "MD": _Method(lambda ctx, users: recommend.md_scores(ctx.graph, users)),
    "PIM+RA": _Method(
        lambda ctx, users: ctx.pimra_scorer.walk(users),
        penalty=lambda ctx, theta: ctx.pimra_scorer.penalty(theta),
        reads=lambda cfg: (_PIM_KEY,),
    ),
}
KNN_AXES = {name: m.knn_axis for name, m in METHODS.items() if m.knn_axis}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_name: str = "dataset"
    k_folds: int = 5
    seed: int = 0  # splits the folds and trains MF
    list_length: int = 100
    like_threshold: float = 3.0
    methods: tuple[str, ...] = tuple(METHODS)
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
        if self.seed < 0:
            raise HarnessError(f"seed must be >= 0, got {self.seed}")
        if self.list_length < 1:
            raise HarnessError("list_length must be >= 1")
        if not 0.0 <= self.theta <= 1.0:
            raise HarnessError(f"theta must be in [0, 1], got {self.theta}")
        if self.knn_k < 1:
            raise HarnessError(f"knn_k must be >= 1, got {self.knn_k}")
        if not self.methods:
            raise HarnessError("methods must name at least one method")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise HarnessError(f"unknown methods: {sorted(unknown)}")
        _check_sweep("methods", self.methods)
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
        """The theta a run of `method` uses: None unless the method takes
        one, by default the configured theta."""
        if METHODS[method].penalty is None:
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
    # per fold: evaluated test users, those excluded for want of training
    # ratings, and the process's peak RSS in MB at the fold's end
    fold_users: list[dict[str, float]] = field(default_factory=list)
    mf_train_s: float = 0.0  # seconds of the run's one MF training, 0 if none ran
    # seconds spent building each "measure/axis" similarity, summed over folds
    similarity_s: dict[str, float] = field(default_factory=dict)
    # seconds spent scoring and ranking with each method, summed over folds
    rank_s: dict[str, float] = field(default_factory=dict)

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
        return replace(self, rows=self.rows + extra)


def write_report_csv(report: EvaluationReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("dataset,fold,method,theta,L,metric,value\n")
        for r in report.rows:
            theta = "" if r.theta is None else f"{r.theta:g}"
            length = "" if r.length is None else str(r.length)
            value = "NA" if r.value is None else f"{r.value:.4f}"
            dataset = corpus._csv_field(r.dataset)
            fh.write(f"{dataset},{r.fold},{r.method},{theta},{length},{r.metric},{value}\n")


def _peak_rss_mb() -> float:
    """The process's peak resident memory so far; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# the ufuncs whose float64 loops pim and PIM+RA run: their bits follow
# numpy's SIMD dispatch
_DISPATCHED_UFUNCS = "^(exp|log|log1p|power)$"
_THP_ENABLED = "/sys/kernel/mm/transparent_hugepage/enabled"


def _environment() -> dict:
    """What output bits and peak memory depend on beyond the input and the
    settings: numpy's CPU dispatch, the BLAS build and the kernel it runs,
    and the huge-page settings. A part this numpy or system does not
    expose is a note instead."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    cpu = {
        "baseline": list(umath.__cpu_baseline__),
        "dispatched": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
    }
    try:
        from numpy.lib import introspect
    except ImportError:
        cpu["ufuncs"] = "numpy.lib.introspect needs numpy 2.0"
    else:
        found = introspect.opt_func_info(func_name=_DISPATCHED_UFUNCS, signature="^d")
        cpu["ufuncs"] = {
            name: {sig: t["current"] for sig, t in loops.items()} for name, loops in found.items()
        }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "numpy.show_config(mode='dicts') needs numpy 1.26"
    thp = None
    if os.path.exists(_THP_ENABLED):
        with open(_THP_ENABLED, encoding="ascii") as fh:
            text = fh.read()
        thp = text[text.find("[") + 1 : text.find("]")]
    return {
        "numpy_cpu": cpu,
        "blas_build": blas,
        "openblas": _openblas_runtime(),
        "transparent_hugepage": thp,
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


def _openblas_runtime() -> dict | str:
    """The kernel and thread count of the OpenBLAS that numpy's wheel
    ships in `numpy.libs`, or a note when there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*")))
    if not found:
        return f"no scipy-openblas library in {libs}"
    lib = ctypes.CDLL(found[0])  # already loaded by numpy: the same handle
    try:
        corename = lib.scipy_openblas_get_corename64_
        threads = lib.scipy_openblas_get_num_threads64_
    except AttributeError:
        return f"{os.path.basename(found[0])} exports no scipy_openblas_get_corename64_"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    threads.argtypes, threads.restype = [], ctypes.c_int
    return {"corename": corename().decode("ascii"), "threads": threads()}


def write_manifest(report: EvaluationReport, path, input_path) -> None:
    digest = hashlib.sha256()
    with open(input_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    manifest = {
        "config": asdict(report.config),
        "config_hash": report.config.digest(),
        "seed": report.config.seed,
        "input_sha256": digest.hexdigest(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "mf_train_s": report.mf_train_s,
        "similarity_s": report.similarity_s,
        "rank_s": report.rank_s,
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "diffrec": diffrec.__version__,
        },
        "environment": _environment(),
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


class _MfModels:
    """The MF models of a run's training sets, all trained by one
    `recommend.train_mf` call on the first request."""

    def __init__(self, trains: Sequence[RatingDataset], cfg: ExperimentConfig):
        self._trains, self._cfg = trains, cfg
        self._results: list | None = None
        self.train_s = 0.0

    def model(self, index: int) -> recommend.MFModel:
        """Set `index`'s model; raises the error that ended its training."""
        if self._results is None:
            if index >= len(self._trains):
                raise HarnessError("no training set kept: no configured method trains")
            start = time.perf_counter()
            self._results = recommend.train_mf(self._trains, self._cfg.mf, self._cfg.seed)
            self.train_s = time.perf_counter() - start
            self._trains = ()
        result = self._results[index]
        if isinstance(result, recommend.MfDivergenceError):
            raise result
        return result


class FoldContext:
    """Shared per-fold state: graph, lazily computed similarity matrices,
    the evaluated-user population, and the ranking of a method's users.
    The liked test items and the evaluated users are found on first use,
    as kNN prediction reads neither. A fold's runs keep each similarity
    only until its last reader, and then `release` it.

    The folds of one run pass the run's `_MfModels` and their index in it;
    a context built alone trains an MF model on its own training set, and
    holds that set only if a configured method trains: no other method
    reads the ratings once the graph is built.

    A context given `users` ranks only those users, so PIM+RA's item
    similarity holds only the rows of the items they rated."""

    def __init__(
        self,
        pair: FoldPair,
        cfg: ExperimentConfig,
        mf: tuple[_MfModels, int] | None = None,
        users: Sequence[int] | None = None,
    ):
        self.cfg = cfg
        if mf is None:
            trains = any(METHODS[m].trains for m in cfg.methods)
            mf = _MfModels([pair.train] if trains else [], cfg), 0
        self._mf = mf
        self._test = pair.test
        self._users = users
        self.graph = bigraph.build_graph(pair.train)
        # each (measure, axis, whole?) similarity, or the error its build raised
        self._sims: dict[tuple[str, str, bool], SimilarityMatrix | simkit.SimilarityError] = {}
        self.similarity_s: dict[str, float] = {}  # build seconds per "measure/axis"
        self.rank_s: dict[str, float] = {}  # scoring and ranking seconds per method

    def similarity(self, measure: str, axis: str, rows=None) -> SimilarityMatrix:
        """Normalized similarity matrix, built once per (measure, axis),
        whole or, apart from it, of the given rows only; a failed build's
        error is raised again on every later request."""
        key = (measure, axis, rows is None)
        if key not in self._sims:
            start = time.perf_counter()
            try:
                self._sims[key] = simkit.similarity(
                    self.graph, measure, axis, self.cfg.penalty_variant, rows
                )
            except simkit.SimilarityError as exc:
                self._sims[key] = exc
            else:
                self.similarity_s[f"{measure}/{axis}"] = time.perf_counter() - start
        if isinstance(self._sims[key], simkit.SimilarityError):
            raise self._sims[key]
        return self._sims[key]

    def release(self, key: tuple[str, str]) -> None:
        """Drop the (measure, axis) similarity, or the error its build
        raised, and for PIM+RA's the scorer that holds it; a later request
        builds it again."""
        for whole in (True, False):
            self._sims.pop((*key, whole), None)
        if key == _PIM_KEY:
            self.__dict__.pop("pimra_scorer", None)

    @cached_property
    def likes(self) -> dict[int, set[int]]:
        """Each test user's liked test items."""
        return evalmetrics.liked_test_set(self._test, self.cfg.like_threshold)

    @cached_property
    def test_users(self) -> list[int]:
        """The users with a liked test item and training ratings, ascending."""
        degree = self.graph.user_degree
        return sorted(u for u, liked in self.likes.items() if liked and degree[u] > 0)

    @property
    def excluded_users(self) -> int:
        """Users with a liked test item but no training ratings."""
        return len(self.likes) - len(self.test_users)

    @property
    def metric_sim(self) -> SimilarityMatrix:
        return self.similarity(self.cfg.metric_sim, "items")

    @cached_property
    def pimra_scorer(self) -> recommend.PimraScorer:
        rows = None
        if self._users is not None:  # the items the context's users rated
            rated = [self.graph.user_items(u)[0] for u in self._users]
            rows = np.unique(np.concatenate([np.empty(0, np.int64)] + rated))
        return recommend.PimraScorer(
            self.graph, self.similarity(*_PIM_KEY, rows), self.cfg.step3_weight
        )

    @property
    def mf_model(self) -> recommend.MFModel:
        models, index = self._mf
        return models.model(index)

    def user_counts(self, fold: int) -> dict[str, int]:
        return {
            "fold": fold,
            "evaluated_users": len(self.test_users),
            "excluded_users": self.excluded_users,
        }

    @cached_property
    def histories(self) -> dict[int, np.ndarray]:
        """Each test user's training items."""
        return {u: self.graph.user_items(u)[0] for u in self.test_users}

    def rank(
        self, method: str, users: Sequence[int], thetas: Sequence[float | None], length: int
    ) -> list[list[RecommendationList]]:
        """One top-`length` list of unseen items per user, from the training
        graph, for each theta of `thetas` (None is the configured theta).

        Score rows are ranked in blocks of at most _BLOCK_BYTES; a block is
        scored and its ranking inputs built once, and divided by each
        theta's penalty, if any, as it is ranked. The seconds this takes,
        less any similarity build or MF training it starts, add to
        `rank_s[method]`."""
        score, penalty = METHODS[method].score, METHODS[method].penalty
        thetas = [self.cfg.run_theta(method, theta) for theta in thetas]
        per_block = max(1, _BLOCK_BYTES // (8 * self.graph.n_items))
        per_theta: list[list[RecommendationList]] = [[] for _ in thetas]
        start, set_up = time.perf_counter(), self._set_up_s()
        try:
            for lo in range(0, len(users), per_block):
                block = users[lo : lo + per_block]
                rows = score(self, block)
                if penalty is None:
                    blocks = [rows] * len(thetas)
                else:
                    blocks = (rows / penalty(self, theta) for theta in thetas)
                ranked = recommend.rank(self.graph, block, blocks, length, self.likes)
                for lists, part in zip(per_theta, ranked):
                    lists.extend(part)
        except simkit.MemoryCeilingError:
            raise  # this machine's limit: an NA row would make the report depend on it
        except _METHOD_ERRORS as exc:
            raise HarnessError(f"method {method} failed: {exc}") from exc
        elapsed = time.perf_counter() - start - (self._set_up_s() - set_up)
        self.rank_s[method] = self.rank_s.get(method, 0.0) + elapsed
        return per_theta

    def _set_up_s(self) -> float:
        """Seconds spent so far building this fold's similarities and
        training the run's MF models."""
        return sum(self.similarity_s.values()) + self._mf[0].train_s


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
    lists or on the fold's metric similarity is NA, and so is every metric
    when `reason` says why nothing was ranked; the note gives the reason."""

    def row(metric: str, at: int | None, compute: Callable[[], float]) -> MetricRow:
        value, note = None, reason
        if not reason:
            try:
                value = compute()
            except simkit.MemoryCeilingError:
                raise  # this machine's limit, as in FoldContext.rank
            except (evalmetrics.MetricError, simkit.SimilarityError) as exc:
                note = str(exc)
        return MetricRow(ctx.cfg.dataset_name, fold, method, theta, at, metric, value, note)

    tops = evalmetrics.tops(lists, length)
    counts = evalmetrics.rec_counts(tops, ctx.graph.n_items)
    rows = [row("ars", None, lambda: evalmetrics.ars(lists))] if ars else []
    return rows + [
        row("gini", length, lambda: evalmetrics.gini(counts)),
        row("id", length, lambda: evalmetrics.internal_diversity(lists, ctx.metric_sim, length)),
        row("iud", length, lambda: evalmetrics.inter_user_diversity(tops, len(lists), length)),
        row("novelty", length,
            lambda: evalmetrics.novelty(lists, ctx.histories, ctx.metric_sim, length)),
        row("avg_popularity", length, lambda: evalmetrics.avg_popularity(tops, ctx.graph)),
    ]


ListSink = Callable[[int, str, list[RecommendationList]], None]


def _ranked_run(
    ds: RatingDataset,
    cfg: ExperimentConfig,
    plan: Sequence[tuple[str, Sequence[float | None]]],
    lengths: Sequence[int],
    list_sink: ListSink | None = None,
    ars: bool = True,
) -> EvaluationReport:
    """Rank each (method, thetas) entry of `plan` once per fold, at the
    largest length, and report each theta's metrics at every length, with
    cross-fold means. A method's thetas are ranked together, so that each
    block of users is scored once for all of them.

    A fold without evaluable test users ranks nothing, and neither does a
    method that fails on a fold; their rows are NA with the reason and
    their lists are empty. A run that ranks nothing at all is an error."""
    rows: list[MetricRow] = []
    fold_users = []
    failures: list[HarnessError] = []
    ranked = False
    similarity_s: Counter[str] = Counter()
    rank_s: Counter[str] = Counter()
    plan = [(method, [cfg.run_theta(method, t) for t in thetas]) for method, thetas in plan]
    # the entry of the plan that reads each similarity last; the metrics
    # read the metric similarity to the end of every fold
    last = {key: i for i, (method, _) in enumerate(plan) for key in METHODS[method].reads(cfg)}
    last.pop((cfg.metric_sim, "items"), None)
    pairs = corpus.kfold_split(ds, cfg.k_folds, cfg.seed)
    models = _MfModels([pair.train for pair in pairs], cfg)
    for f, pair in enumerate(pairs):
        ctx = FoldContext(pair, cfg, (models, f))
        fold_users.append(ctx.user_counts(f))
        for i, (method, thetas) in enumerate(plan):
            per_theta, reason = [[] for _ in thetas], ""
            if not ctx.test_users:
                reason = f"fold has no evaluable test users (like_threshold {cfg.like_threshold})"
            else:
                try:
                    per_theta = ctx.rank(method, ctx.test_users, thetas, max(lengths))
                    ranked = True
                except HarnessError as exc:  # a method's domain error
                    reason = str(exc)
                    failures.append(exc)
            for theta, lists in zip(thetas, per_theta):
                for length in lengths:
                    rows.extend(
                        _metric_rows(ctx, str(f), method, lists, theta, length, reason, ars)
                    )
                if list_sink is not None:
                    list_sink(f, method, lists)
            for key, at in last.items():
                if at == i:
                    ctx.release(key)
        fold_users[-1]["peak_rss_mb"] = _peak_rss_mb()
        similarity_s.update(ctx.similarity_s)
        rank_s.update(ctx.rank_s)
    if not any(f["evaluated_users"] for f in fold_users):
        raise HarnessError(
            f"no evaluable test users in any fold (like_threshold {cfg.like_threshold})"
        )
    if failures and not ranked:
        raise failures[0]
    return EvaluationReport(
        rows, cfg, fold_users, models.train_s, dict(similarity_s), dict(rank_s)
    ).with_means()


def run_experiment(
    ds: RatingDataset,
    cfg: ExperimentConfig,
    list_sink: ListSink | None = None,
) -> EvaluationReport:
    """Evaluate every configured method over a k-fold split."""
    plan = [(method, [None]) for method in cfg.methods]
    return _ranked_run(ds, cfg, plan, [cfg.list_length], list_sink)


def sweep_theta(
    ds: RatingDataset, cfg: ExperimentConfig, thetas: Sequence[float]
) -> EvaluationReport:
    """PIM+RA metrics per theta; folds and similarity matrices are shared
    across theta values."""
    _check_sweep("thetas", thetas)
    for t in thetas:
        if not 0.0 <= t <= 1.0:
            raise HarnessError(f"theta {t} outside [0, 1]")
    return _ranked_run(ds, cfg, [("PIM+RA", thetas)], [cfg.list_length])


def sweep_list_length(
    ds: RatingDataset, cfg: ExperimentConfig, lengths: Sequence[int]
) -> EvaluationReport:
    """List-length sweep without ARS, which no length changes; each
    (fold, method) is ranked once."""
    _check_sweep("list lengths", lengths)
    for length in lengths:
        if length < 1:
            raise HarnessError(f"list length {length} must be >= 1")
    plan = [(method, [None]) for method in cfg.methods]
    return _ranked_run(ds, cfg, plan, lengths, ars=False)


def sweep_knn(
    ds: RatingDataset,
    cfg: ExperimentConfig,
    ks: Sequence[int],
    measures: Sequence[str] = simkit.MEASURES,
) -> EvaluationReport:
    """Prediction-error table: NRMSE per (measure, mode, neighbor count)."""
    _check_sweep("ks", ks)
    for k in ks:
        if k < 1:
            raise HarnessError(f"k {k} must be >= 1")
    _check_sweep("measures", measures)
    for measure in measures:
        if measure not in simkit.MEASURES:
            raise HarnessError(
                f"measures must be drawn from {', '.join(simkit.MEASURES)}, got {measure!r}"
            )
    rows: list[MetricRow] = []
    for f, pair in enumerate(corpus.kfold_split(ds, cfg.k_folds, cfg.seed)):
        ctx = FoldContext(pair, cfg)
        test = pair.test
        for measure in measures:
            for mode, axis in KNN_AXES.items():
                try:
                    sim = ctx.similarity(measure, axis)
                except simkit.MemoryCeilingError:
                    raise  # this machine's limit, as in FoldContext.rank
                except simkit.SimilarityError as exc:
                    raise HarnessError(f"fold {f} similarity {measure}/{axis}: {exc}") from exc
                preds = recommend.knn_predict(sim, ctx.graph, test.users, test.items, ks)
                del sim  # its one reader is done: the release frees it before the next build
                ctx.release((measure, axis))
                errors = evalmetrics.nrmse(preds, test.ratings, ctx.graph.scale)
                name = f"{mode}-{measure}"
                for k, err in zip(ks, errors):
                    rows.append(MetricRow(cfg.dataset_name, str(f), name, None, k, "nrmse", err))
    return EvaluationReport(rows=rows, config=cfg).with_means()


def _check_sweep(name: str, values: Sequence) -> None:
    """HarnessError unless a sweep has values and none twice: an empty
    sweep would write a bare header, a repeated value its rows twice."""
    if len(values) == 0:
        raise HarnessError(f"no {name} given")
    seen = set()
    for value in values:
        if value in seen:
            raise HarnessError(f"{name} repeat {value!r}")
        seen.add(value)


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


# users sampled for the co-rating ratios, and similarity values sampled per measure
_SAMPLE_USERS = 50
_SIM_SAMPLE = 20_000


def analyze_corpus(ds: RatingDataset, cfg: ExperimentConfig) -> CorpusAnalysis:
    """Dataset structure analyses: co-rating ratio skew, activity vs item
    popularity, popularity vs mean rating, and normalized similarity
    distributions for the Pearson and corrected-Pearson measures (the
    latter with `cfg.penalty_variant`). `cfg.seed` draws the samples."""
    from scipy import stats  # only here and in _ols: it would double every command's import

    g = bigraph.build_graph(ds)
    rng = np.random.default_rng(cfg.seed)

    active = np.flatnonzero(g.user_degree > 0)
    chosen = (
        rng.choice(active, size=_SAMPLE_USERS, replace=False)
        if len(active) > _SAMPLE_USERS
        else active
    )
    m = len(chosen)
    if m < 3:  # fewer than 3 pairs
        raise HarnessError("need at least 3 user pairs for the skewness analysis")
    # the pair ratios pim's correction uses, in row-major upper-triangle order
    a, deg, whole = g.adjacency[chosen], g.user_degree[chosen].astype(float), slice(0, m)
    counts = simkit._co_counts(a, simkit._Tiles(simkit._spans(m, a.shape[1]), a.shape[1]), deg)
    ratios = simkit._ratios(counts, deg, whole, whole)[np.triu_indices(m, 1)]
    skewness = float(stats.skew(ratios))

    act_pop = _grouped_mean(
        g.user_degree[active],
        np.array([g.item_degree[g.user_items(int(u))[0]].mean() for u in active]),
    )
    act_reg = _ols(act_pop, "activity-popularity")

    items_rated = np.flatnonzero(g.item_degree > 0)
    pop_rating = _grouped_mean(
        g.item_degree[items_rated],
        np.array([g.item_users(int(i))[1].mean() for i in items_rated]),
    )
    pop_reg = _ols(pop_rating, "popularity-rating")

    samples = {}
    for measure in ("pcc", "pim"):
        vals = _upper_defined(simkit.similarity(g, measure, "users", cfg.penalty_variant))
        if len(vals) > _SIM_SAMPLE:
            vals = rng.choice(vals, size=_SIM_SAMPLE, replace=False)
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


def _upper_defined(sim: SimilarityMatrix) -> np.ndarray:
    """The defined values above the diagonal in row-major order, gathered
    one tile of rows at a time."""
    return np.concatenate([
        sim.values[rows][np.triu(sim.defined[rows], k=rows.start + 1)]
        for rows in simkit._spans(sim.n, sim.n)
    ])


def _grouped_mean(levels: np.ndarray, values: np.ndarray) -> list[tuple[int, float]]:
    table: dict[int, list[float]] = {}
    for lvl, val in zip(levels.tolist(), values.tolist()):
        table.setdefault(int(lvl), []).append(val)
    return [(lvl, float(np.mean(vs))) for lvl, vs in sorted(table.items())]


def _ols(points: list[tuple[int, float]], name: str) -> RegressionResult:
    from scipy import stats

    if len(points) < 3:
        raise HarnessError(f"need at least 3 points for the {name} regression, got {len(points)}")
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points])
    res = stats.linregress(xs, ys)
    return RegressionResult(
        slope=float(res.slope), intercept=float(res.intercept), p_value=float(res.pvalue)
    )
