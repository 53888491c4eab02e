"""Layer-boundary tracer for diffrec, installed from outside the package.

`Tracer.install` replaces the public functions and methods of the seven
diffrec modules with wrappers that record one span per call: name, layer,
parent span, start and end time, and the process's peak RSS at both ends.
Spans stay in memory and are written once, by `Tracer.write`.
`summarize` turns a span list into the per-layer metrics.

Per-element accessors are left alone: they run once per rating or list
entry, so wrapping them costs more than the work they do and moves that
work out of the layer that loops over them.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import resource
import time
from collections import defaultdict
from functools import wraps
from types import ModuleType

LAYERS = ("corpus", "bigraph", "simkit", "recommend", "evalmetrics", "harness", "cli")

UNWRAPPED = frozenset(
    {
        "BipartiteGraph.user_items",
        "BipartiteGraph.item_users",
        "RatingScale.on_grid",
        "RatingDataset.triples",
        "RecommendationList.top",
    }
)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _size(result) -> float | None:
    """The work count a span's result carries, by result type."""
    kind = type(result).__name__
    if kind == "RatingDataset":
        return float(result.n_links)
    if kind == "SimilarityMatrix":
        return float(result.values.nbytes + result.defined.nbytes)
    if kind == "RecommendationList":
        return 1.0
    if kind == "EvaluationReport":
        return float(len({(r.fold, r.method, r.theta) for r in result.rows if r.fold != "mean"}))
    return None


class Tracer:
    """Records spans for calls through wrapped callables, single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "layer": layer,
                "parent": stack[-1] if stack else None,
                "start": time.perf_counter(),
                "rss_start_kb": _peak_rss_kb(),
                "error": False,
                "size": None,
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                span["rss_end_kb"] = _peak_rss_kb()
                stack.pop()
            span["size"] = _size(result)
            return result

        return traced

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every public function, and every public method of every
        public class, defined in each module (keyed by layer name)."""
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    setattr(mod, attr, self.wrap(layer, f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                attr == "__init__" and not dataclasses.is_dataclass(cls)
            )
            qual = f"{cls.__name__}.{attr}"
            if public and inspect.isfunction(member) and qual not in UNWRAPPED:
                setattr(cls, attr, self.wrap(layer, f"{layer}.{qual}", member))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from a span list.

    Self time is a span's duration minus its children's durations (calls
    are sequential, so children never overlap); the peak-RSS rise is
    split the same way. Over a single root span, the self times of all
    spans add up to the root's duration.
    """
    child_s = defaultdict(float)
    child_rise = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
            child_rise[s["parent"]] += s["rss_end_kb"] - s["rss_start_kb"]
    layer_of = {s["id"]: s["layer"] for s in spans}

    m: dict[str, float] = {}
    for layer in LAYERS:
        for key in ("self_s", "rss_rise_mb", "errors"):
            m[f"{layer}.{key}"] = 0.0
    for key in ("corpus.rows", "bigraph.graphs", "simkit.matrices", "simkit.matrix_mb",
                "recommend.mf_train_s", "recommend.scorer_build_s", "recommend.lists",
                "evalmetrics.iud_s", "evalmetrics.calls", "harness.units"):
        m[key] = 0.0

    for s in spans:
        layer, name = s["layer"], s["name"]
        self_s = (s["end"] - s["start"]) - child_s[s["id"]]
        m[f"{layer}.self_s"] += self_s
        rise = (s["rss_end_kb"] - s["rss_start_kb"]) - child_rise[s["id"]]
        m[f"{layer}.rss_rise_mb"] += rise / 1024.0
        m[f"{layer}.errors"] += s["error"]
        outermost = s["parent"] is None or layer_of[s["parent"]] != layer
        size = s["size"]
        if name == "corpus.load_ratings" and size is not None:
            m["corpus.rows"] += size
        elif name == "bigraph.build_graph":
            m["bigraph.graphs"] += 1
        elif layer == "simkit" and size is not None:
            m["simkit.matrices"] += 1
            m["simkit.matrix_mb"] += size / 2**20
        elif name == "recommend.train_mf":
            m["recommend.mf_train_s"] += self_s
        elif name == "recommend.PimraScorer.__init__":
            m["recommend.scorer_build_s"] += self_s
        elif name == "evalmetrics.inter_user_diversity":
            m["evalmetrics.iud_s"] += self_s
        if layer == "recommend" and outermost and size is not None:
            m["recommend.lists"] += size
        elif layer == "evalmetrics":
            m["evalmetrics.calls"] += 1
        elif layer == "harness" and outermost and size is not None:
            m["harness.units"] += size
    m["recommend.rank_s"] = (
        m["recommend.self_s"] - m["recommend.mf_train_s"] - m["recommend.scorer_build_s"]
    )
    return m
