"""Tests of the benchmark itself: corpus determinism, the output checker
and the tracer's self-time accounting.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import time
import types
from pathlib import Path

import pytest

import check
import run
import synth
import tracer

TINY = synth.Shape(30, 50, 300, 3, 30, 20.0)


def _corpus_bytes(tmp_path: Path, shape: synth.Shape, seed: int) -> bytes:
    path = tmp_path / f"c{seed}.csv"
    synth.write_csv(path, *synth.generate(shape, seed))
    return path.read_bytes()


def test_same_seed_same_corpus_bytes_and_different_seed_differs(tmp_path):
    a = _corpus_bytes(tmp_path, TINY, 7)
    assert a == _corpus_bytes(tmp_path, TINY, 7)
    assert a != _corpus_bytes(tmp_path, TINY, 8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corpus_has_unique_pairs_and_every_user_and_item(seed):
    users, items, ratings = synth.generate(TINY, seed)
    assert len(set(zip(users.tolist(), items.tolist()))) == len(users)
    assert set(users.tolist()) == set(range(TINY.users))
    assert set(items.tolist()) == set(range(TINY.items))
    assert set(ratings.tolist()) <= {1, 2, 3, 4, 5}


def _knn_report(values: dict[check.Key, float]) -> str:
    lines = [check.REPORT_HEADER]
    groups: dict[tuple, list[float]] = {}
    for key, v in values.items():
        lines.append(f"dataset,{','.join(key)},{v:.4f}")
        groups.setdefault(key[1:], []).append(v)
    for gkey, vs in groups.items():
        lines.append(f"dataset,mean,{','.join(gkey)},{sum(vs) / len(vs):.4f}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def knn_case():
    expected = check.knn_units((5, 10), ("pcc",), folds=2)
    values = {key: 0.2 + 0.01 * n for n, key in enumerate(expected)}
    return expected, values


def test_checker_accepts_a_consistent_report(knn_case):
    expected, values = knn_case
    text = _knn_report(values)
    out = check.check_report(text, expected, None)
    assert out.attempted == 4 and out.failed == 0
    again = check.check_report(text, expected, {"values": out.values})
    assert again.failed == 0


def test_checker_flags_a_value_perturbed_against_the_reference(knn_case):
    expected, values = knn_case
    reference = {"values": check.check_report(_knn_report(values), expected, None).values}
    key = next(iter(expected))
    values[key] += 0.002
    out = check.check_report(_knn_report(values), expected, reference)
    assert any("0.2020 differs from reference 0.2000" in p for p in out.units[expected[key]])


def test_checker_flags_an_out_of_range_value_without_a_reference(knn_case):
    expected, values = knn_case
    key = next(iter(expected))
    values[key] = 1.5
    assert check.check_report(_knn_report(values), expected, None).units[expected[key]]


def test_checker_flags_a_wrong_mean_row(knn_case):
    expected, values = knn_case
    text = _knn_report(values).replace("dataset,mean,UBCF-pcc,,5,nrmse,", "dataset,mean,UBCF-pcc,,5,nrmse,9")
    out = check.check_report(text, expected, None)
    assert out.failed == 2  # both folds own the mean row


def test_checker_fails_the_unit_of_an_unparsable_value(knn_case):
    expected, values = knn_case
    text = _knn_report(values)
    reference = {"values": check.check_report(text, expected, None).values}
    key = next(iter(expected))
    bad = text.replace(f"dataset,{','.join(key)},{values[key]:.4f}\n", f"dataset,{','.join(key)},\n")
    for ref in (None, reference):
        out = check.check_report(bad, expected, ref)
        assert any("unparsable value ''" in p for p in out.units[expected[key]])
        assert out.failed >= 1  # the mean row cannot be confirmed either


@pytest.mark.parametrize("name", ["eval", "sweep-theta", "sweep-knn"])
def test_stored_reference_passes_and_a_perturbed_copy_fails(name):
    path = run.REFERENCE / f"{name}.json"
    if not path.exists():
        pytest.skip("no stored reference")
    seed, ref = next(iter(json.loads(path.read_text())["seeds"].items()))
    text = check.REPORT_HEADER + "\n" + "".join(
        f"dataset,{k},{v}\n" for k, v in ref["values"].items())
    expected = run.WORKLOADS[name].expected()
    assert check.check_report(text, expected, ref).failed == 0
    key, value = next((k, v) for k, v in ref["values"].items() if v != "NA" and not k.startswith("mean"))
    bad = text.replace(f"dataset,{key},{value}\n", f"dataset,{key},{float(value) + 0.001:.4f}\n")
    assert check.check_report(bad, expected, ref).failed >= 1


def _list(user: str, items: list[str], scores: list[float]) -> str:
    rows = [f"{user},{r},{i},{s:.4f}" for r, (i, s) in enumerate(zip(items, scores), start=1)]
    return check.LIST_HEADER + "\n" + "\n".join(rows) + "\n"


def test_recommend_check_flags_seen_items_and_reference_changes():
    items = [f"i{n}" for n in range(10)]
    scores = [0.9, 0.8, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
    text = _list("u1", items, scores)
    ok = check.check_recommend(text, "u1", 10, {"i99"}, None)
    assert ok.failed == 0
    reference = {"values": ok.values}
    swapped_tie = _list("u1", [items[0], items[2], items[1], *items[3:]], scores)
    assert check.check_recommend(swapped_tie, "u1", 10, set(), reference).failed == 0
    swapped = _list("u1", [items[1], items[0], *items[2:]], scores)
    assert check.check_recommend(swapped, "u1", 10, set(), reference).failed == 1
    assert check.check_recommend(text, "u1", 10, {"i3"}, None).failed == 1
    assert check.check_recommend(text, "u2", 10, set(), None).failed == 1


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_layer_self_times_add_up_to_the_root_span():
    t = tracer.Tracer()
    leaf = t.wrap("simkit", "simkit.leaf", lambda: _busy(0.01))

    def middle():
        _busy(0.005)
        leaf()
        leaf()

    mid = t.wrap("harness", "harness.middle", middle)

    def root():
        _busy(0.005)
        mid()
        _busy(0.005)
        return 0

    t.wrap("cli", "cli.main", root)()
    m = tracer.summarize(t.spans)
    root_span = t.spans[0]
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total == pytest.approx(root_span["end"] - root_span["start"], abs=1e-9)
    assert m["simkit.self_s"] >= 0.02
    assert m["harness.self_s"] >= 0.005 and m["cli.self_s"] >= 0.01


def test_install_wraps_public_callables_but_not_per_element_accessors():
    mod = types.ModuleType("fake_corpus")

    class RatingScale:
        def on_grid(self, r):
            return True

        def describe(self):
            return "scale"

    def load():
        return RatingScale()

    def _private():
        return None

    for obj in (RatingScale, load, _private):
        obj.__module__ = mod.__name__
        setattr(mod, obj.__name__, obj)
    t = tracer.Tracer()
    t.install({"corpus": mod})
    scale = mod.load()
    scale.on_grid(1.0)
    scale.describe()
    mod._private()
    assert [s["name"] for s in t.spans] == ["corpus.load", "corpus.RatingScale.describe"]


def test_emitted_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(tracer.summarize([])) | set(run.TRACE_EXTRAS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
