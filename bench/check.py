"""Output checks for the benchmark's diffrec invocations.

Every check reports per output unit: one (fold, method) of `eval`, one
(fold, theta) of `sweep-theta`, one (fold, measure, mode) of `sweep-knn`,
or the single `recommend` request. A unit fails when any of its rows is
missing, malformed, out of its metric's range, inconsistent with the
cross-fold mean, or, where a reference exists for the seed, different
from the reference value by more than one unit in the last printed digit.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

REPORT_HEADER = "dataset,fold,method,theta,L,metric,value"
LIST_HEADER = "user,rank,item,score"
# Values are printed with 4 decimals; a last-bit change in the float can
# move the printed value by one unit, never by two.
TOL = 1.5e-4

METRIC_RANGES = {
    "ars": (0.0, math.inf),
    "gini": (0.0, 1.0),
    "id": (0.0, 1.0),
    "iud": (0.0, 1.0),
    "novelty": (0.0, 1.0),
    "avg_popularity": (0.0, math.inf),
    "nrmse": (0.0, 1.0),
}
NA_ALLOWED = {"id"}
LIST_METRICS = ("gini", "id", "iud", "novelty", "avg_popularity")


@dataclass
class Outcome:
    """Problems per unit, comparable values and sha256 per output file."""

    units: dict[str, list[str]]
    values: dict[str, str] = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.units)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.units.values() if p)

    def fail_all(self, msg: str) -> None:
        for problems in self.units.values():
            problems.append(msg)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL + 1e-6 * abs(b)


def _value_problem(metric: str, text: str, fold: str) -> str | None:
    if text == "NA":
        return None if metric in NA_ALLOWED and fold != "mean" else f"{metric}: unexpected NA"
    try:
        v = float(text)
    except ValueError:
        return f"{metric}: unparsable value {text!r}"
    lo, hi = METRIC_RANGES[metric]
    if not math.isfinite(v) or not lo - TOL <= v <= hi + TOL:
        return f"{metric}: value {text} outside [{lo}, {hi}]"
    return None


# ---------------------------------------------------------------------------
# Report CSVs (eval and the sweeps)

Key = tuple[str, str, str, str, str]  # fold, method, theta, L, metric


def eval_units(methods, folds=5, theta="0.6", length=100) -> dict[Key, str]:
    expected = {}
    for f in range(folds):
        for m in methods:
            th = theta if m == "PIM+RA" else ""
            expected[(str(f), m, th, "", "ars")] = f"fold{f}/{m}"
            for metric in LIST_METRICS:
                expected[(str(f), m, th, str(length), metric)] = f"fold{f}/{m}"
    return expected


def theta_units(thetas, folds=5, length=100) -> dict[Key, str]:
    expected = {}
    for f in range(folds):
        for t in thetas:
            th = f"{t:g}"
            expected[(str(f), "PIM+RA", th, "", "ars")] = f"fold{f}/theta{th}"
            for metric in LIST_METRICS:
                expected[(str(f), "PIM+RA", th, str(length), metric)] = f"fold{f}/theta{th}"
    return expected


def knn_units(ks, measures, folds=5) -> dict[Key, str]:
    expected = {}
    for f in range(folds):
        for measure in measures:
            for mode in ("UBCF", "IBCF"):
                for k in ks:
                    method = f"{mode}-{measure}"
                    expected[(str(f), method, "", str(k), "nrmse")] = f"fold{f}/{method}"
    return expected


def check_report(text: str, expected: dict[Key, str], reference: dict | None) -> Outcome:
    """Check a report CSV against the expected fold rows, the mean rows
    they imply, metric ranges, and reference values when given."""
    out = Outcome(units={u: [] for u in expected.values()})
    lines = text.split("\n")
    if not lines or lines[0] != REPORT_HEADER or lines[-1] != "":
        out.fail_all("report: bad header or missing final newline")
        return out
    rows: dict[Key, str] = {}
    for line in lines[1:-1]:
        parts = line.split(",")
        key = tuple(parts[1:6])
        if len(parts) != 7 or parts[0] != "dataset" or key in rows:
            out.fail_all(f"report: malformed or duplicate row {line!r}")
            continue
        rows[key] = parts[6]

    owners: dict[Key, list[str]] = {}
    groups: dict[tuple, list[Key]] = defaultdict(list)
    for key, unit in expected.items():
        owners[key] = [unit]
        groups[key[1:]].append(key)
    for gkey, members in groups.items():
        owners[("mean", *gkey)] = [expected[k] for k in members]

    for key, unit in expected.items():
        if key not in rows:
            out.units[unit].append(f"missing row {','.join(key)}")
            continue
        problem = _value_problem(key[4], rows[key], key[0])
        if problem:
            out.units[unit].append(f"{','.join(key)}: {problem}")
    for gkey, members in groups.items():
        mean_key = ("mean", *gkey)
        # Fold values that are missing, NA or invalid are reported above.
        vals = [float(rows[k]) for k in members
                if rows.get(k, "NA") != "NA" and _value_problem(k[4], rows[k], k[0]) is None]
        mean_text = rows.get(mean_key)
        if not vals:
            ok = mean_text is None
        else:
            ok = mean_text is not None and _value_problem(gkey[3], mean_text, "mean") is None
            ok = ok and _close(float(mean_text), sum(vals) / len(vals))
        if not ok:
            for unit in owners[mean_key]:
                out.units[unit].append(f"mean row {','.join(mean_key)} wrong or missing")
    for key in rows.keys() - owners.keys():
        out.fail_all(f"report: unexpected row {','.join(key)}")

    out.values = {",".join(k): v for k, v in rows.items()}
    if reference is not None:
        for key_text, ref in reference["values"].items():
            key = tuple(key_text.split(","))
            got = rows.get(key)
            same = got == ref or (
                got not in (None, "NA") and ref != "NA"
                and _value_problem(key[4], got, key[0]) is None and _close(float(got), float(ref))
            )
            if not same:
                for unit in owners.get(key, []):
                    out.units[unit].append(f"{key_text}: {got} differs from reference {ref}")
    return out


def check_lists(out: Outcome, out_dir: Path, methods, folds=5, length=100) -> None:
    """Structure of eval's per-(fold, method) recommendation-list CSVs:
    L ranked, distinct items per user, non-increasing finite scores, and
    the same users for every method of a fold."""
    for f in range(folds):
        users_by_method = {}
        for m in methods:
            unit = f"fold{f}/{m}"
            path = out_dir / f"recommendations_fold{f}_{m.replace('+', '')}.csv"
            if not path.exists():
                out.units[unit].append(f"missing {path.name}")
                continue
            problems, users = _check_list_text(path.read_text(encoding="utf-8"), length)
            out.units[unit].extend(f"{path.name}: {p}" for p in problems)
            users_by_method[m] = users
        if len({frozenset(u) for u in users_by_method.values()}) > 1:
            for m in methods:
                out.units[f"fold{f}/{m}"].append(f"fold {f}: methods rank different users")


def _check_list_text(text: str, length: int, user: str | None = None):
    """Problems in a user,rank,item,score list and the users it covers."""
    lines = text.split("\n")
    if lines[0] != LIST_HEADER or lines[-1] != "":
        return ["bad header or missing final newline"], set()
    problems: list[str] = []
    ranked: dict[str, list[tuple[int, str, float]]] = defaultdict(list)
    for line in lines[1:-1]:
        parts = line.split(",")
        try:
            u, rank, item, score = parts[0], int(parts[1]), parts[2], float(parts[3])
        except (ValueError, IndexError):
            problems.append(f"malformed row {line!r}")
            continue
        ranked[u].append((rank, item, score))
    if user is not None and set(ranked) != {user}:
        problems.append(f"expected rows for {user} only, got {sorted(ranked)[:3]}")
    for u, rows in ranked.items():
        if [r[0] for r in rows] != list(range(1, length + 1)):
            problems.append(f"{u}: ranks are not 1..{length}")
        if len({r[1] for r in rows}) != len(rows):
            problems.append(f"{u}: repeated item")
        scores = [r[2] for r in rows]
        if not all(math.isfinite(s) for s in scores) or any(
            b > a + TOL for a, b in zip(scores, scores[1:])
        ):
            problems.append(f"{u}: scores not finite and non-increasing")
    return problems, set(ranked)


# ---------------------------------------------------------------------------
# A single user's list (recommend)


def check_recommend(text: str, user: str, length: int, seen: set[str],
                    reference: dict | None) -> Outcome:
    """L ranked unseen items for `user`, matching the reference where given.

    Items whose printed scores are identical may come in any order, so
    within each run of identical reference scores the items are compared
    as a set; every score must match its reference within one printed unit.
    """
    out = Outcome(units={"request": []})
    problems, _ = _check_list_text(text, length, user)
    rows = [line.split(",") for line in text.split("\n")[1:-1]]
    items = [r[2] for r in rows if len(r) == 4]
    problems.extend(f"seen item {i} recommended" for i in items if i in seen)
    out.units["request"].extend(problems)
    if problems:
        return out
    out.values = {r[1]: f"{r[2]},{r[3]}" for r in rows}
    if reference is not None:
        ref = [reference["values"][str(r)].split(",") for r in range(1, length + 1)]
        start = 0
        for end in range(1, length + 1):
            if end < length and ref[end][1] == ref[start][1]:
                continue
            if {r[2] for r in rows[start:end]} != {r[0] for r in ref[start:end]}:
                out.units["request"].append(f"ranks {start + 1}-{end}: items differ from reference")
            if not all(_close(float(g[3]), float(r[1])) for g, r in zip(rows[start:end], ref[start:end])):
                out.units["request"].append(f"ranks {start + 1}-{end}: scores differ from reference")
            start = end
    return out


def seen_items(corpus_path: Path, user: str) -> set[str]:
    """Items the user rated in a generic-csv corpus."""
    prefix = f"{user},"
    with open(corpus_path, encoding="utf-8") as fh:
        return {line.split(",")[1] for line in fh if line.startswith(prefix)}


def digests(out_dir: Path, stdout_text: str) -> dict[str, str]:
    """sha256 of every output file and of the captured stdout."""
    sums = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}
    sums["<stdout>"] = hashlib.sha256(stdout_text.encode("utf-8")).hexdigest()
    return sums
