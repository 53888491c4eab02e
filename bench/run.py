"""diffrec benchmark: closed-loop CLI workloads on seeded synthetic corpora.

    python3 bench/run.py --workload eval --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1

One client runs the workload's `diffrec` command in a fresh process
(forked from a server that has imported diffrec, see child.py), waits
for it, checks its outputs, and starts the next unless that would run
past --seconds (it runs at least once, twice for recommend-1m, or one
untraced plus one traced invocation). BLAS threads are left at their
default.

--trace 0 reports the end-to-end metrics: the mean, over the run's
invocations, of the wall time of `diffrec.cli.main` and of the time
inside `corpus.load_ratings` (set-up); the median peak RSS of the
process; and the share of output units that pass the checks. --trace 1
alternates untraced and traced invocations and reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead (mean
traced minus mean untraced wall time). The last stdout line is one JSON object; a full
per-run record with machine information goes to .bench_build/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

import check
import synth
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
REFERENCE = BENCH / "reference"

DEADLINE_S = 170.0
LENGTH = 100
METHODS = ("UBCF", "IBCF", "SVD", "MD", "PIM+RA")
THETAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
KS = (5, 10, 20, 40, 80)
MEASURES = ("cosine", "pcc", "pim")

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "ok_rate")
# Per-layer metrics beyond tracer.summarize's own.
TRACE_EXTRAS = ("cli.out_bytes", "trace.spans", "trace.wall_s", "trace.overhead_s",
                "process.cpu_s", "machine.calib_s")


@dataclass(frozen=True)
class Workload:
    shape: str
    args: tuple[str, ...]
    report: str | None = None  # the report CSV the command writes, if any
    expected: Callable[[], dict[check.Key, str]] | None = None  # its rows -> units
    min_rounds: int = 1  # untraced invocations per run, at the least


WORKLOADS = {
    # The only workload that trains MF, ranks with UBCF/IBCF and writes
    # the list CSVs.
    "eval": Workload(
        "small", ("eval",), "report.csv", lambda: check.eval_units(METHODS, length=LENGTH),
    ),
    # Ranking plus list metrics; one similarity matrix and one scorer per
    # fold are shared across the six thetas.
    "sweep-theta": Workload(
        "medium", ("sweep-theta", "--thetas", ",".join(f"{t:g}" for t in THETAS)),
        "sweep_theta.csv", lambda: check.theta_units(THETAS, length=LENGTH),
    ),
    # simkit on both axes for all three measures and kNN prediction; no
    # ranking, no list metrics, no MF.
    "sweep-knn": Workload(
        "large", ("sweep-knn",), "sweep_knn.csv", lambda: check.knn_units(KS, MEASURES),
    ),
    # Loading and dense similarity at ML-1M shape; ranking is negligible.
    # Its load is the only long set-up, so a run always times it twice.
    "recommend-1m": Workload(
        "ml1m", ("recommend", "--method", "PIM+RA", "-L", str(LENGTH)), min_rounds=2,
    ),
}


def recommend_user(seed: int) -> str:
    return f"u{np.random.default_rng(seed).integers(1, synth.SHAPES['ml1m'].users + 1)}"


def workload_argv(name: str, seed: int, corpus: Path) -> list[str]:
    argv = [*WORKLOADS[name].args, "--input", str(corpus)]
    if name == "recommend-1m":
        argv += ["--user", recommend_user(seed)]
    return argv


def load_reference(name: str, seed: int) -> dict | None:
    path = REFERENCE / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def check_outputs(name: str, seed: int, out_dir: Path, stdout_text: str,
                  seen: set[str], reference: dict | None) -> check.Outcome:
    wl = WORKLOADS[name]
    if wl.report is None:
        out = check.check_recommend(stdout_text, recommend_user(seed), LENGTH, seen, reference)
    else:
        path = out_dir / wl.report
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        out = check.check_report(text, wl.expected(), reference)
        if stdout_text != text:
            out.fail_all("stdout differs from the report file")
        if name == "eval":
            check.check_lists(out, out_dir, METHODS, length=LENGTH)
    out.sha256 = check.digests(out_dir, stdout_text)
    return out


# ---------------------------------------------------------------------------
# Machine information


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed matmul chain."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    a = np.arange(400 * 400, dtype=np.float64).reshape(400, 400) / 1.6e5
    for _ in range(30):
        a = np.tanh(a @ a)
    return time.perf_counter() - t


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def _source_digest() -> str:
    """sha256 over the package sources, to identify the code outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "diffrec").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_info(seed: int) -> dict:
    git_commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_commit = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit,
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Invocations


class Server:
    """The fork server (child.py): diffrec imported once, one fresh forked
    process per invocation. Stopped, with any invocation it runs, by
    `close` or on a timeout."""

    def __init__(self, timeout: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        if self._reply(timeout) != "ready":
            self.close()
            raise RuntimeError("the fork server did not start")

    def _reply(self, timeout: float) -> str | None:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        return self.proc.stdout.readline().strip() if ready else None

    def invoke(self, argv: list[str], work: Path, traced: bool, timeout: float) -> dict:
        """Run one diffrec invocation; return its result record (exit
        status, timings, output paths)."""
        shutil.rmtree(work, ignore_errors=True)
        out_dir = work / "out"
        out_dir.mkdir(parents=True)
        req = {
            "argv": [*argv, "--out-dir", str(out_dir)],
            "result": str(work / "result.json"),
            "spans": str(work / "spans.json") if traced else None,
            "stdout": str(work / "stdout.txt"),
            "stderr": str(work / "stderr.txt"),
        }
        t = time.monotonic()
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
            reply = self._reply(timeout)
        except OSError:
            reply = None
        status = json.loads(reply)["status"] if reply else "timeout or server lost"
        if not reply:
            self.close(kill=True)
        rec = {"status": status, "elapsed_s": time.monotonic() - t, "out_dir": out_dir,
               "stdout": _read(work / "stdout.txt")}
        result_path = work / "result.json"
        if status == 0 and result_path.exists():
            rec.update(json.loads(result_path.read_text(encoding="utf-8")))
            if traced:
                spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
                rec["layers"] = tracer.summarize(spans)
                rec["spans"] = len(spans)
        else:
            rec["stderr_tail"] = _read(work / "stderr.txt")[-2000:]
        return rec

    def close(self, kill: bool = False) -> None:
        if self.proc.poll() is None and not kill:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                kill = True
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""


def _median(values) -> float:
    """Median, or 0.0 for a run whose invocations all failed (it reports
    correct: false)."""
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    """Mean, or 0.0 as `_median`. A shared host runs an invocation at one
    of two speeds about 2x apart, in spells of seconds whose mix changes
    from run to run; a quantile over the invocations jumps between the
    two speeds as the mix changes, while the mean moves in proportion."""
    return float(statistics.fmean(values)) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload: a dict with correct / attempted
    / failed / metrics and the full record."""
    t_begin = time.monotonic()
    corpus = synth.corpus_file(BUILD / "corpus", WORKLOADS[name].shape, seed)
    argv = workload_argv(name, seed, corpus)
    seen = check.seen_items(corpus, recommend_user(seed)) if name == "recommend-1m" else set()
    reference = load_reference(name, seed)
    info = machine_info(seed)
    calib_s = calibrate()
    work_root = BUILD / "work" / f"{name}-{os.getpid()}"
    wl = WORKLOADS[name]
    units = len(set(wl.expected().values())) if wl.expected else 1

    plain, traced, problems = [], [], []
    attempted = failed = 0
    identical = []
    checked: dict[str, check.Outcome] = {}
    rounds: list[float] = []
    server = Server(timeout=60.0)
    try:
        t_start = time.monotonic()
        min_rounds = 1 if trace else wl.min_rounds
        while server.proc.poll() is None:
            elapsed = time.monotonic() - t_start
            est = _median(rounds) if rounds else 0.0
            if len(rounds) >= min_rounds and elapsed + est > seconds:
                break
            if rounds and time.monotonic() - t_begin + est > DEADLINE_S:
                break
            t_round = time.monotonic()
            ok = True
            for is_traced in ((False, True) if trace else (False,)):
                left = DEADLINE_S - (time.monotonic() - t_begin)
                rec = server.invoke(argv, work_root / f"inv{len(plain) + len(traced)}", is_traced, max(left, 1.0))
                if rec["status"] != 0:
                    attempted += units
                    failed += units
                    problems.append(f"invocation exited with {rec['status']}: {rec.get('stderr_tail', '')}")
                    ok = False
                    break
                # Outputs byte-identical to an invocation checked earlier in
                # the run take its verdict; manifest.json holds timings.
                digests = check.digests(rec["out_dir"], rec["stdout"])
                digests.pop("manifest.json", None)
                key = json.dumps(digests, sort_keys=True)
                out = checked.get(key)
                if out is None:
                    out = checked[key] = check_outputs(name, seed, rec["out_dir"], rec["stdout"],
                                                       seen, reference)
                attempted += out.attempted
                failed += out.failed
                problems.extend(f"{u}: {p}" for u, ps in out.units.items() for p in ps)
                rec["sha256"] = out.sha256
                rec["out_bytes"] = sum(p.stat().st_size for p in rec["out_dir"].iterdir()) + len(
                    rec["stdout"].encode("utf-8"))
                if reference is not None:
                    identical.append(all(out.sha256.get(k) == v for k, v in reference["sha256"].items()
                                         if k != "manifest.json"))
                for key in ("out_dir", "stdout"):
                    rec.pop(key)
                (traced if is_traced else plain).append(rec)
            rounds.append(time.monotonic() - t_round)
            if not ok:
                break
    finally:
        server.close()
    shutil.rmtree(work_root, ignore_errors=True)

    cpu_s = _median([r["cpu_s"] for r in plain])
    if trace:
        layer_keys = list(traced[0]["layers"]) if traced else list(tracer.summarize([]))
        metrics = {k: _median([r["layers"][k] for r in traced]) for k in layer_keys}
        metrics["cli.out_bytes"] = _median([r["out_bytes"] for r in traced])
        metrics["trace.spans"] = _median([r["spans"] for r in traced])
        metrics["trace.wall_s"] = _mean([r["wall_s"] for r in traced])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _mean([r["wall_s"] for r in plain])
        metrics["process.cpu_s"] = cpu_s
        metrics["machine.calib_s"] = calib_s
    else:
        metrics = {
            "wall_s": _mean([r["wall_s"] for r in plain]),
            "setup_s": _mean([r["setup_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "ok_rate": (attempted - failed) / attempted if attempted else 0.0,
        }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": info, "machine.calib_s": calib_s, "process.cpu_s": cpu_s,
        "argv": argv, "reference_seed": reference is not None,
        "bytes_identical_to_reference": all(identical) if identical else None,
        "attempted": attempted, "failed": failed, "fail_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:50], "metrics": metrics,
        "invocations": {"untraced": plain, "traced": traced},
    }
    records = BUILD / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    record["path"] = path
    return {
        "correct": bool(plain) and failed == 0 and (bool(traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_rate"):
        return "ratio"
    return "count"


def print_summary(name: str, res: dict) -> None:
    rec = res["record"]
    n_plain = len(rec["invocations"]["untraced"])
    n_traced = len(rec["invocations"]["traced"])
    print(f"{name} seed {rec['seed']}: {n_plain} untraced + {n_traced} traced invocations, "
          f"{res['attempted']} units, {res['failed']} failed")
    rows = dict(res["metrics"])
    rows["fail_rate"] = rec["fail_rate"]
    rows.setdefault("process.cpu_s", rec["process.cpu_s"])
    rows.setdefault("machine.calib_s", rec["machine.calib_s"])
    for key, value in rows.items():
        print(f"  {key:28s} {value:14.4f} {unit_of(key)}")
    for problem in rec["problems"][:10]:
        print(f"  FAIL {problem}")
    print(f"  bytes identical to reference: {rec['bytes_identical_to_reference']}")
    print(f"  record: {rec['path'].relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "diffrec" / "cli.py").is_file():
        print(f"error: no diffrec sources at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, results[name])
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
