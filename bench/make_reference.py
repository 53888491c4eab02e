"""Record reference outputs for the benchmark's output checker.

    python3 bench/make_reference.py --seeds 0-9 [--workload eval ...]

For each workload and seed, runs the command once on the seeded corpus,
requires it to pass the structural checks, and stores its values and the
sha256 of each output file in bench/reference/<workload>.json. Later runs
on a stored seed compare against these values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import synth


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-9 or 1,4,7")
    ap.add_argument("--workload", nargs="*", choices=list(run.WORKLOADS))
    args = ap.parse_args()
    run.REFERENCE.mkdir(exist_ok=True)
    work = run.BUILD / "work" / f"reference-{os.getpid()}"
    server = run.Server(timeout=60.0)
    try:
        return record(args, server, work)
    finally:
        server.close()
        shutil.rmtree(work, ignore_errors=True)


def record(args, server, work) -> int:
    for name in args.workload or list(run.WORKLOADS):
        path = run.REFERENCE / f"{name}.json"
        table = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
        for seed in parse_seeds(args.seeds):
            corpus = synth.corpus_file(run.BUILD / "corpus", run.WORKLOADS[name].shape, seed)
            rec = server.invoke(run.workload_argv(name, seed, corpus), work, False, run.DEADLINE_S)
            if rec["status"] != 0:
                print(f"{name} seed {seed}: exited with {rec['status']}", file=sys.stderr)
                return 1
            seen = (run.check.seen_items(corpus, run.recommend_user(seed))
                    if name == "recommend-1m" else set())
            out = run.check_outputs(name, seed, rec["out_dir"], rec["stdout"], seen, None)
            if out.failed:
                print(f"{name} seed {seed}: {out.failed} units fail the checks", file=sys.stderr)
                return 1
            table["seeds"][str(seed)] = {"values": out.values, "sha256": out.sha256}
            print(f"{name} seed {seed}: {out.attempted} units, wall {rec['wall_s']:.2f} s")
        seeds = sorted(table["seeds"].items(), key=lambda kv: int(kv[0]))
        body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                          for k, v in seeds)
        path.write_text('{"seeds": {\n' + body + "\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
