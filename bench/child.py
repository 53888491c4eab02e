"""Fork server for measured diffrec CLI invocations, started by run.py.

    python3 bench/child.py SRC_DIR

Imports diffrec from SRC_DIR once, prints `ready`, then reads one JSON
request per stdin line: {"argv", "result", "spans", "stdout", "stderr"}.
For each it forks a fresh process that redirects its stdout and stderr to
the named files, installs the layer-boundary tracer if "spans" is set,
times `diffrec.cli.main(argv)` and the time spent inside
`corpus.load_ratings`, and writes wall time, set-up time, peak RSS and
CPU time to the "result" file. The server waits for that process and
answers with one line {"status": exit code}. Forking from an imported
server keeps interpreter start-up and imports (about 1.5 s) out of every
invocation; neither is inside the measured time. The forked process
never ran diffrec before, so its state is that of a fresh import.

Set-up time is the median of several loads: after the command has
returned and its RSS and CPU time are read, an untraced invocation
repeats the command's load with the same arguments (`repeat_load`). A
load of a few milliseconds is otherwise dominated by first-call costs
(bytecode warm-up, pages first written after the fork, a garbage
collection) that vary from process to process by more than the load
itself; a load of seconds is timed once.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


# Repeat the load while the repeats take at most this long in total.
REPEAT_BUDGET_S = 0.5
MAX_LOADS = 9


def repeat_load(load, calls: list, times: list[float]) -> None:
    """Time `load` again with the arguments of the command's first call
    until MAX_LOADS loads are timed or the next would run past the
    budget. A load of seconds is not repeated at all."""
    args, kwargs = calls[0]
    spent = 0.0
    while len(times) < MAX_LOADS and spent + times[-1] <= REPEAT_BUDGET_S:
        t = time.perf_counter()
        load(*args, **kwargs)
        times.append(time.perf_counter() - t)
        spent += times[-1]


def measure(req: dict) -> int:
    """Run one invocation in the current (forked) process; its exit code."""
    from diffrec import bigraph, cli, corpus, evalmetrics, harness, recommend, simkit

    if req["spans"]:
        from tracer import Tracer  # the script's own directory is on sys.path

        tracer = Tracer()
        tracer.install(
            {"corpus": corpus, "bigraph": bigraph, "simkit": simkit, "recommend": recommend,
             "evalmetrics": evalmetrics, "harness": harness, "cli": cli}
        )

    load_s: list[float] = []
    load_calls: list = []
    load_ratings = corpus.load_ratings

    def timed_load(*args, **kwargs):
        load_calls.append((args, kwargs))
        t = time.perf_counter()
        try:
            return load_ratings(*args, **kwargs)
        finally:
            load_s.append(time.perf_counter() - t)

    corpus.load_ratings = timed_load

    t0 = time.perf_counter()
    rc = cli.main(req["argv"])
    sys.stdout.flush()
    wall_s = time.perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)
    if req["spans"]:
        tracer.write(req["spans"])
    setup_s = sum(load_s)
    if len(load_s) == 1 and not req["spans"]:
        repeat_load(load_ratings, load_calls, load_s)
        setup_s = statistics.median(load_s)
    result = {
        "exit_code": rc,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "load_s": load_s,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
    }
    Path(req["result"]).write_text(json.dumps(result), encoding="utf-8")
    return rc


def serve(channel) -> None:
    for line in sys.stdin:
        req = json.loads(line)
        channel.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            rc = 1
            try:
                for fd, name in ((1, "stdout"), (2, "stderr")):
                    target = os.open(req[name], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                    os.dup2(target, fd)
                    os.close(target)
                rc = measure(req)
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(rc if isinstance(rc, int) else 1)
        _, status = os.waitpid(pid, 0)
        channel.write(json.dumps({"status": os.waitstatus_to_exitcode(status)}) + "\n")
        channel.flush()


def main() -> int:
    (src,) = sys.argv[1:]
    sys.path.insert(0, src)
    import diffrec
    from diffrec import bigraph, cli, corpus, evalmetrics, harness, recommend, simkit  # noqa: F401

    if Path(diffrec.__file__).resolve().parent != (Path(src) / "diffrec").resolve():
        raise SystemExit(f"diffrec imported from {diffrec.__file__}, not from {src}")
    import tracer  # noqa: F401  (imported before forking, like diffrec)

    # The protocol gets its own descriptor; fd 1 is what the forked
    # invocations redirect.
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    channel.write("ready\n")
    channel.flush()
    serve(channel)
    return 0


if __name__ == "__main__":
    sys.exit(main())
