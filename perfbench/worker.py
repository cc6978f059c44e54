"""Runs one workload's task list in passes, in a fresh single-threaded
process, and writes every timing and output to a JSON file.

Usage: python3 worker.py PLAN RESULT

PLAN is a JSON file with ``argv`` (one list per task), ``probe`` (the
command line of one cold start), ``seconds`` and ``trace``. Each task
calls ``surfcount.cli.main(argv)`` with stdout and stderr captured.
Passes repeat until ``seconds`` have gone by; a pass is never cut short,
so every pass attempts the same tasks. One timed cold start runs before
every pass, so that cold starts sample the same stretch of time as the
passes do.

The reference loop runs at every task boundary with the garbage collector
paused, five times in a row; the median of the five is the boundary's
reference time, so one preempted repeat does not count. A task's
normalized time is its wall time divided by the mean of the reference
times just before and just after it, which cancels the machine's slow and
fast phases when they last longer than a task.

With ``trace`` set, untraced and traced passes alternate: the traced ones
record spans around every public function of the package (see
``tracing.py``), the untraced ones give the base for the overhead ratio.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

REF_REPEATS = 5
GRAPH = [(v, (v * 7 + 3) % 41) for v in range(41)] + [(v, (v + 1) % 41) for v in range(41)]


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the program's own: a recursive
    backtracking search over a small graph with sets, dicts and tuples."""
    adj: dict[int, set[int]] = {}
    for u, v in GRAPH:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    ends: dict[tuple[int, int], int] = {}

    def extend(path: tuple[int, ...], used: frozenset[int]) -> int:
        if len(path) == 5:
            key = (path[0], path[-1])
            ends[key] = ends.get(key, 0) + 1
            return 1
        return sum(extend(path + (w,), used | {w}) for w in adj[path[-1]] if w not in used)

    total = sum(extend((v,), frozenset((v,))) for v in sorted(adj))
    return total + len(ends)


def timed_reference() -> float:
    times = []
    gc.disable()
    try:
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def run_task(cli, argv: list[str]) -> tuple[float, str, str | None]:
    """(wall seconds, stdout, error or None). An error is an exception
    or a non-zero exit code, with the first line of stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
            error = None if code == 0 else f"exit {code}"
        except Exception as exc:  # a raising task is a failed task, not a crash
            error = f"raised {type(exc).__name__}"
        wall = time.perf_counter() - t0
    if error is not None:
        detail = (err.getvalue().strip().splitlines() or [""])[0]
        error = f"{error}: {detail}" if detail else error
    return wall, out.getvalue(), error


def cold_start(probe: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(probe, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def run_pass(cli, tasks: list[list[str]], first: list[str | None] | None) -> dict:
    walls, normalized, refs, errors, outputs = [], [], [], [], []
    gc.collect()
    before = timed_reference()
    refs.append(before)
    for argv in tasks:
        wall, out, error = run_task(cli, argv)
        gc.collect()
        after = timed_reference()
        refs.append(after)
        walls.append(wall)
        normalized.append(wall / ((before + after) / 2))
        before = after
        errors.append(error)
        outputs.append(out if error is None else None)
    record = {"walls": walls, "normalized": normalized, "refs": refs, "errors": errors}
    if first is None:
        record["outputs"] = outputs
    else:
        # later passes must reproduce the first pass's (checked) output
        record["same"] = [o == f for o, f in zip(outputs, first)]
    return record


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import surfcount.cli as cli

    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
    passes = []
    first = None
    cold_start(plan["probe"])  # untimed: leaves the byte-code caches written
    start = time.perf_counter()
    # a traced run needs one untraced and one traced pass at least
    least = 2 if tracer is not None else 1
    while len(passes) < least or time.perf_counter() - start < plan["seconds"]:
        traced = tracer is not None and len(passes) % 2 == 1
        probe_s = cold_start(plan["probe"])
        if traced:
            tracer.install()
        try:
            record = run_pass(cli, plan["argv"], first)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        record["probe_s"] = probe_s
        if first is None:
            first = record["outputs"]
        passes.append(record)
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
