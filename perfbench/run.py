"""Benchmark of the surfcount command line: one workload per run, or all
three in turn.

Usage:
    python3 perfbench/run.py [--workload count|triangulate|structure|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``. For each workload the benchmark writes seeded input files,
runs the task list in passes in a fresh worker process for ``--seconds``
seconds, with one timed cold start of the program before each pass, and
checks the first pass's outputs against independent references (later
passes must reproduce them). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every result is also appended to ``.perfbench_work/results.jsonl``; a
traced run writes its spans to ``.perfbench_work/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# a run must end within 180 s; the worker gets what is left of that
RUN_LIMIT_S = 170


def _spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _run_worker(directory: Path, tasks, seconds: int, trace: bool, deadline: float) -> dict:
    plan = directory / "plan.json"
    result = directory / "result.json"
    inputs = sorted(str(p) for p in (directory / "inputs").iterdir())
    plan.write_text(json.dumps({"argv": [t.argv for t in tasks],
                                "probe": [sys.executable, str(HERE / "probe.py"), *inputs],
                                "seconds": seconds, "trace": trace}))
    if result.exists():
        result.unlink()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan), str(result)],
                          env=_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(result.read_text())


def _score(tasks, passes) -> tuple[int, int, int, dict[str, str]]:
    """(attempted, failed, wrong, first failure message by task). A task
    fails when it raises, exits non-zero, fails its check or differs
    from the first pass; the last two also count as wrong."""
    first = passes[0]["outputs"]
    by_name = {t.name: out for t, out in zip(tasks, first)}
    verdict: dict[int, str] = {}
    for i, task in enumerate(tasks):
        if first[i] is None:
            continue
        try:
            task.check(first[i], by_name)
        except workloads.CheckFailed as exc:
            verdict[i] = f"wrong output: {exc}"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            verdict[i] = f"unreadable output: {type(exc).__name__}: {exc}"
    attempted = failed = wrong = 0
    failures: dict[str, str] = {}
    for record in passes:
        for i, task in enumerate(tasks):
            attempted += 1
            error = record["errors"][i]
            if error is None:
                if not record.get("same", [True] * len(tasks))[i]:
                    error = "output differs from the first pass"
                else:
                    error = verdict.get(i)
                wrong += error is not None
            if error is not None:
                failed += 1
                failures.setdefault(task.name, error)
    return attempted, failed, wrong, failures


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _wall_pass_s(passes) -> float:
    """Mean raw pass time. A mean, because a run spans several of the
    machine's speed phases and a median would jump between them."""
    return statistics.fmean(sum(p["walls"]) for p in passes)


def _end_to_end(result: dict) -> dict:
    passes = result["passes"]
    return {
        "setup_s": _metric(statistics.fmean(p["probe_s"] for p in passes), "s"),
        "pass_ref": _metric(statistics.median([sum(p["normalized"]) for p in passes]), "ref"),
        "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024, "MB"),
    }


def _per_layer(result: dict) -> dict:
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    traced_s = sum(sum(p["walls"]) for p in traced)
    values = tracing.layer_metrics(result["spans"], traced_s, len(traced))
    values["trace.pass_s"] = traced_s / len(traced)
    values["wall.pass_s"] = _wall_pass_s(plain)
    values["trace.overhead"] = (statistics.median([sum(p["normalized"]) for p in traced])
                                / statistics.median([sum(p["normalized"]) for p in plain]))
    refs = [r for p in passes for r in p["refs"]]
    values["ref.median_ms"] = 1000 * statistics.median(refs)
    values["ref.spread"] = _spread(refs)
    units = {"calls": "count", "self_s": "s", "share": "ratio", "vertices": "count",
             "planarity_calls": "count", "states": "count", "coverage": "ratio",
             "pass_s": "s", "overhead": "ratio", "median_ms": "ms", "spread": "ratio"}
    return {name: _metric(v, units[name.rsplit(".", 1)[1]]) for name, v in values.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    directory = WORK / f"{name}-{seed}"
    tasks = workloads.build(name, seed, directory / "inputs")
    result = _run_worker(directory, tasks, seconds, trace, deadline)
    attempted, failed, wrong, failures = _score(tasks, result["passes"])
    for task_name, message in failures.items():
        print(f"{name}: task {task_name} failed: {message}")
    metrics = _per_layer(result) if trace else _end_to_end(result)
    record = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a") as log:
        log.write(json.dumps({
            "sha": _git_sha(), "python": platform.python_version(), "workload": name,
            "seed": seed, "seconds": seconds, "trace": trace, "passes": len(result["passes"]),
            "wall_pass_s": _wall_pass_s(result["passes"]), "failures": failures,
            **record}) + "\n")
    if trace:
        (WORK / f"trace-{name}-{seed}.json").write_text(json.dumps(result["spans"]))
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "surfcount" / "cli.py").is_file():
        print(f"error: no surfcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        try:
            records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, workloads.CheckFailed) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(f"{name}: {json.dumps(records[name])}")
    if len(names) == 1:
        print(json.dumps(records[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}.{k}": v for w, r in records.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
