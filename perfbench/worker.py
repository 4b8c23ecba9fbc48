"""One workload in one fresh process: set up, run timed rounds, check outputs.

Started by ``run.py`` with BLAS pinned to one thread.  Prints one JSON object
on stdout.  With ``--setup-only`` it stops at the point where the first timed
task would start and reports only the set-up time.

Timed phase: rounds run back to back for ``1 / passes`` of ``--seconds`` (at
least one round), then the same rounds run again until each has run
``passes`` times (the workload sets it), so a run takes about ``--seconds``.
Every repeat of a task must reproduce its work counters and outputs exactly.
A task's time is the fastest of its executions: the work is identical, so
the slower ones measured only the noise of a shared machine.  With
``--trace 1`` the last pass runs under the tracer instead; it supplies the
per-layer metrics, and its extra wall time per round over the fastest
untraced pass is the tracing overhead.

End-to-end metrics: ``wall_s`` and ``cpu_s`` are per-round sums of task
times, averaged over the middle half of the rounds; ``task_p50_s`` and the
tail are over all tasks; ``setup_s`` runs from spawn to the first timed task.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import densecode  # noqa: E402,F401
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@dataclass
class Execution:
    round: int
    task: wl.Task
    wall_s: float
    cpu_s: float
    result: object = None
    error: str | None = None


def cpu_now(children: bool) -> float:
    t = time.process_time()
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += usage.ru_utime + usage.ru_stime
    return t


def run_round(r: int, tasks: list[wl.Task], children: bool, recorder=None):
    """Run one round back to back; returns (executions, wall, per-task call counts)."""
    execs, calls = [], []
    start = time.perf_counter()
    for task in tasks:
        before = dict(recorder.calls) if recorder is not None else None
        t0, c0 = time.perf_counter(), cpu_now(children)
        result, error = None, None
        try:
            result = task.call()
        except Exception as exc:  # a raising task is a failed task, reported below
            error = f"{type(exc).__name__}: {exc}"
        execs.append(Execution(r, task, time.perf_counter() - t0, cpu_now(children) - c0,
                               result, error))
        if recorder is not None:
            calls.append({
                name: recorder.calls.get(name, 0) - before.get(name, 0)
                for name in spans.CALLBACK_SPANS
            })
    return execs, time.perf_counter() - start, calls


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: averages over round contents, drops spikes."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k: len(ordered) - k])


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten tasks beyond it."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "tasks": n}


def check_all(execs: list[Execution]) -> tuple[list[dict], list[dict], list[dict | None]]:
    failures, shortfalls, works = [], [], []
    for e in execs:
        work, reason = None, e.error
        if reason is None:
            try:
                try:
                    e.task.check(e.result)
                except wl.Shortfall as exc:
                    shortfalls.append({"round": e.round, "task": e.task.kind, "note": str(exc)})
                work = e.task.work(e.result)
            except wl.CheckFailed as exc:
                reason = f"check: {exc}"
            except Exception as exc:  # a check that crashes counts against the task
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"round": e.round, "task": e.task.kind, "reason": reason})
        works.append(work)
    return failures, shortfalls, works


def cli_runs(result) -> list:
    items = result if isinstance(result, tuple) else (result,)
    return [item for item in items if isinstance(item, wl.CliRun)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="wall clock at spawn")
    parser.add_argument("--root", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path(args.root)
    is_cli = args.workload == "cli"
    if is_cli:
        workload = wl.Cli(root, args.seed, Path(args.work_dir))
    else:
        workload = wl.WORKLOADS[args.workload](root, args.seed)
    rounds = [workload.make_round(0)]
    passes = workload.passes
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # First pass: fresh rounds for a share of the time, starting a round when
    # at least half of it should fit.  Requiring all of it would let one
    # costly early round cut the round count, and so weigh it more.
    deadline = time.perf_counter() + args.seconds / passes
    execs, walls = [], []
    while True:
        r = len(walls)
        if r == len(rounds):
            rounds.append(workload.make_round(r))
        found, wall, _ = run_round(r, rounds[r], is_cli)
        execs += found
        walls.append(wall)
        if time.perf_counter() + statistics.fmean(walls) / 2 > deadline:
            break
    rounds = rounds[: len(walls)]

    # Repeats: the same rounds again; with --trace 1 the last one is traced.
    recorder = spans.SpanRecorder() if args.trace else None
    repeats = []
    for p in range(1, passes):
        traced = recorder is not None and p == passes - 1
        found_all, pass_walls, pass_calls = [], [], []
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(spans.Tracer(recorder))
                if is_cli:
                    workload.ctx.traced = True
                    stack.callback(setattr, workload.ctx, "traced", False)
            for r, tasks in enumerate(rounds):
                found, wall, calls = run_round(r, tasks, is_cli, recorder if traced else None)
                found_all += found
                pass_walls.append(wall)
                pass_calls += calls
        repeats.append((found_all, pass_walls, pass_calls, traced))

    check_start = time.perf_counter()
    failures, shortfalls, works = check_all(execs)
    for p, (found, _, _, _) in enumerate(repeats, start=2):
        for a_work, b in zip(works, found):
            reason = b.error
            if reason is None and a_work is not None:
                try:
                    if b.task.work(b.result) != a_work:
                        reason = "work counters or outputs differ on a repeat"
                except Exception as exc:  # same rule as check_all
                    reason = f"work raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append({"round": b.round, "task": b.task.kind, "reason": reason,
                                 "pass": p})

    timed = [execs] + [found for found, _, _, traced in repeats if not traced]
    best = [min(e.wall_s for e in same) for same in zip(*timed)]
    best_cpu = [min(e.cpu_s for e in same) for same in zip(*timed)]
    round_walls = [0.0] * len(rounds)
    round_cpus = [0.0] * len(rounds)
    for e, t, c in zip(execs, best, best_cpu):
        round_walls[e.round] += t
        round_cpus[e.round] += c

    quality = {"certified_bits": [], "gate_error": []}
    atoms_per_round = [0] * len(rounds)
    for e, work in zip(execs, works):
        if work is None:
            continue
        q = e.task.quality(e.result)
        for key in quality:
            quality[key] += q.get(key, [])
        atoms_per_round[e.round] += q.get("net_atoms", 0)

    attempted = len(execs) * passes
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if is_cli:
        usage = max(usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "wall_s": interquartile_mean(round_walls),
        "task_p50_s": statistics.median(best),
        "task_tail_s": tail(best),
        "cpu_s": interquartile_mean(round_cpus),
        "peak_rss_mb": usage / 1024.0,
        "setup_s": setup_s,
        "failed_frac": len(failures) / attempted,
        "shortfalls": len(shortfalls),
        "certified_bits": (statistics.fmean(quality["certified_bits"])
                           if quality["certified_bits"] else None),
        "gate_error": statistics.fmean(quality["gate_error"]) if quality["gate_error"] else None,
        "net_atoms": statistics.fmean(atoms_per_round) if any(atoms_per_round) else None,
    }

    round0 = [dict(task=e.task.kind, **(w or {"failed": True}))
              for e, w in zip(execs, works) if e.round == 0]
    traced_pass = [item for item in repeats if item[3]]
    if traced_pass:
        for item, calls in zip(round0, traced_pass[0][2]):
            item.update(calls)
    work_json = json.dumps([{k: v for k, v in item.items() if not k.startswith("optimize.")}
                            for item in round0], sort_keys=True, default=str)
    doc = {
        "environment": environment(),
        "rounds": len(walls),
        "tasks_per_round": len(rounds[0]),
        "round_wall_s": round_walls,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "shortfalls": shortfalls,
        "check_s": time.perf_counter() - check_start,
        "metrics": metrics,
        "work_round0": round0,
        "task_median_s": {kind: statistics.median(t for e, t in zip(execs, best) if e.task.kind == kind)
                          for kind in sorted({e.task.kind for e in execs})},
        "work_digest": hashlib.sha256(work_json.encode()).hexdigest()[:16],
        "input_digest": wl.input_digest(rounds[0]),
    }

    if recorder is not None:
        found, traced_walls, _, _ = traced_pass[0]
        untraced_walls = [walls] + [w for _, w, _, traced in repeats if not traced]
        cli_wall = 0.0
        for e in found:
            for run in cli_runs(e.result):
                cli_wall += run.wall_s
                if run.spans is not None:
                    recorder.merge(run.spans)
        n = len(rounds)
        extra = {
            "bench.unattributed_s": (sum(traced_walls) - recorder.top_s) / n,
            "bench.trace_overhead_s": (sum(traced_walls) - min(map(sum, untraced_walls))) / n,
            "bench.shortfalls": len(shortfalls) / n,
        }
        if is_cli:
            extra["cli.process_s"] = (cli_wall - recorder.total_s.get("cli.main", 0.0)) / n
        doc["per_layer"] = spans.per_layer_metrics(recorder, n, extra)

    print(json.dumps(doc, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
