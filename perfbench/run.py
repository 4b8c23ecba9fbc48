"""densecode benchmark: four closed-loop workloads, each checked for correctness.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  Each workload runs in a
fresh worker process with OpenBLAS, OpenMP and MKL pinned to one thread; the
seed fixes every generated input and every ``seed=`` argument the library
receives.  Set-up time is sampled in several fresh processes and reported as
the median, and ``python -X importtime -c "import densecode"`` runs once per
workload, outside the timed phase.

Output: one line with the environment record, one report line per workload
with every end-to-end metric (name, value, unit), the failures and the work
counters of round 0, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer metrics (per-round averages from the traced repeat of the rounds).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ["capacity_small", "capacity_joint", "gates", "cli"]

# End-to-end metrics the last line carries (every workload reports them).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Reported on the workload's report line only.  The quality metrics and the
# failure share are zero or do not apply on some workloads; the per-task
# median and tail fall between task kinds of different cost in mixed rounds,
# so they jump from seed to seed by more than any usable bound.
REPORT_ONLY = {
    "task_p50_s": "s",
    "task_tail_s": "s",
    "failed_frac": "1",
    "shortfalls": "count",
    "certified_bits": "bit",
    "gate_error": "trace-distance",
    "net_atoms": "count",
}

# Fresh processes that measure set-up time besides the worker that runs,
# half of them before it and half after, so that one slow stretch of a shared
# machine cannot move the median.
SETUP_SAMPLES = 8
# The worker runs its passes (about --seconds) and then its output checks.
WORKER_MARGIN_S = 100
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ, **BLAS_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(argv: list[str], env: dict, timeout: float) -> dict:
    t0 = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv, "--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The CLI processes a worker starts share its session: stop them too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def import_breakdown(env: dict) -> dict:
    """Cumulative import times of densecode and scipy.optimize, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import densecode"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import densecode failed:\n{proc.stderr[-2000:]}")
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if name in ("densecode", "scipy.optimize") and name not in found:
                found[name] = int(parts[1]) / 1e6
    return {
        "import.densecode_s": found.get("densecode", 0.0),
        "import.scipy_optimize_s": found.get("scipy.optimize", 0.0),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = worker_env()
    work_dir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--root", str(ROOT),
              "--work-dir", str(work_dir)]

    def setup_samples(n: int) -> list[float]:
        return [spawn_worker(common + ["--seconds", "0", "--setup-only"], env, 60)["setup_s"]
                for _ in range(n)]

    try:
        setup = setup_samples(SETUP_SAMPLES // 2)
        imports = import_breakdown(env)
        doc = spawn_worker(common + ["--seconds", str(seconds), "--trace", str(trace)], env,
                           2 * seconds + WORKER_MARGIN_S)
        setup += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    setup.append(doc["metrics"]["setup_s"])
    doc["metrics"]["setup_s"] = statistics.median(setup)
    doc["setup_samples_s"] = setup
    doc["imports"] = imports
    if "per_layer" in doc:
        doc["per_layer"].update(imports)
    return doc


def report_line(name: str, doc: dict) -> dict:
    metrics = {}
    for metric, unit in {**END_TO_END, **REPORT_ONLY}.items():
        value = doc["metrics"].get(metric)
        if metric == "task_tail_s" and value is not None:
            metrics[metric] = dict(value, unit=unit)
        elif value is not None:
            metrics[metric] = {"value": value, "unit": unit}
    return {
        "workload": name,
        "metrics": metrics,
        "rounds": doc["rounds"],
        "round_wall_s": doc["round_wall_s"],
        "tasks_per_round": doc["tasks_per_round"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "failures": doc["failures"],
        "shortfalls": doc["shortfalls"],
        "check_s": doc["check_s"],
        "setup_samples_s": doc["setup_samples_s"],
        "imports": doc["imports"],
        "input_digest": doc["input_digest"],
        "work_digest": doc["work_digest"],
        "work_round0": doc["work_round0"],
        "task_median_s": doc["task_median_s"],
    }


def result_metrics(doc: dict, trace: int) -> dict:
    if trace:
        units = {m["name"]: m["unit"] for m in spans.per_layer_spec()}
        return {k: {"value": doc["per_layer"][k], "unit": u} for k, u in units.items()}
    return {k: {"value": doc["metrics"][k], "unit": u} for k, u in END_TO_END.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "densecode" / "__init__.py").is_file():
        sys.stderr.write(f"error: no densecode sources under {ROOT / 'src'}\n")
        return 2

    load_1min = os.getloadavg()[0]
    names = [args.workload] if args.workload else WORKLOADS
    docs = {}
    try:
        for name in names:
            docs[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    environment = dict(docs[names[0]]["environment"], load_1min_at_start=load_1min,
                       seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"environment": environment}))
    for name, doc in docs.items():
        print(json.dumps(report_line(name, doc)))

    attempted = sum(doc["attempted"] for doc in docs.values())
    failed = sum(doc["failed"] for doc in docs.values())
    if len(docs) == 1:
        metrics = result_metrics(docs[names[0]], args.trace)
    else:
        metrics = {f"{name}.{k}": v for name, doc in docs.items()
                   for k, v in result_metrics(doc, args.trace).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
