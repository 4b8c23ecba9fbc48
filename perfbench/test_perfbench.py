"""Tests of the benchmark itself: span arithmetic, restoration, seeding, smoke runs.

Run from the root of the repository:

    python -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from densecode import capacity as cap  # noqa: E402
from densecode import cli  # noqa: E402,F401  (its namespace takes part in the snapshot)
from densecode import optimize as opt  # noqa: E402
from densecode import qmath  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)
    leaf = rec.wrap("m.leaf", lambda: clock.advance(2.0))

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    mid = rec.wrap("m.mid", mid_body)

    def outer_body():
        clock.advance(3.0)
        mid()

    outer = rec.wrap("m.outer", outer_body)
    outer()
    clock.advance(10.0)  # between top-level spans: unattributed
    leaf()

    assert dict(rec.calls) == {"m.leaf": 3, "m.mid": 1, "m.outer": 1}
    assert rec.self_s["m.leaf"] == 6.0
    assert rec.self_s["m.mid"] == 1.5
    assert rec.self_s["m.outer"] == 3.0
    assert rec.total_s["m.outer"] == 8.5
    assert rec.total_s["m.mid"] == 5.5
    assert rec.top_s == 10.5
    assert sum(rec.self_s.values()) == rec.top_s


def test_recursion_counts_inclusive_time_once_and_errors_close_spans():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)

    def body(n):
        clock.advance(1.0)
        if n:
            traced(n - 1)
        else:
            raise ValueError("bottom")

    traced = rec.wrap("m.f", body)
    with pytest.raises(ValueError):
        traced(2)
    assert rec.calls["m.f"] == 3
    assert rec.self_s["m.f"] == 3.0
    assert rec.total_s["m.f"] == 3.0
    assert rec.top_s == 3.0


def test_merge_adds_aggregates():
    clock = FakeClock()
    a, b = spans.SpanRecorder(clock), spans.SpanRecorder(clock)
    a.wrap("m.g", lambda: clock.advance(1.0))()
    b.wrap("m.g", lambda: clock.advance(2.0))()
    b.counters["optimize.iterations"] += 4
    a.merge(json.loads(json.dumps(b.to_json())))
    assert a.calls["m.g"] == 2 and a.self_s["m.g"] == 3.0 and a.top_s == 3.0
    assert a.counters["optimize.iterations"] == 4


def _snapshot() -> dict:
    snap = {
        (ns.__name__, key): value
        for ns in spans._densecode_namespaces()
        for key, value in vars(ns).items()
    }
    snap[("DensityMatrix", "__post_init__")] = qmath.DensityMatrix.__dict__["__post_init__"]
    return snap


def test_traced_run_wraps_every_name_and_restores_every_attribute():
    before = _snapshot()
    rec = spans.SpanRecorder()
    with spans.Tracer(rec):
        during = _snapshot()
        for module, attrs in spans.SPANS.items():
            for attr in attrs:
                if attr == "DensityMatrix":
                    key = ("DensityMatrix", "__post_init__")
                else:
                    key = (f"densecode.{module}", attr)
                assert during[key] is not before[key], f"{module}.{attr} not wrapped"
        cap.dc_capacity(2, qmath.singlet().to_density(), opt.OptConfig(restarts=1, seed=0))
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert rec.calls["capacity.dc_capacity"] == 1
    assert rec.calls["optimize.objective"] > 0
    assert rec.calls["qmath.DensityMatrix"] > 0
    assert rec.counters["optimize.iterations"] > 0
    # Untraced again: a call records nothing.
    calls = dict(rec.calls)
    cap.dc_capacity(2, qmath.singlet().to_density(), opt.OptConfig(restarts=1, seed=0))
    assert dict(rec.calls) == calls


def test_seed_sets_the_generated_inputs(tmp_path):
    makers = {
        "capacity_small": lambda seed: wl.CapacitySmall(ROOT, seed),
        "capacity_joint": lambda seed: wl.CapacityJoint(ROOT, seed),
        "gates": lambda seed: wl.Gates(ROOT, seed),
        "cli": lambda seed: wl.Cli(ROOT, seed, tmp_path),
    }
    for name, make in makers.items():
        first = wl.input_digest(make(5).make_round(0))
        assert first == wl.input_digest(make(5).make_round(0)), name
        assert first != wl.input_digest(make(6).make_round(0)), name
        assert first != wl.input_digest(make(5).make_round(1)), name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert spec["per_layer"] == spans.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == bench.WORKLOADS
    assert spec["command"] == ["python3", "perfbench/run.py"]


def _run(*args) -> tuple[list[dict], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[:-1], lines[-1]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_all_four_workloads(trace):
    reports, result = _run("--seconds", "0", "--seed", "3", "--trace", str(trace))
    assert result["correct"] is True and result["failed"] == 0
    assert [r["workload"] for r in reports[1:]] == bench.WORKLOADS
    assert reports[0]["environment"]["blas_threads"] in (1, None)
    for name in bench.WORKLOADS:
        if trace:
            names = {m["name"] for m in spans.per_layer_spec()}
            got = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(name + ".")}
            assert got == names
        else:
            for metric, unit in bench.END_TO_END.items():
                entry = result["metrics"][f"{name}.{metric}"]
                assert entry["unit"] == unit and entry["value"] > 0


def test_work_counters_repeat_at_one_seed():
    digests = []
    for seed in ("7", "7", "8"):
        reports, result = _run("--workload", "capacity_joint", "--seconds", "0", "--seed", seed)
        assert result["correct"] is True
        digests.append((reports[1]["input_digest"], reports[1]["work_digest"]))
    assert digests[0] == digests[1]
    assert digests[0][0] != digests[2][0]


def test_empty_checkout_fails_without_a_result(tmp_path):
    for name in ("run.py", "worker.py", "workloads.py", "spans.py", "cli_boot.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gates", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_needs_ten_tasks_beyond():
    import worker

    assert worker.tail([1.0] * 10) is None
    times = list(np.arange(1.0, 31.0))
    got = worker.tail(times)
    assert got["value"] == 20.0 and got["tasks"] == 30
    assert sum(t > got["value"] for t in times) == 10
