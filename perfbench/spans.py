"""Outside-in spans over the public functions of the densecode modules.

The tracer replaces module attributes with timing wrappers for the duration
of a ``with Tracer(recorder):`` block and puts the originals back on exit.
Only public names are wrapped, so private helpers stay free to change.  A
name imported into several densecode namespaces (``from .qmath import ...``
or the package re-exports) is replaced everywhere it is bound, so calls made
inside the library are seen as well as calls made from the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Public functions wrapped per module.  ``qmath.DensityMatrix`` stands for the
# construction-time validation in ``DensityMatrix.__post_init__``.
SPANS = {
    "optimize": [
        "stiefel_minimize",
        "min_local_output_entropy",
        "optimize_ensemble",
        "qr_retract",
        "tangent_project",
    ],
    "channels": [
        "random_isometry",
        "random_unitary",
        "undilate",
        "compose",
        "tensor_channels",
        "apply",
        "apply_local",
    ],
    "qmath": [
        "DensityMatrix",
        "entropy_of_spectrum",
        "von_neumann_entropy",
        "trace_norm",
        "partial_trace",
        "merge_factors",
    ],
    "capacity": [
        "dc_capacity",
        "dc_capacity_block",
        "dc_capacity_multicopy",
        "additivity_gap",
        "noisy_dc_capacity",
        "dc_mutual_information",
    ],
    "pqg": [
        "net_gate",
        "net_gate_around",
        "program_for_target",
        "optimize_mixture_weights",
        "approximation_error",
        "estimate_sup_error",
        "unitary_map_distance",
        "control_gate",
        "induced_map",
        "scalability_witness",
        "emulate_encoding",
        "program_orthogonality_check",
    ],
    "serialize": ["load_state", "load_channel", "load_gate"],
    "cli": ["main"],
}

# The fun and grad callables handed to stiefel_minimize.
CALLBACK_SPANS = ["optimize.objective", "optimize.gradient"]

# Entry points additionally report inclusive time (outermost activation only).
ENTRY_SPANS = [f"capacity.{name}" for name in SPANS["capacity"]] + [
    "pqg.net_gate",
    "pqg.net_gate_around",
    "pqg.scalability_witness",
    "pqg.emulate_encoding",
    "cli.main",
]

COUNTERS = {
    "optimize.iterations": ("count", "lower"),
    "optimize.restarts_run": ("count", "lower"),
    "optimize.restarts_skipped": ("count", "higher"),
    "optimize.evals_per_iteration": ("evals/iter", "lower"),
    "import.densecode_s": ("s", "lower"),
    "import.scipy_optimize_s": ("s", "lower"),
    "cli.process_s": ("s", "lower"),
    "bench.unattributed_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
    "bench.shortfalls": ("count", "lower"),
}


def span_names() -> list[str]:
    names = []
    for module, attrs in SPANS.items():
        names += [f"{module}.{attr}" for attr in attrs]
        if module == "optimize":
            names += CALLBACK_SPANS
    return names


def per_layer_spec() -> list[dict]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    spec = []
    for name in span_names():
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        if name in ENTRY_SPANS:
            spec.append({"name": f"{name}.total_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in COUNTERS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


class SpanRecorder:
    """Aggregated spans: calls, self time and outermost inclusive time per name.

    Self time is a span's duration minus the part covered by the spans it
    directly encloses.  Inclusive time counts only the outermost activation of
    a name, so recursion (``cli.main`` replaying ``cli.main``) is not counted
    twice.  Time of spans with no enclosing span accumulates in ``top_s``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._open[name] += 1
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._stack.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if self._open[name] == 0:
                    self.total_s[name] += duration
                if self._stack:
                    self._stack[-1][0] += duration
                else:
                    self.top_s += duration

        return traced

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counters": dict(self.counters),
            "top_s": self.top_s,
        }

    def merge(self, doc: dict) -> None:
        """Add the aggregates another recorder wrote with ``to_json``."""
        for key in ("calls", "self_s", "total_s", "counters"):
            target = getattr(self, key)
            for name, value in doc[key].items():
                target[name] += value
        self.top_s += doc["top_s"]


def _densecode_namespaces() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "densecode" or name.startswith("densecode."))
    ]


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: list[tuple[object, str, object]] = []

    def _stiefel(self, original):
        rec = self.recorder
        timed = rec.wrap("optimize.stiefel_minimize", original)

        @functools.wraps(original)
        def stiefel_minimize(fun, grad, *args, **kwargs):
            report = timed(
                rec.wrap("optimize.objective", fun),
                rec.wrap("optimize.gradient", grad),
                *args,
                **kwargs,
            )
            rec.counters["optimize.iterations"] += report.iterations
            rec.counters["optimize.restarts_run"] += len(report.restart_values)
            rec.counters["optimize.restarts_skipped"] += report.skipped_restarts
            return report

        return stiefel_minimize

    def __enter__(self) -> "Tracer":
        modules = {name: importlib.import_module(f"densecode.{name}") for name in SPANS}
        namespaces = _densecode_namespaces()
        try:
            for module_name, attrs in SPANS.items():
                module = modules[module_name]
                for attr in attrs:
                    name = f"{module_name}.{attr}"
                    if attr == "DensityMatrix":
                        cls = module.DensityMatrix
                        original = cls.__dict__["__post_init__"]
                        self._set(cls, "__post_init__", self.recorder.wrap(name, original), original)
                        continue
                    original = getattr(module, attr)
                    if name == "optimize.stiefel_minimize":
                        wrapper = self._stiefel(original)
                    else:
                        wrapper = self.recorder.wrap(name, original)
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is original:
                                self._set(namespace, key, wrapper, original)
        except BaseException:
            self.restore()
            raise
        return self

    def _set(self, owner, key, wrapper, original) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __exit__(self, *exc) -> None:
        self.restore()


def per_layer_metrics(recorder: SpanRecorder, rounds: int, extra: dict) -> dict:
    """Per-round averages of every span, plus the named counters.

    ``extra`` supplies the counters measured outside the recorder (import
    times, CLI process time, unattributed time, tracing overhead and the
    shortfalls per round the output checks listed).
    """
    rounds = max(1, rounds)
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = recorder.calls.get(name, 0) / rounds
        metrics[f"{name}.self_s"] = recorder.self_s.get(name, 0.0) / rounds
        if name in ENTRY_SPANS:
            metrics[f"{name}.total_s"] = recorder.total_s.get(name, 0.0) / rounds
    iterations = recorder.counters.get("optimize.iterations", 0.0)
    metrics["optimize.iterations"] = iterations / rounds
    metrics["optimize.restarts_run"] = recorder.counters.get("optimize.restarts_run", 0.0) / rounds
    metrics["optimize.restarts_skipped"] = (
        recorder.counters.get("optimize.restarts_skipped", 0.0) / rounds
    )
    objective_calls = recorder.calls.get("optimize.objective", 0)
    metrics["optimize.evals_per_iteration"] = objective_calls / iterations if iterations else 0.0
    for name in ("import.densecode_s", "import.scipy_optimize_s", "cli.process_s",
                 "bench.unattributed_s", "bench.trace_overhead_s", "bench.shortfalls"):
        metrics[name] = float(extra.get(name, 0.0))
    return metrics
