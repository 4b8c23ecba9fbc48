"""The four benchmark workloads: seeded task rounds and their output checks.

Every workload is a closed loop with one client: rounds of tasks run back to
back, and round ``r`` is generated from ``(seed, r)`` alone, so the same seed
always yields the same inputs.  A round holds one task of each kind in the
workload's mix, in an order drawn from the seed.  The library is called only
through module attributes (``cap.dc_capacity``, never a name imported from
it), so the tracer's wrappers see every call the benchmark makes.

Every round runs ``passes`` times and a task's time is the fastest of its
executions.  Three passes let that fastest execution miss the slow stretches
of a shared machine, which last a few seconds; where the cost of a round
varies with its inputs (SLSQP and capped-descent backtracking in
capacity_joint and gates, rounds of about two seconds), two passes leave room
for more distinct rounds in the same time, which steadies the mean more.

Checks run outside the timed region.  A task fails when it raises, returns a
non-finite value, or fails its check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from densecode import capacity as cap
from densecode import channels as ch
from densecode import optimize as opt
from densecode import pqg
from densecode import qmath
from densecode import serialize as ser

# Tolerances: analytic values as in the acceptance criteria, exact identities
# (bracket ends, second-route recomputation, superadditivity seeding) tighter.
TOL_ANALYTIC = 1e-3
TOL_EXACT = 1e-6
TOL_RECOMPUTE = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
PAULI_GATE_UNITS = [np.eye(2, dtype=complex), PAULI_X, PAULI_X @ PAULI_Z, PAULI_Z]


class CheckFailed(Exception):
    """An output that is wrong, not merely slow."""


class Shortfall(Exception):
    """A valid output that misses an expectation the library does not promise.

    Raised only after every hard check passed; the task counts as correct and
    the shortfall is listed in the report.
    """


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_finite(value: float, label: str) -> None:
    expect(isinstance(value, (int, float)) and math.isfinite(value), f"{label} is not finite: {value!r}")


@dataclass
class Task:
    """One library call (or CLI process) with the checks of its output.

    ``work`` extracts the counters that must repeat exactly at one seed;
    ``quality`` extracts certified bits, gate errors and net sizes.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    work: Callable[[object], dict]
    quality: Callable[[object], dict] = field(default=lambda result: {})
    inputs: tuple = ()


def input_digest(tasks: list[Task]) -> str:
    """Hash of every generated input of a round, in task order."""
    digest = hashlib.sha256()

    def feed(item):
        if isinstance(item, qmath.DensityMatrix):
            feed(item.dims)
            feed(item.entries)
        elif isinstance(item, ch.QuantumChannel):
            feed(item.kraus)
        elif isinstance(item, np.ndarray):
            digest.update(np.ascontiguousarray(item).tobytes())
        elif isinstance(item, (list, tuple)):
            for sub in item:
                feed(sub)
        else:
            digest.update(repr(item).encode())

    for task in tasks:
        feed(task.kind)
        feed(task.inputs)
    return digest.hexdigest()[:16]


def _task_seeds(seed: int, r: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, r])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _shuffled(tasks: list[Task], seed: int, r: int) -> list[Task]:
    order = np.random.default_rng([seed, r, 1]).permutation(len(tasks))
    return [tasks[i] for i in order]


# ---------------------------------------------------------------------------
# Capacity checks shared by both capacity workloads
# ---------------------------------------------------------------------------


def _receiver_entropy(rho: qmath.DensityMatrix, a_factors) -> float:
    keep = {i for i in range(rho.n_factors) if i not in set(a_factors)}
    return qmath.von_neumann_entropy(qmath.partial_trace(rho, keep))


def _second_route(result, rho, d, a_factors) -> float:
    """Certified value again: undilate -> Weyl ensemble -> mutual information."""
    t_star = ch.undilate(result.report.isometry)
    mu = cap.capacity_achieving_ensemble(rho, d, t_star, a_factors)
    return cap.dc_mutual_information(mu, rho, a_factors=a_factors)


def check_certified(result, rho, d, a_factors=(0,), copies=1, label="capacity") -> None:
    """Bracket log2 d <= DC <= log2 d + H(B) per copy, and the second route.

    ``copies`` > 1 means ``result`` is a per-copy block value on ``rho``'s
    ``copies``-fold tensor power with channel dimension ``d**copies``.
    """
    value = result.value
    expect_finite(value, label)
    joint, joint_a = rho, list(a_factors)
    for c in range(1, copies):
        joint = qmath.tensor(joint, rho)
        joint_a += [f + c * rho.n_factors for f in a_factors]
    h_b = _receiver_entropy(joint, joint_a) / copies
    log_d = math.log2(d)
    expect(value >= log_d - TOL_EXACT, f"{label} {value} below log2 d = {log_d}")
    expect(value <= log_d + h_b + TOL_EXACT, f"{label} {value} above log2 d + H(B) = {log_d + h_b}")
    again = _second_route(result, joint, d**copies, joint_a) / copies
    expect(
        abs(again - value) <= TOL_RECOMPUTE,
        f"{label} {value} but the undilated Weyl ensemble certifies {again}",
    )


def opt_work(report) -> dict:
    return {
        "iterations": int(report.iterations),
        "restarts_run": len(report.restart_values),
        "restarts_skipped": int(report.skipped_restarts),
        "best_restart": int(report.best_restart),
    }


def capacity_work(result) -> dict:
    return dict(opt_work(result.report), value=float(result.value))


def capacity_quality(result) -> dict:
    return {"certified_bits": [float(result.value)]}


# ---------------------------------------------------------------------------
# capacity_small
# ---------------------------------------------------------------------------

SMALL_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
# Capped descents and fixed ranks keep the cost of a round nearly the same
# from seed to seed, so that the seed changes the inputs and not the load.
SMALL_RESTARTS = 4
SMALL_MAX_ITERATIONS = 60
NOISY_ENSEMBLE = 4
NOISY_SWEEPS = 3
NOISY_RANK = 2


class CapacitySmall:
    """Many single-copy problems whose kernels are tiny.

    Per-call overhead dominates here: the Python descent loop, QR retraction,
    backtracking and validation.  Rank-1 and separable inputs stop at the
    analytic floor.  A round is 12 seeded random states (ranks 1, full // 2
    and full on each of four shapes), the Bell state, Phi_3,
    one pure-theta state, one random separable state and two noisy ensembles.
    """

    passes = 3

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def make_round(self, r: int) -> list[Task]:
        seeds = iter(_task_seeds(self.seed, r, 64))
        rng = np.random.default_rng(next(seeds))
        tasks = []
        for dims in SMALL_DIMS:
            full = dims[0] * dims[1]
            for rank in (1, full // 2, full):
                rho = ch.random_state(dims, rank, next(seeds))
                tasks.append(self._random(rho, dims[0], next(seeds), f"random{dims}r{rank}"))

        bell = qmath.singlet().to_density()
        tasks.append(self._analytic("bell", bell, 2, 2.0, next(seeds)))
        phi3 = qmath.maximally_entangled(3).to_density()
        tasks.append(self._analytic("phi3", phi3, 3, 2.0 * math.log2(3.0), next(seeds)))
        theta = float(rng.uniform(0.05, math.pi / 4 - 0.05))
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = math.cos(theta), math.sin(theta)
        pure = qmath.PureState((2, 2), amps).to_density()
        expected = 1.0 + qmath.binary_entropy(math.cos(theta) ** 2)
        tasks.append(self._analytic("pure_theta", pure, 2, expected, next(seeds)))
        sep = cap.random_separable((2, 2), n_terms=10, seed=next(seeds))
        tasks.append(self._analytic("separable", sep, 2, 1.0, next(seeds)))

        for _ in range(2):
            phi = ch.random_channel(2, 2, 2, next(seeds))
            rho = ch.random_state((2, 2), NOISY_RANK, next(seeds))
            tasks.append(self._noisy(phi, rho, next(seeds)))
        return _shuffled(tasks, self.seed, r)

    @staticmethod
    def _cfg(seed: int) -> opt.OptConfig:
        return opt.OptConfig(restarts=SMALL_RESTARTS, max_iterations=SMALL_MAX_ITERATIONS, seed=seed)

    def _random(self, rho, d, seed, label) -> Task:
        cfg = self._cfg(seed)

        def check(result):
            check_certified(result, rho, d, label=label)
            # The embedding probe is always seeded when d >= d_A.
            probe = math.log2(d) + _receiver_entropy(rho, (0,)) - qmath.von_neumann_entropy(rho)
            expect(result.value >= probe - TOL_EXACT, f"{label} {result.value} below its probe {probe}")

        return Task(label, lambda: cap.dc_capacity(d, rho, cfg), check, capacity_work,
                    capacity_quality, (rho, d, seed))

    def _analytic(self, label, rho, d, expected, seed) -> Task:
        cfg = self._cfg(seed)

        def check(result):
            check_certified(result, rho, d, label=label)
            expect(
                abs(result.value - expected) <= TOL_ANALYTIC,
                f"{label} {result.value} differs from the analytic {expected}",
            )

        return Task(label, lambda: cap.dc_capacity(d, rho, cfg), check, capacity_work,
                    capacity_quality, (rho, d, seed))

    def _noisy(self, phi, rho, seed) -> Task:
        cfg = opt.OptConfig(restarts=SMALL_RESTARTS, max_iterations=SMALL_MAX_ITERATIONS,
                            seed=seed, ensemble_sweeps=NOISY_SWEEPS)

        def check(result):
            expect_finite(result.value, "noisy")
            ceiling = math.log2(phi.d_out) + _receiver_entropy(rho, (0,))
            expect(-TOL_EXACT <= result.value <= ceiling + TOL_EXACT,
                   f"noisy {result.value} outside [0, {ceiling}]")
            again = cap.dc_mutual_information(result.metadata["ensemble"], rho, phi)
            expect(abs(again - result.value) <= TOL_RECOMPUTE,
                   f"noisy {result.value} but its ensemble certifies {again}")

        def work(result):
            return {
                "sweeps": len(result.report.history) - 1,
                "converged": bool(result.report.converged),
                "value": float(result.value),
            }

        return Task(
            "noisy",
            lambda: cap.noisy_dc_capacity(phi, rho, NOISY_ENSEMBLE, cfg),
            check,
            work,
            capacity_quality,
            (phi, rho, seed),
        )


# ---------------------------------------------------------------------------
# capacity_joint
# ---------------------------------------------------------------------------

# One restart and a capped descent keep the cost of a round nearly the same
# from seed to seed: uncapped, these descents run 75-520 iterations and take
# 0.5-8.5 s a task.  The random restart of each task stops at the cap, so an
# optimizer that needs fewer iterations shows on capacity_small, whose
# restarts often end before theirs.  Here the contractions of the objective
# and gradient (d_env and d_rest in the tens) are about 90 % of a round.
JOINT_RESTARTS = 1
JOINT_MAX_ITERATIONS = 40


class CapacityJoint:
    """Block, multicopy and additivity problems on joint states.

    A round is dc_capacity_block(2, 3) on a rank-3 (3,2) state,
    dc_capacity_block(2, 2) on a rank-3 (2,3) state, dc_capacity_multicopy(2, 3)
    on a rank-3 (3,3) state, additivity_gap on a (2,2) x (3,3) pair and the
    |00> with double-singlet superadditivity showcase.
    """

    passes = 2

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        fixtures = root / "src" / "densecode" / "fixtures"
        self.product = ser.load_state(fixtures / "product.json")
        self.double_singlet = ser.load_state(fixtures / "double-singlet.json")

    def make_round(self, r: int) -> list[Task]:
        seeds = iter(_task_seeds(self.seed, r, 16))

        def cfg():
            return opt.OptConfig(
                restarts=JOINT_RESTARTS, max_iterations=JOINT_MAX_ITERATIONS, seed=next(seeds)
            )

        tasks = [
            self._block(3, ch.random_state((3, 2), 3, next(seeds)), cfg()),
            self._block(2, ch.random_state((2, 3), 3, next(seeds)), cfg()),
            self._multicopy(ch.random_state((3, 3), 3, next(seeds)), cfg()),
            self._gap(
                ch.random_state((2, 2), 2, next(seeds)),
                ch.random_state((3, 3), 3, next(seeds)),
                cfg(),
            ),
            self._showcase(opt.OptConfig(restarts=8, seed=next(seeds))),
        ]
        return _shuffled(tasks, self.seed, r)

    def _block(self, d, rho, cfg) -> Task:
        label = f"block2_d{d}"

        def check(result):
            check_certified(result, rho, d, copies=2, label=label)
            single = result.metadata["single_copy_value"]
            expect(result.value >= single - TOL_EXACT,
                   f"{label} per copy {result.value} below single copy {single}")

        return Task(label, lambda: cap.dc_capacity_block(2, d, rho, cfg), check,
                    capacity_work, capacity_quality, (rho, d, cfg.seed))

    def _multicopy(self, rho, cfg) -> Task:
        d = 3
        joint = qmath.tensor(rho, rho)

        def check(result):
            expect_finite(result.value, "multicopy")
            log_d = math.log2(d)
            h_b = _receiver_entropy(joint, (0, 2))
            expect(log_d - TOL_EXACT <= result.value <= log_d + h_b + TOL_EXACT,
                   f"multicopy {result.value} outside [{log_d}, {log_d + h_b}]")
            again = _second_route(result, joint, d, (0, 2))
            expect(abs(again - result.value) <= TOL_RECOMPUTE,
                   f"multicopy {result.value} but the second route certifies {again}")
            # Unlike dc_capacity_block, dc_capacity_multicopy seeds no product
            # of single-copy optimizers, so it can certify less than one copy.
            # The reference is a single-copy run under the capacity_small
            # settings, which are stronger than the capped joint descent.
            single = cap.dc_capacity(d, rho, CapacitySmall._cfg(result.metadata["seed"]))
            if result.value < single.value - TOL_EXACT:
                raise Shortfall(f"multicopy {result.value} below single copy {single.value}")

        return Task("multicopy2_d3", lambda: cap.dc_capacity_multicopy(2, d, rho, cfg), check,
                    capacity_work, capacity_quality, (rho, d, cfg.seed))

    def _gap(self, rho, sigma, cfg) -> Task:
        def check(result):
            expect_finite(result.gap, "gap")
            expect(result.gap >= -TOL_EXACT, f"additivity gap {result.gap} below -{TOL_EXACT}")
            check_certified(result.parts[0], rho, 2, label="gap part 1")
            check_certified(result.parts[1], sigma, 3, label="gap part 2")
            check_certified(result.joint, qmath.tensor(rho, sigma), 6, (0, 2), label="gap joint")

        return Task("additivity_gap", lambda: cap.additivity_gap(rho, 2, sigma, 3, cfg), check,
                    gap_work, gap_quality, (rho, sigma, cfg.seed))

    def _showcase(self, cfg) -> Task:
        rho, sigma = self.product, self.double_singlet

        def check(result):
            for got, want, label in (
                (result.parts[0].value, 1.0, "part 1"),
                (result.parts[1].value, 2.0, "part 2"),
                (result.joint.value, 4.0, "joint"),
                (result.gap, 1.0, "gap"),
            ):
                expect(abs(got - want) <= 5e-3, f"showcase {label} {got} differs from {want}")

        return Task(
            "showcase",
            lambda: cap.additivity_gap(rho, 2, sigma, 2, cfg, rho_a=(0,), sigma_a=(0, 2)),
            check,
            gap_work,
            gap_quality,
            (rho, sigma, cfg.seed),
        )


def gap_work(result) -> dict:
    work = {"gap": float(result.gap)}
    for label, part in (("joint", result.joint), ("part1", result.parts[0]),
                        ("part2", result.parts[1])):
        work.update({f"{label}.{k}": v for k, v in capacity_work(part).items()})
    return work


def gap_quality(result) -> dict:
    return {"certified_bits": [float(result.joint.value)]}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

# Sizes keep a round near two seconds, so that a run holds several rounds,
# while the layers this workload is for still lead its profile.
# net_gate(0.3) certifies its 103-atom Euler grid on 6 Haar targets (the
# library default is 100): 6 mixture-weight solves.  The 60-atom witness gates
# give 3600 enumerated pairs, where pair errors and Frank-Wolfe (self time of
# scalability_witness) outweigh the sup estimate.  8 inputs and 50 sup samples
# (defaults 24 and 200) make a witness cheaper at the same pair count, and 10
# Frank-Wolfe steps (default 80) fix its cost: uncapped, the step count varies
# threefold with the atoms.
NET_EPSILON = 0.3
NET_TARGETS = 6
WITNESS_ATOMS = 60
WITNESS_INPUTS = 8
WITNESS_SUP_SAMPLES = 50
WITNESS_FW_ITERATIONS = 10
EMULATION_EPSILON = 0.1
EMULATION_SAMPLES = 20
EMULATION_ATOMS = 10
EMULATION_DECOYS = 2
ORTHOGONALITY_BATCH = 20


class Gates:
    """Programmable-gate side: calibration, witnesses, emulation, dichotomy.

    The mixture-weight solve and the trace-distance kernels do the work here
    and ``optimize`` does none.  Witness inputs are gates the benchmark builds
    from seeded random atoms (and the Pauli gate), never net output, so that
    a change in calibration cannot change what the witness sees.
    """

    passes = 2

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def make_round(self, r: int) -> list[Task]:
        seeds = iter(_task_seeds(self.seed, r, 16))
        tasks = [self._net(next(seeds))]
        rng = np.random.default_rng(next(seeds))
        atoms1 = [ch.random_unitary(2, rng) for _ in range(WITNESS_ATOMS)]
        atoms2 = [ch.random_unitary(2, rng) for _ in range(WITNESS_ATOMS)]
        product = np.kron(PAULI_X, PAULI_Z)
        tasks.append(self._witness("witness_random_product", atoms1, atoms2, product,
                                   self._witness_cfg(next(seeds))))
        tasks.append(self._witness("witness_random_cnot", atoms1, atoms2, CNOT,
                                   self._witness_cfg(next(seeds)), floor=0.1))
        # X (x) Z is the block pair (X, Z) of the Pauli gate, so it is reached exactly.
        tasks.append(self._witness("witness_pauli_product", PAULI_GATE_UNITS, PAULI_GATE_UNITS,
                                   product, pqg.WitnessConfig(seed=next(seeds)), ceiling=TOL_EXACT))
        tasks.append(self._witness("witness_pauli_cnot", PAULI_GATE_UNITS, PAULI_GATE_UNITS, CNOT,
                                   pqg.WitnessConfig(seed=next(seeds)), floor=0.1))
        lam = float(rng.uniform(0.3, 1.0))
        tasks.append(self._emulate(ch.QuantumChannel.depolarizing(lam), next(seeds)))
        instance_rng = np.random.default_rng(next(seeds))
        instances = [pqg.random_program_instance(instance_rng) for _ in range(ORTHOGONALITY_BATCH)]
        tasks.append(self._orthogonality(instances))
        return _shuffled(tasks, self.seed, r)

    @staticmethod
    def _witness_cfg(seed: int) -> pqg.WitnessConfig:
        return pqg.WitnessConfig(seed=seed, n_inputs=WITNESS_INPUTS, sup_samples=WITNESS_SUP_SAMPLES,
                                 fw_iterations=WITNESS_FW_ITERATIONS)

    def _net(self, seed) -> Task:
        def check(result):
            gate, net = result
            cert = net.metadata["certificate_max_program_error"]
            expect_finite(cert, "net certificate")
            expect(cert <= NET_EPSILON, f"net certificate {cert} above epsilon {NET_EPSILON}")
            expect(gate.d_program == len(net.elements) > 0, "net size and gate disagree")

        def work(result):
            return {"size": len(result[1].elements), "method": result[1].method,
                    "certificate": float(result[1].metadata["certificate_max_program_error"])}

        return Task(
            "net_gate",
            lambda: pqg.net_gate(NET_EPSILON, 2, seed=seed, n_targets=NET_TARGETS),
            check,
            work,
            lambda result: {"net_atoms": len(result[1].elements)},
            (NET_EPSILON, seed),
        )

    def _witness(self, label, units1, units2, target, cfg, floor=None, ceiling=None) -> Task:
        def call():
            return pqg.scalability_witness(pqg.control_gate(units1), pqg.control_gate(units2),
                                           target, cfg)

        def check(report):
            expect_finite(report.best_error, label)
            expect(0.0 <= report.best_error <= 2.0 + TOL_EXACT, f"{label} error {report.best_error}")
            expect(bool(report.method), f"{label} carries no method tag")
            if floor is not None:
                expect(report.best_error > floor,
                       f"{label} entangling target reached {report.best_error} <= {floor}")
            if ceiling is not None:
                expect(report.best_error <= ceiling,
                       f"{label} exact product target missed by {report.best_error}")

        def work(report):
            return {"method": report.method, "n_inputs": report.n_inputs,
                    "best_error": float(report.best_error),
                    "sup_method": report.sup_estimate.method}

        return Task(label, call, check, work,
                    lambda report: {"gate_error": [float(report.best_error)]},
                    (units1, units2, target, cfg.seed))

    def _emulate(self, channel, seed) -> Task:
        target, _ = pqg.dilation_unitary(channel)

        def call():
            gate, net = pqg.net_gate_around([target], EMULATION_EPSILON, seed=seed,
                                            n_atoms_per_target=EMULATION_ATOMS,
                                            n_decoys=EMULATION_DECOYS)
            return net, pqg.emulate_encoding(channel, gate, EMULATION_EPSILON,
                                             n_samples=EMULATION_SAMPLES, seed=seed)

        def check(result):
            net, report = result
            cert = net.metadata["certificate_max_program_error"]
            expect(cert <= EMULATION_EPSILON, f"target-local certificate {cert}")
            expect_finite(report.measured_error, "emulation error")
            expect(report.measured_error <= EMULATION_EPSILON,
                   f"emulation error {report.measured_error} above {EMULATION_EPSILON}")

        def work(result):
            net, report = result
            return {"size": len(net.elements), "method": net.method,
                    "program_method": report.program_error.method,
                    "measured_error": float(report.measured_error)}

        return Task("emulate", call, check, work,
                    lambda result: {"net_atoms": len(result[0].elements)}, (channel, seed))

    def _orthogonality(self, instances) -> Task:
        def call():
            return [pqg.program_orthogonality_check(gate, p1, p2, tol=1e-6)
                    for gate, p1, p2 in instances]

        def check(verdicts):
            for (gate, p1, p2), v in zip(instances, verdicts):
                expect(v.consistent, "dichotomy violated")
                overlap = float(abs(np.vdot(p1.amplitudes, p2.amplitudes)))
                expect(abs(overlap - v.overlap) <= 1e-12, "overlap disagrees with a direct inner product")
                expect(v.orthogonal == (overlap <= v.tol), "orthogonal flag disagrees with the overlap")

        def work(verdicts):
            return {"proportional": sum(v.proportional for v in verdicts),
                    "orthogonal": sum(v.orthogonal for v in verdicts)}

        inputs = [(gate.blocks, p1.amplitudes, p2.amplitudes) for gate, p1, p2 in instances]
        return Task("orthogonality_batch", call, check, work, inputs=tuple(inputs))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# The package is not installed and ``python -m densecode.cli`` has no
# ``__main__`` guard, so the CLI is reached through ``main`` with src on the path.
CLI_CALL = (
    "import sys; sys.path.insert(0, 'src'); from densecode.cli import main; "
    "raise SystemExit(main(sys.argv[1:]))"
)
CLI_BOOT = Path(__file__).resolve().parent / "cli_boot.py"
DC_STATES = ["bell.json", "werner-boundary.json", "maximally-mixed-2q.json"]
ENTROPY_STATES = ["bell.json", "werner-boundary.json", "product.json", "double-singlet.json"]


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    spans: dict | None


class CliContext:
    """Where CLI records go, and whether calls are traced (span files)."""

    def __init__(self, root: Path, work_dir: Path):
        self.root = root
        self.work_dir = work_dir
        self.traced = False
        self._n = 0

    def run(self, argv: list[str]) -> CliRun:
        span_file = None
        if self.traced:
            self._n += 1
            span_file = self.work_dir / f"spans-{self._n}.json"
            cmd = [sys.executable, str(CLI_BOOT), str(span_file), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_CALL, *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        spans = None
        if span_file is not None and span_file.exists():
            spans = json.loads(span_file.read_text())
            span_file.unlink()
        return CliRun(proc.returncode, proc.stdout, proc.stderr, wall, spans)


def _cli_json(run: CliRun, label: str) -> dict:
    expect(run.code == 0, f"{label} exited {run.code}: {run.stderr.strip()[-300:]}")
    expect(run.stdout.strip() != "", f"{label} printed nothing")
    try:
        return json.loads(run.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{label} printed unparseable JSON: {exc}") from None


class Cli:
    """Sequential CLI processes on the bundled fixtures.

    Import dominates each call (scipy.optimize, pulled in by pqg, most of it),
    and the import, serialize and cli layers do work only here.  A round is
    entropy, dc plain / --copies 2 / --a-factors 0,2 / --channel,
    pqg check-orthogonality, pqg witness pauli pauli, a 2-instance
    scan-additivity, and replay of the plain dc record.
    """

    passes = 3

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.seed = seed
        self.root = root
        self.ctx = CliContext(root, work_dir)
        self.fixtures = root / "src" / "densecode" / "fixtures"

    def _fixture(self, name: str) -> str:
        return os.path.relpath(self.fixtures / name, self.root)

    def make_round(self, r: int) -> list[Task]:
        seeds = iter(_task_seeds(self.seed, r, 16))
        rng = np.random.default_rng(next(seeds))
        record = self.ctx.work_dir / f"record-{r}.json"
        entropy_state = ENTROPY_STATES[int(rng.integers(len(ENTROPY_STATES)))]
        dc_state = DC_STATES[int(rng.integers(len(DC_STATES)))]
        units = ["I,X", "X,Z", "I,Z"][int(rng.integers(3))]
        s = [str(next(seeds) % 100000) for _ in range(6)]
        bell = self._fixture("bell.json")
        tasks = [
            self._entropy(entropy_state),
            self._dc("dc_plain", dc_state, 2, ["dc", self._fixture(dc_state), "--d", "2",
                                             "--restarts", "4", "--seed", s[0]], record=record),
            self._dc("dc_copies", "bell.json", 2, ["dc", bell, "--copies", "2",
                                                 "--restarts", "2", "--seed", s[1]], copies=2),
            self._dc("dc_a_factors", "double-singlet.json", 4,
                     ["dc", self._fixture("double-singlet.json"), "--d", "4", "--a-factors", "0,2",
                      "--restarts", "4", "--seed", s[2]], a_factors=(0, 2)),
            self._dc("dc_channel", "bell.json", 2,
                     ["dc", bell, "--channel", self._fixture("depolarizing-qubit.json"),
                      "--ensemble-size", "4", "--restarts", "2", "--seed", s[3]], noisy=True),
            self._orthogonality(units),
            self._witness(s[4]),
            self._scan(s[5]),
        ]
        tasks = _shuffled(tasks, self.seed, r)
        # replay needs the record the plain dc call writes, so it runs last.
        return tasks + [self._replay(record)]

    def _entropy(self, state: str) -> Task:
        def check(run):
            doc = _cli_json(run, "entropy")
            rho = ser.load_state(self.fixtures / state)
            want = qmath.von_neumann_entropy(rho)
            expect(abs(doc["H"] - want) <= 1e-12, f"entropy H {doc['H']} vs {want}")

        return Task("entropy", lambda: self.ctx.run(["entropy", self._fixture(state)]), check,
                    lambda run: {"code": run.code}, inputs=(state,))

    def _dc(self, label, state, d, argv, copies=1, a_factors=(0,), noisy=False, record=None) -> Task:
        def call():
            run = self.ctx.run(argv)
            if record is not None and run.code == 0:
                record.write_text(run.stdout)
            return run

        def check(run):
            doc = _cli_json(run, label)
            value = doc["value"]
            expect_finite(value, label)
            rho = ser.load_state(self.fixtures / state)
            h_b = _receiver_entropy(rho, a_factors)
            if noisy:
                ceiling = math.log2(2) + h_b
                expect(-TOL_EXACT <= value <= ceiling + TOL_EXACT, f"{label} {value} outside [0, {ceiling}]")
                return
            log_d = math.log2(d)
            ceiling = log_d + copies * h_b
            expect(log_d - TOL_EXACT <= value <= ceiling + TOL_EXACT,
                   f"{label} {value} outside [{log_d}, {ceiling}]")

        def work(run):
            doc = json.loads(run.stdout) if run.code == 0 and run.stdout.strip() else {}
            diag = doc.get("diagnostics", {})
            return {"code": run.code, "value": doc.get("value"),
                    "iterations": diag.get("iterations"),
                    "skipped": diag.get("skipped_restarts"),
                    "history": len(diag.get("history", []))}

        def quality(run):
            try:
                return {"certified_bits": [float(json.loads(run.stdout)["value"])]}
            except (ValueError, KeyError):
                return {}

        return Task(label, call, check, work, quality, tuple(argv))

    def _orthogonality(self, units: str) -> Task:
        argv = ["pqg", "check-orthogonality", "--units", units, "--program1", "0", "--program2", "1"]

        def check(run):
            doc = _cli_json(run, "check-orthogonality")
            expect(doc["consistent"] is True and doc["orthogonal"] is True,
                   "basis programs of distinct units must be orthogonal and consistent")

        return Task("check_orthogonality", lambda: self.ctx.run(argv), check,
                    lambda run: {"code": run.code}, inputs=tuple(argv))

    def _witness(self, seed: str) -> Task:
        argv = ["pqg", "witness", "--target", "cnot", "--gates", "pauli", "pauli", "--seed", seed]

        def check(run):
            doc = _cli_json(run, "witness")
            expect_finite(doc["best_error"], "witness")
            expect(doc["best_error"] > 0.1, f"CNOT on Pauli gates reached {doc['best_error']}")
            expect(bool(doc["method"]), "witness carries no method tag")

        def work(run):
            doc = json.loads(run.stdout) if run.code == 0 and run.stdout.strip() else {}
            return {"code": run.code, "method": doc.get("method"), "best_error": doc.get("best_error")}

        def quality(run):
            try:
                return {"gate_error": [float(json.loads(run.stdout)["best_error"])]}
            except (ValueError, KeyError):
                return {}

        return Task("witness", lambda: self.ctx.run(argv), check, work, quality, tuple(argv))

    def _scan(self, seed: str) -> Task:
        # Probe starts only: random restarts would make the cost of a call
        # depend on the ranks the seed draws, which swamps the import cost.
        argv = ["scan-additivity", "--count", "2", "--restarts", "0", "--seed", seed]

        def rows(run):
            return [line.split(",") for line in run.stdout.splitlines()
                    if line and not line.startswith("#")]

        def check(run):
            expect(run.code == 0, f"scan-additivity exited {run.code}")
            table = rows(run)
            expect(len(table) == 4 and table[0][0] == "label", "scan-additivity CSV malformed")
            for row in table[1:3]:
                gap = float(row[7])
                expect_finite(gap, "scan gap")
                expect(gap >= -5e-3, f"scan gap {gap} below -5e-3")

        return Task("scan_additivity", lambda: self.ctx.run(argv), check,
                    lambda run: {"code": run.code, "gaps": [r[7] for r in rows(run)[1:3]]},
                    inputs=tuple(argv))

    def _replay(self, record: Path) -> Task:
        def call():
            if not record.exists():
                raise CheckFailed("no record to replay: the plain dc call failed")
            original = record.read_text()
            return self.ctx.run(["replay", os.path.relpath(record, self.root)]), original

        def check(result):
            run, original = result
            doc = _cli_json(run, "replay")
            expect(doc == json.loads(original), "replay did not reproduce the record")

        return Task("replay", call, check, lambda result: {"code": result[0].code})


WORKLOADS = {
    "capacity_small": CapacitySmall,
    "capacity_joint": CapacityJoint,
    "gates": Gates,
    "cli": Cli,
}
