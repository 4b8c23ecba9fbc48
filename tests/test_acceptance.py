"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Values marked as oracle-derived are recomputed here by the
stated independent oracle before being compared.
"""

import csv
import io
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from densecode import capacity as cap
from densecode import channels as ch
from densecode import optimize as opt
from densecode import pqg
from densecode import qmath
from densecode import serialize as ser
from densecode.fixtures import fixture_path

from conftest import CNOT, PAULI_X, PAULI_Z

# Capacities recorded by earlier criteria and consumed by criterion 8.
CAPACITY_LOG: list[tuple[str, int, qmath.DensityMatrix, float]] = []


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def bell_density():
    return qmath.singlet().to_density()


PURE_STATE_CFG = opt.OptConfig(restarts=6, seed=3)


def pure_state(k):
    """(theta, psi_theta) of criterion 3's k-th angle, psi = cos|00> + sin|11>."""
    theta = (k + 1) * math.pi / 22
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = math.cos(theta), math.sin(theta)
    return theta, qmath.PureState((2, 2), amps).to_density()


def test_criterion_01_bell_dense_coding():
    with criterion(1, "dc_capacity(2, singlet) = 2.000 +- 1e-3, default restarts, <= 60 s"):
        start = time.monotonic()
        result = cap.dc_capacity(2, bell_density(), opt.OptConfig(seed=1))
        elapsed = time.monotonic() - start
        assert result.value == pytest.approx(2.0, abs=1e-3)
        assert elapsed <= 60.0
        CAPACITY_LOG.append(("bell", 2, bell_density(), result.value))


def test_criterion_02_maximally_entangled_qutrit():
    with criterion(2, "dc_capacity(3, Phi_3) = 2 log2 3 +- 1e-3, <= 5 min"):
        start = time.monotonic()
        rho = qmath.maximally_entangled(3).to_density()
        result = cap.dc_capacity(3, rho, opt.OptConfig(seed=2))
        elapsed = time.monotonic() - start
        assert result.value == pytest.approx(2.0 * math.log2(3.0), abs=1e-3)
        assert elapsed <= 300.0
        CAPACITY_LOG.append(("phi3", 3, rho, result.value))


def test_criterion_03_pure_state_formula():
    with criterion(3, "dc_capacity(2, psi_theta) = 1 + H2(cos^2 theta) +- 1e-3, 10 angles"):
        for k in range(10):
            theta, rho = pure_state(k)
            expected = 1.0 + qmath.binary_entropy(math.cos(theta) ** 2)
            result = cap.dc_capacity(2, rho, PURE_STATE_CFG)
            assert result.value == pytest.approx(expected, abs=1e-3)
            CAPACITY_LOG.append((f"pure-{k}", 2, rho, result.value))


def test_criterion_04_separable_flatline():
    with criterion(4, "20 random separable states: dc = 1.000 +- 1e-3, coherent <= 1e-9"):
        cfg = opt.OptConfig(restarts=6, seed=4)
        for k in range(20):
            rho = cap.random_separable((2, 2), n_terms=10, seed=500 + k)
            result = cap.dc_capacity(2, rho, cfg)
            assert result.value == pytest.approx(1.0, abs=1e-3)
            assert qmath.coherent_information(rho) <= 1e-9
            if k < 3:
                CAPACITY_LOG.append((f"separable-{k}", 2, rho, result.value))


def test_criterion_05_exact_discrete_twirl():
    with criterion(5, "Weyl average equals I/d (x) rho_B to 1e-12 for d in {2,3,4}"):
        for d in (2, 3, 4):
            rho = ch.random_state((d, 3), 2, seed=50 + d)
            encoded = ch.apply_local(ch.random_channel(d, d, 2, seed=60 + d), rho, 0)
            twirled = ch.weyl_twirl(encoded, 0)
            target = np.kron(
                np.eye(d) / d, qmath.partial_trace(encoded, {1}).entries
            )
            assert np.max(np.abs(twirled.entries - target)) <= 1e-12


def test_criterion_06_superadditivity_showcase_one():
    with criterion(6, "|00> with a double singlet: parts 1.0 and 2.0, joint 4.0, gap +1.0 +- 5e-3"):
        rho = ser.load_state(fixture_path("product.json"))
        sigma = ser.load_state(fixture_path("double-singlet.json"))
        res = cap.additivity_gap(
            rho, 2, sigma, 2, opt.OptConfig(restarts=8, seed=6), rho_a=(0,), sigma_a=(0, 2)
        )
        assert res.parts[0].value == pytest.approx(1.0, abs=5e-3)
        assert res.parts[1].value == pytest.approx(2.0, abs=5e-3)
        assert res.joint.value == pytest.approx(4.0, abs=5e-3)
        assert res.gap == pytest.approx(1.0, abs=5e-3)
        CAPACITY_LOG.append(("joint-1", 4, qmath.tensor(rho, sigma), res.joint.value))


def test_criterion_07_superadditivity_showcase_two():
    with criterion(7, "id_4 with a constant channel: parts 3.0 and 0.0, joint >= 4.0 - 5e-3"):
        bell = bell_density()
        cfg = opt.OptConfig(restarts=8, seed=7)
        part1 = cap.noisy_dc_capacity(ch.QuantumChannel.identity(4), bell, 16, cfg)
        assert part1.value == pytest.approx(3.0, abs=5e-3)
        const = ch.QuantumChannel.constant_replacement(2, qmath.maximally_mixed((2,)))
        part2 = cap.noisy_dc_capacity(
            const, bell, 4, opt.OptConfig(restarts=2, seed=7, ensemble_sweeps=4)
        )
        assert part2.value == pytest.approx(0.0, abs=1e-9)
        # Feasible joint ensemble: route both sender qubits into the ideal
        # four-level channel, feed the useless one a fixed state.
        joint_phi = ch.tensor_channels(ch.QuantumChannel.identity(4), const)
        joint_rho = qmath.tensor(bell, bell)
        e0 = np.zeros((2, 1), dtype=complex)
        e0[0, 0] = 1.0
        routing = [ch.QuantumChannel(4, 8, (np.kron(w, e0),)) for w in ch.weyl_basis(4)]
        joint = cap.noisy_dc_capacity(
            joint_phi,
            joint_rho,
            16,
            opt.OptConfig(restarts=2, seed=7, ensemble_sweeps=3),
            a_factors=(0, 2),
            initial_encodings=routing,
        )
        assert joint.value >= 4.0 - 5e-3
        assert joint.value - part1.value - part2.value >= 1.0 - 1e-2
        CAPACITY_LOG.append(("noisy-id4", 4, bell, part1.value))


def test_criterion_08_relative_entropy_bound_consistency():
    with criterion(8, "every logged capacity <= log2 d + D(rho||sigma) + 5e-3 for certified sigma"):
        # Run alone (or after failures), the log lacks what earlier criteria
        # record: compute the bell entry and criterion 3's ten pure states.
        logged = {label for label, *_ in CAPACITY_LOG}
        if "bell" not in logged:
            CAPACITY_LOG.append(
                ("bell", 2, bell_density(),
                 cap.dc_capacity(2, bell_density(), opt.OptConfig(seed=8)).value)
            )
        for k in range(10):
            if f"pure-{k}" not in logged:
                _, rho = pure_state(k)
                value = cap.dc_capacity(2, rho, PURE_STATE_CFG).value
                CAPACITY_LOG.append((f"pure-{k}", 2, rho, value))
        checked = 0
        for label, d, rho, value in CAPACITY_LOG:
            sigma = qmath.maximally_mixed(rho.dims)
            bound = cap.ree_bound(rho, d, sigma, a_factors=(0,))
            if not bound.certified:
                continue
            assert value <= bound.bound + 5e-3, label
            checked += 1
        assert checked >= 10
        werner = cap.werner_state(0.5)
        bell_bound = cap.ree_bound(bell_density(), 2, werner)
        assert bell_bound.certified
        assert bell_bound.bound == pytest.approx(2.0, abs=1e-3)
        bell_value = next(v for label, d, r, v in CAPACITY_LOG if label == "bell")
        assert bell_value <= bell_bound.bound + 5e-3


def test_criterion_09_program_orthogonality_dichotomy():
    with criterion(9, ">= 10^3 randomized program pairs, zero dichotomy violations"):
        violations = 0
        nonorthogonal = 0
        for seed in range(1000):
            gate, psi1, psi2 = pqg.random_program_instance(seed)
            verdict = pqg.program_orthogonality_check(gate, psi1, psi2, tol=1e-6)
            if not verdict.consistent:
                violations += 1
            if verdict.overlap > 1e-3:
                nonorthogonal += 1
        assert violations == 0
        assert nonorthogonal >= 100  # the dichotomy's nontrivial branch occurs


def test_criterion_10_scalability_witness(pauli_gate, net_gates, pauli_cnot_oracle):
    with criterion(10, "CNOT witness above the oracle-frozen 0.1; product targets below e1+e2+0.05"):
        cfg = pqg.WitnessConfig(seed=0)
        oracle = pauli_cnot_oracle
        assert oracle > 0.1  # validates the frozen threshold
        report = pqg.scalability_witness(pauli_gate, pauli_gate, CNOT, cfg)
        assert report.best_error > 0.1
        assert abs(report.best_error - oracle) < 0.05
        # The dual bound certifies the no-go: no joint program gets below it.
        assert 0.1 < report.lower_bound.value <= min(report.best_error, oracle)
        target = np.kron(PAULI_X, PAULI_Z)
        previous = math.inf
        cnot_cfg = pqg.WitnessConfig(seed=0, fw_iterations=40)
        for eps in (0.5, 0.3, 0.2, 0.1):
            gate, net = net_gates(eps)
            assert net.metadata["certificate_max_program_error"] <= eps
            prod = pqg.scalability_witness(gate, gate, target, cfg)
            assert prod.best_error <= 2 * eps + 0.05
            assert prod.best_error <= previous + 1e-6
            assert prod.lower_bound.value <= prod.best_error
            previous = prod.best_error
            entangling = pqg.scalability_witness(gate, gate, CNOT, cnot_cfg)
            assert entangling.best_error > 0.1
            assert 0.1 < entangling.lower_bound.value <= entangling.best_error


def test_criterion_11_emulation_of_depolarizing():
    with criterion(11, "depolarizing channel through a 0.1-certified gate: sweep error <= 0.1"):
        dep = ch.QuantumChannel.depolarizing(1.0)
        target, d_env = pqg.dilation_unitary(dep)
        assert d_env == 4
        gate, net = pqg.net_gate_around([target], 0.1, seed=11)
        assert net.metadata["certificate_max_program_error"] <= 0.1
        report = pqg.emulate_encoding(dep, gate, 0.1, n_samples=200, seed=11)
        assert report.measured_error <= 0.1


def test_criterion_12_numerical_hygiene():
    with criterion(12, "gradient vs finite differences, Stinespring round-trips, scan gaps"):
        # Analytic gradient against central finite differences, 20 instances.
        rng = np.random.default_rng(12)
        for k in range(20):
            d_in = int(rng.integers(2, 4))
            d_rest = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            d_env = -(-d_in // d_out) + int(rng.integers(0, 3))
            rho = ch.random_state((d_in, d_rest), int(rng.integers(2, 5)), rng)
            problem = opt._OutputEntropyProblem(rho, d_out, d_env)
            v = ch.random_isometry(d_out * d_env, d_in, rng)
            grad = problem.gradient(v)
            direction = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            direction /= np.linalg.norm(direction)
            h = 1e-5
            fd = (problem.value(v + h * direction) - problem.value(v - h * direction)) / (2 * h)
            analytic = float(np.real(np.vdot(grad, direction)))
            assert abs(fd - analytic) <= 1e-4 * max(1.0, abs(fd))

        # Stinespring round-trip on 100 random channels.
        for k in range(100):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            d_env_min = -(-d_in // d_out)
            chan = ch.random_channel(d_in, d_out, d_env_min + int(rng.integers(0, 3)), rng)
            back = ch.undilate(ch.dilate(chan))
            assert np.max(np.abs(ch.choi(back) - ch.choi(chan))) <= 1e-10

        # Superadditivity scan: no gap below -5e-3.
        from densecode import cli

        buf = io.StringIO()
        import contextlib

        with contextlib.redirect_stdout(buf):
            code = cli.main(["scan-additivity", "--count", "6", "--restarts", "4", "--seed", "12"])
        assert code == 0
        rows = [r for r in csv.reader(io.StringIO(buf.getvalue()))
                if r and not r[0].startswith("#")]
        gaps = [float(r[7]) for r in rows[1:] if r[0] == "instance"]
        assert len(gaps) == 6
        assert all(g >= -5e-3 for g in gaps)
