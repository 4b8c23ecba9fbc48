import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode import channels as ch
from densecode import pqg
from densecode import qmath
from densecode.errors import (
    DimensionMismatchError,
    InvariantError,
    NotAProgramError,
    SizeGuardError,
)

from conftest import CNOT, PAULI_X, PAULI_Z, haar_pure


def plus_state():
    return qmath.PureState((2,), np.array([1, 1], dtype=complex) / math.sqrt(2))


class TestControlGate:
    def test_block_diagonal_structure(self):
        gate = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
        mat = gate.matrix
        assert mat.shape == (4, 4)
        tens = mat.reshape(2, 2, 2, 2)
        assert np.allclose(tens[:, 0, :, 0], np.eye(2))
        assert np.allclose(tens[:, 1, :, 1], PAULI_X)
        assert np.allclose(tens[:, 0, :, 1], 0)

    def test_basis_programs_are_exact(self, pauli_gate):
        for i, block in enumerate(pauli_gate.blocks):
            chan = pqg.induced_map(pauli_gate, qmath.basis_state(4, i))
            assert ch.channels_equal(chan, ch.QuantumChannel.from_unitary(block))

    def test_single_element_gate(self):
        u = ch.random_unitary(3, seed=0)
        gate = pqg.control_gate([u])
        chan = pqg.induced_map(gate, qmath.basis_state(1, 0))
        assert ch.channels_equal(chan, ch.QuantumChannel.from_unitary(u))


class TestInducedMap:
    def test_superposition_program_mixes_blocks(self):
        # Oracle: Kraus {1/sqrt2 I, 1/sqrt2 X} gives sigma -> (sigma + X sigma X)/2,
        # which is not unitary: it sends |0><0| to I/2 (purity 1/2).
        gate = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
        chan = pqg.induced_map(gate, plus_state())
        out = ch.apply(chan, qmath.basis_state(2, 0).to_density())
        assert np.allclose(out.entries, np.eye(2) / 2, atol=1e-12)
        purity = float(np.trace(out.entries @ out.entries).real)
        assert purity == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_always_cptp(self, seed):
        rng = np.random.default_rng(seed)
        gate = pqg.control_gate([ch.random_unitary(2, rng) for _ in range(3)])
        psi = haar_pure((3,), rng)
        chan = pqg.induced_map(gate, psi)
        total = sum(k.conj().T @ k for k in chan.kraus)
        assert np.max(np.abs(total - np.eye(2))) < 1e-10

    def test_dense_gate_path_matches_blocks(self):
        blocks = [ch.random_unitary(2, seed=s) for s in range(3)]
        gate = pqg.control_gate(blocks)
        dense = pqg.ProgrammableGate(2, 3, unitary=gate.matrix)
        psi = haar_pure((3,), seed=9)
        assert ch.channels_equal(
            pqg.induced_map(gate, psi), pqg.induced_map(dense, psi), tol=1e-10
        )

    def test_unitary_contradicting_blocks_is_rejected(self):
        # A gate holds one form: both are rejected, agreeing or not.
        gate = pqg.control_gate([PAULI_X, PAULI_Z])
        for unitary in (np.eye(4), gate.matrix):
            with pytest.raises(InvariantError, match="exactly one"):
                pqg.ProgrammableGate(2, 2, unitary=unitary, blocks=gate.blocks)


class TestBlockStack:
    def test_block_stack_is_read_only_complex_array(self, pauli_gate):
        rng = np.random.default_rng(0)
        qutrits = pqg.control_gate([ch.random_unitary(3, rng) for _ in range(5)])
        real = pqg.control_gate([np.eye(2, dtype=int), [[0, 1], [1, 0]]])
        joint = pqg.tensor_gates(pauli_gate, real)
        dense = pqg.ProgrammableGate(2, 2, unitary=real.matrix)
        for gate in (pauli_gate, qutrits, real, joint):
            blocks = gate.blocks
            assert isinstance(blocks, np.ndarray)
            assert blocks.shape == (gate.d_program, gate.d_data, gate.d_data)
            assert blocks.dtype == complex
            assert blocks.flags.c_contiguous and not blocks.flags.writeable
            with pytest.raises(ValueError):
                blocks[0, 0, 0] = 2.0
        assert dense.unitary.dtype == complex and not dense.unitary.flags.writeable
        with pytest.raises(ValueError):
            dense.unitary[0, 0] = 2.0

    def test_block_stack_is_a_copy_of_the_caller_blocks(self):
        listed = [np.eye(2, dtype=complex), PAULI_X.copy()]
        stacked = np.array(listed)
        unitary = pqg.control_gate(listed).matrix
        gates = [pqg.control_gate(listed), pqg.control_gate(stacked)]
        dense = pqg.ProgrammableGate(2, 2, unitary=unitary)
        expected = np.array(listed)
        listed[1][0, 0] = 7.0
        listed.append(PAULI_Z)
        stacked[0] = PAULI_Z
        unitary[0, 0] = 7.0
        for gate in gates:
            assert np.array_equal(gate.blocks, expected)
        for gate in gates + [dense]:
            assert np.array_equal(gate.matrix, pqg.control_gate(expected).matrix)
        assert stacked.flags.writeable and unitary.flags.writeable

    def test_net_elements_are_the_gate_block_stack(self):
        gate, net = pqg.net_gate(2.0, 2, seed=1, n_targets=2)
        assert net.elements is gate.blocks
        assert len(net.elements) == net.metadata["size"] == gate.d_program
        assert np.array_equal(net.elements[0], gate.blocks[0])

    @pytest.mark.parametrize("blocks", [
        [np.eye(2), PAULI_X, PAULI_Z],
        [np.eye(2), np.eye(3)],
        [np.eye(2), np.eye(2)[:1]],
        np.eye(2),
    ], ids=["three-for-two", "ragged-sides", "ragged-rows", "one-matrix"])
    def test_block_stack_shape_mismatch(self, blocks):
        # A bare np.stack of ragged blocks raises ValueError; the gate reports the mismatch.
        with pytest.raises(DimensionMismatchError):
            pqg.ProgrammableGate(2, 2, blocks=blocks)

    def test_block_stack_flags_one_non_unitary_block(self):
        rng = np.random.default_rng(1)
        blocks = np.array([ch.random_unitary(2, rng) for _ in range(400)])
        blocks[237] *= 1.01
        defect = qmath.isometry_defect(blocks[237])
        assert defect > qmath.ISOMETRY_TOL
        with pytest.raises(InvariantError, match=f"not unitary \\(defect {defect:.3e}\\)"):
            pqg.control_gate(blocks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_block_stack_rejects_non_finite_blocks(self, bad):
        # No errstate here: the suite turns a RuntimeWarning from the product into an error.
        block = np.eye(2, dtype=complex)
        block[1, 1] = bad
        with pytest.raises(InvariantError, match="non-finite entry"):
            pqg.control_gate([np.eye(2), block])
        with pytest.raises(InvariantError, match="non-finite entry"):
            pqg.control_gate([np.full((2, 2), bad)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gate_is_rejected_before_any_product(self, bad):
        # A dense unitary takes the same check as a block stack, with no errstate either.
        block = np.eye(2, dtype=complex)
        block[1, 1] = bad
        with pytest.raises(InvariantError, match="non-finite entry"):
            pqg.ProgrammableGate(2, 1, unitary=block)

    def test_block_stack_isometry_defect_is_max_of_per_matrix(self):
        rng = np.random.default_rng(2)
        stack = np.array([ch.random_unitary(3, rng) for _ in range(12)]).reshape(3, 4, 3, 3)
        stack[1, 2] *= 1.5
        stack[2, 0, :, 1] = 0.0
        per_matrix = [qmath.isometry_defect(m) for m in stack.reshape(-1, 3, 3)]
        assert qmath.isometry_defect(stack) == max(per_matrix)
        flat = stack.reshape(-1, 3)  # a 2-D caller: one tall [(k, out), in] matrix
        assert qmath.isometry_defect(flat) == float(
            np.max(np.abs(flat.conj().T @ flat - np.eye(3))))


class TestApproximationError:
    def test_exact_program(self):
        gate = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
        err = pqg.approximation_error(gate, qmath.basis_state(2, 1), PAULI_X)
        assert err.value == pytest.approx(0.0, abs=1e-8)
        # Zero error means the induced map is that unitary conjugation.
        assert ch.channels_equal(
            pqg.induced_map(gate, qmath.basis_state(2, 1)),
            ch.QuantumChannel.from_unitary(PAULI_X),
        )

    def test_wrong_program_maximal_error(self):
        # Oracle: at input |0> the outputs |0><0| and |1><1| are orthogonal.
        gate = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
        err = pqg.approximation_error(gate, qmath.basis_state(2, 0), PAULI_X)
        assert err.value == pytest.approx(2.0, abs=1e-9)

    def test_superposition_program_strictly_positive(self):
        gate = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
        err = pqg.approximation_error(gate, plus_state(), PAULI_X, seed=5)
        assert err.value > 0.5
        assert err.value <= 2.0
        assert err.method == "exact-bloch" and err.n_samples == 0
        assert err.value == pqg._bloch_error(gate.blocks, plus_state(), PAULI_X)

    def test_error_never_exceeds_two(self):
        rng = np.random.default_rng(11)
        gate = pqg.control_gate([ch.random_unitary(2, rng) for _ in range(4)])
        psi = haar_pure((4,), rng)
        err = pqg.approximation_error(gate, psi, ch.random_unitary(2, rng), seed=12)
        assert 0.0 <= err.value <= 2.0

    def test_wrong_program_dimension_on_a_qubit_block_gate(self, pauli_gate):
        # The exact qubit branch must not score a program the gate cannot take.
        with pytest.raises(DimensionMismatchError):
            pqg.approximation_error(pauli_gate, plus_state(), PAULI_X)

    def test_program_for_target_reports_the_public_error(self, net_gates):
        rng = np.random.default_rng(21)
        qubit_gate, _ = net_gates(0.3)
        gates = [qubit_gate] * 3
        gates += [pqg.control_gate([ch.random_unitary(3, rng) for _ in range(12)]) for _ in range(3)]
        for s, gate in enumerate(gates):
            target = ch.random_unitary(gate.d_data, rng)
            program, err = pqg.program_for_target(gate, target, seed=s)
            assert err == pqg.approximation_error(gate, program, target, seed=s)

    @pytest.mark.parametrize("build, names", [
        (lambda gate: pqg.program_for_target(gate, ch.random_unitary(2, seed=4)),
         ["approximation_error"]),
        (lambda gate: pqg.net_gate(1.2, 3, seed=0, n_targets=4),
         ["approximation_error", "estimate_sup_error"]),
    ], ids=["qubit-program", "qutrit-net"])
    def test_selection_calls_the_public_estimators(self, monkeypatch, pauli_gate, build, names):
        # A tracer that wraps the public names sees every estimate selection makes.
        calls = {name: 0 for name in ("approximation_error", "estimate_sup_error")}

        def counting(name):
            inner = getattr(pqg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pqg, name, counting(name))
        build(pauli_gate)
        assert all(calls[name] > 0 for name in names)


def fd_slsqp_weights(atoms, target):
    """Reference solve: SLSQP with finite-difference gradients on the exact objective."""
    from scipy.optimize import minimize

    fun, _, _ = pqg._mixture_objective(np.asarray(atoms), target)
    n = len(atoms)
    res = minimize(lambda w: fun(w)[0], np.full(n, 1.0 / n), method="SLSQP",
                   bounds=[(0.0, 1.0)] * n, constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
                   options={"maxiter": 200, "ftol": 1e-12})
    w = np.clip(res.x, 0.0, None)
    return w / w.sum()


class TestMixtureWeights:
    @pytest.mark.parametrize("d", [2, 3])
    def test_gradient_matches_central_differences(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            atoms = np.stack([ch.random_unitary(d, rng) for _ in range(6)])
            fun, _, _ = pqg._mixture_objective(atoms, ch.random_unitary(d, rng))
            w = rng.dirichlet(np.ones(6))
            _, grad = fun(w)
            h = 1e-6
            fd = [(fun(w + h * e)[0] - fun(w - h * e)[0]) / (2 * h) for e in np.eye(6)]
            assert np.max(np.abs(grad - fd)) < 1e-6

    def test_bloch_rotations_match_trace_loop(self):
        rng = np.random.default_rng(8)
        units = np.stack([ch.random_unitary(2, rng) for _ in range(5)])
        paulis = [PAULI_X, np.array([[0, -1j], [1j, 0]]), PAULI_Z]
        expected = np.array([[[0.5 * np.trace(pi @ u @ pj @ u.conj().T).real for pj in paulis]
                              for pi in paulis] for u in units])
        rotations = pqg._bloch_rotations(units)
        assert np.max(np.abs(rotations - expected)) < 1e-14
        assert np.allclose(rotations @ rotations.swapaxes(1, 2), np.eye(3), atol=1e-12)
        assert np.allclose(np.linalg.det(rotations), 1.0, atol=1e-12)

    def test_gram_form_matches_choi_frobenius(self):
        # Reference: || sum_i w_i |v_i><v_i| - |e><e| ||_F^2 with v_i = vec(T^dag a_i) / sqrt(d).
        rng = np.random.default_rng(5)
        d = 3
        target = ch.random_unitary(d, rng)
        atoms = np.stack([ch.random_unitary(d, rng) for _ in range(7)])
        vecs = np.stack([(target.conj().T @ a).reshape(-1) / math.sqrt(d) for a in atoms])
        ident = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
        fun, _, vertex_values = pqg._mixture_objective(atoms, target)
        for w in [*rng.dirichlet(np.ones(7), size=5), *np.eye(7)]:
            choi = np.einsum("i,ia,ib->ab", w, vecs, vecs.conj())
            expected = float(np.linalg.norm(choi - np.outer(ident, ident.conj())) ** 2)
            assert fun(w)[0] == pytest.approx(expected, abs=1e-12)
        for i, w in enumerate(np.eye(7)):
            assert vertex_values[i] == pytest.approx(fun(w)[0], abs=1e-12)

    @pytest.mark.parametrize("target", [PAULI_X, PAULI_Z], ids=["X", "Z"])
    def test_degenerate_uniform_start_reaches_exact_atom(self, pauli_gate, target):
        # The uniform Pauli mixture is the completely depolarizing map: I - A = I,
        # every singular value is 1 and the subgradient there says nothing.
        atoms = np.asarray(pauli_gate.blocks)
        fun, _, _ = pqg._mixture_objective(atoms, target)
        assert fun(np.full(4, 0.25))[0] == pytest.approx(1.0, abs=1e-12)
        w = pqg.optimize_mixture_weights(pauli_gate.blocks, target).weights
        assert fun(w)[0] <= 1e-9

    def test_target_among_atoms_gets_that_atom_alone(self):
        # The barrier solve only approaches the vertex; the vertex check returns it exactly.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            atoms = [ch.random_unitary(2, rng) for _ in range(6)]
            w = pqg.optimize_mixture_weights(atoms, np.exp(0.3j) * atoms[seed]).weights
            assert np.array_equal(w, np.eye(6)[seed])

    @staticmethod
    def random_problems():
        """Twelve Haar atoms and a Haar target: 20 qubit and 10 qutrit seeds."""
        for d, seed in [(2, seed) for seed in range(20)] + [(3, seed) for seed in range(10)]:
            rng = np.random.default_rng(seed)
            target = ch.random_unitary(d, rng)
            yield d, [ch.random_unitary(d, rng) for _ in range(12)], target

    def test_never_worse_than_finite_difference_solve(self):
        for d, atoms, target in self.random_problems():
            fun, _, _ = pqg._mixture_objective(np.asarray(atoms), target)
            w = pqg.optimize_mixture_weights(atoms, target).weights
            assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)
            assert fun(w)[0] <= fun(fd_slsqp_weights(atoms, target))[0] + 1e-6

    # Mean Newton steps per solve of random_problems under the damped-Newton
    # solve with tenfold tau stages and no predictor: 98-118 at d = 2, 74-101 at d = 3.
    DAMPED_NEWTON_STEPS = {2: 2161 / 20, 3: 856 / 10}

    def test_barrier_solve_centers_in_2_5x_fewer_steps(self):
        steps = {2: [], 3: []}
        for d, atoms, target in self.random_problems():
            solve = pqg.optimize_mixture_weights(atoms, target)
            steps[d].append(int(solve.steps))
            if d == 2:
                assert solve.reasons == "centered" and solve.gaps <= 1e-10
            else:
                # The quadratic's Frank-Wolfe gap max_i grad . (w - e_i) bounds its
                # distance to the optimum, independently of the active-set solve.
                assert solve.reasons == "exact" and solve.gaps <= 1e-12
                _, grad = pqg._mixture_objective(np.asarray(atoms), target)[0](solve.weights)
                assert grad @ solve.weights - grad.min() <= 1e-12
        for d, damped in self.DAMPED_NEWTON_STEPS.items():
            assert 2.5 * np.mean(steps[d]) <= damped

    def test_barrier_solve_reports_the_newton_cap(self, monkeypatch):
        monkeypatch.setattr(pqg, "NEWTON_CAP", 3)
        problems = list(self.random_problems())
        for _, atoms, target in (problems[0], problems[20]):  # d = 2 and d = 3
            solve = pqg.optimize_mixture_weights(atoms, target)
            assert (solve.steps, solve.reasons) == (3, "newton_cap")

    def test_barrier_solve_reports_a_non_finite_newton_system(self):
        rng = np.random.default_rng(3)
        atoms = np.stack([[ch.random_unitary(2, rng) for _ in range(6)] for _ in range(2)])
        distortions = np.eye(3) - pqg._bloch_rotations(atoms)  # the target is I
        distortions[1, 0, 0, 0] = 1e200  # the start's t = sigma_max + 1 rounds to a singular F
        result = pqg._barrier_newton(distortions, np.arange(2))
        assert list(result.reasons) == ["centered", "non_finite"]
        assert result.steps[1] == 1 and np.isfinite(result.weights).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_barrier_system_ends_non_finite(self, monkeypatch):
        # The scaled Newton system is positive definite on the simplex by construction, so
        # the singular one is injected: the second problem's first system is zeroed.
        rng = np.random.default_rng(3)
        atoms = np.stack([[ch.random_unitary(2, rng) for _ in range(6)] for _ in range(2)])
        distortions = np.eye(3) - pqg._bloch_rotations(atoms)  # the target is I
        alone = pqg._barrier_newton(distortions, np.arange(1))
        solve = qmath.solve

        def zero_second(system, right):
            if len(system) == 2:
                system = system.copy()
                system[1] = 0.0
            return solve(system, right)

        monkeypatch.setattr(qmath, "solve", zero_second)
        result = pqg._barrier_newton(distortions, np.arange(2))
        assert list(result.reasons) == ["centered", "non_finite"]
        assert result.steps[1] == 1 and result.steps[0] == alone.steps[0]
        assert np.allclose(result.weights[0], alone.weights[0], rtol=0.0, atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_active_set_system_ends_non_finite(self):
        # The Gram matrix of the atoms 0, u and -u (affinely dependent, so the KKT system of
        # all three is singular); b lets atom 1, then atom 0 enter from atom 2.
        gram = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        b = np.array([1.75, 1.0, 2.375])
        result = pqg._active_set(gram[None], b[None], np.arange(1))
        assert list(result.reasons) == ["non_finite"] and result.steps[0] == 3
        assert np.isnan(result.gaps[0])

    def test_nets_record_their_barrier_solves(self, net_gates):
        # Qubit nets record the barrier solve; larger d the exact active-set solve.
        for net, reason in ((net_gates(0.3)[1], "centered"),
                            (pqg.net_gate(1.2, 3, seed=0, n_targets=10)[1], "exact")):
            assert net.metadata["barrier_stop_reasons"] == reason
            assert net.metadata["barrier_max_gap"] <= 1e-10
            assert 0 < net.metadata["barrier_max_newton_steps"] < pqg.NEWTON_CAP

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([3, 4, 8]), n=st.integers(2, 32),
           kind=st.sampled_from(["haar", "near", "duplicate"]),
           log_spread=st.floats(-8.0, -1.0), seed=st.integers(0, 2**32 - 1))
    def test_active_set_solve_is_exact(self, d, n, kind, log_spread, seed):
        rng = np.random.default_rng(seed)
        target = ch.random_unitary(d, rng)
        if kind == "haar":
            atoms = np.stack([ch.random_unitary(d, rng) for _ in range(n)])
        elif kind == "near":
            # target exp(-iH), H of spectral radius 10^log_spread, as net_gate_around draws atoms.
            g = rng.standard_normal((n, 2, d, d))
            h = qmath.hermitize(g[:, 0] + 1j * g[:, 1])
            h *= 10.0**log_spread / np.abs(np.linalg.eigvalsh(h)).max(-1)[:, None, None]
            atoms = target @ qmath.hermitian_function(h, lambda lam: np.exp(-1j * lam))
        else:
            # Every atom one of ceil(n / 2) Haar unitaries times a random phase.
            base = np.stack([ch.random_unitary(d, rng) for _ in range((n + 1) // 2)])
            phases = np.exp(2j * np.pi * rng.random(n))[:, None, None]
            atoms = base[rng.integers(len(base), size=n)] * phases
        fun, _, vertex_values = pqg._mixture_objective(atoms, target)
        solve = pqg.optimize_mixture_weights(atoms, target)
        w = solve.weights
        assert np.isfinite(w).all() and w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)
        value, grad = fun(w)
        assert value <= vertex_values.min()
        if vertex_values.min() <= pqg.EXACT_VERTEX:
            assert solve.reasons == "vertex"
        else:
            assert solve.reasons == "exact" and solve.gaps <= 1e-12
            assert grad @ w - grad.min() <= 1e-12

    def test_batched_solve_equals_per_problem_solves(self):
        for d, n in ((2, 12), (3, 8)):
            rng = np.random.default_rng(40 + d)
            targets = np.stack([ch.random_unitary(d, rng) for _ in range(6)])
            atoms = np.stack([[ch.random_unitary(d, rng) for _ in range(n)] for _ in range(6)])
            # One problem whose target is an atom up to phase: the vertex, unsolved.
            targets[2] = 1j * atoms[2, 5]
            batched = pqg.optimize_mixture_weights(atoms, targets).weights
            assert batched.shape == (6, n)
            for a, t, w in zip(atoms, targets, batched):
                assert np.max(np.abs(w - pqg.optimize_mixture_weights(a, t).weights)) <= 1e-12
            assert np.array_equal(batched[2], np.eye(n)[5])


def _bloch_sphere_grid(n):
    """Qubit pure states on a Fibonacci lattice of n Bloch vectors."""
    k = np.arange(n) + 0.5
    theta = np.arccos(1.0 - 2.0 * k / n)
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)


class TestExactBlochError:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(1, 6))
    def test_exact_error_brackets_sampled_and_grid_suprema(self, seed, n_atoms):
        # Oracles for sup_z || Phi(z) - T z T^dag ||_1 over pure inputs: the sampled
        # estimate and a 4000-point Bloch-sphere grid are both lower estimates; the
        # grid misses the supremum by at most 2 * its covering radius, under 0.045
        # (the distance is 2-Lipschitz in the Bloch vector).
        rng = np.random.default_rng(seed)
        gate = pqg.control_gate([ch.random_unitary(2, rng) for _ in range(n_atoms)])
        psi = pqg.mixture_program(gate, dict(enumerate(rng.dirichlet(np.ones(n_atoms)))))
        target = ch.random_unitary(2, rng)
        exact = pqg._bloch_error(np.asarray(gate.blocks), psi, target)
        kraus = np.asarray(pqg.induced_map(gate, psi).kraus)
        sampled = pqg.estimate_sup_error(kraus, target, seed=seed % 1000)
        assert exact >= sampled.value - 1e-12
        states = _bloch_sphere_grid(4000)
        gaps = pqg._conjugation_gaps(kraus, target[None], states)
        grid = float(qmath.hermitian_trace_norm(gaps).max())
        assert grid <= exact + 1e-12
        assert exact <= grid + 2 * 0.045

    def test_sup_estimate_reaches_exact_bloch_error(self):
        # The exact qubit error is the oracle: the descent from the best Haar
        # sample reaches it, and never ends below that sample.
        for s in range(200):
            rng = np.random.default_rng(s)
            n_atoms = 1 + s % 6
            gate = pqg.control_gate([ch.random_unitary(2, rng) for _ in range(n_atoms)])
            psi = pqg.mixture_program(gate, dict(enumerate(rng.dirichlet(np.ones(n_atoms)))))
            target = ch.random_unitary(2, rng)
            kraus = pqg.induced_map(gate, psi).kraus
            estimate = pqg.estimate_sup_error(kraus, target, 50, s).value
            assert pqg._bloch_error(np.asarray(gate.blocks), psi, target) - estimate <= 1e-9
            samples = qmath.haar_vectors(np.random.default_rng(s), 50, 2)
            gaps = pqg._conjugation_gaps(np.asarray(kraus), target[None], samples)
            assert estimate >= qmath.hermitian_trace_norm(gaps).max() - 1e-12

    def test_program_for_target_is_exact_on_qubits(self, net_gates):
        gate, net = net_gates(0.3)
        assert net.metadata["certificate_method"] == "exact-bloch"
        target = ch.random_unitary(2, np.random.default_rng(3))
        program, err = pqg.program_for_target(gate, target)
        assert err.method == "exact-bloch" and err.n_samples == 0
        assert err.value == pqg._bloch_error(np.asarray(gate.blocks), program, target)
        assert err.value >= pqg.approximation_error(gate, program, target).value - 1e-12

    def test_qutrit_errors_stay_sampled(self):
        gate, net = pqg.net_gate(1.2, 3, seed=0, n_targets=4)
        assert "haar-sampling+ascent" in net.metadata["certificate_method"]
        assert "exact-bloch" not in net.metadata["certificate_method"]


def test_gate_side_never_imports_scipy():
    # Net calibration, a product-target witness and emulation on the depolarizing
    # dilation all run on numpy alone.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from densecode import channels as ch, pqg\n"
        "pqg.net_gate(0.5, 2)\n"
        "x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])\n"
        "rng = np.random.default_rng(1)\n"
        "g = pqg.control_gate([ch.random_unitary(2, rng) for _ in range(8)])\n"
        "pqg.scalability_witness(g, g, np.kron(x, z), pqg.WitnessConfig(fw_iterations=5))\n"
        "dep = ch.QuantumChannel.depolarizing(0.6)\n"
        "target, _ = pqg.dilation_unitary(dep)\n"
        "gate, _ = pqg.net_gate_around([target], 0.1, seed=2)\n"
        "pqg.emulate_encoding(dep, gate, 0.1, n_samples=20, seed=2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestProgramOrthogonality:
    def test_basis_programs_consistent(self):
        gate = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
        verdict = pqg.program_orthogonality_check(
            gate, qmath.basis_state(2, 0), qmath.basis_state(2, 1)
        )
        assert verdict.consistent and verdict.orthogonal and not verdict.proportional

    def test_global_phase_pair_consistent(self):
        gate = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
        psi = qmath.basis_state(2, 0)
        phased = qmath.PureState((2,), np.exp(0.7j) * psi.amplitudes)
        verdict = pqg.program_orthogonality_check(gate, psi, phased)
        assert verdict.consistent and verdict.proportional

    def test_rejects_non_program(self):
        gate = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
        with pytest.raises(NotAProgramError):
            pqg.program_orthogonality_check(gate, plus_state(), qmath.basis_state(2, 0))

    def test_randomized_search_finds_no_violation(self):
        # Non-orthogonal program pairs must always carry proportional
        # unitaries; the generator mixes repeated-block superpositions so
        # both branches of the dichotomy actually occur.
        hits = 0
        for seed in range(300):
            gate, psi1, psi2 = pqg.random_program_instance(seed)
            verdict = pqg.program_orthogonality_check(gate, psi1, psi2)
            assert verdict.consistent
            if verdict.overlap > 1e-3 and not verdict.orthogonal:
                hits += 1
        assert hits > 30


@pytest.fixture
def pool_sizes(monkeypatch):
    """Atom counts of the pools that net calibration tries, in order."""
    sizes = []
    build = pqg.control_gate
    monkeypatch.setattr(pqg, "control_gate",
                        lambda atoms: sizes.append(len(atoms)) or build(atoms))
    return sizes


class TestNetGate:
    def test_vacuous_epsilon_accepts_tiny_net(self):
        gate, net = pqg.net_gate(2.0, 2, seed=1, n_targets=20)
        assert len(net.elements) <= 64
        assert net.metadata["certificate_max_program_error"] <= 2.0

    def test_certified_at_point_three(self, net_gates):
        gate, net = net_gates(0.3)
        assert net.metadata["certificate_max_program_error"] <= 0.3
        assert len(net.elements) <= pqg.MAX_PROGRAM_DIM

    def test_deterministic_under_seed(self):
        a, _ = pqg.net_gate(0.5, 2, seed=3, n_targets=10)
        b, _ = pqg.net_gate(0.5, 2, seed=3, n_targets=10)
        assert len(a.blocks) == len(b.blocks)
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))

    def test_size_guard_trips_for_tiny_epsilon(self):
        with pytest.raises(SizeGuardError):
            pqg.net_gate(0.005, 2, seed=4, n_targets=5)

    def test_qutrit_pool_is_independent_of_the_targets(self):
        # The calibration targets are the first Haar draws of default_rng(seed);
        # a pool drawn from that same stream would certify 0.0 for any epsilon.
        gate, net = pqg.net_gate(1.2, 3, seed=0, n_targets=10)
        assert 0.0 < net.metadata["certificate_max_program_error"] <= 1.2
        rng = np.random.default_rng(0)
        for _ in range(10):
            target = ch.random_unitary(3, rng)
            assert not any(np.array_equal(target, atom) for atom in gate.blocks)

    def test_qutrit_size_guard_trips_for_small_epsilon(self, monkeypatch):
        draws = []
        draw = ch.random_unitary
        monkeypatch.setattr(ch, "random_unitary", lambda *a: draws.append(a) or draw(*a))
        with pytest.raises(SizeGuardError):
            pqg.net_gate(0.05, 3, seed=0, n_targets=10)
        # 10 targets and the pools of 36 ... 4021 atoms; the 6434-atom pool is never drawn.
        assert len(draws) == 10_666

    # Size, certificate and covering radius of the seed-42 qubit nets.
    QUBIT_PINS = {
        0.5: (42, 0.4719559571219482, 1.050997525889224),
        0.3: (103, 0.26714340028063965, 0.7564713181972887),
        0.2: (254, 0.14559193331679998, 0.5461225114894517),
        0.1: (616, 0.08892419486521651, 0.4365422250857447),
    }

    def test_calibration_pins(self, net_gates, pool_sizes):
        # Which pool calibration accepts: a changed pool order, spacing, growth
        # or spread rule moves these far past the tolerances.
        for eps, (size, certificate, radius) in self.QUBIT_PINS.items():
            _, net = net_gates(eps)
            assert len(net.elements) == net.metadata["size"] == size
            assert net.metadata["certificate_max_program_error"] == pytest.approx(
                certificate, abs=1e-9)
            assert net.covering_radius == pytest.approx(radius, abs=1e-9)
        _, net = pqg.net_gate(1.2, 3, seed=0, n_targets=10)
        assert len(net.elements) == 383
        assert net.metadata["certificate_max_program_error"] == pytest.approx(
            1.1923400981698729, abs=1e-9)
        assert net.covering_radius == pytest.approx(1.506286079161764, abs=1e-9)
        pool_sizes.clear()
        targets = [np.eye(3), ch.random_unitary(3, np.random.default_rng(0))]
        _, net = pqg.net_gate_around(targets, 3e-6, seed=0)
        assert pool_sizes == [56] * 2  # the spread shrinks once
        assert net.metadata["certificate_max_program_error"] == pytest.approx(
            7.608308369402738e-7, rel=1e-6)
        assert math.isnan(net.covering_radius)

    def test_target_local_failure_after_eight_pools(self, pool_sizes):
        with pytest.raises(InvariantError, match="certification failed"):
            pqg.net_gate_around([np.eye(4)], 1e-6)
        assert pool_sizes == [32] * 8

    @pytest.mark.parametrize("build", [
        lambda seed: pqg.net_gate(2.0, 2, seed=seed, n_targets=1),
        lambda seed: pqg.net_gate_around([np.eye(2)], 2.0, seed=seed),
        lambda seed: pqg.emulate_encoding(ch.QuantumChannel.from_unitary(PAULI_X),
                                          pqg.control_gate([np.eye(2)]), 0.1, seed=seed),
    ], ids=["net_gate", "net_gate_around", "emulate_encoding"])
    @pytest.mark.parametrize("seed", [None, True, -1, np.random.default_rng(0)],
                             ids=["none", "bool", "negative", "generator"])
    def test_seed_must_be_a_non_negative_integer(self, build, seed):
        # The one seed rule of qmath.require_seed: no OS entropy, no Generator.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            build(seed)

    def test_program_for_target_beats_single_atom(self, net_gates):
        gate, net = net_gates(0.3)
        rng = np.random.default_rng(7)
        target = ch.random_unitary(2, rng)
        program, err = pqg.program_for_target(gate, target, seed=8)
        best_atom = min(pqg.unitary_map_distance(target, b) for b in gate.blocks)
        assert err.value <= best_atom + 1e-9


class TestBoundedAscent:
    """Program selection cuts a mixture's sup ascent once the mixture cannot win."""

    @staticmethod
    def cut_and_full(monkeypatch, build):
        """``build()`` with the ceilings program selection passes, then with none."""
        sup, cut_short = pqg.estimate_sup_error, []

        def recording(*args, ceiling=math.inf, **kwargs):
            err = sup(*args, ceiling=ceiling, **kwargs)
            cut_short.append(err.value > ceiling)
            return err

        monkeypatch.setattr(pqg, "estimate_sup_error", recording)
        cut = build()
        monkeypatch.setattr(pqg, "estimate_sup_error",
                            lambda *args, ceiling=math.inf, **kwargs: sup(*args, **kwargs))
        return cut, build(), cut_short

    @staticmethod
    def assert_same_net(a, b):
        (gate_a, net_a), (gate_b, net_b) = a, b
        assert np.array_equal(gate_a.blocks, gate_b.blocks)
        assert net_a.method == net_b.method
        assert net_a.metadata == net_b.metadata  # size, certificate, certificate_method, solves

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lam", [0.4, 0.95])
    def test_emulation_decisions_unchanged(self, monkeypatch, seed, lam):
        # The perfbench emulate settings: epsilon 0.1, 10 atoms per target, 2 decoys, 20 samples.
        channel = ch.QuantumChannel.depolarizing(lam)
        target, _ = pqg.dilation_unitary(channel)

        def build():
            gate, net = pqg.net_gate_around([target], 0.1, seed=seed, n_atoms_per_target=10,
                                            n_decoys=2)
            return (gate, net), pqg.emulate_encoding(channel, gate, 0.1, n_samples=20, seed=seed)

        (net_cut, rep_cut), (net_full, rep_full), cut_short = self.cut_and_full(monkeypatch, build)
        assert any(cut_short)  # the pools that miss epsilon cut their mixtures' ascents
        self.assert_same_net(net_cut, net_full)
        assert np.array_equal(rep_cut.program.amplitudes, rep_full.program.amplitudes)
        assert rep_cut.program_error == rep_full.program_error
        assert rep_cut.measured_error == rep_full.measured_error

    def test_qutrit_net_decisions_unchanged(self, monkeypatch):
        cut, full, cut_short = self.cut_and_full(
            monkeypatch, lambda: pqg.net_gate(1.2, 3, seed=0, n_targets=10))
        self.assert_same_net(cut, full)
        assert any(cut_short)  # some mixture ascents were in fact cut

    def test_qutrit_program_for_target_unchanged(self, monkeypatch):
        # One atom 1e-2 from each target among random ones: most mixtures lose to it.
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(8):
            target = ch.random_unitary(3, rng)
            g = rng.standard_normal((2, 3, 3))
            h = qmath.hermitize(g[0] + 1j * g[1])
            h *= 1e-2 / np.abs(np.linalg.eigvalsh(h)).max()
            near = target @ qmath.hermitian_function(h, lambda lam: np.exp(-1j * lam))
            atoms = [near] + [ch.random_unitary(3, rng) for _ in range(10)]
            cases.append((pqg.control_gate(atoms), target))

        def build():
            return [pqg.program_for_target(gate, t, seed=s) for s, (gate, t) in enumerate(cases)]

        cut, full, cut_short = self.cut_and_full(monkeypatch, build)
        for (prog_a, err_a), (prog_b, err_b) in zip(cut, full):
            assert np.array_equal(prog_a.amplitudes, prog_b.amplitudes)
            assert err_a == err_b
        assert any(cut_short)

    def test_early_stop_returns_above_its_ceiling(self):
        rng = np.random.default_rng(9)
        stopped = 0
        for trial in range(12):
            weights = rng.dirichlet(np.ones(3))
            kraus = np.sqrt(weights)[:, None, None] * np.array(
                [ch.random_unitary(3, rng) for _ in range(3)])
            target = ch.random_unitary(3, rng)
            full = pqg.estimate_sup_error(kraus, target, 50, trial)
            for ceiling in (0.0, 0.5 * full.value, full.value - 1e-3, full.value, 2.0, math.inf):
                cut = pqg.estimate_sup_error(kraus, target, 50, trial, ceiling=ceiling)
                assert cut.value <= full.value
                if cut != full:
                    assert cut.value > ceiling
                    stopped += 1
                if ceiling >= full.value:
                    assert cut == full
        assert stopped >= 12  # at least the ceiling 0 cuts every estimate


class TestValidation:
    def test_nets_need_a_target(self):
        with pytest.raises(InvariantError):
            pqg.net_gate_around([], 0.1)
        with pytest.raises(InvariantError):
            pqg.net_gate(0.5, 2, n_targets=0)

    @pytest.mark.parametrize("call", [
        lambda gate: pqg.net_gate_around([np.ones((2, 3))], 0.5),
        lambda gate: pqg.net_gate_around([np.eye(2), np.eye(3)], 0.5),
        lambda gate: pqg.net_gate_around([np.ones(4)], 0.5),
        lambda gate: pqg.approximation_error(gate, qmath.basis_state(4, 0), np.ones((2, 3))),
        lambda gate: pqg.program_for_target(gate, np.ones((3, 2))),
        lambda gate: pqg.scalability_witness(gate, gate, np.eye(2)),
    ], ids=["around-non-square", "around-mixed-sides", "around-vector", "approximation_error",
            "program_for_target", "scalability_witness"])
    def test_target_shape_is_checked(self, pauli_gate, call):
        with pytest.raises(DimensionMismatchError):
            call(pauli_gate)

    @pytest.mark.parametrize("call", [
        lambda gate: pqg.approximation_error(gate, qmath.basis_state(4, 0), 2 * np.eye(2)),
        lambda gate: pqg.program_for_target(gate, 2 * np.eye(2)),
        lambda gate: pqg.scalability_witness(gate, gate, 2 * np.eye(4)),
        lambda gate: pqg.net_gate_around([2 * np.eye(2)], 0.5),
    ], ids=["approximation_error", "program_for_target", "scalability_witness", "around"])
    def test_non_unitary_target_is_rejected(self, pauli_gate, call):
        # 2 I would score trace distances above 2 (or 0 as an "exact unitary").
        with pytest.raises(InvariantError, match="not unitary"):
            call(pauli_gate)

    @pytest.mark.parametrize("call", [
        lambda gate: pqg.program_for_target(gate, np.eye(2), n_nearest=0),
        lambda gate: pqg.program_for_target(gate, np.eye(2), n_nearest=-1),
        lambda gate: pqg.net_gate_around([np.eye(2)], 0.5, n_atoms_per_target=0),
        lambda gate: pqg.net_gate_around([np.eye(2)], 0.5, n_atoms_per_target=-1),
        lambda gate: pqg.net_gate_around([np.eye(2)], 0.5, n_decoys=-2),
    ], ids=["n_nearest=0", "n_nearest=-1", "n_atoms_per_target=0", "n_atoms_per_target=-1",
            "n_decoys=-2"])
    def test_selection_sizes_are_checked(self, pauli_gate, call):
        with pytest.raises(InvariantError, match=r"needs n_\w+ >= "):
            call(pauli_gate)

    @pytest.mark.parametrize("weights, message", [
        ({-1: 1.0}, "block index"), ({4: 1.0}, "block index"), ({0: -1.0, 1: 1.0}, "negative"),
    ], ids=["index=-1", "index=4", "weight=-1"])
    def test_mixture_program_rejects_bad_weights(self, pauli_gate, weights, message):
        # Unchecked, {-1: 1} would take the last block and {0: -1, 1: 1} become block 1.
        with pytest.raises(InvariantError, match=message):
            pqg.mixture_program(pauli_gate, weights)
        # Rounding-level negatives are still clipped.
        psi = pqg.mixture_program(pauli_gate, {0: -1e-13, 1: 1.0})
        assert np.array_equal(psi.amplitudes, qmath.basis_state(4, 1).amplitudes)

    @pytest.mark.parametrize("field, value", [
        ("n_inputs", 0), ("fw_iterations", -1), ("sup_samples", -1),
        ("seed", None), ("seed", -1), ("seed", 1.5), ("seed", True),
        pytest.param("seed", np.int64(-1), id="seed-int64(-1)"),
    ])
    def test_witness_config_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError):
            pqg.WitnessConfig(**{field: value})
        pqg.WitnessConfig(n_inputs=1, fw_iterations=0, sup_samples=0, seed=np.int64(0))

    @pytest.mark.parametrize("seed", [None, True, -1, np.random.default_rng(0)],
                             ids=["None", "True", "-1", "Generator"])
    @pytest.mark.parametrize("call", [
        lambda gate, seed: pqg.approximation_error(gate, qmath.basis_state(4, 0), PAULI_X, seed),
        lambda gate, seed: pqg.program_for_target(gate, PAULI_X, seed=seed),
        lambda gate, seed: pqg.estimate_sup_error(PAULI_X[None], PAULI_X, seed=seed),
    ], ids=["approximation_error", "program_for_target", "estimate_sup_error"])
    def test_gate_side_seed_must_be_a_non_negative_integer(self, pauli_gate, call, seed):
        # None would draw OS entropy and True run as seed 1.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            call(pauli_gate, seed)


class TestScalabilityWitness:
    def test_cnot_on_pauli_gates_stays_high(self, pauli_gate):
        report = pqg.scalability_witness(pauli_gate, pauli_gate, CNOT)
        assert report.best_error > 0.1
        assert report.sup_estimate.value > 0.1

    def test_grid_oracle_validates_threshold(self, pauli_gate, pauli_cnot_oracle):
        # Criterion 10's independent oracle: exhaustive Dirichlet sampling over
        # the 16 pair weights (10^4 points) plus convex polish must agree with
        # the witness and stay above the frozen 0.1 threshold.
        cfg = pqg.WitnessConfig(seed=0)
        value = pauli_cnot_oracle
        assert value > 0.1
        report = pqg.scalability_witness(pauli_gate, pauli_gate, CNOT, cfg)
        assert report.best_error > 0.1
        assert abs(report.best_error - value) < 0.05

    def test_product_target_on_pauli_gates_is_exact(self, pauli_gate):
        report = pqg.scalability_witness(pauli_gate, pauli_gate, np.kron(PAULI_X, PAULI_Z))
        assert report.best_error == pytest.approx(0.0, abs=1e-9)

    def test_product_target_on_nets(self, net_gates):
        gate, _ = net_gates(0.3)
        report = pqg.scalability_witness(gate, gate, np.kron(PAULI_X, PAULI_Z))
        assert report.best_error <= 0.3 + 0.3 + 0.05

    def test_witness_determinism(self, net_gates):
        # One seed, one report: weights, errors and the dual bound included.
        gate, _ = net_gates(0.3)
        cfg = pqg.WitnessConfig(seed=5, fw_iterations=30)
        first = pqg.scalability_witness(gate, gate, CNOT, cfg)
        second = pqg.scalability_witness(gate, gate, CNOT, cfg)
        assert first.lower_bound is not None
        assert first == second

    def test_general_path_has_no_lower_bound(self, monkeypatch):
        monkeypatch.setattr(pqg, "GENERAL_RESTARTS", 1)
        gate = pqg.ProgrammableGate(2, 2, unitary=np.kron(PAULI_X, np.eye(2)))
        report = pqg.scalability_witness(gate, gate, CNOT, pqg.WitnessConfig(sup_samples=10))
        assert report.method == "general-sphere-descent"
        assert report.lower_bound is None

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n1=st.integers(1, 4),
        n2=st.integers(1, 4),
        d1=st.sampled_from([2, 3]),
        d2=st.sampled_from([2, 3]),
    )
    def test_lower_bound_is_below_every_mixture(self, seed, n1, n2, d1, d2):
        rng = np.random.default_rng(seed)
        blocks1 = np.array([ch.random_unitary(d1, rng) for _ in range(n1)])
        blocks2 = np.array([ch.random_unitary(d2, rng) for _ in range(n2)])
        target = ch.random_unitary(d1 * d2, rng)
        cfg = pqg.WitnessConfig(n_inputs=6, seed=seed, sup_samples=10, fw_iterations=15)
        report = pqg.scalability_witness(
            pqg.control_gate(blocks1), pqg.control_gate(blocks2), target, cfg
        )
        bound = report.lower_bound
        assert bound.method == "frank-wolfe-dual" and bound.n_samples == 6
        assert bound.value <= report.best_error
        # Independent scoring of pair mixtures on the witness's inputs.
        inputs = qmath.haar_vectors(np.random.default_rng(seed), 6, d1 * d2)
        y = np.stack([inputs @ np.kron(u, v).T for u in blocks1 for v in blocks2])
        t_out = inputs @ target.T
        targets = np.einsum("sa,sb->sab", t_out, t_out.conj())

        def mixture_error(w):
            out = np.einsum("p,psa,psb->sab", w, y, y.conj())
            return float(np.mean(qmath.hermitian_trace_norm(targets - out)))

        values = [report.best_error] + [
            mixture_error(w) for w in rng.dirichlet(np.full(n1 * n2, 0.5), size=20)
        ]
        # The slack covers rounding where a mixture is the optimum (one pair).
        assert bound.value <= min(values) + 1e-12
        # With no step, the bound is the dual value at the start point,
        # recomputed here pair by pair: mean tr[S T] - max_p mean tr[S A_p].
        uniform = np.full(n1 * n2, 1.0 / (n1 * n2))
        _, _, start_bound = pqg._frank_wolfe(
            blocks1, blocks2, target, inputs, uniform.reshape(n1, n2), 0
        )
        out = np.einsum("p,psa,psb->sab", uniform, y, y.conj())
        # np.sign differs from 2 u u^dag by -I, which cancels in the trace-zero
        # dual - score, and by noise on the gap's kernel, which is orthogonal to
        # T z and to every pair output at the uniform start.
        signs = qmath.hermitian_function(targets - out, np.sign)
        dual = np.mean([np.vdot(z, s @ z).real for z, s in zip(t_out, signs)])
        scores = [np.mean([np.vdot(z, s @ z).real for z, s in zip(yp, signs)]) for yp in y]
        expected = min(mixture_error(uniform), dual - max(scores))
        assert start_bound == pytest.approx(expected, abs=1e-12)
        assert start_bound <= min(values) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), d=st.sampled_from([2, 4, 9]), data=st.data())
    def test_top_vector_is_the_gap_subgradient(self, seed, d, data):
        # Delta = phi phi^dag - sigma, sigma of rank 1..d: rank 1 leaves a kernel.
        rank = data.draw(st.integers(1, d))
        rng = np.random.default_rng(seed)
        phi = qmath.haar_vectors(rng, 1, d)
        sigma = ch.random_state((d,), rank, rng).entries
        delta = pqg._projectors(phi)[0] - sigma
        lam, vec = np.linalg.eigh(delta)
        assert np.sum(lam > qmath.EIG_CUTOFF) <= 1
        norm = qmath.hermitian_trace_norm(delta)
        assert abs(norm - 2.0 * lam[-1]) < 1e-12
        u = pqg._top_vectors(lam, vec)
        assert abs(np.trace(2.0 * np.outer(u, u.conj()) @ delta).real - norm) < 1e-12
        # A gap that vanishes to rounding keeps the subgradient 0, not a noise eigenvector.
        zero = pqg._projectors(phi) - pqg._projectors(phi * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        assert not np.any(pqg._top_vectors(*np.linalg.eigh(zero)))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_target_keeps_a_zero_bound(self, pauli_gate, seed):
        # X (x) Z is the block pair (X, Z): every gap at the optimum is 0 to
        # rounding, where a noise eigenvector would pull the dual bound below 0.
        report = pqg.scalability_witness(pauli_gate, pauli_gate, np.kron(PAULI_X, PAULI_Z),
                                         pqg.WitnessConfig(seed=seed))
        assert report.lower_bound.value == 0.0

    def test_swap_gates_cannot_fake_cnot(self, monkeypatch):
        # Swap gates pass entangled program states straight into the data
        # register, yet no program makes the induced map a CNOT conjugation.
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        gate = pqg.ProgrammableGate(2, 2, unitary=swap)
        monkeypatch.setattr(pqg, "GENERAL_RESTARTS", 6)
        report = pqg.scalability_witness(gate, gate, CNOT)
        assert report.best_error > 0.1
        assert report.method == "general-sphere-descent"
        assert report.amplitudes.shape == (4,)
        assert np.linalg.norm(report.amplitudes) == pytest.approx(1.0)

    def test_monotone_family(self, net_gates, pauli_gate):
        # Finer nets push product targets toward zero while the entangling
        # target never dips under the frozen threshold.
        product_errors = []
        for eps in (0.5, 0.3):
            gate, _ = net_gates(eps)
            rep = pqg.scalability_witness(gate, gate, np.kron(PAULI_X, PAULI_Z))
            product_errors.append(rep.best_error)
            repc = pqg.scalability_witness(
                gate, gate, CNOT, pqg.WitnessConfig(fw_iterations=40)
            )
            assert repc.best_error > 0.1
        assert product_errors[1] <= product_errors[0] + 1e-9


class TestEmulation:
    def test_exact_unitary_channel(self):
        chan = ch.QuantumChannel.from_unitary(PAULI_X)
        target, _ = pqg.dilation_unitary(chan)
        gate = pqg.control_gate([target, np.eye(2, dtype=complex)])
        report = pqg.emulate_encoding(chan, gate, 0.1, n_samples=50, seed=1)
        assert report.measured_error == pytest.approx(0.0, abs=1e-10)

    def test_numpy_integer_seed_is_accepted_and_a_generator_is_not(self):
        # A NumPy integer is an integer seed; a Generator is not a seed.
        chan = ch.QuantumChannel.from_unitary(PAULI_X)
        target, _ = pqg.dilation_unitary(chan)
        gate = pqg.control_gate([target, np.eye(2, dtype=complex)])
        reports = [pqg.emulate_encoding(chan, gate, 0.1, n_samples=5, seed=seed)
                   for seed in (3, np.int64(3))]
        assert reports[0].measured_error == reports[1].measured_error
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            pqg.emulate_encoding(chan, gate, 0.1, n_samples=5, seed=np.random.default_rng(3))

    def test_depolarizing_through_certified_gate(self):
        dep = ch.QuantumChannel.depolarizing(1.0)
        target, d_env = pqg.dilation_unitary(dep)
        assert d_env == 4
        gate, net = pqg.net_gate_around([target], 0.1, seed=7)
        report = pqg.emulate_encoding(dep, gate, 0.1, n_samples=100, seed=3)
        assert report.measured_error <= 0.1
        assert report.measured_error > 0.0

    def test_dilation_reproduces_channel(self):
        chan = ch.random_channel(2, 2, 3, seed=5)
        target, d_env = pqg.dilation_unitary(chan)
        rng = np.random.default_rng(6)
        for _ in range(10):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z /= np.linalg.norm(z)
            lifted = np.zeros(2 * d_env, dtype=complex)
            lifted[::d_env] = z
            out = target @ lifted
            big = qmath.DensityMatrix((2, d_env), np.outer(out, out.conj()))
            reduced = qmath.partial_trace(big, {0})
            truth = ch.apply(chan, qmath.DensityMatrix((2,), np.outer(z, z.conj())))
            assert qmath.trace_distance(reduced, truth) < 1e-10

    def test_entangling_channel_cannot_be_emulated_on_tensored_gates(self, pauli_gate):
        cnot_channel = ch.QuantumChannel.from_unitary(CNOT)
        tensored = pqg.tensor_gates(pauli_gate, pauli_gate)
        report = pqg.emulate_encoding(cnot_channel, tensored, 0.1, n_samples=100, seed=4)
        assert report.measured_error > 0.1

    @pytest.mark.parametrize(
        "channel",
        [ch.QuantumChannel.depolarizing(0.6), ch.random_channel(2, 2, 2, seed=9)],
        ids=["depolarizing", "random"],
    )
    def test_measured_error_matches_per_sample_route(self, channel):
        # Reference: lift each sample to z (x) |0>, run the induced map on the
        # dilation register, trace out the environment, compare with the channel.
        target, d_env = pqg.dilation_unitary(channel)
        rng = np.random.default_rng(2)
        side = target.shape[0]
        gate = pqg.control_gate([ch.random_unitary(side, rng) for _ in range(3)])
        report = pqg.emulate_encoding(channel, gate, 0.1, n_samples=30, seed=5)
        induced = pqg.induced_map(gate, report.program)
        d_in = channel.d_in
        e0 = np.zeros(d_env, dtype=complex)
        e0[0] = 1.0
        worst = 0.0
        for z in qmath.haar_vectors(np.random.default_rng(5), 30, d_in):
            truth = ch.apply(channel, qmath.DensityMatrix((d_in,), np.outer(z, z.conj())))
            lifted = np.kron(z, e0)
            big = qmath.DensityMatrix((side,), np.outer(lifted, lifted.conj()))
            routed = ch.apply(induced, big)
            emulated = qmath.partial_trace(qmath.DensityMatrix((d_in, d_env), routed.entries), {0})
            worst = max(worst, qmath.trace_distance(truth, emulated))
        assert worst > 0.01
        assert report.measured_error == pytest.approx(worst, abs=1e-12)


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 2)])
def test_pair_operators_match_kron(d1, d2):
    rng = np.random.default_rng(10 * d1 + d2)

    def blocks(n, d):
        return np.array([rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                         for _ in range(n)])

    blocks1, blocks2 = blocks(4, d1), blocks(5, d2)
    grid = [(j, l) for j in range(4) for l in range(5)]
    shortlist = [(3, 0), (1, 4), (1, 1), (0, 2), (3, 0)]
    for pairs in (grid, shortlist):
        ops = pqg._pair_operators(blocks1, blocks2, np.array(pairs))
        expected = np.stack([np.kron(blocks1[j], blocks2[l]) for j, l in pairs])
        assert ops.shape == expected.shape
        assert np.max(np.abs(ops - expected)) < 1e-12


def test_tensor_gates_blocks():
    a = pqg.control_gate([np.eye(2, dtype=complex), PAULI_X])
    b = pqg.control_gate([np.eye(2, dtype=complex), PAULI_Z])
    joint = pqg.tensor_gates(a, b)
    assert joint.d_data == 4 and joint.d_program == 4
    assert np.allclose(joint.blocks[1], np.kron(np.eye(2), PAULI_Z))
    assert np.allclose(joint.blocks[2], np.kron(PAULI_X, np.eye(2)))
    rng = np.random.default_rng(4)
    a = pqg.control_gate([ch.random_unitary(2, rng) for _ in range(3)])
    b = pqg.control_gate([ch.random_unitary(3, rng) for _ in range(2)])
    joint = pqg.tensor_gates(a, b)
    assert (joint.d_data, joint.d_program) == (6, 6)
    for j, u in enumerate(a.blocks):
        for l, v in enumerate(b.blocks):
            assert np.max(np.abs(joint.blocks[j * 2 + l] - np.kron(u, v))) < 1e-12


@pytest.mark.parametrize("d1, d2", [(2, 3), (3, 2)])
def test_factored_pair_scores_match_direct_traces(d1, d2):
    # sum_s tr[M_s W rho_s W^dag] per pair W = U_j (x) V_l, pair by pair.
    rng = np.random.default_rng(20 + d1)
    blocks1 = np.array([ch.random_unitary(d1, rng) for _ in range(3)])
    blocks2 = np.array([ch.random_unitary(d2, rng) for _ in range(4)])
    inputs = qmath.haar_vectors(rng, 5, d1 * d2)
    g = rng.standard_normal((5, 2, d1 * d2, d1 * d2))
    m = qmath.hermitize(g[:, 0] + 1j * g[:, 1])
    scores = pqg._pair_scores(blocks1, blocks2, inputs, m)
    assert scores.shape == (3, 4)
    for j, u in enumerate(blocks1):
        for l, v in enumerate(blocks2):
            outs = inputs @ np.kron(u, v).T
            direct = sum(np.vdot(y, ms @ y).real for y, ms in zip(outs, m))
            assert abs(scores[j, l] - direct) <= 1e-12


def test_unitary_map_distance_examples():
    assert pqg.unitary_map_distance(np.eye(2), np.eye(2) * np.exp(0.3j)) == pytest.approx(0.0)
    assert pqg.unitary_map_distance(np.eye(2), PAULI_X) == pytest.approx(2.0)
    rz = np.diag([1.0, np.exp(0.2j)])
    assert pqg.unitary_map_distance(np.eye(2), rz) == pytest.approx(
        2 * math.sin(0.1), abs=1e-12
    )
    # On C^1 every unitary is a phase, so every conjugation is the identity map.
    assert pqg.unitary_map_distance(np.eye(1), [[1j]]) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_unitary_map_distances_match_scalar_loop(d):
    rng = np.random.default_rng(90 + d)
    u = ch.random_unitary(d, rng)
    # Haar atoms plus the exact target, a global phase of it and the identity.
    stack = np.array([ch.random_unitary(d, rng) for _ in range(200)] + [u, 1j * u, np.eye(d)])
    batched = pqg._unitary_map_distances(u, stack)
    # 2 sin(L / 2), L the shortest arc holding every eigenphase of u^dag v, and 2 once L >= pi.
    expected = []
    for v in stack:
        phases = np.sort(np.angle(np.linalg.eigvals(u.conj().T @ v)))
        wrap = 2 * math.pi - (phases[-1] - phases[0])
        span = 2 * math.pi - max(np.diff(phases).max(), wrap)
        expected.append(2.0 if span >= math.pi else 2 * math.sin(span / 2))
    # The qubit trace formula is ill-conditioned at distance 0: sqrt of a rounding error.
    exact = np.arange(len(stack)) >= len(stack) - 3
    assert np.max(np.abs(batched - expected)[~exact]) <= 1e-12
    assert np.max(np.abs(batched - expected)[exact]) <= 1e-7
    assert batched[-3] == pytest.approx(0.0, abs=1e-7)
    assert [pqg.unitary_map_distance(u, v) for v in stack] == list(batched)
