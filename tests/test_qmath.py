import math

import numpy as np
import pytest

from densecode import channels as ch
from densecode import qmath
from densecode.errors import DimensionMismatchError, InvariantError

from conftest import haar_pure


def test_tensor_basis_product():
    zero = qmath.basis_state(2, 0).to_density()
    prod = qmath.tensor(zero, zero)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert prod.dims == (2, 2)
    assert np.allclose(prod.entries, expected)


def test_tensor_maximally_mixed():
    half = qmath.maximally_mixed((2,))
    quarter = qmath.tensor(half, half)
    assert quarter.dims == (2, 2)
    assert np.allclose(quarter.entries, np.eye(4) / 4)


def test_tensor_pure_product_of_singlets():
    rho = qmath.singlet().to_density()
    prod = qmath.tensor(rho, rho)
    assert prod.dims == (2, 2, 2, 2)
    eigs = np.linalg.eigvalsh(prod.entries)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(eigs > 1e-12) == 1


class TestPartialTrace:
    def test_singlet_marginal(self):
        rho = qmath.singlet().to_density()
        marginal = qmath.partial_trace(rho, {1})
        assert np.allclose(marginal.entries, np.eye(2) / 2)

    def test_product_marginal(self):
        rho = qmath.tensor_pure(qmath.basis_state(2, 0), qmath.basis_state(2, 0)).to_density()
        kept = qmath.partial_trace(rho, {0})
        assert np.allclose(kept.entries, qmath.basis_state(2, 0).to_density().entries)

    def test_recovers_tensor_factor_exactly(self):
        rho = ch.random_state((2, 3), 2, seed=1)
        sigma = ch.random_state((2,), 2, seed=2)
        joint = qmath.tensor(rho, sigma)
        back = qmath.partial_trace(joint, {0, 1})
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-14

    def test_bad_index(self):
        rho = qmath.maximally_mixed((2, 2))
        with pytest.raises(DimensionMismatchError):
            qmath.partial_trace(rho, {5})


class TestEntropy:
    def test_uniform_qubit(self):
        assert qmath.von_neumann_entropy(qmath.maximally_mixed((2,))) == pytest.approx(1.0)

    def test_pure_state(self):
        rho = haar_pure((4,), seed=3).to_density()
        assert abs(qmath.von_neumann_entropy(rho)) < 1e-10

    def test_two_level_spectrum(self):
        # Oracle: direct evaluation of -0.9 log2 0.9 - 0.1 log2 0.1.
        expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert expected == pytest.approx(0.4690, abs=1e-4)
        rho = qmath.DensityMatrix((2,), np.diag([0.9, 0.1]).astype(complex))
        assert qmath.von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("spectrum", [[], [1.0], [0.0, 1.0, 1e-13]])
    def test_pure_spectrum_is_positive_zero(self, spectrum):
        h = qmath.entropy_of_spectrum(np.array(spectrum))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_invariance(self, seed):
        rho = ch.random_state((4,), 3, seed=seed)
        u = ch.random_unitary(4, seed + 100)
        rotated = qmath.DensityMatrix((4,), u @ rho.entries @ u.conj().T)
        assert abs(
            qmath.von_neumann_entropy(rotated) - qmath.von_neumann_entropy(rho)
        ) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_subadditivity(self, seed):
        rho = ch.random_state((2, 3), 4, seed=seed)
        h = qmath.von_neumann_entropy(rho)
        h_a = qmath.von_neumann_entropy(qmath.partial_trace(rho, {0}))
        h_b = qmath.von_neumann_entropy(qmath.partial_trace(rho, {1}))
        assert h <= h_a + h_b + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_entropy_gain_bounded_by_traced_dimension(self, seed):
        rho = ch.random_state((2, 4), 3, seed=seed)
        h = qmath.von_neumann_entropy(rho)
        h_b = qmath.von_neumann_entropy(qmath.partial_trace(rho, {1}))
        assert h >= h_b - math.log2(2) - 1e-9


class TestCoherentInformation:
    """H(rho_B) - H(rho), B the factors outside the sender's."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2, 2), (2, 2, 2), (2, 3, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_first_factor_sender_bit_for_bit(self, dims, seed):
        # Fusing the factors after the first moves no entry, so the value is the
        # plain difference of the two entropies to the last bit.
        rho = ch.random_state(dims, 1 + seed * 2, seed=seed + 60)
        h_b = qmath.von_neumann_entropy(qmath.partial_trace(rho, range(1, len(dims))))
        assert qmath.coherent_information(rho, (0,)) == h_b - qmath.von_neumann_entropy(rho)
        assert qmath.coherent_information(rho) == h_b - qmath.von_neumann_entropy(rho)

    @pytest.mark.parametrize("a_factors", [(1,), (2,), (0, 2), (1, 2)])
    def test_any_sender_factors(self, a_factors):
        rho = ch.random_state((2, 3, 2), 5, seed=70)
        rest = [i for i in range(3) if i not in a_factors]
        h_b = qmath.von_neumann_entropy(qmath.partial_trace(rho, rest))
        want = h_b - qmath.von_neumann_entropy(rho)
        assert qmath.coherent_information(rho, a_factors) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("a_factors", [(), (0, 1), (5,)])
    def test_needs_a_proper_bipartition(self, a_factors):
        with pytest.raises(DimensionMismatchError):
            qmath.coherent_information(qmath.maximally_mixed((2, 2)), a_factors)


class TestRelativeEntropy:
    def test_identity_case(self):
        rho = ch.random_state((2, 2), 2, seed=5)
        assert qmath.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_singlet_vs_maximally_mixed(self):
        # Oracle: -H(psi) - Tr rho log2(I/4) = 0 + log2 4.
        rho = qmath.singlet().to_density()
        assert qmath.relative_entropy(rho, qmath.maximally_mixed((2, 2))) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_disjoint_support(self):
        a = qmath.basis_state(2, 0).to_density()
        b = qmath.basis_state(2, 1).to_density()
        assert qmath.relative_entropy(a, b) == math.inf

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative_and_faithful(self, seed):
        rho = ch.random_state((4,), 4, seed=seed)
        sigma = ch.random_state((4,), 4, seed=seed + 50)
        d = qmath.relative_entropy(rho, sigma)
        assert d >= -1e-10
        if qmath.trace_distance(rho, sigma) < 1e-12:
            assert d < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qmath.relative_entropy(
                qmath.maximally_mixed((2,)), qmath.maximally_mixed((3,))
            )


class TestTraceDistance:
    def test_zero_on_equal(self):
        rho = ch.random_state((2, 2), 3, seed=7)
        assert qmath.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = qmath.basis_state(2, 0).to_density()
        b = qmath.basis_state(2, 1).to_density()
        assert qmath.trace_distance(a, b) == pytest.approx(2.0)

    def test_mixed_vs_pure(self):
        # Oracle: singular values of diag(1/2, -1/2) sum to 1.
        assert qmath.trace_distance(
            qmath.maximally_mixed((2,)), qmath.basis_state(2, 0).to_density()
        ) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_under_partial_trace(self, seed):
        a = ch.random_state((2, 3), 2, seed=seed)
        b = ch.random_state((2, 3), 3, seed=seed + 30)
        full = qmath.trace_distance(a, b)
        reduced = qmath.trace_distance(
            qmath.partial_trace(a, {0}), qmath.partial_trace(b, {0})
        )
        assert reduced <= full + 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_under_channels(self, seed):
        a = ch.random_state((4,), 2, seed=seed)
        b = ch.random_state((4,), 3, seed=seed + 60)
        chan = ch.random_channel(4, 3, 2, seed=seed + 90)
        assert qmath.trace_distance(ch.apply(chan, a), ch.apply(chan, b)) <= (
            qmath.trace_distance(a, b) + 1e-10
        )


class TestSharedKernels:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_batched_trace_norm_and_signs_match_references(self, d):
        rng = np.random.default_rng(d)
        g = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
        stack = qmath.hermitize(g)
        norms = qmath.hermitian_trace_norm(stack)
        signs = qmath.hermitian_function(stack, np.sign)
        assert norms.shape == (7,) and signs.shape == (7, d, d)
        for h, norm, sign in zip(stack, norms, signs):
            lam, vec = np.linalg.eigh(h)
            assert abs(norm - qmath.trace_norm(h)) < 1e-12
            assert abs(norm - np.abs(lam).sum()) < 1e-12
            assert np.max(np.abs(sign - (vec * np.sign(lam)) @ vec.conj().T)) < 1e-12

    @pytest.mark.parametrize("zero_pivot", [False, True])
    def test_positive_qr_phases_match_masked_division(self, zero_pivot):
        # Reference: diag / |diag| with vanishing pivots set to phase 1 first.
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        if zero_pivot:
            m[:, 1] = 0.0
        q, r = np.linalg.qr(m)
        diag = np.diagonal(r).copy()
        diag[np.abs(diag) < 1e-300] = 1.0
        assert np.array_equal(qmath.positive_qr(m), q * (diag / np.abs(diag)))
        assert qmath.positive_qr(m[:, :0]).shape == (6, 0)

    def test_haar_vectors_match_per_row_loop(self):
        # Bit for bit: the batched row norms sum as np.linalg.norm of each row does.
        for n in (1, 7, 200):
            for d in (1, 2, 3, 8, 16, 64):
                fast, loop = np.random.default_rng(11 + d), np.random.default_rng(11 + d)
                rows = qmath.haar_vectors(fast, n, d)
                assert rows.shape == (n, d)
                for row in rows:
                    z = loop.standard_normal(d) + 1j * loop.standard_normal(d)
                    assert np.array_equal(row, z / np.linalg.norm(z)), (n, d)
                assert fast.bit_generator.state == loop.bit_generator.state

    def test_holevo_quantity_on_bell_ensemble(self):
        bells = [qmath.bell_state(k).to_density() for k in range(4)]
        raw = qmath.holevo_quantity([0.25] * 4, [b.entries for b in bells])
        assert raw == pytest.approx(2.0, abs=1e-12)


class TestLapackShim:
    """Each shim call equals the public numpy.linalg function bit for bit on the inputs it serves."""

    @pytest.mark.parametrize("shape", [(4, 4), (5, 2, 2), (3, 2, 9, 9), (8, 27, 27)])
    def test_eigh_and_eigvalsh_on_complex_stacks(self, shape):
        g = np.random.default_rng(shape[-1]).standard_normal((2, *shape))
        stack = qmath.hermitize(g[0] + 1j * g[1])
        for matrix in (stack, stack + np.triu(stack, 1)):  # both read the lower triangle only
            lam, vec = qmath.eigh(matrix)
            want_lam, want_vec = np.linalg.eigh(matrix)
            assert np.array_equal(lam, want_lam) and np.array_equal(vec, want_vec)
            assert np.array_equal(qmath.eigvalsh(matrix), np.linalg.eigvalsh(matrix))

    def test_eigh_and_eigvalsh_on_real_barrier_matrices(self):
        # Symmetric 6x6 LMI matrices [[t I, D], [D^T, t I]], as the qubit barrier builds them.
        rng = np.random.default_rng(5)
        d = rng.standard_normal((11, 3, 3))
        lmi = np.zeros((11, 6, 6))
        lmi[:, :3, 3:], lmi[:, 3:, :3] = d, d.swapaxes(-1, -2)
        lmi += 4.0 * np.eye(6)
        lam, vec = qmath.eigh(lmi)
        want_lam, want_vec = np.linalg.eigh(lmi)
        assert lam.dtype == vec.dtype == np.float64
        assert np.array_equal(lam, want_lam) and np.array_equal(vec, want_vec)
        assert np.array_equal(qmath.eigvalsh(lmi), np.linalg.eigvalsh(lmi))

    def test_solve_with_matrix_and_vector_right_sides(self):
        rng = np.random.default_rng(7)
        systems, right = rng.standard_normal((9, 7, 7)), rng.standard_normal((9, 7, 2))
        assert np.array_equal(qmath.solve(systems, right), np.linalg.solve(systems, right))
        kkt, vector = systems[0], right[0, :, 0]
        assert np.array_equal(qmath.solve_vector(kkt, vector), np.linalg.solve(kkt, vector))

    @pytest.mark.parametrize("shape", [(4, 2), (6, 6), (9, 3), (27, 3), (81, 9)])
    @pytest.mark.parametrize("zero_pivot", [False, True])
    def test_qr_diagonal_on_rectangular_matrices(self, shape, zero_pivot):
        rng = np.random.default_rng(shape[0])
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if zero_pivot:
            m[:, -1] = 0.0  # a vanishing pivot, positive_qr's masked branch
        q, diag = qmath.qr_diagonal(m)
        want_q, want_r = np.linalg.qr(m)
        assert np.array_equal(q, want_q) and np.array_equal(diag, np.diagonal(want_r))
        assert (np.abs(diag) < 1e-300).any() == zero_pivot
        assert np.array_equal(qmath.qr_diagonal(m.real)[0], np.linalg.qr(m.real)[0])

    def test_frobenius_norm_matches_numpy(self):
        rng = np.random.default_rng(9)
        for shape in [(1, 1), (2, 1), (3, 1), (8, 1), (27, 1), (4, 2), (12, 3)]:
            for _ in range(50):
                m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                assert qmath.frobenius_norm(m) == np.linalg.norm(m)
                assert qmath.frobenius_norm(m.real) == np.linalg.norm(m.real)

    def test_failure_returns_nan(self):
        # Where numpy.linalg raises LinAlgError, the shim returns NaN under numpy's warning.
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, np.ones(2))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert np.isnan(qmath.solve_vector(singular, np.ones(2))).all()
        with np.errstate(invalid="ignore"):
            assert np.isnan(qmath.solve(np.zeros((3, 2, 2)), np.ones((3, 2, 1)))).all()


class TestPartialTranspose:
    def test_singlet_is_npt(self):
        rho = qmath.singlet().to_density()
        verdict = qmath.is_ppt(rho, {0})
        assert not verdict.ppt
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-10)

    def test_maximally_mixed_is_ppt(self):
        verdict = qmath.is_ppt(qmath.maximally_mixed((2, 2)), {0})
        assert verdict.ppt
        assert verdict.min_eigenvalue == pytest.approx(0.25, abs=1e-10)

    def test_product_pure_is_ppt(self):
        rho = qmath.tensor_pure(qmath.basis_state(2, 0), qmath.basis_state(2, 0)).to_density()
        assert qmath.is_ppt(rho, {1}).ppt

    def test_transpose_is_hermitian(self):
        rho = ch.random_state((2, 2), 4, seed=11)
        pt = qmath.partial_transpose_raw(rho.entries, rho.dims, 1)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


class TestSchmidt:
    def test_singlet(self):
        dec = qmath.schmidt(qmath.singlet(), {0})
        assert np.allclose(dec.coefficients, [1 / math.sqrt(2)] * 2)

    def test_product(self):
        psi = qmath.tensor_pure(qmath.basis_state(2, 0), qmath.basis_state(2, 0))
        dec = qmath.schmidt(psi, {0})
        assert dec.coefficients[0] == pytest.approx(1.0)
        assert dec.coefficients[1] == pytest.approx(0.0, abs=1e-12)

    def test_already_schmidt_form(self):
        theta = math.pi / 6
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = math.cos(theta), math.sin(theta)
        dec = qmath.schmidt(qmath.PureState((2, 2), amps), {0})
        assert np.allclose(dec.coefficients, [math.cos(theta), math.sin(theta)])

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction(self, seed):
        psi = haar_pure((2, 3, 2), seed=seed)
        cut = {0, 2}
        dec = qmath.schmidt(psi, cut)
        assert np.sum(dec.coefficients**2) == pytest.approx(1.0, abs=1e-12)
        rebuilt = sum(
            c * np.kron(dec.left[:, i], dec.right[:, i])
            for i, c in enumerate(dec.coefficients)
        )
        reordered = qmath.permute_factors_pure(psi, (0, 2, 1))
        assert np.max(np.abs(rebuilt - reordered.amplitudes)) < 1e-10


class TestValidation:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantError):
            qmath.DensityMatrix((2,), mat)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantError):
            qmath.DensityMatrix((2,), np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantError):
            qmath.DensityMatrix((2,), np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qmath.DensityMatrix((2, 2), np.eye(2) / 2)

    @pytest.mark.parametrize("dims, diagonal", [
        ((2,), [math.nan, 0.0]), ((2,), [math.inf, 0.0]), ((2, 2), [math.nan, 0.0, 0.0, 1.0]),
    ])
    def test_rejects_non_finite_density_matrix(self, dims, diagonal):
        with pytest.raises(InvariantError, match="non-finite"):
            qmath.DensityMatrix(dims, np.diag(diagonal).astype(complex))

    @pytest.mark.parametrize("amps", [[math.nan, 1.0], [math.inf, 0.0]])
    def test_rejects_non_finite_vector(self, amps):
        with pytest.raises(InvariantError, match="non-finite"):
            qmath.PureState((2,), np.array(amps))

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(InvariantError):
            qmath.PureState((2,), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("index", [-1, 2])
    def test_basis_index_is_checked(self, index):
        # Unchecked, -1 would wrap around to |1>.
        with pytest.raises(InvariantError, match="basis index"):
            qmath.basis_state(2, index)


def test_merge_factors_validates_one_state(monkeypatch):
    rho = ch.random_state((2, 3, 2), 4, seed=5)
    built = []
    check = qmath.DensityMatrix.__post_init__

    def counting(self):
        built.append(self.dims)
        check(self)

    monkeypatch.setattr(qmath.DensityMatrix, "__post_init__", counting)
    merged = qmath.merge_factors(rho, [[0, 2], [1]])
    permuted = qmath.merge_factors(rho, [[2], [0], [1]])
    assert built == [(4, 3), (2, 2, 3)]
    tens = rho.entries.reshape(2, 3, 2, 2, 3, 2)
    assert np.array_equal(merged.entries, tens.transpose(0, 2, 1, 3, 5, 4).reshape(12, 12))
    assert np.array_equal(permuted.entries, tens.transpose(2, 0, 1, 5, 3, 4).reshape(12, 12))
