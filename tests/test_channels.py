import numpy as np
import pytest

from densecode import channels as ch
from densecode import qmath
from densecode.errors import DimensionMismatchError, InvariantError


def test_apply_identity():
    rho = ch.random_state((2,), 2, seed=0)
    out = ch.apply(ch.QuantumChannel.identity(2), rho)
    assert np.allclose(out.entries, rho.entries)


def test_apply_constant_map():
    const = ch.QuantumChannel.constant_replacement(2, qmath.maximally_mixed((2,)))
    rho = ch.random_state((2,), 1, seed=1)
    assert np.allclose(ch.apply(const, rho).entries, np.eye(2) / 2, atol=1e-12)


def test_apply_fully_depolarizing():
    # Oracle: direct Kraus sum with the four Pauli/2 operators.
    dep = ch.QuantumChannel.depolarizing(1.0)
    rho = qmath.basis_state(2, 0).to_density()
    direct = sum(k @ rho.entries @ k.conj().T for k in dep.kraus)
    assert np.allclose(direct, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(ch.apply(dep, rho).entries, np.eye(2) / 2, atol=1e-12)


class TestApplyLocal:
    def test_unitary_on_singlet_gives_bell_state(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        rho = qmath.singlet().to_density()
        out = ch.apply_local(ch.QuantumChannel.from_unitary(x), rho, 0)
        lifted = np.kron(x, np.eye(2))
        assert np.allclose(out.entries, lifted @ rho.entries @ lifted.conj().T)

    def test_projection_on_singlet(self):
        # Oracle: Kraus {|0><0|, |0><1|} summed by hand.
        kraus = (
            np.array([[1, 0], [0, 0]], dtype=complex),
            np.array([[0, 1], [0, 0]], dtype=complex),
        )
        proj = ch.QuantumChannel(2, 2, kraus)
        rho = qmath.singlet().to_density()
        out = ch.apply_local(proj, rho, 0)
        expected = np.kron(
            qmath.basis_state(2, 0).to_density().entries, np.eye(2) / 2
        )
        assert np.allclose(out.entries, expected, atol=1e-12)

    def test_identity_leaves_state(self):
        rho = ch.random_state((2, 3), 2, seed=2)
        out = ch.apply_local(ch.QuantumChannel.identity(3), rho, 1)
        assert np.allclose(out.entries, rho.entries)

    @pytest.mark.parametrize("seed", range(4))
    def test_receiver_marginal_unchanged(self, seed):
        rho = ch.random_state((2, 3), 3, seed=seed)
        chan = ch.random_channel(2, 4, 3, seed=seed + 10)
        out = ch.apply_local(chan, rho, 0)
        assert np.allclose(
            qmath.partial_trace(out, {1}).entries,
            qmath.partial_trace(rho, {1}).entries,
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ch.apply_local(ch.QuantumChannel.identity(3), qmath.maximally_mixed((2, 2)), 0)

    @pytest.mark.parametrize("factor", range(3))
    def test_matches_kron_lift_on_three_factors(self, factor):
        dims = (2, 3, 2)
        rho = ch.random_state(dims, 5, seed=70 + factor)
        chan = ch.random_channel(dims[factor], 3, 2, seed=80 + factor)
        eye_b = np.eye(int(np.prod(dims[:factor])))
        eye_a = np.eye(int(np.prod(dims[factor + 1:])))
        lifts = [np.kron(eye_b, np.kron(k, eye_a)) for k in chan.kraus]
        out = ch.apply_local(chan, rho, factor)
        assert out.dims == dims[:factor] + (3,) + dims[factor + 1:]
        expected = sum(lift @ rho.entries @ lift.conj().T for lift in lifts)
        assert np.max(np.abs(out.entries - expected)) < 1e-12
        # The kernel under it is exact for any matrix, Hermitian or not.
        g = np.random.default_rng(factor).standard_normal((2, rho.side, rho.side))
        m = g[0] + 1j * g[1]
        summed = ch.local_kraus_sum(chan.kraus, m, eye_b.shape[0], eye_a.shape[0])
        assert np.max(np.abs(summed - sum(lift @ m @ lift.conj().T for lift in lifts))) < 1e-12


class TestChoi:
    def test_identity_equals_identity(self):
        assert ch.channels_equal(ch.QuantumChannel.identity(2), ch.QuantumChannel.identity(2))

    def test_global_phase_invisible(self):
        u = ch.random_unitary(3, seed=3)
        a = ch.QuantumChannel.from_unitary(u)
        b = ch.QuantumChannel.from_unitary(np.exp(0.37j) * u)
        assert ch.channels_equal(a, b)

    def test_depolarizing_differs_from_identity(self):
        assert not ch.channels_equal(
            ch.QuantumChannel.depolarizing(1.0), ch.QuantumChannel.identity(2)
        )

    def test_choi_partial_trace_is_identity(self):
        chan = ch.random_channel(3, 2, 4, seed=4)
        c = ch.choi(chan)
        state = qmath.DensityMatrix((chan.d_out, chan.d_in), c / chan.d_in)
        reduced = qmath.partial_trace(state, {1})
        assert np.allclose(reduced.entries * chan.d_in, np.eye(chan.d_in), atol=1e-10)


class TestStinespring:
    def test_identity_dilation_is_trivial(self):
        iso = ch.dilate(ch.QuantumChannel.identity(2))
        assert iso.d_env == 1

    def test_depolarizing_dilation(self):
        dep = ch.QuantumChannel.depolarizing(1.0)
        iso = ch.dilate(dep)
        assert iso.d_env == 4
        assert ch.channels_equal(ch.undilate(iso), dep, tol=1e-10)

    def test_projection_dilation(self):
        proj = ch.QuantumChannel.projection_onto(2, 2)
        iso = ch.dilate(proj)
        assert iso.d_env == 2
        assert ch.channels_equal(ch.undilate(iso), proj, tol=1e-10)

    def test_roundtrip_on_random_channels(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            d_env_min = -(-d_in // d_out)
            chan = ch.random_channel(
                d_in, d_out, d_env_min + int(rng.integers(0, 3)), rng
            )
            back = ch.undilate(ch.dilate(chan))
            diff = np.max(np.abs(ch.choi(back) - ch.choi(chan)))
            assert diff <= 1e-10
            assert ch.dilate(chan).d_env <= d_in * d_out


class TestSampling:
    def test_random_unitary_is_unitary(self):
        u = ch.random_unitary(2, seed=5)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_random_state_rank_one_purity(self):
        rho = ch.random_state((2, 2), 1, seed=6)
        assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_random_state_rank_is_checked(self):
        with pytest.raises(InvariantError, match="rank"):
            ch.random_state((2, 2), 0, seed=0)

    def test_seed_reproducibility(self):
        a = ch.random_channel(2, 2, 2, seed=7)
        b = ch.random_channel(2, 2, 2, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

    @pytest.mark.slow
    def test_haar_average_depolarizes(self):
        # Monte-Carlo twirl: the empirical mean over Haar rotations of the
        # sender factor approaches I/d (x) rho_B.
        rng = np.random.default_rng(8)
        rho = ch.random_state((2, 2), 2, seed=9)
        acc = np.zeros((4, 4), dtype=complex)
        n = 10_000
        for _ in range(n):
            u = np.kron(ch.random_unitary(2, rng), np.eye(2))
            acc += u @ rho.entries @ u.conj().T
        mean = qmath.DensityMatrix((2, 2), qmath.hermitize(acc / n))
        target = qmath.DensityMatrix(
            (2, 2), np.kron(np.eye(2) / 2, qmath.partial_trace(rho, {1}).entries)
        )
        assert qmath.trace_distance(mean, target) < 0.02


class TestWeyl:
    def test_qubit_weyl_is_pauli_up_to_phase(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        expected = [np.eye(2, dtype=complex), z, x, x @ z]
        for w, e in zip(ch.weyl_basis(2), expected):
            overlap = abs(np.trace(w.conj().T @ e)) / 2
            assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_hilbert_schmidt_orthogonality(self, d):
        basis = ch.weyl_basis(d)
        gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - d * np.eye(d * d))) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_exact_twirl(self, d):
        rho = ch.random_state((d, 3), 2, seed=10 + d)
        twirled = ch.weyl_twirl(rho, 0)
        target = np.kron(np.eye(d) / d, qmath.partial_trace(rho, {1}).entries)
        assert np.max(np.abs(twirled.entries - target)) < 1e-12


def test_completeness_validation():
    with pytest.raises(InvariantError):
        ch.QuantumChannel(2, 2, (np.eye(2) * 0.5,))
    with pytest.raises(InvariantError):
        ch.QuantumChannel(2, 2, ())
    # Ragged members raise DimensionMismatchError, not numpy's ValueError.
    with pytest.raises(DimensionMismatchError):
        ch.QuantumChannel(2, 2, (np.eye(2) / np.sqrt(2), np.eye(2, 3) / np.sqrt(2)))


@pytest.mark.parametrize("seed", range(4))
def test_apply_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    rho = ch.random_state((3,), int(rng.integers(1, 4)), rng)
    chan = ch.random_channel(3, 2, 3, rng)
    out = ch.apply(chan, rho)
    assert out.entries.trace().real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out.entries).min() >= -1e-12


def test_compose_and_tensor():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    xc = ch.QuantumChannel.from_unitary(x)
    assert ch.channels_equal(ch.compose(xc, xc), ch.QuantumChannel.identity(2))
    joint = ch.tensor_channels(xc, ch.QuantumChannel.identity(2))
    lifted = ch.QuantumChannel.from_unitary(np.kron(x, np.eye(2)))
    assert ch.channels_equal(joint, lifted)


def _max_gap(stack, reference) -> float:
    return float(np.max(np.abs(np.asarray(stack) - np.array(reference))))


class TestKrausStack:
    """Each channels function that works on the whole Kraus stack at once, against
    a per-operator reference formula written out here."""

    def test_stack_is_read_only_complex_array(self):
        for chan in (ch.QuantumChannel(2, 2, [[[1, 0], [0, 1]]]),
                     ch.random_channel(2, 3, 2, seed=0),
                     ch.QuantumChannel.trace_out_factor((2, 3), (0,))):
            k = chan.kraus
            assert k.dtype == complex and k.flags.c_contiguous
            assert k.shape == (len(k), chan.d_out, chan.d_in)
            with pytest.raises(ValueError):
                k[0, 0, 0] = 1.0

    def test_stack_is_one_bit_identical_copy(self):
        members = [k for k in ch.random_channel(3, 2, 4, seed=5).kraus]
        as_list = [k.copy() for k in members]
        chan = ch.QuantumChannel(3, 2, as_list)
        assert np.array_equal(chan.kraus, np.stack(members))
        as_list[0][0, 0] = 7.0
        assert np.array_equal(chan.kraus, np.stack(members))
        with pytest.raises(DimensionMismatchError):
            ch.QuantumChannel(3, 2, np.stack(members)[:, :, :2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_is_rejected(self, bad):
        # NaN compares False with every tolerance, so a check of the form
        # "defect > tol" would let it through.  No errstate: under the suite's
        # error::RuntimeWarning filter, a warning from the completeness product
        # would surface here as an error, not InvariantError.
        kraus = np.eye(2, dtype=complex)[None].copy()
        kraus[0, 1, 1] = bad
        with pytest.raises(InvariantError, match="non-finite entry"):
            ch.QuantumChannel(2, 2, kraus)
        with pytest.raises(InvariantError, match="non-finite entry"):
            ch.QuantumChannel(2, 2, [np.full((2, 2), bad)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_rejected_before_any_product(self, bad):
        # The isometry constructor takes the same check, with no errstate either.
        kraus = np.eye(2, dtype=complex)[None].copy()
        kraus[0, 1, 1] = bad
        with pytest.raises(InvariantError, match="non-finite entry"):
            ch.StinespringIsometry(2, 2, 1, kraus[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_matches_per_operator_reference(self, seed):
        chan = ch.random_channel(2, 3, 4, seed)
        ops = list(chan.kraus)
        choi = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ops)
        assert _max_gap(ch.choi(chan), choi) < 1e-12

        lam, vec = np.linalg.eigh(qmath.hermitize(choi))
        canon = [np.sqrt(lam[i]) * vec[:, i].reshape(3, 2)
                 for i in range(lam.size - 1, -1, -1) if lam[i] > ch.KRAUS_CUTOFF]
        assert _max_gap(ch.canonical_kraus(chan), canon) < 1e-12

        iso = ch.dilate(chan)
        v = np.zeros((3 * len(canon), 2), dtype=complex)
        for e, k in enumerate(canon):
            v[e::len(canon)] = k  # row (out, env) = out * d_env + e
        assert iso.d_env == len(canon) and _max_gap(iso.v, v) < 1e-12
        env = np.eye(iso.d_env)
        undilated = [np.kron(np.eye(3), env[e][None]) @ iso.v for e in range(iso.d_env)]
        assert _max_gap(ch.undilate(iso).kraus, undilated) < 1e-12

        # 2 x 2 products fit the 2 -> 2 Choi rank; 2 x 4 are canonicalized.
        after, before = ch.random_channel(3, 2, 2, seed + 10), ch.random_channel(2, 3, 2, seed + 20)
        composed = [a @ b for a in after.kraus for b in before.kraus]
        assert _max_gap(ch.compose(after, before).kraus, composed) < 1e-12
        composed = [a @ b for a in after.kraus for b in ops]
        choi = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in composed)
        assert _max_gap(ch.choi(ch.compose(after, chan)), choi) < 1e-12

        tensored = [np.kron(a, b) for a in ops for b in before.kraus]
        assert _max_gap(ch.tensor_channels(chan, before).kraus, tensored) < 1e-12

    def test_tensor_product_beyond_the_choi_rank_is_canonicalized(self):
        # 5 x 5 = 25 products exceed the Choi rank 16 of a two-qubit map.
        a, b = ch.random_channel(2, 2, 5, 31), ch.random_channel(2, 2, 5, 32)
        assert len(a.kraus) == len(b.kraus) == 5
        product = ch.tensor_channels(a, b)
        assert len(product.kraus) <= 16
        tensored = [np.kron(x, y) for x in a.kraus for y in b.kraus]
        choi = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in tensored)
        assert _max_gap(ch.choi(product), choi) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_constructors_match_per_operator_reference(self, seed):
        basis = np.eye(3)
        proj = [np.outer(np.eye(2)[0], basis[j]) for j in range(3)]
        assert _max_gap(ch.QuantumChannel.projection_onto(3, 2).kraus, proj) < 1e-12

        output = ch.random_state((2,), 1 + seed % 2, seed)
        lam, vec = np.linalg.eigh(qmath.hermitize(output.entries))
        const = [np.sqrt(lam[i]) * np.outer(vec[:, i], basis[j])
                 for i in range(2) if lam[i] > ch.KRAUS_CUTOFF for j in range(3)]
        assert _max_gap(ch.QuantumChannel.constant_replacement(3, output).kraus, const) < 1e-12

        # <j| on the middle factor of (2, 3, 2).
        traced = [np.kron(np.kron(np.eye(2), basis[j][None]), np.eye(2)) for j in range(3)]
        assert _max_gap(ch.QuantumChannel.trace_out_factor((2, 3, 2), (1,)).kraus, traced) < 1e-12

        rho = ch.random_state((2, 3), 4, seed + 30)
        lifts = [np.kron(np.eye(2), w) for w in ch.weyl_basis(3)]
        twirl = sum(u @ rho.entries @ u.conj().T for u in lifts) / 9
        assert _max_gap(ch.weyl_twirl(rho, 1).entries, twirl) < 1e-12
