import math

import numpy as np
import pytest

from densecode import capacity as cap
from densecode import channels as ch
from densecode import optimize as opt
from densecode import qmath
from densecode.errors import InvariantError, SizeGuardError

CFG = opt.OptConfig(restarts=8, seed=2026)


def bell_density():
    return qmath.singlet().to_density()


class TestHolevoInformation:
    def test_single_element(self):
        rho = ch.random_state((2,), 2, seed=0)
        assert qmath.holevo_quantity([1.0], [rho.entries]) == pytest.approx(0.0, abs=1e-12)

    def test_four_bell_states(self):
        bells = [qmath.bell_state(i).to_density().entries for i in range(4)]
        assert qmath.holevo_quantity([0.25] * 4, bells) == pytest.approx(2.0)

    def test_zero_plus_mixture(self):
        # Oracle: eigenvalues of (|0><0| + |+><+|)/2 are (2 +- sqrt(2))/4.
        p = (2 + math.sqrt(2)) / 4
        expected = qmath.binary_entropy(p)
        assert expected == pytest.approx(0.6009, abs=1e-4)
        plus = qmath.PureState((2,), np.array([1, 1]) / math.sqrt(2))
        members = [qmath.basis_state(2, 0).to_density().entries, plus.to_density().entries]
        assert qmath.holevo_quantity([0.5, 0.5], members) == pytest.approx(expected, abs=1e-10)

    def test_probability_validation(self):
        identity = ch.QuantumChannel.identity(2)
        with pytest.raises(InvariantError):
            cap.Ensemble(((0.7, identity), (0.7, identity)))

    @pytest.mark.parametrize("probs", [(math.nan,), (1.0, math.nan), (math.nan, 0.5, 0.5)])
    def test_nan_probability_rejected(self, probs):
        identity = ch.QuantumChannel.identity(2)
        with pytest.raises(InvariantError):
            cap.Ensemble(tuple((p, identity) for p in probs))


class TestDcMutualInformation:
    def test_weyl_ensemble_on_singlet(self):
        ens = cap.Ensemble(
            tuple((0.25, ch.QuantumChannel.from_unitary(w)) for w in ch.weyl_basis(2)),
        )
        assert cap.dc_mutual_information(ens, bell_density()) == pytest.approx(2.0, abs=1e-10)

    def test_constant_channel_kills_information(self):
        ens = cap.Ensemble(
            tuple((0.25, ch.QuantumChannel.from_unitary(w)) for w in ch.weyl_basis(2)),
        )
        const = ch.QuantumChannel.constant_replacement(2, qmath.maximally_mixed((2,)))
        assert cap.dc_mutual_information(ens, bell_density(), const) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_point_mass(self):
        ens = cap.Ensemble(((1.0, ch.QuantumChannel.identity(2)),))
        assert cap.dc_mutual_information(ens, bell_density()) == pytest.approx(0.0, abs=1e-10)

    def test_weyl_relabeling_invariance(self):
        # Composing every encoding with a fixed Weyl rotation leaves the
        # mutual information unchanged.
        rho = ch.random_state((2, 2), 2, seed=1)
        encs = [ch.random_channel(2, 2, 2, seed=s) for s in range(3)]
        ens = cap.Ensemble(tuple((1 / 3, e) for e in encs))
        w = ch.weyl_basis(2)[2]
        rotated = cap.Ensemble(
            tuple(
                (1 / 3, ch.compose(ch.QuantumChannel.from_unitary(w), e)) for e in encs
            ),
        )
        assert cap.dc_mutual_information(ens, rho) == pytest.approx(
            cap.dc_mutual_information(rotated, rho), abs=1e-9
        )


class TestDcCapacity:
    def test_bell_two_bits(self):
        result = cap.dc_capacity(2, bell_density(), CFG)
        assert result.value == pytest.approx(2.0, abs=1e-3)

    def test_pure_state_formula(self):
        # DC = log d + binary entropy of the Schmidt weights.
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = math.sqrt(0.9), math.sqrt(0.1)
        rho = qmath.PureState((2, 2), amps).to_density()
        expected = 1.0 + qmath.binary_entropy(0.9)
        assert expected == pytest.approx(1.4690, abs=1e-4)
        assert cap.dc_capacity(2, rho, CFG).value == pytest.approx(expected, abs=1e-3)

    def test_separable_flatline(self):
        rho = cap.random_separable((2, 2), 7, seed=3)
        assert cap.dc_capacity(2, rho, CFG).value == pytest.approx(1.0, abs=1e-3)

    def test_decomposition_identity(self):
        result = cap.dc_capacity(2, ch.random_state((2, 2), 2, seed=4), CFG)
        dec = result.decomposition
        recombined = dec["log_term"] + dec["marginal_entropy"] - dec["min_output_entropy"]
        assert result.value == pytest.approx(recombined, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_analytic_bracket(self, seed):
        rho = ch.random_state((2, 2), 3, seed=seed + 10)
        h_b = qmath.von_neumann_entropy(qmath.partial_trace(rho, {1}))
        value = cap.dc_capacity(2, rho, CFG).value
        assert 1.0 - 1e-9 <= value <= 1.0 + h_b + 1e-9


class TestMarginalEntropyOnce:
    """dc_capacity takes H(B) from the descent instead of a second validated partial trace."""

    @pytest.mark.parametrize(
        "dims, a_factors",
        [((2, 2), (0,)), ((3, 2), (0,)), ((4, 3), (0,)), ((2, 2, 2), (0,)), ((2, 2, 2), (0, 2))],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_partial_trace_bit_for_bit(self, dims, a_factors, seed):
        side = int(np.prod(dims))
        rank = [1, 2, side][seed]
        rho = ch.random_state(dims, rank, seed=seed + 80)
        work = qmath.bipartition(rho, a_factors)
        want = qmath.von_neumann_entropy(qmath.partial_trace(work, {1}))
        result = cap.dc_capacity(2, rho, opt.OptConfig(restarts=1, seed=seed), a_factors)
        assert result.report.marginal_entropy == want
        assert result.decomposition["marginal_entropy"] == want


class TestBlockAndMulticopy:
    def test_block_reduces_at_n_one(self):
        rho = bell_density()
        a = cap.dc_capacity_block(1, 2, rho, CFG)
        b = cap.dc_capacity(2, rho, CFG)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_block_two_on_bell(self):
        result = cap.dc_capacity_block(2, 2, bell_density(), CFG)
        assert result.value == pytest.approx(2.0, abs=5e-3)

    def test_block_two_on_product(self):
        rho = qmath.tensor_pure(qmath.basis_state(2, 0), qmath.basis_state(2, 0)).to_density()
        result = cap.dc_capacity_block(2, 2, rho, CFG)
        assert result.value == pytest.approx(1.0, abs=1e-3)

    def test_multicopy_two_bell(self):
        # Spending both singlets on one qubit channel cannot beat 2 log d = 2.
        result = cap.dc_capacity_multicopy(2, 2, bell_density(), CFG)
        assert result.value == pytest.approx(2.0, abs=1e-3)

    def test_multicopy_two_bell_wide_channel(self):
        result = cap.dc_capacity_multicopy(2, 4, bell_density(), CFG)
        assert result.value == pytest.approx(4.0, abs=1e-3)

    def test_multicopy_reduces_at_k_one(self):
        rho = bell_density()
        assert cap.dc_capacity_multicopy(1, 2, rho, CFG).value == pytest.approx(
            cap.dc_capacity(2, rho, CFG).value, abs=1e-12
        )

    def test_superadditive_hierarchy(self):
        rho = ch.random_state((2, 2), 2, seed=20)
        single = cap.dc_capacity(2, rho, CFG).value
        assert cap.dc_capacity_block(2, 2, rho, CFG).value >= single - 5e-3
        assert cap.dc_capacity_multicopy(2, 2, rho, CFG).value >= single - 5e-3

    @pytest.mark.parametrize("call", [
        lambda: cap.dc_capacity_multicopy(5, 2, bell_density(), CFG),
        lambda: cap.dc_capacity_block(5, 2, bell_density(), CFG),
        lambda: cap.additivity_gap(ch.random_state((4, 4), 2, seed=0), 4,
                                   ch.random_state((4, 5), 2, seed=1), 4, CFG),
    ], ids=["multicopy", "block", "additivity"])
    def test_size_guard(self, call, monkeypatch):
        # The guard trips before any part of the problem is solved.
        solves = []
        solve = cap.dc_capacity
        monkeypatch.setattr(cap, "dc_capacity", lambda *a, **k: solves.append(a) or solve(*a, **k))
        with pytest.raises(SizeGuardError):
            call()
        assert solves == []

    @pytest.mark.parametrize("call, expected", [
        (lambda cfg: cap.dc_capacity_block(3, 2, bell_density(), cfg), 2),
        (lambda cfg: cap.dc_capacity_multicopy(2, 2, bell_density(), cfg), 2),
        (lambda cfg: cap.additivity_gap(bell_density(), 2, bell_density(), 2, cfg), 3),
    ], ids=["block", "multicopy", "additivity"])
    def test_each_distinct_part_solved_once(self, call, expected, monkeypatch):
        # One solve per distinct part plus the joint solve, never one per copy.
        solves = []
        solve = cap.dc_capacity
        monkeypatch.setattr(cap, "dc_capacity", lambda *a, **k: solves.append(a) or solve(*a, **k))
        call(opt.OptConfig(restarts=1, max_iterations=20, seed=3))
        assert len(solves) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_multicopy_never_below_its_single_copy(self, seed):
        # T* on the first copy with the second copy's sender traced out is
        # seeded, so even a capped one-restart descent keeps the single copy.
        rho = ch.random_state((3, 3), 3, seed=seed)
        cfg = opt.OptConfig(restarts=1, max_iterations=40, seed=seed)
        result = cap.dc_capacity_multicopy(2, 3, rho, cfg)
        single = result.metadata["single_copy_value"]
        assert single == pytest.approx(cap.dc_capacity(3, rho, cfg).value, abs=1e-12)
        assert result.value >= single - 1e-9


class TestJointWiring:
    """Block, multicopy and additivity solve exactly the joint problem built by hand.

    Each channel is narrower than the sender, so the seeded probe is no unitary
    and the joint descent depends on it.
    """

    cfg = opt.OptConfig(restarts=2, max_iterations=30, seed=41)

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_wiring(self, n):
        rho = ch.random_state((3, 2), 2, seed=40 + n)
        result = cap.dc_capacity_block(n, 2, rho, self.cfg)
        t_star = ch.undilate(cap.dc_capacity(2, rho, self.cfg).report.isometry)
        joint, probe = rho, t_star
        for _ in range(n - 1):
            joint = qmath.tensor(joint, rho)
            probe = ch.tensor_channels(probe, t_star)
        hand = cap.dc_capacity(2**n, joint, self.cfg, [2 * c for c in range(n)], probes=[probe])
        assert result.report.restart_values == hand.report.restart_values
        assert np.array_equal(result.report.isometry.v, hand.report.isometry.v)
        assert result.decomposition["min_output_entropy"] == hand.report.value / n

    def test_multicopy_wiring(self):
        rho = ch.random_state((3, 3), 2, seed=45)
        result = cap.dc_capacity_multicopy(2, 2, rho, self.cfg)
        single = cap.dc_capacity(2, rho, self.cfg)
        tracer = ch.QuantumChannel.trace_out_factor((3, 3), (1,))
        probe = ch.compose(ch.undilate(single.report.isometry), tracer)
        hand = cap.dc_capacity(2, qmath.tensor(rho, rho), self.cfg, [0, 2], probes=[probe])
        assert result.value == hand.value
        assert result.report.restart_values == hand.report.restart_values
        assert np.array_equal(result.report.isometry.v, hand.report.isometry.v)

    def test_additivity_wiring(self):
        rho = ch.random_state((3, 2), 2, seed=46)
        sigma = ch.random_state((2, 2, 2), 3, seed=47)
        result = cap.additivity_gap(rho, 2, sigma, 2, self.cfg, sigma_a=(0, 2))
        part1 = cap.dc_capacity(2, rho, self.cfg)
        part2 = cap.dc_capacity(2, sigma, self.cfg, (0, 2))
        probe = ch.tensor_channels(
            ch.undilate(part1.report.isometry), ch.undilate(part2.report.isometry)
        )
        hand = cap.dc_capacity(4, qmath.tensor(rho, sigma), self.cfg, [0, 2, 4], probes=[probe])
        assert result.joint.value == hand.value
        assert result.gap == hand.value - part1.value - part2.value
        assert result.joint.report.restart_values == hand.report.restart_values
        assert np.array_equal(result.joint.report.isometry.v, hand.report.isometry.v)


class TestAchievingEnsemble:
    def test_reproduces_bell_capacity(self):
        result = cap.dc_capacity(2, bell_density(), CFG)
        ens = cap.capacity_achieving_ensemble(bell_density(), 2, ch.undilate(result.report.isometry))
        value = cap.dc_mutual_information(ens, bell_density())
        assert value == pytest.approx(result.value, abs=1e-6)

    def test_reproduces_separable_capacity(self):
        rho = cap.random_separable((2, 2), 5, seed=21)
        result = cap.dc_capacity(2, rho, CFG)
        ens = cap.capacity_achieving_ensemble(rho, 2, ch.undilate(result.report.isometry))
        assert cap.dc_mutual_information(ens, rho) == pytest.approx(result.value, abs=1e-6)

    @pytest.mark.parametrize("rho", [bell_density(), ch.random_state((2, 2), 2, seed=5)],
                             ids=["singlet", "random"])
    def test_one_level_ensemble(self, rho):
        # d = 1 has the single Weyl operator [[1]]: the ensemble is T* alone.
        result = cap.dc_capacity(1, rho, CFG)
        ens = cap.capacity_achieving_ensemble(rho, 1, ch.undilate(result.report.isometry))
        assert len(ens.items) == 1
        assert cap.dc_mutual_information(ens, rho) == pytest.approx(result.value, abs=1e-12)

    @pytest.mark.parametrize("seed", range(2))
    def test_twirl_identity_on_random_states(self, seed):
        rho = ch.random_state((2, 2), 2, seed=seed + 30)
        result = cap.dc_capacity(2, rho, CFG)
        t_star = ch.undilate(result.report.isometry)
        ens = cap.capacity_achieving_ensemble(rho, 2, t_star)
        expected = (
            1.0
            + qmath.von_neumann_entropy(qmath.partial_trace(rho, {1}))
            - qmath.von_neumann_entropy(ch.apply_local(t_star, rho, 0))
        )
        assert cap.dc_mutual_information(ens, rho) == pytest.approx(expected, abs=1e-6)


class TestCoherentInformation:
    def test_singlet(self):
        assert qmath.coherent_information(bell_density()) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert qmath.coherent_information(qmath.maximally_mixed((2, 2))) == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_nonpositive_on_separable(self, seed):
        rho = cap.random_separable((2, 2), 10, seed=seed + 40)
        assert qmath.coherent_information(rho) <= 1e-9

    def test_bounded_by_sender_dimension(self):
        rho = ch.random_state((2, 3), 2, seed=50)
        assert qmath.coherent_information(rho) <= 1.0 + 1e-9


class TestReeBound:
    def test_werner_boundary_bound(self):
        # Oracle: D(singlet || werner(1/2)) = -log2(1/2) = 1, so the bound is 2.
        bound = cap.ree_bound(bell_density(), 2, cap.werner_state(0.5))
        assert bound.bound == pytest.approx(2.0, abs=1e-10)
        assert bound.certified

    def test_maximally_mixed_reference(self):
        bound = cap.ree_bound(bell_density(), 2, qmath.maximally_mixed((2, 2)))
        assert bound.bound == pytest.approx(3.0, abs=1e-10)
        assert bound.certified

    def test_ppt_state_is_its_own_tight_bound(self):
        rho = cap.random_separable((2, 2), 6, seed=60)
        bound = cap.ree_bound(rho, 2, rho)
        assert bound.certified
        assert bound.bound == pytest.approx(1.0, abs=1e-9)
        assert cap.dc_capacity(2, rho, CFG).value <= bound.bound + 5e-3

    def test_support_mismatch_gives_infinity(self):
        sigma = qmath.tensor_pure(qmath.basis_state(2, 0), qmath.basis_state(2, 0)).to_density()
        bound = cap.ree_bound(bell_density(), 2, sigma)
        assert bound.bound == math.inf

    def test_dominates_capacity(self):
        value = cap.dc_capacity(2, bell_density(), CFG).value
        bound = cap.ree_bound(bell_density(), 2, cap.werner_state(0.5))
        assert value <= bound.bound + 5e-3


class TestAdditivityGap:
    def test_bell_pair_is_additive(self):
        res = cap.additivity_gap(bell_density(), 2, bell_density(), 2, CFG)
        assert res.gap == pytest.approx(0.0, abs=5e-3)

    def test_first_showcase_configuration(self):
        rho = qmath.tensor_pure(qmath.basis_state(2, 0), qmath.basis_state(2, 0)).to_density()
        sigma = qmath.tensor(bell_density(), bell_density())
        res = cap.additivity_gap(rho, 2, sigma, 2, CFG, rho_a=(0,), sigma_a=(0, 2))
        assert res.parts[0].value == pytest.approx(1.0, abs=5e-3)
        assert res.parts[1].value == pytest.approx(2.0, abs=5e-3)
        assert res.joint.value == pytest.approx(4.0, abs=5e-3)
        assert res.gap == pytest.approx(1.0, abs=5e-3)

    def test_separable_pair_has_no_gap(self):
        rho = cap.random_separable((2, 2), 5, seed=70)
        sigma = cap.random_separable((2, 2), 5, seed=71)
        res = cap.additivity_gap(rho, 2, sigma, 2, CFG)
        assert res.gap == pytest.approx(0.0, abs=5e-3)

    @pytest.mark.parametrize("seed", range(2))
    def test_gap_never_negative(self, seed):
        rho = ch.random_state((2, 2), 2, seed=seed + 80)
        sigma = ch.random_state((2, 2), 3, seed=seed + 90)
        res = cap.additivity_gap(rho, 2, sigma, 2, opt.OptConfig(restarts=4, seed=seed))
        assert res.gap >= -5e-3


class TestNoisyDcCapacity:
    def test_identity_reproduces_noiseless(self):
        noisy = cap.noisy_dc_capacity(ch.QuantumChannel.identity(2), bell_density(), 4, CFG)
        noiseless = cap.dc_capacity(2, bell_density(), CFG)
        assert noisy.value == pytest.approx(noiseless.value, abs=1e-3)

    def test_ideal_four_level_channel(self):
        result = cap.noisy_dc_capacity(ch.QuantumChannel.identity(4), bell_density(), 16, CFG)
        assert result.value == pytest.approx(3.0, abs=5e-3)

    def test_constant_channel(self):
        const = ch.QuantumChannel.constant_replacement(2, qmath.maximally_mixed((2,)))
        result = cap.noisy_dc_capacity(
            const, bell_density(), 4, opt.OptConfig(restarts=2, seed=1, ensemble_sweeps=4)
        )
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_second_showcase_configuration(self):
        # Ideal four-level channel next to a useless one: routing both sender
        # qubits into the good channel beats the sum of the parts by one bit.
        const = ch.QuantumChannel.constant_replacement(2, qmath.maximally_mixed((2,)))
        joint_phi = ch.tensor_channels(ch.QuantumChannel.identity(4), const)
        joint_rho = qmath.tensor(bell_density(), bell_density())
        e0 = np.zeros((2, 1), dtype=complex)
        e0[0, 0] = 1.0
        routing = [
            ch.QuantumChannel(4, 8, (np.kron(w, e0),)) for w in ch.weyl_basis(4)
        ]
        result = cap.noisy_dc_capacity(
            joint_phi,
            joint_rho,
            16,
            opt.OptConfig(restarts=2, seed=3, ensemble_sweeps=3),
            a_factors=(0, 2),
            initial_encodings=routing,
        )
        assert result.value >= 4.0 - 5e-3

    def test_random_members_reach_amplitude_damping_chi(self):
        # On |00> the encodings prepare arbitrary channel inputs, so the capacity is
        # the Holevo chi of the channel, which for amplitude damping is
        # max_p h2((1 - g) p) - h2((1 + sqrt(1 - 4 g (1 - g) p^2)) / 2)
        # (Giovannetti & Fazio 2005, Phys. Rev. A 71, 032314), here on a grid of p.
        # m = 8 exceeds d_out^2 = 4, so the last four members start random.
        g = 0.5
        damping = ch.QuantumChannel(2, 2, [np.diag([1.0, math.sqrt(1.0 - g)]),
                                          math.sqrt(g) * np.array([[0.0, 1.0], [0.0, 0.0]])])
        chi = max(qmath.binary_entropy((1.0 - g) * p)
                  - qmath.binary_entropy((1.0 + math.sqrt(1.0 - 4.0 * g * (1.0 - g) * p * p)) / 2.0)
                  for p in np.linspace(0.0, 1.0, 20001))
        product = qmath.DensityMatrix((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]))
        result = cap.noisy_dc_capacity(damping, product, 8, opt.OptConfig(seed=0))
        assert result.value == pytest.approx(chi, abs=1e-6)
        again = cap.dc_mutual_information(result.metadata["ensemble"], product, damping)
        assert again == pytest.approx(result.value, abs=1e-9)


@pytest.mark.parametrize("call", [
    lambda: cap.dc_capacity(0, bell_density(), CFG),
    lambda: cap.dc_capacity(-2, bell_density(), CFG),
    lambda: cap.additivity_gap(bell_density(), 0, bell_density(), 2, CFG),
    lambda: cap.ree_bound(bell_density(), 0, qmath.maximally_mixed((2, 2))),
    lambda: cap.dc_capacity_block(0, 2, bell_density(), CFG),
    lambda: cap.dc_capacity_multicopy(0, 2, bell_density(), CFG),
    lambda: cap.noisy_dc_capacity(ch.QuantumChannel.identity(2), bell_density(), 0, CFG),
], ids=["d0", "d_negative", "additivity_d1", "ree_d0", "block_n0", "multicopy_k0", "noisy_m0"])
def test_sizes_are_checked_at_the_boundary(call):
    with pytest.raises(InvariantError, match="must be >= 1"):
        call()
