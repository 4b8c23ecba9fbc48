import math

import numpy as np
import pytest

from densecode import capacity as cap
from densecode import channels as ch
from densecode import optimize as opt
from densecode import qmath
from densecode.errors import ConvergenceError, DimensionMismatchError, InvariantError


def finite_difference_directional(fun, v, direction, h=1e-5):
    return (fun(v + h * direction) - fun(v - h * direction)) / (2 * h)


class TestStiefelMinimize:
    def test_known_minimizer(self):
        v0 = ch.random_isometry(6, 2, seed=0)
        fun = lambda v: float(np.linalg.norm(v - v0) ** 2)
        grad = lambda v: 2.0 * (v - v0)
        report = opt.stiefel_minimize(fun, grad, 6, 2, opt.OptConfig(restarts=5, seed=1))
        assert report.value == pytest.approx(0.0, abs=1e-8)

    def test_min_output_entropy_of_singlet(self):
        rho = qmath.singlet().to_density()
        report = opt.min_local_output_entropy(rho, 2, opt.OptConfig(seed=2))
        assert report.value == pytest.approx(0.0, abs=1e-4)

    def test_unitary_invariant_objective_restarts_agree(self):
        # H(V D V^dag) does not depend on the unitary V at all.
        d = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho = qmath.DensityMatrix((3,), d)
        problem = opt._OutputEntropyProblem(rho, 3, 1)
        cfg = opt.OptConfig(restarts=6, seed=3, stop_at_floor=False)
        report = opt.stiefel_minimize(problem.value, problem.gradient, 3, 3, cfg)
        values = np.array(report.restart_values)
        assert np.ptp(values) < 1e-6
        assert report.value == pytest.approx(qmath.von_neumann_entropy(rho), abs=1e-9)

    def test_report_invariants(self):
        rho = ch.random_state((2, 2), 3, seed=4)
        report = opt.min_local_output_entropy(rho, 2, opt.OptConfig(restarts=4, seed=5))
        assert report.value == min(report.restart_values)
        iso = report.isometry
        assert np.max(np.abs(iso.v.conj().T @ iso.v - np.eye(iso.d_in))) < 1e-8

    def test_determinism(self):
        rho = ch.random_state((2, 2), 3, seed=6)
        cfg = opt.OptConfig(restarts=4, seed=7)
        a = opt.min_local_output_entropy(rho, 2, cfg)
        b = opt.min_local_output_entropy(rho, 2, cfg)
        assert a.restart_values == b.restart_values
        assert np.array_equal(a.isometry.v, b.isometry.v)

    def test_first_factor_wiring(self):
        # The factors after the first are the rest: fusing them changes nothing.
        rho = ch.random_state((2, 2, 2), 3, seed=8)
        cfg = opt.OptConfig(restarts=3, seed=9)
        a = opt.min_local_output_entropy(rho, 2, cfg)
        b = opt.min_local_output_entropy(qmath.merge_factors(rho, [[0], [1, 2]]), 2, cfg)
        assert a.value == b.value
        assert a.restart_values == b.restart_values
        assert np.array_equal(a.isometry.v, b.isometry.v)

    def test_step_underflow_reported(self):
        # On a flat f no candidate lies below the reference, so a step whose
        # required decrease ARMIJO * t * |g|^2 is lost in rounding must not
        # pass: each restart halves t from 1 until that decrease falls below
        # the rounding of C (about 42 candidates after its start value) and
        # ends on step underflow, not converged.
        calls = [0]

        def fun(v):
            calls[0] += 1
            return 1.0

        grad = lambda v: np.ones_like(v)
        cfg = opt.OptConfig(restarts=2, seed=9)
        report = opt.stiefel_minimize(fun, grad, 4, 2, cfg)
        assert not report.converged
        assert report.value == 1.0
        assert report.restart_reasons == ["step_underflow", "step_underflow"]
        assert calls[0] <= 2 * 48

    def test_flat_minimum_ends_after_one_candidate(self):
        # |g| = 3e-8 is just above grad_tol, so ARMIJO * t * |g|^2 is below the
        # rounding of C = f from the first step: one refused candidate ends the
        # restart, where halving t down to MIN_STEP took 47.
        calls = [0]

        def fun(v):
            calls[0] += 1
            return 1.0

        start = np.zeros((4, 1), dtype=complex)
        start[0, 0] = 1.0
        direction = np.zeros((4, 1), dtype=complex)
        direction[1, 0] = 3e-8
        report = opt.stiefel_minimize(
            fun, lambda v: direction, 4, 1, opt.OptConfig(restarts=0), initial_points=[start]
        )
        assert report.restart_reasons == ["step_underflow"]
        assert report.value == 1.0
        assert calls[0] == 2

    def test_non_finite_restart_is_never_best(self):
        # The objective is NaN near e0, which is also a critical point, so the
        # restart started there stays NaN; np.argmin would pick it as best.
        a = np.diag([3.0, 2.0, 1.0]).astype(complex)
        fun = lambda v: math.nan if abs(v[0, 0]) > 0.999 else float(np.vdot(v, a @ v).real)
        grad = lambda v: 2.0 * a @ v
        e0 = np.zeros((3, 1), dtype=complex)
        e0[0, 0] = 1.0
        cfg = opt.OptConfig(restarts=2, seed=12)
        report = opt.stiefel_minimize(fun, grad, 3, 1, cfg, initial_points=[e0], floor=1.0)
        assert math.isnan(report.restart_values[0])
        assert report.best_restart != 0
        assert math.isfinite(report.restart_values[report.best_restart])
        assert report.value == pytest.approx(1.0, abs=1e-8)

    def test_all_restarts_non_finite_raise(self):
        cfg = opt.OptConfig(restarts=2, seed=13)
        with pytest.raises(ConvergenceError, match="non-finite"):
            opt.stiefel_minimize(lambda v: math.nan, np.zeros_like, 3, 1, cfg)


class TestOptConfig:
    @pytest.mark.parametrize("grad_tol", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_grad_tol_rejected(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol"):
            opt.OptConfig(grad_tol=grad_tol)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True, np.int64(-1)],
                             ids=["None", "-1", "1.5", "True", "int64(-1)"])
    def test_seed_that_is_no_non_negative_integer_rejected(self, seed):
        # Unchecked, None failed at the ensemble's cfg.seed + 1 and -1 or 1.5 inside numpy.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            opt.OptConfig(seed=seed)
        assert opt.OptConfig(seed=np.int64(3)).seed == 3

    def test_zero_grad_tol_allowed(self):
        assert opt.OptConfig(grad_tol=0.0).grad_tol == 0.0


class TestQrRetract:
    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_one_column_is_the_normalized_column(self, d):
        rng = np.random.default_rng(d)
        for scale in (1e-3, 1.0, 1e3):
            z = scale * (rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1)))
            q = opt.qr_retract(z)
            assert q.shape == (d, 1)
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-15
            assert np.max(np.abs(q - qmath.positive_qr(z))) <= 1e-15

    def test_several_columns_keep_positive_qr(self):
        v = ch.random_isometry(6, 2, seed=1) + 0.1
        assert np.array_equal(opt.qr_retract(v), qmath.positive_qr(v))


class TestNonmonotoneDescent:
    """Zhang-Hager acceptance: steps may raise f, the best point is reported."""

    def test_rising_step_accepted_and_best_point_reported(self):
        # A Rayleigh-trace objective whose BB steps overshoot: the restart
        # accepts rises and its last point is not its best.
        a = np.diag(np.logspace(0, 2, 6)).astype(complex)
        fun = lambda v: float(np.vdot(v, a @ v).real)
        accepted, last = [], []

        def grad(v):
            # The descent takes a gradient at its start and at every accepted point.
            accepted.append(fun(v))
            return 2.0 * a @ v

        def traced_fun(v):
            last[:] = [fun(v)]
            return last[0]

        start = ch.random_isometry(6, 2, seed=2)
        cfg = opt.OptConfig(restarts=0, max_iterations=15)
        report = opt.stiefel_minimize(traced_fun, grad, 6, 2, cfg, initial_points=[start])
        # The run stops at the iteration cap right after accepting a step, so
        # its last objective call is its last accepted point.
        assert report.restart_reasons == ["max_iterations"]
        accepted += last
        assert any(y > x for x, y in zip(accepted, accepted[1:]))
        assert accepted[-1] > min(accepted)
        assert report.restart_values[0] == min(accepted)
        assert report.restart_values[0] <= accepted[0]
        assert fun(report.isometry) == report.value

    def test_restart_value_never_above_its_probe_start(self):
        rho = ch.random_state((2, 3), 4, seed=90)
        problem = opt._OutputEntropyProblem(rho, 3, 3)
        probes = [ch.random_isometry(9, 2, seed=91 + k) for k in range(4)]
        cfg = opt.OptConfig(restarts=0, max_iterations=25, stop_at_floor=False)
        report = opt.stiefel_minimize(
            problem.value, problem.gradient, 9, 2, cfg, initial_points=probes
        )
        for probe, value in zip(probes, report.restart_values):
            assert value <= problem.value(opt.qr_retract(probe))

    def test_seeded_report_determinism(self):
        rho = ch.random_state((2, 3), 4, seed=92)
        cfg = opt.OptConfig(restarts=4, max_iterations=80, seed=93)
        a = opt.min_local_output_entropy(rho, 3, cfg)
        b = opt.min_local_output_entropy(rho, 3, cfg)
        assert a.value == b.value
        assert a.restart_values == b.restart_values
        assert a.restart_reasons == b.restart_reasons
        assert (a.iterations, a.best_restart, a.converged) == (
            b.iterations, b.best_restart, b.converged
        )
        assert np.array_equal(a.isometry.v, b.isometry.v)

    @pytest.mark.parametrize("seed", range(5))
    def test_about_one_objective_call_per_iteration(self, seed):
        # The block-2 qutrit shape: two copies of a rank-3 (3, 3) state with
        # the senders merged, so d_in = d_out = 9.
        rho = ch.random_state((3, 3), 3, seed=seed)
        joint = qmath.merge_factors(qmath.tensor(rho, rho), [[0, 2], [1, 3]])
        problem = opt._OutputEntropyProblem(joint, 9, 9)
        calls = [0]

        def fun(v):
            calls[0] += 1
            return problem.value(v)

        floor = max(0.0, problem.marginal_entropy - math.log2(9))
        cfg = opt.OptConfig(restarts=1, max_iterations=200, seed=seed)
        report = opt.stiefel_minimize(fun, problem.gradient, 81, 9, cfg, floor=floor)
        started = len(report.restart_values)
        assert calls[0] <= 1.25 * (report.iterations + started)


class TestRestartReasons:
    def test_grad_tol_and_alignment(self):
        v0 = ch.random_isometry(6, 2, seed=0)
        fun = lambda v: float(np.linalg.norm(v - v0) ** 2)
        grad = lambda v: 2.0 * (v - v0)
        report = opt.stiefel_minimize(fun, grad, 6, 2, opt.OptConfig(restarts=3, seed=1))
        assert len(report.restart_reasons) == len(report.restart_values) == 3
        assert set(report.restart_reasons) == {"grad_tol"}
        assert report.converged

    def test_floor_then_skipped(self):
        # Random restarts only: the first descends to the floor H = 0 of the
        # singlet, and the other two are skipped, not given a reason.
        problem = opt._OutputEntropyProblem(qmath.singlet().to_density(), 2, 2)
        cfg = opt.OptConfig(restarts=3, seed=2)
        report = opt.stiefel_minimize(problem.value, problem.gradient, 4, 2, cfg, floor=0.0)
        assert report.restart_reasons == ["floor"]
        assert report.skipped_restarts == 2
        assert report.converged

    def test_max_iterations(self):
        v0 = ch.random_isometry(6, 2, seed=3)
        fun = lambda v: float(np.linalg.norm(v - v0) ** 2)
        grad = lambda v: 2.0 * (v - v0)
        cfg = opt.OptConfig(restarts=2, max_iterations=2, seed=4)
        report = opt.stiefel_minimize(fun, grad, 6, 2, cfg)
        assert report.restart_reasons == ["max_iterations"] * 2
        assert not report.converged

    def test_step_underflow(self):
        # Every candidate scores above the start, so backtracking runs out.
        calls = iter(range(10**6))
        fun = lambda v: 1.0 if next(calls) == 0 else 2.0
        cfg = opt.OptConfig(restarts=1, seed=9)
        report = opt.stiefel_minimize(fun, np.ones_like, 4, 2, cfg)
        assert report.restart_reasons == ["step_underflow"]
        assert report.value == 1.0
        assert not report.converged

    def test_non_finite_value_and_gradient(self):
        e0 = np.zeros((3, 1), dtype=complex)
        e0[0, 0] = 1.0
        a = np.diag([3.0, 2.0, 1.0]).astype(complex)
        fun = lambda v: math.nan if abs(v[0, 0]) > 0.999 else float(np.vdot(v, a @ v).real)
        grad = lambda v: 2.0 * a @ v
        cfg = opt.OptConfig(restarts=1, seed=12)
        report = opt.stiefel_minimize(fun, grad, 3, 1, cfg, initial_points=[e0], floor=1.0)
        assert report.restart_reasons[0] == "non_finite"
        assert report.restart_reasons[1] != "non_finite"
        nan_grad = lambda v: np.full_like(v, math.nan)
        report = opt.stiefel_minimize(fun, nan_grad, 3, 1, cfg)
        assert report.restart_reasons == ["non_finite"]
        assert math.isfinite(report.value)


class TestRandomStartDraws:
    """Each random start is drawn when its restart begins, in restart order."""

    @staticmethod
    def _singlet():
        problem = opt._OutputEntropyProblem(qmath.singlet().to_density(), 2, 2)
        return problem.value, problem.gradient

    @pytest.mark.parametrize("stop_at_floor", [True, False])
    def test_same_starts_as_drawn_up_front(self, stop_at_floor):
        fun, grad = self._singlet()
        cfg = opt.OptConfig(restarts=4, seed=2, stop_at_floor=stop_at_floor)
        rng = np.random.default_rng(cfg.seed)
        up_front = [ch.random_isometry(4, 2, rng) for _ in range(cfg.restarts)]
        drawn = opt.stiefel_minimize(fun, grad, 4, 2, cfg, floor=0.0)
        given = opt.stiefel_minimize(
            fun, grad, 4, 2, opt.OptConfig(restarts=0, stop_at_floor=stop_at_floor),
            initial_points=up_front, floor=0.0,
        )
        assert len(drawn.restart_values) == (1 if stop_at_floor else 4)
        assert drawn.restart_values == given.restart_values
        assert drawn.restart_reasons == given.restart_reasons
        assert drawn.skipped_restarts == given.skipped_restarts
        assert np.array_equal(drawn.isometry, given.isometry)

    @pytest.mark.parametrize("stop_at_floor", [True, False])
    def test_one_draw_per_random_restart_that_runs(self, monkeypatch, stop_at_floor):
        fun, grad = self._singlet()
        draws = []
        original = ch.random_isometry

        def counting(*args, **kwargs):
            draws.append(args[:2])
            return original(*args, **kwargs)

        monkeypatch.setattr(ch, "random_isometry", counting)
        probe = ch.random_isometry(4, 2, seed=9)
        draws.clear()
        cfg = opt.OptConfig(restarts=5, seed=3, stop_at_floor=stop_at_floor)
        report = opt.stiefel_minimize(fun, grad, 4, 2, cfg, initial_points=[probe], floor=0.0)
        assert len(report.restart_values) + report.skipped_restarts == 6
        assert draws == [(4, 2)] * (len(report.restart_values) - 1)
        # The probe already reaches the floor: no random start is drawn at all.
        assert report.skipped_restarts == (5 if stop_at_floor else 0)


class TestEntropyGradient:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        rho = ch.random_state((3, 2), 4, seed=seed + 20)
        # Without and with a post channel 2 -> 3, which the problem folds into V.
        for post in (None, ch.random_channel(2, 3, 2, seed=seed + 60)):
            problem = opt._OutputEntropyProblem(rho, 2, 3, post)
            v = ch.random_isometry(6, 3, seed=seed + 40)
            g = problem.gradient(v)
            for _ in range(3):
                direction = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
                direction /= np.linalg.norm(direction)
                fd = finite_difference_directional(problem.value, v, direction)
                analytic = float(np.real(np.vdot(g, direction)))
                assert abs(fd - analytic) <= 1e-4 * max(1.0, abs(fd))

    def test_zero_along_global_phase(self):
        rho = ch.random_state((2, 2), 3, seed=32)
        iso = ch.dilate(ch.random_channel(2, 2, 3, seed=33))
        g = opt._OutputEntropyProblem(rho, iso.d_out, iso.d_env).gradient(iso.v)
        assert abs(np.real(np.vdot(g, 1j * iso.v))) < 1e-8

    def test_small_riemannian_gradient_at_minimizer(self):
        rho = qmath.singlet().to_density()
        # A unitary encoding is a global minimizer of the output entropy.
        v = np.zeros((8, 2), dtype=complex)
        v[0::4, :] = np.eye(2)
        problem = opt._OutputEntropyProblem(rho, 2, 4)
        g = opt.tangent_project(v, problem.gradient(v))
        assert np.linalg.norm(g) < 1e-6


def _lifted(v, work, d_out, d_env):
    """(V (x) I_rest) and (V (x) I_rest) rho, split as [out, env, rest, (in, rest)]."""
    d_rest = work.dims[1]
    lift = np.kron(v, np.eye(d_rest))
    shape = (d_out, d_env, d_rest, -1)
    return lift.reshape(shape), (lift @ work.entries).reshape(shape)


def _lifted_kraus_sum(kraus, x, d_rest):
    lifts = [np.kron(k, np.eye(d_rest)) for k in kraus]
    return sum(lift @ x @ lift.conj().T for lift in lifts)


def _rest_first(x, d_out, d_rest):
    """[d_out, d_rest] -> [d_rest, d_out], the problem's signal layout."""
    side = d_out * d_rest
    return x.reshape(d_out, d_rest, d_out, d_rest).transpose(1, 0, 3, 2).reshape(side, side)


class TestContractionsAgainstLifts:
    """The reshape-and-matmul kernels against explicit (V (x) I) and Kraus lifts."""

    # (state dims, rank, d_out, d_env, post-channel output or None); the first
    # is the block-2 qutrit shape d_in = d_out = 9, d_env = 81, d_rest = 4, rank 9.
    CASES = [((3, 2, 3, 2), 9, 9, 81, None), ((3, 2), 4, 3, 4, 2), ((2, 3), 6, 3, 2, 3)]

    @pytest.mark.parametrize("dims, rank, d_out, d_env, post_out", CASES)
    def test_signal_state_post_maps_and_gradient(self, dims, rank, d_out, d_env, post_out):
        seed = sum(dims) + rank
        rho = ch.random_state(dims, rank, seed=seed)
        factors = [0, 2] if len(dims) == 4 else [0]
        work = qmath.merge_factors(rho, [factors, [i for i in range(len(dims)) if i not in factors]])
        d_in, d_rest = work.dims
        post = None if post_out is None else ch.random_channel(d_out, post_out, 3, seed=seed + 1)
        problem = opt._OutputEntropyProblem(work, d_out, d_env, post)
        assert problem.rank == rank
        v = ch.random_isometry(d_out * d_env, d_in, seed=seed + 2)
        lift, lift_rho = _lifted(v, work, d_out, d_env)

        # Tr_env (V (x) I) rho (V (x) I)^dag, then the post channel's Kraus lifts.
        side = d_out * d_rest
        x = np.einsum("oesc,petc->ospt", lift_rho, lift.conj()).reshape(side, side)
        signal = x if post is None else _lifted_kraus_sum(post.kraus, x, d_rest)
        d_signal = d_out if post is None else post_out
        signal_state = problem._forward(v)[2]
        assert np.max(np.abs(signal_state - _rest_first(signal, d_signal, d_rest))) < 1e-12

        rng = np.random.default_rng(seed + 3)
        g = rng.standard_normal((2, d_signal * d_rest, d_signal * d_rest))
        l_signal = qmath.hermitize(g[0] + 1j * g[1])
        # The problem folds phi into its isometry; the reference applies phi's
        # adjoint to L through explicit Kraus lifts: Tr[L phi(X)] = Tr[phi^dag(L) X].
        l_x = l_signal
        if post is not None:
            adjoint = [k.conj().T for k in post.kraus]
            l_x = _lifted_kraus_sum(adjoint, l_signal, d_rest)

        # Tr[L S(V)] = Tr[(L_x (x) I_env) W rho W^dag] with W = V (x) I_rest, whose
        # gradient in W is 2 (L_x (x) I_env) W rho; the gradient in V traces out
        # the rest index that W carries on both sides.
        grad_lift = 2.0 * np.einsum(
            "osqt,qetc->oesc", l_x.reshape(d_out, d_rest, d_out, d_rest), lift_rho
        )
        expected = np.trace(
            grad_lift.reshape(d_out * d_env, d_rest, d_in, d_rest), axis1=1, axis2=3
        )
        l_problem = _rest_first(l_signal, d_signal, d_rest)
        pullback = problem._pullback(problem.output_tensor(v), l_problem)
        assert np.max(np.abs(pullback - expected)) < 1e-12


class TestMinLocalOutputEntropy:
    def test_product_pure_state(self):
        rho = qmath.tensor_pure(qmath.basis_state(2, 0), qmath.basis_state(2, 0)).to_density()
        report = opt.min_local_output_entropy(rho, 2, opt.OptConfig(restarts=4, seed=10))
        assert report.value == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_two_qubits(self):
        rho = qmath.maximally_mixed((2, 2))
        report = opt.min_local_output_entropy(rho, 2, opt.OptConfig(restarts=6, seed=11))
        assert report.value == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("seed", range(3))
    def test_value_within_analytic_bracket(self, seed):
        rho = ch.random_state((2, 2), 3, seed=seed + 50)
        h_b = qmath.von_neumann_entropy(qmath.partial_trace(rho, {1}))
        report = opt.min_local_output_entropy(rho, 2, opt.OptConfig(restarts=4, seed=seed))
        assert max(0.0, h_b - 1.0) - 1e-9 <= report.value <= h_b + 1e-9

    def test_never_above_any_probe(self):
        # Upper-bound semantics against projection, identity and 50 random
        # channels, all supplied as probes.
        rho = ch.random_state((2, 2), 4, seed=60)
        rng = np.random.default_rng(61)
        probes = [ch.random_channel(2, 2, int(rng.integers(1, 5)), rng) for _ in range(50)]
        report = opt.min_local_output_entropy(
            rho, 2, opt.OptConfig(restarts=2, seed=62), probes=probes
        )
        work = rho
        candidates = probes + [
            ch.QuantumChannel.projection_onto(2, 2),
            ch.QuantumChannel.identity(2),
        ]
        for probe in candidates:
            probe_value = qmath.von_neumann_entropy(ch.apply_local(probe, work, 0))
            assert report.value <= probe_value + 1e-9


class TestExtremePointEnvironment:
    """The default search runs at d_env = d_in unless a probe needs more."""

    def test_default_environment_is_d_in(self):
        rho = ch.random_state((2, 3), 4, seed=70)
        report = opt.min_local_output_entropy(rho, 3, opt.OptConfig(restarts=2, seed=71))
        assert report.isometry.d_env == 2
        assert report.dropped_probes == 0
        block = cap.dc_capacity_block(2, 2, ch.random_state((2, 2), 2, seed=72),
                                      opt.OptConfig(restarts=1, max_iterations=20, seed=73))
        assert block.report.isometry.d_env == 4
        assert block.report.dropped_probes == 0

    def test_full_kraus_rank_probe_is_honored(self):
        # A generic channel 2 -> 2 with four Kraus operators has Choi rank 4
        # = d_in * d_out, above the default d_env = 2: the environment grows.
        rho = ch.random_state((2, 2), 4, seed=74)
        probe = ch.random_channel(2, 2, 4, seed=75)
        assert len(ch.canonical_kraus(probe)) == 4
        result = cap.dc_capacity(2, rho, opt.OptConfig(restarts=1, seed=76), probes=[probe])
        probe_value = 1.0 + qmath.von_neumann_entropy(qmath.partial_trace(rho, {1})) - (
            qmath.von_neumann_entropy(ch.apply_local(probe, rho, 0))
        )
        assert result.report.isometry.d_env == 4
        assert result.report.dropped_probes == 0
        assert result.value >= probe_value - 1e-9

    def test_caller_d_env_counts_dropped_probes(self):
        # d_env = 1 fits the embedding probe (rank 1) but neither the
        # projection probe (rank d_in = 2) nor a rank-4 caller probe.
        rho = ch.random_state((2, 2), 3, seed=77)
        cfg = opt.OptConfig(restarts=1, seed=78, d_env=1)
        probe = ch.random_channel(2, 2, 4, seed=79)
        report = opt.min_local_output_entropy(rho, 2, cfg, probes=[probe])
        assert report.isometry.d_env == 1
        assert report.dropped_probes == 2

    def test_probe_of_the_wrong_shape_raises(self):
        rho = ch.random_state((2, 2), 3, seed=80)
        with pytest.raises(DimensionMismatchError):
            opt.min_local_output_entropy(
                rho, 2, opt.OptConfig(restarts=1), probes=[ch.QuantumChannel.identity(3)]
            )


class TestForwardCache:
    """value() caches its eigendecomposition for the gradient at the same point."""

    @staticmethod
    def _problem(post=False):
        rho = ch.random_state((3, 2), 5, seed=81)
        phi = ch.random_channel(3, 2, 2, seed=82) if post else None
        return opt._OutputEntropyProblem(rho, 3, 3, phi)

    @pytest.mark.parametrize("post", [False, True])
    def test_gradient_at_another_point_is_not_stale(self, post):
        v1 = ch.random_isometry(9, 3, seed=83)
        v2 = ch.random_isometry(9, 3, seed=84)
        problem = self._problem(post)
        problem.value(v1)
        g = problem.gradient(v2)
        fresh = self._problem(post).gradient(v2)
        assert np.max(np.abs(g - fresh)) <= 1e-14

    @pytest.mark.parametrize("post", [False, True])
    def test_gradient_after_value_matches_a_fresh_gradient(self, post):
        v = ch.random_isometry(9, 3, seed=85)
        problem = self._problem(post)
        value = problem.value(v)
        g = problem.gradient(v)
        fresh = self._problem(post)
        assert np.max(np.abs(g - fresh.gradient(v))) <= 1e-14
        expected = qmath.entropy_of_spectrum(np.linalg.eigvalsh(fresh._forward(v)[2]))
        assert abs(value - expected) <= 1e-14

    def test_equal_copy_is_recomputed(self):
        # The cache is keyed on the array object: an equal copy recomputes
        # and gives the same gradient.
        v = ch.random_isometry(9, 3, seed=86)
        problem = self._problem()
        problem.value(v)
        assert np.max(np.abs(problem.gradient(v.copy()) - problem.gradient(v))) <= 1e-14


class TestOptimizeEnsemble:
    def test_identity_on_singlet_reaches_two_bits(self):
        rho = qmath.singlet().to_density()
        result = opt.optimize_ensemble(
            ch.QuantumChannel.identity(2), rho, 4, opt.OptConfig(restarts=6, seed=12)
        )
        assert result.value >= 2.0 - 1e-3

    def test_constant_channel_is_useless(self):
        const = ch.QuantumChannel.constant_replacement(2, qmath.maximally_mixed((2,)))
        rho = qmath.singlet().to_density()
        result = opt.optimize_ensemble(
            const, rho, 4, opt.OptConfig(restarts=2, seed=13, ensemble_sweeps=4)
        )
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_separable_state_gives_one_bit(self):
        from densecode import capacity as cap

        rho = cap.random_separable((2, 2), 6, seed=14)
        result = opt.optimize_ensemble(
            ch.QuantumChannel.identity(2), rho, 4, opt.OptConfig(restarts=4, seed=15)
        )
        assert result.value == pytest.approx(1.0, abs=1e-3)

    def test_value_monotone_over_sweeps(self):
        rho = ch.random_state((2, 2), 2, seed=16)
        result = opt.optimize_ensemble(
            ch.random_channel(2, 2, 2, seed=17), rho, 3,
            opt.OptConfig(restarts=2, seed=18, ensemble_sweeps=8),
        )
        diffs = np.diff(result.history)
        assert np.all(diffs >= -1e-9)

    def test_ensemble_seeded_determinism(self):
        rho = ch.random_state((2, 2), 2, seed=22)
        phi = ch.random_channel(2, 2, 2, seed=23)
        cfg = opt.OptConfig(restarts=2, seed=24, ensemble_sweeps=4)
        a = opt.optimize_ensemble(phi, rho, 3, cfg)
        b = opt.optimize_ensemble(phi, rho, 3, cfg)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert a.value == b.value
        assert a.history == b.history

    @pytest.mark.parametrize("m", [0, -1])
    def test_ensemble_size_below_one_rejected(self, m):
        rho = qmath.singlet().to_density()
        with pytest.raises(InvariantError, match="ensemble size m must be >= 1"):
            opt.optimize_ensemble(ch.QuantumChannel.identity(2), rho, m)

    def test_ceiling(self):
        rho = ch.random_state((2, 2), 2, seed=19)
        phi = ch.random_channel(2, 2, 2, seed=20)
        result = opt.optimize_ensemble(phi, rho, 4, opt.OptConfig(restarts=2, seed=21))
        h_b = qmath.von_neumann_entropy(qmath.partial_trace(rho, {1}))
        assert result.value <= math.log2(2) + h_b + 1e-9
