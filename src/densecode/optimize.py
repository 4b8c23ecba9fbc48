"""Minimization of output-entropy objectives over quantum channels.

Channels T from the acted register into C^{d_out} are parameterized by
Stinespring isometries V on the complex Stiefel manifold, and minimized by
multi-restart Riemannian gradient descent: tangent projection, a
Barzilai-Borwein step, QR retraction, and backtracking against the
nonmonotone reference of Zhang & Hager (2004), as Wen & Yin (2013) use it
for BB steps on the Stiefel manifold.  A BB step may raise the objective, so
each restart keeps the best point it accepted.  Global optimality is never
certified -- the reported value is the entropy of a feasible channel, hence
always an upper bound on the true minimum, and every caller-supplied probe
channel is seeded as a restart so the result can only improve on it.
The ensemble ascent of ``optimize_ensemble`` runs on the same descent.

The environment of the search is as small as the minimum allows.  The output
entropy H((T (x) id) rho) is concave in T, so its minimum over the convex set
of channels is reached at an extreme point, and an extreme channel has at
most d_in Kraus operators (Choi 1975, Thm 5).  ``min_local_output_entropy``
therefore searches d_env = d_in, raised only to fit the largest canonical
Kraus rank among its probes, instead of the d_in * d_out that holds every
channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import channels as ch
from . import qmath
from .channels import QuantumChannel, StinespringIsometry
from .errors import ConvergenceError, DimensionMismatchError, InvariantError
from .qmath import DensityMatrix, LOG2E, hermitize

# Eigenvalues are clamped at this floor inside logarithms so that entropy
# gradients stay finite at rank-deficient outputs.
LOG_CLAMP = 1e-18
FLOOR_SLACK = 1e-9
# Zhang-Hager weight eta: the reference C is a mean of the accepted values
# with weights decaying by eta per step (eta = 0 is the monotone Armijo test).
NONMONOTONE_DECAY = 0.85
# Line search: sufficient-decrease constant, first step of a restart, and the
# step below which halving ends in step_underflow.
ARMIJO, INIT_STEP, MIN_STEP = 1e-4, 1.0, 1e-14
# Per ensemble sweep: Blahut reweightings of p, descent iterations per member.
BLAHUT_STEPS, ENSEMBLE_INNER_STEPS = 8, 4


@dataclass(frozen=True)
class OptConfig:
    """Knobs for the Stiefel descent and the ensemble optimizer; its line-search
    settings and per-sweep step counts are the module constants above.
    """

    restarts: int = 20
    max_iterations: int = 500
    grad_tol: float = 1e-8
    d_env: int | None = None
    seed: int = 0
    stop_at_floor: bool = True
    ensemble_sweeps: int = 40

    def __post_init__(self):
        if self.restarts < 0 or self.max_iterations <= 0 or not self.grad_tol >= 0.0:  # NaN too
            raise ValueError("restarts and grad_tol must be >= 0 and max_iterations positive")
        if self.d_env is not None and self.d_env < 1:
            raise ValueError("d_env must be >= 1")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class OptReport:
    """Outcome of a multi-restart minimization."""

    value: float
    isometry: StinespringIsometry | np.ndarray
    restart_values: list[float]
    converged: bool
    iterations: int
    best_restart: int
    skipped_restarts: int = 0
    # Probes whose Kraus rank exceeds a caller-set OptConfig.d_env; not seeded.
    dropped_probes: int = 0
    # Why each restart that ran stopped, aligned with restart_values: grad_tol,
    # floor, step_underflow, max_iterations or non_finite (a value or gradient
    # that is not finite).  Skipped restarts are counted in skipped_restarts.
    restart_reasons: list[str] = field(default_factory=list)
    # H of the rest's marginal (the factors after the first), set by
    # min_local_output_entropy; dc_capacity reports it as H(rho_B).
    marginal_entropy: float | None = None


def qr_retract(matrix: np.ndarray) -> np.ndarray:
    """QR retraction onto the Stiefel manifold (R-diagonal positive; one column z gives z / |z|)."""
    if matrix.shape[1] == 1:
        return matrix / qmath.frobenius_norm(matrix)
    return qmath.positive_qr(matrix)


def _log2_clamped(lam: np.ndarray) -> np.ndarray:
    return np.log2(np.maximum(lam, LOG_CLAMP))


def tangent_project(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at an isometry."""
    a = v.conj().T @ grad
    return grad - v @ (0.5 * (a + a.conj().T))


def stiefel_minimize(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    d_rows: int,
    d_cols: int,
    cfg: OptConfig | None = None,
    initial_points: Sequence[np.ndarray] = (),
    floor: float | None = None,
) -> OptReport:
    """Multi-restart Riemannian descent of a smooth objective on isometries.

    ``initial_points`` are deterministic warm starts (probes) run before the
    ``cfg.restarts`` Haar-random restarts.  Each iteration tries the
    Barzilai-Borwein step and halves it until the candidate is strictly below
    the Zhang-Hager reference C, a running mean of the accepted values (weights
    decaying by ``NONMONOTONE_DECAY``), and at least ``ARMIJO`` * t * |g|^2
    below it; so an accepted step may raise f.  Halving ends in
    ``step_underflow`` below ``MIN_STEP``, or sooner at a flat point: once f
    meets C and the required decrease is below the rounding of C.  Each
    restart reports the best point it accepted, so its value never exceeds
    the value at its start.

    When ``floor`` is given and ``cfg.stop_at_floor`` is set, remaining
    restarts are skipped as soon as a restart reaches the floor (an analytic
    lower bound supplied by the caller); skipped restarts are counted in the
    report.  Restarts that end on a non-finite value are never chosen as
    best; if every restart does, ``ConvergenceError`` is raised.
    """
    cfg = cfg or OptConfig()
    # Member descents and sup ascents run probes alone and never draw.
    rng = np.random.default_rng(cfg.seed) if cfg.restarts else None
    probes = [np.asarray(p, dtype=complex) for p in initial_points]
    n_starts = len(probes) + cfg.restarts
    if not n_starts:
        raise ValueError("need at least one restart or initial point")

    values: list[float] = []
    points: list[np.ndarray] = []
    reasons: list[str] = []
    total_iterations = 0
    skipped = 0

    for idx in range(n_starts):
        finite = [f for f in values if math.isfinite(f)]
        if (
            floor is not None
            and cfg.stop_at_floor
            and finite
            and min(finite) <= floor + FLOOR_SLACK
        ):
            skipped = n_starts - idx
            break
        # A random start is drawn when its restart begins, so skipped ones cost nothing.
        start = probes[idx] if idx < len(probes) else ch.random_isometry(d_rows, d_cols, rng)
        v = qr_retract(start)
        f = fun(v)
        best_v, best_f = v, f
        ref, weight = f, 1.0
        step = INIT_STEP
        previous = None
        reason = "max_iterations"
        for _ in range(cfg.max_iterations):
            total_iterations += 1
            g = tangent_project(v, grad(v))
            gn = qmath.frobenius_norm(g)  # np.linalg.norm(g) bit for bit, as in qr_retract
            if gn <= cfg.grad_tol:
                reason = "grad_tol"
                break
            if not math.isfinite(gn):
                reason = "non_finite"
                break
            if previous is not None:
                # Barzilai-Borwein initialization; exact on quadratic bowls.
                s = v - previous[0]
                y = g - previous[1]
                yy = np.vdot(y, y).real
                sy = abs(np.vdot(s, y).real)
                if yy > 1e-300 and sy > 1e-300:
                    step = min(max(sy / yy, 1e-12), 1e6)
            t = step
            flat = False
            while t >= MIN_STEP and not flat:
                cand = qr_retract(v - t * g)
                fc = fun(cand)
                required = ARMIJO * t * gn * gn
                if fc < ref and fc <= ref - required:
                    break
                # Once f meets C and the required decrease is below C's
                # rounding, shorter steps only repeat the same refused test.
                flat = f >= ref and required < abs(np.spacing(ref))
                t *= 0.5
            else:
                reason = "step_underflow"
                break
            previous = (v, g)
            v, f = cand, fc
            step = 2.0 * t
            ref_weight = NONMONOTONE_DECAY * weight
            weight = ref_weight + 1.0
            ref = (ref_weight * ref + f) / weight
            if f < best_f:
                best_v, best_f = v, f
            if floor is not None and f <= floor + FLOOR_SLACK:
                reason = "floor"
                break
        if not math.isfinite(best_f):
            reason = "non_finite"
        values.append(best_f)
        points.append(best_v)
        reasons.append(reason)

    finite_restarts = [i for i, f in enumerate(values) if math.isfinite(f)]
    if not finite_restarts:
        raise ConvergenceError(
            f"all {len(values)} restarts ended on a non-finite objective value"
        )
    best = min(finite_restarts, key=values.__getitem__)
    return OptReport(
        value=float(values[best]),
        isometry=points[best],
        restart_values=[float(x) for x in values],
        converged=reasons[best] in ("grad_tol", "floor"),
        iterations=total_iterations,
        best_restart=best,
        skipped_restarts=skipped,
        restart_reasons=reasons,
    )


class _OutputEntropyProblem:
    """H((phi o T (x) id) rho) as a function of the Stinespring isometry of T.

    T acts on the first factor of rho (``capacity`` puts the sender there), and
    the factors after it, fused by a reshape, are the rest: the working state
    lives on [d_in, d_rest].  rho is eigen-factored once into per-rest-index
    blocks F_s, and every contraction is a matmul on a reshaped view: no
    lifted V (x) I or post-channel Kraus operator is built.
    A post channel phi is folded into the isometry: phi o T has the dilation
    V' = (K (x) I_env) V, one matmul of ``post_matrix`` P[(o', k), o] = K_k[o', o]
    with V.  The signal state lives on [d_rest, d_signal], phi's output (rest first).

    ``value`` keeps its point, output tensor, signal state and the signal's
    eigendecomposition; ``gradient`` reuses them when it is handed that same
    array object, as ``stiefel_minimize`` does with the accepted candidate.
    Points must not be modified in place between the two calls.
    """

    def __init__(
        self,
        rho: DensityMatrix,
        d_out: int,
        d_env: int,
        post_channel: QuantumChannel | None = None,
    ):
        if post_channel is not None and post_channel.d_in != d_out:
            raise DimensionMismatchError(
                f"post channel input {post_channel.d_in} vs encoding output {d_out}"
            )
        self.d_in = rho.dims[0]
        self.d_rest = rho.side // self.d_in
        self.d_out, self.d_env = d_out, d_env
        self.post_matrix, self.d_signal = None, d_out
        if post_channel is not None:
            self.post_matrix = post_channel.kraus.transpose(1, 0, 2).reshape(-1, d_out)
            self.d_signal = post_channel.d_out
        lam, vec = np.linalg.eigh(hermitize(rho.entries))
        keep = lam > 1e-14
        lam, vec = lam[keep], vec[:, keep]
        self.rank = int(lam.size)
        # F[s, a, r]: eigenvector r scaled by sqrt(lam), split into (acted, rest).
        factored = (vec * np.sqrt(lam)).reshape(self.d_in, self.d_rest, self.rank)
        self.factored = np.ascontiguousarray(factored.transpose(1, 0, 2))
        self.factored_adj = self.factored.conj().swapaxes(1, 2)
        rest = np.trace(rho.entries.reshape(self.d_in, self.d_rest, self.d_in, self.d_rest),
                        axis1=0, axis2=2)
        self.marginal_entropy = qmath.entropy_of_spectrum(np.linalg.eigvalsh(hermitize(rest)))
        self._forward_cache: tuple | None = None

    # -- forward pass ------------------------------------------------------

    def output_tensor(self, v: np.ndarray) -> np.ndarray:
        """Z[(s, o'), (k, e, r)] = (V' F_s)[(o', k, e), r], V' the isometry of phi o T."""
        if self.post_matrix is not None:
            v = (self.post_matrix @ v.reshape(self.d_out, -1)).reshape(-1, self.d_in)
        return (v @ self.factored).reshape(self.d_rest * self.d_signal, -1)

    def _forward(self, v: np.ndarray) -> tuple:
        """(v, Z, signal, eigenvalues, eigenvectors) of the signal state at v, cached."""
        cached = self._forward_cache
        if cached is None or cached[0] is not v:
            z = self.output_tensor(v)
            # phi(Tr_env (V (x) I) rho (V (x) I)^dag) = Z Z^dag.
            zz = z @ z.conj().T
            signal = 0.5 * (zz + zz.conj().T)  # hermitize, inlined
            lam, vec = qmath.eigh(signal)
            cached = self._forward_cache = (v, z, signal, lam, vec)
        return cached

    def value(self, v: np.ndarray) -> float:
        return qmath.entropy_of_spectrum(self._forward(v)[3])

    # -- gradient ----------------------------------------------------------

    def _pullback(self, z: np.ndarray, l_signal: np.ndarray) -> np.ndarray:
        """Euclidean gradient of Tr[L signal(V)] at Z = output_tensor(V), for Hermitian L."""
        # (L Z)[(s, o'), (k, e, r)] as the stack over s of [(o', k, e), r] blocks, times F_s^dag.
        lz = (l_signal @ z).reshape(self.d_rest, -1, self.rank)
        grad = 2.0 * (lz @ self.factored_adj).sum(axis=0)
        post = self.post_matrix
        if post is None:
            return grad
        # V' = P V on the output index, so the gradient in V is P^dag times that in V'.
        return (post.conj().T @ grad.reshape(post.shape[0], -1)).reshape(-1, self.d_in)

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """Euclidean gradient of H(signal(V)); df = Re <grad, dV>."""
        _, z, _, lam, vec = self._forward(v)
        # dH(X)/dX = -(log2 X + log2 e), with eigenvalues clamped away from 0.
        l_signal = qmath.from_spectrum(-(_log2_clamped(lam) + LOG2E), vec)
        return self._pullback(z, l_signal)


def _padded_isometry(iso: StinespringIsometry, d_env: int) -> np.ndarray:
    """iso.v with its environment zero-padded to d_env levels, as V[(out, env), in]."""
    v = np.zeros((iso.d_out, d_env, iso.d_in), dtype=complex)
    v[:, : iso.d_env] = iso.v.reshape(iso.d_out, iso.d_env, iso.d_in)
    return v.reshape(iso.d_out * d_env, iso.d_in)


def _dilate_probes(
    channels: Sequence[QuantumChannel], d_in: int, d_out: int
) -> list[StinespringIsometry]:
    """Minimal (canonical Kraus) dilations of channels that must map d_in to d_out."""
    for chan in channels:
        if (chan.d_in, chan.d_out) != (d_in, d_out):
            raise DimensionMismatchError(
                f"probe maps {chan.d_in} -> {chan.d_out}, the problem needs {d_in} -> {d_out}"
            )
    return [ch.dilate(chan) for chan in channels]


def default_probes(d_in: int, d_out: int) -> list[QuantumChannel]:
    """Always-feasible encodings: forget everything, and embed when possible."""
    probes = [QuantumChannel.projection_onto(d_in, d_out)]
    if d_out >= d_in:
        probes.append(QuantumChannel.embedding(d_in, d_out))
    return probes


def min_local_output_entropy(
    rho: DensityMatrix,
    d_out: int,
    cfg: OptConfig | None = None,
    probes: Sequence[QuantumChannel] = (),
    post_channel: QuantumChannel | None = None,
) -> OptReport:
    """Minimize H((phi o T (x) id) rho) over channels T out of the first factor.

    ``capacity`` puts the sender's factors first; the factors after it are the
    rest.  The reported value is an upper bound on the true minimum (attained
    by the returned isometry) and never exceeds the value of any probe.  A
    ``post_channel`` phi, when given, is applied after the encoding.
    """
    cfg = cfg or OptConfig()
    d_in = rho.dims[0]
    dilations = _dilate_probes(list(default_probes(d_in, d_out)) + list(probes), d_in, d_out)
    # An extreme channel has at most d_in Kraus operators (module docstring);
    # the environment grows only so that every probe fits.
    d_env = cfg.d_env or max([d_in] + [iso.d_env for iso in dilations])
    problem = _OutputEntropyProblem(rho, d_out, d_env, post_channel)
    starts = [_padded_isometry(iso, d_env) for iso in dilations if iso.d_env <= d_env]

    floor = max(0.0, problem.marginal_entropy - math.log2(problem.d_signal))

    report = stiefel_minimize(
        problem.value,
        problem.gradient,
        d_out * d_env,
        d_in,
        cfg,
        initial_points=starts,
        floor=floor,
    )
    report.isometry = StinespringIsometry(d_in, d_out, d_env, qr_retract(report.isometry))
    report.dropped_probes = len(dilations) - len(starts)
    report.marginal_entropy = problem.marginal_entropy
    return report


# ---------------------------------------------------------------------------
# Ensemble optimization for generalized (noisy) dense coding
# ---------------------------------------------------------------------------


@dataclass
class EnsembleResult:
    """Feasible encoding ensemble and the mutual information it certifies."""

    probabilities: np.ndarray
    encodings: list[QuantumChannel]
    value: float
    history: list[float] = field(default_factory=list)
    converged: bool = False


def _member_descent(problem: _OutputEntropyProblem, v: np.ndarray, weight: float,
                    rest: np.ndarray, h_rest: float, cfg: OptConfig) -> OptReport:
    """stiefel_minimize of -I = weight H(s(V)) + h_rest - H(rest + weight s(V)).

    ``rest`` and ``h_rest`` are the other members' weighted signal and entropy sums.
    """
    avg: list = [None]

    def forward(x):
        _, z, signal, lam, vec = problem._forward(x)
        if avg[0] is not x:
            avg[:] = [x, *qmath.eigh(rest + weight * signal)]
        return z, lam, vec, avg[1], avg[2]

    def fun(x):
        _, lam, _, lam_a, _ = forward(x)
        return weight * qmath.entropy_of_spectrum(lam) + h_rest - qmath.entropy_of_spectrum(lam_a)

    def grad(x):
        # dI/ds = weight (log2 s - log2 avg): the log2(e) terms cancel.
        z, lam, vec, lam_a, vec_a = forward(x)
        log_s = qmath.from_spectrum(_log2_clamped(lam), vec)
        log_avg = qmath.from_spectrum(_log2_clamped(lam_a), vec_a)
        return problem._pullback(z, weight * (log_avg - log_s))

    return stiefel_minimize(fun, grad, *v.shape, cfg, initial_points=[v])


def optimize_ensemble(
    phi: QuantumChannel,
    rho: DensityMatrix,
    m: int,
    cfg: OptConfig | None = None,
    initial_encodings: Sequence[QuantumChannel] | None = None,
) -> EnsembleResult:
    """Alternating maximization of the encoding mutual information.

    Climbs I(mu) = H(avg signal) - sum p_i H(signal_i) over m encoding
    isometries, which act on the first factor of rho (``capacity`` puts the
    sender there), and the probability simplex.  A sweep reweights p
    (``BLAHUT_STEPS`` Blahut-style steps), then runs ``stiefel_minimize`` on
    -I over each member for ``ENSEMBLE_INNER_STEPS`` iterations, p and the
    other members fixed, and keeps the result only if I rose.  The value is
    the mutual information of an explicit feasible ensemble, a certified lower
    bound on the generalized dense-coding capacity, and never decreases.
    """
    if m < 1:
        raise InvariantError(f"ensemble size m must be >= 1, got {m}")
    cfg = cfg or OptConfig()
    d_in = rho.dims[0]
    d_env = cfg.d_env or d_in * phi.d_in
    problem = _OutputEntropyProblem(rho, phi.d_in, d_env, post_channel=phi)

    isometries: list[np.ndarray] = []
    for iso in _dilate_probes(initial_encodings or (), d_in, phi.d_in):
        if iso.d_env > d_env:
            raise DimensionMismatchError(
                f"initial encoding of Kraus rank {iso.d_env} exceeds d_env = {d_env}"
            )
        isometries.append(_padded_isometry(iso, d_env))
    if len(isometries) < m:
        # Default seeding: a minimizing encoding followed by Weyl rotations of
        # the channel input, which twirls the average signal exactly.  The
        # Holevo objective is not concave in one member, so the ensemble keeps
        # its larger environment and hands it to the seeding descent.
        inner_cfg = replace(cfg, restarts=max(4, cfg.restarts // 2), d_env=d_env)
        base = min_local_output_entropy(rho, phi.d_in, inner_cfg, post_channel=phi)
        v_star = base.isometry.v
        for w in ch.weyl_basis(phi.d_in):
            if len(isometries) >= m:
                break
            # (W (x) I_env) V: W acts on the output index of V[(out, env), in].
            isometries.append((w @ v_star.reshape(phi.d_in, -1)).reshape(v_star.shape))
        rng = np.random.default_rng(cfg.seed + 1)
        while len(isometries) < m:
            isometries.append(ch.random_isometry(phi.d_in * d_env, d_in, rng))
    isometries = isometries[:m]

    p = np.full(m, 1.0 / m)
    forward = [problem._forward(v)[2:4] for v in isometries]
    signals = [signal for signal, _ in forward]
    h_signals = np.array([qmath.entropy_of_spectrum(lam) for _, lam in forward])
    value = qmath.holevo_quantity(p, signals)
    history = [value]
    member_cfg = replace(cfg, restarts=0, max_iterations=ENSEMBLE_INNER_STEPS)

    for _ in range(cfg.ensemble_sweeps):
        # Simplex step: exponentiated reweighting by the relative entropies
        # D(s_i || avg) = -H(s_i) - Tr s_i log2 avg, with avg's spectrum clamped.
        lam_avg, vec_avg = qmath.eigh(hermitize(sum(pi * s for pi, s in zip(p, signals))))
        for _ in range(BLAHUT_STEPS):
            log_avg = qmath.from_spectrum(_log2_clamped(lam_avg), vec_avg)
            dvals = -h_signals - np.array([np.vdot(s, log_avg).real for s in signals])
            new_p = p * np.power(2.0, dvals - dvals.max())
            new_p /= new_p.sum()
            # I = H(avg) - p . h_signals, from the one eigh that also gives the next log2 avg.
            new_avg = sum(pi * s for pi, s in zip(new_p, signals))
            new_lam, new_vec = qmath.eigh(hermitize(new_avg))
            new_value = qmath.entropy_of_spectrum(new_lam) - float(new_p @ h_signals)
            if new_value < value - 1e-12:
                break
            p, value, lam_avg, vec_avg = new_p, new_value, new_lam, new_vec

        # Encoding step: a short descent of -I on each member in turn.
        for i in range(m):
            if p[i] <= 1e-12:
                continue
            rest = sum(p[j] * signals[j] for j in range(m) if j != i)
            h_rest = float(p @ h_signals - p[i] * h_signals[i])
            report = _member_descent(problem, isometries[i], float(p[i]), rest, h_rest, member_cfg)
            if -report.value > value:
                isometries[i] = report.isometry
                _, _, signals[i], lam, _ = problem._forward(isometries[i])
                h_signals[i] = qmath.entropy_of_spectrum(lam)
                value = -report.value

        history.append(value)
        if len(history) >= 3 and history[-1] - history[-3] < 1e-9:
            break

    encodings = [ch.undilate(StinespringIsometry(d_in, phi.d_in, d_env, v)) for v in isometries]
    converged = len(history) >= 3 and history[-1] - history[-3] < 1e-9
    return EnsembleResult(p, encodings, float(value), history, converged)
