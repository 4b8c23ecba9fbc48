"""Programmable quantum gates: programs, approximation, scalability witnesses.

A programmable gate is a fixed unitary on data (x) program registers; feeding
a program state and discarding the program register induces a channel on the
data.  For gates built from controlled unitary blocks the induced map of any
program is exactly the mixture of the blocks weighted by the program's
squared amplitudes, which this module exploits heavily: superposition
programs realize nearby-unitary mixtures whose first-order errors cancel, so
useful approximation nets stay far smaller than pure-atom coverings would.

All unitary comparisons are phase-quotiented (global phases are invisible in
the induced maps).  Suprema over inputs are *estimated* (Haar sampling, then
the Stiefel descent from the best sample), except for qubit mixture programs,
whose Bloch distortion is exact; the method travels with every error value.
Selection's ``ceiling`` (``estimate_sup_error``) stops an ascent that cannot win.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, repeat
from typing import NamedTuple, Sequence

import numpy as np

from . import channels as ch
from . import optimize as opt
from . import qmath
from .channels import QuantumChannel
from .errors import (
    DimensionMismatchError,
    InvariantError,
    NotAProgramError,
    SizeGuardError,
)
from .qmath import PureState, hermitize

PROGRAM_TOL = 1e-6
MAX_PROGRAM_DIM = 4096
SUP_ASCENT_STEPS = 30
# Dense gate matrices are only materialized up to this side.
MAX_DENSE_GATE_SIDE = 4096
# The witness's general path searches program products up to this dimension.
GENERAL_DIM_GUARD = 64


@dataclass(frozen=True, eq=False)
class ProgrammableGate:
    """Unitary on data (x) program; ``blocks`` is set for controlled-unitary gates.

    Both are read-only complex copies, checked here; ``blocks`` is one stack
    [d_program, d_data, d_data], copied from any sequence of d x d matrices.
    """

    d_data: int
    d_program: int
    unitary: np.ndarray | None = field(repr=False, default=None)
    blocks: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.unitary is None and self.blocks is None:
            raise InvariantError("gate needs a unitary matrix or controlled blocks")
        if self.blocks is not None:
            shape = (self.d_program, self.d_data, self.d_data)
            object.__setattr__(self, "blocks", _unitaries(self.blocks, shape))
        if self.unitary is not None:
            side = self.d_data * self.d_program
            object.__setattr__(self, "unitary", _unitaries(self.unitary, (side, side)))
            if self.blocks is not None:
                defect = float(np.max(np.abs(self.unitary - _block_matrix(self.blocks))))
                if defect > qmath.ISOMETRY_TOL:
                    raise InvariantError(f"unitary contradicts the blocks (defect {defect:.3e})")

    @property
    def matrix(self) -> np.ndarray:
        """Dense gate unitary (built from blocks on demand, size permitting)."""
        return self.unitary if self.unitary is not None else _block_matrix(self.blocks)


def _block_matrix(blocks: np.ndarray) -> np.ndarray:
    """sum_q B_q (x) |q><q| for a block stack [d_program, d, d], as a dense matrix."""
    d_program, d, _ = blocks.shape
    side = d * d_program
    if side > MAX_DENSE_GATE_SIDE:
        raise SizeGuardError(f"dense gate of side {side} exceeds {MAX_DENSE_GATE_SIDE}")
    u = np.zeros((d, d_program, d, d_program), dtype=complex)
    q = np.arange(d_program)
    u[:, q, :, q] = blocks  # block q on the program diagonal (q, q)
    return u.reshape(side, side)


def _unitaries(matrices, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only complex copy of a unitary or a stack of them, checked in one batched product."""
    try:
        u = np.array(matrices, dtype=complex)
    except ValueError:
        raise DimensionMismatchError(f"ragged matrices, expected shape {shape}") from None
    if u.shape != shape:
        raise DimensionMismatchError(f"matrix of shape {u.shape}, expected {shape}")
    qmath.require_isometry(u, "matrix is not unitary")
    u.flags.writeable = False
    return u


@dataclass(frozen=True, eq=False)
class UnitaryNet:
    """A net's unitaries, its gate's read-only block stack, with an estimated covering radius."""

    elements: np.ndarray = field(repr=False)
    covering_radius: float = math.nan
    method: str = "unset"
    metadata: dict = field(default_factory=dict)


class BarrierSolve(NamedTuple):
    """Mixture weights, and per problem the solve's steps, stop reason and gap bound."""

    weights: np.ndarray
    steps: np.ndarray
    reasons: np.ndarray
    gaps: np.ndarray


class ErrorEstimate(NamedTuple):
    """An estimated supremum with the estimation method attached."""

    value: float
    method: str
    n_samples: int


@dataclass
class OrthogonalityVerdict:
    consistent: bool
    proportional: bool
    orthogonal: bool
    overlap: float
    choi_collinearity: float
    tol: float


@dataclass
class WitnessReport:
    """Best program found for a target on a tensor pair of gates.

    The general path stores its program vector in ``amplitudes``; the
    control-block path only keeps ``program_weights``, and ``best_program``
    builds the dense vector from them on first access (None past 2**21
    amplitudes).  The control-block path also reports ``lower_bound``, below
    the error of every joint program; the general path has none.
    """

    best_error: float
    program_weights: list[tuple[tuple[int, int], float]] | None
    sup_estimate: ErrorEstimate
    n_inputs: int
    seed: int
    method: str
    program_dims: tuple[int, int]
    amplitudes: np.ndarray | None = field(default=None, repr=False, compare=False)
    lower_bound: ErrorEstimate | None = None

    @cached_property
    def best_program(self) -> PureState | None:
        d1, d2 = self.program_dims
        if self.amplitudes is not None:
            return PureState((d1, d2), self.amplitudes)
        if d1 * d2 > 2**21:
            return None
        amps = np.zeros(d1 * d2, dtype=complex)
        for (j, l), w in self.program_weights:
            amps[j * d2 + l] = math.sqrt(w)
        amps /= np.linalg.norm(amps)
        return PureState((d1, d2), amps)


@dataclass
class EmulationReport:
    program: PureState
    measured_error: float
    n_samples: int
    seed: int
    program_error: ErrorEstimate


@dataclass(frozen=True)
class WitnessConfig:
    n_inputs: int = 24
    seed: int = 0
    sup_samples: int = 200
    fw_iterations: int = 80
    general_restarts: int = 12

    def __post_init__(self):
        if self.n_inputs < 1 or self.general_restarts < 1:
            raise ValueError("n_inputs and general_restarts must be >= 1")
        if self.fw_iterations < 0 or self.sup_samples < 0:
            raise ValueError("fw_iterations and sup_samples must be >= 0")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


# ---------------------------------------------------------------------------
# Construction and induced maps
# ---------------------------------------------------------------------------


def control_gate(units: Sequence[np.ndarray]) -> ProgrammableGate:
    """sum_i U_i (x) |i><i|: each basis program implements its block exactly."""
    if not len(units):
        raise InvariantError("control_gate needs at least one unitary")
    return ProgrammableGate(len(units[0]), len(units), blocks=units)


def tensor_gates(a: ProgrammableGate, b: ProgrammableGate) -> ProgrammableGate:
    """Gate acting as a and b in parallel, reordered to data (x) program.

    The tensor product of controlled-block gates is again a controlled-block
    gate over block pairs (j, l) -> U_j (x) V_l with program index j * dP_b + l.
    """
    if a.blocks is not None and b.blocks is not None:
        grid = np.indices((a.d_program, b.d_program)).reshape(2, -1).T
        blocks = _pair_operators(a.blocks, b.blocks, grid)
        return ProgrammableGate(a.d_data * b.d_data, a.d_program * b.d_program, blocks=blocks)
    side = a.d_data * b.d_data * a.d_program * b.d_program
    if side > MAX_DENSE_GATE_SIDE:
        raise SizeGuardError(f"tensored gate of side {side} exceeds {MAX_DENSE_GATE_SIDE}")
    # kron(a, b) acts on (data_a, prog_a, data_b, prog_b); reorder both sides.
    big = np.kron(a.matrix, b.matrix).reshape([a.d_data, a.d_program, b.d_data, b.d_program] * 2)
    perm = big.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(side, side)
    return ProgrammableGate(a.d_data * b.d_data, a.d_program * b.d_program, unitary=perm)


def _pair_operators(blocks1: np.ndarray, blocks2: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """U_j (x) V_l for every row (j, l) of ``pairs``, from two block stacks, as [pair, a, b]."""
    u = blocks1[pairs[:, 0]]
    v = blocks2[pairs[:, 1]]
    d = u.shape[-1] * v.shape[-1]
    return (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(len(pairs), d, d)


def induced_map(gate: ProgrammableGate, psi: PureState) -> QuantumChannel:
    """The channel the program state selects on the data register."""
    if psi.side != gate.d_program:
        raise DimensionMismatchError(
            f"program of dimension {psi.side}, gate expects {gate.d_program}"
        )
    return QuantumChannel(gate.d_data, gate.d_data, _program_kraus(gate, psi.amplitudes))


def _program_kraus(gate: ProgrammableGate, amps: np.ndarray) -> np.ndarray:
    """Unvalidated Kraus stack [k, d, d] of the map that program amplitudes select."""
    if gate.blocks is not None:
        keep = np.abs(amps) > 1e-16
        return amps[keep, None, None] * gate.blocks[keep]
    g4 = gate.matrix.reshape(gate.d_data, gate.d_program, gate.d_data, gate.d_program)
    return np.einsum("akbq,q->kab", g4, amps)


def mixture_program(gate: ProgrammableGate, weights: dict[int, float]) -> PureState:
    """Program whose induced map mixes the gate's blocks with the given weights."""
    if gate.blocks is None:
        raise InvariantError("mixture programs need a controlled-block gate")
    amps = np.zeros(gate.d_program, dtype=complex)
    for idx, w in weights.items():
        if not 0 <= idx < gate.d_program:
            raise InvariantError(f"block index {idx} outside 0..{gate.d_program - 1}")
        if not w >= -qmath.NORM_TOL:  # NaN too
            raise InvariantError(f"negative mixture weight {w} on block {idx}")
        amps[idx] = math.sqrt(max(0.0, w))  # rounding-level negatives clip to 0
    norm = np.linalg.norm(amps)
    if norm <= 0:
        raise InvariantError("mixture weights vanish")
    return PureState((gate.d_program,), amps / norm)


# ---------------------------------------------------------------------------
# Distances and error estimation
# ---------------------------------------------------------------------------


def unitary_map_distance(u: np.ndarray, v: np.ndarray) -> float:
    """sup over pure inputs of || u z u^dag - v z v^dag ||_1, phase-quotiented.

    Equals 2 sin(L/2) where L is the eigenphase spread of u^dag v (or 2 once
    the spread reaches pi).  For qubits this reduces to the trace formula
    2 sqrt(1 - |Tr(u^dag v)|^2 / 4).
    """
    return float(_unitary_map_distances(u, np.asarray(v)[None])[0])


def _unitary_map_distances(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``unitary_map_distance(u, v)`` for every v in a stack [n, d, d], batched.

    Qubits take |Tr(u^dag v)| over the whole stack in one contraction; larger d
    takes the eigenphases of the stacked u^dag v from one ``eigvals`` call.
    """
    if u.shape == (2, 2):
        trace = np.einsum("ab,kab->k", u.conj(), stack)
        overlap = np.minimum(1.0, np.hypot(trace.real, trace.imag) / 2.0)
        return 2.0 * np.sqrt(np.maximum(0.0, 1.0 - overlap**2))
    if u.shape[0] == 1:
        return np.zeros(len(stack))
    phases = np.sort(np.angle(np.linalg.eigvals(u.conj().T @ stack)), axis=-1)
    wrap = 2.0 * math.pi - (phases[:, -1] - phases[:, 0])
    span = 2.0 * math.pi - np.maximum(np.diff(phases, axis=-1).max(axis=-1), wrap)
    return np.where(span >= math.pi, 2.0, 2.0 * np.sin(span / 2.0))


def _stack_outputs(ops: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Y[s, k, :] = ops[k] @ inputs[s] for a stack of operators, as one matmul."""
    return (inputs @ ops.reshape(-1, ops.shape[-1]).T).reshape(len(inputs), *ops.shape[:2])


def _conjugation_gaps(kraus, reference, inputs: np.ndarray) -> np.ndarray:
    """Reference output minus channel output for every input row z, stacked.

    Both sides are Kraus stacks [k, out, in]; a unitary target is the
    one-element stack ``target[None]``.  The trace norm of each gap
    (``qmath.hermitian_trace_norm``) is the trace distance of the two
    channels on that input.
    """
    rz, kz = (_stack_outputs(ops, inputs) for ops in (reference, kraus))
    return np.swapaxes(rz, 1, 2) @ rz.conj() - np.swapaxes(kz, 1, 2) @ kz.conj()


def estimate_sup_error(
    kraus: np.ndarray,
    target: np.ndarray,
    n_samples: int = 200,
    seed=0,
    *,
    ceiling: float = math.inf,
) -> ErrorEstimate:
    """Estimate sup over pure inputs of the trace distance to the target map.

    The channel is the Kraus stack ``kraus`` [k, d, d].  Haar sampling, then
    the Stiefel descent (``optimize.stiefel_minimize``) of minus the trace
    distance from the best sample, on d x 1 input columns.  The result is a
    lower estimate of the true supremum, never below the best sample; it
    never exceeds 2; past ``ceiling`` + ``FLOOR_SLACK`` it returns at once.
    """
    reference = target[None]
    d = target.shape[0]
    samples = qmath.haar_vectors(ch.as_rng(seed), n_samples, d)
    tds = qmath.hermitian_trace_norm(_conjugation_gaps(kraus, reference, samples))
    best = float(tds.max(initial=0.0))
    if best > ceiling + opt.FLOOR_SLACK:
        return ErrorEstimate(min(2.0, best), "haar-sampling", n_samples)
    z = samples[int(np.argmax(tds))] if best > 0.0 else np.eye(d, dtype=complex)[0]

    # The value and the subgradient share the eigh of the point's gap.
    cache: list = [None]

    def spectrum(v: np.ndarray):
        if cache[0] is not v:
            cache[:] = [v, *qmath.eigh(hermitize(_conjugation_gaps(kraus, reference, v.T)[0]))]
        return cache[1:]

    def fun(v: np.ndarray) -> float:
        return -float(np.abs(spectrum(v)[0]).sum())

    def grad(v: np.ndarray) -> np.ndarray:
        # Minus the gradient of tr[2 u u† gap] in z: -4 (a a† z - sum_k b_k b_k† z),
        # with a = T† u and b_k = K_k† u.
        u, z = _top_vectors(*spectrum(v)), v[:, 0]
        a, b = u @ target.conj(), u @ kraus.conj()
        return -4.0 * (a * np.vdot(a, z) - b.T @ (b.conj() @ z))[:, None]

    cfg = opt.OptConfig(restarts=0, max_iterations=SUP_ASCENT_STEPS, grad_tol=1e-12)
    floor = -ceiling - 2.0 * opt.FLOOR_SLACK
    report = opt.stiefel_minimize(fun, grad, d, 1, cfg, initial_points=[z[:, None]], floor=floor)
    return ErrorEstimate(min(2.0, -report.value), "haar-sampling+ascent", n_samples)


def approximation_error(
    gate: ProgrammableGate,
    psi: PureState,
    target: np.ndarray,
    n_samples: int = 200,
    seed=0,
    *,
    ceiling: float = math.inf,
) -> ErrorEstimate:
    """Worst-case trace distance of the induced map to a unitary target.

    Exact on qubit block gates (``_bloch_error``) and for one Kraus operator,
    otherwise ``estimate_sup_error``; each value carries its method tag.
    """
    target = _unitaries(target, (gate.d_data,) * 2)
    if psi.side != gate.d_program:  # checked here: the qubit branch never builds the map
        raise DimensionMismatchError(
            f"program of dimension {psi.side}, gate expects {gate.d_program}"
        )
    if gate.d_data == 2 and gate.blocks is not None:
        return ErrorEstimate(_bloch_error(gate.blocks, psi, target), "exact-bloch", 0)
    kraus = induced_map(gate, psi).kraus
    if len(kraus) == 1:  # a unitary up to its norm: the closed form
        scale = np.linalg.norm(kraus[0]) / math.sqrt(gate.d_data)
        return ErrorEstimate(unitary_map_distance(kraus[0] / scale, target), "exact-unitary", 0)
    return estimate_sup_error(kraus, target, n_samples, seed, ceiling=ceiling)


# ---------------------------------------------------------------------------
# Programs for targets: nearest atoms and optimized mixtures
# ---------------------------------------------------------------------------


_PAULIS = qmath.PAULIS[1:]  # X, Y, Z
# tau / nu of the barrier stages, down to nu / tau = 1e-10, the bound on the
# objective gap: short steps while the central path bends, long ones after.
TAU_LADDER = 10.0 ** np.array([0, 1, 2, 4, 6, 8, 10])
# Damped one-dimensional Newton steps of the line search.
LINE_STEPS = 2
# A stage is centered once the Newton decrement is this small.
CENTERED = 1e-3
# Caps a solve's steps: a qubit solve takes 27-42 at n = 12 atoms, 40-65 at n = 200.
NEWTON_CAP = 1000
# Ridge on the unit-diagonal Newton system: atoms that repeat (a qubit net
# holds U and -U) leave their difference direction with curvature below the
# rounding of the other terms.
RIDGE = 1e-12
# A vertex this close to the objective's floor 0 is the target up to phase.
EXACT_VERTEX = 1e-12
# An atom enters the active set below this reduced gradient (rounding: n * 1e-16).
MULTIPLIER_TOL = 1e-13


def _bloch_rotations(units: np.ndarray) -> np.ndarray:
    """SO(3) actions R[..., i, j] = tr(P_i U P_j U^dag) / 2 of a stack of qubit unitaries."""
    units = units[..., None, :, :]
    conj = units @ _PAULIS @ units.conj().swapaxes(-1, -2)
    return 0.5 * np.einsum("iba,...jab->...ij", _PAULIS, conj).real


def _mixture_objective(atoms: np.ndarray, target: np.ndarray):
    """Objective of the mixture-weight solve, over a stack of problems.

    ``atoms`` is [..., n, d, d] and ``target`` [..., d, d].  Returns
    (fun, solve, vertex_values): ``fun(w)`` gives the objective at weights
    w [..., n] and its (sub)gradient, ``solve(rows)`` solves the problems ``rows``
    of the flattened stack, and ``vertex_values[..., i]`` is the objective of atom
    i alone.

    For qubits the objective is the exact worst-case Bloch distortion
    sigma_max(sum_i w_i (I - R_i)) (King & Ruskai 2001), solved on its LMI by
    ``_barrier_newton``.  Otherwise it is the Choi-Frobenius proxy
    w^T G w - 2 b^T w + 1, a convex quadratic with G_ij = |<v_i, v_j>|^2 and
    b_i = |tr(target^dag a_i)|^2 / d^2 (``_active_set``).
    """
    n, d = atoms.shape[-3:-1]
    rel = target.conj().swapaxes(-1, -2)[..., None, :, :] @ atoms
    if d == 2:
        distortions = np.eye(3) - _bloch_rotations(rel)  # I - R_i
        flat = distortions.reshape(*distortions.shape[:-2], 9)

        def fun(w):
            u, s, vh = np.linalg.svd((w[..., None] * flat).sum(-2).reshape(*w.shape[:-1], 3, 3))
            # d sigma_max / d w_i = u_0^T (I - R_i) v_0
            top = (u[..., :, 0, None] * vh[..., 0, None, :]).reshape(*w.shape[:-1], 9, 1)
            return s[..., 0], (flat @ top)[..., 0]

        solve = partial(_barrier_newton, distortions.reshape(-1, n, 3, 3))
        vertex_values = np.linalg.svd(distortions, compute_uv=False)[..., 0]
    else:
        vecs = rel.reshape(*rel.shape[:-2], d * d)
        gram = np.abs(vecs.conj() @ vecs.swapaxes(-1, -2)) ** 2 / d**2
        b = np.abs(np.trace(rel, axis1=-2, axis2=-1)) ** 2 / d**2

        def fun(w):
            gw = (gram @ w[..., None])[..., 0]
            return (w * gw).sum(-1) - 2.0 * (b * w).sum(-1) + 1.0, 2.0 * (gw - b)

        solve = partial(_active_set, gram.reshape(-1, n, n), b.reshape(-1, n))
        vertex_values = np.diagonal(gram, axis1=-2, axis2=-1) - 2.0 * b + 1.0
    return fun, solve, vertex_values


@np.errstate(invalid="ignore")  # a singular KKT system's NaN is reported, not warned
def _active_set(gram: np.ndarray, b: np.ndarray, rows: np.ndarray) -> BarrierSolve:
    """Exact minimizers of w^T G w - 2 b^T w on the simplex for the problems ``rows``.

    A primal active-set method from the best vertex (Nocedal & Wright 2006, section 16.5).
    The KKT system [[2 G_FF, 1], [1^T, 0]] of the free set F gives the face's minimizer; the
    ratio test cuts one off the simplex and drops its blocking atom, else the atom of most
    negative reduced gradient g_i - mean(g_F) enters.  With none below -``MULTIPLIER_TOL`` the
    solve is ``exact``, certified by the Frank-Wolfe gap g . w - min g.  Steps count KKT solves.
    A singular KKT system solves to NaN (``qmath.solve_vector``) and ends as ``non_finite``.
    """
    solves = []
    for g, c in zip(gram[rows], b[rows]):
        free, reason = [int(np.argmin(np.diagonal(g) - 2.0 * c))], "newton_cap"
        w = np.eye(len(c))[free[0]]
        for steps in range(1, NEWTON_CAP + 1):
            kkt = np.ones((len(free) + 1,) * 2)
            kkt[:-1, :-1], kkt[-1, -1] = 2.0 * g[np.ix_(free, free)], 0.0
            y = qmath.solve_vector(kkt, np.append(2.0 * c[free], 1.0))[:-1]
            if y.min() < 0.0:  # the ratio test: the longest step toward y that keeps w >= 0
                ratios = np.divide(w[free], w[free] - y, out=np.full(len(y), np.inf), where=y < 0.0)
                w[free] += ratios.min() * (y - w[free])
                w[free.pop(int(np.argmin(ratios)))] = 0.0
                continue
            w[free] = y
            grad = 2.0 * (g @ w - c)
            reduced = grad - grad[free].mean()
            reduced[free] = 0.0
            if not reduced.min() < -MULTIPLIER_TOL:  # a NaN stops it too
                reason = "exact"
                break
            free.append(int(np.argmin(reduced)))
        grad = 2.0 * (g @ w - c)
        gap = grad @ w - grad.min()
        solves.append((w, steps, reason if np.isfinite(gap) else "non_finite", gap))
    return BarrierSolve(*map(np.array, zip(*solves)))


def _line_search(slope, curvature, ratios) -> np.ndarray:
    """Steps a toward the minimum of g(a) = slope a + curvature a^2 / 2 - sum_k log(1 + a ratios_k).

    g is the barrier problem along a move that scales each barrier factor (a
    weight, an LMI eigenvalue) by 1 + a ratios_k.  The start 1 / (1 + sigma),
    sigma the largest relative decrease, lowers g along a Newton move (the
    damped step with sigma for the decrement); damped 1-D Newton steps follow.
    """
    alpha = 1.0 / (1.0 + np.maximum(0.0, -ratios.min(-1)))
    for _ in range(LINE_STEPS):
        shrink = ratios / (1.0 + alpha[:, None] * ratios)
        first = slope + curvature * alpha - shrink.sum(-1)
        second = curvature + (shrink**2).sum(-1)
        alpha -= first / (second + np.abs(first) * np.sqrt(second))
    return alpha


def _barrier_newton(distortions: np.ndarray, rows: np.ndarray) -> BarrierSolve:
    """Simplex weights [len(rows), n] minimizing the qubit problems ``rows`` of a stack.

    ``distortions`` [B, n, 3, 3] holds D_i = I - R_i.  Each problem minimizes t
    over x = (w, t), w on the simplex, subject to the 6x6 LMI
    F(x) = sum_i w_i [[0, D_i], [D_i^T, 0]] + t I >= 0, that is
    t >= sigma_max(sum_i w_i D_i), from the strictly feasible start w = 1 / n,
    t = sigma_max(mean D) + 1.  The log-barrier method (Boyd & Vandenberghe
    2004, *Convex Optimization*, section 11.3) on tau t - log det F - sum log w,
    nu = 6 + n, keeps sum(w) = 1 exactly.  One KKT solve gives the Newton step
    and the central-path tangent tau dx/dtau.  A centered problem enters the
    next ``TAU_LADDER`` stage with the tangent step linear in 1 / tau, which
    predicts the next center.  Moves are line-searched (``_line_search``) on
    the ratios of w and of the LMI's eigenvalues; steps are full once the
    decrement is below 0.1.  Each problem reports its Newton steps,
    why it stopped (``centered``, ``newton_cap`` or ``non_finite``) and the
    nu / tau of its stage, which bounds its gap when centered.
    """
    dists = distortions[rows]
    b, n = dists.shape[:2]
    m, last, diag = n + 1, len(TAU_LADDER) - 1, np.arange(n)
    # F(x) = sum_k x_k basis_k; the last basis matrix, I, carries t.
    basis = np.zeros((b, m, 6, 6))
    basis[:, :n, :3, 3:] = dists
    basis[:, :n, 3:, :3] = dists.swapaxes(-1, -2)
    basis[:, n] = np.eye(6)
    top = np.linalg.svd(dists.mean(axis=1), compute_uv=False)[:, :1]
    x = np.concatenate([np.full((b, n), 1.0 / n), top + 1.0], axis=1)
    simplex, ridge = (np.arange(m) < n).astype(float), RIDGE * np.eye(m)
    rise = np.concatenate([[1.0], TAU_LADDER[1:] / TAU_LADDER[:-1], [1.0]])  # into stage k
    stage, steps = np.zeros(b, dtype=int), np.zeros(b, dtype=int)
    reasons = np.full(b, "newton_cap", dtype=object)
    live = np.arange(b)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(NEWTON_CAP):
            tau = (6.0 + n) * TAU_LADDER[stage[live]]
            point, stack = x[live], basis[live]
            lam, vec = qmath.eigh((point[:, None, :] @ stack.reshape(-1, m, 36)).reshape(-1, 6, 6))
            half = (vec / np.sqrt(lam)[:, None, :])[:, None]  # F^(-1/2) up to a rotation
            whitened = (half.swapaxes(-1, -2) @ stack @ half).reshape(len(live), m, 36)
            # tau t - log det F - sum log w: -log det F has gradient -tr(F^-1 F_k)
            # and Hessian tr(F^-1 F_k F^-1 F_l).
            grad = -whitened[..., ::7].sum(-1)
            grad[:, :n] -= 1.0 / point[:, :n]
            grad[:, n] += tau
            hess = whitened @ whitened.swapaxes(-1, -2)
            hess[:, diag, diag] += point[:, :n] ** -2
            steps[live] += 1
            # The KKT system under sum(w) = 1, scaled to a unit diagonal.
            scale = np.diagonal(hess, axis1=-2, axis2=-1) ** -0.5
            edge = simplex * scale
            system = np.zeros((len(live), m + 1, m + 1))
            system[:, :m, :m] = scale[:, :, None] * hess * scale[:, None, :] + ridge
            system[:, :m, m] = system[:, m, :m] = edge / np.sqrt((edge**2).sum(-1, keepdims=True))
            right = np.zeros((len(live), m + 1, 2))
            # The objective t has gradient e_t: the tangent's right side is -tau e_t, scaled.
            right[:, :m, 0], right[:, n, 1] = -grad * scale, -tau * scale[:, n]
            bad = ~np.isfinite(system).all((-2, -1))
            system[bad] = np.eye(m + 1)  # solved, then dropped
            solved = qmath.solve(system, right)[:, :m] * scale[..., None]
            bad |= ~np.isfinite(solved).all((-2, -1))
            if bad.any():
                reasons[live[bad]] = "non_finite"
                live, tau, grad, hess, whitened, solved = (
                    a[~bad] for a in (live, tau, grad, hess, whitened, solved))
            newton, tangent = solved[..., 0], solved[..., 1]
            # The squared Newton decrement as newton' H newton: -grad . newton cancels
            # the huge multiplier part of grad only to rounding.
            decrement = np.einsum("bi,bij,bj->b", newton, hess, newton)
            centered = decrement <= CENTERED**2
            stage[live[centered]] += 1
            # A centered problem also moves along the central path to its next tau.
            growth = np.where(centered, rise[stage[live]], 1.0)
            move = newton + (1.0 - 1.0 / growth)[:, None] * tangent
            spread = (move[:, None] @ whitened).reshape(len(live), 6, 6)
            ratios = np.concatenate([move[:, :n] / x[live, :n], qmath.eigvalsh(spread)], -1)
            # move' H move less the barrier's part, sum ratios^2, is the objective's curvature.
            curvature = growth * np.maximum(0.0, np.einsum("bi,bij,bj->b", move, hess, move)
                                                - (ratios**2).sum(-1))
            alpha = _line_search(growth * tau * move[:, n], curvature, ratios)
            x[live] += move * np.where((decrement < 0.01) & (growth == 1.0), 1.0, alpha)[:, None]
            live = live[stage[live] <= last]
            if not live.size:
                break
    reasons[stage > last] = "centered"
    return BarrierSolve(x[:, :n], steps, reasons, 1.0 / TAU_LADDER[np.minimum(stage, last)])


def optimize_mixture_weights(atoms, target: np.ndarray) -> BarrierSolve:
    """Simplex weights making the atom mixture approximate the target map.

    ``atoms`` is [..., n, d, d] and ``target`` [..., d, d]: a stack of
    problems along the leading axes, solved on ``_mixture_objective`` (qubits
    together, by the barrier method; larger d exactly, one by one).  The best
    single atom is returned when it does at least as well, and without a solve
    (0 steps, reason ``vertex``, gap 0) when its objective is 0 or it is alone.
    """
    atoms = np.asarray(atoms, dtype=complex)
    target = np.asarray(target, dtype=complex)
    n = atoms.shape[-3]
    fun, solve, vertex_values = _mixture_objective(atoms, target)
    vertex_values = vertex_values.reshape(-1, n)
    best = np.argmin(vertex_values, axis=-1)
    best_value = vertex_values[np.arange(len(best)), best]
    result = BarrierSolve(np.eye(n)[best], np.zeros(len(best), dtype=int),
                          np.full(len(best), "vertex", dtype=object), np.zeros(len(best)))
    rows = np.flatnonzero((best_value > EXACT_VERTEX) & (n > 1))
    if rows.size:
        solved = solve(rows)
        candidate = result.weights.copy()
        w = np.clip(solved.weights, 0.0, None)
        candidate[rows] = w / w.sum(-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            values = fun(candidate.reshape(atoms.shape[:-2]))[0].reshape(-1)
        better = values <= best_value  # False on a NaN point too
        result.weights[better] = candidate[better]
        result.steps[rows], result.reasons[rows], result.gaps[rows] = solved[1:]
    return BarrierSolve(*(a.reshape(atoms.shape[:-3] + a.shape[1:]) for a in result))


def _bloch_error(blocks: np.ndarray, psi: PureState, target: np.ndarray) -> float:
    """Exact sup over pure inputs of the trace distance to a qubit target.

    A program on the controlled-block qubit gate with the block stack
    ``blocks`` induces the unital channel sum_i |psi_i|^2 B_i . B_i^dag.  On
    Bloch vectors the trace distance is the Euclidean one, so the worst input
    sees the largest singular value of I - sum_i |psi_i|^2 R(target^dag B_i)
    (King & Ruskai 2001).
    """
    probs = np.abs(psi.amplitudes) ** 2
    used = np.flatnonzero(probs)
    rotations = _bloch_rotations(target.conj().T @ blocks[used])
    return float(np.linalg.norm(np.eye(3) - np.einsum("i,ijk->jk", probs[used], rotations), 2))


def _programs_for_targets(gate: ProgrammableGate, targets, n_nearest: int, n_samples: int, seeds,
                          epsilon: float = math.inf):
    """``program_for_target`` for each target.

    Yields (program, error, nearest-atom distance, (steps, reason, gap)), the
    last the target's mixture solve (``optimize_mixture_weights``).

    ``approximation_error`` scores each candidate.  Qubit targets share one
    batched mixture solve; for larger d a target is solved and measured only
    when the caller reaches it, so calibration stops at the first miss.  A
    mixture is kept only below the nearest atom's error and a pool only below
    ``epsilon``, and an ascent only raises an estimate: so the smaller of the
    two is the ``ceiling`` of ``estimate_sup_error``, and no decision moves.
    """
    blocks = gate.blocks
    chunk = len(targets) if gate.d_data == 2 else 1
    for first in range(0, len(targets), chunk):
        batch = np.asarray(targets[first : first + chunk])
        dists = np.array([_unitary_map_distances(t, blocks) for t in batch])
        order = np.argsort(dists, axis=-1)[:, :n_nearest]
        solve = optimize_mixture_weights(blocks[order], batch)
        for t, target in enumerate(batch):
            chosen = order[t]
            candidates: list[dict[int, float]] = [{int(chosen[0]): 1.0}]
            if len(chosen) >= 2:
                mixture = {int(i): float(w) for i, w in zip(chosen, solve.weights[t]) if w > 1e-9}
                candidates.append(mixture)
            best_prog, best_err = None, None
            for cand in candidates:
                prog = mixture_program(gate, cand)
                bound = epsilon if best_err is None else min(epsilon, best_err.value)
                err = approximation_error(gate, prog, target, n_samples, seeds[first + t],
                                          ceiling=bound)
                if best_err is None or err.value < best_err.value:
                    best_prog, best_err = prog, err
            yield best_prog, best_err, float(dists[t, chosen[0]]), tuple(a[t] for a in solve[1:])


def program_for_target(
    gate: ProgrammableGate,
    target: np.ndarray,
    n_nearest: int = 12,
    n_samples: int = 200,
    seed=0,
) -> tuple[PureState, ErrorEstimate]:
    """Best program found for a unitary target on a controlled-block gate.

    Compares the nearest single block with an optimized mixture of the
    nearest blocks and returns whichever errs less.  The error is
    ``approximation_error`` of the returned program with the same seed: exact
    on qubits (``exact-bloch``), otherwise a sampled estimate.
    """
    if gate.blocks is None:
        raise InvariantError("program_for_target needs a controlled-block gate")
    if n_nearest < 1:
        raise InvariantError("program_for_target needs n_nearest >= 1")
    target = _unitaries(target, (gate.d_data, gate.d_data))
    program, err, *_ = next(_programs_for_targets(gate, [target], n_nearest, n_samples, [seed]))
    return program, err


# ---------------------------------------------------------------------------
# Program orthogonality
# ---------------------------------------------------------------------------


def _unitary_from_program(gate: ProgrammableGate, psi: PureState, tol: float):
    """Top Choi component of the induced map; rejects non-programs."""
    lam, vec = np.linalg.eigh(hermitize(ch.choi(induced_map(gate, psi))))
    total = float(lam.sum())
    residual = (total - float(lam[-1])) / max(total, 1e-30)
    if residual > tol:
        raise NotAProgramError(
            f"induced map has Choi rank-1 residual {residual:.3e} beyond tolerance {tol}"
        )
    top = vec[:, -1]
    return top  # flattened unitary, up to phase and normalization


def program_orthogonality_check(
    gate: ProgrammableGate,
    psi1: PureState,
    psi2: PureState,
    tol: float = PROGRAM_TOL,
) -> OrthogonalityVerdict:
    """Check the dichotomy: essentially different programs must be orthogonal.

    Both states must be programs (unitary induced maps within ``tol``).  The
    verdict is consistent iff the induced unitaries are proportional (their
    Choi matrices collinear) or the programs are orthogonal.
    """
    w1 = _unitary_from_program(gate, psi1, tol)
    w2 = _unitary_from_program(gate, psi2, tol)
    collinearity = float(np.abs(np.vdot(w1, w2)))
    overlap = float(np.abs(np.vdot(psi1.amplitudes, psi2.amplitudes)))
    proportional = collinearity >= 1.0 - tol
    orthogonal = overlap <= tol
    return OrthogonalityVerdict(
        consistent=proportional or orthogonal,
        proportional=proportional,
        orthogonal=orthogonal,
        overlap=overlap,
        choi_collinearity=collinearity,
        tol=tol,
    )


def random_program_instance(seed) -> tuple[ProgrammableGate, PureState, PureState]:
    """A randomized gate with two genuine programs for dichotomy searches.

    Gates are controlled-block gates whose blocks may repeat up to phase;
    programs are drawn from basis states and superpositions within repeated
    groups, so non-orthogonal program pairs (with proportional unitaries)
    occur alongside orthogonal ones.
    """
    rng = ch.as_rng(seed)
    d_data = int(rng.integers(2, 4))
    n_groups = int(rng.integers(2, 4))
    group_units = [ch.random_unitary(d_data, rng) for _ in range(n_groups)]
    blocks = []
    group_of: list[int] = []
    for g, u in enumerate(group_units):
        copies = int(rng.integers(1, 3))
        for _ in range(copies):
            phase = np.exp(2j * np.pi * rng.random())
            blocks.append(phase * u)
            group_of.append(g)
    gate = control_gate(blocks)

    def random_program() -> PureState:
        # Any superposition inside a repeated-block group is an exact program:
        # the blocks differ only by phases, which fold into the program state.
        g = int(rng.integers(0, n_groups))
        members = [i for i, gi in enumerate(group_of) if gi == g]
        amps = np.zeros(len(blocks), dtype=complex)
        amps[members] = qmath.haar_vectors(rng, 1, len(members))[0]
        return PureState((len(blocks),), amps)

    return gate, random_program(), random_program()


# ---------------------------------------------------------------------------
# Approximation nets
# ---------------------------------------------------------------------------


def _hopf_grid(spacing: float) -> list[np.ndarray]:
    """Euler-angle (Hopf-stratified) grid on SU(2) with given geodesic spacing."""
    atoms = []
    n_eta = max(1, math.ceil((math.pi / 2) / spacing))
    for k in range(n_eta):
        eta = (k + 0.5) * (math.pi / 2) / n_eta
        n1 = max(1, math.ceil(2.0 * math.pi * math.cos(eta) / spacing))
        n2 = max(1, math.ceil(2.0 * math.pi * math.sin(eta) / spacing))
        for i in range(n1):
            xi1 = 2.0 * math.pi * (i + 0.5 * (k % 2)) / n1
            for j in range(n2):
                xi2 = 2.0 * math.pi * (j + 0.5 * (i % 2)) / n2
                a = math.cos(eta) * np.exp(1j * xi1)
                b = math.sin(eta) * np.exp(1j * xi2)
                atoms.append(np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex))
    return atoms


def _calibrate(pools, targets, epsilon: float, n_nearest: int, seeds, method: str, seed,
               covering: bool = True) -> tuple[ProgrammableGate, UnitaryNet]:
    """The gate and net of the first pool whose programs reach every target within epsilon.

    ``pools`` yields atom lists lazily, so a pool's random draws happen only
    once every pool before it has missed.  A pool past ``MAX_PROGRAM_DIM``
    atoms trips the size guard, which reads its length alone (``net_gate``
    passes an undrawn range), and a pool is dropped at the first target whose
    best program (``_programs_for_targets``) misses epsilon; pools that run
    out raise ``InvariantError``.  The certificate is the largest program
    error over the targets; the covering radius, NaN unless ``covering``, is
    the largest distance from a target to its nearest atom.  The metadata
    records the mixture solves (``BarrierSolve``): the most steps, every stop
    reason and the largest gap bound, under the keys named for the barrier.
    """
    d = len(targets[0])
    max_err = math.inf
    for atoms in pools:
        if len(atoms) > MAX_PROGRAM_DIM:
            raise SizeGuardError(f"net for epsilon={epsilon}, d={d} needs {len(atoms)} "
                                 f"programs (> {MAX_PROGRAM_DIM})")
        gate = control_gate(atoms)
        max_err, radius, methods, solves = 0.0, 0.0, set(), []
        programs = _programs_for_targets(gate, targets, n_nearest, 200, seeds, epsilon)
        for _, err, nearest, solve in programs:
            max_err, radius = max(max_err, err.value), max(radius, nearest)
            methods.add(err.method)
            solves.append(solve)
            if max_err > epsilon:
                break
        else:
            steps, reasons, gaps = zip(*solves)
            return gate, UnitaryNet(
                elements=gate.blocks,
                covering_radius=radius if covering else math.nan,
                method=method,
                metadata={
                    "requested_epsilon": epsilon,
                    "certificate_max_program_error": max_err,
                    "certificate_method": ", ".join(sorted(methods)),
                    "certificate_targets": len(targets),
                    "seed": seed,
                    "d": d,
                    "size": len(atoms),
                    "barrier_max_newton_steps": int(max(steps)),
                    "barrier_stop_reasons": ", ".join(sorted(set(reasons))),
                    "barrier_max_gap": float(max(gaps)),
                },
            )
    raise InvariantError(f"certification failed: measured {max_err:.4g} > epsilon {epsilon}")


def net_gate(epsilon: float, d: int, seed=0, n_targets: int = 100) -> tuple[ProgrammableGate, UnitaryNet]:
    """A gate whose programs reach every unitary on C^d within epsilon.

    The certificate is the best-program error on ``n_targets`` Haar targets,
    drawn once from ``default_rng(seed)``; ``_calibrate`` accepts the first
    pool that meets epsilon on all of them.  For qubits the pools are
    Euler-angle grids whose spacing shrinks by 0.8 per miss; in higher
    dimensions they are random pools, drawn from a child stream of the seed
    and grown by 1.6 per miss, with the covering only ever measured, never
    derived.  The program register is capped at 4096; requesting an epsilon
    that would need more trips the size guard.  ``seed=None`` draws one
    integer seed, kept in ``metadata``, and ``metadata["certificate_method"]``
    names how the program errors were measured (``exact-bloch`` on qubits).
    """
    if not (0.0 < epsilon <= 2.0):
        raise InvariantError("epsilon must lie in (0, 2]")
    if d < 2:
        raise DimensionMismatchError("net_gate needs d >= 2")
    if n_targets < 1:
        raise InvariantError("net_gate needs n_targets >= 1")
    seed = np.random.SeedSequence().entropy if seed is None else seed
    rng = np.random.default_rng(seed)
    targets = [ch.random_unitary(d, rng) for _ in range(n_targets)]
    seeds = [seed + 7919 * t + 1 for t in range(n_targets)]
    if d == 2:
        start = min(1.2, 1.35 * math.sqrt(epsilon))
        spacings = accumulate(repeat(0.8), operator.mul, initial=start)
        return _calibrate(map(_hopf_grid, spacings), targets, epsilon, 12, seeds,
                          "euler-grid, program-certified", seed)
    # A pool drawn from the targets' own stream would start with the targets.
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    sizes = accumulate(repeat(1.6), lambda n, grow: int(n * grow) + 1, initial=4 * d * d)
    # A pool past the size guard is never drawn: _calibrate reads the range's length alone.
    pools = ([ch.random_unitary(d, rng) for _ in range(n)] if n <= MAX_PROGRAM_DIM else range(n)
             for n in sizes)
    return _calibrate(pools, targets, epsilon, 12, seeds, "random-pool, program-certified", seed)


def net_gate_around(
    targets: Sequence[np.ndarray],
    epsilon: float,
    seed=0,
    n_atoms_per_target: int = 24,
    n_decoys: int = 8,
) -> tuple[ProgrammableGate, UnitaryNet]:
    """A gate certified for specific targets instead of all of U(d).

    Full nets grow with the manifold dimension, so emulating encodings on
    composite registers uses pools of perturbed copies of each target (plus
    Haar decoys).  ``_calibrate`` accepts the first of eight such pools whose
    best programs reach every target within epsilon, the perturbation spread
    shrinking by 0.7 per miss, and raises ``InvariantError`` once all eight
    miss.  ``seed=None`` draws one integer seed, kept in ``metadata``.
    """
    if not (0.0 < epsilon <= 2.0):
        raise InvariantError("epsilon must lie in (0, 2]")
    if not len(targets):
        raise InvariantError("net_gate_around needs at least one target")
    if n_atoms_per_target < 1 or n_decoys < 0:
        raise InvariantError("net_gate_around needs n_atoms_per_target >= 1 and n_decoys >= 0")
    d = math.isqrt(np.size(targets[0]))  # the side of a square target
    targets = _unitaries(targets, (len(targets), d, d))
    seed = np.random.SeedSequence().entropy if seed is None else seed
    rng = np.random.default_rng(seed)

    def pools():
        spread = 0.75 * math.sqrt(epsilon)
        for _ in range(8):
            atoms = []
            for t in targets:
                # Hermitian generators of spectral radius ``spread``; atoms t exp(-iH).
                g = rng.standard_normal((n_atoms_per_target, 2, d, d))
                h = hermitize(g[:, 0] + 1j * g[:, 1])
                radius = np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
                h *= (spread / np.maximum(1e-30, radius))[:, None, None]
                atoms.extend(t @ qmath.hermitian_function(h, lambda lam: np.exp(-1j * lam)))
            atoms.extend(ch.random_unitary(d, rng) for _ in range(n_decoys))
            yield atoms
            spread *= 0.7

    seeds = [seed + i for i in range(len(targets))]
    return _calibrate(pools(), targets, epsilon, n_atoms_per_target, seeds,
                      "target-local pool, program-certified", seed, covering=False)


# ---------------------------------------------------------------------------
# Scalability witness
# ---------------------------------------------------------------------------


def _projectors(vectors: np.ndarray) -> np.ndarray:
    """z z^dag for every row z of a stack of vectors, as [n, d, d]."""
    return vectors[:, :, None] * vectors.conj()[:, None, :]


def _top_vectors(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Top eigenvectors u of gaps from their ``eigh``, as rows; u = 0 where lambda_max <= EIG_CUTOFF.

    A gap is a pure state minus a state: trace 0 and, by Cauchy interlacing, at most one
    positive eigenvalue.  So ||gap||_1 = tr[2 u u^dag gap], and 2 u u^dag is a subgradient on
    trace-zero differences (2 u u^dag - I has operator norm 1).  lambda_max <= EIG_CUTOFF: gap 0.
    """
    return vec[..., -1] * (lam[..., -1:] > qmath.EIG_CUTOFF)


def _pair_scores(blocks1, blocks2, inputs: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_s tr[M_s W rho_s W^dag] for every block pair W = U_j (x) V_l, as [n1, n2].

    rho_s = z_s z_s^dag for the input rows z_s, and M_s [S, d, d] is Hermitian.
    In the natural (Liouville) representation W (x) conj(W) of the conjugation
    by W (Watrous 2018, *The Theory of Quantum Information*, section 2.2) the
    sum is P_j K Q_l^T, with rows P_j = vec(U_j (x) conj(U_j)), Q_l likewise,
    and K = sum_s vec(rho_s) vec(M_s)^T reordered to d1^4 x d2^4.
    """
    d1, d2 = blocks1.shape[-1], blocks2.shape[-1]
    k = _projectors(inputs).reshape(len(inputs), -1).T @ m.reshape(len(m), -1)
    # Axes (c1 c2 e1 e2 | b1 b2 a1 a2) of rho[c, e] M[b, a] -> (a1 b1 c1 e1 | a2 b2 c2 e2).
    k = k.reshape([d1, d2] * 4).transpose(6, 4, 0, 2, 7, 5, 1, 3).reshape(d1**4, d2**4)
    p, q = (_pair_operators(b, b.conj(), np.repeat(np.arange(len(b)), 2).reshape(-1, 2))
            .reshape(len(b), -1) for b in (blocks1, blocks2))
    # Re(x . y) is the dot of the float views of x and conj(y).
    return (p @ k).view(float) @ q.conj().view(float).T


def _frank_wolfe(blocks1, blocks2, target, inputs, start: np.ndarray, iterations: int):
    """Minimize the mean trace distance to the target over pair mixtures.

    The weights w [n1, n2] of the mixture sum_jl w_jl W_jl . W_jl^dag range
    over the whole pair simplex, where f(w) = mean_s ||T rho_s T^dag - out_s||_1
    is convex.  Each step takes S_s = 2 u_s u_s^dag from the top eigenvector
    of each gap (``_top_vectors``) and the subgradient g = -``_pair_scores``(S)
    / S, and moves toward the best vertex by the largest step of a fixed
    ladder that lowers f; it stops when none does, or after ``iterations``
    steps.  As ||S_s - I||_op <= 1 and every gap has trace 0, weak duality
    gives every mixture f >= mean_s tr[S_s T rho_s T^dag] + min g (the
    Frank-Wolfe gap, Jaggi 2013).  Returns (w, f, the best such bound seen),
    the bound capped at f, which a gap closed to rounding could otherwise pass.
    """
    tz = inputs @ target.T
    targets = _projectors(tz)
    w = np.array(start, dtype=float)
    used = np.argwhere(w > 0)
    y = _stack_outputs(_pair_operators(blocks1, blocks2, used), inputs)
    out = (np.swapaxes(y, 1, 2) * w[tuple(used.T)]) @ y.conj()
    value = float(np.mean(qmath.hermitian_trace_norm(targets - out)))
    bound = -math.inf
    # The step-size ladder is evaluated at once; the largest improving step wins.
    gammas = np.array([1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.008])[:, None, None, None]
    for step in range(iterations + 1):
        signs = 2.0 * _projectors(_top_vectors(*qmath.eigh(hermitize(targets - out))))
        grad = -_pair_scores(blocks1, blocks2, inputs, signs) / len(inputs)
        best = np.unravel_index(np.argmin(grad), grad.shape)
        dual = np.einsum("sa,sab,sb->", tz.conj(), signs, tz).real / len(inputs)
        bound = max(bound, float(dual + grad[best]))
        if step == iterations:
            break
        vertex = _projectors(inputs @ _pair_operators(blocks1, blocks2, np.array([best]))[0].T)
        trial_outs = (1.0 - gammas) * out + gammas * vertex
        trial_values = np.mean(qmath.hermitian_trace_norm(targets - trial_outs), axis=1)
        improving = np.nonzero(trial_values < value - 1e-12)[0]
        if not improving.size:
            break
        gamma = float(gammas[improving[0], 0, 0, 0])
        w *= 1.0 - gamma
        w[best] += gamma
        out, value = trial_outs[improving[0]], float(trial_values[improving[0]])
    return w, value, min(bound, value)


def _witness_control_path(g1, g2, target, cfg: WitnessConfig):
    blocks1, blocks2 = g1.blocks, g2.blocks
    inputs = qmath.haar_vectors(np.random.default_rng(cfg.seed), cfg.n_inputs, len(target))
    # Start at the pair of best mean fidelity sum_s |<T z_s, W z_s>|^2.
    fidelities = _pair_scores(blocks1, blocks2, inputs, _projectors(inputs @ target.T))
    start = np.zeros(fidelities.shape)
    start.flat[np.argmax(fidelities)] = 1.0
    weights, value, bound = _frank_wolfe(blocks1, blocks2, target, inputs, start, cfg.fw_iterations)
    pairs = np.argwhere(weights > 1e-10)
    kept = weights[tuple(pairs.T)]
    kraus = np.sqrt(kept)[:, None, None] * _pair_operators(blocks1, blocks2, pairs)
    sup = estimate_sup_error(kraus, target, cfg.sup_samples, cfg.seed + 1)
    return WitnessReport(
        best_error=value,
        program_weights=sorted((((int(j), int(l)), float(w)) for (j, l), w in zip(pairs, kept)),
                               key=lambda item: -item[1]),
        sup_estimate=sup,
        n_inputs=cfg.n_inputs,
        seed=cfg.seed,
        method="control-blocks/frank-wolfe",
        program_dims=(g1.d_program, g2.d_program),
        lower_bound=ErrorEstimate(bound, "frank-wolfe-dual", cfg.n_inputs),
    )


def _witness_general_path(g1, g2, target, cfg: WitnessConfig):
    dp = g1.d_program * g2.d_program
    if dp > GENERAL_DIM_GUARD:
        raise SizeGuardError(
            f"general program search over dimension {dp} exceeds {GENERAL_DIM_GUARD}"
        )
    gate = tensor_gates(g1, g2)
    d = gate.d_data
    rng = np.random.default_rng(cfg.seed)
    inputs = qmath.haar_vectors(rng, cfg.n_inputs, d)
    g4 = gate.matrix.reshape(d, dp, d, dp)
    reference = target[None]

    def fun(v: np.ndarray) -> float:
        gaps = _conjugation_gaps(_program_kraus(gate, v[:, 0]), reference, inputs)
        return float(np.mean(qmath.hermitian_trace_norm(gaps)))

    def grad(v: np.ndarray) -> np.ndarray:
        # d/dpsi of the mean trace distance, with S_s = 2 u_s u_s^dag (``_top_vectors``)
        # as subgradient: -2/S sum_s z_s^b (K z_s)^*_d S_s[d, a] g4[a, k, b, q].
        kraus = _program_kraus(gate, v[:, 0])
        gaps = _conjugation_gaps(kraus, reference, inputs)
        signs = 2.0 * _projectors(_top_vectors(*qmath.eigh(hermitize(gaps))))
        u = _stack_outputs(kraus, inputs).conj() @ signs
        acc = -np.einsum("sb,ska,akbq->q", inputs, u, g4, optimize=True)
        return (2.0 * acc / len(inputs)).reshape(dp, 1)

    report = opt.stiefel_minimize(
        fun,
        grad,
        dp,
        1,
        opt.OptConfig(restarts=cfg.general_restarts, seed=cfg.seed, max_iterations=200),
    )
    psi = report.isometry[:, 0]
    psi /= np.linalg.norm(psi)
    sup = estimate_sup_error(_program_kraus(gate, psi), target, cfg.sup_samples, cfg.seed + 1)
    return WitnessReport(
        best_error=float(report.value),
        program_weights=None,
        sup_estimate=sup,
        n_inputs=cfg.n_inputs,
        seed=cfg.seed,
        method="general-sphere-descent",
        program_dims=(g1.d_program, g2.d_program),
        amplitudes=psi,
    )


def scalability_witness(
    g1: ProgrammableGate,
    g2: ProgrammableGate,
    target: np.ndarray,
    cfg: WitnessConfig | None = None,
) -> WitnessReport:
    """Best joint program (entangled ones included) for a target on G1 (x) G2.

    Minimizes the average-over-inputs trace distance between the induced map
    of the tensored gate and the target conjugation; the worst-case estimate
    of the winning program is reported alongside.  On controlled-block gates
    every joint program induces a mixture over the block pairs U_j (x) V_l,
    so a Frank-Wolfe descent over the whole pair simplex finds the program
    and its duality gap bounds the mean error of every program from below
    (``lower_bound``).  A mean over inputs never exceeds the worst case, so
    the bound holds for the sup error too: entangling targets stay bounded
    away from zero no matter the program, which is the no-go this witnesses.
    Other gates take a sphere descent over program vectors, with no bound.
    """
    cfg = cfg or WitnessConfig()
    target = _unitaries(target, (g1.d_data * g2.d_data,) * 2)
    if g1.blocks is not None and g2.blocks is not None:
        return _witness_control_path(g1, g2, target, cfg)
    return _witness_general_path(g1, g2, target, cfg)


# ---------------------------------------------------------------------------
# Emulating encoding operations through a programmable gate
# ---------------------------------------------------------------------------


def dilation_unitary(channel: QuantumChannel) -> tuple[np.ndarray, int]:
    """Unitary on input (x) ancilla realizing the channel with ancilla in |0>.

    Returns (U, d_env) where U acts on C^{d_in * d_env}, the input-side
    ancilla holds d_env levels prepared in |0>, and discarding the output-side
    environment (the second factor of the output split d_out x d_env)
    reproduces the channel.  Requires d_out == d_in so the register sizes
    match on both sides.
    """
    if channel.d_in != channel.d_out:
        raise DimensionMismatchError("square channels only (d_out must equal d_in)")
    iso = ch.dilate(channel)
    d, e = channel.d_in, iso.d_env
    side = d * e
    u = np.zeros((side, side), dtype=complex)
    # Columns with the ancilla in |0> (every e-th) are fixed by the isometry;
    # the rest is an arbitrary orthonormal completion.
    u[:, ::e] = iso.v
    q, _ = np.linalg.qr(np.concatenate([iso.v, np.eye(side, dtype=complex)], axis=1))
    u[:, np.arange(side) % e != 0] = q[:, d:side]
    return _unitaries(u, (side, side)), e


def emulate_encoding(
    channel: QuantumChannel,
    gate: ProgrammableGate,
    epsilon: float,
    n_samples: int = 200,
    seed=0,
) -> EmulationReport:
    """Emulate an encoding channel by programming its dilation unitary.

    Picks the gate program whose induced map is nearest the dilation of the
    channel, then sweeps random inputs through "prepare ancilla in |0>, run
    the induced map, discard the environment" and reports the worst trace
    distance to the true channel output.  Monotonicity of the trace norm
    under partial traces keeps this below the program's certified error.
    """
    target, d_env = dilation_unitary(channel)
    if gate.d_data != channel.d_in * d_env:
        raise DimensionMismatchError(
            f"gate data register {gate.d_data} incompatible with dilation side "
            f"{channel.d_in * d_env}"
        )
    if gate.blocks is None:
        raise SizeGuardError("emulation requires a controlled-block gate")
    program, prog_err = program_for_target(
        gate, target, n_nearest=min(gate.d_program, 32), seed=seed
    )
    induced = induced_map(gate, program)

    # Emulated channel: M_{k,e} = (I (x) <e|) K_k (I (x) |0>) on the data register.
    d_in = channel.d_in
    from_zero = induced.kraus.reshape(-1, d_in, d_env, d_in, d_env)[..., 0]
    emulated = from_zero.transpose(0, 2, 1, 3).reshape(-1, d_in, d_in)
    samples = qmath.haar_vectors(np.random.default_rng(seed), n_samples, d_in)
    gaps = _conjugation_gaps(emulated, channel.kraus, samples)
    worst = np.max(qmath.hermitian_trace_norm(gaps), initial=0.0)
    return EmulationReport(
        program=program,
        measured_error=float(worst),
        n_samples=n_samples,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else -1,
        program_error=prog_err,
    )
