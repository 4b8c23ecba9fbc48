"""Dense-coding capacities of bipartite states and their variants.

The single-copy capacity with a noiseless d-level channel decomposes as

    DC(d, rho) = log2 d + H(rho_B) - min_T H((T (x) id) rho),

so every result carries that decomposition explicitly.  Because the inner
minimization is non-convex and solved heuristically, every capacity value is
flagged as a certified *lower* bound: it is assembled from the entropy of an
explicit feasible encoding.  Upper bounds are only ever asserted through the
analytic ceilings and the relative-entropy bound against non-distillable
(PPT-certified) states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from . import channels as ch
from . import optimize as opt
from . import qmath
from .channels import QuantumChannel
from .errors import DimensionMismatchError, InvariantError, SizeGuardError
from .qmath import DensityMatrix

# Joint problems (blocks, copies, additivity scans) refuse sides beyond this.
MAX_JOINT_SIDE = 256

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite probability distribution over encodings (channels of one shape)."""

    items: tuple[tuple[float, object], ...] = field(repr=False)

    def __post_init__(self):
        items = tuple((float(p), payload) for p, payload in self.items)
        object.__setattr__(self, "items", items)
        probs = np.array([p for p, _ in items])
        if probs.size == 0:
            raise InvariantError("ensemble must not be empty")
        if not probs.min() >= -PROB_TOL:  # NaN fails too
            raise InvariantError(f"negative probability {probs.min()}")
        if not abs(probs.sum() - 1.0) <= PROB_TOL:
            raise InvariantError(f"probabilities sum to {probs.sum()}")
        if len({(payload.d_in, payload.d_out) for _, payload in items}) != 1:
            raise DimensionMismatchError("encoding ensemble with mixed shapes")

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.items])

    @property
    def payloads(self) -> list:
        return [payload for _, payload in self.items]


@dataclass
class CapacityResult:
    """A capacity value together with its defining decomposition."""

    value: float
    decomposition: dict | None
    report: object
    metadata: dict = field(default_factory=dict)


class REEBound(NamedTuple):
    bound: float
    certified: bool


class GapResult(NamedTuple):
    gap: float
    joint: CapacityResult
    parts: tuple[CapacityResult, CapacityResult]


def dc_mutual_information(
    mu: Ensemble,
    rho: DensityMatrix,
    phi: QuantumChannel | None = None,
    a_factors: Sequence[int] = (0,),
) -> float:
    """Holevo information of the signal ensemble {(p_i, (phi o T_i (x) id) rho)}."""
    work = qmath.bipartition(rho, a_factors)
    totals = [ch.compose(phi, enc) if phi is not None else enc for enc in mu.payloads]
    signals = [ch.apply_local(total, work, 0).entries for total in totals]
    return qmath.holevo_quantity(mu.probabilities, signals)


def _subset_probes(a_dims: tuple[int, ...], d_out: int) -> list[QuantumChannel]:
    """Feasible encodings that forget some sender factors and embed the rest.

    These realize the "ignore part of the correlation" strategies; each one
    pins an attainable output entropy, so the optimizer can only improve.
    """
    probes: list[QuantumChannel] = []
    n = len(a_dims)
    if n < 2 or n > 6:
        return probes
    for r in range(1, n):
        for drop in combinations(range(n), r):
            kept = int(np.prod([a_dims[i] for i in range(n) if i not in drop]))
            if kept > d_out:
                continue
            tracer = QuantumChannel.trace_out_factor(a_dims, drop)
            if kept == d_out:
                probes.append(tracer)
            else:
                probes.append(ch.compose(QuantumChannel.embedding(kept, d_out), tracer))
    return probes


def _require_positive(**sizes: int) -> None:
    """Levels, copies and ensemble sizes of the capacity API are at least 1."""
    for name, size in sizes.items():
        if size < 1:
            raise InvariantError(f"{name} must be >= 1, got {size}")


def dc_capacity(
    d: int,
    rho: DensityMatrix,
    cfg: opt.OptConfig | None = None,
    a_factors: Sequence[int] = (0,),
    probes: Sequence[QuantumChannel] = (),
) -> CapacityResult:
    """Dense-coding capacity lower bound for a noiseless d-level channel.

    Always between log2 d and log2 d + H(rho_B); equality analysis lives in
    the decomposition.  ``a_factors`` names the sender-side tensor factors.
    """
    _require_positive(d=d)
    cfg = cfg or opt.OptConfig()
    work = qmath.bipartition(rho, a_factors)
    a_dims = tuple(rho.dims[i] for i in sorted(a_factors))
    all_probes = _subset_probes(a_dims, d) + list(probes)
    report = opt.min_local_output_entropy(work, d, cfg, probes=all_probes)
    h_b = report.marginal_entropy
    log_term = math.log2(d)
    value = log_term + h_b - report.value
    decomposition = {
        "log_term": log_term,
        "marginal_entropy": h_b,
        "min_output_entropy": report.value,
    }
    return CapacityResult(value, decomposition, report, {"seed": cfg.seed})


def _seeded_joint(parts, copies, d_joint, cfg, seed_probe):
    """Joint solve of ``copies`` repeats of the (d, state, a_factors) parts.

    Trips the size guard, builds the joint state and its sender factors,
    solves each part once, maps the parts' undilated optimizers through
    ``seed_probe`` to one probe, and solves the joint problem seeded with it.
    Returns the joint result and the parts' results.
    """
    states = [(rho, a_factors) for _, rho, a_factors in parts] * copies
    side = math.prod(rho.side for rho, _ in states)
    if side > MAX_JOINT_SIDE:
        raise SizeGuardError(f"joint problem side {side} exceeds the guard {MAX_JOINT_SIDE}")
    joint_a: list[int] = []
    offset = 0
    for rho, a_factors in states:
        joint_a += [offset + int(i) for i in sorted(a_factors)]
        offset += rho.n_factors
    joint = reduce(qmath.tensor, [rho for rho, _ in states])
    solved = tuple(dc_capacity(d, rho, cfg, a_factors) for d, rho, a_factors in parts)
    probe = seed_probe(*(ch.undilate(part.report.isometry) for part in solved))
    return dc_capacity(d_joint, joint, cfg, joint_a, probes=[probe]), solved


def dc_capacity_block(
    n: int,
    d: int,
    rho: DensityMatrix,
    cfg: opt.OptConfig | None = None,
    a_factors: Sequence[int] = (0,),
) -> CapacityResult:
    """Per-copy capacity with joint encodings over n copies and channel d^n.

    Superadditive: never below the single-copy value minus tolerance, because
    the product of single-copy optimizers is seeded as a probe.
    """
    _require_positive(n=n, d=d)
    cfg = cfg or opt.OptConfig()
    if n == 1:
        return dc_capacity(d, rho, cfg, a_factors)
    inner, (single,) = _seeded_joint(
        [(d, rho, a_factors)], n, d**n, cfg, lambda t: reduce(ch.tensor_channels, [t] * n)
    )
    decomposition = {key: value / n for key, value in inner.decomposition.items()}
    decomposition["log_term"] = math.log2(d)
    value = (decomposition["log_term"] + decomposition["marginal_entropy"]
             - decomposition["min_output_entropy"])
    metadata = {**inner.metadata, "single_copy_value": single.value}
    return CapacityResult(value, decomposition, inner.report, metadata)


def dc_capacity_multicopy(
    k: int,
    d: int,
    rho: DensityMatrix,
    cfg: opt.OptConfig | None = None,
    a_factors: Sequence[int] = (0,),
) -> CapacityResult:
    """Capacity when k copies of the shared state are spent per channel use.

    Never below the single-copy value minus tolerance: the single-copy
    optimizer on the first copy, with the other copies' sender factors traced
    out, is seeded as a probe and attains exactly that value.
    """
    _require_positive(k=k, d=d)
    cfg = cfg or opt.OptConfig()
    if k == 1:
        return dc_capacity(d, rho, cfg, a_factors)

    def on_first_copy(t: QuantumChannel) -> QuantumChannel:
        return ch.compose(t, QuantumChannel.trace_out_factor((t.d_in, t.d_in ** (k - 1)), (1,)))

    result, (single,) = _seeded_joint([(d, rho, a_factors)], k, d, cfg, on_first_copy)
    result.metadata["single_copy_value"] = single.value
    return result


def capacity_achieving_ensemble(
    rho: DensityMatrix,
    d: int,
    t_star: QuantumChannel,
    a_factors: Sequence[int] = (0,),
) -> Ensemble:
    """Uniform Weyl rotations after a fixed minimizing encoding.

    The discrete twirl is exact, so the mutual information of this ensemble
    reproduces log2 d + H(rho_B) - H((T* (x) id) rho) up to optimizer error.
    """
    del rho, a_factors  # the construction depends only on T* and d
    weyl = ch.weyl_basis(d)
    items = tuple(
        (1.0 / (d * d), ch.compose(QuantumChannel.from_unitary(w), t_star)) for w in weyl
    )
    return Ensemble(items)


def ree_bound(
    rho: DensityMatrix,
    d: int,
    sigma: DensityMatrix,
    a_factors: Sequence[int] = (0,),
) -> REEBound:
    """log2 d + D(rho || sigma), certified when sigma is PPT across the cut.

    A PPT sigma is non-distillable, so the certified bound dominates every
    dense-coding lower bound for the same d.
    """
    _require_positive(d=d)
    if rho.dims != sigma.dims:
        raise DimensionMismatchError(f"dims {rho.dims} vs {sigma.dims}")
    divergence = qmath.relative_entropy(rho, sigma)
    return REEBound(math.log2(d) + divergence, qmath.is_ppt(sigma, tuple(a_factors)).ppt)


def additivity_gap(
    rho: DensityMatrix,
    d1: int,
    sigma: DensityMatrix,
    d2: int,
    cfg: opt.OptConfig | None = None,
    rho_a: Sequence[int] = (0,),
    sigma_a: Sequence[int] = (0,),
) -> GapResult:
    """DC(d1 d2, rho (x) sigma) minus DC(d1, rho) + DC(d2, sigma).

    The product of the parts' optimizers is seeded into the joint problem, so
    the gap is never below -tolerance; strictly positive gaps witness
    superadditivity.
    """
    _require_positive(d1=d1, d2=d2)
    cfg = cfg or opt.OptConfig()
    joint, parts = _seeded_joint(
        [(d1, rho, rho_a), (d2, sigma, sigma_a)], 1, d1 * d2, cfg, ch.tensor_channels
    )
    return GapResult(joint.value - parts[0].value - parts[1].value, joint, parts)


def noisy_dc_capacity(
    phi: QuantumChannel,
    rho: DensityMatrix,
    m: int,
    cfg: opt.OptConfig | None = None,
    a_factors: Sequence[int] = (0,),
    initial_encodings: Sequence[QuantumChannel] | None = None,
) -> CapacityResult:
    """Lower bound on the dense-coding capacity through a noisy channel.

    Delegates to the alternating ensemble optimizer; with the identity
    channel this reproduces the noiseless capacity.
    """
    _require_positive(m=m)
    cfg = cfg or opt.OptConfig()
    work = qmath.bipartition(rho, a_factors)
    result = opt.optimize_ensemble(phi, work, m, cfg, initial_encodings=initial_encodings)
    ensemble = Ensemble(tuple(zip(result.probabilities, result.encodings)))
    return CapacityResult(result.value, None, result, {"seed": cfg.seed, "ensemble": ensemble})


def random_separable(
    dims: Sequence[int] = (2, 2), n_terms: int = 10, seed=0
) -> DensityMatrix:
    """Random mixture of at most ten product pure states (a generator, not a test)."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    n_terms = max(1, min(10, int(n_terms)))
    weights = rng.random(n_terms)
    weights /= weights.sum()
    side = int(np.prod(dims))
    acc = np.zeros((side, side), dtype=complex)
    for w in weights:
        vec = np.ones(1, dtype=complex)
        for d in dims:
            vec = np.kron(vec, qmath.haar_vectors(rng, 1, d)[0])
        acc += w * np.outer(vec, vec.conj())
    return DensityMatrix(dims, qmath.hermitize(acc))


def werner_state(singlet_weight: float) -> DensityMatrix:
    """w P_singlet + (1 - w)(I - P_singlet)/3 on two qubits."""
    p_singlet = qmath.singlet().to_density().entries
    rest = (np.eye(4) - p_singlet) / 3.0
    return DensityMatrix((2, 2), singlet_weight * p_singlet + (1.0 - singlet_weight) * rest)
