"""Quantum operations: Kraus families, Choi matrices, Stinespring isometries.

Conventions fixed here (they make file interchange unambiguous):

* A channel maps d_in x d_in density matrices to d_out x d_out ones via
  rho -> sum_k K_k rho K_k^dag.  Its Kraus family is one read-only complex
  stack K[k, out, in]; flattened to F[(k, out), in], the completeness
  condition sum_k K_k^dag K_k = I says exactly that F is an isometry.
* The Choi operator is C(T) = sum_ij T(|i><j|) (x) |i><j| on the factor pair
  [d_out, d_in]; it is unnormalized, so tracing out the output factor gives
  the d_in identity.  Two channels are equal iff their Choi operators are.
* Stinespring isometries map C^{d_in} into C^{d_out} (x) C^{d_env} with the
  environment as the *second* factor, V[(out, env), in].  V is the Kraus
  stack with its first two axes swapped: V[(out, e), in] = K[e, out, in].
* Every sampling routine takes an explicit seed (or Generator); the contract
  is "same seed, bit-identical stream" within one build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import qmath
from .errors import DimensionMismatchError, InvariantError
from .qmath import DensityMatrix, hermitize

CHOI_EQUALITY_TOL = 1e-8
# Choi eigenvalues below this are dropped when canonicalizing a Kraus family.
KRAUS_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map with Kraus family ``kraus``: a read-only complex stack [k, d_out, d_in].

    Any sequence of d_out x d_in matrices is accepted and copied into the stack.
    """

    d_in: int
    d_out: int
    kraus: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = f"(k, {self.d_out}, {self.d_in})"
        try:
            kraus = np.array(self.kraus, dtype=complex, order="C")
        except ValueError:
            raise DimensionMismatchError(f"ragged Kraus operators, expected {expected}") from None
        if not len(kraus):
            raise InvariantError("a channel needs at least one Kraus operator")
        if kraus.shape[1:] != (self.d_out, self.d_in):
            raise DimensionMismatchError(f"Kraus stack of shape {kraus.shape}, expected {expected}")
        kraus.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)
        qmath.require_isometry(kraus.reshape(-1, self.d_in), "Kraus family is not complete")

    @classmethod
    def identity(cls, d: int) -> "QuantumChannel":
        return cls(d, d, np.eye(d, dtype=complex)[None])

    @classmethod
    def from_unitary(cls, u) -> "QuantumChannel":
        u = np.asarray(u, dtype=complex)
        return cls(u.shape[1], u.shape[0], u[None])

    @classmethod
    def constant_replacement(cls, d_in: int, output: DensityMatrix) -> "QuantumChannel":
        """The map rho -> output (e.g. the constant map onto I/2), Kraus sqrt(lam_i) |v_i><j|."""
        lam, vec = np.linalg.eigh(hermitize(output.entries))
        keep = lam > KRAUS_CUTOFF
        cols = (np.sqrt(lam[keep]) * vec[:, keep]).T
        ops = np.zeros((len(cols), d_in, output.side, d_in), dtype=complex)
        ops[:, np.arange(d_in), :, np.arange(d_in)] = cols
        return cls(d_in, output.side, ops.reshape(-1, output.side, d_in))

    @classmethod
    def projection_onto(cls, d_in: int, d_out: int) -> "QuantumChannel":
        """rho -> |0><0|, discarding all input information."""
        ops = np.zeros((d_in, d_out, d_in), dtype=complex)
        ops[np.arange(d_in), 0, np.arange(d_in)] = 1.0
        return cls(d_in, d_out, ops)

    @classmethod
    def embedding(cls, d_in: int, d_out: int) -> "QuantumChannel":
        """Isometric embedding of C^{d_in} into the first d_in levels of C^{d_out}."""
        if d_out < d_in:
            raise DimensionMismatchError("embedding needs d_out >= d_in")
        return cls(d_in, d_out, np.eye(d_out, d_in, dtype=complex)[None])

    @classmethod
    def depolarizing(cls, lam: float = 1.0) -> "QuantumChannel":
        """Qubit map rho -> (1-lam) rho + lam I/2."""
        i, x, y, z = qmath.PAULIS
        p = lam / 4.0
        ops = (np.sqrt(1 - 3 * p) * i, np.sqrt(p) * x, np.sqrt(p) * y, np.sqrt(p) * z)
        return cls(2, 2, ops)

    @classmethod
    def trace_out_factor(cls, dims: Sequence[int], drop: Sequence[int]) -> "QuantumChannel":
        """Partial trace over the ``drop`` factors of an input with the given dims."""
        dims = tuple(int(d) for d in dims)
        drop = tuple(sorted(int(i) for i in drop))
        keep = tuple(i for i in range(len(dims)) if i not in drop)
        if not keep or not drop:
            raise DimensionMismatchError("drop must be a proper nonempty subset")
        d_in = int(np.prod(dims))
        d_keep = int(np.prod([dims[i] for i in keep]))
        d_drop = d_in // d_keep
        # Kraus operator j is <j| on the dropped factors: rows of the identity
        # indexed by (dropped, kept) factors.
        eye = np.eye(d_in, dtype=complex).reshape(dims + (d_in,))
        ops = eye.transpose(drop + keep + (len(dims),)).reshape(d_drop, d_keep, d_in)
        return cls(d_in, d_keep, ops)


@dataclass(frozen=True, eq=False)
class StinespringIsometry:
    """V: C^{d_in} -> C^{d_out} (x) C^{d_env} with V^dag V = I."""

    d_in: int
    d_out: int
    d_env: int
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "v", v)
        if v.shape != (self.d_out * self.d_env, self.d_in):
            raise DimensionMismatchError(
                f"isometry of shape {v.shape}, expected {(self.d_out * self.d_env, self.d_in)}"
            )
        qmath.require_isometry(v, "matrix is not an isometry")


def apply(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_k K rho K^dag, as a density matrix on a single output factor."""
    if rho.side != channel.d_in:
        raise DimensionMismatchError(f"state side {rho.side} vs channel input {channel.d_in}")
    out = local_kraus_sum(channel.kraus, rho.entries, 1, 1)
    return DensityMatrix((channel.d_out,), hermitize(out))


def apply_local(channel: QuantumChannel, rho: DensityMatrix, factor: int) -> DensityMatrix:
    """Act with the channel on one tensor factor, identity on the rest."""
    if factor < 0 or factor >= rho.n_factors:
        raise DimensionMismatchError(f"factor {factor} out of range for dims {rho.dims}")
    if rho.dims[factor] != channel.d_in:
        raise DimensionMismatchError(
            f"factor dimension {rho.dims[factor]} vs channel input {channel.d_in}"
        )
    d_before = int(np.prod(rho.dims[:factor]))
    d_after = int(np.prod(rho.dims[factor + 1:]))
    out = local_kraus_sum(channel.kraus, rho.entries, d_before, d_after)
    new_dims = rho.dims[:factor] + (channel.d_out,) + rho.dims[factor + 1:]
    return DensityMatrix(new_dims, hermitize(out))


def local_kraus_sum(
    kraus: np.ndarray, matrix: np.ndarray, d_before: int, d_after: int
) -> np.ndarray:
    """sum_k L_k M L_k^dag with L_k = I_b (x) K_k (x) I_a, the lifts never built.

    M acts on [d_before, d_in, d_after].  L_k M is one matmul of K_k with the
    view M[b, i, (a, col)]; the right action reuses it: L M L^dag = (L (L M)^dag)^dag.
    """
    d_out, d_in = kraus.shape[1:]
    side_out = d_before * d_out * d_after
    acc = np.zeros((side_out, side_out), dtype=complex)
    for k in kraus:
        left = (k @ matrix.reshape(d_before, d_in, -1)).reshape(side_out, -1)
        acc += (k @ left.conj().T.reshape(d_before, d_in, -1)).reshape(side_out, side_out)
    return acc.conj().T


def choi(channel: QuantumChannel) -> np.ndarray:
    """C(T) = sum_k w_k w_k^dag with w_k the row-major flattening of K_k, on [d_out, d_in]."""
    side = channel.d_in * channel.d_out
    mat = np.zeros((side, side), dtype=complex)
    for k in channel.kraus:
        w = k.reshape(-1)
        mat += np.outer(w, w.conj())
    return mat


def channels_equal(a: QuantumChannel, b: QuantumChannel, tol: float = CHOI_EQUALITY_TOL) -> bool:
    if (a.d_in, a.d_out) != (b.d_in, b.d_out):
        raise DimensionMismatchError("cannot compare channels of different shapes")
    return float(np.max(np.abs(choi(a) - choi(b)))) <= tol


def dilate(channel: QuantumChannel) -> StinespringIsometry:
    """Canonical Stinespring isometry with minimal environment.

    Kraus operators are re-extracted from the Choi eigendecomposition, so the
    environment dimension is the Choi rank (at most d_in * d_out).
    """
    ops = canonical_kraus(channel)
    v = ops.swapaxes(0, 1).reshape(channel.d_out * len(ops), channel.d_in)
    return StinespringIsometry(channel.d_in, channel.d_out, len(ops), v)


def canonical_kraus(channel: QuantumChannel) -> np.ndarray:
    """Kraus stack from the Choi eigenvectors above KRAUS_CUTOFF, largest first."""
    lam, vec = np.linalg.eigh(hermitize(choi(channel)))
    order = np.flatnonzero(lam > KRAUS_CUTOFF)[::-1]
    if not order.size:
        raise InvariantError("channel has numerically vanishing Choi matrix")
    return (np.sqrt(lam[order]) * vec[:, order]).T.reshape(-1, channel.d_out, channel.d_in)


def undilate(iso: StinespringIsometry) -> QuantumChannel:
    """Recover the Kraus family K_e = (I (x) <e|) V."""
    v = iso.v.reshape(iso.d_out, iso.d_env, iso.d_in)
    return QuantumChannel(iso.d_in, iso.d_out, v.swapaxes(0, 1))


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with R-phase correction."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    return qmath.positive_qr(z)


def random_isometry(d_rows: int, d_cols: int, seed) -> np.ndarray:
    """Haar-distributed isometry (first d_cols columns of a Haar unitary)."""
    if d_rows < d_cols:
        raise DimensionMismatchError(f"no isometry with {d_rows} rows and {d_cols} columns")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d_rows, d_cols)) + 1j * rng.standard_normal((d_rows, d_cols)))
    return qmath.positive_qr(z)


def random_state(dims: Sequence[int], rank: int, seed) -> DensityMatrix:
    """Normalized Wishart state of the given rank."""
    if rank < 1:
        raise InvariantError(f"state rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    g = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    mat = g @ g.conj().T
    return DensityMatrix(dims, hermitize(mat / mat.trace().real))


def random_channel(d_in: int, d_out: int, d_env: int, seed) -> QuantumChannel:
    """Channel induced by a Haar isometry into out (x) env."""
    if d_out * d_env < d_in:
        raise DimensionMismatchError(
            f"no isometry from {d_in} into {d_out}*{d_env}; need d_out*d_env >= d_in"
        )
    v = random_isometry(d_out * d_env, d_in, seed)
    return undilate(StinespringIsometry(d_in, d_out, d_env, v))


def weyl_basis(d: int) -> list[np.ndarray]:
    """The d^2 shift-and-clock unitaries W_{a,b} = X^a Z^b.

    They are pairwise orthogonal in the Hilbert-Schmidt inner product,
    Tr(W_i^dag W_j) = d delta_ij, and averaging W rho W^dag over all of them
    exactly depolarizes: (1/d^2) sum W rho W^dag = I/d.
    """
    if d < 1:
        raise DimensionMismatchError("weyl_basis needs d >= 1")
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(omega ** np.arange(d))
    basis = []
    xa = np.eye(d, dtype=complex)
    for _a in range(d):
        zb = np.eye(d, dtype=complex)
        for _b in range(d):
            basis.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return basis


def weyl_twirl(rho: DensityMatrix, factor: int) -> DensityMatrix:
    """Average (W (x) I) rho (W (x) I)^dag over the Weyl basis of the factor."""
    d = rho.dims[factor]
    return apply_local(QuantumChannel(d, d, np.stack(weyl_basis(d)) / d), rho, factor)


def compose(after: QuantumChannel, before: QuantumChannel) -> QuantumChannel:
    """The channel rho -> after(before(rho))."""
    if before.d_out != after.d_in:
        raise DimensionMismatchError(
            f"cannot compose: inner output {before.d_out} vs outer input {after.d_in}"
        )
    ops = (after.kraus[:, None] @ before.kraus).reshape(-1, after.d_out, before.d_in)
    chan = QuantumChannel(before.d_in, after.d_out, ops)
    if len(ops) > before.d_in * after.d_out:
        chan = QuantumChannel(before.d_in, after.d_out, canonical_kraus(chan))
    return chan


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """The product channel acting as a on the first factor and b on the second."""
    ka = a.kraus[:, None, :, None, :, None]
    kb = b.kraus[None, :, None, :, None, :]
    ops = (ka * kb).reshape(-1, a.d_out * b.d_out, a.d_in * b.d_in)
    chan = QuantumChannel(a.d_in * b.d_in, a.d_out * b.d_out, ops)
    if len(ops) > chan.d_in * chan.d_out:
        chan = QuantumChannel(chan.d_in, chan.d_out, canonical_kraus(chan))
    return chan
