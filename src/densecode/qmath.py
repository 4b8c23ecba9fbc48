"""Finite-dimensional quantum states, entropies and distances.

Density matrices carry their tensor-factor dimensions explicitly, so that
multi-register bookkeeping (permuting, merging, tracing factors) is index
arithmetic rather than ad-hoc reshapes.  All entropic quantities are in bits
(logarithms base 2).

The hot loops (the Stiefel descent and its objectives, the mixture-weight
solves, the trace-norm kernels) call LAPACK through a small shim: ``eigh``,
``eigvalsh``, ``solve``, ``solve_vector`` and ``qr_diagonal`` below call the
gufuncs of ``numpy.linalg._umath_linalg`` that numpy.linalg's own wrappers
call, so every output is bit-identical to numpy.linalg's, without its per-call
type promotion, shape asserts, ``errstate`` and ``triu``.  On an Intel Xeon
core with numpy 2.4.6 that takes a 4x4 complex ``eigh`` from 9-10 to about
4.5 us, ``eigvalsh`` from 6.3 to 3 us and a 9x3 QR from 17-20 to 4-5 us.
The shim takes float64 or complex128 arrays only (a float32 array would
reach the single-precision kernel).  Failure rule: a LAPACK failure (a
singular system, an eigensolver that does not converge) returns NaN output,
with numpy's "invalid value" RuntimeWarning under the default ``errstate``,
where numpy.linalg raises ``LinAlgError``; callers map non-finite output to
their ``non_finite`` reason.  This module is the only one that names
``_umath_linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatchError, InvariantError

# Structural tolerances for state validation.
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12

# Eigenvalues below this cutoff are treated as zero in 0*log(0) limits and in
# support detection for the relative entropy.
EIG_CUTOFF = 1e-12

# Largest entry of |M†M - I| accepted from a unitary, an isometry or a Kraus family.
ISOMETRY_TOL = 1e-10

# The Pauli matrices I, X, Y, Z as one read-only stack [4, 2, 2].
PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
PAULIS.flags.writeable = False

LOG2E = 1.0 / math.log(2.0)

# The LAPACK shim (module docstring): numpy.linalg's gufuncs, lower triangle for eigh and
# eigvalsh.  ``solve`` takes a (stack of) right-hand side matrices, ``solve_vector`` one vector.
eigh = _umath_linalg.eigh_lo
eigvalsh = _umath_linalg.eigvalsh_lo
solve = _umath_linalg.solve
solve_vector = _umath_linalg.solve1


def qr_diagonal(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced Q of a QR decomposition and the diagonal of R, without building R."""
    a = matrix.copy()
    tau = _umath_linalg.qr_r_raw(a)  # leaves R, and the reflectors under it, in a
    return _umath_linalg.qr_reduced(a, tau), a.diagonal()


def frobenius_norm(matrix: np.ndarray) -> float:
    """sqrt(sum |m|^2), by np.linalg.norm's own sum (the dots of the real and imaginary views)."""
    flat = matrix.ravel("K")
    return math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))


def _as_complex(matrix) -> np.ndarray:
    return np.asarray(matrix, dtype=complex)


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """(M + M†)/2, used before eigendecompositions to suppress drift.

    Acts on the last two axes, so a stack of matrices is hermitized at once.
    """
    return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))


def hermitian_function(matrix: np.ndarray, fn) -> np.ndarray:
    """fn(H) = V fn(Λ) V† for the Hermitian part H = V Λ V† of a (stack of) matrices.

    ``fn`` maps the eigenvalue array (last axis) to the new spectrum, e.g. a
    clamped logarithm or ``exp(-i λ)``.
    """
    lam, vec = eigh(hermitize(matrix))
    return from_spectrum(fn(lam), vec)


def from_spectrum(values: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """V diag(values) V† for (a stack of) eigenvector matrices V, e.g. from one ``eigh``."""
    return (vec * values[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def hermitian_trace_norm(matrix: np.ndarray) -> np.ndarray:
    """||H||_1 = Σ|eigvalsh(H)| of the Hermitian part, batched over leading axes.

    For Hermitian differences (e.g. of density matrices) this equals the
    singular-value sum that ``trace_norm`` computes, at the cost of one
    Hermitian eigensolve instead of an SVD.
    """
    return np.abs(eigvalsh(hermitize(matrix))).sum(axis=-1)


def isometry_defect(matrix: np.ndarray) -> float:
    """max |M†M - I| over a stack [..., m, n]: unitarity, or Kraus completeness as [(k, out), in].

    NaN for a non-finite entry, which ``require_isometry`` rejects.
    """
    return float(np.max(np.abs(matrix.conj().swapaxes(-1, -2) @ matrix - np.eye(matrix.shape[-1]))))


def require_isometry(matrix: np.ndarray, what: str) -> None:
    """Raise InvariantError "<what> (defect ...)" unless the defect is at most ISOMETRY_TOL."""
    defect = isometry_defect(matrix)
    if not defect <= ISOMETRY_TOL:  # NaN fails too
        raise InvariantError(f"{what} (defect {defect:.3e})")


def positive_qr(matrix: np.ndarray) -> np.ndarray:
    """Q factor of a QR decomposition with the diagonal of R made real positive.

    The phase fix makes Q a function of the column span alone: on a Ginibre
    matrix it is Haar-distributed, on V + tangent step it is the QR
    retraction onto the Stiefel manifold.
    """
    q, diag = qr_diagonal(matrix)
    mag = np.abs(diag)
    if mag.min(initial=1.0) < 1e-300:
        # A vanishing pivot leaves its column's phase alone.
        diag = np.where(mag < 1e-300, 1.0, diag)
        mag = np.abs(diag)
    return q * (diag / mag)


def haar_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random unit vectors in C^d, one per row.

    Draws the same stream as a loop of ``standard_normal(d) + 1j *
    standard_normal(d)`` per row, so row s equals that loop's s-th vector.
    """
    g = rng.standard_normal((n, 2, d))
    z = g[:, 0] + 1j * g[:, 1]
    # norm(row) is sqrt(x.x + y.y) on the strided real and imaginary views; these dots,
    # batched, match it bit for bit, where norm(axis=1) and einsum sum in another order.
    x, y = z.real, z.imag
    return z / np.sqrt(x[:, None] @ x[..., None] + y[:, None] @ y[..., None])[:, 0]


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector with explicit tensor-factor dimensions."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        amps = _as_complex(self.amplitudes).reshape(-1)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)
        if any(d <= 0 for d in dims):
            raise InvariantError(f"factor dimensions must be positive, got {dims}")
        side = int(np.prod(dims))
        if amps.shape != (side,):
            raise DimensionMismatchError(
                f"amplitude vector of length {amps.shape[0]} does not match dims {dims}"
            )
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise InvariantError(f"state vector squared norm {norm2} is not 1")

    @property
    def side(self) -> int:
        return self.amplitudes.shape[0]

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator with explicit factor dimensions."""

    dims: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        mat = _as_complex(self.entries)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", mat)
        if any(d <= 0 for d in dims):
            raise InvariantError(f"factor dimensions must be positive, got {dims}")
        side = int(np.prod(dims))
        if mat.shape != (side, side):
            raise DimensionMismatchError(
                f"matrix of shape {mat.shape} does not match dims {dims} (side {side})"
            )
        herm_defect = float(np.max(np.abs(mat - mat.conj().T))) if side else 0.0
        if herm_defect > HERMITICITY_TOL:
            raise InvariantError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        eigs = np.linalg.eigvalsh(hermitize(mat))
        if eigs.min() < -POSITIVITY_TOL:
            raise InvariantError(f"matrix has negative eigenvalue {eigs.min():.3e}")
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvariantError(f"trace {tr} is not 1")

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    @property
    def n_factors(self) -> int:
        return len(self.dims)


def basis_state(d: int, index: int, dims: Sequence[int] | None = None) -> PureState:
    """Computational basis vector |index> on C^d (or on the given factors)."""
    if not 0 <= index < d:
        raise InvariantError(f"basis index {index} outside 0..{d - 1}")
    amps = np.zeros(d, dtype=complex)
    amps[index] = 1.0
    return PureState(tuple(dims) if dims is not None else (d,), amps)


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    side = int(np.prod(list(dims)))
    return DensityMatrix(tuple(dims), np.eye(side, dtype=complex) / side)


def maximally_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on C^d x C^d."""
    amps = np.zeros(d * d, dtype=complex)
    for i in range(d):
        amps[i * d + i] = 1.0
    return PureState((d, d), amps / math.sqrt(d))


def singlet() -> PureState:
    """(|01> - |10>)/sqrt(2)."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return PureState((2, 2), amps)


def bell_state(which: int) -> PureState:
    """The four Bell vectors; 0..3 = Phi+, Psi+, Psi-, Phi-."""
    phi = maximally_entangled(2).amplitudes
    i, x, _, z = PAULIS
    ops = [i, x, x @ z, z]
    amps = np.kron(ops[which], np.eye(2)) @ phi
    return PureState((2, 2), amps)


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; factor lists concatenate."""
    return DensityMatrix(a.dims + b.dims, np.kron(a.entries, b.entries))


def tensor_pure(a: PureState, b: PureState) -> PureState:
    return PureState(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))


def _check_factors(dims: Sequence[int], factors: Iterable[int]) -> tuple[int, ...]:
    factors = tuple(int(f) for f in factors)
    for f in factors:
        if f < 0 or f >= len(dims):
            raise DimensionMismatchError(f"factor index {f} out of range for dims {dims}")
    if len(set(factors)) != len(factors):
        raise DimensionMismatchError(f"repeated factor indices in {factors}")
    return factors


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every factor not listed in ``keep``.

    The kept factors appear in ascending original order.
    """
    keep = tuple(sorted(_check_factors(rho.dims, keep)))
    if not keep:
        raise DimensionMismatchError("keep must name at least one factor")
    n = rho.n_factors
    dims = list(rho.dims)
    tensor_view = rho.entries.reshape(dims + dims)
    drop = [i for i in range(n) if i not in keep]
    for idx in sorted(drop, reverse=True):
        tensor_view = np.trace(tensor_view, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    side = int(np.prod(dims))
    return DensityMatrix(tuple(dims), tensor_view.reshape(side, side))


def permute_factors_pure(psi: PureState, order: Sequence[int]) -> PureState:
    order = _check_factors(psi.dims, order)
    if len(order) != len(psi.dims):
        raise DimensionMismatchError("order must be a permutation of all factors")
    tens = psi.amplitudes.reshape(psi.dims).transpose(order)
    return PureState(tuple(psi.dims[i] for i in order), tens.reshape(-1))


def merge_factors(rho: DensityMatrix, groups: Sequence[Sequence[int]]) -> DensityMatrix:
    """Permute factors into the given groups and fuse each group into one factor.

    Every factor must appear in exactly one group.  Useful for reducing a
    multi-register problem to a bipartite one.
    """
    order = _check_factors(rho.dims, [f for g in groups for f in g])
    if len(order) != rho.n_factors:
        raise DimensionMismatchError("groups must cover every factor exactly once")
    perm = list(order) + [rho.n_factors + i for i in order]
    tens = rho.entries.reshape(rho.dims + rho.dims).transpose(perm)
    new_dims = tuple(int(np.prod([rho.dims[f] for f in g])) for g in groups)
    return DensityMatrix(new_dims, tens.reshape(rho.side, rho.side))


def bipartition(rho: DensityMatrix, a_factors: Iterable[int]) -> DensityMatrix:
    """rho on (A, B): the factors in ``a_factors`` fused first, the others after."""
    a = sorted(int(i) for i in a_factors)
    b = [i for i in range(rho.n_factors) if i not in a]
    if not a or not b:
        raise DimensionMismatchError("need a proper bipartition into sender/receiver factors")
    return merge_factors(rho, [a, b])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda log2 lambda over the spectrum, with the zero-eigenvalue limit."""
    return entropy_of_spectrum(np.linalg.eigvalsh(hermitize(rho.entries)))


def entropy_of_spectrum(eigs: np.ndarray) -> float:
    lam = np.asarray(eigs, dtype=float)
    lam = lam[lam > EIG_CUTOFF]
    # 0.0 - x, not -x: a pure state has entropy +0.0, never -0.0.
    return 0.0 - float(lam @ np.log2(lam))


def coherent_information(rho: DensityMatrix, a_factors: Iterable[int] = (0,)) -> float:
    """H(rho_B) - H(rho), B the factors outside ``a_factors``; nonpositive on separable states."""
    work = bipartition(rho, a_factors)
    return von_neumann_entropy(partial_trace(work, {1})) - von_neumann_entropy(work)


def holevo_quantity(probs: Sequence[float], matrices: Sequence[np.ndarray]) -> float:
    """H(Σ p_i ρ_i) - Σ p_i H(ρ_i) in bits, on raw density matrices."""
    avg = sum(p * m for p, m in zip(probs, matrices))
    h_avg = entropy_of_spectrum(np.linalg.eigvalsh(hermitize(avg)))
    h_members = sum(
        p * entropy_of_spectrum(np.linalg.eigvalsh(hermitize(m)))
        for p, m in zip(probs, matrices)
    )
    return float(h_avg - h_members)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (log2 rho - log2 sigma); +inf when supp(rho) leaks out of supp(sigma)."""
    if rho.dims != sigma.dims:
        raise DimensionMismatchError(f"dims {rho.dims} vs {sigma.dims}")
    lam_r, vec_r = np.linalg.eigh(hermitize(rho.entries))
    lam_s, vec_s = np.linalg.eigh(hermitize(sigma.entries))
    kernel = vec_s[:, lam_s <= EIG_CUTOFF]
    if kernel.shape[1]:
        leak = float(np.sum(np.abs(kernel.conj().T @ rho.entries @ kernel).diagonal().real))
        if leak > EIG_CUTOFF:
            return math.inf
    term_rho = float(np.sum(lam_r[lam_r > EIG_CUTOFF] * np.log2(lam_r[lam_r > EIG_CUTOFF])))
    support = lam_s > EIG_CUTOFF
    weights = np.einsum("ij,jk,ki->i", vec_s.conj().T, rho.entries, vec_s).real
    term_sigma = float(np.sum(weights[support] * np.log2(lam_s[support])))
    return term_rho - term_sigma


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Trace norm ||a - b||_1 (sum of singular values); 2 for orthogonal pure states."""
    if a.dims != b.dims:
        raise DimensionMismatchError(f"dims {a.dims} vs {b.dims}")
    return trace_norm(a.entries - b.entries)


def trace_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False).sum())


class PPTResult(NamedTuple):
    ppt: bool
    min_eigenvalue: float


def is_ppt(rho: DensityMatrix, cut: Iterable[int]) -> PPTResult:
    """Transpose the factors in ``cut`` and report the minimal eigenvalue.

    A nonnegative spectrum certifies non-distillability across that cut.
    """
    cut = _check_factors(rho.dims, cut)
    if not cut or len(cut) == rho.n_factors:
        raise DimensionMismatchError("cut must be a proper nonempty subset of factors")
    out = rho.entries
    for f in cut:
        out = partial_transpose_raw(out, rho.dims, f)
    min_eig = float(np.linalg.eigvalsh(hermitize(out)).min())
    return PPTResult(min_eig >= -POSITIVITY_TOL, min_eig)


def partial_transpose_raw(matrix: np.ndarray, dims: Sequence[int], factor: int) -> np.ndarray:
    n = len(dims)
    dims = list(dims)
    tens = matrix.reshape(dims + dims)
    perm = list(range(2 * n))
    perm[factor], perm[n + factor] = perm[n + factor], perm[factor]
    side = int(np.prod(dims))
    return tens.transpose(perm).reshape(side, side)


class SchmidtDecomposition(NamedTuple):
    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray


def schmidt(psi: PureState, cut: Iterable[int]) -> SchmidtDecomposition:
    """Schmidt decomposition across the bipartition (cut | rest).

    Returns descending nonnegative coefficients and the matching orthonormal
    vectors as columns, so that after moving the ``cut`` factors to the front
    psi = sum_i c_i left[:, i] (x) right[:, i].
    """
    cut = tuple(sorted(_check_factors(psi.dims, cut)))
    rest = tuple(i for i in range(len(psi.dims)) if i not in cut)
    if not cut or not rest:
        raise DimensionMismatchError("cut must be a proper nonempty subset of factors")
    reordered = permute_factors_pure(psi, cut + rest)
    d_left = int(np.prod([psi.dims[i] for i in cut]))
    d_right = reordered.side // d_left
    mat = reordered.amplitudes.reshape(d_left, d_right)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtDecomposition(s, u, vh.T)
