import math

import numpy as np
import pytest

from densecode import channels as ch
from densecode import pqg
from densecode import qmath

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def haar_pure(dims, seed) -> qmath.PureState:
    """A Haar-random pure state on the given factors; ``seed`` an integer or a Generator."""
    amplitudes = qmath.haar_vectors(np.random.default_rng(seed), 1, math.prod(dims))[0]
    return qmath.PureState(tuple(dims), amplitudes)


def pauli_cnot_grid_oracle(blocks, inputs, n_points=10_000, seed=0, chunk=500):
    """Exhaustive Dirichlet grid over the 16 pair weights plus convex polish.

    The points are scored in chunks: one product with the stacked output
    projectors of every pair gives their outputs, and batched singular values
    their trace distances to the CNOT outputs.
    """
    rng = np.random.default_rng(seed)
    pairs = [(j, l) for j in range(4) for l in range(4)]
    y = np.stack([inputs @ np.kron(blocks[j], blocks[l]).T for (j, l) in pairs])
    projectors = (y[..., :, None] * y.conj()[..., None, :]).reshape(len(pairs), -1)
    t_out = inputs @ CNOT.T
    targets = t_out[:, :, None] * t_out.conj()[:, None, :]
    draws = [rng.dirichlet(np.full(16, 0.3)) for _ in range(n_points)]
    points = np.array([np.full(16, 1 / 16)] + draws)
    values = np.concatenate([
        np.linalg.svd(targets - (w @ projectors).reshape(len(w), *targets.shape),
                      compute_uv=False).sum(-1).mean(-1)
        for w in np.split(points, range(chunk, len(points), chunk))
    ])
    best = int(np.argmin(values))  # the first minimum, as a strict-improvement scan keeps
    _, polished, _ = pqg._frank_wolfe(
        np.asarray(blocks), np.asarray(blocks), CNOT, inputs, points[best].reshape(4, 4), 120
    )
    return min(float(values[best]), polished)


@pytest.fixture(scope="session")
def pauli_gate():
    return pqg.control_gate(
        [np.eye(2, dtype=complex), PAULI_X, PAULI_X @ PAULI_Z, PAULI_Z]
    )


@pytest.fixture(scope="session")
def pauli_cnot_oracle(pauli_gate):
    """The grid oracle on the Pauli gate's seed-0 witness inputs, scored once per session."""
    rng = np.random.default_rng(0)
    inputs = np.empty((pqg.WitnessConfig(seed=0).n_inputs, 4), dtype=complex)
    for s in range(len(inputs)):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        inputs[s] = z / np.linalg.norm(z)
    return pauli_cnot_grid_oracle(list(pauli_gate.blocks), inputs)


@pytest.fixture(scope="session")
def net_gates():
    """Calibrated qubit nets reused across modules (expensive to build)."""
    cache = {}

    def build(epsilon):
        if epsilon not in cache:
            cache[epsilon] = pqg.net_gate(epsilon, 2, seed=42)
        return cache[epsilon]

    return build
