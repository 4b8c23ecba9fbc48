"""Tensored gates never scale, and what that means for encoding emulation.

Two approximating gates run in parallel handle product targets, but no
joint program -- entangled ones included -- makes the pair act as an
entangling unitary.  On controlled-block gates every joint program induces a
mixture of block pairs, so the witness's Frank-Wolfe descent over all pair
mixtures also yields a lower bound: no program gets the CNOT error below it,
on the sampled inputs or in the worst case.  The same obstruction limits
the reduction from "act on a given state" coding to "prepare a state"
coding: one encoding channel can be emulated through a programmed dilation,
yet tensoring the emulators cannot reproduce entangling encodings.
"""

import numpy as np

from densecode import (
    QuantumChannel,
    control_gate,
    emulate_encoding,
    net_gate,
    scalability_witness,
)
from densecode.pqg import WitnessConfig, dilation_unitary, net_gate_around, tensor_gates

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

pauli = control_gate([I2, X, X @ Z, Z])
cfg = WitnessConfig(seed=0)

print("=== the scalability witness ===")
rep = scalability_witness(pauli, pauli, np.kron(X, Z), cfg)
print(f"product target X (x) Z on Pauli gates: best error {rep.best_error:.6f}")
rep = scalability_witness(pauli, pauli, CNOT, cfg)
print(f"entangling target CNOT on Pauli gates: best error {rep.best_error:.4f}"
      f"  (sup estimate {rep.sup_estimate.value:.4f}, every program >= "
      f"{rep.lower_bound.value:.4f})")

print("\nfiner nets squeeze product targets but never the entangling one:")
for eps in (0.5, 0.3):
    gate, net = net_gate(eps, 2, seed=42, n_targets=40)
    prod = scalability_witness(gate, gate, np.kron(X, Z), cfg)
    ent = scalability_witness(gate, gate, CNOT, WitnessConfig(seed=0, fw_iterations=40))
    print(f"  eps={eps}: product {prod.best_error:.4f}   CNOT {ent.best_error:.4f}"
          f"  (every program >= {ent.lower_bound.value:.4f})")

print("\n=== emulating an encoding channel through a programmed dilation ===")
dep = QuantumChannel.depolarizing(1.0)
target, d_env = dilation_unitary(dep)
print(f"depolarizing dilation: unitary on C^{2 * d_env} with ancilla in |0>")
gate, net = net_gate_around([target], 0.1, seed=7)
report = emulate_encoding(dep, gate, 0.1, n_samples=200, seed=3)
print(f"certified gate ({net.metadata['size']} atoms, "
      f"certificate {net.metadata['certificate_max_program_error']:.4f}): "
      f"sweep error {report.measured_error:.4f} <= 0.1")

print("\nbut an entangling encoding through tensored emulators fails:")
tensored = tensor_gates(pauli, pauli)
report = emulate_encoding(QuantumChannel.from_unitary(CNOT), tensored, 0.1,
                          n_samples=100, seed=4)
print(f"CNOT conjugation through Pauli (x) Pauli: sweep error "
      f"{report.measured_error:.4f} > 0.1  (the reduction does not scale)")
