"""Quantum operations in three pictures: Kraus, Choi, Stinespring.

Also shows the shift-and-clock unitary basis whose uniform average exactly
depolarizes one tensor factor, replacing Haar integration with a finite sum.
"""

import numpy as np

from densecode import (
    QuantumChannel,
    apply_local,
    channels_equal,
    dilate,
    maximally_mixed,
    partial_trace,
    random_channel,
    random_state,
    undilate,
    weyl_basis,
    weyl_twirl,
)

print("=== depolarizing channel, three ways ===")
dep = QuantumChannel.depolarizing(1.0)
print("Kraus family size:", len(dep.kraus))
iso = dilate(dep)
print("Stinespring isometry: C^2 -> C^2 (x) C^%d, V^dag V = I defect %.1e"
      % (iso.d_env, np.max(np.abs(iso.v.conj().T @ iso.v - np.eye(2)))))
print("round trip Choi-equal:", channels_equal(undilate(iso), dep))

print("\n=== random channels round-trip ===")
worst = 0.0
for seed in range(25):
    chan = random_channel(2, 3, 2, seed=seed)
    back = undilate(dilate(chan))
    from densecode.channels import choi
    worst = max(worst, float(np.max(np.abs(choi(back) - choi(chan)))))
print("max Choi deviation over 25 random channels:", f"{worst:.2e}")

print("\n=== the exact discrete twirl ===")
for d in (2, 3):
    basis = weyl_basis(d)
    gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
    print(f"d={d}: {len(basis)} unitaries, Gram defect "
          f"{np.max(np.abs(gram - d * np.eye(d * d))):.1e}")
    rho = random_state((d, 2), 2, seed=d)
    encoded = apply_local(random_channel(d, d, 2, seed=10 + d), rho, factor=0)
    twirled = weyl_twirl(encoded, factor=0)
    target = np.kron(np.eye(d) / d, partial_trace(encoded, {1}).entries)
    print(f"     twirl vs I/d (x) rho_B: max |diff| = "
          f"{np.max(np.abs(twirled.entries - target)):.1e}")

print("\nA constant map erases everything:")
const = QuantumChannel.constant_replacement(2, maximally_mixed((2,)))
rho = random_state((2,), 1, seed=5)
from densecode.channels import apply
print("output =", np.round(apply(const, rho).entries.real, 3).tolist())
