"""Enumerate modular invariants and nimreps; solve the Cardy equation.

The su2 level-4 category is the interesting case at desk scale: besides the
diagonal invariant there is a block invariant, and its boundary theory is
the one induced by the local simple-current extension theta = 1 (+) j2.
"""

import numpy as np

from bcft import (
    cardy_solve,
    catalog,
    compatibility,
    coupling_from_qsystem,
    enumerate_modular_invariants,
    enumerate_nimreps,
    regular_nimrep,
    search_qsystems,
)

for name, level in [("ising", None), ("fibonacci", None), ("su2", 4)]:
    data = catalog(name, level)
    invs = enumerate_modular_invariants(data.modular)
    print(f"== {data.name}: {len(invs)} modular invariant(s)")
    for Z in invs:
        print(Z, "\n")

data = catalog("ising")
print("Ising nimreps by size:")
for size in (1, 2, 3, 4):
    nims = enumerate_nimreps(data.ring, size)
    print(f"   size {size}: {len(nims)} orbit(s)")

sol = cardy_solve(regular_nimrep(data.ring), data.modular)
print("Cardy matrix for the regular Ising nimrep (psi = S):")
print(np.round(sol.psi.real, 6) + 0.0)
print(f"Cardy-equation residual: {sol.residual:.2e}")
ok, table = compatibility(np.eye(3, dtype=np.int64), regular_nimrep(data.ring), data.modular)
print(f"compatible with Z = identity: {ok}, exponent multiplicities {table}")

print()
s4 = catalog("su2", 4)
block = enumerate_modular_invariants(s4.modular)[1]
print("su2_4 block invariant:")
print(block)
q = search_qsystems(s4.presentation, [1, 0, 0, 0, 1], n_starts=12, seed=3).solutions[0]
print("coupling matrix of the simple-current extension equals it:",
      np.array_equal(coupling_from_qsystem(s4.presentation, q), block))
nims4 = enumerate_nimreps(s4.ring, 4)
compatible = [nr for nr in nims4 if compatibility(block, nr, s4.modular)[0]]
print(f"size-4 nimreps: {len(nims4)} orbit(s), {len(compatible)} compatible with the block invariant")
