"""Build every catalog category and run the full validator stack.

Each catalog carries a fusion ring, modular S/T data and unitary F/R
symbols.  The validators check the ring axioms, S/T identities, the
Verlinde bridge between the two, and the pentagon/hexagon equations of the
F and R symbols.
"""

import numpy as np

from bcft import (
    catalog,
    global_dimension,
    quantum_dimensions,
    validate_axioms,
    validate_modular,
    validate_ring,
    verlinde_fusion,
)

for name, level in [("ising", None), ("fibonacci", None), ("su2", 2), ("su2", 4), ("su2", 6)]:
    data = catalog(name, level)
    print(f"== {data.name}: sectors {data.labels}")
    print(f"   quantum dimensions {np.round(quantum_dimensions(data.modular), 6)}")
    print(f"   global dimension (mu-index) = {global_dimension(data.ring):.6f}")

    ring_report = validate_ring(data.ring)
    modular_report = validate_modular(data.modular)
    axiom_report = validate_axioms(data.presentation)
    print(f"   ring axioms:     {'ok' if not ring_report else ring_report}")
    print(f"   modular S/T:     {'ok' if not modular_report else modular_report}")
    print(
        f"   pentagon {axiom_report.pentagon_residual:.2e}  "
        f"hexagon {axiom_report.hexagon_residual:.2e}  "
        f"unitarity {axiom_report.unitarity_residual:.2e}"
    )
    same = verlinde_fusion(data.modular) == data.ring
    print(f"   Verlinde formula reproduces the fusion ring: {same}")
    print()

# the su2 level-2 ring coincides with the Ising ring (different spins/F data)
assert np.array_equal(catalog("su2", 2).ring.N, catalog("ising").ring.N)
print("su2 level 2 has the Ising fusion ring, as it should.")
