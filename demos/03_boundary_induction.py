"""The boundary induction pipeline for the Fermi extension of the Ising model.

From the Q-system theta = 1 (+) psi the kernel of the charged-intertwiner
linear problem gives the coupling matrix Z, the dual canonical object
Theta_plus, the index ledger, and the normalized boundary field with its
tree-basis coefficients.  The DHR orbit read off the regular nimrep diagonal
reproduces the same Z from every member.
"""

import numpy as np

from bcft import (
    car_qsystem,
    catalog,
    charged_algebra,
    charged_field_basis,
    coupling_from_qsystem,
    dhr_orbit_thetas,
    frobenius_check,
    index_ledger,
    is_local,
    regular_nimrep,
    search_qsystems,
    theta_plus,
    validate_qsystem,
)

data = catalog("ising")
cat = data.presentation
car = car_qsystem(cat)

print("Q-system axioms:", validate_qsystem(car, cat))
print(f"Frobenius residual: {frobenius_check(car, cat):.2e}")
local, resid = is_local(car, cat)
print(f"chiral locality: {local} (residual {resid:.3f} from eps(psi,psi) = -1)")

alg = charged_algebra(car, cat)
print("charged-intertwiner structure constants:")
for key, val in sorted(alg.gamma.items()):
    print(f"   Gamma{key} = {val:.6f}")

Z = coupling_from_qsystem(cat, car)
print("coupling matrix Z =")
print(Z)

m, d_total = theta_plus(data.ring, Z)
print(f"Theta_plus multiplicities {m.tolist()}, dimension {d_total:g}")
print("index ledger:", index_ledger(data.ring, car, Z).as_dict())

basis = charged_field_basis(cat, car, 1, 1)
phi = basis.fields[0]
norm = np.vdot(phi[0], phi[0])
print(f"boundary field at (sigma, sigma): |phi|^2 = {norm.real:.6f} (= d(sigma)^2)")
print("tree coefficients (p_slot, q_slot, intermediate) -> value:")
for (p, q, t), val in zip(basis.coefficient_index, basis.coefficients[0]):
    if abs(val) > 1e-12:
        print(f"   ({p}, {q}, {t}) -> {val:.6f}")

print()
print("DHR orbit from the regular nimrep diagonal:")
for theta in dhr_orbit_thetas(Z, regular_nimrep(data.ring)):
    res = search_qsystems(cat, theta, n_starts=10, seed=6)
    for q in res.solutions:
        Za = coupling_from_qsystem(cat, q)
        print(f"   theta_a = {theta}: Z identical to the original: {np.array_equal(Za, Z)}")
