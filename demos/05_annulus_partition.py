"""Annulus partition functions of the Ising boundary theory.

The boundary Hilbert space at a pair (a, b) of Cardy boundaries decomposes
with the nimrep multiplicities n^s_ab, so the annulus partition function is
a character sum.  Evaluating the same function through the boundary-state
form at the transformed temperature beta_hat = 4 pi^2 / beta must agree;
the residual table below shows the numerical match.
"""

import math

from bcft import (
    annulus_partition,
    cardy_solve,
    cardy_transform_check,
    catalog,
    evaluate_character,
    regular_nimrep,
    sector_characters,
)

data = catalog("ising")

sector_chars = sector_characters(data, order=60)
print("character level degeneracies (first 8 levels):")
for label, series in zip(data.labels, sector_chars):
    print(f"   h = {label:>4}: {series.coeffs[:8].tolist()}")

value, tail = evaluate_character(sector_chars[0], 2 * math.pi)
print(f"chi_0(2 pi) = {value:.12f} (truncation tail below {tail:.1e})")

nimrep = regular_nimrep(data.ring)
sol = cardy_solve(nimrep, data.modular)
beta = 2 * math.pi
print()
print("annulus spectra at beta = 2 pi (boundaries labeled by sectors):")
for a in range(3):
    for b in range(3):
        mult = [int(nimrep.matrices[s][a, b]) for s in range(3)]
        z, _ = annulus_partition(nimrep, sector_chars, a, b, beta)
        print(f"   Z_({data.labels[a]},{data.labels[b]}) = {z:.9f}   multiplicities {mult}")

print()
print("modular consistency |direct - transformed|:")
for beta in (3.0, 2 * math.pi, 9.0):
    worst = 0.0
    for a in range(3):
        for b in range(3):
            report = cardy_transform_check(
                sol, data.modular, sector_chars, a, b, beta, window=(2.9, 13.2)
            )
            worst = max(worst, report.residual)
    print(f"   beta = {beta:8.5f}: worst residual {worst:.2e} (beta_hat = {4 * math.pi**2 / beta:.5f})")
