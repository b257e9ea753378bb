import math
import re

import numpy as np
import pytest
from conftest import SECTOR_REFUSALS

from bcft.catalog import ising
from bcft.characters import (
    TRANSFORM_TOL,
    annulus_partition,
    cardy_transform_check,
    evaluate_character,
    minimal_model_characters,
    sector_characters,
)
from bcft.classify import cardy_solve, enumerate_modular_invariants, regular_nimrep
from bcft.errors import NumericDegeneracyError, StructuralError
from bcft.modular import ModularData
from bcft.rings import FusionRing


def fermionic_oracle(order):
    """Independent c = 1/2 character oracle from the fermionic products.

    chi_0 and chi_1/2 from (prod (1 + q^{n-1/2}) +- prod (1 - q^{n-1/2}))/2,
    chi_1/16 from prod (1 + q^n); exact integer coefficients.
    """
    half = np.zeros(2 * order + 2, dtype=np.int64)
    half[0] = 1
    plus, minus = half.copy(), half.copy()
    for n in range(1, order + 2):
        e = 2 * n - 1
        if e > 2 * order + 1:
            break
        new_p, new_m = plus.copy(), minus.copy()
        new_p[e:] += plus[: len(plus) - e]
        new_m[e:] -= minus[: len(minus) - e]
        plus, minus = new_p, new_m
    chi0 = ((plus + minus) // 2)[::2][: order + 1]
    chihalf = ((plus - minus) // 2)[1::2][: order + 1]
    chi16 = np.zeros(order + 1, dtype=np.int64)
    chi16[0] = 1
    for n in range(1, order + 1):
        new = chi16.copy()
        new[n:] += chi16[: order + 1 - n]
        chi16 = new
    return chi0, chi16, chihalf


def ising_characters(order):
    return tuple(sector_characters(ising(), order))


@pytest.mark.parametrize("p, pp", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7)])
@pytest.mark.parametrize("order", [0, 1, 60])
def test_each_kac_field_appears_once(p, pp, order):
    """(r, s) and (p-r, p'-s) name one field: it appears once, under p' r > p s,
    and the fields have distinct weights, the h_{r,s} of the whole Kac table."""
    chars = minimal_model_characters(p, pp, order)
    assert len(chars) == (p - 1) * (pp - 1) // 2
    assert all(pp * r > p * s for r, s in chars)
    kac = {
        round(((pp * r - p * s) ** 2 - (pp - p) ** 2) / (4 * p * pp), 12)
        for r in range(1, p)
        for s in range(1, pp)
    }
    assert sorted(round(series.h, 12) for series in chars.values()) == sorted(kac)
    assert all(series.order == order and series.coeffs[0] == 1 for series in chars.values())


@pytest.mark.parametrize("case", SECTOR_REFUSALS)
def test_sector_characters_refusals(case):
    make, message = SECTOR_REFUSALS[case]
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        sector_characters(make(), 10)


def test_rocha_caridi_matches_fermionic_oracle_to_order_100():
    c0, c16, chalf = ising_characters(100)
    f0, f16, fhalf = fermionic_oracle(100)
    assert np.array_equal(c0.coeffs, f0)
    assert np.array_equal(c16.coeffs, f16)
    assert np.array_equal(chalf.coeffs, fhalf)


def test_known_low_levels():
    c0, c16, chalf = ising_characters(3)
    assert c0.coeffs.tolist() == [1, 0, 1, 1]
    assert chalf.coeffs[:3].tolist() == [1, 1, 1]
    for series in (c0, c16, chalf):
        assert series.coeffs[0] == 1
        assert np.all(series.coeffs >= 0)


def test_large_order_uses_exact_integers():
    # coefficients exceed int64 at high levels; the exact integer pipeline
    # must keep them non-negative and evaluable
    chars = minimal_model_characters(3, 4, 2000)
    series = chars[(1, 1)]
    assert series.coeffs[0] == 1
    assert series.coeffs.dtype == object  # beyond int64 range at this order
    assert int(series.coeffs[-1]) > 2**62
    value, tail = evaluate_character(series, 2 * math.pi)
    assert value > 0 and tail < 1e-100


def test_input_validation():
    with pytest.raises(StructuralError):
        minimal_model_characters(4, 6, 10)  # not coprime
    with pytest.raises(StructuralError):
        minimal_model_characters(4, 3, 10)  # p >= p'
    with pytest.raises(StructuralError):
        minimal_model_characters(3, 4, 10**4 + 1)
    with pytest.raises(StructuralError, match="truncation order must be finite integers"):
        minimal_model_characters(3, 4, 2**63)  # beyond int64, not wrapped to a negative order


INTEGER_ARGUMENTS = {
    "minimal-model labels": lambda data, nr, chars: minimal_model_characters(3.7, 4, 10),
    "truncation order": lambda data, nr, chars: minimal_model_characters(3, 4, 10.5),
    "max_entry": lambda data, nr, chars: enumerate_modular_invariants(data.modular, max_entry=1.5),
    "boundary labels": lambda data, nr, chars: annulus_partition(nr, chars, 0.5, 0, 2 * math.pi),
}


@pytest.mark.parametrize("what", INTEGER_ARGUMENTS)
def test_integer_arguments_are_never_truncated(ising_data, what):
    """A fractional label, order, entry bound or boundary is malformed input:
    not truncated (3.7 into the Ising model (3, 4), 1.5 into max_entry 1), and
    not a bare TypeError or IndexError."""
    nr, chars = regular_nimrep(ising_data.ring), ising_characters(10)
    with pytest.raises(StructuralError, match=f"{what} must be finite integers"):
        INTEGER_ARGUMENTS[what](ising_data, nr, chars)


def test_integral_values_count_as_integers(ising_data):
    nr, chars = regular_nimrep(ising_data.ring), ising_characters(10)
    got = minimal_model_characters(3.0, np.int64(4), 10.0)
    assert {key: s.coeffs.tolist() for key, s in got.items()} == {
        key: s.coeffs.tolist() for key, s in minimal_model_characters(3, 4, 10).items()
    }
    assert [Z.tolist() for Z in enumerate_modular_invariants(ising_data.modular, max_entry=1.0)] == [np.eye(3).tolist()]
    assert annulus_partition(nr, chars, 1.0, np.int64(1), 5.0) == annulus_partition(nr, chars, 1, 1, 5.0)


def test_annulus_partition_checks_its_inputs(ising_data):
    nr, chars = regular_nimrep(ising_data.ring), ising_characters(10)
    with pytest.raises(StructuralError, match="need one character per sector"):
        annulus_partition(nr, chars[:2], 0, 0, 5.0)
    for a, b in ((3, 0), (0, -1)):
        with pytest.raises(StructuralError, match="boundary label out of range"):
            annulus_partition(nr, chars, a, b, 5.0)


def test_evaluate_monotone_and_positive():
    # all level terms are positive, so the level sum decreases in beta (the
    # e^{beta c/24} vacuum prefactor can still grow; compare bare sums)
    c0, c16, chalf = ising_characters(40)
    betas = (2.0, 3.0, 5.0, 8.0)
    for series in (c0, c16, chalf):
        vals = [
            evaluate_character(series, b)[0]
            * math.exp(b * (series.h - series.c / 24.0))
            for b in betas
        ]
        assert all(v > 0 for v in vals)
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_evaluate_tail_bound_small_at_2pi():
    c0, _, _ = ising_characters(40)
    value, tail = evaluate_character(c0, 2 * math.pi)
    assert tail < 1e-10
    # order-80 evaluation agrees within the order-40 tail bound
    c0b, _, _ = ising_characters(80)
    value_b, _ = evaluate_character(c0b, 2 * math.pi)
    assert abs(value - value_b) <= tail


def test_evaluate_rejects_nonpositive_beta():
    c0, _, _ = ising_characters(10)
    with pytest.raises(StructuralError):
        evaluate_character(c0, 0.0)
    for beta in (math.nan, math.inf):
        with pytest.raises(StructuralError):
            evaluate_character(c0, beta)


def test_tail_divergence_error():
    c0, _, _ = ising_characters(10)
    with pytest.raises(NumericDegeneracyError, match="increase truncation order"):
        evaluate_character(c0, 0.05)


def test_vacuum_prefactor_overflow_is_degenerate():
    # exp(beta c / 24) leaves the float range above beta ~ 34,000 at c = 1/2
    c0, _, _ = ising_characters(10)
    with pytest.raises(NumericDegeneracyError, match="beta=100000"):
        evaluate_character(c0, 1e5)


def test_annulus_values_ising(ising_data):
    nr = regular_nimrep(ising_data.ring)
    chars = ising_characters(60)
    beta = 2 * math.pi
    z00, _ = annulus_partition(nr, chars, 0, 0, beta)
    assert z00 == pytest.approx(evaluate_character(chars[0], beta)[0], abs=1e-12)
    z0s, _ = annulus_partition(nr, chars, 0, 1, beta)
    assert z0s == pytest.approx(evaluate_character(chars[1], beta)[0], abs=1e-12)
    zss, _ = annulus_partition(nr, chars, 1, 1, beta)
    want = evaluate_character(chars[0], beta)[0] + evaluate_character(chars[2], beta)[0]
    assert zss == pytest.approx(want, abs=1e-12)
    assert z00 > 0 and z0s > 0 and zss > 0


def test_annulus_duality_bookkeeping(ising_data):
    # Z_ab(beta) = sum_s n^s_ba chi_dual(s)(beta) because n^dual(s) = (n^s)^T
    nr = regular_nimrep(ising_data.ring)
    chars = ising_characters(60)
    dual = ising_data.ring.dual
    for a in range(3):
        for b in range(3):
            lhs, _ = annulus_partition(nr, chars, a, b, 5.0)
            rhs = sum(
                int(nr.matrices[s][b, a]) * evaluate_character(chars[dual[s]], 5.0)[0]
                for s in range(3)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("beta", [3.0, 2 * math.pi, 9.0])
def test_cardy_transform_all_pairs(ising_data, beta):
    nr = regular_nimrep(ising_data.ring)
    sol = cardy_solve(nr, ising_data.modular)
    chars = ising_characters(60)
    for a in range(3):
        for b in range(3):
            report = cardy_transform_check(
                sol, ising_data.modular, chars, a, b, beta, window=(2.9, 13.0)
            )
            assert report.passed
            assert report.residual < 1e-6
            assert report.beta_hat == pytest.approx(4 * math.pi**2 / beta)
            assert report.tolerance == TRANSFORM_TOL


def test_transform_check_rejects_modular_data_of_another_ring(ising_data, fib_data):
    sol = cardy_solve(regular_nimrep(ising_data.ring), ising_data.modular)
    with pytest.raises(StructuralError, match="the nimrep and the modular data have different fusion rings"):
        cardy_transform_check(sol, fib_data.modular, ising_characters(60), 0, 0, 2 * math.pi)


def test_window_enforced(ising_data):
    nr = regular_nimrep(ising_data.ring)
    sol = cardy_solve(nr, ising_data.modular)
    chars = ising_characters(60)
    with pytest.raises(StructuralError, match="window"):
        cardy_transform_check(sol, ising_data.modular, chars, 0, 0, 3.0)


def test_short_truncation_never_passes_vacuously(ising_data):
    nr = regular_nimrep(ising_data.ring)
    sol = cardy_solve(nr, ising_data.modular)
    chars = ising_characters(4)
    with pytest.raises(NumericDegeneracyError, match="increase truncation order"):
        cardy_transform_check(
            sol, ising_data.modular, chars, 0, 0, 3.2, window=(2.9, 13.0)
        )


def test_one_sector_check_is_refused():
    ring = FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))
    md = ModularData(ring, [[1.0]], [1.0])
    sol = cardy_solve(regular_nimrep(ring), md)
    c0, _, _ = ising_characters(20)
    with pytest.raises(StructuralError, match="one-sector"):
        cardy_transform_check(sol, md, [c0], 0, 0, 2 * math.pi)
