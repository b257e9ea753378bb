"""Virasoro minimal-model characters and annulus partition functions.

Characters are truncated q-series ``chi(beta) = e^{-beta(h - c/24)}
sum_n a_n e^{-beta n}`` with exact integer coefficients from the alternating
Kac-weight sum divided by the Euler product.  Evaluations carry a rigorous
tail bound (``a_n <= p(n) * #weights``, ``p(n) < exp(pi sqrt(2n/3))``), and
the annulus modular check compares the direct spectrum sum against the
boundary-state form at the transformed inverse temperature; it errors out
rather than passing vacuously when truncation is too short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import CardySolution, Nimrep
from .errors import NumericDegeneracyError, StructuralError
from .modular import ModularData

__all__ = [
    "CharacterSeries",
    "minimal_model_characters",
    "evaluate_character",
    "annulus_partition",
    "AnnulusReport",
    "cardy_transform_check",
    "DEFAULT_BETA_WINDOW",
]

DEFAULT_BETA_WINDOW = (math.pi, 4 * math.pi)


@dataclass
class CharacterSeries:
    """Truncated level expansion of one chiral character."""

    c: float
    h: float
    coeffs: np.ndarray  # integer level degeneracies a_0..a_L
    weight_density: float = 1.0  # numerator terms per unit sqrt(level), for tails

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def weight_count(self, m: int) -> float:
        """Upper bound on the number of Kac-weight terms up to level m."""
        return 2.0 * (math.floor(self.weight_density * math.sqrt(max(m, 1))) + 2)


def _partitions(order: int) -> list:
    # exact python integers: p(n) overflows int64 already near n ~ 400
    p = [0] * (order + 1)
    p[0] = 1
    for k in range(1, order + 1):
        for m in range(k, order + 1):
            p[m] += p[m - k]
    return p


def minimal_model_characters(p: int, pp: int, order: int) -> dict:
    """Characters of the (p, p') minimal model as ``{(r, s): CharacterSeries}``.

    Both Kac labels of each field appear ((r, s) and (p-r, p'-s) give equal
    series).  Coefficients are exact integers.
    """
    p, pp = int(p), int(pp)
    if p < 2 or pp < 2 or p >= pp or math.gcd(p, pp) != 1:
        raise StructuralError("need coprime 2 <= p < p'")
    if order > 10**4:
        raise StructuralError("truncation order too large")
    if order < 0:
        raise StructuralError(f"truncation order must be non-negative, got {order}")
    c = 1.0 - 6.0 * (pp - p) ** 2 / (p * pp)
    part = _partitions(order)
    out = {}
    nmax = int(math.isqrt(order // (p * pp) + 4)) + 2
    for r in range(1, p):
        for s in range(1, pp):
            A = pp * r - p * s
            B = pp * r + p * s
            h = (A * A - (pp - p) ** 2) / (4.0 * p * pp)
            numer: dict[int, int] = {}
            for nn in range(-nmax, nmax + 1):
                dp = p * pp * nn * nn + A * nn
                dm = p * pp * nn * nn + B * nn + r * s
                if 0 <= dp <= order:
                    numer[dp] = numer.get(dp, 0) + 1
                if 0 <= dm <= order:
                    numer[dm] = numer.get(dm, 0) - 1
            coeffs = [0] * (order + 1)
            for k, w in numer.items():
                for m in range(k, order + 1):
                    coeffs[m] += w * part[m - k]
            if coeffs[0] != 1 or any(a < 0 for a in coeffs):
                raise StructuralError(
                    f"character coefficients inconsistent at (r,s)=({r},{s})"
                )
            arr = (
                np.array(coeffs, dtype=np.int64)
                if coeffs[-1] < 2**62
                else np.array(coeffs, dtype=object)
            )
            out[(r, s)] = CharacterSeries(
                c=c, h=h, coeffs=arr, weight_density=1.0 / math.sqrt(p * pp)
            )
    return out


def evaluate_character(series: CharacterSeries, beta: float):
    """Value of the truncated character plus a rigorous truncation tail bound."""
    if not 0 < beta < math.inf:  # nan fails too
        raise StructuralError(f"beta must be positive and finite, got {beta}")
    levels = np.arange(len(series.coeffs))
    try:
        pref = math.exp(-beta * (series.h - series.c / 24.0))
    except OverflowError:
        raise NumericDegeneracyError(f"character prefactor exceeds the float range at beta={beta:g}") from None
    weights = np.asarray(series.coeffs, dtype=float)
    value = pref * float(np.dot(weights, np.exp(-beta * levels)))
    m0 = series.order + 1
    # term bound t(m) = weight_count(m) exp(pi sqrt(2m/3)) e^{-beta m}
    ratio = 2.0 * math.exp(math.pi / math.sqrt(6.0 * m0)) * math.exp(-beta)
    if ratio >= 1.0:
        raise NumericDegeneracyError(
            f"tail bound diverges at beta={beta:g}; increase truncation order"
        )
    t0 = (
        series.weight_count(m0)
        * math.exp(math.pi * math.sqrt(2.0 * m0 / 3.0))
        * math.exp(-beta * m0)
    )
    tail = pref * t0 / (1.0 - ratio)
    return value, tail


def annulus_partition(nimrep: Nimrep, chars, a: int, b: int, beta: float):
    """``Z_ab(beta) = sum_s n^s_ab chi_s(beta)`` with combined tail bound."""
    nsec = nimrep.ring.size
    if len(chars) != nsec:
        raise StructuralError("need one character per sector")
    if not (0 <= a < nimrep.size and 0 <= b < nimrep.size):
        raise StructuralError("boundary label out of range")
    value = 0.0
    tail = 0.0
    for s in range(nsec):
        mult = int(nimrep.matrices[s][a, b])
        if mult == 0:
            continue
        v, t = evaluate_character(chars[s], beta)
        value += mult * v
        tail += mult * t
    return value, tail


@dataclass
class AnnulusReport:
    a: int
    b: int
    beta: float
    beta_hat: float
    direct: float
    transformed: float
    residual: float
    tail_bound: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def cardy_transform_check(
    cardy: CardySolution,
    md: ModularData,
    chars,
    a: int,
    b: int,
    beta: float,
    tol: float = 1e-6,
    window=DEFAULT_BETA_WINDOW,
) -> AnnulusReport:
    """Compare the annulus spectrum sum with its boundary-state transform.

    Direct side: ``sum_s n^s_ab chi_s(beta)``.  Transformed side:
    ``sum_t psi_at conj(psi_bt) chi_t(beta_hat) / S_0t`` at
    ``beta_hat = 4 pi^2 / beta``; the ``1/S_0t`` weight is what the unitary
    normalization of psi requires for the two sides to agree.
    """
    if md.size == 1:
        raise StructuralError(
            "one-sector data has no honest modular check; supply a genuine "
            "character family (e.g. the c=1/2 vacuum combination)"
        )
    if not window[0] <= beta <= window[1]:
        raise StructuralError(
            f"beta={beta:g} outside the configured window {window}"
        )
    beta_hat = 4.0 * math.pi**2 / beta
    direct, tail_d = annulus_partition(cardy.nimrep, chars, a, b, beta)
    transformed = 0.0
    tail_t = 0.0
    S0 = md.S[0].real
    psi = cardy.psi
    for col, t in enumerate(cardy.exponents):
        weight = psi[a, col] * np.conj(psi[b, col]) / S0[t]
        if abs(weight) < 1e-14:
            continue
        v, tl = evaluate_character(chars[t], beta_hat)
        transformed += (weight * v).real
        tail_t += abs(weight) * tl
    tail = tail_d + tail_t
    if tail > tol:
        raise NumericDegeneracyError(
            f"truncation tail {tail:.2e} exceeds tolerance {tol:g}; "
            "increase truncation order"
        )
    residual = abs(direct - transformed)
    return AnnulusReport(
        a=a,
        b=b,
        beta=beta,
        beta_hat=beta_hat,
        direct=direct,
        transformed=transformed,
        residual=residual,
        tail_bound=tail,
        tolerance=max(tol, tail),
    )
