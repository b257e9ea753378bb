"""Built-in category catalogs: Ising, Fibonacci and SU(2) level k.

Each generator returns a :class:`CategoryData` bundle (ring, modular data,
F/R presentation, central charge) that passes every validator in the
package.  The SU(2) data comes from the quantum Racah 6j symbols in the
unitary gauge; Ising and Fibonacci use the standard explicit tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .category import CategoryPresentation
from .errors import StructuralError
from .modular import ModularData
from .rings import FusionRing

__all__ = ["CategoryData", "ising", "fibonacci", "su2", "catalog", "CATALOG_NAMES"]

CATALOG_NAMES = ("ising", "fibonacci", "su2")


@dataclass
class CategoryData:
    """Everything the pipeline needs about one catalog category."""

    name: str
    ring: FusionRing
    modular: ModularData
    presentation: CategoryPresentation
    central_charge: float

    @property
    def labels(self):
        return self.ring.labels


def _full_fr_tables(ring: FusionRing, f_exceptions: dict, r_values: dict):
    """All-admissible F/R tables: exceptions override the default value 1.

    An exception off the admissible labels stays in its table, so the
    presentation rejects it."""
    F = dict.fromkeys(zip(*ring.f_key_array.T.tolist()), 1.0) | f_exceptions
    R = dict.fromkeys(zip(*ring.r_key_array.T.tolist()), 1.0) | r_values
    return F, R


def ising() -> CategoryData:
    """Ising category: sectors (0, 1/16, 1/2) of the c = 1/2 chiral theory."""
    labels = ("0", "1/16", "1/2")
    dual = (0, 1, 2)
    n = 3
    VAC, SIG, PSI = 0, 1, 2
    N = np.zeros((n, n, n), dtype=np.int64)
    N[VAC] = np.eye(n)
    N[:, VAC, :] = np.eye(n)
    N[SIG, SIG, VAC] = N[SIG, SIG, PSI] = 1
    N[SIG, PSI, SIG] = N[PSI, SIG, SIG] = 1
    N[PSI, PSI, VAC] = 1
    ring = FusionRing(labels, dual, N)

    s2 = math.sqrt(2.0)
    S = 0.5 * np.array([[1, s2, 1], [s2, 0, -s2], [1, -s2, 1]], dtype=complex)
    T = np.array([1.0, np.exp(1j * np.pi / 8), -1.0])
    md = ModularData(ring, S, T)

    inv_s2 = 1.0 / s2
    f_exc = {}
    # the 2x2 sigma block
    for e in (VAC, PSI):
        for f in (VAC, PSI):
            sign = -1.0 if (e, f) == (PSI, PSI) else 1.0
            f_exc[(SIG, SIG, SIG, SIG, e, f)] = sign * inv_s2
    f_exc[(PSI, SIG, PSI, SIG, SIG, SIG)] = -1.0
    f_exc[(SIG, PSI, SIG, PSI, SIG, SIG)] = -1.0
    r_val = {
        (SIG, SIG, VAC): np.exp(-1j * np.pi / 8),
        (SIG, SIG, PSI): np.exp(3j * np.pi / 8),
        (PSI, PSI, VAC): -1.0,
        (SIG, PSI, SIG): -1.0j,
        (PSI, SIG, SIG): -1.0j,
    }
    F, R = _full_fr_tables(ring, f_exc, r_val)
    cat = CategoryPresentation(ring, F, R)
    return CategoryData("ising", ring, md, cat, 0.5)


def fibonacci() -> CategoryData:
    """Fibonacci category (tau x tau = 1 + tau), c = 14/5."""
    labels = ("0", "tau")
    dual = (0, 1)
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = np.eye(2)
    N[:, 0, :] = np.eye(2)
    N[1, 1, 0] = N[1, 1, 1] = 1
    ring = FusionRing(labels, dual, N)

    phi = (1.0 + math.sqrt(5.0)) / 2.0
    norm = 1.0 / math.sqrt(phi + 2.0)
    S = norm * np.array([[1.0, phi], [phi, -1.0]], dtype=complex)
    T = np.array([1.0, np.exp(4j * np.pi / 5)])
    md = ModularData(ring, S, T)

    f_exc = {
        (1, 1, 1, 1, 0, 0): 1.0 / phi,
        (1, 1, 1, 1, 0, 1): 1.0 / math.sqrt(phi),
        (1, 1, 1, 1, 1, 0): 1.0 / math.sqrt(phi),
        (1, 1, 1, 1, 1, 1): -1.0 / phi,
    }
    r_val = {
        (1, 1, 0): np.exp(-4j * np.pi / 5),
        (1, 1, 1): np.exp(3j * np.pi / 5),
    }
    F, R = _full_fr_tables(ring, f_exc, r_val)
    cat = CategoryPresentation(ring, F, R)
    return CategoryData("fibonacci", ring, md, cat, 2.8)


# -- SU(2)_k via quantum 6j symbols ----------------------------------------


# F keys evaluated at a time by _su2_f_values: bounds its float temporaries
_F_BLOCK = 1 << 16


def _su2_f_values(keys: np.ndarray, k: int) -> np.ndarray:
    """Unitary-gauge F values at the admissible ``keys`` (rows ``(a,b,c,d,e,f)``
    of twice the spins): ``(-1)^((a+b+c+d)/2) sqrt([e+1][f+1]) {a b e; c d f}_q``.

    The quantum integers ``[m]`` at ``q = exp(2 pi i / (k+2))`` and the
    factorials ``[m]!`` are tabulated once for ``m <= 2k+3``.  The Racah sum
    steps over ``z`` in ascending order and every product runs left to right,
    so each value is the same float whatever the other keys are; the keys are
    therefore evaluated in blocks of ``_F_BLOCK``.
    """
    qint = np.array([math.sin(math.pi * m / (k + 2)) / math.sin(math.pi / (k + 2)) for m in range(2 * k + 4)])
    fact = np.cumprod(np.r_[1.0, qint[1:]])  # [0]! = [1]! = 1, [m]! = [m-1]! [m]
    values = np.empty(len(keys))
    for lo in range(0, len(keys), _F_BLOCK):
        values[lo : lo + _F_BLOCK] = _racah_values(keys[lo : lo + _F_BLOCK], qint, fact)
    return values


def _racah_values(keys: np.ndarray, qint: np.ndarray, fact: np.ndarray) -> np.ndarray:
    """The ``_su2_f_values`` of ``keys`` from the tabulated ``[m]`` and ``[m]!``."""
    a, b, c, d, e, f = keys.T

    def tri(x, y, z):
        return np.sqrt(
            fact[(-x + y + z) // 2] * fact[(x - y + z) // 2] * fact[(x + y - z) // 2]
            / fact[(x + y + z) // 2 + 1]
        )

    pref = tri(a, b, e) * tri(e, c, d) * tri(b, c, f) * tri(a, f, d)
    low = [(a + b + e) // 2, (e + c + d) // 2, (b + c + f) // 2, (a + f + d) // 2]
    high = [(a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2]
    z_min, z_max = np.maximum.reduce(low), np.minimum.reduce(high)
    total = np.zeros(len(keys))
    for z in range(z_min.min(), z_max.max() + 1):
        on = np.flatnonzero((z_min <= z) & (z <= z_max))
        den = fact[z - low[0][on]]
        for x in low[1:]:
            den = den * fact[z - x[on]]
        for x in high:
            den = den * fact[x[on] - z]
        total[on] += (-1.0) ** z * fact[z + 1] / den
    return (-1.0) ** ((a + b + c + d) // 2) * np.sqrt(qint[e + 1] * qint[f + 1]) * (pref * total)


def su2(k: int) -> CategoryData:
    """SU(2) level k, an integer >= 1: sectors j = 0, 1/2, ..., k/2."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise StructuralError(f"su2 catalog requires an integer level >= 1, got {k!r}")
    k = int(k)
    n = k + 1  # label index a corresponds to twice the spin
    labels = tuple(str(a // 2) if a % 2 == 0 else f"{a}/2" for a in range(n))
    dual = tuple(range(n))
    a, b, c = np.ogrid[:n, :n, :n]
    N = (abs(a - b) <= c) & (c <= a + b) & ((a + b + c) % 2 == 0) & (a + b + c <= 2 * k)
    ring = FusionRing(labels, dual, N.astype(np.int64))

    S = np.array(
        [
            [
                math.sqrt(2.0 / (k + 2)) * math.sin(math.pi * (a + 1) * (b + 1) / (k + 2))
                for b in range(n)
            ]
            for a in range(n)
        ],
        dtype=complex,
    )
    # conformal weights h_j = j(j+1)/(k+2) with a = 2j
    T = np.array([np.exp(2j * np.pi * (a * (a + 2) / 4.0) / (k + 2)) for a in range(n)])
    md = ModularData(ring, S, T)

    # spins: x(x+2)/4 = j(j+1) with x twice the spin; one scalar exp per entry,
    # since numpy's vectorized exp may round differently
    R = [
        (-1.0) ** ((a + b - c) // 2)
        * np.exp(1j * np.pi * ((c * (c + 2) - a * (a + 2) - b * (b + 2)) / 4.0) / (k + 2))
        for a, b, c in ring.r_key_array.tolist()
    ]
    F = _su2_f_values(ring.f_key_array, k)
    cat = CategoryPresentation(ring, (ring.f_key_array, F), (ring.r_key_array, R))
    c_charge = 3.0 * k / (k + 2)
    return CategoryData(f"su2_{k}", ring, md, cat, c_charge)


def catalog(name: str, level: int | None = None) -> CategoryData:
    """Look up a catalog category by name (and integer level, for su2 only)."""
    name = name.lower()
    if name in ("ising", "fibonacci"):
        if level is not None:
            raise StructuralError(f"the {name} catalog takes no level, got {level!r}")
        return ising() if name == "ising" else fibonacci()
    if name == "su2":
        return su2(level)
    raise StructuralError(f"unknown catalog {name!r}; choose from {CATALOG_NAMES}")
