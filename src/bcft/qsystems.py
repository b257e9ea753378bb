"""Q-systems in coefficient form and the charged-intertwiner algebra.

A Q-system ``(theta, w, x)`` describes one (possibly non-local) chiral
extension.  ``theta`` is stored as a sector multiplicity vector, ``x`` as the
coefficient tensor ``lam[(p, q, r)]`` over summand slots of ``theta``
(vacuum slot fixed to index 0, unit entries carrying the ``d(theta)^-1/2``
prefactor), and ``w`` is the canonical isometry onto the vacuum summand.

``search_qsystems`` solves the unit + associativity constraints numerically
by randomized multi-start least squares and reports an explicit status; it
never silently drops a non-converged branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import least_squares

from .category import CategoryPresentation, Morphism, braiding, compose, identity, tensor
from .errors import DataInconsistencyError, StructuralError
from .rings import DEFAULT_TOL
from .words import Word, sum_word, tree_index

__all__ = [
    "QSystemSpec",
    "ChargedIntertwinerAlgebra",
    "SearchResult",
    "assemble_x",
    "unit_morphism",
    "validate_qsystem",
    "frobenius_check",
    "is_local",
    "charged_algebra",
    "search_qsystems",
    "gauge_transform",
    "fingerprint",
    "trivial_qsystem",
    "car_qsystem",
    "regular_qsystem",
]


class QSystemSpec:
    """Multiplicity vector of theta plus the coefficient tensor of x."""

    def __init__(self, theta, lam: dict):
        theta = tuple(int(m) for m in theta)
        if not theta or theta[0] != 1:
            raise StructuralError("theta must have vacuum multiplicity exactly 1")
        if any(m < 0 for m in theta):
            raise StructuralError("theta multiplicities must be non-negative")
        nslots = sum(theta)
        clean = {}
        for key, val in lam.items():
            p, q, r = (int(i) for i in key)
            if not all(0 <= i < nslots for i in (p, q, r)):
                raise StructuralError(f"lambda key {key} out of slot range")
            clean[(p, q, r)] = complex(val)
        self.theta = theta
        self.lam = clean

    @cached_property
    def slots(self) -> tuple:
        """``(sector, copy)`` per summand of theta; built on first use, so an
        oversized theta is rejected by the multiplicity bound before it exists."""
        return tuple((s, copy) for s, mult in enumerate(self.theta) for copy in range(mult))

    @property
    def size(self) -> int:
        return len(self.slots)

    def sector(self, slot: int) -> int:
        return self.slots[slot][0]

    def theta_word(self) -> Word:
        return sum_word(self.theta)

    def d_theta(self, ring) -> float:
        return float(sum(m * ring.fp_dims[s] for s, m in enumerate(self.theta)))

    def __repr__(self):
        return f"QSystemSpec(theta={self.theta})"


def unit_morphism(q: QSystemSpec, cat: CategoryPresentation) -> Morphism:
    """The isometry w onto the vacuum summand of theta."""
    return Morphism(cat, Word(), q.theta_word(), {0: np.array([[1.0]])})


def assemble_x(q: QSystemSpec, cat: CategoryPresentation, require_isometry: bool = True) -> Morphism:
    """Coefficient tensor -> morphism ``x: theta -> theta theta``."""
    ring = cat.ring
    th = q.theta_word()
    word2 = th + th
    for (p, qq, r) in q.lam:
        if not ring.N[q.sector(p), q.sector(qq), q.sector(r)]:
            raise StructuralError(
                f"lambda entry {(p, qq, r)} has no fusion channel "
                f"{q.sector(p)} x {q.sector(qq)} -> {q.sector(r)}"
            )
    blocks = {}
    for c in range(ring.size):
        cols = [i for i, (s, _) in enumerate(q.slots) if s == c]
        tidx = tree_index(ring, word2, c)
        blk = np.zeros((len(tidx), len(cols)), dtype=complex)
        for (p, qq, r), val in q.lam.items():
            if q.sector(r) != c:
                continue
            tree = ((p, q.sector(p)), (qq, c))
            blk[tidx[tree], cols.index(r)] = val
        blocks[c] = blk
    x = Morphism(cat, th, word2, blocks)
    if require_isometry:
        resid = compose(x.dagger(), x).residual(identity(cat, th))
        if resid > 1e-6:
            raise DataInconsistencyError(
                f"lambda does not define an isometry (residual {resid:.2e})"
            )
    return x


def _qsystem_residuals(q: QSystemSpec, cat: CategoryPresentation):
    """Isometry, unit-law and associativity residual morphisms."""
    ring = cat.ring
    th = q.theta_word()
    x = assemble_x(q, cat, require_isometry=False)
    w = unit_morphism(q, cat)
    id_th = identity(cat, th)
    dth = q.d_theta(ring)
    scale = dth ** -0.5

    iso = compose(x.dagger(), x) - id_th
    unit_left = compose(tensor(w.dagger(), id_th), x) - scale * id_th
    unit_right = compose(tensor(id_th, w.dagger()), x) - scale * id_th
    assoc = compose(tensor(x, id_th), x) - compose(tensor(id_th, x), x)
    return iso, unit_left, unit_right, assoc


def _over_bound(theta, ring, tol) -> dict:
    """``{sector: m}`` where theta breaks the multiplicity bound ``m_s <= floor(d_s)``.

    A theta whose length is not the ring's size is malformed.
    """
    if len(theta) != ring.size:
        raise StructuralError("theta length must equal the number of sectors")
    return {s: m for s, m in enumerate(theta) if m > math.floor(ring.fp_dims[s] + tol)}


def _require_bound(theta, ring, tol) -> None:
    over = _over_bound(theta, ring, tol)
    if over:
        s = min(over)
        raise StructuralError(
            f"theta violates the multiplicity bound at sector {s}: {over[s]} > floor(d_{s})"
        )


def validate_qsystem(q: QSystemSpec, cat: CategoryPresentation, tol: float = DEFAULT_TOL) -> dict:
    """Residuals of the Q-system axioms; ``valid`` iff all below tolerance."""
    over = _over_bound(q.theta, cat.ring, tol)
    if over:  # not a Q-system; the residuals would need all of theta^3
        return {**{f"bound_sector_{s}": float(m) for s, m in over.items()}, "valid": False}
    iso, ul, ur, assoc = (m.norm_inf() for m in _qsystem_residuals(q, cat))
    report = {"isometry": iso, "unit_left": ul, "unit_right": ur, "associativity": assoc}
    report["valid"] = all(v < tol for v in report.values())
    return report


def frobenius_check(q: QSystemSpec, cat: CategoryPresentation) -> float:
    """Residual of ``x x* = (id (x) x*) (x (x) id)`` (implied in the C* setting)."""
    th = q.theta_word()
    x = assemble_x(q, cat, require_isometry=False)
    id_th = identity(cat, th)
    lhs = compose(x, x.dagger())
    rhs = compose(tensor(id_th, x.dagger()), tensor(x, id_th))
    return lhs.residual(rhs)


def is_local(q: QSystemSpec, cat: CategoryPresentation, tol: float = DEFAULT_TOL):
    """Chiral locality test ``eps(theta, theta) x = x``; returns (bool, residual)."""
    th = q.theta_word()
    x = assemble_x(q, cat, require_isometry=False)
    resid = compose(braiding(cat, th, th), x).residual(x)
    return resid < tol, resid


@dataclass
class ChargedIntertwinerAlgebra:
    """Structure constants of the charged intertwiners of the extension."""

    sectors: tuple  # sector label of each summand slot
    gamma: dict  # (i, j, k) -> complex, Gamma^k_{ij}
    d_theta: float
    associativity_residual: float
    completeness_residual: float  # the sum rule sum_ij Gamma*Gamma = d(theta) delta


def charged_algebra(q: QSystemSpec, cat: CategoryPresentation, tol: float = DEFAULT_TOL) -> ChargedIntertwinerAlgebra:
    """Extract ``Gamma^k_{ij} = sqrt(d(theta)) lam`` and verify the algebra relations.

    They are the Q-system axioms rescaled: associativity by ``d(theta)``, the
    completeness sum rule ``sum_ij Gamma*Gamma = d(theta) delta`` is
    ``d(theta)`` times the isometry residual, and the unit laws
    ``Gamma^k_{0j} = Gamma^k_{j0} = delta_jk`` are ``sqrt(d(theta))`` times
    the unit residuals.
    """
    ring = cat.ring
    _require_bound(q.theta, ring, tol)
    dth = q.d_theta(ring)
    root = math.sqrt(dth)
    iso, unit_left, unit_right, assoc = (m.norm_inf() for m in _qsystem_residuals(q, cat))
    unit = root * max(unit_left, unit_right)
    if unit > 1e-6:
        raise DataInconsistencyError(f"unit constraint fails (residual {unit:.2e})")
    worst_assoc = dth * assoc
    worst_sum = dth * iso
    if worst_assoc > 1e3 * tol or worst_sum > 1e3 * tol:
        raise DataInconsistencyError(
            f"charged-intertwiner relations fail "
            f"(associativity {worst_assoc:.2e}, completeness {worst_sum:.2e})"
        )
    return ChargedIntertwinerAlgebra(
        sectors=tuple(s for s, _copy in q.slots),
        gamma={key: root * val for key, val in q.lam.items()},
        d_theta=dth,
        associativity_residual=worst_assoc,
        completeness_residual=worst_sum,
    )


def gauge_transform(q: QSystemSpec, unitaries: dict) -> QSystemSpec:
    """Rotate the multiplicity space of each sector by a unitary.

    ``unitaries[s]`` is an ``n_s x n_s`` unitary; the vacuum block must be 1.
    """
    slot_of = {}
    for idx, (s, copy) in enumerate(q.slots):
        slot_of[(s, copy)] = idx
    U = {}
    for s, m in enumerate(q.theta):
        if m == 0:
            continue
        u = np.asarray(unitaries.get(s, np.eye(m)), dtype=complex)
        if u.shape != (m, m):
            raise StructuralError(f"gauge unitary for sector {s} must be {m}x{m}")
        U[s] = u
    if abs(U.get(0, np.eye(1))[0, 0] - 1.0) > 1e-12:
        raise StructuralError("gauge must fix the vacuum summand")
    new_lam: dict = {}
    for (p, qq, r), val in q.lam.items():
        sp, cp = q.slots[p]
        sq, cq = q.slots[qq]
        sr, cr = q.slots[r]
        for cp2 in range(q.theta[sp]):
            for cq2 in range(q.theta[sq]):
                for cr2 in range(q.theta[sr]):
                    coef = (
                        U[sp][cp2, cp]
                        * U[sq][cq2, cq]
                        * np.conj(U[sr][cr2, cr])
                        * val
                    )
                    if coef == 0.0:
                        continue
                    key = (slot_of[(sp, cp2)], slot_of[(sq, cq2)], slot_of[(sr, cr2)])
                    new_lam[key] = new_lam.get(key, 0.0) + coef
    return QSystemSpec(q.theta, {k: v for k, v in new_lam.items() if abs(v) > 1e-15})


def fingerprint(q: QSystemSpec, cat: CategoryPresentation, digits: int = 6):
    """Gauge-invariant fingerprint of the Gamma tensor.

    For each sector triple, the Gamma entries over multiplicity copies form
    a 3-tensor; a gauge rotation acts by one unitary per sector on each
    mode, so the mode-wise Gram spectra are invariant.  For multiplicity-free
    theta this reduces to the channel moduli (squared).
    """
    dth = q.d_theta(cat.ring)
    copies: dict[int, list[int]] = {}
    for slot, (s, _copy) in enumerate(q.slots):
        copies.setdefault(s, []).append(slot)
    triples: dict[tuple, np.ndarray] = {}
    for (p, qq, r), v in q.lam.items():
        key = (q.sector(p), q.sector(qq), q.sector(r))
        T = triples.get(key)
        if T is None:
            shape = (len(copies[key[0]]), len(copies[key[1]]), len(copies[key[2]]))
            T = triples.setdefault(key, np.zeros(shape, dtype=complex))
        i = copies[key[0]].index(p)
        j = copies[key[1]].index(qq)
        k = copies[key[2]].index(r)
        T[i, j, k] = math.sqrt(dth) * v
    items = []
    for key in sorted(triples):
        T = triples[key]
        if np.max(np.abs(T)) <= 10 ** (-digits):
            continue
        spectra = []
        for mode in range(3):
            M = np.moveaxis(T, mode, 0).reshape(T.shape[mode], -1)
            eigs = np.linalg.eigvalsh(M @ M.conj().T)
            spectra.append(tuple(round(float(e), digits) for e in sorted(eigs)))
        items.append((key, tuple(spectra)))
    return tuple(items)


# -- catalog Q-systems -------------------------------------------------------


def trivial_qsystem(cat: CategoryPresentation) -> QSystemSpec:
    """theta = vacuum only; x is the scalar 1."""
    theta = [0] * cat.ring.size
    theta[0] = 1
    return QSystemSpec(theta, {(0, 0, 0): 1.0})


def car_qsystem(cat: CategoryPresentation) -> QSystemSpec:
    """The Fermi extension of the Ising category: theta = 1 (+) psi.

    Sector index 2 must be the dimension-1 fermion with eps(psi,psi) = -1.
    """
    if cat.ring.size != 3:
        raise StructuralError("car_qsystem expects the Ising category")
    inv = 1.0 / math.sqrt(2.0)
    theta = [1, 0, 1]
    lam = {
        (0, 0, 0): inv,
        (0, 1, 1): inv,
        (1, 0, 1): inv,
        (1, 1, 0): inv,
    }
    return QSystemSpec(theta, lam)


def regular_qsystem(cat: CategoryPresentation) -> QSystemSpec:
    """The Fibonacci algebra theta = 1 (+) tau (tau-bar tau in regular form)."""
    if cat.ring.size != 2:
        raise StructuralError("regular_qsystem expects the Fibonacci category")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    inv = 1.0 / (phi)  # d(theta)^{-1/2} with d(theta) = phi^2
    lam = {
        (0, 0, 0): inv,
        (0, 1, 1): inv,
        (1, 0, 1): inv,
        (1, 1, 0): 1.0 / math.sqrt(phi),
        (1, 1, 1): phi ** -1.5,
    }
    return QSystemSpec([1, 1], lam)


# -- numeric search ----------------------------------------------------------


@dataclass
class SearchResult:
    solutions: list
    status: str  # "ok" or "inconclusive"
    best_residual: float
    fingerprints: tuple = field(default_factory=tuple)


def _free_channels(q_template: QSystemSpec, cat: CategoryPresentation):
    """Admissible lambda channels that are not fixed by the unit laws."""
    ring = cat.ring
    chans = []
    n = q_template.size
    for p in range(n):
        for qq in range(n):
            for r in range(n):
                if not ring.N[q_template.sector(p), q_template.sector(qq), q_template.sector(r)]:
                    continue
                if p == 0 or qq == 0:
                    continue
                chans.append((p, qq, r))
    return chans


def _unit_entries(q_template: QSystemSpec, cat: CategoryPresentation):
    dth = q_template.d_theta(cat.ring)
    scale = dth ** -0.5
    lam = {}
    n = q_template.size
    for r in range(n):
        lam[(0, r, r)] = scale
        if r != 0:
            lam[(r, 0, r)] = scale
    return lam


def search_qsystems(
    cat: CategoryPresentation,
    theta,
    n_starts: int = 24,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SearchResult:
    """Best-effort search for all Q-systems with the given theta, up to gauge."""
    theta = tuple(int(m) for m in theta)
    _require_bound(theta, cat.ring, tol)
    template = QSystemSpec(theta, {(0, 0, 0): 1.0})
    fixed = _unit_entries(template, cat)
    free = _free_channels(template, cat)
    nfree = len(free)

    def build(vec: np.ndarray) -> QSystemSpec:
        lam = dict(fixed)
        for idx, ch in enumerate(free):
            val = vec[2 * idx] + 1j * vec[2 * idx + 1]
            lam[ch] = lam.get(ch, 0.0) + val
        return QSystemSpec(theta, lam)

    def residual_vec(vec: np.ndarray) -> np.ndarray:
        qq = build(vec)
        parts = []
        for morph in _qsystem_residuals(qq, cat):
            for blk in morph.blocks.values():
                if blk.size:
                    parts.append(blk.real.ravel())
                    parts.append(blk.imag.ravel())
        return np.concatenate(parts) if parts else np.zeros(1)

    if nfree == 0:
        qq = build(np.zeros(0))
        rep = validate_qsystem(qq, cat, tol)
        sols = [qq] if rep["valid"] else []
        return SearchResult(
            sols, "ok", 0.0 if sols else np.inf,
            tuple(fingerprint(s, cat) for s in sols),
        )

    method = "lm" if residual_vec(np.zeros(2 * nfree)).size >= 2 * nfree else "trf"

    found = {}  # fingerprint -> first solution with it
    best = np.inf
    any_nonconverged = False
    for i in range(n_starts):
        rng = np.random.default_rng((seed, i))
        x0 = rng.normal(scale=1.0 if i else 0.5, size=2 * nfree)
        res = least_squares(residual_vec, x0, method=method, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        final = float(np.max(np.abs(res.fun)))
        best = min(best, final)
        if res.status <= 0:
            any_nonconverged = True
        if final < tol:
            qq = build(res.x)
            found.setdefault(fingerprint(qq, cat), qq)
    prints = tuple(sorted(found))
    solutions = [found[fp] for fp in prints]
    status = "ok"
    if not solutions and (best < 1e-3 or any_nonconverged):
        status = "inconclusive"
    return SearchResult(solutions, status, best, prints)
