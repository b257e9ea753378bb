"""Q-systems in coefficient form and the charged-intertwiner algebra.

A Q-system ``(theta, w, x)`` describes one (possibly non-local) chiral
extension.  ``theta`` is stored as a sector multiplicity vector, ``x`` as the
coefficient tensor ``lam[(p, q, r)]`` over summand slots of ``theta``
(vacuum slot fixed to index 0, unit entries carrying the ``d(theta)^-1/2``
prefactor), and ``w`` is the canonical isometry onto the vacuum summand.

The axioms are polynomials of degree at most 2 in ``lam``; ``_AxiomMap`` writes
them as a sparse quadratic map, which ``_axiom_map`` builds once per theta and
keeps on the presentation.  ``search_qsystems``, ``validate_qsystem``,
``charged_algebra`` and the isometry check of the induction maps read it.
``_dense``, the one checked reader of a Q-system, rejects a wrong-length or
over-bound theta before it builds theta^3, then a
``lam`` entry off the fusion channels; every map of ``lam`` takes its arrays, and
the tests check them all against a morphism calculus.  ``search_qsystems`` writes
the map as ``_RealForm``, real and quadratic in the free channels, and solves the
unit + associativity constraints from all randomized starts at once with
``least_squares``, a lockstep Levenberg-Marquardt iteration with Nielsen's damping
update.  It reports an explicit status and never silently drops a non-converged branch.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .category import CategoryPresentation
from .errors import DataInconsistencyError, StructuralError
from .rings import DEFAULT_TOL, check_integers

__all__ = [
    "QSystemSpec",
    "ChargedIntertwinerAlgebra",
    "SearchResult",
    "validate_qsystem",
    "frobenius_check",
    "is_local",
    "charged_algebra",
    "search_qsystems",
    "fingerprint",
    "trivial_qsystem",
    "car_qsystem",
    "regular_qsystem",
]


class QSystemSpec:
    """Multiplicity vector of theta plus the coefficient tensor of x.

    Theta entries and lambda keys must be integers (:func:`check_integers`;
    ``2.0`` counts, ``1.6`` is rejected, never truncated), each key a triple
    of summand slots, and lambda values finite numbers, Python or numpy, or
    construction raises StructuralError; a boolean, Python or numpy, is not a number.
    Theta is a tuple and ``lam`` a read-only mapping, so what a presentation
    keeps for a spec, such as its induction, cannot go stale.
    """

    def __init__(self, theta, lam: dict):
        theta = tuple(check_integers(theta, "theta entries").tolist())
        if not theta or theta[0] != 1:
            raise StructuralError("theta must have vacuum multiplicity exactly 1")
        if any(m < 0 for m in theta):
            raise StructuralError("theta multiplicities must be non-negative")
        nslots = sum(theta)
        clean = {}
        for key, val in lam.items():
            slots = check_integers(key, "lambda keys")
            if slots.shape != (3,):
                raise StructuralError(f"lambda key {key} must name 3 summand slots")
            p, q, r = slots.tolist()
            if not all(0 <= i < nslots for i in (p, q, r)):
                raise StructuralError(f"lambda key {key} out of slot range")
            if isinstance(val, (bool, np.bool_)) or not isinstance(val, numbers.Number):
                raise StructuralError(f"lambda value at {key} must be a number, got {val!r}")
            val = complex(val)
            if not np.isfinite(val):
                raise StructuralError(f"lambda value at {key} must be finite, got {val}")
            clean[(p, q, r)] = val
        self.theta = theta
        self.lam = MappingProxyType(clean)

    @cached_property
    def slots(self) -> tuple:
        """``(sector, copy)`` per summand; ``_dense`` rejects a wrong-length or over-bound theta before theta^3."""
        return tuple((s, copy) for s, mult in enumerate(self.theta) for copy in range(mult))

    @cached_property
    def sectors(self) -> np.ndarray:
        """The sector of each slot, ascending: the slot layout of every map of lambda."""
        sec = np.repeat(np.arange(len(self.theta)), self.theta)
        sec.setflags(write=False)
        return sec

    def sector(self, slot: int) -> int:
        return self.slots[slot][0]

    def d_theta(self, ring) -> float:
        return float(sum(m * ring.fp_dims[s] for s, m in enumerate(self.theta)))

    def __repr__(self):
        return f"QSystemSpec(theta={self.theta})"


def _dense(q: QSystemSpec, ring) -> tuple:
    """The slot sectors, and ``lam`` dense over slot triples once theta has the ring's length
    and keeps the bound; every key of ``lam``, even one valued 0, must be a fusion channel."""
    _require_bound(q.theta, ring)
    sec = q.sectors
    keys = np.array(list(q.lam), dtype=int).reshape(-1, 3)
    off = np.flatnonzero(ring.N[tuple(sec[keys].T)] == 0)
    if len(off):
        key = keys[off[0]]
        p, qq, r = sec[key]
        raise StructuralError(f"lambda entry {tuple(key.tolist())} has no fusion channel {p} x {qq} -> {r}")
    lam = np.zeros((len(sec),) * 3, dtype=complex)
    lam[tuple(keys.T)] = list(q.lam.values())
    return sec, lam


def _check_lambda(q: QSystemSpec, cat: CategoryPresentation) -> tuple:
    """``_dense(q, cat.ring)`` after checking that ``x* x = id``, the isometry axiom of ``_axiom_residuals``."""
    sec, lam = _dense(q, cat.ring)
    resid = _axiom_residuals(q, cat, lam)["isometry"]
    if resid > 1e-6:
        raise DataInconsistencyError(f"lambda does not define an isometry (residual {resid:.2e})")
    return sec, lam


def _scatter(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The sums of complex ``values`` at the indices ``at`` of a zero vector of ``size``."""
    return np.bincount(at, values.real, size) + 1j * np.bincount(at, values.imag, size)


class _AxiomMap:
    """The Q-system axioms at the theta of ``spec``, as a sparse quadratic map of lambda.

    ``lam`` is a vector over ``channels``, the admissible slot triples
    ``(p, q, r)`` with ``N[sec p, sec q, sec r] > 0`` in ascending order
    (``index`` is the position of each triple, -1 off them), and
    ``y = (lam, conj(lam), 1)``.  Each complex row is
    ``r0 + sum coef * y[i] * y[j]``.  The rows are the entries of the
    isometry, left-unit, right-unit and associativity residual morphisms, in
    fusion-tree layout: blocks by ascending charge, each row-major.
    """

    PARTS = ("isometry", "unit_left", "unit_right", "associativity")

    def __init__(self, cat: CategoryPresentation, spec: QSystemSpec):
        n, N = cat.ring.size, cat.ring.N > 0
        sec = spec.sectors
        adm = N[np.ix_(sec, sec, sec)]
        self.channels = list(map(tuple, np.argwhere(adm).tolist()))
        idx = self.index = np.full(adm.shape, -1)
        idx[adm] = np.arange(len(self.channels))
        bar, one = len(self.channels), 2 * len(self.channels)  # where conj(lam) and 1 sit in y
        scale = self.scale = spec.d_theta(cat.ring) ** -0.5
        on = sec == np.arange(n)[:, None]  # [c, t]: the slot t has sector c

        # isometry and unit rows: the slot pairs (a, b) of one sector c
        c, a, b = np.nonzero(on[:, :, None] & on[:, None, :])
        row, p, q = np.nonzero(np.moveaxis(adm[:, :, a], 2, 0))
        isometry = (c, -1.0 * (a == b), row, bar + idx[p, q, a[row]], idx[p, q, b[row]], 1)
        every = np.arange(len(c))
        unit_left = (c, -scale * (a == b), every, idx[0, a, b], one, 1)
        unit_right = (c, -scale * (a == b), every, idx[a, 0, b], one, 1)

        # associativity: (x (x) id) x - (id (x) x) x at the tree ((p), (q, e), (r, c)), slot t
        pqe, cer = N[sec][:, sec], N[:, sec].transpose(2, 0, 1)
        c, p, q, e, r, t = np.nonzero(
            pqe[None, :, :, :, None, None] & cer[:, None, None, :, :, None] & on[:, None, None, None, None, :]
        )
        row1, s1 = np.nonzero(on[e])  # x (x) id: the slots s of sector e
        row2, s2 = np.nonzero(N[sec[q][:, None], sec[r][:, None], sec] & N[sec[p][:, None], sec, c[:, None]])
        F = cat.f(sec[p[row2]], sec[q[row2]], sec[r[row2]], c[row2], e[row2], sec[s2])
        row = np.concatenate([row1, row2])
        first = np.argsort(row, kind="stable")  # per row, the x (x) id terms first
        i = np.concatenate([idx[p[row1], q[row1], s1], idx[q[row2], r[row2], s2]])
        j = np.concatenate([idx[s1, r[row1], t[row1]], idx[p[row2], s2, t[row2]]])
        coef = np.concatenate([np.ones(len(row1)), -np.conj(F)])
        associativity = (c, 0.0, row[first], i[first], j[first], coef[first])

        r0, block, terms = [], [], []
        for part, (c, const, row, i, j, coef) in enumerate((isometry, unit_left, unit_right, associativity)):
            terms.append(np.broadcast_arrays(row + sum(map(len, r0)), i, j, coef))
            r0.append(np.broadcast_to(const, c.shape))
            block.append(part * n + c)  # rows ascend by block: by axiom, then by charge
        self.row, self.i, self.j, coef = map(np.concatenate, zip(*terms))
        self.coef = coef.astype(complex)
        self.r0 = np.concatenate(r0).astype(complex)
        block = np.concatenate(block)
        ends = np.searchsorted(block, np.arange(len(self.PARTS) + 1) * n)  # the row offset after each axiom
        self.parts = dict(zip(self.PARTS, map(slice, ends, ends[1:])))
        # the search's real vector: per block, its real parts and then its imaginary parts
        self.order = np.argsort(np.r_[2 * block, 2 * block + 1], kind="stable")

    def rows(self, lam: np.ndarray) -> np.ndarray:
        """The complex residual rows at ``lam``."""
        y = np.concatenate([lam, lam.conj(), [1.0]])
        return self.r0 + _scatter(self.row, self.coef * (y[self.i] * y[self.j]), len(self.r0))


def _axiom_map(cat: CategoryPresentation, spec: QSystemSpec) -> _AxiomMap:
    """The axiom map at the theta of ``spec``, kept in ``cat.axiom_maps``; the
    first use checks the multiplicity bound and builds it."""
    if spec.theta not in cat.axiom_maps:
        _require_bound(spec.theta, cat.ring)
        cat.axiom_maps[spec.theta] = _AxiomMap(cat, spec)
    return cat.axiom_maps[spec.theta]


def _stacked_sums(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Per row of the stack ``values``, the sums of its entries at the indices ``at`` of a zero vector of ``size``."""
    at = at + size * np.arange(len(values))[:, None]
    return np.bincount(at.ravel(), values.ravel(), size * len(values)).reshape(len(values), size)


class _RealForm:
    """The rows of ``axioms`` as a real quadratic map ``c + L v + sum q v_a v_b`` of ``v``.

    The channels ``free`` vary, ``lam[free[k]] = v[2k] + i v[2k+1]``; the others
    keep ``lam0``.  The real rows are the real and imaginary parts of ``rows``
    in the order ``axioms.order``.  The merged terms ``(row, a, b, q)`` have
    ``a <= b``.  The methods map a stack of points, one per row."""

    def __init__(self, axioms: _AxiomMap, free: np.ndarray, lam0: np.ndarray):
        self.free, self.lam0 = free, lam0
        C, n, R = len(lam0), 2 * len(free), len(axioms.r0)
        # y = (lam, conj(lam), 1) is linear in u = (v, 1): y[k] = sum_s dy[k, s] u[var[k, s]]
        var, dy = np.full((2 * C + 1, 2), n), np.c_[np.r_[lam0, lam0.conj(), 1.0], np.zeros(2 * C + 1)]
        for at, unit in ((free, 1j), (C + free, -1j)):
            var[at], dy[at] = 2 * np.arange(len(free))[:, None] + [0, 1], [1.0, unit]
        # terms z u[a] u[b]: coef y[i] y[j] over the products of dy, and r0 at (a, b) = (n, n)
        z = np.r_[(axioms.coef[:, None, None] * dy[axioms.i][:, :, None] * dy[axioms.j][:, None, :]).ravel(), axioms.r0]
        a = np.r_[np.repeat(var[axioms.i], 2, axis=1).ravel(), np.full(R, n)]
        b = np.r_[np.tile(var[axioms.j], 2).ravel(), np.full(R, n)]
        row = np.argsort(axioms.order)[np.r_[np.repeat(axioms.row, 4), np.arange(R)][:, None] + [0, R]].T
        # the real rows take Re z and Im z; terms at equal (row, a, b) merge
        key = np.ravel_multi_index((row.ravel(), *np.tile(np.sort([a, b], axis=0), 2)), (2 * R, n + 1, n + 1))
        key, inv = np.unique(key, return_inverse=True)
        q = np.bincount(inv, np.r_[z.real, z.imag])
        row, a, b = np.unravel_index(key[q != 0], (2 * R, n + 1, n + 1))
        q, lin, quad = q[q != 0], (a < n) & (b == n), b < n
        self.c, self.L = np.zeros(2 * R), np.zeros((2 * R, n))
        self.c[row[a == n]], self.L[row[lin], a[lin]] = q[a == n], q[lin]
        self.row, self.a, self.b, self.q = row[quad], a[quad], b[quad], q[quad]
        # the Jacobian adds q v_b at the entry (row, a) and q v_a at (row, b)
        self.at, self.by = np.r_[self.row * n + self.a, self.row * n + self.b], np.r_[self.b, self.a]

    def lam(self, v: np.ndarray) -> np.ndarray:
        lam = np.repeat(self.lam0[None], len(v), axis=0)
        lam[:, self.free] = v[:, 0::2] + 1j * v[:, 1::2]
        return lam

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.c + v @ self.L.T + _stacked_sums(self.row, self.q * v[:, self.a] * v[:, self.b], len(self.c))

    def jacobian(self, v: np.ndarray) -> np.ndarray:
        quad = _stacked_sums(self.at, np.tile(self.q, 2) * v[:, self.by], self.L.size)
        return self.L + quad.reshape(len(v), *self.L.shape)


def _over_bound(theta, ring) -> dict:
    """``{sector: m}`` where theta breaks the multiplicity bound ``m_s <= floor(d_s)``
    (``ring.dim_floor``, at any tolerance); a theta whose length is not the ring's
    size is malformed."""
    if len(theta) != ring.size:
        raise StructuralError("theta length must equal the number of sectors")
    return {s: m for s, m in enumerate(theta) if m > ring.dim_floor[s]}


def _require_bound(theta, ring) -> None:
    """The one check of theta against the ring, before anything of size theta^3."""
    over = _over_bound(theta, ring)
    if over:
        s = min(over)
        raise StructuralError(f"theta violates the multiplicity bound at sector {s}: {over[s]} > floor(d_{s})")


def validate_qsystem(q: QSystemSpec, cat: CategoryPresentation, tol: float = DEFAULT_TOL) -> dict:
    """Residuals of the Q-system axioms; ``valid`` iff all below tolerance."""
    over = _over_bound(q.theta, cat.ring)
    if over:  # not a Q-system; the residuals would need all of theta^3
        return {**{f"bound_sector_{s}": float(m) for s, m in over.items()}, "valid": False}
    report = _axiom_residuals(q, cat, _dense(q, cat.ring)[1])
    return {**report, "valid": all(v < tol for v in report.values())}


def _axiom_residuals(q: QSystemSpec, cat: CategoryPresentation, lam: np.ndarray) -> dict:
    """The largest residual of each axiom, from ``lam`` as ``_dense`` returns it."""
    axioms = _axiom_map(cat, q)
    z = np.abs(axioms.rows(lam[axioms.index >= 0]))
    return {name: float(np.max(z[part], initial=0.0)) for name, part in axioms.parts.items()}


def frobenius_check(q: QSystemSpec, cat: CategoryPresentation) -> float:
    """Residual of ``x x* = (id (x) x*) (x (x) id)`` (implied in the C* setting).

    Both sides map ``theta theta -> theta theta``; ``s t`` is the sector of
    the slot ``t``.  At the charge ``c``, the entry at the slot pairs
    ``(a, b)`` and ``(p, r)`` is

        ``sum_{t: s t = c} lam[a,b,t] conj(lam[p,r,t])
          - sum_u lam[a,u,p] conj(lam[u,r,b]) F[s a, s u, s r, c, s p, s b]``,

    with F read as 0 off its admissible keys; an entry off the pairs that fuse
    to ``c`` is 0 on both sides.  The residual is the largest modulus.
    """
    ring = cat.ring
    sec, lam = _dense(q, ring)
    F = cat.f(*np.ix_(sec, sec, sec, np.arange(ring.size), sec, sec))  # [a, u, r, c, p, b]
    charge = (sec[:, None] == np.arange(ring.size)).astype(float)  # [t, c]
    lhs = np.einsum("abt,prt,tc->cabpr", lam, lam.conj(), charge)
    rhs = np.einsum("aup,urb,aurcpb->cabpr", lam, lam.conj(), F)
    return float(np.max(np.abs(lhs - rhs)))


def is_local(q: QSystemSpec, cat: CategoryPresentation, tol: float = DEFAULT_TOL):
    """Chiral locality test ``eps(theta, theta) x = x``; returns (bool, residual).

    The braiding moves ``lam[a, b, c]`` to the tree of ``lam[b, a, c]``, times
    ``R[sec a, sec b, sec c]``; off the fusion channels both sides are 0.
    """
    sec, lam = _dense(q, cat.ring)
    resid = float(np.max(np.abs(cat.R[np.ix_(sec, sec, sec)] * lam - lam.transpose(1, 0, 2))))
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
    res = _axiom_residuals(q, cat, _dense(q, cat.ring)[1])
    dth = q.d_theta(cat.ring)
    root = math.sqrt(dth)
    unit = root * max(res["unit_left"], res["unit_right"])
    if unit > 1e-6:
        raise DataInconsistencyError(f"unit constraint fails (residual {unit:.2e})")
    worst_assoc = dth * res["associativity"]
    worst_sum = dth * res["isometry"]
    if worst_assoc > 1e3 * tol or worst_sum > 1e3 * tol:
        raise DataInconsistencyError(
            f"charged-intertwiner relations fail "
            f"(associativity {worst_assoc:.2e}, completeness {worst_sum:.2e})"
        )
    return ChargedIntertwinerAlgebra(
        sectors=tuple(q.sectors.tolist()),
        gamma={key: root * val for key, val in q.lam.items()},
        d_theta=dth,
        associativity_residual=worst_assoc,
        completeness_residual=worst_sum,
    )


def fingerprint(q: QSystemSpec, cat: CategoryPresentation):
    """Gauge-invariant fingerprint of the Gamma tensor.

    For each sector triple ``(a, b, c)``, the Gamma entries over
    multiplicity copies form a 3-tensor; a gauge rotation acts by one unitary
    per sector on each mode, so the mode-wise Gram spectra are invariant, and
    so is the exchange ``sum_ijk Gamma_abc[i,j,k] conj(Gamma_bac[j,i,k])``.
    The spectra alone cannot tell Q-systems whose Gamma differ only by phases
    (the two cocycle classes of the Z2 x Z2 algebra); the exchange can.  For
    multiplicity-free theta the spectra reduce to the channel moduli (squared).
    """
    _require_bound(q.theta, cat.ring)
    keys = np.array(list(q.lam), dtype=int).reshape(-1, 3)
    return _fingerprints(q, keys, np.array([list(q.lam.values())]), q.d_theta(cat.ring))[0]


def _fingerprints(q: QSystemSpec, keys: np.ndarray, lams: np.ndarray, d_theta: float) -> list:
    """``fingerprint`` of each row of ``lams``, lambda at the slot triples ``keys`` of
    ``q``; per sector triple and mode, one stacked Gram matrix and eigensolve serve all rows."""
    m, start, items = len(lams), np.cumsum((0, *q.theta)), []
    G = np.zeros((m, *(start[-1],) * 3), dtype=complex)  # Gamma over the slot triples
    G[(slice(None), *keys.T)] = math.sqrt(d_theta) * lams
    span = [slice(start[s], start[s + 1]) for s in range(len(q.theta))]  # the slots of each sector
    for a, b, c in sorted(set(map(tuple, q.sectors[keys].tolist()))):
        T = G[:, span[a], span[b], span[c]]
        grams = (np.einsum(f"mijk,{other}", T, T.conj()) for other in ("mljk->mil", "milk->mjl", "mijl->mkl"))
        spectra = zip(*(np.linalg.eigvalsh(gram).tolist() for gram in grams))  # per mode: T T^H over the others
        z = np.einsum("mjik,mijk->m", G[:, span[b], span[a], span[c]].conj(), T)
        live = np.max(np.abs(T), axis=(1, 2, 3)) > 1e-6
        # + 0.0 turns a rounded -0.0 into 0.0, so reports do not carry the sign of noise
        items.append([
            ((a, b, c), tuple(tuple(round(e, 6) for e in eigs) for eigs in s), (round(x, 6) + 0.0, round(y, 6) + 0.0))
            if on else None
            for s, x, y, on in zip(spectra, z.real.tolist(), z.imag.tolist(), live.tolist())
        ])
    return [tuple(filter(None, row)) for row in zip(*items)] if items else [()] * m


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
    return QSystemSpec(theta, dict.fromkeys([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], inv))


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


_Fit = namedtuple("_Fit", "x fun status nfev")  # per start
STOP_TOL = 1e-14  # MINPACK's xtol, ftol and gtol in least_squares
DEFAULT_STARTS = 24  # randomized starts of search_qsystems and of `bcft qsearch`


def least_squares(fun, x0, jac) -> _Fit:
    """Minimize ``|fun(x)|^2`` by Levenberg-Marquardt from each row of the ``(m, n)`` stack ``x0``.

    ``fun`` and ``jac`` map a stack of points to its residuals and Jacobians;
    the starts run in lockstep, each until its first stopping test.  A step
    solves ``(J^T J + mu I) h = -J^T f``; ``mu`` starts at ``1e-3 max diag(J^T J)``
    and follows Nielsen's update (IMM-REP-1999-05): an accepted step with gain
    ratio ``rho`` scales it by ``max(1/3, 1 - (2 rho - 1)^3)``, a rejected one
    by ``nu``, which doubles on every rejection in a row.  The stopping tests
    are MINPACK's (More, LNM 630) with ``xtol = ftol = gtol = STOP_TOL``, by
    status: 1, every column of ``J`` within angle cosine ``gtol`` of orthogonal
    to ``f``; 2, an accepted step whose actual and predicted relative reductions
    of ``|f|^2`` are both at most ``ftol``; 3, a step no longer than
    ``xtol (|x| + xtol)``.  Status 0 means ``max(100 n, 1)`` steps did not
    converge; ``nfev`` counts evaluations of ``fun``.
    """
    x = np.array(x0, dtype=float)
    m, n = x.shape
    f, J = fun(x), jac(x)
    cost, A, g = np.einsum("ij,ij->i", f, f), J.transpose(0, 2, 1) @ J, np.einsum("mri,mr->mi", J, f)
    mu, nu = 1e-3 * np.max(np.diagonal(A, axis1=1, axis2=2), axis=1, initial=0.0), np.full(m, 2.0)
    status, nfev, act = np.zeros(m, dtype=int), np.ones(m, dtype=int), np.arange(m)
    for _ in range(max(100 * n, 1)):
        scale = np.sqrt(cost[act, None] * np.diagonal(A[act], axis1=1, axis2=2))
        done = (cost[act] == 0) | np.all(np.abs(g[act]) <= STOP_TOL * scale, axis=1)
        status[act[done]], act = 1, act[~done]
        if not len(act):
            break
        h = np.linalg.solve(A[act] + mu[act, None, None] * np.eye(n), -g[act][..., None])[..., 0]
        done = np.linalg.norm(h, axis=1) <= STOP_TOL * (np.linalg.norm(x[act], axis=1) + STOP_TOL)
        status[act[done]], act, h = 3, act[~done], h[~done]
        f_new = fun(x[act] + h)
        nfev[act] += 1
        cost_new = np.einsum("ij,ij->i", f_new, f_new)
        predicted = np.einsum("ij,ij->i", h, mu[act, None] * h - g[act])
        rho = (cost[act] - cost_new) / predicted
        up, ok = ~(rho > 0), rho > 0  # a worse or non-finite residual raises mu
        mu[act[up]], nu[act[up]] = mu[act[up]] * nu[act[up]], 2 * nu[act[up]]
        acc = act[ok]
        small = (cost[acc] - cost_new[ok] <= STOP_TOL * cost[acc]) & (predicted[ok] <= STOP_TOL * cost[acc])
        x[acc], f[acc], cost[acc] = x[acc] + h[ok], f_new[ok], cost_new[ok]
        status[acc[small]], grow = 2, acc[~small]
        J = jac(x[grow])
        A[grow], g[grow] = J.transpose(0, 2, 1) @ J, np.einsum("mri,mr->mi", J, f[grow])
        mu[grow], nu[grow] = mu[grow] * np.maximum(1 / 3, 1 - (2 * rho[ok][~small] - 1) ** 3), 2.0
        ok[ok] = ~small
        act = act[up | ok]
    return _Fit(x, f, status, nfev)


@dataclass
class SearchResult:
    solutions: list
    status: str  # "ok" or "inconclusive"
    best_residual: float
    fingerprints: tuple = field(default_factory=tuple)
    starts: list = field(default_factory=list)  # (status, evaluations, final residual) per start


def search_qsystems(
    cat: CategoryPresentation, theta, n_starts: int = DEFAULT_STARTS, seed: int = 0, tol: float = DEFAULT_TOL
) -> SearchResult:
    """Best-effort search for all Q-systems with the given theta, up to gauge."""
    spec = QSystemSpec(theta, {})
    if n_starts < 1:
        raise StructuralError(f"the search needs at least one start, got {n_starts}")
    axioms = _axiom_map(cat, spec)
    channels = np.array(axioms.channels)
    p, q, r = channels.T
    unit = ((p == 0) & (q == r)) | ((q == 0) & (p == r))
    free = (p > 0) & (q > 0)  # the unit laws fix the rest
    form = _RealForm(axioms, np.flatnonzero(free), np.where(unit, axioms.scale + 0j, 0j))
    rngs = (np.random.default_rng((seed, i)) for i in range(n_starts))
    x0 = np.array([rng.normal(scale=1.0 if i else 0.5, size=2 * free.sum()) for i, rng in enumerate(rngs)])
    fit = least_squares(form, x0, jac=form.jacobian)
    final = np.max(np.abs(fit.fun), axis=1)
    keys, lams = channels[unit | free], form.lam(fit.x[final < tol])[:, unit | free]
    fps = _fingerprints(spec, keys, lams, spec.d_theta(cat.ring))
    found = dict(zip(fps[::-1], lams[::-1]))  # fingerprint -> lambda of the first start with it
    prints = tuple(sorted(found))
    solutions = [QSystemSpec(spec.theta, dict(zip(map(tuple, keys.tolist()), found[fp]))) for fp in prints]
    best, starts = float(np.min(final)), list(zip(fit.status.tolist(), fit.nfev.tolist(), final.tolist()))
    status = "inconclusive" if not solutions and (best < 1e-3 or np.any(fit.status == 0)) else "ok"
    return SearchResult(solutions, status, best, prints, starts)
