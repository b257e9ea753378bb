"""Q-systems in coefficient form and the charged-intertwiner algebra.

A Q-system ``(theta, w, x)`` describes one (possibly non-local) chiral
extension.  ``theta`` is stored as a sector multiplicity vector, ``x`` as the
coefficient tensor ``lam[(p, q, r)]`` over summand slots of ``theta``
(vacuum slot fixed to index 0, unit entries carrying the ``d(theta)^-1/2``
prefactor), and ``w`` is the canonical isometry onto the vacuum summand.

The axioms are polynomials of degree at most 2 in ``lam``; ``_AxiomMap`` writes
them once per theta as a sparse quadratic map, which ``validate_qsystem`` (and
through it ``charged_algebra``) and ``search_qsystems`` evaluate, together
with its exact Jacobian, which is linear in ``lam``.  ``_dense`` is the one
checked reader of ``lam``; ``is_local`` and ``frobenius_check`` work on its
dense array, and the tests check all of them against a morphism calculus.
``search_qsystems`` solves the unit + associativity constraints from
randomized starts with ``least_squares``, a Levenberg-Marquardt iteration on
that Jacobian with Nielsen's damping update, and reports an explicit status;
it never silently drops a non-converged branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .category import CategoryPresentation
from .errors import DataInconsistencyError, StructuralError
from .rings import DEFAULT_TOL

__all__ = [
    "QSystemSpec",
    "ChargedIntertwinerAlgebra",
    "SearchResult",
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

    def sector(self, slot: int) -> int:
        return self.slots[slot][0]

    def d_theta(self, ring) -> float:
        return float(sum(m * ring.fp_dims[s] for s, m in enumerate(self.theta)))

    def __repr__(self):
        return f"QSystemSpec(theta={self.theta})"


def _dense(q: QSystemSpec, ring) -> tuple:
    """The sector of each slot, and ``lam`` as a dense array over slot triples;
    every key of ``lam``, even one valued 0, must be a fusion channel of ``ring``."""
    sec = np.array([s for s, _copy in q.slots])
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
    """``_dense(q, cat.ring)`` after checking that ``x* x = id``.

    ``x* x`` is block diagonal over charge: its entry at two slots ``(a, b)``
    of one sector is ``sum_{p,q} conj(lam[p,q,a]) lam[p,q,b]``.
    """
    sec, lam = _dense(q, cat.ring)
    gram = np.einsum("pqa,pqb->ab", lam.conj(), lam) - np.eye(len(sec))
    resid = float(np.max(np.abs(gram[sec[:, None] == sec])))
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
        sec = np.array([s for s, _copy in spec.slots])  # ascending
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

    def jacobian(self, lam: np.ndarray) -> np.ndarray:
        """``d rows / d y`` at ``y = (lam, conj(lam), 1)``, one column per entry of ``y``.

        A term ``coef * y[i] * y[j]`` puts ``coef * y[j]`` at column ``i`` and
        ``coef * y[i]`` at column ``j`` of its row.
        """
        y = np.concatenate([lam, lam.conj(), [1.0]])
        shape = (len(self.r0), len(y))
        at = np.concatenate([self.row * shape[1] + self.i, self.row * shape[1] + self.j])
        values = np.concatenate([self.coef * y[self.j], self.coef * y[self.i]])
        return _scatter(at, values, shape[0] * shape[1]).reshape(shape)

    def norms(self, lam: np.ndarray) -> dict:
        """Largest residual modulus of each axiom."""
        z = np.abs(self.rows(lam))
        return {name: float(np.max(z[part], initial=0.0)) for name, part in self.parts.items()}


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
    _, lam = _dense(q, cat.ring)
    axioms = _AxiomMap(cat, q)
    report = axioms.norms(lam[axioms.index >= 0])
    report["valid"] = all(v < tol for v in report.values())
    return report


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
    _require_bound(q.theta, ring, DEFAULT_TOL)
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
    _require_bound(q.theta, cat.ring, tol)
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
    ring = cat.ring
    _require_bound(q.theta, ring, tol)
    dth = q.d_theta(ring)
    root = math.sqrt(dth)
    res = validate_qsystem(q, cat, tol)
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
    start = np.cumsum((0,) + q.theta)
    U = np.zeros((start[-1],) * 2, dtype=complex)  # block diagonal over the slots of each sector
    for s, m in enumerate(q.theta):
        if m:
            u = np.asarray(unitaries.get(s, np.eye(m)), dtype=complex)
            if u.shape != (m, m):
                raise StructuralError(f"gauge unitary for sector {s} must be {m}x{m}")
            U[start[s] : start[s] + m, start[s] : start[s] + m] = u
    if abs(U[0, 0] - 1.0) > 1e-12:
        raise StructuralError("gauge must fix the vacuum summand")
    lam = np.zeros((len(U),) * 3, dtype=complex)
    for key, val in q.lam.items():
        lam[key] = val
    lam = np.einsum("ap,bq,cr,pqr->abc", U, U, U.conj(), lam)
    return QSystemSpec(q.theta, {key: lam[key] for key in map(tuple, np.argwhere(np.abs(lam) > 1e-15).tolist())})


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
    dth = q.d_theta(cat.ring)
    triples: dict[tuple, np.ndarray] = {}  # (sector triple) -> Gamma over the copies
    for (p, qq, r), v in q.lam.items():
        (a, i), (b, j), (c, k) = q.slots[p], q.slots[qq], q.slots[r]
        shape = (q.theta[a], q.theta[b], q.theta[c])
        triples.setdefault((a, b, c), np.zeros(shape, dtype=complex))[i, j, k] = math.sqrt(dth) * v
    items = []
    for (a, b, c), T in sorted(triples.items()):
        if np.max(np.abs(T)) <= 1e-6:
            continue
        spectra = []
        for mode in range(3):
            M = np.moveaxis(T, mode, 0).reshape(T.shape[mode], -1)
            eigs = np.linalg.eigvalsh(M @ M.conj().T)
            spectra.append(tuple(round(float(e), 6) for e in sorted(eigs)))
        swapped = triples.get((b, a, c))
        z = 0j if swapped is None else np.vdot(swapped.transpose(1, 0, 2), T)
        # + 0.0 turns a rounded -0.0 into 0.0, so reports do not carry the sign of noise
        exchange = (round(float(z.real), 6) + 0.0, round(float(z.imag), 6) + 0.0)
        items.append(((a, b, c), tuple(spectra), exchange))
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


@dataclass
class _Fit:
    x: np.ndarray
    fun: np.ndarray
    status: int  # 1 gradient, 2 cost, 3 step converged; 0 evaluation limit


def least_squares(fun, x0, jac, xtol: float, ftol: float, gtol: float) -> _Fit:
    """Minimize ``|fun(x)|^2`` by Levenberg-Marquardt from ``x0``.

    Each step solves ``(J^T J + mu I) h = -J^T f`` with the Jacobian ``jac(x)``;
    ``mu`` starts at ``1e-3 max diag(J^T J)`` and follows Nielsen's update
    (IMM-REP-1999-05): an accepted step with gain ratio ``rho`` scales it by
    ``max(1/3, 1 - (2 rho - 1)^3)``, a rejected one by ``nu``, which doubles
    on every rejection in a row.  The stopping tests are MINPACK's (More,
    LNM 630): every column of ``J`` within angle cosine ``gtol`` of
    orthogonal to ``f`` (status 1), an accepted step whose actual and
    predicted relative reductions of ``|f|^2`` are both at most ``ftol``
    (status 2), or a step no longer than ``xtol (|x| + xtol)`` (status 3).
    Status 0 means ``100 len(x0)`` evaluations did not converge.
    """
    x = np.asarray(x0, dtype=float)
    f = fun(x)
    J = jac(x)
    cost, A, g = f @ f, J.T @ J, J.T @ f
    mu, nu = 1e-3 * np.max(np.diag(A)), 2.0
    for _ in range(100 * len(x)):
        if cost == 0.0 or np.all(np.abs(g) <= gtol * np.sqrt(cost * np.diag(A))):
            return _Fit(x, f, 1)
        h = np.linalg.solve(A + mu * np.eye(len(x)), -g)
        if np.linalg.norm(h) <= xtol * (np.linalg.norm(x) + xtol):
            return _Fit(x, f, 3)
        f_new = fun(x + h)
        cost_new = f_new @ f_new
        predicted = h @ (mu * h - g)
        rho = (cost - cost_new) / predicted
        if not rho > 0:  # a worse or non-finite residual
            mu, nu = mu * nu, 2 * nu
            continue
        small = cost - cost_new <= ftol * cost and predicted <= ftol * cost
        x, f, cost = x + h, f_new, cost_new
        if small:
            return _Fit(x, f, 2)
        J = jac(x)
        A, g = J.T @ J, J.T @ f
        mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
    return _Fit(x, f, 0)


@dataclass
class SearchResult:
    solutions: list
    status: str  # "ok" or "inconclusive"
    best_residual: float
    fingerprints: tuple = field(default_factory=tuple)


def search_qsystems(
    cat: CategoryPresentation,
    theta,
    n_starts: int = 24,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SearchResult:
    """Best-effort search for all Q-systems with the given theta, up to gauge."""
    theta = tuple(int(m) for m in theta)
    if n_starts < 1:
        raise StructuralError(f"the search needs at least one start, got {n_starts}")
    _require_bound(theta, cat.ring, tol)
    axioms = _AxiomMap(cat, QSystemSpec(theta, {}))
    channels = np.array(axioms.channels)
    p, q, r = channels.T
    unit = ((p == 0) & (q == r)) | ((q == 0) & (p == r))
    free = (p > 0) & (q > 0)  # the unit laws fix the rest
    lam0 = np.where(unit, axioms.scale + 0j, 0j)
    where = np.flatnonzero(free)

    def build(vec: np.ndarray) -> QSystemSpec:
        kept = unit | free
        return QSystemSpec(theta, dict(zip(map(tuple, channels[kept].tolist()), lam_at(vec)[kept])))

    def lam_at(vec: np.ndarray) -> np.ndarray:
        lam = lam0.copy()
        lam[where] = vec[0::2] + 1j * vec[1::2]
        return lam

    def residual_vec(vec: np.ndarray) -> np.ndarray:
        z = axioms.rows(lam_at(vec))
        return np.concatenate([z.real, z.imag])[axioms.order]

    def jacobian(vec: np.ndarray) -> np.ndarray:
        """``d residual_vec / d vec``: ``lam`` and ``conj(lam)`` move with ``Re + i Im`` and ``Re - i Im``."""
        D = axioms.jacobian(lam_at(vec))
        at, at_bar = D[:, where], D[:, len(lam0) + where]
        Jc = np.empty((len(D), len(vec)), dtype=complex)
        Jc[:, 0::2], Jc[:, 1::2] = at + at_bar, 1j * (at - at_bar)
        return np.concatenate([Jc.real, Jc.imag])[axioms.order]

    if not free.any():  # the unit laws fix every channel
        sols = [build(np.zeros(0))] if max(axioms.norms(lam0).values()) < tol else []
        fps = tuple(fingerprint(s, cat) for s in sols)
        return SearchResult(sols, "ok", 0.0 if sols else np.inf, fps)

    found = {}  # fingerprint -> first solution with it
    best = np.inf
    any_nonconverged = False
    for i in range(n_starts):
        x0 = np.random.default_rng((seed, i)).normal(scale=1.0 if i else 0.5, size=2 * len(where))
        res = least_squares(residual_vec, x0, jac=jacobian, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        final = float(np.max(np.abs(res.fun)))
        best = min(best, final)
        if res.status <= 0:
            any_nonconverged = True
        if final < tol:
            qq = build(res.x)
            found.setdefault(fingerprint(qq, cat), qq)
    prints = tuple(sorted(found))
    solutions = [found[fp] for fp in prints]
    status = "inconclusive" if not solutions and (best < 1e-3 or any_nonconverged) else "ok"
    return SearchResult(solutions, status, best, prints)
