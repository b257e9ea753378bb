"""Modular-invariant and nimrep enumeration, Cardy solutions, compatibility.

Modular invariants are enumerated completely: an SVD of the S condition on
the blocks of equal T gives the commutant of {S, T}, pivot entries are taken
vacuum first (Z[0,0] = 1), then by ascending bound, their integer assignments
are solved in batches and every candidate is re-verified.  Nimreps are
enumerated on stacks of matrices, ``CHUNK`` at a time.  Generator matrices
are filled in one entry at a time on a stack of batches of partial matrices,
pruned by spectrum: one stacked eigensolve drops the partial matrices whose
spectral radius exceeds the Frobenius-Perron dimension, and a complete one is
kept only if its eigenvalues lie in the spectrum of the fusion matrix.  The
first generator is searched up to relabeling: only matrices whose row sums
do not increase, since sorting the boundaries by row sum puts one matrix of
each orbit in that order.  The other matrices are derived from the
representation identity by batched products, deduplicated up to
simultaneous boundary relabeling, and one representative per class is
verified exactly.  A :class:`Nimrep` checks its own shape when it is built,
so Cardy solutions and compatibility tables read the joint eigenspaces of a
nimrep off the closed-form projectors ``P_t = S_0t sum_s conj(S_st) n^s``
without re-checking it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataInconsistencyError, NumericDegeneracyError, StructuralError
from .modular import ModularData
from .rings import DEFAULT_TOL, FusionRing, check_integers

__all__ = [
    "Nimrep",
    "CardySolution",
    "enumerate_modular_invariants",
    "enumerate_nimreps",
    "regular_nimrep",
    "cardy_solve",
    "compatibility",
    "check_coupling",
]


# -- modular invariants ------------------------------------------------------

CHUNK = 2048  # rows per batch: pivot assignments, partial or derived nimrep matrices, relabelings
PIVOT_TOL = 1e-6  # least residual norm of a pivot row (B has orthonormal columns)
SPECTRUM_TOL = 1e-6  # largest deviation of a nimrep's eigenvalues or spectral projectors
COMMUTANT_RCOND = 1e-10  # T phases closer than this are equal; relative singular-value cut of the commutant


def _commutant_basis(md: ModularData):
    """Real basis of {M : SM = MS, TM = MT} as columns of an (n^2, m) array.

    T is diagonal, so ``TM = MT`` exactly when ``M[i,j] = 0`` wherever
    ``T_i != T_j``: the S condition is solved on the other entries alone.
    """
    S, T, n = md.S, md.T, md.size
    dT = np.abs(T[:, None] - T[None, :]).reshape(-1)
    if np.any((dT > COMMUTANT_RCOND) & (dT < 1e4 * COMMUTANT_RCOND)):
        raise NumericDegeneracyError("T blocks are numerically ambiguous")
    cols = np.flatnonzero(dT <= COMMUTANT_RCOND)
    op = (np.kron(S, np.eye(n)) - np.kron(np.eye(n), S.T))[:, cols]
    # unknown M is real: nullspace over the reals
    _, s, vh = np.linalg.svd(np.vstack([op.real, op.imag]), full_matrices=False)
    rank = int(np.sum(s > COMMUTANT_RCOND * max(s[0], 1.0)))
    gap = s[rank - 1] / max(s[rank], 1e-300) if 0 < rank < len(s) else np.inf
    if gap < 1e4:
        raise NumericDegeneracyError(f"commutant rank is numerically ambiguous (gap {gap:.1f})")
    B = np.zeros((n * n, len(s) - rank))
    B[cols] = vh[rank:].T
    return B


def _pivot_rows(B: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Rows of B that make a well-conditioned square block, smallest bounds first.

    The vacuum row comes first, then rows by ascending ``bound`` and index; a
    row is taken if its norm exceeds ``PIVOT_TOL`` once the rows taken are
    projected out.  B has orthonormal columns: the choice depends on the
    commutant alone, not on the basis the SVD returns.
    """
    order = np.argsort(bound, kind="stable")
    order = np.concatenate([[0], order[order != 0]])
    rest = B[order]
    taken = []
    for _ in range(B.shape[1]):
        norms = np.sqrt(np.einsum("ij,ij->i", rest, rest))
        if not np.any(norms > PIVOT_TOL):
            raise NumericDegeneracyError("commutant has no well-conditioned pivot block")
        i = int(np.argmax(norms > PIVOT_TOL))
        taken.append(i)
        rest -= np.outer(rest @ rest[i], rest[i]) / norms[i] ** 2
    return order[taken]


def enumerate_modular_invariants(
    md: ModularData, max_entry: int | None = None, tol: float = 1e-7
) -> list[np.ndarray]:
    """All non-negative integer Z with ``Z[0,0] = 1``, ``ZS = SZ``, ``ZT = TZ``.

    Entries are bounded by ``floor(d_s d_t)`` (or ``max_entry``, an integer); the
    list is complete within those bounds and lexicographically ordered.  The
    bound is taken with ``DEFAULT_TOL`` as its rounding guard; ``tol`` thresholds
    the rounding of the pivot solve and the S and T checks.
    """
    n, d = md.size, md.ring.fp_dims
    bound = np.floor(np.outer(d, d) + DEFAULT_TOL).astype(int).reshape(-1)
    if max_entry is not None:
        max_entry = int(check_integers(max_entry, "max_entry"))
        if max_entry < 0:
            raise StructuralError(f"max_entry must be >= 0, got {max_entry}")
        bound = np.minimum(bound, max_entry)
    B = _commutant_basis(md)
    if B.shape[1] == 0:
        return []
    rows = _pivot_rows(B, bound)
    Bp = B[rows]
    if abs(np.linalg.det(Bp)) < 1e-8:
        raise NumericDegeneracyError("commutant pivot block is singular")
    # pivot entries in mixed radix; Z[0,0] = 1 when it is a pivot
    low = (rows == 0).astype(int)
    radix = bound[rows] + 1 - low
    total = math.prod(radix.tolist())
    found = [np.zeros((0, n, n))]
    for start in range(0, total, CHUNK):
        digits = np.unravel_index(np.arange(start, min(start + CHUNK, total)), radix)
        vec = B @ np.linalg.solve(Bp, np.array(digits, dtype=float) + low[:, None])
        Z = np.rint(vec)
        ok = (np.max(np.abs(vec - Z), axis=0) <= tol) & (Z[0] == 1)
        ok &= np.all((Z >= 0) & (Z <= bound[:, None]), axis=0)
        found.append(Z[:, ok].T.reshape(-1, n, n))
    Z, S, T = np.concatenate(found), md.S, md.T
    ok = np.max(np.abs(S @ Z - Z @ S), axis=(1, 2), initial=0.0) <= tol
    ok &= np.max(np.abs(T[:, None] * Z - Z * T), axis=(1, 2), initial=0.0) <= tol
    Z = Z[ok].astype(np.int64).reshape(-1, n * n)  # distinct pivot values: no duplicates
    return list(Z[np.lexsort(Z.T[::-1])].reshape(-1, n, n))


# -- nimreps -----------------------------------------------------------------


@dataclass(eq=False)
class Nimrep:
    """Non-negative integer matrix representation of the fusion ring.

    ``matrices``, a sequence of matrices or an array, is kept as one read-only
    int64 array, checked at construction (StructuralError): one square matrix
    per sector, all of one size, integer entries.  :meth:`validate` checks the rest.
    Two nimreps are equal when their rings and their stacks are.
    """

    ring: FusionRing
    matrices: np.ndarray  # (n, size, size): n^s[a, b] = matrices[s, a, b]

    def __post_init__(self):
        try:
            mats = np.asarray(self.matrices)
        except ValueError:  # matrices of different shapes
            mats = None
        if mats is None or mats.ndim != 3 or mats.shape[1] != mats.shape[2] or not mats.shape[1]:
            raise StructuralError("nimrep matrices must be square and same-sized")
        if len(mats) != self.ring.size:
            raise StructuralError(f"expected {self.ring.size} matrices, got {len(mats)}")
        self.matrices = check_integers(mats, "nimrep entries")
        self.matrices.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, Nimrep) and self.ring == other.ring and np.array_equal(self.matrices, other.matrices)

    @property
    def size(self) -> int:
        return self.matrices.shape[1]

    def validate(self) -> list[str]:
        """The nimrep conditions, as a list of violations (empty iff a nimrep):
        non-negative entries, the vacuum matrix the identity, ``n^dual(s)``
        the transpose of ``n^s`` and ``n^s n^t = sum_u N_st^u n^u``."""
        ring, mats = self.ring, self.matrices
        bad = [f"matrix {s} has negative entries" for s in np.flatnonzero(np.any(mats < 0, axis=(1, 2)))]
        if bad:
            return bad
        if not np.array_equal(mats[0], np.eye(self.size, dtype=np.int64)):
            bad.append("vacuum matrix is not the identity")
        fails = np.any(mats[list(ring.dual)] != mats.transpose(0, 2, 1), axis=(1, 2))
        bad.extend(f"duality fails: n^dual({s}) != transpose(n^{s})" for s in np.flatnonzero(fails))
        # n^s n^t against sum_u N_st^u n^u, for all (s, t) at once
        fails = np.any(
            np.einsum("sij,tjk->stik", mats, mats) != np.einsum("stu,uik->stik", ring.N, mats),
            axis=(2, 3),
        )
        if fails.any():
            s, t = np.argwhere(fails)[0]  # the first pair in row-major order
            bad.append(f"representation property fails at ({s},{t})")
        return bad


def regular_nimrep(ring: FusionRing) -> Nimrep:
    """Boundaries labeled by sectors; ``n^s = N^s`` (the Cardy case)."""
    return Nimrep(ring, ring.N)


def _generator_plan(ring: FusionRing, gens: tuple[int, ...]):
    """Derivation order for the remaining sectors from products of known ones.

    Returns a list of steps ``(s, t, u)`` meaning: once ``n^s``, ``n^t`` and
    all previously derived matrices are known, ``n^u`` follows from the
    representation identity (its coefficient is 1).  None if no full plan.
    """
    known = {0, *gens}
    plan = []
    changed = True
    while changed and len(known) < ring.size:
        changed = False
        for s in known.copy():
            for t in known.copy():
                unknowns = [
                    u for u in range(ring.size) if ring.N[s, t, u] > 0 and u not in known
                ]
                if len(unknowns) == 1 and ring.N[s, t, unknowns[0]] == 1:
                    plan.append((s, t, unknowns[0]))
                    known.add(unknowns[0])
                    changed = True
    return plan if len(known) == ring.size else None


def _select_generators(ring: FusionRing):
    for r in range(1, ring.size):
        for gens in itertools.combinations(range(1, ring.size), r):
            plan = _generator_plan(ring, gens)
            if plan is not None:
                return gens, plan
    raise StructuralError("fusion ring admits no derivation plan (degenerate N)")


def _candidate_generator_matrices(
    ring: FusionRing, g: int, size: int, tol: float, ordered: bool = False
) -> np.ndarray:
    """All n^g that pass the spectral conditions every nimrep meets, as an (m, size, size) stack.

    A nimrep matrix n^g is normal with eigenvalues among those of N^g, so
    its spectral radius, and with it each entry, is at most d_g: entries run
    up to ``ring.dim_floor[g]``, the ring's floor(d_g).  Entries are set in
    order (mirrored when g is self-dual, where n^g and N^g are symmetric) and
    unset entries are 0, so a partial matrix is entrywise below all its
    completions.  A stack of batches of at most ``CHUNK`` partial matrices is
    expanded one entry at a time: value 0 keeps a batch as it is, and each
    larger value is tried on the matrices that kept the value below it.
    Row and column square sums above ``floor(d_g^2)`` (with ``DEFAULT_TOL``
    as its rounding guard) or a spectral radius above ``d_g + tol`` (one
    stacked eigensolve; Perron-Frobenius monotonicity) drop a matrix for
    that value and all larger ones, and a value that no matrix keeps ends
    the loop.  Each partial matrix carries the eigenvalues of its
    last eigensolve, so a complete one is decomposed no more than once: it
    is kept if each of its eigenvalues lies within ``SPECTRUM_TOL`` of one
    of N^g.  For a symmetric matrix that holds exactly when the minimal
    polynomial of N^g annihilates it, and what a non-symmetric one lets
    through is left to :meth:`Nimrep.validate`.

    With ``ordered``, only matrices whose row sums do not increase are
    kept: while row i > 0 is filled, every child at a cell, value 0
    included (row i may sum to more than row i - 1 from mirrored entries
    alone), is dropped if row i sums to more than the complete row i - 1.
    Entries are non-negative, so this too drops a matrix for all larger
    values.  Every screen above is invariant under relabeling the rows and
    columns together, and sorting the boundaries by row sum puts any n^g in
    this order, so the ordered stack still meets every orbit of the
    unordered one.  One relabeling acts on all the matrices of a nimrep at
    once, so only one generator of a nimrep may be ordered.
    """
    d = ring.fp_dims[g]
    entry_bound = int(ring.dim_floor[g])
    row_bound = int(math.floor(d**2 + DEFAULT_TOL))
    symmetric = ring.dual[g] == g
    eigvals = np.linalg.eigvalsh if symmetric else np.linalg.eigvals
    spectrum = eigvals(ring.N[g].astype(float))
    cells = (
        [(i, j) for i in range(size) for j in range(i, size)]
        if symmetric
        else [(i, j) for i in range(size) for j in range(size)]
    )

    def in_order(batch, i):
        """Which matrices of ``batch`` keep the row order at row i (all unless ``ordered``)."""
        if not ordered or i == 0:
            return np.ones(len(batch), dtype=bool)
        sums = batch[:, i - 1 : i + 1].sum(axis=2)
        return sums[:, 1] <= sums[:, 0]

    def admissible(batch, i, j):
        """The matrices of ``batch`` whose rows and columns i, j, row order and
        spectral radius are in bounds, with their eigenvalues."""
        lines = np.concatenate([batch[:, [i, j], :], batch[:, :, [i, j]].transpose(0, 2, 1)], axis=1)
        batch = batch[(np.max(np.sum(lines**2, axis=2), axis=1) <= row_bound) & in_order(batch, i)]
        eig = eigvals(batch)
        radius = eig[:, -1] if symmetric else np.max(np.abs(eig), axis=1)
        keep = radius <= d + tol
        return batch[keep], eig[keep]

    found = []
    zero = np.zeros((1, size, size), dtype=np.int64)
    stack = [(0, zero, eigvals(zero))]
    while stack:
        idx, batch, eig = stack.pop()
        if idx == len(cells):
            off = np.min(np.abs(eig[:, :, None] - spectrum), axis=2)
            found.append(batch[np.all(off <= SPECTRUM_TOL, axis=1)])
            continue
        i, j = cells[idx]
        rows, cols = ([i, j], [j, i]) if symmetric else ([i], [j])
        keep = in_order(batch, i)
        children = [(batch[keep], eig[keep])]  # value 0 leaves the partial matrices unchanged
        for v in range(1, entry_bound + 1):
            batch = children[-1][0].copy()
            batch[:, rows, cols] = v
            batch, eig = admissible(batch, i, j)
            if not len(batch):
                break
            children.append((batch, eig))
        level, spectra = (np.concatenate(part) for part in zip(*children))
        stack.extend(
            (idx + 1, level[s : s + CHUNK], spectra[s : s + CHUNK]) for s in range(0, len(level), CHUNK)
        )
    return np.concatenate(found)


def _derive(ring: FusionRing, plan, gens, picks) -> np.ndarray:
    """The (m, n, size, size) stack of tuples the plan derives from the generator
    matrices ``picks`` (one (m, size, size) stack per generator), without the
    tuples in which a derived matrix has a negative entry."""
    m, size = picks[0].shape[:2]
    mats = np.zeros((m, ring.size, size, size), dtype=np.int64)
    mats[:, 0] = np.eye(size, dtype=np.int64)
    mats[:, list(gens)] = np.stack(picks, axis=1)
    for s, t, u in plan:
        rest = ring.N[s, t].copy()
        rest[u] = 0
        P = mats[:, s] @ mats[:, t] - np.einsum("w,mwij->mij", rest, mats)
        keep = ~np.any(P < 0, axis=(1, 2))
        mats = mats[keep]
        mats[:, u] = P[keep]
    return mats


def _lexmin(rows: np.ndarray) -> np.ndarray:
    """The lexicographically least row of a 2-D array, by a pairwise tournament:
    each round keeps, of rows ``k`` and ``k + half``, the one that is smaller at
    their first differing column."""
    while len(rows) > 1:
        half = len(rows) // 2
        a, b = rows[:half], rows[half : 2 * half]
        first = np.argmax(a != b, axis=1)
        pick_b = b[np.arange(half), first] < a[np.arange(half), first]
        rows = np.concatenate([np.where(pick_b[:, None], b, a), rows[2 * half :]])
    return rows[0]


def _canonical_key(matrices, size):
    """Lexicographically minimal key over simultaneous boundary relabelings.

    Only relabelings that list the boundaries in the order of a fingerprint
    (the diagonal entries, then the sorted rows, of every matrix) are
    compared: ``CHUNK`` of them at a time are gathered in one indexing step
    and reduced by :func:`_lexmin`.
    """
    A = np.asarray(matrices)
    diag = np.arange(size)
    fp = np.concatenate([A[:, diag, diag].T, np.sort(A, axis=2).transpose(1, 0, 2).reshape(size, -1)], axis=1)
    fp = fp.tolist()
    order = sorted(range(size), key=fp.__getitem__)
    groups = [list(group) for _, group in itertools.groupby(order, fp.__getitem__)]
    tables = [np.array(list(itertools.permutations(group))) for group in groups]
    counts = [len(table) for table in tables]
    total = math.prod(counts)
    best = np.zeros((0, A.size), dtype=A.dtype)
    for start in range(0, total, CHUNK):
        picks = np.unravel_index(np.arange(start, min(start + CHUNK, total)), counts)
        perm = np.concatenate([table[p] for table, p in zip(tables, picks)], axis=1)
        flat = A[:, perm[:, :, None], perm[:, None, :]].transpose(1, 0, 2, 3).reshape(len(perm), -1)
        best = _lexmin(np.concatenate([best, flat]))[None]
    best = best[0].reshape(len(A), -1).tolist()
    return tuple(tuple(row) for row in best)


def enumerate_nimreps(ring: FusionRing, size: int, tol: float = DEFAULT_TOL) -> list[Nimrep]:
    """All nimreps of the given boundary count, up to relabeling.

    Reducible nimreps (direct sums) are included: Fibonacci at size 4 gives
    the regular nimrep taken twice.  Generator matrices come from a batched
    search with spectral pruning (see :func:`_candidate_generator_matrices`).
    The first generator's search keeps only matrices whose row sums do not
    increase: every nimrep has a relabeling with its n^gens[0] in that
    order, and the screens of every generator are invariant under
    relabeling.  The other generators are searched unordered, because one
    relabeling acts on all the matrices of a nimrep at once and cannot
    order two of them in general.
    Their combinations, ``CHUNK`` at a time, derive the remaining matrices
    from the representation identity as stacked arrays; tuples with a
    negative entry are dropped and the rest deduplicated up to simultaneous
    boundary relabeling.  Derivation, the sign test and the nimrep
    conditions all commute with relabeling, so one representative per class,
    the canonical one, is verified exactly (:meth:`Nimrep.validate`); that
    check, not the spectral screen, decides which classes are nimreps.
    """
    if size < 1:
        raise StructuralError("nimrep size must be >= 1")
    if ring.size == 1:
        return [Nimrep(ring, (np.eye(size, dtype=np.int64),))]
    gens, plan = _select_generators(ring)
    candidates = [_candidate_generator_matrices(ring, g, size, tol, ordered=k == 0) for k, g in enumerate(gens)]
    counts = [len(c) for c in candidates]
    total = math.prod(counts)
    keys = set()
    for start in range(0, total, CHUNK):
        picks = np.unravel_index(np.arange(start, min(start + CHUNK, total)), counts)
        derived = _derive(ring, plan, gens, [c[p] for c, p in zip(candidates, picks)])
        keys.update(_canonical_key(mats, size) for mats in derived)
    canon = (Nimrep(ring, np.reshape(key, (ring.size, size, size))) for key in sorted(keys))
    return [nr for nr in canon if not nr.validate()]


# -- Cardy solutions ---------------------------------------------------------


@dataclass
class CardySolution:
    """Unitary psi diagonalizing a nimrep against the columns of S."""

    nimrep: Nimrep
    psi: np.ndarray  # (size, size), columns ordered by exponent
    exponents: tuple  # sector index per column
    residual: float


def _spectral_projectors(nimrep: Nimrep, md: ModularData) -> np.ndarray:
    """The projectors ``P_t = S_0t sum_s conj(S_st) n^s``, as an (n, size, size) array.

    A Cardy psi gives ``n^s = sum_t (S_st / S_0t) P_t``, with P_t the
    projector onto its columns of exponent t; S is unitary, so P_t has this
    closed form.  A nimrep of another ring than ``md``'s is malformed
    (StructuralError).  Raises DataInconsistencyError unless every P_t is
    Hermitian and idempotent and the P_t reproduce every n^s, all within
    ``SPECTRUM_TOL``.
    """
    if nimrep.ring != md.ring:
        raise StructuralError("the nimrep and the modular data have different fusion rings")
    S = md.S
    mats = np.array(nimrep.matrices, dtype=float)
    P = np.einsum("t,st,sij->tij", S[0], S.conj(), mats)
    worst = np.max([
        np.max(np.abs(P - P.conj().transpose(0, 2, 1))),
        np.max(np.abs(P @ P - P)),
        np.max(np.abs(np.einsum("st,tij->sij", S / S[0], P) - mats)),
    ])
    if not worst <= SPECTRUM_TOL:  # NaN fails too
        raise DataInconsistencyError(f"nimrep has no modular spectrum: projector residual {worst:.2e}")
    return P


def _span_basis(P):
    """An orthonormal basis of the range of the projector P that depends on that range alone.

    Gram-Schmidt on ``P e_i`` in ascending ``i`` up to the rank ``round(tr P)``,
    skipping residuals shorter than ``1/(2 sqrt(n))``.  The skipped residuals
    only shrink as the basis grows, and while it is incomplete some ``P e_i``
    has a residual of at least ``1/sqrt(n)`` (the remaining projector has
    trace >= 1), so it completes.
    """
    n, k = len(P), int(round(np.trace(P).real))
    Q = np.zeros((n, 0), dtype=complex)
    for i in range(n):
        if Q.shape[1] == k:
            break
        v = P[:, i]
        for _ in range(2):  # twice is enough to orthogonalize in floating point
            v = v - Q @ (Q.conj().T @ v)
        norm = np.linalg.norm(v)
        if norm >= 0.5 / math.sqrt(n):
            Q = np.column_stack([Q, v / norm])
    return Q


def cardy_solve(nimrep: Nimrep, md: ModularData, tol: float = DEFAULT_TOL) -> CardySolution:
    """Solve ``n^s = psi (S_s./S_0.) psi*`` from the spectral projectors.

    The columns of psi are, by ascending exponent t, the :func:`_span_basis`
    of P_t, each turned by the phase that makes its first entry of at least
    0.3 times its largest modulus real positive.  ``tol`` is not read.
    """
    bad = nimrep.validate()
    if bad:
        raise StructuralError(f"invalid nimrep: {bad[0]}")
    bases = [_span_basis(P) for P in _spectral_projectors(nimrep, md)]
    exponents = tuple(t for t, B in enumerate(bases) for _ in range(B.shape[1]))
    psi = np.hstack(bases)
    modulus = np.abs(psi)
    anchor = np.argmax(modulus >= 0.3 * modulus.max(axis=0), axis=0)
    phase = psi[anchor, np.arange(nimrep.size)]
    psi = psi / (phase / np.abs(phase))
    ratios = md.S / md.S[0][None, :]
    residual = max(
        float(np.max(np.abs(psi @ np.diag(ratios[s, list(exponents)]) @ psi.conj().T - mat)))
        for s, mat in enumerate(nimrep.matrices)
    )
    unit = float(np.max(np.abs(psi @ psi.conj().T - np.eye(nimrep.size))))
    return CardySolution(nimrep, psi, exponents, max(residual, unit))


def compatibility(Z, nimrep: Nimrep, md: ModularData):
    """Exponent multiplicities of the nimrep vs the diagonal of Z.

    Returns ``(ok, table)`` with ``table[t]`` the rank ``round(tr P_t)`` of
    the spectral projector P_t, or ``(False, {})`` if the nimrep has no
    modular spectrum (see :func:`_spectral_projectors`).  Z is read by :func:`check_coupling`.
    """
    n = md.size
    Z = check_coupling(Z, n)
    try:
        P = _spectral_projectors(nimrep, md)
    except DataInconsistencyError:
        return False, {}
    table = {t: int(round(np.trace(P[t]).real)) for t in range(n)}
    return all(table[t] == Z[t, t] for t in range(n)), table


def check_coupling(Z, n: int) -> np.ndarray:
    """``Z`` as an int64 array, if it is an n x n matrix of real numbers that
    :func:`check_integers` reads as non-negative integers; anything else,
    booleans included, is malformed (StructuralError)."""
    try:
        Z = np.asarray(Z)
    except ValueError:  # rows of different lengths
        raise StructuralError(f"Z must be {n}x{n}") from None
    if Z.shape != (n, n):
        raise StructuralError(f"Z must be {n}x{n}")
    try:
        ints = check_integers(Z, "Z entries") if Z.dtype.kind in "iuf" else None
    except StructuralError:
        ints = None
    if ints is None or np.any(ints < 0):
        raise StructuralError("Z must hold finite non-negative integers")
    return ints
