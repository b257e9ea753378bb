import dataclasses
import functools
import itertools
import math
import weakref
from itertools import groupby
from types import MappingProxyType

import numpy as np
import pytest

from bcft.catalog import CategoryData, fibonacci, ising, su2
from bcft.category import CategoryPresentation
from bcft.classify import Nimrep, _select_generators
from bcft.errors import StructuralError
from bcft.modular import ModularData
from bcft.qsystems import QSystemSpec
from bcft.rings import FusionRing


@pytest.fixture(scope="session")
def ising_data():
    return ising()


@pytest.fixture(scope="session")
def fib_data():
    return fibonacci()


@pytest.fixture(scope="session")
def su2_level():
    """``su2(k)``, built once per level for the whole session."""
    return functools.cache(su2)


@pytest.fixture(scope="session")
def su2_4_data(su2_level):
    return su2_level(4)


def label_tuples(keys):
    """The rows of an admissible label array, such as ``ring.f_key_array``, as
    a tuple of label tuples in the same order."""
    return tuple(zip(*keys.T.tolist()))


# per presentation: its F and R as {labels: value}; an entry goes with its presentation
_FR_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def fr_tables(cat):
    """Read-only ``{labels: value}`` tables of the F and R symbols of ``cat``,
    built from the admissible keys and the stored values (never through
    ``cat.f``), so that the reference computations read the supplied data."""
    hit = _FR_TABLES.get(cat)
    if hit is None:
        ring = cat.ring
        F = dict(zip(label_tuples(ring.f_key_array), cat.f_values.tolist()))
        R = dict(zip(label_tuples(ring.r_key_array), cat.R[ring.N > 0].tolist()))
        hit = _FR_TABLES[cat] = MappingProxyType(F), MappingProxyType(R)
    return hit


def pointed_category(name, order, add, c, central_charge):
    """Pointed modular category on an abelian group of ``order`` elements, with
    trivial F and the braiding bicharacter ``c``: R[a, b] = c(a, b), T_a = c(a, a),
    S_ab = conj(c(a, b) c(b, a)) / sqrt(order)."""
    N = np.zeros((order,) * 3, dtype=np.int64)
    for a, b in itertools.product(range(order), repeat=2):
        N[a, b, add(a, b)] = 1
    dual = [next(b for b in range(order) if add(a, b) == 0) for a in range(order)]
    ring = FusionRing([str(a) for a in range(order)], dual, N)
    S = np.array([[np.conj(c(a, b) * c(b, a)) for b in range(order)] for a in range(order)])
    md = ModularData(ring, S / math.sqrt(order), [c(a, a) for a in range(order)])
    F = dict.fromkeys(label_tuples(ring.f_key_array), 1.0)
    R = {(a, b, ab): c(a, b) for a, b, ab in label_tuples(ring.r_key_array)}
    return CategoryData(name, ring, md, CategoryPresentation(ring, F, R), central_charge)


def _moved_phase(data):
    """``data`` with the T phase of sector 1 moved to h = 0.3 mod 1."""
    T = data.modular.T.copy()
    T[1] = np.exp(2j * math.pi * 0.3)
    return dataclasses.replace(data, modular=ModularData(data.ring, data.modular.S, T))


# 3 x 3 couplings whose entries fall outside int64: a cast would wrap them, to -1 and to -2^63
OUT_OF_RANGE_Z = (np.diag(np.array([1, 2**64 - 1, 1], dtype=np.uint64)), np.diag([1.0, 1e300, 1.0]))


# categories whose sectors get no minimal-model character, with the refusal
SECTOR_REFUSALS = {
    "no central charge": (
        lambda: dataclasses.replace(ising(), central_charge=None),
        "partition requires central_charge in the category file",
    ),
    "su2_1": (lambda: su2(1), "central charge 1.0 is not a minimal-model value"),
    # no c = 1/2 field has h = 0.3 mod 1
    "no Kac weight": (
        lambda: _moved_phase(ising()),
        "sector 1/16: T phase matches 0 Kac weights; cannot infer the character",
    ),
}


def group_algebra(data, subgroup, psi=lambda a, b: 1.0):
    """The Q-system theta = sum of the sectors in ``subgroup``, twisted by the
    2-cocycle ``psi``: lam = psi(a, b) / sqrt|H| on each channel a b -> ab."""
    ring = data.ring
    theta = [int(s in subgroup) for s in range(ring.size)]
    slot = {s: i for i, s in enumerate(sorted(subgroup))}
    lam = {
        (slot[a], slot[b], slot[int(np.argmax(ring.N[a, b]))]): psi(a, b) / math.sqrt(len(subgroup))
        for a, b in itertools.product(subgroup, repeat=2)
    }
    return QSystemSpec(theta, lam)


@pytest.fixture(scope="session")
def spin8_data():
    """Spin(8)_1: Z2 x Z2 (sector a is (a & 1, a >> 1)) with
    c(a, b) = (-1)^(a1 b1 + a2 b2 + a1 b2), so T = (1, -1, -1, -1)."""
    def c(a, b):
        a1, a2, b1, b2 = a & 1, a >> 1, b & 1, b >> 1
        return (-1.0) ** (a1 * b1 + a2 * b2 + a1 * b2)

    return pointed_category("spin8_1", 4, lambda a, b: a ^ b, c, 4.0)


@pytest.fixture(scope="session")
def spin8_qsystems(spin8_data):
    """The six Q-systems of Spin(8)_1: trivial, 1+g for each g, and 1+v+s+c
    untwisted and twisted by psi(a, b) = (-1)^(a1 b2)."""
    def twist(a, b):
        return (-1.0) ** ((a & 1) * (b >> 1))

    return {
        "trivial": group_algebra(spin8_data, [0]),
        **{f"1+{g}": group_algebra(spin8_data, [0, g]) for g in (1, 2, 3)},
        "1+v+s+c": group_algebra(spin8_data, [0, 1, 2, 3]),
        "1+v+s+c twisted": group_algebra(spin8_data, [0, 1, 2, 3], twist),
    }


@pytest.fixture(scope="session")
def z3_data():
    """Z_3 with c(a, b) = w^(ab), w = exp(2 pi i / 3): sectors 1 and 2 are dual."""
    w = np.exp(2j * np.pi / 3)
    return pointed_category("z3", 3, lambda a, b: (a + b) % 3, lambda a, b: w ** (a * b), 2.0)


@pytest.fixture(scope="session")
def all_catalogs(ising_data, fib_data, su2_level, su2_4_data, z3_data, spin8_data):
    return [ising_data, fib_data, su2_level(2), su2_4_data, z3_data, spin8_data]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def brute_force_invariants(md, max_entry: int, tol: float = 1e-7):
    """Oracle: exhaustive scan over all integer matrices with bounded entries."""
    n = md.size
    out = []
    for flat in itertools.product(range(max_entry + 1), repeat=n * n):
        Z = np.array(flat, dtype=np.int64).reshape(n, n)
        if Z[0, 0] != 1:
            continue
        Zf = Z.astype(float)
        if np.max(np.abs(md.S @ Zf - Zf @ md.S)) > tol:
            continue
        if np.max(np.abs(md.T[:, None] * Zf - Zf * md.T[None, :])) > tol:
            continue
        out.append(Z)
    return sorted(out, key=lambda Z: tuple(Z.reshape(-1)))


def reference_commutant(md, rcond: float = 1e-10):
    """Oracle: real basis of {M : SM = MS, TM = MT} from one SVD of the whole
    system, the S and T conditions stacked over all n^2 entries of M."""
    S, T = md.S, md.T
    eye = np.eye(md.size)
    ops = [
        np.kron(S, eye) - np.kron(eye, S.T),
        np.kron(np.diag(T), eye) - np.kron(eye, np.diag(T)),
    ]
    A = np.vstack([np.vstack([op.real, op.imag]) for op in ops])
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > rcond * max(s[0], 1.0)))
    return vh[rank:].T


def _row_norm_generator_matrices(ring, g: int, size: int, tol: float):
    """All candidate n^g: bounded entries, row square sums <= floor(d_g^2)."""
    d = ring.fp_dims
    entry_bound = int(math.floor(d[g] + tol))
    row_bound = int(math.floor(d[g] ** 2 + tol))
    symmetric = ring.dual[g] == g
    mats = []
    cells = (
        [(i, j) for i in range(size) for j in range(i, size)]
        if symmetric
        else [(i, j) for i in range(size) for j in range(size)]
    )

    mat = np.zeros((size, size), dtype=np.int64)

    def rows_ok():
        sq = mat**2
        return all(sq[i].sum() <= row_bound for i in range(size)) and all(
            sq[:, j].sum() <= row_bound for j in range(size)
        )

    def rec(idx):
        if idx == len(cells):
            mats.append(mat.copy())
            return
        i, j = cells[idx]
        for v in range(entry_bound + 1):
            mat[i, j] = v
            if symmetric:
                mat[j, i] = v
            if rows_ok():
                rec(idx + 1)
        mat[i, j] = 0
        if symmetric:
            mat[j, i] = 0

    rec(0)
    return mats


def reference_derive_all(ring, assigned: dict, plan) -> dict | None:
    """Oracle: one tuple at a time, the matrices that ``plan`` derives from the
    ``assigned`` ones, or None if a derived matrix has a negative entry."""
    mats = dict(assigned)
    for s, t, u in plan:
        P = mats[s] @ mats[t]
        for w in range(ring.size):
            if w == u or ring.N[s, t, w] == 0:
                continue
            if w not in mats:
                return None
            P = P - int(ring.N[s, t, w]) * mats[w]
        if np.any(P < 0):
            return None
        mats[u] = P
    return mats if len(mats) == ring.size else None


def reference_canonical_key(matrices, size):
    """Oracle: the lexicographically minimal key over simultaneous boundary
    relabelings, one ``np.ix_`` relabeling at a time over the permutations
    within classes of equal fingerprint."""
    fp = []
    for a in range(size):
        fp.append(
            (
                tuple(int(m[a, a]) for m in matrices),
                tuple(tuple(sorted(m[a])) for m in matrices),
            )
        )
    order = sorted(range(size), key=lambda a: fp[a])
    groups = []
    for a in order:
        if groups and fp[groups[-1][-1]] == fp[a]:
            groups[-1].append(a)
        else:
            groups.append([a])
    best = None
    for parts in itertools.product(*[itertools.permutations(g) for g in groups]):
        perm = [a for part in parts for a in part]
        key = tuple(tuple(m[np.ix_(perm, perm)].reshape(-1)) for m in matrices)
        if best is None or key < best:
            best = key
    return best


def brute_force_nimreps(ring, size: int, tol: float = 1e-9):
    """Oracle: nimrep orbits from generator matrices bounded only by entry
    size and row norm, derived one tuple at a time, verified, deduplicated by
    :func:`reference_canonical_key` and listed in key order.  The fusion ring
    is commutative, so every nimrep has ``n^g n^h = n^h n^g``: one stacked test
    per pair of generators drops the tuples that break it before any is derived."""
    gens, plan = _select_generators(ring)
    candidate_lists = [np.array(_row_norm_generator_matrices(ring, g, size, tol)) for g in gens]
    commute = {
        (i, j): np.all(np.einsum("axy,byz->abxz", A, B) == np.einsum("bxy,ayz->abxz", B, A), axis=(2, 3))
        for (i, A), (j, B) in itertools.combinations(enumerate(candidate_lists), 2)
    }
    found = {}
    eye = np.eye(size, dtype=np.int64)
    for picks in itertools.product(*map(range, map(len, candidate_lists))):
        if not all(ok[picks[i], picks[j]] for (i, j), ok in commute.items()):
            continue
        combo = [cands[k] for cands, k in zip(candidate_lists, picks)]
        mats = reference_derive_all(ring, {0: eye, **dict(zip(gens, combo))}, plan)
        if mats is None:
            continue
        matrices = tuple(mats[s] for s in range(ring.size))
        if Nimrep(ring, matrices).validate():
            continue
        found.setdefault(reference_canonical_key(matrices, size), None)
    return [
        tuple(np.array(k, dtype=np.int64).reshape(size, size) for k in key)
        for key in sorted(found)
    ]


def reference_f_keys(ring):
    """Oracle: the admissible F labels by the former enumeration, one
    ``flatnonzero`` per admissible prefix ``(a, b, e, c, d)`` and a Python sort."""
    adm = ring.N > 0
    keys = [
        (a, b, c, d, e, f)
        for a, b, e in label_tuples(ring.r_key_array)
        for c, d in np.argwhere(adm[e]).tolist()
        for f in np.flatnonzero(adm[b, c] & adm[a, :, d]).tolist()
    ]
    return tuple(sorted(keys))


def vertex_gauge(cat, u):
    """F and R of ``cat`` in the vertex gauge ``u``, a number on each splitting
    vertex ``a b -> c`` (keyed by the ``label_tuples`` of ``ring.r_key_array``)."""
    F, R = fr_tables(cat)
    F = {
        (a, b, c, d, e, f): val * u[a, b, e] * u[e, c, d] / (u[b, c, f] * u[a, f, d])
        for (a, b, c, d, e, f), val in F.items()
    }
    R = {(a, b, c): val * u[a, b, c] / u[b, a, c] for (a, b, c), val in R.items()}
    return F, R


def random_vertex_gauge(cat, rng):
    """``cat`` in a random complex vertex gauge: a phase on each splitting vertex
    ``a b -> c`` with non-vacuum ``a`` and ``b``, so that F is complex."""
    u = {
        key: np.exp(2j * np.pi * rng.random()) if key[0] and key[1] else 1.0
        for key in label_tuples(cat.ring.r_key_array)
    }
    return CategoryPresentation(cat.ring, *vertex_gauge(cat, u))


def gauge_transform(q: QSystemSpec, unitaries: dict) -> QSystemSpec:
    """Rotate the multiplicity space of each sector by a unitary.

    ``unitaries[s]`` is an ``n_s x n_s`` unitary; the vacuum block must be 1.
    """
    sec = q.sectors
    U = np.zeros((len(sec),) * 2, dtype=complex)  # block diagonal over the slots of each sector
    for s, m in enumerate(q.theta):
        if m:
            u = np.asarray(unitaries.get(s, np.eye(m)), dtype=complex)
            if u.shape != (m, m):
                raise StructuralError(f"gauge unitary for sector {s} must be {m}x{m}")
            U[np.ix_(sec == s, sec == s)] = u
    if abs(U[0, 0] - 1.0) > 1e-12:
        raise StructuralError("gauge must fix the vacuum summand")
    lam = np.zeros((len(U),) * 3, dtype=complex)
    for key, val in q.lam.items():
        lam[key] = val
    for mode, u in enumerate((U, U, U.conj())):  # one mode at a time: S^4 steps, not one S^6 loop
        lam = np.moveaxis(np.tensordot(u, lam, axes=(1, mode)), 0, mode)
    return QSystemSpec(q.theta, {key: lam[key] for key in map(tuple, np.argwhere(np.abs(lam) > 1e-15).tolist())})


def reference_axiom_residuals(cat):
    """Oracle: pentagon, hexagon and unitarity residuals of ``validate_axioms``
    as plain loops over the ``fr_tables`` of ``cat``, with a dict join of the F keys."""
    (F, R), N, f_keys = fr_tables(cat), cat.ring.N, label_tuples(cat.ring.f_key_array)
    last: dict = {}
    by_fle: dict = {}
    for key in f_keys:
        last.setdefault(key[:5], []).append(key[5])
        by_fle.setdefault((key[4], key[2], key[3]), []).append(key)

    pentagon = 0.0
    for f, c, d, e, g, l in f_keys:
        for a, b, _, _, _, k in by_fle.get((f, l, e), ()):
            lhs = F[f, c, d, e, g, l] * F[a, b, l, e, f, k]
            rhs = 0.0
            for h in last.get((a, b, c, g, f), ()):
                if N[h, d, k]:
                    rhs += F[a, b, c, g, f, h] * F[a, h, d, e, g, k] * F[b, c, d, k, h, l]
            pentagon = max(pentagon, abs(lhs - rhs))

    # hexagon rows (a,b,c,d,e,g) are the F keys (b,a,c,d,e,g): the fusion rules commute
    hexagon = 0.0
    for b, a, c, d, e, g in f_keys:
        lhs_p = R[a, b, e] * F[b, a, c, d, e, g] * R[a, c, g]
        lhs_m = np.conj(R[b, a, e]) * F[b, a, c, d, e, g] * np.conj(R[c, a, g])
        rhs_p = rhs_m = 0.0
        for f in last.get((a, b, c, d, e), ()):
            term = F[a, b, c, d, e, f] * F[b, c, a, d, f, g]
            rhs_p += term * R[a, f, d]
            rhs_m += term * np.conj(R[f, a, d])
        hexagon = max(hexagon, abs(lhs_p - rhs_p), abs(lhs_m - rhs_m))

    rows = np.einsum("abe,ecd->abcd", N, N)
    if np.any(rows != np.einsum("bcf,afd->abcd", N, N)):
        return pentagon, hexagon, math.inf
    unitarity = max(abs(abs(r) - 1.0) for r in R.values())
    for abcd, block in groupby(f_keys, key=lambda key: key[:4]):
        m = rows[abcd]
        M = np.array([F[key] for key in block]).reshape(m, m)
        unitarity = max(unitarity, float(np.max(np.abs(M @ M.conj().T - np.eye(m)))))
    return pentagon, hexagon, unitarity
