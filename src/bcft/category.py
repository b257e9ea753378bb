"""A braided fusion category presented by F/R symbols, and its axiom validators.

The engine works with multiplicity-free fusion (all ``N[s,t,u] <= 1``).
Morphisms are written in the left-bracketed fusion-tree basis, blockwise over
total charge; the F-matrix convention is

    ``L_e = sum_f F[a,b,c,d][e,f] R_f``

where ``L_e`` fuses ``(ab)_e c -> d`` and ``R_f`` fuses ``a (bc)_f -> d``,
and the braiding acts on an elementary splitting vertex by
``eps(a,b) v[a,b->c] = R[a,b,c] v[b,a->c]``.  Every composite operation
(tensor products, braidings of composite objects, conjugations) reduces to
these two moves plus block linear algebra, so pentagon/hexagon validity of
the input data is exactly what makes the fusion-tree coordinates of the
Q-system and induction layers consistent.

F is stored once, at the rows of ``ring.f_key_array``, and every reader finds
an entry by position, never by search: the keys with prefix ``(a, b, c, d)``
form one block, its rows ``e`` times its columns ``f``, laid out row-major,
so ``ring.f_block_index`` places any label tuple from ``N`` alone.  The
validators sum over the columns of one row of a block (the ``h`` of a
pentagon term, the ``f`` of a hexagon term) by column rank, one term per sum
and rank, and gather the factors at their positions, in chunks bounded by
their number of summed terms.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import StructuralError
from .rings import DEFAULT_TOL, FusionRing

__all__ = [
    "CategoryPresentation",
    "AxiomReport",
    "validate_axioms",
]


def _symbol_values(name: str, supplied, keys: np.ndarray, n: int):
    """The supplied values as an array aligned with the admissible ``keys`` (an
    ascending label array of a ring with ``n`` sectors).

    ``supplied`` maps label tuples to values, or is a pair of a label array with
    one row per entry and the values, in any order.  Every admissible key must
    be supplied exactly once, and nothing else, and every value must be finite.
    """
    width = keys.shape[1]
    if isinstance(supplied, Mapping):
        bad = next((key for key in supplied if len(key) != width), None)
        if bad is not None:
            raise StructuralError(f"inadmissible {name} entry supplied: {bad}")
        supplied = list(supplied), list(supplied.values())
    values = np.array(supplied[1], dtype=complex)  # a copy: the presentation owns it
    labels = np.asarray(supplied[0], dtype=np.int64).reshape(len(values), width)
    if not np.array_equal(labels, keys):
        codes = _code(n, *keys.T)
        # a label outside 0..n-1 gets code -1, which no admissible key has
        given = np.where(((labels >= 0) & (labels < n)).all(axis=1), _code(n, *labels.T), -1)
        present = np.isin(codes, given)
        if not present.all():
            key = tuple(keys[np.argmin(present)].tolist())
            raise StructuralError(f"missing admissible {name} entry {key}")
        known = np.isin(given, codes)
        if not known.all():
            key = tuple(labels[np.argmin(known)].tolist())
            raise StructuralError(f"inadmissible {name} entry supplied: {key}")
        order = np.argsort(given, kind="stable")
        repeat = np.flatnonzero(given[order][1:] == given[order][:-1])
        if len(repeat):
            key = tuple(labels[order[repeat[0]]].tolist())
            raise StructuralError(f"duplicate {name} entry {key}")
        values = values[order]
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise StructuralError(f"non-finite {name} entry {tuple(keys[i].tolist())}: {values[i]}")
    values.setflags(write=False)
    return values


def _code(n: int, *labels):
    """Mixed-radix code base ``n`` of label columns; it ascends with the label tuples."""
    return reduce(lambda code, label: code * n + label, labels)


class CategoryPresentation:
    """Fusion ring plus unitary F and R symbols, each stored once as an array.

    ``f_values`` holds F at the rows of ``ring.f_key_array``, and ``f`` looks
    it up at any labels.  ``R`` is the dense ``(n, n, n)`` array of R
    symbols, 0 where ``N == 0``; both arrays are read-only.  F and R are each
    supplied as a mapping from label tuples to values, or as a pair of a label
    array and the values in the same row order (as the category file loader
    and the su2 catalog do).  All admissible entries must be supplied once
    (including those with vacuum legs), and no others, and all must be finite.

    ``axiom_maps`` maps each theta to its Q-system axiom map, filled on first
    use by ``qsystems._axiom_map``; F and R are read-only, so no map goes stale.
    ``inductions`` maps each live ``QSystemSpec`` (weakly, so an entry goes with
    its Q-system) to its checked kernel problems, filled by ``induction._induction``.
    """

    def __init__(self, ring: FusionRing, F, R):
        if np.any(ring.N > 1):
            s, t, u = np.argwhere(ring.N > 1)[0]
            raise StructuralError(
                f"category engine requires multiplicity-free fusion; "
                f"N[{s},{t},{u}] = {ring.N[s, t, u]}"
            )
        if not np.array_equal(ring.N, ring.N.transpose(1, 0, 2)):
            raise StructuralError("braidable fusion rules must be commutative")
        self.ring = ring
        self.f_values = _symbol_values("F", F, ring.f_key_array, ring.size)
        self.R = np.zeros(ring.N.shape, dtype=complex)
        self.R[ring.N > 0] = _symbol_values("R", R, ring.r_key_array, ring.size)  # r_key_array order
        self.R.setflags(write=False)
        self.axiom_maps = {}
        self.inductions = weakref.WeakKeyDictionary()

    def f(self, a, b, c, d, e, f) -> np.ndarray:
        """``F[a,b,c,d,e,f]`` at broadcast label arrays in ``0..n-1`` (others raise
        ``ValueError``); 0 off the admissible keys.  Read by position in ``ring.f_block_index``."""
        at, off = self.ring._f_at(a, b, c, d, e, f)
        return np.where(off, 0.0, self.f_values.take(at, mode="clip"))


@dataclass
class AxiomReport:
    pentagon_residual: float
    hexagon_residual: float
    unitarity_residual: float
    tol: float

    @property
    def valid(self) -> bool:
        return (
            self.pentagon_residual < self.tol
            and self.hexagon_residual < self.tol
            and self.unitarity_residual < self.tol
        )


# summed terms per pentagon and hexagon chunk: bounds the arrays over a chunk's pairs and rows
_TERMS = 1 << 13


def _runs(first, count):
    """``(owner, pos)``: the positions ``first[i] .. first[i] + count[i] - 1`` of each ``i``, in order."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(owner.size) + np.repeat(first - np.cumsum(count) + count, count)


def _chunks(cost):
    """Consecutive ``(lo, hi)`` key ranges costing at most ``_TERMS`` plus the cost of one key."""
    cut = (np.flatnonzero(np.diff(np.cumsum(cost) // _TERMS)) + 1).tolist()
    return zip([0] + cut, cut + [len(cost)])


def _gap(lhs, rhs):
    """``max |lhs - rhs|``, each modulus by ``hypot``."""
    gap = lhs - rhs
    return np.max(np.hypot(gap.real, gap.imag))


def _row_positions(ring: FusionRing):
    """``(row_at, width, col, col_label)`` of the blocks, by the code ``abcd`` as in
    ``FBlockIndex``: the position of row ``x`` at ``row_at[abcd * n + x]``, the
    width, the rank of column ``x`` at ``col[x * n^4 + abcd]``, and the label of
    the column of rank ``i`` at ``col_label[abcd * n + i]``."""
    start, width, row, col = ring.f_block_index
    n, rank = ring.size, col.reshape(ring.size, -1)
    row_at = np.empty((n**4, n), width.dtype)
    np.multiply(row.reshape(n, -1).T, width[:, None], out=row_at)
    row_at += start[:, None]
    col_label = np.zeros((n**4, n), col.dtype)
    x, abcd = np.nonzero(rank >= 0)
    col_label[abcd, rank[x, abcd]] = x
    return row_at.reshape(-1), width, col, col_label.reshape(-1)


def _pentagon_residual(cat: CategoryPresentation, at) -> float:
    """Pentagon over every pair of F keys ``(f,c,d,e,g,l)``, ``(a,b,l,e,f,k)``: the
    right side sums ``F[a,b,c,g,f,h] F[a,h,d,e,g,k] F[b,c,d,k,h,l]`` over ascending ``h``.

    F is read by position (``at``), never searched.  The pairs come from a
    counting sort of the inner keys by ``(f, l, e)``; each code a pair reads is
    an outer part plus an inner part.  The ``h`` are the columns of row ``f`` of
    block ``(a,b,c,g)``, so the sum runs over their rank ``i``, adding one term
    per pair whose block is wider than ``i`` (a suffix, once sorted by width).
    ``F[a,h,d,e,g,k]`` comes from a table dense in ``h`` that reads 0 where
    ``N[h,d,k] = 0``: a signed zero, so each sum keeps its bits.  A chunk's
    pairs times its widest ``(., ., c, g)`` block bound its terms.
    """
    ring, F = cat.ring, cat.f_values
    n, labels = ring.size, ring.f_key_array.T
    row_at, width, col, col_label = at
    # F[a,h,d,e,g,k] at B_at[B_row[(a,g,k,d,e)] + h]; row 0 and the absent h hold M, and F0[M] = 0
    a, h, d, e, g, k = labels
    rows, inverse = np.unique(_code(n, a, g, k, d, e), return_inverse=True)
    B_at = np.full((len(rows) + 1) * n, len(F), row_at.dtype)
    B_at[(inverse + 1) * n + h] = np.arange(len(F))
    B_row = np.zeros(n**5, np.int32 if (len(rows) + 1) * n < 2**31 else np.int64)
    B_row[rows] = np.arange(n, (len(rows) + 1) * n, n)
    F0 = np.append(F, 0)
    # the inner keys grouped by (f, l, e), each group in ascending key order
    fle = (labels[4] * n + labels[2]) * n + labels[3]
    by_fle = np.argsort(fle, kind="stable")
    size = np.bincount(fle, minlength=n**3)
    first = np.cumsum(size) - size
    a, b, k = labels[0, by_fle], labels[1, by_fle], labels[5, by_fle]
    inner_abcg, inner_bcdk, inner_B, inner_F = (a * n + b) * n**2, b * n**3 + k, (a * n**3 + k * n) * n, F[by_fle]
    del rows, inverse, fle, by_fle, a, b, k  # this pentagon sets the memory peak of validating su2_k
    group = (labels[0] * n + labels[5]) * n + labels[3]
    widest = width.reshape(n * n, n * n).max(axis=0)  # [c, g]: max over a, b of width[a,b,c,g]
    worst = 0.0
    for lo, hi in _chunks(size[group] * widest[labels[1] * n + labels[4]]):
        owner, pair = _runs(first[group[lo:hi]], size[group[lo:hi]])
        f, c, d, e, g, l = labels[:, lo:hi]
        abcg = inner_abcg.take(pair) + (c * n + g).take(owner)
        by_width = np.argsort(width.take(abcg))
        owner, pair, abcg = owner.take(by_width), pair.take(by_width), abcg.take(by_width)
        wide, abcg = width.take(abcg), abcg * n
        row_A = row_at.take(abcg + f.take(owner))
        bcdk = inner_bcdk.take(pair) + ((c * n + d) * n).take(owner)
        col_C, bcdk = col.take(bcdk + (l * n**4).take(owner)), bcdk * n
        base = B_row.take(inner_B.take(pair) + ((g * n**2 + d) * n + e).take(owner))
        acc = np.zeros(len(pair), complex)
        for i, j in enumerate(np.searchsorted(wide, np.arange(wide[-1]), "right").tolist()):
            h = col_label.take(abcg[j:] + i)
            term = F.take(row_A[j:] + i) * F0.take(B_at.take(base[j:] + h))
            term *= F.take(row_at.take(bcdk[j:] + h) + col_C[j:], mode="clip")  # any value where B is 0
            acc[j:] += term
        worst = max(worst, _gap(F[lo:hi].take(owner) * inner_F.take(pair), acc))
    return float(worst)


def _hexagon_residual(cat: CategoryPresentation, at) -> float:
    """Both hexagon orientations for the braiding against the associator.

    The rows ``(a,b,c,d,e,g)`` are the F keys ``(b,a,c,d,e,g)``, since the
    fusion rules are commutative; the right sides sum
    ``F[a,b,c,d,e,f] F[b,c,a,d,f,g]`` times a braid phase over ascending
    ``f``, the columns of row ``e`` of block ``(a,b,c,d)``, by rank as in the
    pentagon.  Chunks are bounded by their exact term count.
    """
    ring, F, R = cat.ring, cat.f_values, cat.R
    n, labels = ring.size, ring.f_key_array.T
    row_at, width, col, col_label = at
    R_p, R_m = R.transpose(0, 2, 1).reshape(-1), np.conj(R.transpose(1, 2, 0)).reshape(-1)  # [a,d,f]: R[a,f,d], R*[f,a,d]
    abcd = _code(n, labels[1], labels[0], labels[2], labels[3])
    worst = 0.0
    for lo, hi in _chunks(width[abcd]):
        key = np.argsort(width.take(abcd[lo:hi])) + lo
        b, a, c, d, e, g = labels.take(key, axis=1)
        rows, block, bcad = F.take(key), abcd.take(key), _code(n, b, c, a, d)  # block (b,c,a,d)
        lhs_p = R[a, b, e] * rows * R[a, c, g]
        lhs_m = np.conj(R[b, a, e]) * rows * np.conj(R[c, a, g])
        wide, row, col_g = width.take(block), row_at.take(block * n + e), col.take(g * n**4 + bcad)
        block, bcad, ad = block * n, bcad * n, (a * n + d) * n
        acc_p, acc_m = np.zeros(hi - lo, complex), np.zeros(hi - lo, complex)
        for i, j in enumerate(np.searchsorted(wide, np.arange(wide[-1]), "right").tolist()):
            f = col_label.take(block[j:] + i)
            prod = F.take(row[j:] + i) * F.take(row_at.take(bcad[j:] + f) + col_g[j:])
            acc_p[j:] += prod * R_p.take(ad[j:] + f)
            acc_m[j:] += prod * R_m.take(ad[j:] + f)
        worst = max(worst, _gap(lhs_p, acc_p), _gap(lhs_m, acc_m))
    return float(worst)


def _unitarity_residual(cat: CategoryPresentation) -> float:
    """R moduli and the F blocks ``F[a,b,c,d]``; ``inf`` if a block is not square."""
    N = cat.ring.N
    if np.any(np.einsum("abe,ecd->abcd", N, N) != np.einsum("bcf,afd->abcd", N, N)):
        return np.inf
    index, F = cat.ring.f_block_index, cat.f_values
    worst = np.max(np.abs(np.abs(cat.R[N > 0]) - 1.0))
    # square blocks: each (a,b,c,d) block is m x m with m its width
    for m in set(index.width[index.width > 0].tolist()):
        blocks = F[index.start[index.width == m, None] + np.arange(m * m)].reshape(-1, m, m)
        worst = np.max(np.abs(blocks @ blocks.conj().transpose(0, 2, 1) - np.eye(m)), initial=worst)
    return float(worst)


def validate_axioms(cat: CategoryPresentation, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Pentagon, hexagon (both orientations) and unitarity residuals."""
    at = _row_positions(cat.ring)
    return AxiomReport(
        pentagon_residual=_pentagon_residual(cat, at),
        hexagon_residual=_hexagon_residual(cat, at),
        unitarity_residual=_unitarity_residual(cat),
        tol=tol,
    )
