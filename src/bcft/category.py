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
validators sum over one row of a block at a time (the ``h`` of a pentagon
term, the ``f`` of a hexagon term), a contiguous run of positions, and gather
the other factors at their positions, in chunks bounded by their number of
summed terms.
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
        at = self.ring.f_positions(a, b, c, d, e, f)
        return np.where(at >= 0, self.f_values.take(at, mode="clip"), 0.0)


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


# summed terms per pentagon and hexagon chunk: bounds the pair and term arrays
_TERMS = 1 << 13


def _runs(first, count):
    """``(owner, pos)``: the positions ``first[i] .. first[i] + count[i] - 1`` of each ``i``, in order."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(owner.size) + np.repeat(first - np.cumsum(count) + count, count)


def _chunks(cost):
    """Consecutive ``(lo, hi)`` key ranges costing at most ``_TERMS`` plus the cost of one key."""
    cut = (np.flatnonzero(np.diff(np.cumsum(cost) // _TERMS)) + 1).tolist()
    return zip([0] + cut, cut + [len(cost)])


def _worst(worst, lhs, owner, terms):
    """Max of ``worst`` and ``|lhs[i] - sum(terms[owner == i])|``, summed in array order."""
    re, im = (np.bincount(owner, part, len(lhs)) for part in (terms.real, terms.imag))
    return np.max(np.hypot(lhs.real - re, lhs.imag - im), initial=worst)


def _row_positions(ring: FusionRing):
    """``(row_at, width, col)`` flat as in ``FBlockIndex``: the position of row
    ``x`` of block ``abcd`` at ``x * n^4 + abcd``, the block's width, and the
    rank of its column ``x``.  So the F key ``(a,b,c,d,e,f)`` is at
    ``row_at[e * n^4 + abcd] + col[f * n^4 + abcd]``."""
    start, width, row, col = ring.f_block_index
    row_at = row.reshape(ring.size, -1) * width
    row_at += start
    return row_at.reshape(-1), width, col


def _pentagon_residual(cat: CategoryPresentation) -> float:
    """Pentagon over every pair of F keys ``(f,c,d,e,g,l)``, ``(a,b,l,e,f,k)``: the
    right side sums ``F[a,b,c,g,f,h] F[a,h,d,e,g,k] F[b,c,d,k,h,l]`` over ascending ``h``.

    F is read by position (``FusionRing.f_block_index``), never searched.  The
    pairs come from a counting sort of the inner keys by ``(f, l, e)``.  The
    ``h`` of a pair are row ``f`` of block ``(a,b,c,g)``, one run of positions,
    kept where ``N[h,d,k] > 0``; the other factors are gathered at row ``g``,
    column ``k`` of block ``(a,h,d,e)`` and at row ``h``, column ``l`` of block
    ``(b,c,d,k)``.  Their codes are a part from the inner key plus a part from
    the outer key, computed once per pair, plus a multiple of ``h``.  A chunk's
    pairs times its widest ``(., ., c, g)`` block bound its terms.
    """
    ring, F = cat.ring, cat.f_values
    n, labels = ring.size, ring.f_key_array.T
    row_at, width, col = _row_positions(ring)
    adm = ring.N.reshape(-1) > 0
    # the inner keys grouped by (f, l, e), each group in ascending key order
    fle = (labels[4] * n + labels[2]) * n + labels[3]
    by_fle = np.argsort(fle, kind="stable")
    size = np.bincount(fle, minlength=n**3)
    first = np.cumsum(size) - size
    a, b, inner_k = labels[0, by_fle], labels[1, by_fle], labels[5, by_fle]
    inner_ab, inner_a, inner_bk, inner_F = (a * n + b) * n**2, a * n**3, b * n**3 + inner_k, F[by_fle]
    group = (labels[0] * n + labels[5]) * n + labels[3]
    widest = width.reshape(n * n, n * n).max(axis=0)  # [c, g]: max over a, b of width[a,b,c,g]
    worst = 0.0
    for lo, hi in _chunks(size[group] * widest[labels[1] * n + labels[4]]):
        count = size[group[lo:hi]]
        _, at = _runs(first[group[lo:hi]], count)
        f, c, d, e, g, l = (np.repeat(x, count) for x in labels[:, lo:hi])
        k = inner_k[at]
        abcg = inner_ab[at] + c * n + g
        term, h_pos = _runs(row_at[f * n**4 + abcg], width[abcg])
        hn2 = labels[5, h_pos] * n**2
        keep = np.flatnonzero(adm[hn2 + (d * n + k)[term]])  # a gather beats a boolean mask here
        term, h_pos, hn2 = term[keep], h_pos[keep], hn2[keep]
        ade = inner_a[at] + d * n + e  # the code of block (a,h,d,e) is ade + h n^2
        bcdk = inner_bk[at] + (c * n + d) * n  # the code of block (b,c,d,k)
        rhs = F[h_pos] * F[row_at[hn2 + (ade + g * n**4)[term]] + col[hn2 + (ade + k * n**4)[term]]]
        rhs *= F[row_at[hn2 * n**2 + bcdk[term]] + col[l * n**4 + bcdk][term]]
        worst = _worst(worst, np.repeat(F[lo:hi], count) * inner_F[at], term, rhs)
    return float(worst)


def _hexagon_residual(cat: CategoryPresentation) -> float:
    """Both hexagon orientations for the braiding against the associator.

    The rows ``(a,b,c,d,e,g)`` are the F keys ``(b,a,c,d,e,g)``, since the
    fusion rules are commutative; the right sides sum
    ``F[a,b,c,d,e,f] F[b,c,a,d,f,g]`` times a braid phase over ascending ``f``.
    F is read by position, never searched: the ``f`` of a row are row ``e`` of
    block ``(a,b,c,d)``, one run of positions, and ``F[b,c,a,d,f,g]`` is
    gathered at row ``f``, column ``g`` of block ``(b,c,a,d)``.  Chunks are
    bounded by their exact term count.
    """
    ring, F, R = cat.ring, cat.f_values, cat.R
    n, labels = ring.size, ring.f_key_array.T
    row_at, width, col = _row_positions(ring)
    b, a, c, d = labels[:4]
    abcd = ((a * n + b) * n + c) * n + d
    worst = 0.0
    for lo, hi in _chunks(width[abcd]):
        b, a, c, d, e, g = labels[:, lo:hi]
        rows = F[lo:hi]
        lhs_p = R[a, b, e] * rows * R[a, c, g]
        lhs_m = np.conj(R[b, a, e]) * rows * np.conj(R[c, a, g])
        term, f_pos = _runs(row_at[e * n**4 + abcd[lo:hi]], width[abcd[lo:hi]])
        bcad = ((b * n + c) * n + a) * n + d  # block (b,c,a,d)
        f, a, d = labels[5, f_pos], a[term], d[term]
        prod = F[f_pos] * F[row_at[f * n**4 + bcad[term]] + col[g * n**4 + bcad][term]]
        worst = _worst(worst, lhs_p, term, prod * R[a, f, d])
        worst = _worst(worst, lhs_m, term, prod * np.conj(R[f, a, d]))
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
    return AxiomReport(
        pentagon_residual=_pentagon_residual(cat),
        hexagon_residual=_hexagon_residual(cat),
        unitarity_residual=_unitarity_residual(cat),
        tol=tol,
    )
