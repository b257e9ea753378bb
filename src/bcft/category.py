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
"""

from __future__ import annotations

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
    """The codes of the admissible ``keys`` (an ascending label array of a ring
    with ``n`` sectors) and the supplied values as an array aligned with them.

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
    codes = _code(n, *keys.T)
    # a label outside 0..n-1 gets code -1, which no admissible key has
    given = np.where(((labels >= 0) & (labels < n)).all(axis=1), _code(n, *labels.T), -1)
    if not np.array_equal(given, codes):
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
    return codes, values


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
        self._f_codes, self.f_values = _symbol_values("F", F, ring.f_key_array, ring.size)
        self.R = np.zeros(ring.N.shape, dtype=complex)
        self.R[ring.N > 0] = _symbol_values("R", R, ring.r_key_array, ring.size)[1]  # r_key_array order
        self.R.setflags(write=False)

    def f(self, a, b, c, d, e, f) -> np.ndarray:
        """``F[a,b,c,d,e,f]`` at broadcast label arrays in ``0..n-1``; 0 off the admissible keys."""
        code = np.ravel_multi_index((a, b, c, d, e, f), (self.ring.size,) * 6)  # _code, range-checked
        at = self._f_codes.searchsorted(code)
        return np.where(self._f_codes.take(at, mode="clip") == code, self.f_values.take(at, mode="clip"), 0.0)


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


# F keys per pentagon and hexagon chunk: bounds the pair and term arrays
_CHUNK = 32


def _matches(sorted_codes, query):
    """``(owner, pos)``: each ``pos`` with ``sorted_codes[pos] == query[owner]``, in order."""
    lo, hi = np.searchsorted(sorted_codes, query), np.searchsorted(sorted_codes, query, "right")
    owner = np.repeat(np.arange(len(query)), hi - lo)
    return owner, np.arange(owner.size) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)


def _worst(worst, lhs, owner, terms):
    """Max of ``worst`` and ``|lhs[i] - sum(terms[owner == i])|``, summed in array order."""
    re, im = (np.bincount(owner, part, len(lhs)) for part in (terms.real, terms.imag))
    return np.max(np.hypot(lhs.real - re, lhs.imag - im), initial=worst)


def _pentagon_residual(cat: CategoryPresentation) -> float:
    """Pentagon over every pair of F keys ``(f,c,d,e,g,l)``, ``(a,b,l,e,f,k)``: the
    right side sums ``F[a,b,c,g,f,h] F[a,h,d,e,g,k] F[b,c,d,k,h,l]`` over ascending ``h``."""
    keys, codes, F = cat.ring.f_key_array, cat._f_codes, cat.f_values
    n, N = cat.ring.size, cat.ring.N
    labels, prefix = keys.T, codes // n
    # the inner keys grouped by (f, l, e), each group in ascending key order
    fle = _code(n, labels[4], labels[2], labels[3])
    by_fle = np.argsort(fle, kind="stable")
    fle = fle[by_fle]
    worst = 0.0
    for start in range(0, len(keys), _CHUNK):
        f, c, d, e, g, l = labels[:, start : start + _CHUNK]
        pair, pos = _matches(fle, _code(n, f, l, e))
        outer, inner = start + pair, by_fle[pos]
        (f, c, d, e, g, l), (a, b, _, _, _, k) = labels[:, outer], labels[:, inner]
        term, h_pos = _matches(prefix, _code(n, a, b, c, g, f))
        keep = N[labels[5, h_pos], d[term], k[term]] > 0
        term, h_pos = term[keep], h_pos[keep]
        (a, b, c, g, _, h), (d, e, k, l) = labels[:, h_pos], (d[term], e[term], k[term], l[term])
        rhs = F[h_pos] * F[np.searchsorted(codes, _code(n, a, h, d, e, g, k))]
        rhs *= F[np.searchsorted(codes, _code(n, b, c, d, k, h, l))]
        worst = _worst(worst, F[outer] * F[inner], term, rhs)
    return float(worst)


def _hexagon_residual(cat: CategoryPresentation) -> float:
    """Both hexagon orientations for the braiding against the associator.

    The rows ``(a,b,c,d,e,g)`` are the F keys ``(b,a,c,d,e,g)``, since the
    fusion rules are commutative; the right sides sum over ascending ``f``.
    """
    keys, codes, F = cat.ring.f_key_array, cat._f_codes, cat.f_values
    n, N = cat.ring.size, cat.ring.N
    labels, prefix, R = keys.T, codes // n, cat.R
    worst = 0.0
    for start in range(0, len(keys), _CHUNK):
        b, a, c, d, e, g = labels[:, start : start + _CHUNK]
        row = F[start : start + _CHUNK]
        lhs_p = R[a, b, e] * row * R[a, c, g]
        lhs_m = np.conj(R[b, a, e]) * row * np.conj(R[c, a, g])
        term, f_pos = _matches(prefix, _code(n, a, b, c, d, e))
        (a, b, c, d, _, f), g = labels[:, f_pos], g[term]
        prod = F[f_pos] * F[np.searchsorted(codes, _code(n, b, c, a, d, f, g))]
        worst = _worst(worst, lhs_p, term, prod * R[a, f, d])
        worst = _worst(worst, lhs_m, term, prod * np.conj(R[f, a, d]))
    return float(worst)


def _unitarity_residual(cat: CategoryPresentation) -> float:
    """R moduli and the F blocks ``F[a,b,c,d]``; ``inf`` if a block is not square."""
    N = cat.ring.N
    rows = np.einsum("abe,ecd->abcd", N, N)
    if np.any(rows != np.einsum("bcf,afd->abcd", N, N)):
        return np.inf
    keys, codes, F = cat.ring.f_key_array, cat._f_codes, cat.f_values
    worst = np.max(np.abs(np.abs(cat.R[N > 0]) - 1.0))
    # sorted f_key_array: each (a,b,c,d) block is one run, row-major in (e, f)
    starts = np.flatnonzero(np.diff(codes // cat.ring.size**2, prepend=-1))
    sizes = rows[tuple(keys[starts, :4].T)]
    for m in set(sizes.tolist()):
        blocks = F[starts[sizes == m, None] + np.arange(m * m)].reshape(-1, m, m)
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
