"""Morphism calculus over a braided fusion category presented by F/R symbols.

The engine works with multiplicity-free fusion (all ``N[s,t,u] <= 1``).
Morphisms are stored blockwise over total charge in the left-bracketed
fusion-tree basis; the F-matrix convention is

    ``L_e = sum_f F[a,b,c,d][e,f] R_f``

where ``L_e`` fuses ``(ab)_e c -> d`` and ``R_f`` fuses ``a (bc)_f -> d``,
and the braiding acts on an elementary splitting vertex by
``eps(a,b) v[a,b->c] = R[a,b,c] v[b,a->c]``.  Every composite operation
(tensor products, braidings of words, conjugations) reduces to these two
moves plus block linear algebra, so pentagon/hexagon validity of the input
data is exactly what makes the engine consistent.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .errors import DataInconsistencyError, StructuralError
from .rings import DEFAULT_TOL, FusionRing
from .words import Word, hom_dim, simple_word, tree_index, trees

__all__ = [
    "CategoryPresentation",
    "Morphism",
    "AxiomReport",
    "identity",
    "compose",
    "tensor",
    "braiding",
    "conjugation_pair",
    "validate_axioms",
]


_TABLE_CHUNK = 1 << 16  # rows turned into Python tuples at a time, to bound the temporary lists


def _symbol_table(name: str, supplied, keys: np.ndarray, n: int):
    """Read-only ``{key: complex}`` over exactly the admissible ``keys`` (an
    ascending label array of a ring with ``n`` sectors), the codes of ``keys``
    and the values as an array aligned with them.

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
    values = np.asarray(supplied[1], dtype=complex)
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
    table = {}
    for start in range(0, len(keys), _TABLE_CHUNK):
        rows = slice(start, start + _TABLE_CHUNK)
        table.update(zip(zip(*keys[rows].T.tolist()), values[rows].tolist()))
    return MappingProxyType(table), codes, values


def _code(n: int, *labels):
    """Mixed-radix code base ``n`` of label columns; it ascends with the label tuples."""
    return reduce(lambda code, label: code * n + label, labels)


class CategoryPresentation:
    """Fusion ring plus unitary F and R symbol tables.

    ``F`` maps the admissible 6-tuples ``ring.f_keys`` to complex values and
    ``R`` maps the admissible triples ``ring.r_keys`` to unit-modulus values;
    both are read-only mappings.  Each is supplied as a mapping, or as a pair
    of a label array and the values in the same row order (as the category
    file loader and the su2 catalog do).  All admissible entries must be
    supplied once (including those with vacuum legs), and no others, and all
    must be finite.
    """

    def __init__(self, ring: FusionRing, F: dict, R: dict):
        if np.any(ring.N > 1):
            s, t, u = np.argwhere(ring.N > 1)[0]
            raise StructuralError(
                f"category engine requires multiplicity-free fusion; "
                f"N[{s},{t},{u}] = {ring.N[s, t, u]}"
            )
        if not np.array_equal(ring.N, ring.N.transpose(1, 0, 2)):
            raise StructuralError("braidable fusion rules must be commutative")
        self.ring = ring
        self.F, self._f_codes, self._f_values = _symbol_table("F", F, ring.f_key_array, ring.size)
        self.R, _, self._r_values = _symbol_table("R", R, ring.r_key_array, ring.size)
        self._split_cache: dict = {}

    @property
    def f_array(self):
        """``ring.f_key_array`` (column-major, so each label is contiguous),
        its ascending codes (see ``_code``) and the F values aligned with them."""
        return self.ring.f_key_array, self._f_codes, self._f_values

    @property
    def r_array(self):
        """``ring.r_key_array`` and the R values aligned with it."""
        return self.ring.r_key_array, self._r_values

    # -- split isomorphism -------------------------------------------------

    def split_cols(self, word: Word, k: int, c: int):
        """Ordered column index ``(a, i, b, j)`` of the split-at-``k`` basis."""
        ring = self.ring
        left, right = word[:k], word[k:]
        cols = []
        for a in range(ring.size):
            da = hom_dim(ring, left, a)
            if da == 0:
                continue
            for b in range(ring.size):
                if not ring.N[a, b, c]:
                    continue
                db = hom_dim(ring, right, b)
                for i in range(da):
                    for j in range(db):
                        cols.append((a, i, b, j))
        return cols

    def split(self, word: Word, k: int):
        """Unitary matrices expressing split-at-``k`` vectors in the tree basis.

        Returns ``{c: (matrix, cols)}`` with ``matrix`` of shape
        ``(hom_dim(c, word), len(cols))`` whose column ``(a, i, b, j)`` is the
        tree-basis coordinate vector of ``(u_i^a (x) v_j^b) . vertex[c->ab]``.
        """
        key = (word, k)
        hit = self._split_cache.get(key)
        if hit is not None:
            return hit
        ring = self.ring
        n = len(word)
        if not 0 <= k <= n:
            raise StructuralError("split position out of range")
        out = {}
        if k == 0 or k == n or n - k == 1:
            for c in range(ring.size):
                tlist = trees(ring, word, c)
                if not tlist:
                    continue
                cols = self.split_cols(word, k, c)
                M = np.zeros((len(tlist), len(cols)), dtype=complex)
                tidx = tree_index(ring, word, c)
                for pos, (a, i, b, j) in enumerate(cols):
                    if k == 0:
                        tree = trees(ring, word, c)[j]
                    elif k == n:
                        tree = trees(ring, word, c)[i]
                    else:
                        prefix = trees(ring, word[:k], a)[i]
                        last = trees(ring, word[k:], b)[j]
                        tree = prefix + ((last[0][0], c),)
                    M[tidx[tree], pos] = 1.0
                out[c] = (M, cols)
            self._split_cache[key] = out
            return out

        # generic case: recurse on the right part
        B = word[k:]
        S1 = self.split(B, 1)
        SK1 = self.split(word, k + 1)
        left = word[:k]
        mid = word[k : k + 1]
        for c in range(ring.size):
            tlist = trees(ring, word, c)
            if not tlist:
                continue
            cols = self.split_cols(word, k, c)
            M = np.zeros((len(tlist), len(cols)), dtype=complex)
            MK1, colsK1 = SK1[c]
            colK1_pos = {col: p for p, col in enumerate(colsK1)}
            left_trees = {a: trees(ring, left, a) for a in range(ring.size)}
            for pos, (a, i, b, j) in enumerate(cols):
                M1, cols1 = S1[b]
                prefix = left_trees[a][i]
                for p1, (p, ip, b2, j2) in enumerate(cols1):
                    coef1 = np.conj(M1[j, p1])
                    if coef1 == 0:
                        continue
                    slot_idx = trees(ring, mid, p)[ip][0][0]
                    for a2 in ring.channels(a, p):
                        if not ring.N[a2, b2, c]:
                            continue
                        fcoef = np.conj(self.F[a, p, b2, c, a2, b])
                        if fcoef == 0:
                            continue
                        tree2 = prefix + ((slot_idx, a2),)
                        i2 = tree_index(ring, word[: k + 1], a2)[tree2]
                        M[:, pos] += coef1 * fcoef * MK1[:, colK1_pos[(a2, i2, b2, j2)]]
            out[c] = (M, cols)
        self._split_cache[key] = out
        return out


class Morphism:
    """Blockwise linear map between tree bases of two object words."""

    __slots__ = ("cat", "source", "target", "blocks")

    def __init__(self, cat: CategoryPresentation, source: Word, target: Word, blocks):
        self.cat = cat
        self.source = source
        self.target = target
        ring = cat.ring
        full = {}
        for c in range(ring.size):
            ds = hom_dim(ring, source, c)
            dt = hom_dim(ring, target, c)
            blk = blocks.get(c)
            if blk is None:
                blk = np.zeros((dt, ds), dtype=complex)
            else:
                blk = np.asarray(blk, dtype=complex)
                if blk.shape != (dt, ds):
                    raise StructuralError(
                        f"block at charge {c} has shape {blk.shape}, expected {(dt, ds)}"
                    )
            full[c] = blk
        self.blocks = full

    def dagger(self) -> "Morphism":
        return Morphism(
            self.cat,
            self.target,
            self.source,
            {c: b.conj().T for c, b in self.blocks.items()},
        )

    def __add__(self, other: "Morphism") -> "Morphism":
        self._check_parallel(other)
        return Morphism(
            self.cat,
            self.source,
            self.target,
            {c: self.blocks[c] + other.blocks[c] for c in self.blocks},
        )

    def __sub__(self, other: "Morphism") -> "Morphism":
        self._check_parallel(other)
        return Morphism(
            self.cat,
            self.source,
            self.target,
            {c: self.blocks[c] - other.blocks[c] for c in self.blocks},
        )

    def __mul__(self, scalar) -> "Morphism":
        return Morphism(
            self.cat, self.source, self.target,
            {c: scalar * b for c, b in self.blocks.items()},
        )

    __rmul__ = __mul__

    def _check_parallel(self, other: "Morphism"):
        if self.source != other.source or self.target != other.target:
            raise StructuralError("morphisms are not parallel")

    def norm_inf(self) -> float:
        vals = [np.max(np.abs(b)) for b in self.blocks.values() if b.size]
        return float(max(vals)) if vals else 0.0

    def residual(self, other: "Morphism") -> float:
        return (self - other).norm_inf()

    def __repr__(self):
        return f"Morphism({self.source} -> {self.target})"


def identity(cat: CategoryPresentation, word: Word) -> Morphism:
    blocks = {
        c: np.eye(hom_dim(cat.ring, word, c), dtype=complex)
        for c in range(cat.ring.size)
    }
    return Morphism(cat, word, word, blocks)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """``f`` after ``g``."""
    if g.target != f.source:
        raise StructuralError("compose: source of f must equal target of g")
    return Morphism(
        f.cat, g.source, f.target, {c: f.blocks[c] @ g.blocks[c] for c in f.blocks}
    )


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Tensor product, recoupled to the left-bracketed tree basis."""
    cat = f.cat
    src = f.source + g.source
    tgt = f.target + g.target
    Ms = cat.split(src, len(f.source))
    Mt = cat.split(tgt, len(f.target))
    blocks = {}
    for c in range(cat.ring.size):
        if c not in Ms or c not in Mt:
            continue
        Msc, cols_s = Ms[c]
        Mtc, cols_t = Mt[c]
        O = np.zeros((len(cols_t), len(cols_s)), dtype=complex)
        tpos: dict = {}
        for p, (a, i, b, j) in enumerate(cols_t):
            tpos.setdefault((a, b), []).append((p, i, j))
        for q, (a, i, b, j) in enumerate(cols_s):
            fb = f.blocks[a]
            gb = g.blocks[b]
            for p, i2, j2 in tpos.get((a, b), ()):
                O[p, q] = fb[i2, i] * gb[j2, j]
        blocks[c] = Mtc @ O @ Msc.conj().T
    return Morphism(cat, src, tgt, blocks)


def _factor_braid(cat: CategoryPresentation, X: Word, Y: Word) -> Morphism:
    """Elementary braiding of two single-factor words via R symbols."""
    ring = cat.ring
    src = X + Y
    tgt = Y + X
    blocks = {}
    for c in range(ring.size):
        src_trees = trees(ring, src, c)
        if not src_trees:
            continue
        tidx = tree_index(ring, tgt, c)
        B = np.zeros((len(tidx), len(src_trees)), dtype=complex)
        xslots = src.slots(0)
        yslots = src.slots(1)
        for q, tree in enumerate(src_trees):
            (sx, _), (sy, _) = tree
            a = xslots[sx][0]
            b = yslots[sy][0]
            B[tidx[((sy, b), (sx, c))], q] = cat.R[a, b, c]
        blocks[c] = B
    return Morphism(cat, src, tgt, blocks)


def braiding(cat: CategoryPresentation, X: Word, Y: Word, orientation: str = "plus") -> Morphism:
    """Braiding ``eps(X, Y): X Y -> Y X`` built from R symbols by recoupling.

    ``orientation="minus"`` gives the opposite braiding
    ``eps^-(X, Y) = eps(Y, X)^*``.
    """
    if orientation == "minus":
        return braiding(cat, Y, X, "plus").dagger()
    if orientation != "plus":
        raise StructuralError("orientation must be 'plus' or 'minus'")
    if len(X) == 0:
        return identity(cat, Y)
    if len(Y) == 0:
        return identity(cat, X)
    if len(X) == 1 and len(Y) == 1:
        return _factor_braid(cat, X, Y)
    if len(Y) >= 2:
        Y1, Y2 = Y[:1], Y[1:]
        first = tensor(braiding(cat, X, Y1), identity(cat, Y2))
        second = tensor(identity(cat, Y1), braiding(cat, X, Y2))
        return compose(second, first)
    X1, X2 = X[:1], X[1:]
    first = tensor(identity(cat, X1), braiding(cat, X2, Y))
    second = tensor(braiding(cat, X1, Y), identity(cat, X2))
    return compose(second, first)


def conjugation_pair(cat: CategoryPresentation, rho: int):
    """Standard solution ``(R: 1 -> conj(rho) rho, Rbar: 1 -> rho conj(rho))``.

    Normalized so ``R* R = d(rho)`` and the conjugate equations hold.
    """
    ring = cat.ring
    rbar = ring.dual[rho]
    d = float(ring.fp_dims[rho])
    w_rr = simple_word(rbar, rho)
    w_rrb = simple_word(rho, rbar)
    if hom_dim(ring, w_rr, 0) != 1 or hom_dim(ring, w_rrb, 0) != 1:
        raise DataInconsistencyError("conjugation channels are not one-dimensional")
    R = Morphism(cat, Word(), w_rr, {0: np.array([[np.sqrt(d)]])})
    E = Morphism(cat, Word(), w_rrb, {0: np.array([[np.sqrt(d)]])})
    id_rho = identity(cat, simple_word(rho))
    # zig-zag (E* x id) . (id x R) is a scalar on rho; absorb it into Rbar
    zig = compose(tensor(E.dagger(), id_rho), tensor(id_rho, R))
    s = zig.blocks[rho][0, 0]
    if abs(abs(s) - 1.0) > 100 * DEFAULT_TOL:
        raise DataInconsistencyError(
            f"no standard conjugation solution at tolerance (zig-zag modulus {abs(s):.6f})"
        )
    Rbar = (1.0 / np.conj(s)) * E
    # verify both conjugate equations
    id_rbar = identity(cat, simple_word(rbar))
    eq1 = compose(tensor(Rbar.dagger(), id_rho), tensor(id_rho, R))
    eq2 = compose(tensor(R.dagger(), id_rbar), tensor(id_rbar, Rbar))
    r = max(eq1.residual(id_rho), eq2.residual(id_rbar))
    if r > 100 * DEFAULT_TOL:
        raise DataInconsistencyError(f"conjugate equations fail (residual {r:.2e})")
    return R, Rbar


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
    keys, codes, F = cat.f_array
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
    keys, codes, F = cat.f_array
    n, N = cat.ring.size, cat.ring.N
    labels, prefix = keys.T, codes // n
    R = np.zeros(N.shape, dtype=complex)
    R[N > 0] = cat._r_values  # r_keys are the nonzero entries of N, in order
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
    keys, codes, F = cat.f_array
    worst = np.max(np.abs(np.abs(cat._r_values) - 1.0))
    # sorted f_keys: each (a,b,c,d) block is one run, row-major in (e, f)
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
