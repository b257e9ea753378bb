"""Morphism calculus over a braided fusion category: the tests' reference.

An object is a tensor word of factors, each a direct sum of simple sectors.
The fusion-tree basis of ``Hom(c, W)`` is the left-bracketed path basis: a
tree picks one summand slot per factor and the intermediate charge after each
fusion step, ordered depth-first by slot, then by channel.  Morphisms are
stored blockwise over total charge in that basis, with the F and braiding
conventions of :mod:`bcft.category`.  The package computes in fusion-tree
coordinates only; the tests check its coordinate maps against this calculus.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from conftest import fr_tables

from bcft.category import CategoryPresentation
from bcft.errors import DataInconsistencyError, StructuralError
from bcft.qsystems import QSystemSpec, _check_lambda, _dense
from bcft.rings import DEFAULT_TOL, FusionRing

# per presentation: {(word, k): split}; an entry goes with its presentation
_SPLITS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# per ring: {(word, c): trees} and {(word, c): tree index}; an entry goes with its ring
_TREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_TREE_INDEX: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class Word:
    """Tensor word: per factor, a tuple of ``(sector, multiplicity)`` pairs in
    ascending sector order.  The empty word is the unit object."""

    factors: tuple = ()

    def __len__(self):
        return len(self.factors)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.factors + other.factors)

    def slots(self, i: int) -> list:
        """Summand slots ``(sector, copy)`` of factor ``i``, one per copy."""
        return [(s, copy) for s, mult in self.factors[i] for copy in range(mult)]


def simple_word(*sectors: int) -> Word:
    """Word of simple factors, one per sector index."""
    return Word(tuple(((int(s), 1),) for s in sectors))


def sum_word(multiplicities) -> Word:
    """One-factor word for the direct sum with the given multiplicity vector."""
    return Word((tuple((s, int(m)) for s, m in enumerate(multiplicities) if m > 0),))


def channels(ring: FusionRing, s: int, t: int) -> list:
    """Sectors ``u`` with ``N[s, t, u] > 0``, in index order."""
    return np.flatnonzero(ring.N[s, t]).tolist()


def trees(ring: FusionRing, word: Word, c: int):
    """Fusion trees of ``Hom(c, word)``, cached per ring.

    A tree is a tuple of ``(slot_index, charge)`` pairs, one per factor;
    ``charge`` is the intermediate after fusing factors ``0..i`` and the last
    charge equals ``c``.  The empty word supports only the vacuum.
    """
    cache = _TREES.setdefault(ring, {})
    key = (word, c)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _enumerate_trees(ring, word, c)
    return hit


def _enumerate_trees(ring: FusionRing, word: Word, c: int):
    n, out = len(word), []

    # the first step fuses onto the vacuum, the unit, so its charge is the first sector
    def extend(pos, charge, prefix):
        if pos == n:
            if charge == c:
                out.append(tuple(prefix))
            return
        for slot_idx, (sector, _copy) in enumerate(word.slots(pos)):
            for nxt in channels(ring, charge, sector):
                prefix.append((slot_idx, nxt))
                extend(pos + 1, nxt, prefix)
                prefix.pop()

    extend(0, 0, [])
    return tuple(out)


def hom_dim(ring: FusionRing, word: Word, c: int) -> int:
    return len(trees(ring, word, c))


def tree_index(ring: FusionRing, word: Word, c: int):
    """Read-only position of each tree in ``trees(ring, word, c)``, cached per ring."""
    cache = _TREE_INDEX.setdefault(ring, {})
    key = (word, c)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = MappingProxyType({t: i for i, t in enumerate(trees(ring, word, c))})
    return hit


def subword(word: Word, start: int, stop: int | None = None) -> Word:
    """The word of factors ``start .. stop - 1`` of ``word``."""
    return Word(word.factors[start:stop])


# -- split isomorphism -------------------------------------------------------


def split_cols(cat: CategoryPresentation, word: Word, k: int, c: int):
    """Ordered column index ``(a, i, b, j)`` of the split-at-``k`` basis."""
    ring = cat.ring
    left, right = subword(word, 0, k), subword(word, k)
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


def split(cat: CategoryPresentation, word: Word, k: int):
    """Unitary matrices expressing split-at-``k`` vectors in the tree basis.

    Returns ``{c: (matrix, cols)}`` with ``matrix`` of shape
    ``(hom_dim(c, word), len(cols))`` whose column ``(a, i, b, j)`` is the
    tree-basis coordinate vector of ``(u_i^a (x) v_j^b) . vertex[c->ab]``.
    """
    cache = _SPLITS.setdefault(cat, {})
    key = (word, k)
    hit = cache.get(key)
    if hit is not None:
        return hit
    ring = cat.ring
    n = len(word)
    if not 0 <= k <= n:
        raise StructuralError("split position out of range")
    out = {}
    if k == 0 or k == n or n - k == 1:
        for c in range(ring.size):
            tlist = trees(ring, word, c)
            if not tlist:
                continue
            cols = split_cols(cat, word, k, c)
            M = np.zeros((len(tlist), len(cols)), dtype=complex)
            tidx = tree_index(ring, word, c)
            for pos, (a, i, b, j) in enumerate(cols):
                if k == 0:
                    tree = trees(ring, word, c)[j]
                elif k == n:
                    tree = trees(ring, word, c)[i]
                else:
                    prefix = trees(ring, subword(word, 0, k), a)[i]
                    last = trees(ring, subword(word, k), b)[j]
                    tree = prefix + ((last[0][0], c),)
                M[tidx[tree], pos] = 1.0
            out[c] = (M, cols)
        cache[key] = out
        return out

    # generic case: recurse on the right part
    B = subword(word, k)
    F = fr_tables(cat)[0]
    S1 = split(cat, B, 1)
    SK1 = split(cat, word, k + 1)
    left = subword(word, 0, k)
    mid = subword(word, k, k + 1)
    for c in range(ring.size):
        tlist = trees(ring, word, c)
        if not tlist:
            continue
        cols = split_cols(cat, word, k, c)
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
                for a2 in channels(ring, a, p):
                    if not ring.N[a2, b2, c]:
                        continue
                    fcoef = np.conj(F[a, p, b2, c, a2, b])
                    if fcoef == 0:
                        continue
                    tree2 = prefix + ((slot_idx, a2),)
                    i2 = tree_index(ring, subword(word, 0, k + 1), a2)[tree2]
                    M[:, pos] += coef1 * fcoef * MK1[:, colK1_pos[(a2, i2, b2, j2)]]
        out[c] = (M, cols)
    cache[key] = out
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
    Ms = split(cat, src, len(f.source))
    Mt = split(cat, tgt, len(f.target))
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
    ring, R = cat.ring, fr_tables(cat)[1]
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
            B[tidx[((sy, b), (sx, c))], q] = R[a, b, c]
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
        Y1, Y2 = subword(Y, 0, 1), subword(Y, 1)
        first = tensor(braiding(cat, X, Y1), identity(cat, Y2))
        second = tensor(identity(cat, Y1), braiding(cat, X, Y2))
        return compose(second, first)
    X1, X2 = subword(X, 0, 1), subword(X, 1)
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


# -- Q-systems ---------------------------------------------------------------


def assemble_x(q: QSystemSpec, cat: CategoryPresentation, require_isometry: bool = True) -> Morphism:
    """Coefficient tensor -> morphism ``x: theta -> theta theta``."""
    _check_lambda(q, cat) if require_isometry else _dense(q, cat.ring)
    ring = cat.ring
    th = sum_word(q.theta)
    word2 = th + th
    # the block at charge c has one column per copy of sector c in theta
    blocks = {
        c: np.zeros((hom_dim(ring, word2, c), m), dtype=complex) for c, m in enumerate(q.theta)
    }
    for (p, qq, r), val in q.lam.items():
        c, copy = q.slots[r]
        blocks[c][tree_index(ring, word2, c)[(p, q.sector(p)), (qq, c)], copy] = val
    return Morphism(cat, th, word2, blocks)


def frobenius_residual(q: QSystemSpec, cat: CategoryPresentation) -> float:
    """Residual of ``x x* = (id (x) x*) (x (x) id)`` through compose/tensor."""
    th = sum_word(q.theta)
    x = assemble_x(q, cat, require_isometry=False)
    id_th = identity(cat, th)
    lhs = compose(x, x.dagger())
    rhs = compose(tensor(id_th, x.dagger()), tensor(x, id_th))
    return lhs.residual(rhs)
