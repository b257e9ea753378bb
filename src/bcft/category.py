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

from dataclasses import dataclass
from itertools import groupby
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


def _symbol_table(name: str, supplied: dict, keys: tuple) -> MappingProxyType:
    """Read-only ``{key: complex}`` over exactly the admissible ``keys``, in their order."""
    for key in keys:
        if key not in supplied:
            raise StructuralError(f"missing admissible {name} entry {key}")
    if len(supplied) != len(keys):
        admissible = set(keys)
        bad = next(k for k in supplied if k not in admissible)
        raise StructuralError(f"inadmissible {name} entry supplied: {bad}")
    return MappingProxyType({key: complex(supplied[key]) for key in keys})


class CategoryPresentation:
    """Fusion ring plus unitary F and R symbol tables.

    ``F`` maps the admissible 6-tuples ``ring.f_keys`` to complex values and
    ``R`` maps the admissible triples ``ring.r_keys`` to unit-modulus values;
    both are read-only mappings.  All admissible entries must be supplied
    (including those with vacuum legs), and no others.
    """

    def __init__(self, ring: FusionRing, F: dict, R: dict, tol: float = DEFAULT_TOL):
        if np.any(ring.N > 1):
            s, t, u = np.argwhere(ring.N > 1)[0]
            raise StructuralError(
                f"category engine requires multiplicity-free fusion; "
                f"N[{s},{t},{u}] = {ring.N[s, t, u]}"
            )
        if not np.array_equal(ring.N, ring.N.transpose(1, 0, 2)):
            raise StructuralError("braidable fusion rules must be commutative")
        self.ring = ring
        self.tol = tol
        self.F = _symbol_table("F", F, ring.f_keys)
        self.R = _symbol_table("R", R, ring.r_keys)
        self._split_cache: dict = {}

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
    if abs(abs(s) - 1.0) > 100 * cat.tol:
        raise DataInconsistencyError(
            f"no standard conjugation solution at tolerance (zig-zag modulus {abs(s):.6f})"
        )
    Rbar = (1.0 / np.conj(s)) * E
    # verify both conjugate equations
    id_rbar = identity(cat, simple_word(rbar))
    eq1 = compose(tensor(Rbar.dagger(), id_rho), tensor(id_rho, R))
    eq2 = compose(tensor(R.dagger(), id_rbar), tensor(id_rbar, Rbar))
    r = max(eq1.residual(id_rho), eq2.residual(id_rbar))
    if r > 100 * cat.tol:
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


def _last_labels(ring: FusionRing) -> dict:
    """``{key[:5]: [key[5], ...]}`` over ``ring.f_keys``; each list ascends."""
    out: dict = {}
    for key in ring.f_keys:
        out.setdefault(key[:5], []).append(key[5])
    return out


def _pentagon_residual(cat: CategoryPresentation) -> float:
    """Pentagon over every pair of F keys ``(f,c,d,e,g,l)``, ``(a,b,l,e,f,k)``."""
    ring, F = cat.ring, cat.F
    N = ring.N
    hs = _last_labels(ring)
    by_fle: dict = {}
    for key in ring.f_keys:
        by_fle.setdefault((key[4], key[2], key[3]), []).append(key)
    worst = 0.0
    for f, c, d, e, g, l in ring.f_keys:
        outer = F[f, c, d, e, g, l]
        for a, b, _, _, _, k in by_fle.get((f, l, e), ()):
            lhs = outer * F[a, b, l, e, f, k]
            rhs = 0.0
            for h in hs.get((a, b, c, g, f), ()):
                if N[h, d, k]:
                    rhs += F[a, b, c, g, f, h] * F[a, h, d, e, g, k] * F[b, c, d, k, h, l]
            worst = max(worst, abs(lhs - rhs))
    return worst


def _hexagon_residual(cat: CategoryPresentation) -> float:
    """Both hexagon orientations for the braiding against the associator.

    The rows ``(a,b,c,d,e,g)`` are the F keys ``(b,a,c,d,e,g)``, since the
    fusion rules are commutative.
    """
    ring, F, R = cat.ring, cat.F, cat.R
    fs = _last_labels(ring)
    worst = 0.0
    for b, a, c, d, e, g in ring.f_keys:
        lhs_p = R[a, b, e] * F[b, a, c, d, e, g] * R[a, c, g]
        lhs_m = np.conj(R[b, a, e]) * F[b, a, c, d, e, g] * np.conj(R[c, a, g])
        rhs_p = 0.0
        rhs_m = 0.0
        for f in fs.get((a, b, c, d, e), ()):
            term = F[a, b, c, d, e, f] * F[b, c, a, d, f, g]
            rhs_p += term * R[a, f, d]
            rhs_m += term * np.conj(R[f, a, d])
        worst = max(worst, abs(lhs_p - rhs_p), abs(lhs_m - rhs_m))
    return worst


def _unitarity_residual(cat: CategoryPresentation) -> float:
    """R moduli and the F blocks ``F[a,b,c,d]``; ``inf`` if a block is not square."""
    ring, F, R = cat.ring, cat.F, cat.R
    N = ring.N
    rows = np.einsum("abe,ecd->abcd", N, N)
    if np.any(rows != np.einsum("bcf,afd->abcd", N, N)):
        return np.inf
    worst = 0.0
    for r in R.values():
        worst = max(worst, abs(abs(r) - 1.0))
    # sorted f_keys: each (a,b,c,d) block is one run, row-major in (e, f)
    for abcd, block in groupby(ring.f_keys, key=lambda key: key[:4]):
        m = rows[abcd]
        M = np.array([F[key] for key in block]).reshape(m, m)
        worst = max(worst, float(np.max(np.abs(M @ M.conj().T - np.eye(m)))))
    return worst


def validate_axioms(cat: CategoryPresentation, tol: float | None = None) -> AxiomReport:
    """Pentagon, hexagon (both orientations) and unitarity residuals."""
    return AxiomReport(
        pentagon_residual=_pentagon_residual(cat),
        hexagon_residual=_hexagon_residual(cat),
        unitarity_residual=_unitarity_residual(cat),
        tol=cat.tol if tol is None else tol,
    )
