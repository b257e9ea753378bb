"""Fusion rings: sector sets with integer fusion multiplicities.

A :class:`FusionRing` is the combinatorial skeleton of a rational sector
theory: an ordered list of sector labels (index 0 is the vacuum), a
conjugation involution and the multiplicity tensor ``N[s, t, u]`` counting
channels in ``s x t -> u``.  Construction checks shapes and, through
:func:`check_integers`, that ``dual`` and ``N`` hold integers; the axioms are
checked by :func:`validate_ring`, which returns a list of human-readable
violations (empty iff the ring is valid).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import StructuralError

__all__ = [
    "FusionRing",
    "validate_ring",
    "fp_dimensions",
    "global_dimension",
]

DEFAULT_TOL = 1e-9


def check_integers(values, what: str) -> np.ndarray:
    """``values`` as a new int64 array, if every entry is an integer; integral
    floats such as ``2.0`` count.  A fraction, a NaN, an infinity, a value
    outside int64, a non-zero imaginary part or a non-number is malformed
    (StructuralError), never truncated."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind in "bi" or (kind == "u" and not np.any(values > 2**63 - 1)):
        return values.astype(np.int64)
    # comparisons with NaN are False, so NaN fails both tests
    if kind not in "fc" or not np.all((np.abs(values) < 2.0**63) & (values == np.rint(values.real))):
        raise StructuralError(f"{what} must be finite integers")
    return values.real.astype(np.int64)


class FBlockIndex(NamedTuple):
    """Positions of the F labels in ``FusionRing.f_key_array``: see
    ``FusionRing.f_block_index``.  The four arrays are flat and read-only,
    indexed through ``abcd``, the mixed-radix code of ``(a, b, c, d)``."""

    start: np.ndarray  # [abcd]: position of the block's first key
    width: np.ndarray  # [abcd]: number of columns f of the block
    row: np.ndarray  # [e * n^4 + abcd]: rank of e among the block's rows, -1 off them
    col: np.ndarray  # [f * n^4 + abcd]: rank of f among the block's columns, -1 off them


class FusionRing:
    """Sector labels, conjugation and fusion multiplicities ``N[s, t, u]``.

    Immutable after construction; derived quantities, such as the admissible
    F and R labels as arrays, are cached on the ring and freed with it.
    """

    def __init__(self, labels, dual, N):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if n == 0:
            raise StructuralError("a fusion ring needs at least the vacuum sector")
        if len(set(labels)) != n:
            raise StructuralError("sector labels must be distinct")
        dual = check_integers(dual, "dual entries")
        if dual.shape != (n,) or np.any((dual < 0) | (dual >= n)):
            raise StructuralError("dual must be a length-%d list of sector indices" % n)
        dual = tuple(dual.tolist())
        N = np.asarray(N)
        if N.shape != (n, n, n):
            raise StructuralError(
                f"N must have shape ({n}, {n}, {n}), got {N.shape}"
            )
        N = check_integers(N, "N entries")
        N.setflags(write=False)
        self.labels = labels
        self.dual = dual
        self.N = N
        self._hash = hash((labels, dual, N.tobytes()))

    @property
    def size(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FusionRing)
            and self.labels == other.labels
            and self.dual == other.dual
            and np.array_equal(self.N, other.N)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FusionRing({list(self.labels)})"

    @cached_property
    def r_key_array(self) -> np.ndarray:
        """Admissible R-symbol labels as a read-only int64 ``(M, 3)`` array: the
        triples ``(a, b, c)`` with ``N[a, b, c] > 0``, in ascending order."""
        keys = np.argwhere(self.N > 0)
        keys.setflags(write=False)
        return keys

    @cached_property
    def f_key_array(self) -> np.ndarray:
        """Admissible F-symbol labels ``(a, b, c, d, e, f)`` as a read-only int64
        ``(M, 6)`` array in ascending order, column-major so that each label is
        contiguous.

        ``e`` is the intermediate of ``(a b) c -> d`` and ``f`` that of
        ``a (b c) -> d``, so all of ``N[a,b,e]``, ``N[e,c,d]``, ``N[b,c,f]``
        and ``N[a,f,d]`` are positive.  The keys are listed block by block
        from ``f_block_index``: each row ``e`` of a block ``(a, b, c, d)`` is
        followed by that block's columns ``f``.
        """
        n, (_, width, row, col) = self.size, self.f_block_index
        # (block, e) of every row and (block, f) of every column, each in ascending order
        row_block, e = np.nonzero(row.reshape(n, -1).T >= 0)
        f = np.nonzero(col.reshape(n, -1).T >= 0)[1]
        width = width.astype(np.int64)
        count = width[row_block]  # a row has one key per column of its block
        row_of = np.repeat(np.arange(len(row_block)), count)  # the row of each key
        keys = np.empty((len(row_of), 6), dtype=np.int64, order="F")
        for i, label in enumerate(np.unravel_index(row_block, (n,) * 4) + (e,)):
            np.take(label, row_of, out=keys[:, i])
        # a key's f: the first column of its block in f, plus the key's rank within its row
        at = ((np.cumsum(width) - width)[row_block] - (np.cumsum(count) - count)).take(row_of)
        del row_of  # each array over the keys is 33 MB at su2_28
        at += np.arange(len(at))
        np.take(f, at, out=keys[:, 5])
        keys.setflags(write=False)
        return keys

    @cached_property
    def f_block_index(self) -> FBlockIndex:
        """Where each admissible F label sits in ``f_key_array``, from ``N`` alone.

        The keys with prefix ``(a, b, c, d)`` form one block, the product of its
        rows ``{e : N[a,b,e] N[e,c,d] > 0}`` and its columns
        ``{f : N[b,c,f] N[a,f,d] > 0}``, laid out row-major.  So the key
        ``(a, b, c, d, e, f)`` is at ``start[abcd] + row[e * n^4 + abcd] *
        width[abcd] + col[f * n^4 + abcd]``.  The ranks are ``int8`` up to
        ``n = 126``, so the index costs about ``2 n^5`` bytes; it is built one
        row and column label at a time, with ``n^4`` temporaries.
        """
        n, adm = self.size, self.N > 0
        rank = np.min_scalar_type(-n - 2)  # ranks 0..n-1, -1 off the block, and counts to n + 1
        row, col = np.empty((n,) * 5, rank), np.empty((n,) * 5, rank)
        # per block, the rank the next row (column) gets, plus one
        row_next, col_next = np.ones((n,) * 4, rank), np.ones((n,) * 4, rank)
        for x in range(n):
            for ranks, next_, member in (
                (row, row_next, adm[:, :, x, None, None] & adm[x]),  # [a,b,c,d]: N[a,b,x] N[x,c,d]
                (col, col_next, adm[None, :, :, x, None] & adm[:, x, None, None, :]),  # N[b,c,x] N[a,x,d]
            ):
                np.multiply(next_, member, out=ranks[x])
                ranks[x] -= 1
                next_ += member
        height, width = (row_next - 1).reshape(-1), (col_next - 1).reshape(-1)
        counts = height.astype(np.int64) * width
        # positions fit the narrower type whenever M does, and rank * width + col < M
        pos = np.int32 if counts.sum() < 2**31 else np.int64
        start = (np.cumsum(counts) - counts).astype(pos)
        index = FBlockIndex(start, width.astype(pos), row.reshape(-1), col.reshape(-1))
        for part in index:
            part.setflags(write=False)
        return index

    def f_positions(self, a, b, c, d, e, f) -> np.ndarray:
        """Positions in ``f_key_array`` of the broadcast labels ``(a,b,c,d,e,f)``,
        -1 off the admissible keys; a label outside ``0..n-1`` raises ``ValueError``."""
        at, off = self._f_at(a, b, c, d, e, f)
        return np.where(off, -1, at)

    def _f_at(self, a, b, c, d, e, f) -> tuple:
        """``(at, off)``: ``off`` is True off the admissible keys, ``at`` the position on them."""
        n, (start, width, row, col) = self.size, self.f_block_index
        block = np.ravel_multi_index((a, b, c, d), (n,) * 4)  # each call range-checks its labels
        rank_e = row.take(np.ravel_multi_index((e, block), (n, n**4)))
        rank_f = col.take(np.ravel_multi_index((f, block), (n, n**4)))
        return start.take(block) + rank_e * width.take(block) + rank_f, (rank_e | rank_f) < 0  # a rank is -1 off

    @cached_property
    def fp_dims(self) -> np.ndarray:
        """Frobenius-Perron dimension of each sector."""
        return np.array(
            [max(np.abs(np.linalg.eigvals(self.N[s]))) for s in range(self.size)]
        )

    @cached_property
    def dim_floor(self) -> np.ndarray:
        """``floor(d_s)`` of each sector as a read-only int64 array: the bound on
        a Q-system's multiplicities, on nimrep entries and on nimrep diagonals.
        It is the only floor of ``fp_dims`` taken; ``DEFAULT_TOL`` keeps an
        integer dimension that the eigensolver returns a hair low at its value,
        and no caller's tolerance moves it."""
        floor = np.floor(self.fp_dims + DEFAULT_TOL).astype(np.int64)
        floor.setflags(write=False)
        return floor

    @cached_property
    def global_dim(self) -> float:
        return float(np.sum(self.fp_dims**2))


def validate_ring(ring: FusionRing, tol: float = DEFAULT_TOL) -> list[str]:
    """Check the fusion-ring axioms; return the list of violations (empty iff valid)."""
    n = ring.size
    N = ring.N
    dual = ring.dual
    bad: list[str] = []

    if np.any(N < 0):
        s, t, u = np.argwhere(N < 0)[0]
        bad.append(f"negative multiplicity N[{s},{t},{u}] = {N[s, t, u]}")

    # vacuum is a two-sided unit
    eye = np.eye(n, dtype=np.int64)
    if not np.array_equal(N[0], eye):
        bad.append("vacuum is not a left unit: N[0,t,u] != delta(t,u)")
    if not np.array_equal(N[:, 0, :], eye):
        bad.append("vacuum is not a right unit: N[s,0,u] != delta(s,u)")

    # conjugation structure
    if dual[0] != 0:
        bad.append("dual(0) != 0")
    for s in range(n):
        if dual[dual[s]] != s:
            bad.append(f"dual is not an involution at sector {s}")
            break
    conj = list(dual)
    want = eye[conj]  # want[s, t] = 1 iff t == dual(s)
    for s, t in np.argwhere(N[:, :, 0] != want):
        bad.append(f"conjugation: N[{s},{t},0] = {N[s, t, 0]}, expected {want[s, t]}")

    # associativity: sum_e N[s,t,e] N[e,u,f] == sum_e N[t,u,e] N[s,e,f]
    left = np.einsum("ste,euf->stuf", N, N)
    right = np.einsum("tue,sef->stuf", N, N)
    if not np.array_equal(left, right):
        s, t, u, f = np.argwhere(left != right)[0]
        bad.append(
            f"associativity fails at (s,t,u,f)=({s},{t},{u},{f}): "
            f"{left[s, t, u, f]} != {right[s, t, u, f]}"
        )

    # Frobenius reciprocity: N[s,t,u] = N[dual(s),u,t] = N[u,dual(t),s]
    fails = (N != N[conj].transpose(0, 2, 1)) | (N != N[:, conj].transpose(2, 1, 0))
    if np.any(fails):
        s, t, u = np.argwhere(fails)[0]
        bad.append(f"Frobenius reciprocity fails at (s,t,u)=({s},{t},{u})")
    return bad


def fp_dimensions(ring: FusionRing) -> np.ndarray:
    """Frobenius-Perron dimensions; checked to satisfy the dimension identity."""
    d = ring.fp_dims
    resid = np.max(np.abs(np.outer(d, d) - np.einsum("stu,u->st", ring.N, d)))
    if resid > max(DEFAULT_TOL, 1e3 * np.finfo(float).eps * ring.size):
        raise StructuralError(
            f"Frobenius-Perron dimensions inconsistent (residual {resid:.2e}); "
            "is the ring valid?"
        )
    return d


def global_dimension(ring: FusionRing) -> float:
    """Global dimension (mu-index) sum_s d_s^2."""
    fp_dimensions(ring)
    return ring.global_dim
