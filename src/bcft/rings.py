"""Fusion rings: sector sets with integer fusion multiplicities.

A :class:`FusionRing` is the combinatorial skeleton of a rational sector
theory: an ordered list of sector labels (index 0 is the vacuum), a
conjugation involution and the multiplicity tensor ``N[s, t, u]`` counting
channels in ``s x t -> u``.  Construction only checks shapes; the axioms are
checked by :func:`validate_ring`, which returns a list of human-readable
violations (empty iff the ring is valid).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import StructuralError

__all__ = [
    "FusionRing",
    "validate_ring",
    "fp_dimensions",
    "global_dimension",
]

DEFAULT_TOL = 1e-9


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
        dual = tuple(int(d) for d in dual)
        if len(dual) != n or any(not 0 <= d < n for d in dual):
            raise StructuralError("dual must be a length-%d list of sector indices" % n)
        N = np.asarray(N)
        if N.shape != (n, n, n):
            raise StructuralError(
                f"N must have shape ({n}, {n}, {n}), got {N.shape}"
            )
        if not np.issubdtype(N.dtype, np.integer):
            rounded = np.rint(np.real(N)).astype(np.int64)
            if np.max(np.abs(N - rounded)) > 0:
                raise StructuralError("N entries must be integers")
            N = rounded
        N = N.astype(np.int64)
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

    def fusion_matrix(self, s: int) -> np.ndarray:
        """Matrix ``(N^s)[t, u] = N[s, t, u]``."""
        return self.N[s]

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
        and ``N[a,f,d]`` are positive.  This is the package's one enumeration
        of admissible F labels: for each ``a``, one broadcast of the four
        conditions over the axes ``(b, c, d, e, f)``, an ``n^5`` temporary.
        """
        adm = self.N > 0
        ecd = adm.transpose(1, 2, 0)[None, :, :, :, None]  # [., c, d, e, .] = N[e,c,d] > 0
        bcf = adm[:, :, None, None, :]
        rows = [
            np.argwhere(adm[a][:, None, None, :, None] & ecd & bcf & adm[a].T[None, None, :, None, :])
            for a in range(self.size)
        ]
        keys = np.empty((sum(map(len, rows)), 6), dtype=np.int64, order="F")
        keys[:, 0] = np.repeat(np.arange(self.size), list(map(len, rows)))
        np.concatenate(rows, out=keys[:, 1:])
        keys.setflags(write=False)
        return keys

    @cached_property
    def fp_dims(self) -> np.ndarray:
        """Frobenius-Perron dimension of each sector."""
        return np.array(
            [max(np.abs(np.linalg.eigvals(self.N[s]))) for s in range(self.size)]
        )

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


def fp_dimensions(ring: FusionRing, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Frobenius-Perron dimensions; checked to satisfy the dimension identity."""
    d = ring.fp_dims
    resid = np.max(np.abs(np.outer(d, d) - np.einsum("stu,u->st", ring.N, d)))
    if resid > max(tol, 1e3 * np.finfo(float).eps * ring.size):
        raise StructuralError(
            f"Frobenius-Perron dimensions inconsistent (residual {resid:.2e}); "
            "is the ring valid?"
        )
    return d


def global_dimension(ring: FusionRing) -> float:
    """Global dimension (mu-index) sum_s d_s^2."""
    fp_dimensions(ring)
    return ring.global_dim
