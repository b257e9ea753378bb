"""Modular S/T data on top of a fusion ring.

``S`` is the full unitary symmetric matrix, ``T`` is stored as the diagonal
phase vector only (central charge enters elsewhere, through characters).  The
Verlinde formula bridges back to the fusion ring and is the main consistency
check between the two layers.
"""

from __future__ import annotations

import numpy as np

from .errors import DataInconsistencyError, StructuralError
from .rings import DEFAULT_TOL, FusionRing

__all__ = [
    "ModularData",
    "validate_modular",
    "verlinde_fusion",
    "quantum_dimensions",
]


class ModularData:
    """Unitary S matrix and diagonal T phases for a fusion ring."""

    def __init__(self, ring: FusionRing, S, T):
        n = ring.size
        S = np.asarray(S, dtype=complex)
        T = np.asarray(T, dtype=complex).reshape(-1)
        if S.shape != (n, n):
            raise StructuralError(f"S must be {n}x{n}, got {S.shape}")
        if T.shape != (n,):
            raise StructuralError(f"T must have {n} diagonal entries, got {T.shape}")
        for name, M in (("S", S), ("T", T)):
            if not np.isfinite(M).all():
                index = tuple(np.argwhere(~np.isfinite(M))[0].tolist())
                raise StructuralError(f"non-finite {name} entry {index}")
        S.setflags(write=False)
        T.setflags(write=False)
        self.ring = ring
        self.S = S
        self.T = T

    @property
    def size(self) -> int:
        return self.ring.size


def validate_modular(md: ModularData, tol: float = DEFAULT_TOL) -> list[str]:
    """Check unitarity, symmetry, S^2 = C and (ST)^3 = S^2 up to a global phase."""
    S, T = md.S, md.T
    n = md.size
    bad: list[str] = []

    r = np.max(np.abs(S - S.T))
    if r > tol:
        bad.append(f"S not symmetric (residual {r:.2e})")
    r = np.max(np.abs(S @ S.conj().T - np.eye(n)))
    if r > tol:
        bad.append(f"S not unitary (residual {r:.2e})")
    if np.any(S[0].real <= 0) or np.max(np.abs(S[0].imag)) > tol:
        bad.append("first row of S must be real and strictly positive")
    r = np.max(np.abs(np.abs(T) - 1.0))
    if r > tol:
        bad.append(f"T entries not unimodular (residual {r:.2e})")

    r = np.max(np.abs(S @ S - np.eye(n)[list(md.ring.dual)]))  # C[s, dual s] = 1
    if r > tol:
        bad.append(f"S^2 != C (residual {r:.2e})")

    # (ST)^3 = S^2 holds up to the e^{2 pi i c / 8} phase; compare after
    # normalizing both sides by their (0,0) entry.
    ST = S * T[np.newaxis, :]
    lhs = ST @ ST @ ST
    rhs = S @ S
    if abs(lhs[0, 0]) < tol or abs(rhs[0, 0]) < tol:
        bad.append("(ST)^3 comparison degenerate: vanishing (0,0) entry")
    else:
        r = np.max(np.abs(lhs / lhs[0, 0] - rhs / rhs[0, 0]))
        if r > tol:
            bad.append(f"(ST)^3 != S^2 up to global phase (residual {r:.2e})")
    return bad


def verlinde_fusion(md: ModularData) -> FusionRing:
    """Fusion ring from the Verlinde formula.

    ``N[s,t,u] = sum_r S[s,r] S[t,r] conj(S[u,r]) / S[0,r]``, rounded to the
    nearest integers; raises if the rounding residual exceeds 1e-7.
    """
    S = md.S
    weights = 1.0 / S[0]
    Nc = np.einsum("sr,tr,ur,r->stu", S, S, S.conj(), weights)
    N = np.rint(Nc.real).astype(np.int64)
    resid = np.max(np.abs(Nc - N))
    if resid > 1e-7:
        raise DataInconsistencyError(
            f"S is not the S-matrix of an integer fusion ring "
            f"(rounding residual {resid:.2e})"
        )
    return FusionRing(md.ring.labels, md.ring.dual, N)


def quantum_dimensions(md: ModularData, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Quantum dimensions ``S[0,s] / S[0,0]``; must agree with the FP dimensions."""
    d = (md.S[0] / md.S[0, 0]).real
    resid = np.max(np.abs(d - md.ring.fp_dims))
    if resid > tol:
        raise DataInconsistencyError(
            f"quantum dimensions disagree with Frobenius-Perron dimensions "
            f"(residual {resid:.2e})"
        )
    return d
