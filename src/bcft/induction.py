"""Coupling matrices from Q-systems via the charged-intertwiner linear problem.

A boundary charged field at sector pair ``(sigma, tau)`` corresponds to an
intertwiner between the two oppositely braided extensions of ``sigma`` and
``tau``.  Expanding it over the canonical charged isometry ``x`` (the
coefficients ``lam`` of the Q-system) reduces this to a finite kernel problem
on ``n in Hom(theta tau, sigma)``:

    ``K(n) = (n (x) id) . (id (x) eps+(theta,tau)) . (x (x) id)
             - eps-(theta,sigma) . (id (x) n) . (x (x) id)``

Both maps of this module are written in fusion-tree coordinates, as explicit
expressions in ``lam``, F and R; ``s(p)`` is the sector of the theta slot
``p``.  Both take the slot sectors and dense ``lam`` that ``_check_lambda``
returns.  ``_induction`` keeps these and every pair's kernel matrix in
``cat.inductions``, beside ``cat.axiom_maps``, so a Q-system is checked once and
each matrix gathered once and split (``_split``) when its pair is first read.

* The kernel matrix (``_kernel_matrices``).  Its columns are the slots ``p0``
  with ``N[s(p0), tau, sigma]``, i.e. the basis of ``Hom(theta tau, sigma)``.
  Its rows are the entries of ``K(n): theta tau -> sigma theta``, in blocks
  by ascending charge ``c``, each row-major over the target slot ``r``
  (``N[sigma, s(r), c]``) and the source slot ``p`` (``N[s(p), tau, c]``).
  The entry is

      ``lam[p0,r,p] sum_f F[s p0, s r, tau, c, s p, f] R[s r, tau, f]
                          conj(F[s p0, tau, s r, c, sigma, f])
        - lam[r,p0,p] F[s r, s p0, tau, c, s p, sigma] conj(R[sigma, s r, c])``.

  ``theta`` braids forward past ``tau`` and backward past ``sigma``.  The
  opposite choice counts the same intertwiners with ``sigma`` and ``tau``
  exchanged, so it gives Z transposed (Z = <alpha+, alpha->); the tests show
  this on the non-symmetric Z of Spin(8)_1.
* The field lift (``_lift_matrix``).  A kernel vector ``n`` gives the field
  ``phi = (id (x) n (x) id) . (x (x) id) . (id (x) cup_tau)`` in
  ``Hom(theta, theta sigma tau-bar)``, with the standard cup
  ``sqrt(d_tau)``.  Its coefficient at the slot ``p`` and the tree
  ``((a), (sigma, g), (tau-bar, s p))`` is

      ``sqrt(d_tau) conj(F[s p, tau, tau-bar, s p, g, 0])
        sum_b n_b lam[a,b,p] F[s a, s b, tau, g, s p, sigma]``.

Kernel dimensions assemble into the coupling matrix Z (a modular invariant);
the lifted kernel vectors, normalized on the vacuum channel (the Gram matrix
of their ``p = 0`` coefficients), give the boundary field coefficients.
Integer outputs are only accepted when the singular-value spectrum shows a
clean gap.  The tests check both maps entry by entry against a morphism
calculus built from tensor products, braidings and the standard cup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .category import CategoryPresentation, _runs
from .classify import check_coupling
from .errors import DataInconsistencyError, NumericDegeneracyError, StructuralError
from .qsystems import QSystemSpec, _check_lambda, _require_bound, _scatter
from .rings import DEFAULT_TOL, FusionRing

__all__ = [
    "coupling_from_qsystem",
    "charged_field_basis",
    "BoundaryFieldBasis",
    "theta_plus",
    "IndexLedger",
    "index_ledger",
    "dhr_orbit_thetas",
    "kernel_split",
]

SV_RTOL = 1e-7
GAP_MIN = 1e3


def _kernel_matrices(cat, sec, lam, pairs) -> list:
    """Matrices of K on Hom(theta tau, sigma) at each ``(sigma, tau)`` of ``pairs``,
    in the layout of the module docstring: one gather over these pairs only."""
    N, R = cat.ring.N > 0, cat.R
    sigma, tau = np.reshape(pairs, (-1, 2)).T
    # rows (pair k, c, r, p) and columns (pair k, p0), each in ascending order
    krc = N[sigma][:, sec].transpose(0, 2, 1)  # [k, c, r]: N[sigma, s r, c]
    kcp = N[sec][:, tau].transpose(1, 2, 0)  # [k, c, p]: N[s p, tau, c]
    k, c, r, p = np.nonzero(krc[:, :, :, None] & kcp[:, :, None, :])
    col_k, p0 = np.nonzero(N[sec, tau[:, None], sigma[:, None]])
    shapes = np.stack([np.bincount(k, minlength=len(sigma)), np.bincount(col_k, minlength=len(sigma))], 1)
    lo, hi = np.searchsorted(col_k, k), np.searchsorted(col_k, k, "right")
    row, col = _runs(lo, hi - lo)  # the entries, row-major within each pair
    k, c, r, p, p0 = k[row], c[row], r[row], p[row], p0[col]
    s, t, s0, sr, sp = sigma[k], tau[k], sec[p0], sec[r], sec[p]
    term, f = np.nonzero(N[sr, t] & N[s0, :, c])  # per entry, ascending f
    a, b, u, d = s0[term], sr[term], t[term], c[term]
    F1, F2 = cat.f(a, [b, u], [u, b], d, [sp[term], s[term]], f)  # F[a,b,u,d,sp,f], F[a,u,b,d,s,f]
    braided = F1 * R[b, u, f] * np.conj(F2)
    entries = lam[p0, r, p] * _scatter(term, braided, len(k))
    entries -= lam[r, p0, p] * cat.f(sr, s0, t, c, sp, s) * np.conj(R[s, sr, c])
    ends = np.cumsum(shapes.prod(axis=1))[:-1]
    return [block.reshape(shape) for block, shape in zip(np.split(entries, ends), shapes)]


def _lift_matrix(cat, sec, lam, sigma, tau):
    """The field lift ``n -> phi`` as a matrix over the kernel columns; also the row index.

    Row ``(p, a, g)`` is the coefficient of ``phi`` at the theta slot ``p``
    and the tree ``((a), (sigma, g), (tau-bar, s p))``; the rows run over
    ``p`` and then over the trees of ``theta sigma tau-bar`` with charge
    ``s p``, i.e. ascending ``(a, g)``.
    """
    ring, N, tb = cat.ring, cat.ring.N > 0, cat.ring.dual[tau]
    p, a, g = np.nonzero(N[sec, sigma][None, :, :] & N[:, tb, sec].T[:, None, :])  # N[s a, sigma, g] N[g, tb, s p]
    cols = np.flatnonzero(N[sec, tau, sigma])
    sp = sec[p]
    cup = np.sqrt(float(ring.fp_dims[tau])) * np.conj(cat.f(sp, tau, tb, sp, g, 0))
    F = cat.f(sec[a][:, None], sec[cols], tau, g[:, None], sp[:, None], sigma)
    return cup[:, None] * lam[a[:, None], cols, p[:, None]] * F, tuple(zip(p.tolist(), a.tolist(), g.tolist()))


def kernel_split(M: np.ndarray):
    """Kernel dimension and basis by singular-value thresholding.

    Requires a clean spectral gap across the cut; ambiguous spectra raise
    :class:`NumericDegeneracyError` rather than rounding silently.
    """
    k = M.shape[1]
    if k == 0:
        return 0, np.zeros((0, 0), dtype=complex), np.inf
    if M.shape[0] == 0:
        return k, np.eye(k, dtype=complex), np.inf
    _, svals, vh = np.linalg.svd(M)
    svals = np.concatenate([svals, np.zeros(k - len(svals))])
    smax = svals[0]
    if smax < 1e-12:
        return k, np.eye(k, dtype=complex), np.inf
    cut = svals < SV_RTOL * smax
    dim = int(np.sum(cut))
    if 0 < dim < k:
        s_kept = svals[k - dim - 1]
        s_drop = svals[k - dim]
        gap = s_kept / max(s_drop, 1e-300)
        if gap < GAP_MIN:
            raise NumericDegeneracyError(
                f"no clear singular-value gap (ratio {gap:.1f} < {GAP_MIN:g}); "
                f"spectrum {svals}"
            )
    elif dim == 0 and svals[-1] < 10 * SV_RTOL * smax:
        raise NumericDegeneracyError(
            f"smallest singular value {svals[-1]:.2e} sits at the zero threshold; "
            f"spectrum {svals}"
        )
    else:
        gap = np.inf
    return dim, vh.conj().T[:, k - dim :], gap


def _induction(cat: CategoryPresentation, q: QSystemSpec) -> tuple:
    """The checked slot sectors and dense ``lam`` of ``q``, and its kernel matrix per
    sector pair, kept in ``cat.inductions`` while ``q`` lives; a ``q`` that fails
    the isometry check raises here and is not kept."""
    if q not in cat.inductions:
        sec, lam = _check_lambda(q, cat)
        pairs = list(product(range(cat.ring.size), repeat=2))
        cat.inductions[q] = sec, lam, dict(zip(pairs, _kernel_matrices(cat, sec, lam, pairs)))
    return cat.inductions[q]


def _split(splits: dict, pair: tuple) -> tuple:
    """``(dim, kernel)`` at the sector ``pair``, which replaces its matrix in
    ``splits``; a matrix without a clean gap stays, and raises on every read."""
    entry = splits[pair]
    if isinstance(entry, np.ndarray):
        entry = splits[pair] = kernel_split(entry)[:2]
    return entry


def coupling_from_qsystem(cat: CategoryPresentation, q: QSystemSpec) -> np.ndarray:
    """Coupling matrix ``Z[sigma, tau] = dim ker K`` over all sector pairs."""
    splits, n = _induction(cat, q)[2], cat.ring.size
    Z = np.array([_split(splits, pair)[0] for pair in product(range(n), repeat=2)], dtype=np.int64).reshape(n, n)
    if Z[0, 0] != 1:
        raise DataInconsistencyError(
            f"Z[0,0] = {Z[0, 0]} != 1: the Q-system is not irreducible or the "
            "kernel computation is inconsistent"
        )
    return Z


@dataclass
class BoundaryFieldBasis:
    """Normalized kernel basis at one sector pair, with tree coefficients."""

    sigma: int
    tau: int
    fields: tuple  # phi_i: theta -> theta sigma tau-bar as {charge: block}, one column per copy
    coefficients: np.ndarray  # [i, (p_slot, q_slot, intermediate)]: the lift's rows
    coefficient_index: tuple  # (p_slot, q_slot, intermediate) per column
    projector: np.ndarray  # kernel projector in coefficient space (basis-free)
    gram_residual: float


def charged_field_basis(
    cat: CategoryPresentation,
    q: QSystemSpec,
    sigma: int,
    tau: int,
) -> BoundaryFieldBasis:
    """Kernel basis at ``(sigma, tau)`` normalized per the vacuum channel.

    Kernel vectors ``n: theta tau -> sigma`` are lifted to charged-field
    morphisms ``phi: theta -> theta sigma tau-bar`` by
    ``phi = (id (x) n (x) id) . (x (x) id) . (id_theta (x) cup_tau)``
    (``_lift_matrix``), and normalized so that the vacuum-channel Gram matrix
    of ``phi_i* phi_j`` is ``d_sigma d_tau`` times the identity.  Each field
    is returned as its tree-basis blocks ``{charge: ndarray}``.  A label that
    is not an integer in ``0..n-1`` (a float or a bool, say) is structural.
    """
    n = cat.ring.size
    for label in (sigma, tau):
        if isinstance(label, (bool, np.bool_)) or not isinstance(label, (int, np.integer)) or not 0 <= label < n:
            raise StructuralError(f"sector label must be an integer in 0..{n - 1}, got {label!r}")
    (sec, lam, splits), ring = _induction(cat, q), cat.ring
    dim, kernel = _split(splits, (sigma, tau))
    lift, index = _lift_matrix(cat, sec, lam, sigma, tau)
    # the trees of theta sigma tau-bar per charge c, i.e. the lift's rows per slot of sector c
    rows = q.theta @ ring.N[:, sigma] @ ring.N[:, ring.dual[tau]]
    n_vac = rows[0]  # the vacuum slot's rows come first
    d_st = float(ring.fp_dims[sigma] * ring.fp_dims[tau])
    coeffs = np.zeros((0, len(index)), dtype=complex)
    gram_resid = 0.0
    if dim:
        vac = lift[:n_vac] @ kernel
        w, V = np.linalg.eigh(vac.conj().T @ vac)
        if w[0] <= 1e-10:
            raise NumericDegeneracyError(f"vacuum-channel Gram matrix is numerically singular ({w})")
        Ginv_half = (V / np.sqrt(w)) @ V.conj().T
        coeffs = (lift @ (kernel @ (Ginv_half * np.sqrt(d_st)))).T
        gram = coeffs[:, :n_vac].conj() @ coeffs[:, :n_vac].T
        gram_resid = float(np.max(np.abs(gram - d_st * np.eye(dim))))
    # phi's block at charge c has one column per copy of c in theta: the rows of that slot
    shapes = list(zip(q.theta, rows.tolist()))
    ends = [0, *accumulate(m * d for m, d in shapes)]
    fields = tuple(
        {c: vec[ends[c] : ends[c + 1]].reshape(shape).T for c, shape in enumerate(shapes)} for vec in coeffs
    )
    return BoundaryFieldBasis(
        sigma=sigma,
        tau=tau,
        fields=fields,
        coefficients=coeffs,
        coefficient_index=index,
        projector=kernel @ kernel.conj().T,
        gram_residual=gram_resid,
    )


def theta_plus(ring: FusionRing, Z: np.ndarray):
    """Multiplicities of the dual canonical object over ``sigma tau-bar`` products.

    ``m[u] = sum_{s,t} Z[s,t] N[s, dual(t), u]``; also returns its total
    dimension ``sum Z[s,t] d_s d_t``.
    """
    n = ring.size
    Z = check_coupling(Z, n)
    dualN = ring.N[:, [ring.dual[t] for t in range(n)], :]
    m = np.einsum("st,stu->u", Z, dualN)
    d = ring.fp_dims
    total = float(np.einsum("st,s,t->", Z, d, d))
    spread = float(np.dot(m, d))
    if abs(total - spread) > 1e-6 * max(1.0, total):
        raise DataInconsistencyError(
            f"theta_plus dimension mismatch: {spread} != {total}"
        )
    return m, total


@dataclass
class IndexLedger:
    """Index bookkeeping of one induced boundary theory."""

    lam: float  # extension index d(theta)
    lam_plus: float  # index of the double-cone inclusion, sum Z d d
    mu_A: float  # global dimension of the category
    dual_index: float  # mu_A / lam_plus
    mu_B_plus: float  # dual_index cubed
    haag_dual: bool

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "lambda_plus": self.lam_plus,
            "mu_A": self.mu_A,
            "dual_index": self.dual_index,
            "mu_B_plus": self.mu_B_plus,
            "haag_dual": self.haag_dual,
        }


def index_ledger(
    ring: FusionRing, q: QSystemSpec, Z: np.ndarray, tol: float = DEFAULT_TOL
) -> IndexLedger:
    """Index bookkeeping of theta and Z.  A theta whose length is not the ring's
    size, or that breaks ``m_s <= floor(d_s)``, is malformed (StructuralError)."""
    _require_bound(q.theta, ring)
    d = ring.fp_dims
    lam = q.d_theta(ring)
    lam_plus = float(np.einsum("st,s,t->", check_coupling(Z, ring.size).astype(float), d, d))
    mu_A = ring.global_dim
    dual_index = mu_A / lam_plus
    return IndexLedger(
        lam=lam,
        lam_plus=lam_plus,
        mu_A=mu_A,
        dual_index=dual_index,
        mu_B_plus=dual_index**3,
        haag_dual=bool(abs(dual_index - 1.0) < max(tol, 1e-9) * 10),
    )


def dhr_orbit_thetas(Z: np.ndarray, nimrep):
    """Theta multiplicity vectors ``(theta_a)_s = n^s_aa`` along the orbit.

    ``trace(Z)`` must be the nimrep's size, and each diagonal must have
    ``n^0_aa = 1`` and ``n^s_aa <= floor(d_s)`` (``ring.dim_floor``), or
    DataInconsistencyError; no tolerance enters these integer tests.
    """
    ring = nimrep.ring
    Z = check_coupling(Z, ring.size)
    if int(np.trace(Z)) != nimrep.size:
        raise DataInconsistencyError(
            f"trace(Z) = {int(np.trace(Z))} does not match nimrep size {nimrep.size}"
        )
    i = np.arange(nimrep.size)
    diag = nimrep.matrices[:, i, i].T  # row a: (n^s_aa)_s
    over = diag > ring.dim_floor
    thetas = [tuple(vec) for vec in diag.tolist()]
    for a, vec in enumerate(thetas):
        if vec[0] != 1:
            raise DataInconsistencyError(f"boundary {a}: vacuum multiplicity {vec[0]} != 1")
        if over[a].any():
            raise DataInconsistencyError(f"boundary {a}: multiplicity bound violated at sector {np.argmax(over[a])}")
    return thetas
