"""Coupling matrices from Q-systems via the charged-intertwiner linear problem.

A boundary charged field at sector pair ``(sigma, tau)`` corresponds to an
intertwiner between the two oppositely braided extensions of ``sigma`` and
``tau``.  Expanding it over the canonical charged isometry reduces this to a
finite kernel problem on ``n in Hom(theta tau, sigma)``:

    ``K(n) = (n (x) id) . (id (x) eps+(theta,tau)) . (x (x) id)
             - eps-(theta,sigma) . (id (x) n) . (x (x) id)``

Kernel dimensions assemble into the coupling matrix Z (a modular invariant);
the kernel vectors, pushed to ``Hom(theta, theta sigma tau-bar)`` with a
conjugation cup and normalized on the vacuum channel, give the boundary
field coefficients.  Integer outputs are only accepted when the
singular-value spectrum shows a clean gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import (
    CategoryPresentation,
    Morphism,
    braiding,
    compose,
    conjugation_pair,
    hom_basis,
    identity,
    tensor,
)
from .errors import DataInconsistencyError, NumericDegeneracyError, StructuralError
from .qsystems import QSystemSpec, assemble_x
from .rings import DEFAULT_TOL, FusionRing
from .words import simple_word, trees

__all__ = [
    "exchange_operator",
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


def exchange_operator(
    cat: CategoryPresentation,
    q: QSystemSpec,
    sigma: int,
    tau: int,
    handedness: str = "plus",
) -> Morphism:
    """Unitary ``c: theta sigma tau-bar -> sigma tau-bar theta``."""
    ring = cat.ring
    th = q.theta_word()
    tb = ring.dual[tau]
    w_sig, w_tb = simple_word(sigma), simple_word(tb)
    eps_sig_th = braiding(cat, w_sig, th, handedness)
    eps_th_tb = braiding(cat, th, w_tb, handedness)
    return compose(
        tensor(identity(cat, w_sig), eps_th_tb),
        tensor(eps_sig_th.dagger(), identity(cat, w_tb)),
    )


def _vectorize(m: Morphism) -> np.ndarray:
    parts = [m.blocks[c].ravel() for c in sorted(m.blocks) if m.blocks[c].size]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def _linear_problem_matrix(cat, q, x, sigma, tau, handedness):
    """Matrix of K on Hom(theta tau, sigma); returns (M, basis).

    With ``handedness="plus"``, ``theta`` braids forward past ``tau`` and
    backward past ``sigma`` (the kernel counts intertwiners between the two
    opposite inductions); ``"minus"`` swaps the two orientations.
    """
    th = q.theta_word()
    w_tau = simple_word(tau)
    w_sig = simple_word(sigma)
    basis = hom_basis(cat, th + w_tau, w_sig)
    if basis.dimension == 0:
        return np.zeros((0, 0), dtype=complex), basis
    if handedness not in ("plus", "minus"):
        raise StructuralError("handedness must be 'plus' or 'minus'")
    other = "minus" if handedness == "plus" else "plus"
    id_th = identity(cat, th)
    x_ext = tensor(x, identity(cat, w_tau))
    braid_tau = compose(tensor(id_th, braiding(cat, th, w_tau, handedness)), x_ext)
    braid_sig = braiding(cat, th, w_sig, other)
    cols = []
    for n in basis.morphisms:
        lhs = compose(tensor(n, id_th), braid_tau)
        rhs = compose(braid_sig, compose(tensor(id_th, n), x_ext))
        cols.append(_vectorize(lhs - rhs))
    return np.stack(cols, axis=1), basis


def kernel_split(M: np.ndarray, sv_rtol: float = SV_RTOL, gap_min: float = GAP_MIN):
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
    smax = svals[0] if len(svals) else 0.0
    if smax < 1e-12:
        return k, np.eye(k, dtype=complex), np.inf
    cut = svals < sv_rtol * smax
    dim = int(np.sum(cut))
    if 0 < dim < k:
        s_kept = svals[k - dim - 1]
        s_drop = svals[k - dim]
        gap = s_kept / max(s_drop, 1e-300)
        if gap < gap_min:
            raise NumericDegeneracyError(
                f"no clear singular-value gap (ratio {gap:.1f} < {gap_min:g}); "
                f"spectrum {svals}"
            )
    elif dim == 0 and svals[-1] < 10 * sv_rtol * smax:
        raise NumericDegeneracyError(
            f"smallest singular value {svals[-1]:.2e} sits at the zero threshold; "
            f"spectrum {svals}"
        )
    else:
        gap = np.inf
    if dim == 0:
        gap = np.inf
    kernel = vh.conj().T[:, k - dim :] if dim else np.zeros((k, 0), dtype=complex)
    return dim, kernel, gap


def coupling_from_qsystem(
    cat: CategoryPresentation,
    q: QSystemSpec,
    handedness: str = "plus",
    sv_rtol: float = SV_RTOL,
    gap_min: float = GAP_MIN,
) -> np.ndarray:
    """Coupling matrix ``Z[sigma, tau] = dim ker L`` over all sector pairs."""
    n = cat.ring.size
    x = assemble_x(q, cat)
    Z = np.zeros((n, n), dtype=np.int64)
    for sigma in range(n):
        for tau in range(n):
            M, _ = _linear_problem_matrix(cat, q, x, sigma, tau, handedness)
            Z[sigma, tau], _, _ = kernel_split(M, sv_rtol, gap_min)
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
    fields: tuple  # Morphisms phi_i: theta -> theta sigma tau-bar
    coefficients: np.ndarray  # [i, p_slot, tree(q_slot, intermediate)] blocks, see below
    coefficient_index: tuple  # (p_slot, q_slot, intermediate) per column
    projector: np.ndarray  # kernel projector in coefficient space (basis-free)
    gram_residual: float


def charged_field_basis(
    cat: CategoryPresentation,
    q: QSystemSpec,
    sigma: int,
    tau: int,
    handedness: str = "plus",
    sv_rtol: float = SV_RTOL,
    gap_min: float = GAP_MIN,
) -> BoundaryFieldBasis:
    """Kernel basis at ``(sigma, tau)`` normalized per the vacuum channel.

    Kernel vectors ``n: theta tau -> sigma`` are pushed to charged-field
    morphisms ``phi: theta -> theta sigma tau-bar`` by
    ``phi = (id (x) n (x) id) . (x (x) id) . (id_theta (x) R_tau)`` with the
    standard cup ``R_tau: 1 -> tau tau-bar``.
    """
    ring = cat.ring
    x = assemble_x(q, cat)
    M, basis = _linear_problem_matrix(cat, q, x, sigma, tau, handedness)
    dim, kernel, _ = kernel_split(M, sv_rtol, gap_min)
    d_st = float(ring.fp_dims[sigma] * ring.fp_dims[tau])
    th = q.theta_word()
    tb = ring.dual[tau]
    word = th + simple_word(sigma, tb)
    id_th = identity(cat, th)
    id_tb = identity(cat, simple_word(tb))
    if dim:
        cup = conjugation_pair(cat, tb)[0]  # 1 -> tau tau-bar
        lift_const = compose(
            tensor(x, identity(cat, simple_word(tau, tb))),
            tensor(id_th, cup),
        )

    def from_coeffs(vec):
        n = None
        for coef, elem in zip(vec, basis.morphisms):
            if coef == 0:
                continue
            term = coef * elem
            n = term if n is None else n + term
        if n is None:
            return Morphism(cat, th, word, {})
        return compose(tensor(tensor(id_th, n), id_tb), lift_const)

    raw = [from_coeffs(kernel[:, i]) for i in range(dim)]
    # Gram matrix on the vacuum channel of phi_i* phi_j
    G = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            prod = compose(raw[i].dagger(), raw[j])
            G[i, j] = prod.blocks[0][0, 0] if prod.blocks[0].size else 0.0
    gram_resid = 0.0
    if dim:
        evals = np.linalg.eigvalsh((G + G.conj().T) / 2)
        if evals[0] <= 1e-10:
            raise NumericDegeneracyError(
                f"vacuum-channel Gram matrix is numerically singular ({evals})"
            )
        Ginv_half = np.linalg.inv(_sqrtm_hermitian(G))
        fields = []
        for i in range(dim):
            vec = kernel @ (Ginv_half[:, i] * np.sqrt(d_st))
            fields.append(from_coeffs(vec))
        for i in range(dim):
            for j in range(dim):
                prod = compose(fields[i].dagger(), fields[j])
                want = d_st if i == j else 0.0
                gram_resid = max(gram_resid, abs(prod.blocks[0][0, 0] - want))
    else:
        fields = []

    # tree coefficients phi^p_{q,i}(g,h): block entries over the tree basis
    col_index = []
    for p_slot, (sp, _) in enumerate(q.slots):
        for tree in trees(ring, word, sp):
            (q_slot, _), (_, t_mid), _ = tree
            col_index.append((p_slot, q_slot, t_mid))
    coeffs = np.zeros((dim, len(col_index)), dtype=complex)
    for i, phi in enumerate(fields):
        pos = 0
        for p_slot, (sp, _) in enumerate(q.slots):
            blk = phi.blocks[sp]
            p_col = [k for k, (s, _) in enumerate(q.slots) if s == sp].index(p_slot)
            for trow in range(blk.shape[0]):
                coeffs[i, pos] = blk[trow, p_col]
                pos += 1
    projector = kernel @ kernel.conj().T
    return BoundaryFieldBasis(
        sigma=sigma,
        tau=tau,
        fields=tuple(fields),
        coefficients=coeffs,
        coefficient_index=tuple(col_index),
        projector=projector,
        gram_residual=float(gram_resid),
    )


def _sqrtm_hermitian(G: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((G + G.conj().T) / 2)
    return (V * np.sqrt(w)) @ V.conj().T


def theta_plus(ring: FusionRing, Z: np.ndarray):
    """Multiplicities of the dual canonical object over ``sigma tau-bar`` products.

    ``m[u] = sum_{s,t} Z[s,t] N[s, dual(t), u]``; also returns its total
    dimension ``sum Z[s,t] d_s d_t``.
    """
    Z = np.asarray(Z, dtype=np.int64)
    n = ring.size
    if Z.shape != (n, n):
        raise StructuralError(f"Z must be {n}x{n}")
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
    d = ring.fp_dims
    lam = float(sum(m * d[s] for s, m in enumerate(q.theta)))
    lam_plus = float(np.einsum("st,s,t->", np.asarray(Z, dtype=float), d, d))
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


def dhr_orbit_thetas(Z: np.ndarray, nimrep, tol: float = DEFAULT_TOL):
    """Theta multiplicity vectors ``(theta_a)_s = n^s_aa`` along the orbit."""
    ring = nimrep.ring
    Z = np.asarray(Z, dtype=np.int64)
    if int(np.trace(Z)) != nimrep.size:
        raise DataInconsistencyError(
            f"trace(Z) = {int(np.trace(Z))} does not match nimrep size {nimrep.size}"
        )
    out = []
    for a in range(nimrep.size):
        vec = tuple(int(nimrep.matrices[s][a, a]) for s in range(ring.size))
        if vec[0] != 1:
            raise DataInconsistencyError(f"boundary {a}: vacuum multiplicity {vec[0]} != 1")
        for s, m in enumerate(vec):
            if m > np.floor(ring.fp_dims[s] + tol):
                raise DataInconsistencyError(
                    f"boundary {a}: multiplicity bound violated at sector {s}"
                )
        out.append(vec)
    return out
