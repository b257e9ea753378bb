import numpy as np
import pytest

from bcft.catalog import su2
from bcft.category import compose
from bcft.classify import enumerate_modular_invariants, regular_nimrep
from bcft.errors import DataInconsistencyError, NumericDegeneracyError
from bcft.induction import (
    charged_field_basis,
    coupling_from_qsystem,
    dhr_orbit_thetas,
    exchange_operator,
    index_ledger,
    kernel_split,
    theta_plus,
)
from bcft.qsystems import car_qsystem, regular_qsystem, search_qsystems, trivial_qsystem


@pytest.fixture(scope="module")
def ising_cat(ising_data):
    return ising_data.presentation


def test_trivial_theta_gives_identity(ising_data, ising_cat):
    for hand in ("plus", "minus"):
        Z = coupling_from_qsystem(ising_cat, trivial_qsystem(ising_cat), hand)
        assert np.array_equal(Z, np.eye(3, dtype=np.int64))


def test_car_gives_identity(ising_data, ising_cat):
    for hand in ("plus", "minus"):
        Z = coupling_from_qsystem(ising_cat, car_qsystem(ising_cat), hand)
        assert np.array_equal(Z, np.eye(3, dtype=np.int64))


def test_fibonacci_regular_gives_identity(fib_data):
    for hand in ("plus", "minus"):
        Z = coupling_from_qsystem(
            fib_data.presentation, regular_qsystem(fib_data.presentation), hand
        )
        assert np.array_equal(Z, np.eye(2, dtype=np.int64))


def test_su2_4_extension_gives_block_invariant(su2_4_data):
    cat = su2_4_data.presentation
    res = search_qsystems(cat, [1, 0, 0, 0, 1], n_starts=10, seed=3)
    Z = coupling_from_qsystem(cat, res.solutions[0])
    want = np.zeros((5, 5), dtype=np.int64)
    want[0, 0] = want[0, 4] = want[4, 0] = want[4, 4] = 1
    want[2, 2] = 2
    assert np.array_equal(Z, want)


def test_every_z_is_a_modular_invariant(ising_data, fib_data, su2_4_data):
    cases = [
        (ising_data, trivial_qsystem(ising_data.presentation)),
        (ising_data, car_qsystem(ising_data.presentation)),
        (fib_data, regular_qsystem(fib_data.presentation)),
        (
            su2_4_data,
            search_qsystems(su2_4_data.presentation, [1, 0, 0, 0, 1], n_starts=8, seed=3).solutions[0],
        ),
    ]
    for data, q in cases:
        Z = coupling_from_qsystem(data.presentation, q)
        Zf = Z.astype(float)
        S, T = data.modular.S, data.modular.T
        assert np.max(np.abs(S @ Zf - Zf @ S)) < 1e-9
        assert np.max(np.abs(T[:, None] * Zf - Zf * T[None, :])) < 1e-9
        keys = {tuple(M.reshape(-1)) for M in enumerate_modular_invariants(data.modular)}
        assert tuple(Z.reshape(-1)) in keys


def test_row_sum_rule_and_vacuum_kernel(ising_data, fib_data):
    for data, q in [
        (ising_data, car_qsystem(ising_data.presentation)),
        (fib_data, regular_qsystem(fib_data.presentation)),
    ]:
        Z = coupling_from_qsystem(data.presentation, q)
        d = data.ring.fp_dims
        assert np.max(np.abs(Z @ d - d)) < 1e-9
        assert np.max(np.abs(d @ Z - d)) < 1e-9
        assert Z[0, 0] == 1  # kernel dimension at (0,0) is exactly 1


def test_kernel_gap_is_clean(ising_data, ising_cat):
    from bcft.induction import _linear_problem_matrix
    from bcft.qsystems import assemble_x

    q = car_qsystem(ising_cat)
    x = assemble_x(q, ising_cat)
    gaps = []
    for sigma in range(3):
        for tau in range(3):
            M, basis = _linear_problem_matrix(ising_cat, q, x, sigma, tau, "plus")
            if basis.dimension == 0:
                continue
            dim, _, gap = kernel_split(M)
            if 0 < dim < basis.dimension:
                gaps.append(gap)
    assert gaps and min(gaps) >= 1e3


def test_kernel_split_rejects_ambiguous_spectrum():
    # smallest kept and largest dropped values differ by far less than the
    # required gap ratio
    with pytest.raises(NumericDegeneracyError):
        kernel_split(np.diag([1.0, 2e-7, 0.9e-7]))
    # values parked right at the zero threshold are ambiguous too
    with pytest.raises(NumericDegeneracyError):
        kernel_split(np.diag([1.0, 5e-7, 2e-7]))


def test_exchange_operator_unitary_and_trivial_for_vacuum_theta(ising_cat, ising_data):
    q0 = trivial_qsystem(ising_cat)
    for sigma in range(3):
        for tau in range(3):
            c = exchange_operator(ising_cat, q0, sigma, tau)
            for blk in c.blocks.values():
                if blk.size:
                    assert np.allclose(blk, np.eye(blk.shape[0]), atol=1e-12)
    qc = car_qsystem(ising_cat)
    for sigma, tau in [(1, 1), (1, 2), (2, 2), (0, 1)]:
        c = exchange_operator(ising_cat, qc, sigma, tau)
        for blk in c.blocks.values():
            if blk.size:
                assert np.max(np.abs(blk.conj().T @ blk - np.eye(blk.shape[1]))) < 1e-12


def test_car_exchange_psi_psi_blocks(ising_cat):
    # both summands of theta braid through psi psi with net phase
    # R[psi,psi]^2 = +1 or R[0,psi]^2 = +1: the operator is the identity
    # relabeling even though each constituent eps(psi,psi) = -1
    c = exchange_operator(ising_cat, car_qsystem(ising_cat), 2, 2)
    for blk in (c.blocks[0], c.blocks[2]):
        assert np.allclose(blk, np.eye(blk.shape[0]), atol=1e-12)


def test_charged_field_basis_normalization(ising_cat, ising_data):
    q0 = trivial_qsystem(ising_cat)
    basis = charged_field_basis(ising_cat, q0, 1, 1)
    assert len(basis.fields) == 1
    phi = basis.fields[0]
    norm = compose(phi.dagger(), phi).blocks[0][0, 0]
    assert norm == pytest.approx(2.0, abs=1e-9)  # d(sigma)^2
    empty = charged_field_basis(ising_cat, q0, 1, 2)
    assert empty.fields == ()  # Z_{sigma psi} = 0 is not an error
    P = basis.projector
    assert np.max(np.abs(P @ P - P)) < 1e-9
    assert basis.gram_residual < 1e-9


def test_charged_field_basis_car(ising_cat):
    q = car_qsystem(ising_cat)
    for sigma, tau, want in [(1, 1, 2.0), (2, 2, 1.0)]:
        basis = charged_field_basis(ising_cat, q, sigma, tau)
        assert len(basis.fields) == 1
        phi = basis.fields[0]
        norm = compose(phi.dagger(), phi).blocks[0][0, 0]
        assert norm == pytest.approx(want, abs=1e-9)  # d(sigma) d(tau)
        assert basis.gram_residual < 1e-9


def test_theta_plus_ising(ising_data):
    m, d = theta_plus(ising_data.ring, np.eye(3, dtype=np.int64))
    assert m.tolist() == [3, 0, 1]
    assert d == pytest.approx(4.0)


def test_theta_plus_fibonacci(fib_data):
    m, d = theta_plus(fib_data.ring, np.eye(2, dtype=np.int64))
    assert m.tolist() == [2, 1]
    assert d == pytest.approx(fib_data.ring.global_dim, abs=1e-9)


def test_index_ledger_car(ising_data, ising_cat):
    led = index_ledger(ising_data.ring, car_qsystem(ising_cat), np.eye(3, dtype=np.int64))
    assert led.lam == pytest.approx(2.0)
    assert led.mu_A == pytest.approx(4.0)
    assert led.lam_plus == pytest.approx(4.0)
    assert led.dual_index == pytest.approx(1.0)
    assert led.mu_B_plus == pytest.approx(1.0)
    assert led.haag_dual


def test_index_ledger_trivial_category():
    from bcft.rings import FusionRing
    from bcft.qsystems import QSystemSpec

    ring = FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))
    led = index_ledger(ring, QSystemSpec([1], {(0, 0, 0): 1.0}), np.eye(1, dtype=np.int64))
    assert (led.lam, led.lam_plus, led.mu_A, led.mu_B_plus) == (1.0, 1.0, 1.0, 1.0)
    m, d = theta_plus(ring, np.eye(1, dtype=np.int64))
    assert m.tolist() == [1] and d == pytest.approx(1.0)


def test_index_ledger_fibonacci(fib_data):
    phi = (1 + np.sqrt(5)) / 2
    led = index_ledger(
        fib_data.ring, regular_qsystem(fib_data.presentation), np.eye(2, dtype=np.int64)
    )
    assert led.lam == pytest.approx(1 + phi)
    assert led.lam_plus == pytest.approx(led.mu_A, abs=1e-9)
    assert led.haag_dual


def test_dhr_orbit_thetas_ising(ising_data):
    nr = regular_nimrep(ising_data.ring)
    thetas = dhr_orbit_thetas(np.eye(3, dtype=np.int64), nr)
    assert thetas == [(1, 0, 0), (1, 0, 1), (1, 0, 0)]


def test_dhr_orbit_rejects_incompatible_nimrep(ising_data):
    nr = regular_nimrep(ising_data.ring)
    Z = np.eye(3, dtype=np.int64)
    Z[2, 2] = 0
    with pytest.raises(DataInconsistencyError):
        dhr_orbit_thetas(Z, nr)


def test_orbit_invariance_ising(ising_data, ising_cat):
    """Every theta along the orbit reproduces the same coupling matrix."""
    nr = regular_nimrep(ising_data.ring)
    Z0 = coupling_from_qsystem(ising_cat, car_qsystem(ising_cat))
    for theta in dhr_orbit_thetas(Z0, nr):
        res = search_qsystems(ising_cat, theta, n_starts=10, seed=6)
        assert res.solutions, theta
        for q in res.solutions:
            Z = coupling_from_qsystem(ising_cat, q)
            assert np.array_equal(Z, Z0)


def test_orbit_invariance_su2_4_multiplicity_two(su2_4_data):
    """The orbit member with a two-dimensional multiplicity space gives the
    same block invariant as the simple-current extension itself."""
    from bcft.qsystems import fingerprint, gauge_transform, validate_qsystem

    cat = su2_4_data.presentation
    res = search_qsystems(cat, [1, 0, 2, 0, 1], n_starts=12, seed=9)
    assert res.status == "ok"
    assert len(res.solutions) == 1  # one gauge class under the Gram fingerprint
    want = np.zeros((5, 5), dtype=np.int64)
    want[0, 0] = want[0, 4] = want[4, 0] = want[4, 4] = 1
    want[2, 2] = 2
    q = res.solutions[0]
    assert np.array_equal(coupling_from_qsystem(cat, q), want)
    # a genuine U(2) rotation of the multiplicity space is a gauge symmetry
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    U, _ = np.linalg.qr(A)
    gauged = gauge_transform(q, {2: U})
    assert validate_qsystem(gauged, cat)["valid"]
    assert fingerprint(gauged, cat) == fingerprint(q, cat)
    assert np.array_equal(coupling_from_qsystem(cat, gauged), want)


def test_coupling_reruns_deterministic(ising_cat):
    q = car_qsystem(ising_cat)
    Z1 = coupling_from_qsystem(ising_cat, q)
    Z2 = coupling_from_qsystem(ising_cat, q)
    assert Z1.dtype == Z2.dtype and Z1.tobytes() == Z2.tobytes()
