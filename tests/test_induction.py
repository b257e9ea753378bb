import gc
import itertools

import numpy as np
import pytest
from conftest import OUT_OF_RANGE_Z, gauge_transform, group_algebra, random_vertex_gauge
from morphisms import Morphism, assemble_x, braiding, compose, conjugation_pair, frobenius_residual, hom_dim, identity
from morphisms import simple_word, sum_word, tensor

from bcft.category import CategoryPresentation, validate_axioms
from bcft.classify import Nimrep, enumerate_modular_invariants, regular_nimrep
from bcft.errors import DataInconsistencyError, NumericDegeneracyError, StructuralError
from bcft.induction import (
    _induction,
    _kernel_matrices,
    _lift_matrix,
    charged_field_basis,
    coupling_from_qsystem,
    dhr_orbit_thetas,
    index_ledger,
    kernel_split,
    theta_plus,
)
from bcft.qsystems import (
    QSystemSpec,
    _check_lambda,
    _dense,
    car_qsystem,
    charged_algebra,
    fingerprint,
    frobenius_check,
    is_local,
    regular_qsystem,
    search_qsystems,
    trivial_qsystem,
    validate_qsystem,
)
from bcft.rings import FusionRing


@pytest.fixture(scope="module")
def ising_cat(ising_data):
    return ising_data.presentation


def test_trivial_theta_gives_identity(ising_data, ising_cat):
    Z = coupling_from_qsystem(ising_cat, trivial_qsystem(ising_cat))
    assert np.array_equal(Z, np.eye(3, dtype=np.int64))


def test_car_gives_identity(ising_data, ising_cat):
    Z = coupling_from_qsystem(ising_cat, car_qsystem(ising_cat))
    assert np.array_equal(Z, np.eye(3, dtype=np.int64))


def test_fibonacci_regular_gives_identity(fib_data):
    Z = coupling_from_qsystem(fib_data.presentation, regular_qsystem(fib_data.presentation))
    assert np.array_equal(Z, np.eye(2, dtype=np.int64))


def test_su2_4_extension_gives_block_invariant(su2_4_data):
    cat = su2_4_data.presentation
    res = search_qsystems(cat, [1, 0, 0, 0, 1], n_starts=10, seed=3)
    Z = coupling_from_qsystem(cat, res.solutions[0])
    want = np.zeros((5, 5), dtype=np.int64)
    want[0, 0] = want[0, 4] = want[4, 0] = want[4, 4] = 1
    want[2, 2] = 2
    assert np.array_equal(Z, want)


def test_su2_16_e7_extension(su2_level):
    """theta = 0 + 8 + 16 (twice the spins) of SU(2)_16: one non-local Q-system
    whose coupling matrix is the exceptional E7 invariant."""
    data = su2_level(16)
    cat = data.presentation
    res = search_qsystems(cat, [1 if a in (0, 8, 16) else 0 for a in range(17)])
    assert len(res.solutions) == 1
    assert not is_local(res.solutions[0], cat)[0]
    Z = coupling_from_qsystem(cat, res.solutions[0])
    # |x0+x16|^2 + |x4+x12|^2 + |x6+x10|^2 + |x8|^2 + (x2+x14) conj(x8) + x8 conj(x2+x14)
    want = np.zeros((17, 17), dtype=np.int64)
    for block in [(0, 16), (4, 12), (6, 10), (8,)]:
        want[np.ix_(block, block)] = 1
    want[[2, 14], 8] = want[8, [2, 14]] = 1
    assert np.array_equal(Z, want)
    invariants = enumerate_modular_invariants(data.modular)
    assert len(invariants) == 3
    assert any(np.array_equal(Z, M) for M in invariants)


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
    sec, lam = _check_lambda(car_qsystem(ising_cat), ising_cat)
    gaps = []
    for sigma in range(3):
        for tau in range(3):
            M = _kernel_matrices(ising_cat, sec, lam, [(sigma, tau)])[0]
            if M.shape[1] == 0:
                continue
            dim, _, gap = kernel_split(M)
            if 0 < dim < M.shape[1]:
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


def test_charged_field_basis_normalization(ising_cat, ising_data):
    q0 = trivial_qsystem(ising_cat)
    basis = charged_field_basis(ising_cat, q0, 1, 1)
    assert len(basis.fields) == 1
    phi = basis.fields[0]
    norm = np.vdot(phi[0], phi[0])
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
        norm = np.vdot(phi[0], phi[0])
        assert norm == pytest.approx(want, abs=1e-9)  # d(sigma) d(tau)
        assert basis.gram_residual < 1e-9


@pytest.mark.parametrize("label", [-1, 3, np.int64(-1), 1.0, True, np.True_])
def test_charged_field_basis_rejects_labels(ising_cat, label):
    # a label outside 0..n-1, a float or a bool is never read as a sector, in either slot
    q = car_qsystem(ising_cat)
    for sigma, tau in [(label, 0), (1, label)]:
        with pytest.raises(StructuralError, match="sector label") as err:
            charged_field_basis(ising_cat, q, sigma, tau)
        assert repr(label) in str(err.value)


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


@pytest.mark.parametrize("tol", [1e-9, 0.5])
def test_index_ledger_haag_dual_takes_no_tolerance(ising_data, ising_cat, tol):
    # Z = diag(1, 0, 1) has dual index 2: not Haag dual, whatever the residual tolerance
    led = index_ledger(ising_data.ring, car_qsystem(ising_cat), np.diag([1, 0, 1]), tol)
    assert led.dual_index == pytest.approx(2.0)
    assert led.haag_dual is False


def test_index_ledger_trivial_category():
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


@pytest.mark.parametrize(
    "theta, message",
    [
        ((1, 0), "theta length must equal the number of sectors"),
        ((1, 0, 1, 0, 0), "theta length must equal the number of sectors"),
        ((1, 5, 0), r"multiplicity bound at sector 1: 5 > floor\(d_1\)"),
    ],
    ids=["short", "long", "over-bound"],
)
def test_index_ledger_checks_theta(ising_data, theta, message):
    """lambda = d(theta) is read only from a theta the ring admits: no silent
    truncation to the first sectors, no IndexError, no theta over floor(d_s)."""
    with pytest.raises(StructuralError, match=message):
        index_ledger(ising_data.ring, QSystemSpec(theta, {}), np.eye(3, dtype=np.int64))


def test_dhr_orbit_thetas_ising(ising_data):
    nr = regular_nimrep(ising_data.ring)
    thetas = dhr_orbit_thetas(np.eye(3, dtype=np.int64), nr)
    assert thetas == [(1, 0, 0), (1, 0, 1), (1, 0, 0)]


def test_coupling_inputs_are_checked(ising_data, ising_cat):
    """theta_plus, index_ledger and dhr_orbit_thetas take Z as an n x n matrix
    of finite non-negative integers; anything else is malformed input."""
    ring, q, nr = ising_data.ring, car_qsystem(ising_cat), regular_nimrep(ising_data.ring)
    calls = (lambda Z: theta_plus(ring, Z), lambda Z: index_ledger(ring, q, Z), lambda Z: dhr_orbit_thetas(Z, nr))
    for call in calls:
        with pytest.raises(StructuralError, match="Z must be 3x3"):
            call(np.diag([1, 2]))  # its trace is the nimrep's size
        for Z in (1.5 * np.eye(3), np.diag([1, 0, -1]), np.full((3, 3), np.nan), *OUT_OF_RANGE_Z):
            with pytest.raises(StructuralError, match="Z must hold finite non-negative integers"):
                call(Z)
        call(np.eye(3))  # integer values in a float array are read exactly


def test_dhr_orbit_rejects_incompatible_nimrep(ising_data):
    nr = regular_nimrep(ising_data.ring)
    Z = np.eye(3, dtype=np.int64)
    Z[2, 2] = 0
    with pytest.raises(DataInconsistencyError):
        dhr_orbit_thetas(Z, nr)


def test_dhr_orbit_thetas_reject_what_is_no_theta(fib_data):
    """A boundary whose diagonal has vacuum multiplicity other than 1, or breaks
    n^s_aa <= floor(d_s), gives no theta; the bound is the ring's, and no
    tolerance can be passed to move it (theta = 1 + 2 tau at floor(phi) = 1)."""
    ring, Z = fib_data.ring, np.diag([1, 0])
    with pytest.raises(DataInconsistencyError, match="boundary 0: vacuum multiplicity 2 != 1"):
        dhr_orbit_thetas(Z, Nimrep(ring, [[[2]], [[1]]]))
    over = Nimrep(ring, [[[1]], [[2]]])
    with pytest.raises(DataInconsistencyError, match="boundary 0: multiplicity bound violated at sector 1"):
        dhr_orbit_thetas(Z, over)
    with pytest.raises(TypeError):
        dhr_orbit_thetas(Z, over, tol=0.5)
    assert dhr_orbit_thetas(Z, Nimrep(ring, [[[1]], [[1]]])) == [(1, 1)]


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


@pytest.fixture(scope="module")
def su2_4_multiplicity_two(su2_4_data):
    return search_qsystems(su2_4_data.presentation, [1, 0, 2, 0, 1], n_starts=12, seed=9)


def test_orbit_invariance_su2_4_multiplicity_two(su2_4_data, su2_4_multiplicity_two):
    """The orbit member with a two-dimensional multiplicity space gives the
    same block invariant as the simple-current extension itself."""
    cat = su2_4_data.presentation
    res = su2_4_multiplicity_two
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


# -- the two coordinate maps against the morphism calculus --------------------


def _elementary_basis(cat, src, tgt):
    """Elementary matrices of Hom(src, tgt): by charge, then source tree, then target tree."""
    for c in range(cat.ring.size):
        ds, dt = hom_dim(cat.ring, src, c), hom_dim(cat.ring, tgt, c)
        for i in range(ds):
            for j in range(dt):
                blk = np.zeros((dt, ds), dtype=complex)
                blk[j, i] = 1.0
                yield Morphism(cat, src, tgt, {c: blk})


def _reference_maps(cat, q, sigma, tau, handedness, basis):
    """Kernel and lift matrices on ``basis`` of Hom(theta tau, sigma), through
    tensor/compose/braiding and the standard cup.  ``handedness`` is the braid
    orientation of theta past tau; theta passes sigma the other way."""
    th, w_tau, w_sig = sum_word(q.theta), simple_word(tau), simple_word(sigma)
    tb = cat.ring.dual[tau]
    x = assemble_x(q, cat, require_isometry=False)
    id_th = identity(cat, th)
    other = "minus" if handedness == "plus" else "plus"
    x_ext = tensor(x, identity(cat, w_tau))
    braid_tau = compose(tensor(id_th, braiding(cat, th, w_tau, handedness)), x_ext)
    braid_sig = braiding(cat, th, w_sig, other)
    cup = conjugation_pair(cat, tb)[0]  # 1 -> tau tau-bar
    lift = compose(tensor(x, identity(cat, simple_word(tau, tb))), tensor(id_th, cup))
    id_tb = identity(cat, simple_word(tb))
    kernel_cols, lift_cols = [], []
    for n in basis:
        K = compose(tensor(n, id_th), braid_tau) - compose(braid_sig, compose(tensor(id_th, n), x_ext))
        kernel_cols.append(np.concatenate([K.blocks[c].ravel() for c in sorted(K.blocks)]))
        phi = compose(tensor(tensor(id_th, n), id_tb), lift)
        lift_cols.append(np.concatenate([phi.blocks[s][:, copy] for s, copy in q.slots]))
    return np.column_stack(kernel_cols), np.column_stack(lift_cols)


def _noisy(cat, q, rng):
    """``q`` with complex noise on every channel of theta: not a Q-system, but both
    maps are linear in lambda."""
    sec = [s for s, _copy in q.slots]
    lam = dict(q.lam)
    for key in itertools.product(range(len(sec)), repeat=3):
        if cat.ring.N[tuple(sec[t] for t in key)]:
            lam[key] = lam.get(key, 0.0) + 0.3 * complex(*rng.normal(size=2))
    return QSystemSpec(q.theta, lam)


@pytest.fixture(scope="module")
def induction_cases(ising_data, fib_data, su2_4_data, su2_level, su2_4_multiplicity_two, z3_data, spin8_data, spin8_qsystems):
    s4 = su2_4_data.presentation
    su2_10 = su2_level(10)
    e6_theta = tuple(1 if a in (0, 6) else 0 for a in range(11))
    return [
        ("ising CAR", ising_data, car_qsystem(ising_data.presentation)),
        ("fibonacci regular", fib_data, regular_qsystem(fib_data.presentation)),
        ("su2_4 0+4", su2_4_data, search_qsystems(s4, [1, 0, 0, 0, 1], n_starts=10, seed=3).solutions[0]),
        ("su2_4 0+2+2+4", su2_4_data, su2_4_multiplicity_two.solutions[0]),
        ("E6", su2_10, search_qsystems(su2_10.presentation, e6_theta, n_starts=12, seed=1).solutions[0]),
        # sectors 1 and 2 of Z_3 are dual: the lift reads ring.dual[tau] != tau
        ("Z_3 regular", z3_data, group_algebra(z3_data, [0, 1, 2])),
        ("spin8_1 twisted", spin8_data, spin8_qsystems["1+v+s+c twisted"]),
    ]


def test_kernel_and_lift_match_morphism_calculus(induction_cases):
    """Both coordinate maps agree entry by entry with the morphism calculus, in the
    catalog gauge and in a random complex vertex gauge with complex noise on
    lambda (real catalogs have R[a,b,c] = R[b,a,c]; the gauge does not).  The
    reference braids theta forward past tau, as ``_kernel_matrices`` does."""
    rng = np.random.default_rng(11)
    for name, data, q in induction_cases:
        gauged = random_vertex_gauge(data.presentation, rng)
        n = data.ring.size
        if n <= 5:  # the gauge formula is the same for every catalog; su2_10 takes seconds
            assert validate_axioms(gauged).valid, name
        for cat, qq in [(data.presentation, q), (gauged, _noisy(gauged, q, rng))]:
            sec, lam = _dense(qq, cat.ring)  # noisy lambda is no isometry
            for sigma, tau in itertools.product(range(n), repeat=2):
                basis = list(_elementary_basis(cat, sum_word(qq.theta) + simple_word(tau), simple_word(sigma)))
                K = _kernel_matrices(cat, sec, lam, [(sigma, tau)])[0]
                L, _ = _lift_matrix(cat, sec, lam, sigma, tau)
                where = (name, cat is gauged, sigma, tau)
                assert K.shape[1] == L.shape[1] == len(basis), where
                if basis:
                    K_ref, L_ref = _reference_maps(cat, qq, sigma, tau, "plus", basis)
                    assert K.shape == K_ref.shape and L.shape == L_ref.shape, where
                    assert np.max(np.abs(K - K_ref)) < 1e-13, where
                    assert np.max(np.abs(L - L_ref)) < 1e-13, where


def test_batched_kernel_matrices_equal_one_pair_calls(induction_cases, ising_data, spin8_data, spin8_qsystems):
    """The gather over all n^2 pairs, and over any subset, gives the one-pair
    matrices bit for bit, on every test Q-system and on noisy lambda."""
    rng = np.random.default_rng(13)
    cases = [(data.presentation, q) for _name, data, q in induction_cases]
    cases += [(ising_data.presentation, trivial_qsystem(ising_data.presentation))]
    cases += [(spin8_data.presentation, q) for q in spin8_qsystems.values()]
    for cat, q in cases + [(cat, _noisy(cat, q, rng)) for cat, q in cases]:
        pairs = list(itertools.product(range(cat.ring.size), repeat=2))
        sec, lam = _dense(q, cat.ring)
        single = [_kernel_matrices(cat, sec, lam, [pair])[0] for pair in pairs]
        batched = _kernel_matrices(cat, sec, lam, pairs)
        assert all(map(np.array_equal, batched, single)), q
        assert all(M.shape == S.shape for M, S in zip(batched, single)), q
        some = sorted(rng.choice(len(pairs), size=len(pairs) // 3 + 1, replace=False), reverse=True)
        subset = _kernel_matrices(cat, sec, lam, [pairs[i] for i in some])
        assert all(np.array_equal(M, single[i]) for M, i in zip(subset, some)), q


def test_field_blocks_count_the_oracle_trees(induction_cases):
    """Each field's block at charge c has one row per tree of theta sigma tau-bar
    with charge c, as the oracle counts them, and one column per copy of c in
    theta (none where theta_c = 0); its coefficient row is the transposed
    blocks, concatenated in charge order."""
    for name, data, q in induction_cases:
        cat, ring = data.presentation, data.ring
        Z = coupling_from_qsystem(cat, q)
        for sigma, tau in np.argwhere(Z).tolist():
            basis = charged_field_basis(cat, q, sigma, tau)
            word = sum_word(q.theta) + simple_word(sigma, ring.dual[tau])
            shapes = [(hom_dim(ring, word, c), m) for c, m in enumerate(q.theta)]
            where = (name, sigma, tau)
            assert len(basis.fields) == len(basis.coefficients) == Z[sigma, tau], where
            for phi, row in zip(basis.fields, basis.coefficients):
                assert [phi[c].shape for c in range(ring.size)] == shapes, where
                assert np.array_equal(np.concatenate([phi[c].T.ravel() for c in range(ring.size)]), row), where


def test_frobenius_check_matches_morphism_calculus(induction_cases):
    """The closed-form Frobenius residual is the calculus' ``x x* - (id (x) x*) (x (x) id)``
    on Q-systems, on noisy lambda, and on noisy lambda in a random complex vertex gauge."""
    rng = np.random.default_rng(12)
    for name, data, q in induction_cases:
        cat = data.presentation
        noisy = _noisy(cat, q, rng)
        assert frobenius_check(noisy, cat) > 1e-3, name  # so that the comparison is not vacuous
        gauged = random_vertex_gauge(cat, rng)
        for c, qq in [(cat, q), (cat, noisy), (gauged, _noisy(gauged, q, rng))]:
            want = frobenius_residual(qq, c)
            assert frobenius_check(qq, c) == pytest.approx(want, rel=1e-12, abs=1e-14), (name, c is cat, qq is q)


def test_spin8_1_qsystems_give_all_six_invariants(spin8_data, spin8_qsystems):
    """The six Q-systems of Spin(8)_1 give its six modular invariants, the
    permutations of v, s, c.  The two 3-cycles are not symmetric, so they settle
    the braid convention: the opposite orientation (the reference with theta
    braided backward past tau) has kernel dimensions Z transposed."""
    cat, n = spin8_data.presentation, spin8_data.ring.size
    Zs = {name: coupling_from_qsystem(cat, q) for name, q in spin8_qsystems.items()}
    want = {tuple(M.reshape(-1)) for M in enumerate_modular_invariants(spin8_data.modular)}
    assert len(want) == 6 and {tuple(Z.reshape(-1)) for Z in Zs.values()} == want
    cycle, twisted = Zs["1+v+s+c"], Zs["1+v+s+c twisted"]
    assert not np.array_equal(cycle, cycle.T) and np.array_equal(twisted, cycle.T)
    for name, q in spin8_qsystems.items():
        Z = Zs[name]
        for sigma, tau in itertools.product(range(n), repeat=2):
            basis = list(_elementary_basis(cat, sum_word(q.theta) + simple_word(tau), simple_word(sigma)))
            dim = kernel_split(_reference_maps(cat, q, sigma, tau, "minus", basis)[0])[0] if basis else 0
            assert dim == Z[tau, sigma], (name, sigma, tau)
            if Z[sigma, tau]:
                assert charged_field_basis(cat, q, sigma, tau).gram_residual < 1e-12, (name, sigma, tau)


def test_z3_regular_algebra_gives_charge_conjugation(z3_data):
    """The regular algebra of Z_3 gives Z = C, the conjugation of the non-self-dual
    sectors 1 and 2, with Theta_plus = 1 + 1 + 2 of dimension 3 and a Haag-dual ledger."""
    q = group_algebra(z3_data, [0, 1, 2])
    Z = coupling_from_qsystem(z3_data.presentation, q)
    assert Z.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert tuple(Z.reshape(-1)) in {
        tuple(M.reshape(-1)) for M in enumerate_modular_invariants(z3_data.modular)
    }
    m, d = theta_plus(z3_data.ring, Z)
    assert m.tolist() == [1, 1, 1] and d == pytest.approx(3.0)
    led = index_ledger(z3_data.ring, q, Z)
    assert (led.lam, led.lam_plus, led.mu_A) == pytest.approx((3.0, 3.0, 3.0))
    assert led.haag_dual


def _fresh(cat):
    """A new presentation of the F and R of ``cat``, with nothing kept yet."""
    ring = cat.ring
    return CategoryPresentation(ring, (ring.f_key_array, cat.f_values), (ring.r_key_array, cat.R[ring.N > 0]))


def _d4(data):
    res = search_qsystems(data.presentation, (1, 0, 0, 0, 1), n_starts=10, seed=3)
    assert res.status == "ok" and len(res.solutions) == 1
    return res.solutions[0]


@pytest.mark.parametrize("case", ["su2_4 D4", "spin8_1 1+v+s+c"])
def test_induction_outputs_do_not_depend_on_call_order(case, su2_4_data, spin8_data, spin8_qsystems):
    """Field bases read before the coupling, after it, and on a presentation that
    never computed Z are the same bytes, at every pair; so is Z, whichever call
    came first, and a caller writing into its Z changes no later Z."""
    if case == "su2_4 D4":
        cat, q = su2_4_data.presentation, _d4(su2_4_data)
    else:
        cat, q = spin8_data.presentation, spin8_qsystems["1+v+s+c"]
    pairs = list(itertools.product(range(cat.ring.size), repeat=2))

    def bases(cat):
        return [
            (basis.projector.tobytes(), basis.coefficients.tobytes())
            for basis in (charged_field_basis(cat, q, sigma, tau) for sigma, tau in pairs)
        ]

    bases_first, z_first = _fresh(cat), _fresh(cat)
    before = bases(bases_first)
    Z = coupling_from_qsystem(bases_first, q)
    assert np.array_equal(Z, Z.T) == (case == "su2_4 D4")  # Spin(8)_1's 3-cycle is not symmetric
    want = Z.tobytes()
    Z[...] = 7
    assert coupling_from_qsystem(bases_first, q).tobytes() == want
    assert coupling_from_qsystem(z_first, q).tobytes() == want == coupling_from_qsystem(cat, q).tobytes()
    assert bases(z_first) == before == bases(_fresh(cat)) == bases(cat) == bases(bases_first)


def test_inductions_are_kept_per_live_qsystem(su2_4_data):
    """One induction per Q-system, dropped with it; a Q-system that fails the
    isometry check raises on every call and leaves nothing behind."""
    cat, q = _fresh(su2_4_data.presentation), _d4(su2_4_data)
    doubled = QSystemSpec(q.theta, {key: 2 * value for key, value in q.lam.items()})
    Z = coupling_from_qsystem(cat, q)
    for sigma, tau in zip(*np.nonzero(Z)):
        charged_field_basis(cat, q, int(sigma), int(tau))
    assert len(cat.inductions) == 1
    del q
    gc.collect()
    assert len(cat.inductions) == 0
    for _ in range(2):
        with pytest.raises(DataInconsistencyError, match="lambda does not define an isometry"):
            coupling_from_qsystem(cat, doubled)
        with pytest.raises(DataInconsistencyError, match="lambda does not define an isometry"):
            charged_field_basis(cat, doubled, 0, 0)
    assert len(cat.inductions) == 0


def test_degenerate_pair_raises_only_where_read(ising_cat):
    """A pair whose kernel has no clean gap raises when it, or Z, is read, every
    time; the other pairs' field bases are unaffected."""
    cat, q = _fresh(ising_cat), car_qsystem(ising_cat)
    _induction(cat, q)[2][1, 1] = np.diag([1.0, 2e-7, 0.9e-7])
    for _ in range(2):
        for call in (lambda: charged_field_basis(cat, q, 1, 1), lambda: coupling_from_qsystem(cat, q)):
            with pytest.raises(NumericDegeneracyError, match="no clear singular-value gap"):
                call()
    assert charged_field_basis(cat, q, 2, 2).projector.tobytes() == charged_field_basis(ising_cat, q, 2, 2).projector.tobytes()


def test_lambda_errors_from_induction(ising_cat):
    car = car_qsystem(ising_cat)
    non_isometric = QSystemSpec(car.theta, {**car.lam, (0, 0, 0): 1.0})
    inadmissible = QSystemSpec(car.theta, {**car.lam, (0, 1, 0): 0.0})  # 1 x psi -> 1
    for call in (
        lambda q: coupling_from_qsystem(ising_cat, q),
        lambda q: charged_field_basis(ising_cat, q, 1, 1),
    ):
        with pytest.raises(DataInconsistencyError, match="lambda does not define an isometry"):
            call(non_isometric)
        with pytest.raises(StructuralError, match="no fusion channel 0 x 2 -> 0"):
            call(inadmissible)
    for check in (validate_qsystem, is_local, frobenius_check, charged_algebra):
        with pytest.raises(StructuralError, match="no fusion channel 0 x 2 -> 0"):
            check(inadmissible, ising_cat)
