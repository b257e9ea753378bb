import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from conftest import gauge_transform, random_vertex_gauge
from morphisms import Morphism, Word, assemble_x, braiding, compose, identity, sum_word, tensor

from bcft import qsystems
from bcft.category import CategoryPresentation, validate_axioms
from bcft.errors import DataInconsistencyError, StructuralError
from bcft.induction import charged_field_basis, coupling_from_qsystem
from bcft.io import dump_canonical, qsystem_to_dict
from bcft.qsystems import (
    QSystemSpec,
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
from bcft.qsystems import STOP_TOL, _AxiomMap, _check_lambda, _dense, _fingerprints, _Fit, _RealForm
from bcft.rings import DEFAULT_TOL


def test_trivial_qsystem(ising_data):
    cat = ising_data.presentation
    q = trivial_qsystem(cat)
    rep = validate_qsystem(q, cat)
    assert rep["valid"]
    assert frobenius_check(q, cat) < 1e-12
    local, resid = is_local(q, cat)
    assert local and resid < 1e-12
    alg = charged_algebra(q, cat)
    assert alg.gamma == {(0, 0, 0): pytest.approx(1.0)}


def test_car_qsystem_axioms(ising_data):
    cat = ising_data.presentation
    q = car_qsystem(cat)
    rep = validate_qsystem(q, cat)
    assert rep["valid"]
    assert rep["unit_left"] < 1e-12 and rep["unit_right"] < 1e-12
    assert rep["associativity"] < 1e-12
    assert frobenius_check(q, cat) < 1e-9


def test_car_is_not_local_trivial_is(ising_data):
    cat = ising_data.presentation
    local, resid = is_local(car_qsystem(cat), cat)
    assert not local and resid > 0.1  # the psi psi -> 1 channel flips sign
    assert is_local(trivial_qsystem(cat), cat)[0]


def test_car_charged_algebra(ising_data):
    cat = ising_data.presentation
    alg = charged_algebra(car_qsystem(cat), cat)
    assert set(alg.gamma) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert abs(alg.gamma[(1, 1, 0)]) == pytest.approx(1.0)  # modulus fixed by the sum rule
    assert alg.d_theta == pytest.approx(2.0)
    assert alg.completeness_residual < 1e-12
    assert alg.associativity_residual < 1e-12
    # the completeness sum evaluates to d(theta) * delta = 2 * delta
    for k in range(2):
        total = sum(
            abs(alg.gamma.get((i, j, k), 0.0)) ** 2 for i in range(2) for j in range(2)
        )
        assert total == pytest.approx(2.0)


def test_unit_normalization_is_d_theta(ising_data, fib_data):
    # w* x = d(theta)^{-1/2} with d(theta) = sum n_s d_s (the extension index)
    for data, q in [
        (ising_data, car_qsystem(ising_data.presentation)),
        (fib_data, regular_qsystem(fib_data.presentation)),
    ]:
        cat = data.presentation
        x = assemble_x(q, cat)
        w = Morphism(cat, Word(), sum_word(q.theta), {0: np.array([[1.0]])})  # onto the vacuum
        th_id = identity(cat, sum_word(q.theta))
        val = compose(tensor(w.dagger(), th_id), x)
        dth = q.d_theta(data.ring)
        assert dth == pytest.approx(
            sum(m * data.ring.fp_dims[s] for s, m in enumerate(q.theta))
        )
        assert val.residual(dth**-0.5 * th_id) < 1e-12


def _morphism_residuals(q, cat):
    """Reference: the isometry, unit and associativity residuals through compose/tensor."""
    th = sum_word(q.theta)
    x = assemble_x(q, cat, require_isometry=False)
    w = Morphism(cat, Word(), th, {0: np.array([[1.0]])})
    id_th = identity(cat, th)
    scale = q.d_theta(cat.ring) ** -0.5
    return [
        compose(x.dagger(), x) - id_th,
        compose(tensor(w.dagger(), id_th), x) - scale * id_th,
        compose(tensor(id_th, w.dagger()), x) - scale * id_th,
        compose(tensor(x, id_th), x) - compose(tensor(id_th, x), x),
    ]


def test_axiom_map_matches_morphism_residuals(ising_data, fib_data, su2_4_data, su2_level, rng):
    ising_cat, fib = ising_data.presentation, fib_data.presentation
    s4, s10 = su2_4_data.presentation, su2_level(10).presentation
    fib_q = regular_qsystem(fib)
    e6 = [1 if a in (0, 6) else 0 for a in range(11)]
    cases = [
        (car_qsystem(ising_cat), ising_cat),
        (fib_q, fib),
        (QSystemSpec(fib_q.theta, {**fib_q.lam, (1, 1, 1): 1j * fib_q.lam[(1, 1, 1)]}), fib),
        (search_qsystems(s4, [1, 0, 0, 0, 1], n_starts=8, seed=4).solutions[0], s4),
        (search_qsystems(s4, [1, 0, 2, 0, 1], n_starts=12, seed=9).solutions[0], s4),
        (search_qsystems(s10, e6, n_starts=12, seed=1).solutions[0], s10),
        # the catalogs' F are real; a complex gauge of them tests the conjugation of F
        (car_qsystem(ising_cat), random_vertex_gauge(ising_cat, rng)),
        (fib_q, random_vertex_gauge(fib, rng)),
    ]
    assert all(validate_axioms(cat).valid for _q, cat in cases[-2:])
    # complex noise on every admissible channel, the zero ones included
    for q, cat in list(cases):
        channels = _AxiomMap(cat, q).channels
        noise = rng.normal(size=(len(channels), 2)) @ np.array([0.1, 0.1j])
        lam = {ch: q.lam.get(ch, 0.0) + z for ch, z in zip(channels, noise)}
        cases.append((QSystemSpec(q.theta, lam), cat))
    for q, cat in cases:
        axioms = _AxiomMap(cat, q)
        z = axioms.rows(_dense(q, cat.ring)[1][axioms.index >= 0])
        blocks = [b for m in _morphism_residuals(q, cat) for b in m.blocks.values() if b.size]
        want = np.concatenate([b.ravel() for b in blocks])
        assert z.shape == want.shape and np.max(np.abs(z - want)) <= 1e-13, q
        # the search's real vector: per block, the real parts and then the imaginary ones
        real = np.concatenate([part for b in blocks for part in (b.real.ravel(), b.imag.ravel())])
        assert np.max(np.abs(np.concatenate([z.real, z.imag])[axioms.order] - real)) <= 1e-13, q
        th = sum_word(q.theta)
        x = assemble_x(q, cat, require_isometry=False)
        want = compose(braiding(cat, th, th), x).residual(x)
        assert is_local(q, cat)[1] == pytest.approx(want, abs=1e-13)


def test_each_theta_builds_one_axiom_map(su2_level, monkeypatch):
    """The E6 chain at su2_10 (search, validate, charged algebra, coupling and
    the 12 field bases) builds its axiom map once, on a fresh presentation; the
    isometry check of the induction maps reads that map too."""
    data = su2_level(10)
    ring, shared = data.ring, data.presentation
    cat = CategoryPresentation(ring, (ring.f_key_array, shared.f_values), (ring.r_key_array, shared.R[ring.N > 0]))
    built = []

    class CountedAxiomMap(_AxiomMap):
        def __init__(self, cat, spec):
            built.append(spec.theta)
            super().__init__(cat, spec)

    monkeypatch.setattr(qsystems, "_AxiomMap", CountedAxiomMap)
    e6 = tuple(1 if a in (0, 6) else 0 for a in range(11))
    q = search_qsystems(cat, e6, n_starts=12, seed=1).solutions[0]
    assert validate_qsystem(q, cat)["valid"]
    charged_algebra(q, cat)
    Z = coupling_from_qsystem(cat, q)
    pairs = list(zip(*np.nonzero(Z)))
    assert len(pairs) == 12
    for sigma, tau in pairs:
        charged_field_basis(cat, q, int(sigma), int(tau))
    assert built == [e6] and list(cat.axiom_maps) == [e6]
    doubled = QSystemSpec(q.theta, {key: 2 * value for key, value in q.lam.items()})
    with pytest.raises(DataInconsistencyError, match="lambda does not define an isometry"):
        _check_lambda(doubled, cat)
    assert built == [e6]


def _central_differences(fun, x, h=1e-3):
    """Columns ``(fun(x + h e_k) - fun(x - h e_k)) / 2h`` along the last axis of ``x``, for a
    point or a stack of points: exact up to rounding on a quadratic map."""
    cols = []
    for k in range(x.shape[-1]):
        step = np.zeros_like(x)
        step[..., k] = h
        cols.append((fun(x + step) - fun(x - step)) / (2 * h))
    return np.stack(cols, axis=-1)


@pytest.fixture(scope="module")
def jacobian_cases(ising_data, su2_4_data, su2_level, spin8_data, spin8_qsystems):
    """Ising CAR, su2_4 0+2+2+4, E6 at su2_10 and the non-symmetric (twisted) Spin(8)_1 algebra."""
    ising_cat = ising_data.presentation
    return [
        (car_qsystem(ising_cat).theta, ising_cat),
        ((1, 0, 2, 0, 1), su2_4_data.presentation),
        (tuple(1 if a in (0, 6) else 0 for a in range(11)), su2_level(10).presentation),
        (spin8_qsystems["1+v+s+c twisted"].theta, spin8_data.presentation),
    ]


def _real_forms(jacobian_cases, rng):
    """Per case, a real form with a random set of free channels at random fixed values."""
    for theta, cat in jacobian_cases:
        axioms = _AxiomMap(cat, QSystemSpec(theta, {}))
        n = len(axioms.channels)
        free = np.flatnonzero(rng.random(n) < 0.7)
        yield axioms, _RealForm(axioms, free, rng.normal(size=n) + 1j * rng.normal(size=n)), theta


def test_real_form_matches_complex_rows(jacobian_cases, rng):
    for axioms, form, theta in _real_forms(jacobian_cases, rng):
        v = rng.normal(size=(5, 2 * len(form.free)))
        z = np.array([axioms.rows(lam) for lam in form.lam(v)])
        want = np.concatenate([z.real, z.imag], axis=1)[:, axioms.order]
        np.testing.assert_allclose(form(v), want, rtol=0, atol=1e-13, err_msg=str(theta))
        assert np.all(form.a <= form.b) and len(set(zip(form.row, form.a, form.b))) == len(form.q)


def test_axiom_jacobian_matches_central_differences(jacobian_cases, rng):
    for _axioms, form, theta in _real_forms(jacobian_cases, rng):
        v = rng.normal(size=(3, 2 * len(form.free)))
        J = form.jacobian(v)
        assert J.shape == (3, len(form.c), v.shape[1])
        np.testing.assert_allclose(J, _central_differences(form, v), rtol=1e-6, atol=1e-9, err_msg=str(theta))
        # Euler's identity for the quadratic part: J v = L v + 2 (f(v) - c - L v)
        Jv, Lv = np.einsum("mra,ma->mr", J, v), v @ form.L.T
        np.testing.assert_allclose(Jv + Lv, 2 * (form(v) - form.c), rtol=1e-6, atol=1e-9)


def test_search_jacobian_matches_central_differences(jacobian_cases, rng, monkeypatch):
    """The Jacobian the search hands its solver is that of the residual it hands it."""
    import bcft.qsystems as qs

    solve, checked = qs.least_squares, []

    def checking_solver(fun, x0, jac):
        x = rng.normal(size=x0.shape)
        np.testing.assert_allclose(jac(x), _central_differences(fun, x), rtol=1e-6, atol=1e-9)
        checked.append(x0.shape[1])
        return solve(fun, x0, jac=jac)

    monkeypatch.setattr(qs, "least_squares", checking_solver)
    for theta, cat in jacobian_cases:
        search_qsystems(cat, theta, n_starts=1)
    assert len(checked) == len(jacobian_cases) and min(checked) > 0


def _sequential_least_squares(fun, x0, jac):
    """The one-start Levenberg-Marquardt loop the lockstep solver replaced (same
    damping and stopping tests), kept as an oracle; returns ``(x, f, status)``."""
    x = np.asarray(x0, dtype=float)
    f = fun(x)
    J = jac(x)
    cost, A, g = f @ f, J.T @ J, J.T @ f
    mu, nu = 1e-3 * np.max(np.diag(A)), 2.0
    for _ in range(100 * len(x)):
        if cost == 0.0 or np.all(np.abs(g) <= STOP_TOL * np.sqrt(cost * np.diag(A))):
            return x, f, 1
        h = np.linalg.solve(A + mu * np.eye(len(x)), -g)
        if np.linalg.norm(h) <= STOP_TOL * (np.linalg.norm(x) + STOP_TOL):
            return x, f, 3
        f_new = fun(x + h)
        cost_new = f_new @ f_new
        predicted = h @ (mu * h - g)
        rho = (cost - cost_new) / predicted
        if not rho > 0:
            mu, nu = mu * nu, 2 * nu
            continue
        small = cost - cost_new <= STOP_TOL * cost and predicted <= STOP_TOL * cost
        x, f, cost = x + h, f_new, cost_new
        if small:
            return x, f, 2
        J = jac(x)
        A, g = J.T @ J, J.T @ f
        mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
    return x, f, 0


def _sequential_solver(fun, x0, jac):
    """The oracle run start by start on the search's stacked residual and Jacobian."""
    fits = [_sequential_least_squares(lambda x: fun(x[None])[0], x, lambda x: jac(x[None])[0]) for x in x0]
    x, f, status = map(np.array, zip(*fits))
    return _Fit(x, f, status, np.ones(len(x0), dtype=int))


def test_lockstep_solver_matches_sequential_oracle(jacobian_cases, monkeypatch):
    """Every start converges or not as it does alone in the old loop, to the same
    point, and the search finds the same classes."""
    import bcft.qsystems as qs

    solve, fits = qs.least_squares, []

    def recording_solver(fun, x0, jac):
        fits.append((solve(fun, x0, jac=jac), _sequential_solver(fun, x0, jac)))
        return fits[-1][0]

    for theta, cat in jacobian_cases:
        for seed in (0, 1, 2):
            monkeypatch.setattr(qs, "least_squares", recording_solver)
            res = search_qsystems(cat, theta, n_starts=12, seed=seed)
            fit, want = fits[-1]
            assert np.array_equal(fit.status > 0, want.status > 0), (theta, seed)
            np.testing.assert_allclose(fit.x, want.x, rtol=0, atol=1e-9, err_msg=str((theta, seed)))
            monkeypatch.setattr(qs, "least_squares", _sequential_solver)
            assert set(search_qsystems(cat, theta, n_starts=12, seed=seed).fingerprints) == set(res.fingerprints)


def test_start_alone_matches_start_in_stack(jacobian_cases, monkeypatch):
    import bcft.qsystems as qs

    solve, problems = qs.least_squares, []

    def recording_solver(fun, x0, jac):
        problems.append((fun, x0, jac))
        return solve(fun, x0, jac=jac)

    monkeypatch.setattr(qs, "least_squares", recording_solver)
    for theta, cat in jacobian_cases:
        search_qsystems(cat, theta, n_starts=12, seed=3)
    for fun, x0, jac in problems:
        rows = []  # the points each call of fun evaluates
        stack = solve(lambda v: rows.append(len(v)) or fun(v), x0, jac)
        assert sum(rows) == sum(stack.nfev)
        for i in range(len(x0)):
            rows.clear()
            alone = solve(lambda v: rows.append(len(v)) or fun(v), x0[i : i + 1], jac)
            assert alone.status[0] == stack.status[i] and alone.nfev[0] == stack.nfev[i] == sum(rows)
            np.testing.assert_allclose(alone.x[0], stack.x[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(alone.fun[0], stack.fun[i], rtol=0, atol=1e-12)


def test_alternative_normalization_fails_the_sum_rule(ising_data):
    # rescaling lambda so the unit entries are 1 (dropping the d^{-1/2}
    # prefactor) breaks isometry and hence the completeness sum rule
    cat = ising_data.presentation
    q = car_qsystem(cat)
    scaled = QSystemSpec(q.theta, {k: math.sqrt(2.0) * v for k, v in q.lam.items()})
    rep = validate_qsystem(scaled, cat)
    assert not rep["valid"]
    with pytest.raises(DataInconsistencyError):
        charged_algebra(scaled, cat)


def test_assemble_x_rejects_non_isometry(ising_data):
    cat = ising_data.presentation
    q = QSystemSpec([1, 0, 1], {(0, 0, 0): 0.3, (0, 1, 1): 0.3, (1, 0, 1): 0.3, (1, 1, 0): 0.3})
    with pytest.raises(DataInconsistencyError, match="isometry"):
        assemble_x(q, cat)


def test_inadmissible_lambda_channel(ising_data):
    cat = ising_data.presentation
    q = QSystemSpec([1, 0, 1], {(0, 0, 1): 1.0})
    with pytest.raises(StructuralError, match="no fusion channel"):
        assemble_x(q, cat, require_isometry=False)
    with pytest.raises(StructuralError, match="no fusion channel"):
        frobenius_check(q, cat)


def test_frobenius_check_rejects_bound_violation(ising_data):
    # a theta above the bound is no Q-system; its theta^3 is never built
    with pytest.raises(StructuralError, match="multiplicity bound"):
        frobenius_check(QSystemSpec([1, 2, 0], {(0, 0, 0): 1.0}), ising_data.presentation)


def test_charged_algebra_rejects_broken_qsystems(ising_data, fib_data):
    # a phase on Gamma^tau_{tau tau} alone keeps the isometry but breaks associativity
    fib = fib_data.presentation
    q = regular_qsystem(fib)
    twisted = QSystemSpec(q.theta, {**q.lam, (1, 1, 1): 1j * q.lam[(1, 1, 1)]})
    rep = validate_qsystem(twisted, fib)
    assert rep["isometry"] < 1e-12 and rep["associativity"] > 0.1
    with pytest.raises(DataInconsistencyError, match="associativity"):
        charged_algebra(twisted, fib)
    cat = ising_data.presentation
    with pytest.raises(StructuralError, match="multiplicity bound"):
        charged_algebra(QSystemSpec([1, 2, 0], {(0, 0, 0): 1.0}), cat)
    car = car_qsystem(cat)
    with pytest.raises(StructuralError, match="no fusion channel"):
        charged_algebra(QSystemSpec(car.theta, {**car.lam, (1, 1, 1): 0.3}), cat)


def test_search_trivial_theta(ising_data):
    res = search_qsystems(ising_data.presentation, [1, 0, 0], n_starts=4)
    assert res.status == "ok"
    assert len(res.solutions) == 1
    assert validate_qsystem(res.solutions[0], ising_data.presentation)["valid"]


def test_search_car_class(ising_data):
    cat = ising_data.presentation
    res = search_qsystems(cat, [1, 0, 1], n_starts=12, seed=5)
    assert res.status == "ok"
    assert len(res.solutions) == 1
    assert res.fingerprints[0] == fingerprint(car_qsystem(cat), cat)


def test_search_one_plus_sigma_has_no_solution(ising_data):
    # n_sigma = 1 <= sqrt(2) passes the bound but associativity has no solution
    res = search_qsystems(ising_data.presentation, [1, 1, 0], n_starts=16, seed=2)
    assert res.status == "ok"
    assert res.solutions == []
    assert res.best_residual > 1e-2


def test_search_fibonacci_regular(fib_data):
    cat = fib_data.presentation
    res = search_qsystems(cat, [1, 1], n_starts=12, seed=7)
    assert res.status == "ok"
    assert len(res.solutions) == 1
    assert res.fingerprints[0] == fingerprint(regular_qsystem(cat), cat)


def test_search_tells_the_two_cocycle_classes_apart(spin8_data, spin8_qsystems):
    """The untwisted and twisted Z2 x Z2 algebras of Spin(8)_1 give different Z,
    but every Gamma entry is a phase, so their Gram spectra agree; the exchange
    part of the fingerprint separates them, and the search finds both."""
    cat = spin8_data.presentation
    prints = {fingerprint(spin8_qsystems[k], cat) for k in ("1+v+s+c", "1+v+s+c twisted")}
    assert len(prints) == 2
    for seed in (0, 1, 2):
        res = search_qsystems(cat, [1, 1, 1, 1], n_starts=12, seed=seed)
        assert res.status == "ok" and set(res.fingerprints) == prints, seed


def test_search_seed_independent(fib_data):
    cat = fib_data.presentation
    a = search_qsystems(cat, [1, 1], n_starts=10, seed=11)
    b = search_qsystems(cat, [1, 1], n_starts=10, seed=999)
    assert a.fingerprints == b.fingerprints


def test_search_reruns_deterministic(ising_data):
    cat = ising_data.presentation
    a = search_qsystems(cat, [1, 0, 1], n_starts=8, seed=1)
    b = search_qsystems(cat, [1, 0, 1], n_starts=8, seed=1)
    assert a.fingerprints == b.fingerprints
    assert [dump_canonical(qsystem_to_dict(q)) for q in a.solutions] == [
        dump_canonical(qsystem_to_dict(q)) for q in b.solutions
    ]


def test_search_rejects_bound_violation(ising_data):
    with pytest.raises(StructuralError, match="multiplicity bound"):
        search_qsystems(ising_data.presentation, [1, 2, 0])


def test_validate_reports_bound_violation_without_residuals(ising_data):
    # a theta above the bound is no Q-system; its theta^3 is never built
    q = QSystemSpec([1, 2, 0], {(0, 0, 0): 1.0})
    assert validate_qsystem(q, ising_data.presentation) == {"bound_sector_1": 2.0, "valid": False}


def test_is_local_rejects_malformed_theta(ising_data):
    cat = ising_data.presentation
    with pytest.raises(StructuralError, match="multiplicity bound"):
        is_local(QSystemSpec([1, 2, 0], {(0, 0, 0): 1.0}), cat)
    with pytest.raises(StructuralError, match="theta length"):
        is_local(QSystemSpec([1, 0, 1, 0], {(0, 0, 0): 1.0}), cat)


THETA_READERS = {
    "coupling_from_qsystem": lambda q, cat: coupling_from_qsystem(cat, q),
    "charged_field_basis": lambda q, cat: charged_field_basis(cat, q, 0, 0),
    "frobenius_check": frobenius_check,
    "is_local": is_local,
    "charged_algebra": charged_algebra,
    "fingerprint": fingerprint,
    "search_qsystems": lambda q, cat: search_qsystems(cat, q.theta, n_starts=2),
}


@pytest.mark.parametrize("read", THETA_READERS.values(), ids=list(THETA_READERS))
@pytest.mark.parametrize(
    "theta, match", [((1, 0, 60), "multiplicity bound"), ((1, 0, 1, 0), "theta length")], ids=["over-bound", "length"]
)
def test_malformed_theta_is_rejected_before_theta_cubed(ising_data, read, theta, match):
    """Every entry point that reads a Q-system with a category rejects a
    wrong-length or over-bound theta as ``StructuralError`` before it builds an
    array over slot triples (for theta = 1 + 60 psi, one such array is 3.6 MB)."""
    cat = ising_data.presentation
    q = QSystemSpec(theta, {(0, 0, 0): 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(StructuralError, match=match):
            read(q, cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_su2_4_simple_current_extension_is_local(su2_4_data):
    s4 = su2_4_data
    res = search_qsystems(s4.presentation, [1, 0, 0, 0, 1], n_starts=10, seed=3)
    assert res.status == "ok"
    assert len(res.solutions) == 1
    local, resid = is_local(res.solutions[0], s4.presentation)
    assert local and resid < 1e-9


def test_gauge_transform_contracts_one_mode_at_a_time():
    # 31 slots: one loop over all 31^6 slot tuples takes seconds, three one-mode contractions milliseconds
    q = QSystemSpec((1, 0, 30), {(0, 0, 0): 1.0})
    start = time.perf_counter()
    g = gauge_transform(q, {})
    assert time.perf_counter() - start < 1.0
    assert g.theta == q.theta and g.lam == q.lam


def test_gauge_transform_preserves_validity_and_fingerprint(ising_data, fib_data, spin8_data, spin8_qsystems, rng):
    for data, q in [
        (ising_data, car_qsystem(ising_data.presentation)),
        (fib_data, regular_qsystem(fib_data.presentation)),
        (spin8_data, spin8_qsystems["1+v+s+c twisted"]),
    ]:
        cat = data.presentation
        for _ in range(5):
            unitaries = {}
            for s, m in enumerate(q.theta):
                if s == 0 or m == 0:
                    continue
                phase = np.exp(2j * np.pi * rng.random())
                unitaries[s] = phase * np.eye(m)
            g = gauge_transform(q, unitaries)
            assert validate_qsystem(g, cat)["valid"]
            assert fingerprint(g, cat) == fingerprint(q, cat)


def _reference_fingerprint(q, cat):
    """The per-triple loop that the stacked fingerprints replaced, kept as an oracle."""
    dth = q.d_theta(cat.ring)
    triples = {}
    for (p, qq, r), v in q.lam.items():
        (a, i), (b, j), (c, k) = q.slots[p], q.slots[qq], q.slots[r]
        shape = (q.theta[a], q.theta[b], q.theta[c])
        triples.setdefault((a, b, c), np.zeros(shape, dtype=complex))[i, j, k] = math.sqrt(dth) * v
    items = []
    for (a, b, c), T in sorted(triples.items()):
        if np.max(np.abs(T)) <= 1e-6:
            continue
        spectra = []
        for mode in range(3):
            M = np.moveaxis(T, mode, 0).reshape(T.shape[mode], -1)
            spectra.append(tuple(round(float(e), 6) for e in sorted(np.linalg.eigvalsh(M @ M.conj().T))))
        swapped = triples.get((b, a, c))
        z = 0j if swapped is None else np.vdot(swapped.transpose(1, 0, 2), T)
        items.append(((a, b, c), tuple(spectra), (round(float(z.real), 6) + 0.0, round(float(z.imag), 6) + 0.0)))
    return tuple(items)


def test_fingerprints_match_the_per_triple_reference(ising_data, fib_data, su2_4_data, spin8_data, spin8_qsystems, rng):
    """Single and stacked fingerprints agree with the per-triple loop, with
    multiplicities, a unitary gauge on them, and triples at the 1e-6 cut."""
    ising, s4 = ising_data.presentation, su2_4_data.presentation
    car, d4 = car_qsystem(ising), search_qsystems(s4, [1, 0, 2, 0, 1], n_starts=12, seed=9).solutions[0]
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    cases = [
        (car, ising),
        *((QSystemSpec(car.theta, {**car.lam, (1, 1, 1): z}), ising) for z in (1e-9, 1e-3j)),  # psi psi psi
        (regular_qsystem(fib_data.presentation), fib_data.presentation),
        *((q, spin8_data.presentation) for q in spin8_qsystems.values()),
        (d4, s4),
        (gauge_transform(d4, {2: u}), s4),
    ]
    for q, cat in cases:
        assert fingerprint(q, cat) == _reference_fingerprint(q, cat), q
    # one stack over the union of the keys, absent entries 0
    stacked = [q for q, cat in cases if cat is s4]
    keys = sorted(set().union(*(q.lam for q in stacked)))
    lams = np.array([[q.lam.get(key, 0) for key in keys] for q in stacked])
    want = [_reference_fingerprint(q, s4) for q in stacked]
    assert _fingerprints(d4, np.array(keys), lams, d4.d_theta(s4.ring)) == want
    assert want[0] == want[1] and not np.allclose(lams[0], lams[1])  # gauge invariant, on a lambda the gauge moved


def test_local_implies_trivial_monodromy_on_channels(su2_4_data):
    # necessary condition: the monodromy restricted to channels inside x is
    # trivial for a local Q-system
    s4 = su2_4_data
    cat = s4.presentation
    res = search_qsystems(cat, [1, 0, 0, 0, 1], n_starts=8, seed=4)
    q = res.solutions[0]
    assert is_local(q, cat)[0]
    for (p, qq, r), val in q.lam.items():
        if abs(val) < 1e-10:
            continue
        a, b, c = q.sector(p), q.sector(qq), q.sector(r)
        mono = cat.R[a, b, c] * cat.R[b, a, c]
        assert mono == pytest.approx(1.0, abs=1e-9)


def test_qsystem_spec_takes_integer_labels_and_finite_values(ising_data):
    """A fractional theta entry or lambda key is rejected, not truncated into
    the CAR Q-system, and a non-finite lambda value, or one that is not a
    number, is rejected before any reader (SVD, charged algebra, fingerprint)
    sees it; integral values such as 2.0 and np.int64(2) keep working, and so
    do Python and numpy numbers as lambda values."""
    cat = ising_data.presentation
    car = car_qsystem(cat)
    value = car.lam[(0, 1, 1)]
    rest = {k: v for k, v in car.lam.items() if k != (0, 1, 1)}
    with pytest.raises(StructuralError, match="theta entries must be finite integers"):
        QSystemSpec((1, 0, 1.6), car.lam)
    with pytest.raises(StructuralError, match="lambda keys must be finite integers"):
        QSystemSpec(car.theta, {**rest, (0, 1.9, 1): value})
    for bad in (math.nan, math.inf, complex(0, math.nan), complex(-math.inf, 1)):
        with pytest.raises(StructuralError, match=r"lambda value at \(1, 1, 0\) must be finite"):
            QSystemSpec(car.theta, {**car.lam, (1, 1, 0): bad})
    for bad in (None, "x", "1", [1, 2]):
        with pytest.raises(StructuralError, match=r"lambda value at \(1, 1, 0\) must be a number"):
            QSystemSpec(car.theta, {**car.lam, (1, 1, 0): bad})
    for number in (1, 0.5j, np.float64(0.5), np.complex128(0.5j), np.int64(1)):
        assert QSystemSpec(car.theta, {**car.lam, (1, 1, 0): number}).lam[(1, 1, 0)] == complex(number)
    integral = QSystemSpec((1.0, np.int64(0), 1), {**rest, (0.0, np.int64(1), 1.0): value})
    assert integral.theta == car.theta and integral.lam == {**rest, (0, 1, 1): value}
    assert validate_qsystem(integral, cat)["valid"]


@pytest.mark.parametrize("flag", [True, np.True_, np.bool_(False)])
def test_qsystem_spec_rejects_boolean_lambda_values(flag, ising_data):
    """A boolean is not a number, Python or numpy alike, as for a coupling matrix."""
    car = car_qsystem(ising_data.presentation)
    with pytest.raises(StructuralError, match=r"lambda value at \(1, 1, 0\) must be a number"):
        QSystemSpec(car.theta, {**car.lam, (1, 1, 0): flag})


def test_qsystem_spec_is_immutable(ising_data):
    """Lambda cannot be written into after construction, so nothing kept for a
    spec goes stale; copies and comparisons with dicts still work."""
    car = car_qsystem(ising_data.presentation)
    with pytest.raises(TypeError):
        car.lam[(1, 1, 0)] = 2.0
    assert isinstance(car.theta, tuple)
    assert {**car.lam} == car.lam == dict(car.lam) and car.lam == car_qsystem(ising_data.presentation).lam


def test_qsystem_spec_rejects_bad_shapes_and_ranges():
    """theta = 1 + psi has two summand slots: a key is a triple of slots 0 and
    1, and no multiplicity is negative."""
    with pytest.raises(StructuralError, match="theta multiplicities must be non-negative"):
        QSystemSpec((1, -1, 1), {})
    with pytest.raises(StructuralError, match=r"lambda key \(0, 0, 2\) out of slot range"):
        QSystemSpec((1, 0, 1), {(0, 0, 2): 1.0})
    for key in ((0, 0), (0, 0, 0, 0), 0):
        with pytest.raises(StructuralError, match=rf"lambda key {re.escape(str(key))} must name 3 summand slots"):
            QSystemSpec((1, 0, 1), {key: 1.0})


def test_multiplicity_bound_is_the_rings_at_any_tolerance(fib_data):
    """theta = 1 + 2 tau breaks m_tau <= floor(phi) = 1 however loose the
    residual tolerance: the bound is the ring's ``dim_floor``."""
    cat, q = fib_data.presentation, QSystemSpec((1, 2), {(0, 0, 0): 1.0})
    for tol in (DEFAULT_TOL, 0.5):
        assert validate_qsystem(q, cat, tol) == {"bound_sector_1": 2.0, "valid": False}
        for read in (is_local, charged_algebra, lambda q, cat, tol: search_qsystems(cat, q.theta, 1, tol=tol)):
            with pytest.raises(StructuralError, match=r"multiplicity bound at sector 1: 2 > floor\(d_1\)"):
                read(q, cat, tol)


def test_search_reads_theta_through_the_spec(ising_data):
    with pytest.raises(StructuralError, match="theta entries must be finite integers"):
        search_qsystems(ising_data.presentation, (1, 0, 1.5), n_starts=1)
    res = search_qsystems(ising_data.presentation, (1.0, 0, np.int64(1)), n_starts=4, seed=1)
    assert [q.theta for q in res.solutions] == [(1, 0, 1)]


def test_vacuum_multiplicity_enforced():
    with pytest.raises(StructuralError, match="vacuum multiplicity"):
        QSystemSpec([2, 0], {})
    with pytest.raises(StructuralError, match="vacuum multiplicity"):
        QSystemSpec([0, 1], {})


def test_search_reports_non_convergence_as_inconclusive(ising_data, monkeypatch):
    """A solver that stops early must surface as an explicit status."""
    import bcft.qsystems as qs

    def stuck_solver(fun, x0, jac):  # every start at the step limit without convergence
        return _Fit(x0, fun(x0), np.zeros(len(x0), dtype=int), np.ones(len(x0), dtype=int))

    monkeypatch.setattr(qs, "least_squares", stuck_solver)
    res = search_qsystems(ising_data.presentation, [1, 0, 1], n_starts=3, seed=1)
    assert res.status == "inconclusive"
    assert res.solutions == []
    assert [status for status, _n, _r in res.starts] == [0, 0, 0]


def test_search_reports_each_start(ising_data, su2_4_data, monkeypatch):
    """``starts`` holds (status, evaluations, final residual) per start, in start
    order; a start at the step limit makes a search without solutions inconclusive."""
    import bcft.qsystems as qs

    ising = ising_data.presentation
    searches = [
        (ising, [1, 0, 0], 4, 0),  # no free channel: every start at the unit values
        (ising, [1, 0, 1], 12, 5),
        (ising, [1, 1, 0], 16, 2),  # no Q-system
        (su2_4_data.presentation, [1, 0, 2, 0, 1], 12, 7),  # ok with 0 classes, best residual 0.105
    ]
    for cat, theta, n_starts, seed in searches:
        res = search_qsystems(cat, theta, n_starts=n_starts, seed=seed)
        assert len(res.starts) == n_starts
        status, nfev, final = map(np.array, zip(*res.starts))
        assert final.min() == res.best_residual
        assert set(status) <= {0, 1, 2, 3} and np.all(nfev >= 1)
        assert (res.status == "inconclusive") == (not res.solutions and (res.best_residual < 1e-3 or 0 in status))
    # a solver that reports the first start at the step limit
    solve = qs.least_squares

    def limited_solver(fun, x0, jac):
        fit = solve(fun, x0, jac=jac)
        fit.status[0] = 0
        return fit

    monkeypatch.setattr(qs, "least_squares", limited_solver)
    res = search_qsystems(ising, [1, 1, 0], n_starts=16, seed=2)
    assert res.starts[0][0] == 0 and res.best_residual >= 1e-3 and res.status == "inconclusive"
    res = search_qsystems(ising, [1, 0, 1], n_starts=12, seed=5)
    assert res.starts[0][0] == 0 and res.solutions and res.status == "ok"
