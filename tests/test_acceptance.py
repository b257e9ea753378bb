"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status and timing.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import brute_force_invariants
from morphisms import braiding, simple_word

from bcft.catalog import fibonacci, ising
from bcft.category import validate_axioms
from bcft.characters import cardy_transform_check
from bcft.classify import (
    cardy_solve,
    enumerate_modular_invariants,
    enumerate_nimreps,
    regular_nimrep,
)
from bcft.induction import (
    coupling_from_qsystem,
    dhr_orbit_thetas,
    index_ledger,
    kernel_split,
    theta_plus,
    _kernel_matrices,
)
from bcft.modular import verlinde_fusion
from bcft.qsystems import (
    _check_lambda,
    car_qsystem,
    charged_algebra,
    is_local,
    search_qsystems,
    trivial_qsystem,
    validate_qsystem,
)
from bcft.rings import FusionRing, global_dimension, validate_ring

from test_characters import fermionic_oracle, ising_characters


@contextmanager
def criterion(number: int, description: str, limit: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {description}")


def test_criterion_1_ising_exchange_phase():
    with criterion(1, "Ising exchange phase exp(-3 pi i / 8)", 1.0):
        cat = ising().presentation
        eps = braiding(cat, simple_word(1), simple_word(1), "minus")
        # channel (1/2 <- 1/16 <- 0): the charge-psi block of the sigma braid
        omega = eps.blocks[2][0, 0]
        assert abs(omega - np.exp(-3j * np.pi / 8)) < 1e-9


def test_criterion_2_mu_index_arithmetic():
    with criterion(2, "mu-index and CAR index ledger", 1.0):
        data = ising()
        assert global_dimension(data.ring) == pytest.approx(4.0, abs=1e-9)
        Z = np.eye(3, dtype=np.int64)
        led = index_ledger(data.ring, car_qsystem(data.presentation), Z)
        assert led.lam == pytest.approx(2.0, abs=1e-9)
        assert led.lam_plus == pytest.approx(4.0, abs=1e-9)
        assert led.mu_B_plus == pytest.approx(1.0, abs=1e-9)
        assert led.haag_dual


def test_criterion_3_linear_problem_and_orbit():
    with criterion(3, "coupling matrices and orbit invariance", 10.0):
        data = ising()
        cat = data.presentation
        Zt = coupling_from_qsystem(cat, trivial_qsystem(cat))
        Zc = coupling_from_qsystem(cat, car_qsystem(cat))
        eye = np.eye(3, dtype=np.int64)
        assert np.array_equal(Zt, eye) and np.array_equal(Zc, eye)
        # singular-value gap ratio >= 10^3 wherever the kernel is proper
        gaps = []
        sec, lam = _check_lambda(car_qsystem(cat), cat)
        for sigma in range(3):
            for tau in range(3):
                M = _kernel_matrices(cat, sec, lam, [(sigma, tau)])[0]
                if M.shape[1]:
                    dim, _, gap = kernel_split(M)
                    if 0 < dim < M.shape[1]:
                        gaps.append(gap)
        assert gaps and min(gaps) >= 1e3
        # orbit invariance across the regular-nimrep diagonal
        for theta in dhr_orbit_thetas(Zc, regular_nimrep(data.ring)):
            res = search_qsystems(cat, theta, n_starts=10, seed=6)
            assert res.solutions, f"no Q-system found for theta={theta}"
            for q in res.solutions:
                assert np.array_equal(coupling_from_qsystem(cat, q), eye)


def test_criterion_4_theta_plus():
    with criterion(4, "Theta_plus multiplicities and dimension", 1.0):
        data = ising()
        m, d = theta_plus(data.ring, np.eye(3, dtype=np.int64))
        assert m.tolist() == [3, 0, 1]
        assert d == pytest.approx(4.0, abs=1e-12)
        assert d == pytest.approx(global_dimension(data.ring), abs=1e-9)


def test_criterion_5_invariant_enumeration(su2_4_data):
    with criterion(5, "modular invariant counts (1, 1, 2)", 60.0):
        invs = enumerate_modular_invariants(ising().modular)
        assert len(invs) == 1
        slow = brute_force_invariants(ising().modular, 2)
        assert [tuple(Z.reshape(-1)) for Z in slow] == [
            tuple(Z.reshape(-1)) for Z in invs
        ]
        assert len(enumerate_modular_invariants(fibonacci().modular)) == 1
        assert len(enumerate_modular_invariants(su2_4_data.modular)) == 2


def test_criterion_6_nimreps_and_cardy():
    with criterion(6, "nimrep enumeration and the Cardy equation", 10.0):
        data = ising()
        nims = enumerate_nimreps(data.ring, 3)
        assert len(nims) == 1
        from bcft.classify import _canonical_key

        assert _canonical_key(nims[0].matrices, 3) == _canonical_key(
            regular_nimrep(data.ring).matrices, 3
        )
        assert enumerate_nimreps(data.ring, 2) == []
        sol = cardy_solve(regular_nimrep(data.ring), data.modular)
        assert sol.residual < 1e-9
        # psi equals S up to column phases
        S = data.modular.S
        for j in range(3):
            overlaps = np.abs(S.conj().T @ sol.psi[:, j])
            assert overlaps[sol.exponents[j]] == pytest.approx(1.0, abs=1e-9)


def test_criterion_7_qsystem_axioms():
    with criterion(7, "Q-system axioms, sum rule and locality", 5.0):
        cat = ising().presentation
        car = car_qsystem(cat)
        rep = validate_qsystem(car, cat)
        assert rep["valid"]
        assert max(rep["unit_left"], rep["unit_right"], rep["associativity"]) < 1e-9
        alg = charged_algebra(car, cat)
        assert alg.completeness_residual < 1e-9  # the sum rule equals 2 delta
        assert alg.d_theta == pytest.approx(2.0)
        local, _ = is_local(car, cat)
        assert not local  # the extension is Fermi
        assert is_local(trivial_qsystem(cat), cat)[0]


def test_criterion_8_partition_modular_check():
    with criterion(8, "annulus modular check and character oracle", 10.0):
        data = ising()
        chars100 = ising_characters(100)
        oracle = fermionic_oracle(100)
        for series, want in zip(chars100, oracle):
            assert np.array_equal(series.coeffs, want)
        chars = ising_characters(60)
        sol = cardy_solve(regular_nimrep(data.ring), data.modular)
        for beta in (3.0, 2 * math.pi, 9.0):
            for a in range(3):
                for b in range(3):
                    report = cardy_transform_check(
                        sol, data.modular, chars, a, b, beta, window=(2.9, 13.2)
                    )
                    assert report.residual < 1e-6


def test_criterion_9_property_suites(tmp_path, su2_level):
    with criterion(9, "mutation detection, su2 axioms, determinism", 120.0):
        rng = np.random.default_rng(1729)
        # 100 random single-entry mutations per catalog, all caught by the
        # ring axioms or by Verlinde consistency with the catalog S matrix
        for data in (ising(), fibonacci(), su2_level(4)):
            ring = data.ring
            verlinde_ring = verlinde_fusion(data.modular)
            for _ in range(100):
                s, t, u = rng.integers(0, ring.size, size=3)
                N = ring.N.copy()
                N[s, t, u] = N[s, t, u] + 1 if N[s, t, u] == 0 else N[s, t, u] - 1
                mutant = FusionRing(ring.labels, ring.dual, N)
                caught = bool(validate_ring(mutant)) or verlinde_ring != mutant
                assert caught
        # pentagon/hexagon residuals on su2 levels 1..6
        for k in range(1, 7):
            rep = validate_axioms(su2_level(k).presentation)
            assert rep.pentagon_residual < 1e-9, k
            assert rep.hexagon_residual < 1e-9, k
            assert rep.unitarity_residual < 1e-9, k
        # determinism of enumeration reports across reruns
        from bcft.cli import main
        from bcft.io import save_category, save_qsystem

        cat_file = tmp_path / "ising.json"
        save_category(ising(), cat_file)
        q_file = tmp_path / "car.json"
        save_qsystem(car_qsystem(ising().presentation), q_file)
        outs = []
        for run in range(3):
            out = tmp_path / f"report_{run}.json"
            code = main(["induce", str(cat_file), str(q_file), "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        inv1, inv2 = tmp_path / "inv1.json", tmp_path / "inv2.json"
        assert main(["invariants", str(cat_file), "--out", str(inv1)]) == 0
        assert main(["invariants", str(cat_file), "--out", str(inv2)]) == 0
        assert inv1.read_bytes() == inv2.read_bytes()
