import numpy as np
import pytest
import scipy.linalg
from conftest import brute_force_invariants, brute_force_nimreps

from bcft.catalog import catalog
from bcft.classify import (
    Nimrep,
    _canonical_key,
    _minimal_polynomial,
    cardy_solve,
    compatibility,
    enumerate_modular_invariants,
    enumerate_nimreps,
    regular_nimrep,
)
from bcft.errors import DataInconsistencyError
from bcft.modular import ModularData
from bcft.rings import FusionRing


def test_trivial_category_single_invariant():
    ring = FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))
    md = ModularData(ring, [[1.0]], [1.0])
    invs = enumerate_modular_invariants(md)
    assert len(invs) == 1 and invs[0].tolist() == [[1]]


def test_ising_exactly_one_invariant(ising_data):
    invs = enumerate_modular_invariants(ising_data.modular)
    assert len(invs) == 1
    assert np.array_equal(invs[0], np.eye(3, dtype=np.int64))


def test_ising_brute_force_cross_check(ising_data):
    # independent oracle: all 3x3 integer matrices with entries <= 2
    fast = enumerate_modular_invariants(ising_data.modular)
    slow = brute_force_invariants(ising_data.modular, 2)
    assert [tuple(Z.reshape(-1)) for Z in fast] == [tuple(Z.reshape(-1)) for Z in slow]


def test_fibonacci_exactly_one_invariant(fib_data):
    invs = enumerate_modular_invariants(fib_data.modular)
    assert len(invs) == 1
    assert np.array_equal(invs[0], np.eye(2, dtype=np.int64))


def test_su2_4_exactly_two_invariants(su2_4_data):
    invs = enumerate_modular_invariants(su2_4_data.modular)
    assert len(invs) == 2
    keys = {tuple(Z.reshape(-1)) for Z in invs}
    assert tuple(np.eye(5, dtype=np.int64).reshape(-1)) in keys
    block = np.zeros((5, 5), dtype=np.int64)
    block[0, 0] = block[0, 4] = block[4, 0] = block[4, 4] = 1
    block[2, 2] = 2
    assert tuple(block.reshape(-1)) in keys
    # both have the vacuum row sum rule when the vacuum row is unique
    d = su2_4_data.ring.fp_dims
    for Z in invs:
        if np.array_equal(Z[0], np.eye(5, dtype=np.int64)[0]):
            assert np.max(np.abs(Z @ d - d)) < 1e-7


def test_enumeration_deterministic(su2_4_data):
    a = enumerate_modular_invariants(su2_4_data.modular)
    b = enumerate_modular_invariants(su2_4_data.modular)
    assert [Z.tolist() for Z in a] == [Z.tolist() for Z in b]


def test_regular_nimrep_valid(all_catalogs):
    for data in all_catalogs:
        assert regular_nimrep(data.ring).validate() == []


def test_nimrep_validate_messages(ising_data):
    """Every message of ``Nimrep.validate`` on broken Ising regular nimreps."""
    ring = ising_data.ring
    reg = regular_nimrep(ring).matrices

    def check(matrices, want, **edits):
        mats = list(matrices)
        for name, mat in edits.items():
            mats[int(name[1:])] = np.array(mat, dtype=np.int64)
        assert Nimrep(ring, tuple(mats)).validate() == want

    check(reg[:2], ["expected 3 matrices, got 2"])
    check(reg, ["matrix 1 has shape (2, 2)"], n1=np.eye(2))
    check(reg, ["matrix 2 has negative entries"], n2=[[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    check(reg, ["vacuum matrix is not the identity", "representation property fails at (0,0)"], n0=reg[2])
    check(
        reg,
        ["duality fails: n^dual(1) != transpose(n^1)", "representation property fails at (1,1)"],
        n1=[[0, 1, 1], [1, 0, 1], [0, 1, 0]],
    )
    # n^1 n^1 = n^0 + n^2 holds, n^1 n^2 = n^1 fails: (1,2) comes before (2,1) row-major
    check(reg, ["representation property fails at (1,2)"], n1=[[0, 1, 0], [1, 0, 0], [0, 0, 1]], n2=np.zeros((3, 3)))


def test_fibonacci_regular_nimrep(fib_data):
    nr = regular_nimrep(fib_data.ring)
    assert nr.matrices[1].tolist() == [[0, 1], [1, 1]]


def test_ising_size3_enumeration_is_regular_orbit(ising_data):
    nims = enumerate_nimreps(ising_data.ring, 3)
    assert len(nims) == 1
    # same orbit as the regular nimrep: identical canonical keys
    from bcft.classify import _canonical_key

    reg = regular_nimrep(ising_data.ring)
    assert _canonical_key(nims[0].matrices, 3) == _canonical_key(reg.matrices, 3)


def test_ising_size2_empty(ising_data):
    assert enumerate_nimreps(ising_data.ring, 2) == []


def test_trivial_ring_size1():
    ring = FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))
    nims = enumerate_nimreps(ring, 1)
    assert len(nims) == 1
    assert nims[0].matrices[0].tolist() == [[1]]


def test_fibonacci_size2_is_regular(fib_data):
    nims = enumerate_nimreps(fib_data.ring, 2)
    assert len(nims) == 1
    from bcft.classify import _canonical_key

    assert _canonical_key(nims[0].matrices, 2) == _canonical_key(
        regular_nimrep(fib_data.ring).matrices, 2
    )


def test_cardy_solve_regular(all_catalogs):
    for data in all_catalogs:
        sol = cardy_solve(regular_nimrep(data.ring), data.modular)
        assert sol.residual < 1e-9, data.name
        # psi is S itself up to column phases; with the canonical phase fix
        # it reproduces S entrywise
        assert np.allclose(sol.psi, data.modular.S, atol=1e-9), data.name
        assert sol.exponents == tuple(range(data.ring.size))
        # rows orthonormal
        eye = np.eye(data.ring.size)
        assert np.max(np.abs(sol.psi @ sol.psi.conj().T - eye)) < 1e-9


def test_cardy_trivial():
    ring = FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))
    md = ModularData(ring, [[1.0]], [1.0])
    sol = cardy_solve(regular_nimrep(ring), md)
    assert sol.psi.tolist() == [[1.0]]


def test_cardy_rejects_foreign_spectrum(ising_data, fib_data):
    # the Fibonacci regular nimrep against a synthetic S with a foreign spectrum
    nr = regular_nimrep(fib_data.ring)
    with pytest.raises(DataInconsistencyError, match="no modular spectrum"):
        cardy_solve(
            Nimrep(fib_data.ring, nr.matrices),
            ModularData(
                fib_data.ring,
                np.array([[0.8, 0.6], [0.6, -0.8]], dtype=complex),
                np.array([1.0, 1.0j]),
            ),
        )


def test_compatibility_tables(ising_data, fib_data, z3_data):
    reg = regular_nimrep(ising_data.ring)
    ok, table = compatibility(np.eye(3, dtype=np.int64), reg, ising_data.modular)
    assert ok and table == {0: 1, 1: 1, 2: 1}
    Zbad = np.eye(3, dtype=np.int64)
    Zbad[2, 2] = 0  # synthetic, not an invariant
    ok, _ = compatibility(Zbad, reg, ising_data.modular)
    assert not ok
    ok, _ = compatibility(
        np.eye(2, dtype=np.int64), regular_nimrep(fib_data.ring), fib_data.modular
    )
    assert ok
    # Z_3: Z = C has trace 1, and its one boundary is the size-1 nimrep n^s = (1)
    C = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int64)
    size_one = Nimrep(z3_data.ring, tuple(np.ones((1, 1), dtype=np.int64) for _ in range(3)))
    assert size_one.validate() == []
    ok, table = compatibility(C, size_one, z3_data.modular)
    assert ok and table == {0: 1, 1: 0, 2: 0}
    assert not compatibility(C, regular_nimrep(z3_data.ring), z3_data.modular)[0]


def test_su2_4_block_invariant_has_d4_nimrep(su2_4_data):
    # trace 4 invariant: a size-4 nimrep compatible with it exists
    block = np.zeros((5, 5), dtype=np.int64)
    block[0, 0] = block[0, 4] = block[4, 0] = block[4, 4] = 1
    block[2, 2] = 2
    nims = enumerate_nimreps(su2_4_data.ring, 4)
    compatible = [nr for nr in nims if compatibility(block, nr, su2_4_data.modular)[0]]
    assert len(compatible) >= 1


def _catalog(name):
    return catalog("su2", int(name[4:])) if name.startswith("su2_") else catalog(name)


def _cyclic_ring(order):
    N = np.zeros((order,) * 3, dtype=np.int64)
    for a in range(order):
        for b in range(order):
            N[a, b, (a + b) % order] = 1
    return FusionRing([str(a) for a in range(order)], [-a % order for a in range(order)], N)


@pytest.mark.parametrize(
    "name, first, last",
    [
        ("ising", 1, 4),
        ("su2_2", 1, 4),
        ("fibonacci", 1, 4),
        ("su2_3", 1, 4),
        ("su2_4", 3, 4),
        # Z_3 and Z_4 have sectors that are not self-dual: n^1 is not symmetric
        ("z3", 1, 4),
        ("z4", 1, 4),
    ],
)
def test_nimreps_match_row_norm_oracle(name, first, last):
    # the spectral pruning drops no nimrep and keeps the orbit order
    ring = _cyclic_ring(int(name[1:])) if name.startswith("z") else _catalog(name).ring
    for size in range(first, last + 1):
        fast = [nr.matrices for nr in enumerate_nimreps(ring, size)]
        slow = brute_force_nimreps(ring, size)
        assert [[m.tolist() for m in t] for t in fast] == [
            [m.tolist() for m in t] for t in slow
        ], (name, size)


@pytest.mark.parametrize("name", ["ising", "fibonacci"] + [f"su2_{k}" for k in range(1, 11)])
def test_minimal_polynomial_is_exact_with_modular_roots(name):
    data = _catalog(name)
    ring, S = data.ring, data.modular.S
    for g in range(ring.size):
        coeffs = _minimal_polynomial(ring, g)
        assert all(type(c) is int for c in coeffs) and coeffs[0] == 1
        Ng = ring.N[g].astype(object)
        P = np.zeros_like(Ng)
        for c in coeffs:
            P = P @ Ng + c * np.eye(ring.size, dtype=object)
        assert not P.any(), (data.name, g)
        ratios = S[g] / S[0]
        assert np.max(np.abs(ratios.imag)) < 1e-9  # self-dual catalogs
        roots = np.roots(coeffs)
        assert len(roots) == len({round(r, 6) for r in ratios.real}), (data.name, g)
        assert max(np.min(np.abs(roots - r)) for r in ratios) < 1e-9, (data.name, g)
        assert max(np.min(np.abs(ratios - r)) for r in roots) < 1e-9, (data.name, g)


@pytest.mark.parametrize("name, size", [("fibonacci", 4), ("ising", 6)])
def test_reducible_nimreps_are_enumerated(name, size):
    # the only orbit is the regular nimrep (tadpole, A3) taken twice
    data = _catalog(name)
    nims = enumerate_nimreps(data.ring, size)
    reg = regular_nimrep(data.ring).matrices
    double = tuple(scipy.linalg.block_diag(m, m) for m in reg)
    assert len(nims) == 1
    assert _canonical_key(nims[0].matrices, size) == _canonical_key(double, size)


def test_su2_4_ade_nimreps(su2_4_data):
    # A5 at size 5 (the identity invariant), D4 at size 4 (the block one)
    d4 = np.zeros((5, 5), dtype=np.int64)
    d4[0, 0] = d4[0, 4] = d4[4, 0] = d4[4, 4] = 1
    d4[2, 2] = 2
    invariants = {"A5": np.eye(5, dtype=np.int64), "D4": d4}
    want = {3: [], 4: [["D4"]], 5: [["A5"]], 6: []}
    for size, labels in want.items():
        nims = enumerate_nimreps(su2_4_data.ring, size)
        got = [
            [k for k, Z in invariants.items() if compatibility(Z, nr, su2_4_data.modular)[0]]
            for nr in nims
        ]
        assert got == labels, size

