import hashlib
import inspect
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    OUT_OF_RANGE_Z,
    brute_force_invariants,
    brute_force_nimreps,
    reference_canonical_key,
    reference_commutant,
)

from bcft import classify
from bcft.catalog import catalog
from bcft.classify import (
    Nimrep,
    _candidate_generator_matrices,
    _canonical_key,
    _commutant_basis,
    _pivot_rows,
    _span_basis,
    _spectral_projectors,
    cardy_solve,
    compatibility,
    enumerate_modular_invariants,
    enumerate_nimreps,
    regular_nimrep,
)
from bcft.errors import DataInconsistencyError, NumericDegeneracyError, StructuralError
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


def test_enumerations_take_no_tolerance(ising_data, su2_level):
    """Invariants and nimreps are exact data: the invariant enumeration has no
    tolerance, and the one ``enumerate_nimreps`` keeps is not read.  At 1e-16
    a tolerance once emptied both lists."""
    assert "tol" not in inspect.signature(enumerate_modular_invariants).parameters
    assert [Z.tolist() for Z in enumerate_modular_invariants(su2_level(4).modular)] == [
        np.eye(5, dtype=int).tolist(),
        [[1, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 1]],
    ]
    for ring, size in ((ising_data.ring, 3), (su2_level(3).ring, 4), (su2_level(4).ring, 5)):
        runs = [enumerate_nimreps(ring, size, tol) for tol in (0.0, 1e-16, 1e-9, 0.3)]
        assert runs[0] and all(run == runs[0] for run in runs), (ring, size)


def test_regular_nimrep_valid(all_catalogs):
    for data in all_catalogs:
        assert regular_nimrep(data.ring).validate() == []


def test_nimrep_validate_messages(ising_data):
    """Every message of ``Nimrep.validate`` on broken Ising regular nimreps; a
    wrong matrix count or shape is raised at construction."""
    ring = ising_data.ring
    reg = regular_nimrep(ring).matrices

    def check(matrices, want, **edits):
        mats = list(matrices)
        for name, mat in edits.items():
            mats[int(name[1:])] = np.array(mat, dtype=np.int64)
        assert Nimrep(ring, tuple(mats)).validate() == want

    with pytest.raises(StructuralError, match="expected 3 matrices, got 2"):
        check(reg[:2], None)
    with pytest.raises(StructuralError, match="nimrep matrices must be square and same-sized"):
        check(reg, None, n1=np.eye(2))
    check(reg, ["matrix 2 has negative entries"], n2=[[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    check(reg, ["vacuum matrix is not the identity", "representation property fails at (0,0)"], n0=reg[2])
    check(
        reg,
        ["duality fails: n^dual(1) != transpose(n^1)", "representation property fails at (1,1)"],
        n1=[[0, 1, 1], [1, 0, 1], [0, 1, 0]],
    )
    # n^1 n^1 = n^0 + n^2 holds, n^1 n^2 = n^1 fails: (1,2) comes before (2,1) row-major
    check(reg, ["representation property fails at (1,2)"], n1=[[0, 1, 0], [1, 0, 0], [0, 0, 1]], n2=np.zeros((3, 3)))


def test_malformed_nimreps_raise_at_construction(ising_data):
    """Each malformed matrix stack is rejected when the Nimrep is built, so no
    consumer (Cardy, compatibility, orbit thetas, annulus) ever reads one."""
    ring, reg = ising_data.ring, regular_nimrep(ising_data.ring).matrices
    fractional, nan = reg.astype(float), reg.astype(float)
    fractional[1, 0, 1] = 1.5
    nan[2, 2, 0] = math.nan
    square = "nimrep matrices must be square and same-sized"
    cases = [
        (reg[:2], "expected 3 matrices, got 2"),
        ((reg[0], np.eye(2, dtype=np.int64), reg[2]), square),  # a 2x2 matrix among 3x3 ones
        (np.zeros((3, 0, 0), dtype=np.int64), square),
        (fractional, "nimrep entries must be finite integers"),
        (nan, "nimrep entries must be finite integers"),
    ]
    for mats, match in cases:
        with pytest.raises(StructuralError, match=match):
            Nimrep(ring, mats)


def test_nimrep_holds_one_read_only_integer_stack(ising_data):
    ring = ising_data.ring
    given = [np.asarray(m, dtype=float) for m in ring.N]  # integral floats are integers
    nr = Nimrep(ring, given)
    assert nr.matrices.dtype == np.int64 and nr.matrices.shape == (3, 3, 3) and nr.size == 3
    assert not nr.matrices.flags.writeable and np.array_equal(nr.matrices, ring.N)
    given[1][0, 0] = 7.0  # the stack is a copy
    assert np.array_equal(nr.matrices, ring.N) and nr.validate() == []


def test_nimrep_equality_is_ring_and_stack(ising_data, fib_data):
    ring = ising_data.ring
    nr = regular_nimrep(ring)
    same = Nimrep(FusionRing(ring.labels, ring.dual, ring.N), [m.astype(float) for m in ring.N])
    swap = [1, 0, 2]
    relabeled = Nimrep(ring, nr.matrices[:, swap][:, :, swap])  # boundaries 0 and 1 swapped
    assert nr == regular_nimrep(ring) and nr == same and not nr != same
    assert nr != relabeled and relabeled.validate() == []
    assert nr != Nimrep(ring, np.stack([np.eye(4, dtype=np.int64)] * 3))  # another size
    assert nr != regular_nimrep(fib_data.ring)
    for other in (nr.matrices, ring.N, ring, None, 3):
        assert nr != other and not nr == other


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


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_trivial_ring_every_size(size):
    """The one nimrep of the vacuum alone is the identity, a direct sum of size copies of [[1]]."""
    ring = FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))
    nims = enumerate_nimreps(ring, size)
    assert len(nims) == 1
    assert nims[0].matrices.tolist() == [np.eye(size, dtype=int).tolist()]
    assert nims[0].validate() == []


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


def test_nimrep_of_another_ring_is_malformed(ising_data, fib_data):
    """A nimrep read against the modular data of another ring raises
    StructuralError, not a broadcasting error of the projector sum."""
    fib = regular_nimrep(fib_data.ring)
    with pytest.raises(StructuralError, match="different fusion rings"):
        compatibility(np.eye(3, dtype=np.int64), fib, ising_data.modular)
    with pytest.raises(StructuralError, match="different fusion rings"):
        cardy_solve(fib, ising_data.modular)


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
    # a Z or a nimrep of the wrong size is malformed input, not an incompatibility
    for Z in (np.eye(4, dtype=np.int64), np.eye(2, dtype=np.int64), np.ones(3, dtype=np.int64)):
        with pytest.raises(StructuralError, match="Z must be 3x3"):
            compatibility(Z, reg, ising_data.modular)
    with pytest.raises(StructuralError, match="Z must be 3x3"):
        compatibility([[1, 0, 0], [0, 1], [0, 0, 1]], reg, ising_data.modular)
    # Z holds finite non-negative integers: 1.5 I is not read as I
    for Z in (1.5 * np.eye(3), np.diag([1, 1, -1]), np.full((3, 3), math.nan), np.diag([1, math.inf, 1]), *OUT_OF_RANGE_Z):
        with pytest.raises(StructuralError, match="Z must hold finite non-negative integers"):
            compatibility(Z, reg, ising_data.modular)
    # the nimrep's count and shape are checked when it is built, before compatibility reads it
    with pytest.raises(StructuralError, match="expected 3 matrices, got 2"):
        compatibility(np.eye(3, dtype=np.int64), Nimrep(ising_data.ring, reg.matrices[:2]), ising_data.modular)
    with pytest.raises(StructuralError, match="nimrep matrices must be square and same-sized"):
        mixed = Nimrep(ising_data.ring, (reg.matrices[0], np.eye(2, dtype=np.int64), reg.matrices[2]))
        compatibility(np.eye(3, dtype=np.int64), mixed, ising_data.modular)


def test_su2_4_block_invariant_has_d4_nimrep(su2_4_data):
    # trace 4 invariant: a size-4 nimrep compatible with it exists
    block = np.zeros((5, 5), dtype=np.int64)
    block[0, 0] = block[0, 4] = block[4, 0] = block[4, 4] = 1
    block[2, 2] = 2
    nims = enumerate_nimreps(su2_4_data.ring, 4)
    compatible = [nr for nr in nims if compatibility(block, nr, su2_4_data.modular)[0]]
    assert len(compatible) >= 1


def _catalog(name, su2_level):
    return su2_level(int(name[4:])) if name.startswith("su2_") else catalog(name)


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
        # Z_2 x Z_2 has two generators, of which only the first is row-ordered
        ("spin8", 1, 5),
    ],
)
def test_nimreps_match_row_norm_oracle(name, first, last, su2_level, spin8_data):
    # the spectral pruning and the row order drop no nimrep and keep the orbit order
    if name == "spin8":
        ring = spin8_data.ring
    elif name.startswith("z"):
        ring = _cyclic_ring(int(name[1:]))
    else:
        ring = _catalog(name, su2_level).ring
    for size in range(first, last + 1):
        fast = [nr.matrices for nr in enumerate_nimreps(ring, size)]
        slow = brute_force_nimreps(ring, size)
        assert [[m.tolist() for m in t] for t in fast] == [
            [m.tolist() for m in t] for t in slow
        ], (name, size)


def test_canonical_key_matches_the_relabeling_loop(su2_4_data):
    # every valid tuple is a relabeling of an enumerated orbit
    for ring, size in [(su2_4_data.ring, 4), (su2_4_data.ring, 5), (_cyclic_ring(3), 4), (_cyclic_ring(4), 4)]:
        for nr in enumerate_nimreps(ring, size):
            key = _canonical_key(nr.matrices, size)
            assert key == tuple(tuple(m.reshape(-1).tolist()) for m in nr.matrices)
            for perm in itertools.permutations(range(size)):
                relabeled = tuple(m[np.ix_(perm, perm)] for m in nr.matrices)
                assert _canonical_key(relabeled, size) == reference_canonical_key(relabeled, size) == key


@pytest.mark.parametrize("chunk", [1, 3])
def test_nimreps_do_not_depend_on_the_batch_cap(chunk, su2_4_data, monkeypatch):
    # z4: n^1 is not symmetric, so its candidates are filtered with the general eigensolver
    cases = [(su2_4_data.ring, 4), (su2_4_data.ring, 5), (_cyclic_ring(4), 4)]

    def listed():
        return [[[m.tolist() for m in nr.matrices] for nr in enumerate_nimreps(ring, size)] for ring, size in cases]

    want = listed()
    monkeypatch.setattr(classify, "CHUNK", chunk)
    assert listed() == want


def test_complete_generator_matrices_are_screened_by_spectrum(ising_data, su2_4_data, z3_data):
    """A complete n^g is kept only if its eigenvalues lie in the spectrum of N^g;
    each matrix here passes the row and spectral-radius bounds."""

    def candidates(ring, g, size):
        return [m.tolist() for m in _candidate_generator_matrices(ring, g, size)]

    # the path graph P3 has the eigenvalues 0 and +-sqrt(2): the A3 n^sigma of
    # Ising, not in the spectrum {+-sqrt(3), +-1, 0} of su2_4's N^1
    p3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert p3 in candidates(ising_data.ring, 1, 3)
    assert p3 not in candidates(su2_4_data.ring, 1, 3)
    # Z_3, where n^1 is not symmetric: the shift N^1 is kept, a nilpotent
    # matrix is dropped since 0 is not a cube root of 1
    z3 = candidates(z3_data.ring, 1, 3)
    assert z3_data.ring.N[1].tolist() in z3
    assert [[0, 1, 0], [0, 0, 1], [0, 0, 0]] not in z3


@pytest.mark.parametrize("name", ["ising", "fibonacci", "su2_1", "su2_2", "su2_3", "su2_4", "su2_5", "su2_6", "z3", "z4"])
def test_ordered_candidates_meet_every_relabeling_class(name, su2_level):
    # z3 and z4 have sectors that are not self-dual: the general eigensolver
    ring = _cyclic_ring(int(name[1:])) if name.startswith("z") else _catalog(name, su2_level).ring
    for size in range(1, 6):
        for g in range(1, ring.size):
            unordered = _candidate_generator_matrices(ring, g, size)
            ordered = _candidate_generator_matrices(ring, g, size, ordered=True)
            assert np.all(np.diff(ordered.sum(axis=2), axis=1) <= 0), (name, g, size)
            assert {_canonical_key([m], size) for m in ordered} == {
                _canonical_key([m], size) for m in unordered
            }, (name, g, size)


def test_ordered_candidates_are_fewer(su2_4_data):
    unordered = _candidate_generator_matrices(su2_4_data.ring, 1, 5)
    ordered = _candidate_generator_matrices(su2_4_data.ring, 1, 5, ordered=True)
    assert len(ordered) < len(unordered)


def test_ordered_candidate_counts_are_pinned(su2_level):
    # one labeling per class, nearly: 55 and 131 candidates with the row order alone
    for k, size, count, before in [(4, 5, 15, 55), (6, 7, 6, 131)]:
        ordered = _candidate_generator_matrices(su2_level(k).ring, 1, size, ordered=True)
        assert len(ordered) == count < before, k


def _swap_is_smaller(m, i):
    """Whether swapping boundaries i - 1 and i makes rows 0..i of m, read row-major, lexicographically smaller."""
    perm = np.arange(len(m))
    perm[[i - 1, i]] = i, i - 1
    return m[np.ix_(perm, perm)][: i + 1].reshape(-1).tolist() < m[: i + 1].reshape(-1).tolist()


@pytest.mark.parametrize("name", ["su2_4", "z4"])
def test_ordered_candidates_pass_the_equal_sum_swap_rule(name, su2_4_data):
    # su2_4: the path A5 labelled 3-0-2-1-4, where swapping boundaries 0 and 1
    # (row sums 2 and 2) gives 4-0-2-1-3, smaller in row 0.  Z_4 (n^1 not
    # symmetric): the 4-cycle 0->2->1->3->0, where the swap gives 0->3->1->2->0
    if name == "su2_4":
        ring, size = su2_4_data.ring, 5
        dropped = [[0, 0, 1, 1, 0], [0, 0, 1, 0, 1], [1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    else:
        ring, size = _cyclic_ring(4), 4
        dropped = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]]
    unordered = _candidate_generator_matrices(ring, 1, size)
    ordered = _candidate_generator_matrices(ring, 1, size, ordered=True)
    assert dropped in unordered.tolist() and dropped not in ordered.tolist()
    # the row order and the swap rule are the only screens the ordered search adds
    want = []
    for m in unordered:
        sums = m.sum(axis=1)
        if np.all(np.diff(sums) <= 0) and not any(
            sums[i - 1] == sums[i] and _swap_is_smaller(m, i) for i in range(1, size)
        ):
            want.append(m.tolist())
    assert sorted(ordered.tolist()) == sorted(want)


@pytest.mark.parametrize(
    "k, branch, orbit",
    [(16, (3, 6), "01942b1440a5"), (28, (4, 7), "218f74abc3b4"), (8, (7, 8), "78bc5287af74")],
    ids=["E7", "E8", "A9"],
)
def test_e7_e8_and_a9_orbits_from_the_ring_alone(k, branch, orbit):
    # E7 at su2_16 and E8 at su2_28 (Behrend-Pearce-Petkova-Zuber): a chain
    # with one more node on a branch node; A9 at su2_8, the chain 0-...-8.
    # The fusion ring alone, without F; an orbit's hash is SHA-256 over its
    # matrices as little-endian int64
    size = branch[1] + 1
    ring = _su2_modular(k).ring
    nims = enumerate_nimreps(ring, size)
    graph = _graph_nimrep(ring, [(a, a + 1) for a in range(size - 2)] + [branch])
    assert [hashlib.sha256(nr.matrices.astype("<i8").tobytes()).hexdigest()[:12] for nr in nims] == [orbit]
    assert _canonical_key(nims[0].matrices, size) == _canonical_key(graph.matrices, size)


@pytest.mark.slow
def test_su2_10_size_11_is_the_path_a11():
    nims = enumerate_nimreps(_su2_modular(10).ring, 11)
    edges = [(a, a + 1) for a in range(10)]
    assert [_canonical_key(nr.matrices, 11) for nr in nims] == [
        _canonical_key(_graph_nimrep(nims[0].ring, edges).matrices, 11)
    ]


def test_only_the_first_generator_is_row_ordered(fib_data):
    # Fibonacci x Fibonacci, generators t1 = N^t (x) 1 and 1t = 1 (x) N^t: no
    # labelling of the regular nimrep has the row sums of both non-increasing
    N = np.einsum("ace,bdf->abcdef", fib_data.ring.N, fib_data.ring.N).reshape(4, 4, 4)
    ring = FusionRing(["11", "1t", "t1", "tt"], [0, 1, 2, 3], N)
    keys = [_canonical_key(nr.matrices, 4) for nr in enumerate_nimreps(ring, 4)]
    # the row-norm oracle finds these two orbits too
    assert len(keys) == 2
    assert _canonical_key(regular_nimrep(ring).matrices, 4) in keys


@pytest.mark.parametrize("name, size", [("fibonacci", 4), ("ising", 6)])
def test_reducible_nimreps_are_enumerated(name, size, su2_level):
    # the only orbit is the regular nimrep (tadpole, A3) taken twice
    data = _catalog(name, su2_level)
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


# Count and SHA-256 of the Z list (int64, little-endian, in the enumeration's
# lexicographic order), computed when the pivot rows came from LAPACK's pivoted
# QR: pivots may differ on ties, the list may not.
INVARIANT_PINS = {
    "ising": (1, "234930f5a7e15b61732ca7a2c16d5a50382f3e2329e68f54f7ac1eb7cd6fc832"),
    "fibonacci": (1, "33679eedd86f9637ab73892a064cdab3d82365cf5063b145affb2272327a6ddc"),
    "su2_1": (1, "33679eedd86f9637ab73892a064cdab3d82365cf5063b145affb2272327a6ddc"),
    "su2_2": (1, "234930f5a7e15b61732ca7a2c16d5a50382f3e2329e68f54f7ac1eb7cd6fc832"),
    "su2_3": (1, "b32ccb915e3d58f1bd6613f3139eaa1f4a0ef5dcf27fb6dcf37690c86b922624"),
    "su2_4": (2, "29c17f0f2a71ede939c8bd5a0552c5a9a0ed51ab9c7ccd83bca25dacd55a0f78"),
    "su2_5": (1, "6d3c6662509dc0b5205bafa65a022b6fb6e9dde276f1b6495f73e9ead25a423b"),
    "su2_6": (2, "75e104e3aafd46c2021f4f15254cd21c14d55e769b04db96b21b44266c7a7983"),
    "su2_7": (1, "d55adde0bb1b7f2d58401e85e1525f08554d3177c0f4f04fc3ddbb879d574e06"),
    "su2_8": (2, "fb23b7266c016083a9202d3256e8e9d94049df7f710c1892561352ce5eaad77e"),
    "su2_9": (1, "74de21551bd59dd4ac45eddc68752b2189ef88f41ec485289235b3659576409a"),
    "su2_10": (3, "8475e97d2b745f27a7cc246b5c0e2a8f517deee40b3ee73207bc3d1c4cd557dd"),
    "su2_11": (1, "6a7b189808bebca09895a29ce18e52fcf737c3b505cce39a385211ef98f00470"),
    "su2_12": (2, "5564e46812087dab141cbcab3f08fc383d17a47ac6a3514300faaaf51c3ce439"),
    "su2_13": (1, "0e83f0483967ec5c076293e14f2b26d6ba9d521347cc86bc26c39489b237da47"),
    "su2_14": (2, "f4bcc4b0327a03ecd5f54928ca708342a95ebf2fa8fe1ef7db899623ee53f2a3"),
    "su2_15": (1, "26147820de0ac104c13e4e4580fd897dbe0c42e026fd6f00ae8f1689ed309bde"),
    "su2_16": (3, "d87c21ee6400945ccbc57a926e0f9434d6f9b7eeda5a40066f216dea085da541"),
    "su2_17": (1, "93caaeab6cb77ecd3360147c864b31376ce351eb2735e79bf6be3b54ebf2524f"),
    "su2_18": (2, "624c01c10bccff391eaa45ab964aa3ff6ff98c486bf7e26477f7a0ea0c630d48"),
    "su2_19": (1, "84f66e6c8cce6cbe8e7d58d4d02d1a8b4482507c7a17d14ecbb71cd4a2504c05"),
    "su2_20": (2, "5dab2d61c85ea541e07c4ede6cce951f1e698fc724484e6dd28ecbafa417db1f"),
    "spin8": (6, "ce40c2c458350807b44d419c8e7f7ebe4119dd31983735a0ca07d74ca5aa5b4d"),
    "z3": (2, "ef31d8d27e596c81d7fc8b92384ebca07f128c313ff935452053d4d8dc2e82f9"),
}


def _su2_modular(k):
    """su(2)_k modular data in the catalog's closed form, without building F and R."""
    n = k + 1
    a, b, c = np.ogrid[:n, :n, :n]
    N = (abs(a - b) <= c) & (c <= a + b) & ((a + b + c) % 2 == 0) & (a + b + c <= 2 * k)
    ring = FusionRing([str(x) for x in range(n)], range(n), N.astype(np.int64))
    x = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (k + 2)) * np.sin(np.pi * np.outer(x, x) / (k + 2))
    return ModularData(ring, S.astype(complex), np.exp(2j * np.pi * (x * x - 1) / 4.0 / (k + 2)))


def test_invariant_lists_pinned(ising_data, fib_data, spin8_data, z3_data):
    mds = {"ising": ising_data.modular, "fibonacci": fib_data.modular}
    mds.update({f"su2_{k}": _su2_modular(k) for k in range(1, 21)})
    mds.update({"spin8": spin8_data.modular, "z3": z3_data.modular})
    got = {}
    for name, md in mds.items():
        invs = enumerate_modular_invariants(md)
        digest = hashlib.sha256(b"".join(Z.astype("<i8").tobytes() for Z in invs))
        got[name] = (len(invs), digest.hexdigest())
    assert got == INVARIANT_PINS


def test_commutant_spans_the_reference(all_catalogs):
    # the T-block basis against one SVD of the whole S and T system
    mds = [data.modular for data in all_catalogs] + [_su2_modular(k) for k in range(1, 21)]
    for md in mds:
        B, ref = _commutant_basis(md), reference_commutant(md)
        assert B.shape == ref.shape, md.ring.labels
        assert np.max(np.abs(B @ B.T - ref @ ref.T)) < 1e-9, md.ring.labels


def test_nearly_equal_t_phases_are_degenerate(ising_data):
    T = np.array(ising_data.modular.T)
    T[2] = T[1] * np.exp(1e-8j)
    md = ModularData(ising_data.ring, ising_data.modular.S, T)
    with pytest.raises(NumericDegeneracyError, match="T blocks"):
        _commutant_basis(md)
    with pytest.raises(NumericDegeneracyError, match="T blocks"):
        enumerate_modular_invariants(md)


def test_negative_max_entry_is_structural(su2_4_data):
    with pytest.raises(StructuralError, match="max_entry"):
        enumerate_modular_invariants(su2_4_data.modular, -1)
    assert enumerate_modular_invariants(su2_4_data.modular, 0) == []


def _block_invariant(n, blocks, weights=None):
    """sum over blocks of ``w |sum_{a in block} chi_a|^2``."""
    Z = np.zeros((n, n), dtype=np.int64)
    for block, w in zip(blocks, weights or [1] * len(blocks)):
        Z[np.ix_(block, block)] += w
    return Z


def test_su2_28_gives_a_d_and_e8_under_both_t_phases():
    # Cappelli-Itzykson-Zuber at k = 28: A29, D16 and E8, labels 0..28 (twice the spin)
    k = 28
    A29 = np.eye(k + 1, dtype=np.int64)
    D16 = _block_invariant(k + 1, [[j, k - j] for j in range(0, k // 2, 2)] + [[k // 2]], [1] * 7 + [2])
    E8 = _block_invariant(k + 1, [[0, 10, 18, 28], [6, 12, 16, 22]])
    md = _su2_modular(k)
    c = 3 * k / (k + 2)
    phased = ModularData(md.ring, md.S, md.T * np.exp(-2j * np.pi * c / 24))
    d = md.ring.fp_dims
    bound = np.floor(np.outer(d, d) + 1e-7).astype(int).reshape(-1)
    pivots = []
    for case in (md, phased):
        invs = enumerate_modular_invariants(case)
        assert [Z.tolist() for Z in invs] == [A29.tolist(), D16.tolist(), E8.tolist()]
        rows = _pivot_rows(_commutant_basis(case), bound)
        assignments = math.prod((bound[rows] + 1 - (rows == 0)).tolist())
        pivots.append((rows.tolist(), assignments))
    assert pivots[0] == pivots[1]
    assert pivots[0][0][0] == 0  # the vacuum entry, fixed to 1


def _z4_modular():
    """Z_4 with S the discrete Fourier transform, S_ab = i^(-ab) / 2, and T_a = exp(2 pi i a^2 / 8)."""
    a = np.arange(4)
    return ModularData(_cyclic_ring(4), (-1j) ** np.outer(a, a) / 2, np.exp(2j * np.pi * a * a / 8))


def _z5_modular():
    """Z_5 with S_ab = exp(-2 pi i ab / 5) / sqrt(5) and T_a = exp(6 pi i a^2 / 5)."""
    a = np.arange(5)
    return ModularData(_cyclic_ring(5), np.exp(-2j * np.pi * np.outer(a, a) / 5) / math.sqrt(5), np.exp(6j * np.pi * a * a / 5))


@pytest.mark.parametrize("name", ["z3", "z4"])
def test_cardy_solve_splits_equal_real_parts(name, z3_data):
    # Z_3 has the eigenvalues w and w^2, Z_4 has i and -i: equal real parts,
    # in eigenspaces of their own
    md = z3_data.modular if name == "z3" else _z4_modular()
    nr = regular_nimrep(md.ring)
    P = _spectral_projectors(nr, md)
    assert [np.linalg.matrix_rank(Pt, tol=1e-6) for Pt in P] == [1] * md.size
    assert [round(np.trace(Pt).real, 9) for Pt in P] == [1] * md.size
    sol = cardy_solve(nr, md)
    assert sol.residual < 1e-9 and sol.exponents == tuple(range(md.size))
    assert np.allclose(sol.psi, md.S, atol=1e-9)


def test_spectrum_rejects_non_normal_and_non_commuting(ising_data, fib_data):
    # families of the right shape: one matrix per sector, all square and of one size
    jordan = np.array([[1, 1], [0, 1]])
    cycle = np.roll(np.eye(3), 1, axis=0)
    swap = np.eye(3)[::-1]
    cases = [
        (fib_data, [np.eye(2), jordan]),  # not normal
        # both normal, but the 3-cycle does not keep the eigenspaces of diag(1, 1, 0)
        (fib_data, [np.diag([1, 1, 0]), cycle]),
        # symmetric, and still the swap of 0 and 2 does not commute with diag(1, 1, 0)
        (ising_data, [np.eye(3), np.diag([1, 1, 0]), swap]),
    ]
    for data, mats in cases:
        nr, md = Nimrep(data.ring, tuple(np.asarray(m, dtype=np.int64) for m in mats)), data.modular
        with pytest.raises(DataInconsistencyError, match="no modular spectrum"):
            _spectral_projectors(nr, md)
        assert compatibility(np.eye(md.size, dtype=np.int64), nr, md) == (False, {})
        with pytest.raises(StructuralError, match="invalid nimrep"):
            cardy_solve(nr, md)


def _phase_fixed(psi):
    """Each column turned so that its first entry of at least 0.3 times its
    largest modulus is real positive."""
    out = psi.copy()
    for j, v in enumerate(psi.T):
        anchor = np.flatnonzero(np.abs(v) >= 0.3 * np.max(np.abs(v)))[0]
        out[:, j] = v / (v[anchor] / abs(v[anchor]))
    return out


def test_cardy_psi_is_independent_of_the_degenerate_basis(ising_data, su2_4_data, rng):
    """psi is a function of the nimrep: it is the phase-fixed span basis of the
    projector onto each joint eigenspace, however that space is found.  Here
    its basis is a null space, turned by a random unitary."""
    doubled = tuple(np.kron(np.eye(2, dtype=np.int64), m) for m in regular_nimrep(ising_data.ring).matrices)
    cases = [
        (enumerate_nimreps(su2_4_data.ring, 4)[0], su2_4_data.modular),  # D4: exponent 2 twice
        (Nimrep(ising_data.ring, doubled), ising_data.modular),  # every exponent twice
    ]
    for nr, md in cases:
        sol = cardy_solve(nr, md)
        assert len(set(sol.exponents)) < nr.size and sol.residual < 1e-9
        ratios, eye = md.S / md.S[0], np.eye(nr.size)
        blocks = []
        for t in sorted(set(sol.exponents)):
            Q = scipy.linalg.null_space(np.vstack([m - ratios[s, t] * eye for s, m in enumerate(nr.matrices)]))
            k = Q.shape[1]
            assert k == sol.exponents.count(t)
            u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            Q = Q @ u
            blocks.append(_span_basis(Q @ Q.conj().T))
        assert np.max(np.abs(sol.psi - _phase_fixed(np.hstack(blocks)))) < 1e-12


def _graph_nimrep(ring, edges):
    """The su2 nimrep of a graph: n^1 its adjacency matrix, n^(j+1) = n^1 n^j - n^(j-1)."""
    size = 1 + max(max(edge) for edge in edges)
    mats = [np.eye(size, dtype=np.int64), np.zeros((size, size), dtype=np.int64)]
    for a, b in edges:
        mats[1][a, b] = mats[1][b, a] = 1
    while len(mats) < ring.size:
        mats.append(mats[1] @ mats[-1] - mats[-2])
    return Nimrep(ring, tuple(mats))


def _e6_nimrep(ring):
    """The E6 nimrep of su2_10: n^1 the adjacency matrix of the E6 Dynkin diagram."""
    return _graph_nimrep(ring, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def test_su2_10_size_6_is_the_e6_nimrep(su2_level):
    data = su2_level(10)
    nims = enumerate_nimreps(data.ring, 6)
    assert len(nims) == 1
    assert _canonical_key(nims[0].matrices, 6) == _canonical_key(_e6_nimrep(data.ring).matrices, 6)
    e6 = _block_invariant(11, [[0, 6], [3, 7], [4, 10]])
    assert compatibility(e6, nims[0], data.modular)[0]


def test_su2_16_size_7_is_the_e7_nimrep(su2_level):
    # E7: the chain 0-1-2-3-4-5 with 6 on node 3.  Of A17, D10 and E7, only
    # E7 has trace 7, so the nimrep is compatible with E7 alone
    data = su2_level(16)
    nims = enumerate_nimreps(data.ring, 7)
    assert len(nims) == 1
    e7 = _graph_nimrep(data.ring, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    assert _canonical_key(nims[0].matrices, 7) == _canonical_key(e7.matrices, 7)
    invariants = enumerate_modular_invariants(data.modular)
    assert sorted(int(np.trace(Z)) for Z in invariants) == [7, 10, 17]
    assert [compatibility(Z, nims[0], data.modular)[0] for Z in invariants] == [
        np.trace(Z) == 7 for Z in invariants
    ]


def _spectral_corpus(ising_data, fib_data, z3_data, su2_4_data):
    """(name, nimrep, modular data) over regular, enumerated, exceptional and reducible nimreps."""
    mds = {"ising": ising_data.modular, "fibonacci": fib_data.modular}
    mds.update({f"su2_{k}": _su2_modular(k) for k in range(1, 17)})
    mds.update({"z3": z3_data.modular, "z4": _z4_modular(), "z5": _z5_modular()})
    cases = [(f"{name} regular", regular_nimrep(md.ring), md) for name, md in mds.items()]
    for name in ("z3", "z4", "z5"):
        for size in range(1, 5):
            cases += [(f"{name} size {size}", nr, mds[name]) for nr in enumerate_nimreps(mds[name].ring, size)]
    for size in (4, 5):
        cases += [(f"su2_4 size {size}", nr, su2_4_data.modular) for nr in enumerate_nimreps(su2_4_data.ring, size)]
    cases.append(("su2_10 E6", _e6_nimrep(mds["su2_10"].ring), mds["su2_10"]))
    doubled = tuple(np.kron(np.eye(2, dtype=np.int64), m) for m in regular_nimrep(ising_data.ring).matrices)
    cases.append(("ising doubled", Nimrep(ising_data.ring, doubled), ising_data.modular))
    return cases


def _sorted_spectrum(z):
    z = np.asarray(z, dtype=complex)
    return z[np.lexsort((np.round(z.imag, 6), np.round(z.real, 6)))]


def test_cardy_exponents_match_an_independent_spectrum(ising_data, fib_data, z3_data, su2_4_data):
    """The eigenvalues of every n^s, from a general eigensolver, are S_st/S_0t
    over the Cardy exponents t; the compatibility table counts those exponents."""
    cases = _spectral_corpus(ising_data, fib_data, z3_data, su2_4_data)
    assert len(cases) == 44
    for name, nr, md in cases:
        assert nr.validate() == [], name
        sol = cardy_solve(nr, md)
        assert sol.residual < 1e-9, name
        ratios = (md.S / md.S[0])[:, list(sol.exponents)]
        for s, mat in enumerate(nr.matrices):
            got = _sorted_spectrum(np.linalg.eigvals(mat.astype(float)))
            assert np.max(np.abs(got - _sorted_spectrum(ratios[s]))) < 1e-9, (name, s)
        counts = Counter(sol.exponents)
        ok, table = compatibility(np.diag([counts[t] for t in range(md.size)]), nr, md)
        assert ok and table == {t: counts[t] for t in range(md.size)}, name
