import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from bcft.errors import StructuralError
from bcft.rings import (
    FusionRing,
    check_integers,
    fp_dimensions,
    global_dimension,
    validate_ring,
)
from conftest import label_tuples, reference_f_keys
from morphisms import hom_dim, simple_word, tree_index


def trivial_ring():
    return FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))


def test_trivial_ring_valid():
    assert validate_ring(trivial_ring()) == []
    assert trivial_ring().N[0].tolist() == [[1]]
    assert global_dimension(trivial_ring()) == pytest.approx(1.0)


def test_ising_ring_valid(ising_data):
    assert validate_ring(ising_data.ring) == []


def test_ring_entries_are_integers_never_truncated(ising_data):
    """dual and N take integers, integral floats such as 2.0 included; a
    fraction, a NaN or an infinity is malformed, never cast."""
    labels, dual, N = ising_data.ring.labels, ising_data.ring.dual, ising_data.ring.N
    assert FusionRing(labels, [np.int64(0), 1.0, 2], N.astype(float)) == ising_data.ring
    with pytest.raises(StructuralError, match="dual entries must be finite integers"):
        FusionRing(labels, (0, 1.7, 2), N)
    for bad in (0.5, math.nan, math.inf):
        fractional = N.astype(float)
        fractional[1, 1, 2] = bad
        with pytest.raises(StructuralError, match="N entries must be finite integers"):
            FusionRing(labels, dual, fractional)


def test_dim_floor_is_the_read_only_floor_of_each_dimension(all_catalogs, su2_level):
    """floor(d_s), against the closed form d_j = sin(pi (j+1)/(k+2)) / sin(pi/(k+2))
    of su2_k, whose only integer dimensions are 1 and, at k = 4, d_2 = 2; the
    pointed rings of the fixtures have d_s = 1."""
    for k in range(1, 11):
        d = [math.sin(math.pi * (j + 1) / (k + 2)) / math.sin(math.pi / (k + 2)) for j in range(k + 1)]
        want = [round(x) if abs(x - round(x)) < 1e-6 else math.floor(x) for x in d]
        assert su2_level(k).ring.dim_floor.tolist() == want
    want = {"ising": [1, 1, 1], "fibonacci": [1, 1], "su2_2": [1, 1, 1], "su2_4": [1, 1, 2, 1, 1], "z3": [1] * 3}
    for data in all_catalogs:
        assert data.ring.dim_floor.tolist() == want.get(data.name, [1] * 4), data.name  # spin8_1: Z2 x Z2
    floor = all_catalogs[0].ring.dim_floor  # cached, read-only int64
    assert floor.dtype == np.int64 and not floor.flags.writeable and all_catalogs[0].ring.dim_floor is floor
    with pytest.raises(ValueError):
        floor[1] = 2


def test_ising_sigma_matrix_is_a3_path(ising_data):
    # sigma row/column pattern of the A3 path graph
    n_sigma = ising_data.ring.N[1]
    assert n_sigma.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_fibonacci_tau_matrix(fib_data):
    assert fib_data.ring.N[1].tolist() == [[0, 1], [1, 1]]


def test_fp_dimensions(ising_data, fib_data):
    d = fp_dimensions(ising_data.ring)
    assert d == pytest.approx([1.0, math.sqrt(2.0), 1.0], abs=1e-12)
    phi = (1 + math.sqrt(5)) / 2
    assert fp_dimensions(fib_data.ring) == pytest.approx([1.0, phi], abs=1e-12)
    # duality and the dimension identity
    for data in (ising_data, fib_data):
        ring = data.ring
        d = fp_dimensions(ring)
        for s in range(ring.size):
            assert d[s] == pytest.approx(d[ring.dual[s]], abs=1e-12)
        resid = np.max(np.abs(np.outer(d, d) - np.einsum("stu,u->st", ring.N, d)))
        assert resid < 1e-9


def test_global_dimension(ising_data, fib_data):
    assert global_dimension(ising_data.ring) == pytest.approx(4.0, abs=1e-12)
    phi = (1 + math.sqrt(5)) / 2
    assert global_dimension(fib_data.ring) == pytest.approx(1 + phi**2, abs=1e-12)
    assert global_dimension(fib_data.ring) == pytest.approx((5 + math.sqrt(5)) / 2)


def test_mutated_ising_associativity_violation(ising_data):
    # sigma x sigma = 1 only: (sigma sigma) psi = psi but sigma (sigma psi) = 1
    N = ising_data.ring.N.copy()
    N[1, 1, 2] = 0
    bad = validate_ring(FusionRing(ising_data.ring.labels, ising_data.ring.dual, N))
    assert any("associativity" in b or "reciprocity" in b for b in bad)


def test_fusion_matrices_commute(all_catalogs):
    for data in all_catalogs:
        N = data.ring.N
        for s in range(data.ring.size):
            for t in range(data.ring.size):
                assert np.array_equal(N[s] @ N[t], N[t] @ N[s])


def test_admissible_key_counts(all_catalogs):
    for data in all_catalogs:
        ring = data.ring
        M = (ring.N != 0).astype(np.int64)
        f_keys, r_keys = label_tuples(ring.f_key_array), label_tuples(ring.r_key_array)
        for keys in (f_keys, r_keys):
            assert list(keys) == sorted(set(keys)), data.name
        assert len(f_keys) == np.einsum("abe,ecd,bcf,afd->", M, M, M, M)
        assert len(r_keys) == np.count_nonzero(ring.N)


def _su2_ring(k):
    """The su(2)_k fusion ring alone: labels twice the spin, truncated Clebsch-Gordan rules."""
    a, b, c = np.ogrid[: k + 1, : k + 1, : k + 1]
    N = (abs(a - b) <= c) & (c <= a + b) & ((a + b + c) % 2 == 0) & (a + b + c <= 2 * k)
    return FusionRing([str(x) for x in range(k + 1)], range(k + 1), N.astype(np.int64))


def test_f_keys_match_reference(all_catalogs):
    rings = [data.ring for data in all_catalogs] + [_su2_ring(k) for k in range(1, 17)]
    for ring in rings:
        keys, want = ring.f_key_array, reference_f_keys(ring)
        assert label_tuples(keys) == want, ring
        assert keys.dtype == np.int64 and keys.shape == (len(want), 6)
        assert not keys.flags.writeable and keys.flags.f_contiguous
        assert label_tuples(ring.r_key_array) == tuple(map(tuple, np.argwhere(ring.N > 0).tolist()))


def test_f_key_enumeration_has_no_n6_temporary():
    # Z_20 has n^6 = 64M label tuples but only n^3 = 8000 admissible F keys
    n = 20
    a, b = np.indices((n, n))
    N = np.zeros((n, n, n), dtype=np.int64)
    N[a, b, (a + b) % n] = 1
    ring = FusionRing([str(x) for x in range(n)], [-x % n for x in range(n)], N)
    tracemalloc.start()
    try:
        keys = ring.f_key_array
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == n**3
    assert peak < n**6 / 4


def test_tree_index_is_read_only(ising_data):
    # the index is shared by every caller on the ring, so a caller must not be able to change it
    tidx = tree_index(ising_data.ring, simple_word(1, 1), 2)
    tree = next(iter(tidx))
    with pytest.raises(TypeError):
        tidx[tree] = 7
    assert tree_index(ising_data.ring, simple_word(1, 1), 2)[tree] == 0


def test_tree_cache_freed_with_ring(ising_data):
    # labels unlike any other ring's, so no cache can hold an equal ring instead
    ring = FusionRing(["vac", "sigma", "psi"], ising_data.ring.dual, ising_data.ring.N)
    assert hom_dim(ring, simple_word(1, 1, 1), 1) == 2
    assert tree_index(ring, simple_word(1, 1), 2)
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None


def test_unsigned_integers_beyond_int64_are_malformed():
    """numpy reads a Python int above 2^63 - 1 as uint64; it is out of int64
    range and must not wrap to a negative value."""
    for bad in (2**63, np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(StructuralError, match="x must be finite integers"):
            check_integers(bad, "x")
    assert check_integers(np.array([2**63 - 1, 3], dtype=np.uint64), "x").tolist() == [2**63 - 1, 3]


def test_structural_errors():
    with pytest.raises(StructuralError):
        FusionRing(["0", "x"], [0, 1], np.zeros((2, 2)))  # bad shape
    with pytest.raises(StructuralError):
        FusionRing(["0"], [0], np.array([[[0.5]]]))  # non-integer
    with pytest.raises(StructuralError, match="at least the vacuum sector"):
        FusionRing([], [], np.zeros((0, 0, 0), dtype=np.int64))
    with pytest.raises(StructuralError, match="sector labels must be distinct"):
        FusionRing(["0", "0"], [0, 1], np.zeros((2, 2, 2), dtype=np.int64))
    with pytest.raises(StructuralError, match="dual must be a length-2 list of sector indices"):
        FusionRing(["0", "1"], [0, 2], np.zeros((2, 2, 2), dtype=np.int64))


@pytest.mark.parametrize("n_mutations", [100])
def test_random_mutations_change_or_break_the_ring(all_catalogs, rng, n_mutations):
    """Single-entry mutations are either axiom violations or a different ring.

    Some mutations produce a *valid but different* fusion ring (e.g. raising
    N[tau,tau,tau]); those are caught downstream by the Verlinde consistency
    check against the catalog S matrix (see test_acceptance).
    """
    for data in all_catalogs:
        ring = data.ring
        n = ring.size
        for _ in range(n_mutations):
            s, t, u = rng.integers(0, n, size=3)
            N = ring.N.copy()
            N[s, t, u] = N[s, t, u] + 1 if N[s, t, u] == 0 else N[s, t, u] - 1
            mutant = FusionRing(ring.labels, ring.dual, N)
            assert mutant != ring
            bad = validate_ring(mutant)
            if not bad:
                # survived the ring axioms: must still disagree with Verlinde
                from bcft.modular import verlinde_fusion

                assert verlinde_fusion(data.modular) != mutant
