import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import fr_tables, label_tuples, reference_axiom_residuals, vertex_gauge
from morphisms import Morphism, Word, braiding, compose, conjugation_pair, hom_dim, identity, simple_word, split, sum_word, tensor

from bcft import category
from bcft.category import CategoryPresentation, validate_axioms
from bcft.errors import StructuralError
from bcft.rings import FusionRing


def path_count(ring, word, c):
    """Independent oracle: fusion-path counting by matrix DP (no trees)."""
    vec = np.zeros(ring.size, dtype=np.int64)
    vec[0] = 1
    for factor in word.factors:
        fvec = np.zeros(ring.size, dtype=np.int64)
        for s, m in factor:
            fvec[s] += m
        vec = np.einsum("s,t,stu->u", vec, fvec, ring.N)
    return int(vec[c])


def random_word(ring, rng, max_factors=3):
    factors = []
    for _ in range(rng.integers(0, max_factors + 1)):
        if rng.random() < 0.7:
            factors.append(((int(rng.integers(0, ring.size)), 1),))
        else:
            mult = [int(rng.integers(0, 2)) for _ in range(ring.size)]
            mult[0] = max(mult[0], 1)
            factors.append(tuple((s, m) for s, m in enumerate(mult) if m))
    return Word(tuple(factors))


def random_morphism(cat, src, tgt, rng):
    blocks = {}
    for c in range(cat.ring.size):
        ds, dt = hom_dim(cat.ring, src, c), hom_dim(cat.ring, tgt, c)
        blocks[c] = rng.normal(size=(dt, ds)) + 1j * rng.normal(size=(dt, ds))
    return Morphism(cat, src, tgt, blocks)


def test_axioms_valid_on_catalogs(all_catalogs):
    for data in all_catalogs:
        rep = validate_axioms(data.presentation)
        assert rep.pentagon_residual < 1e-12, data.name
        assert rep.hexagon_residual < 1e-12, data.name
        assert rep.unitarity_residual < 1e-12, data.name
        assert rep.valid


def test_su2_spin_half_block_closed_form(su2_level):
    # twice-spin labels: F[1,1,1,1] over e, f in (0, 2) is
    # [[-1, sqrt[3]], [sqrt[3], 1]] / [2]; at k = 1 only e = f = 0 is admissible
    for k in range(1, 17):
        q = [math.sin(math.pi * m / (k + 2)) / math.sin(math.pi / (k + 2)) for m in range(4)]
        want = np.array([[-1.0, math.sqrt(q[3])], [math.sqrt(q[3]), 1.0]]) / q[2]
        F = fr_tables(su2_level(k).presentation)[0]
        m = 1 if k == 1 else 2
        got = np.array([[F[1, 1, 1, 1, e, f] for f in (0, 2)[:m]] for e in (0, 2)[:m]])
        assert np.max(np.abs(got - want[:m, :m])) <= 1e-14, k
        assert ((1, 1, 1, 1, 0, 2) in F) == (k > 1), k


def test_su2_f_values_in_blocks_match_one_block(su2_level, monkeypatch):
    # each value depends on its own key alone, so blocks far smaller than
    # su2_6's 1680 keys, the last one partial, give the bytes of one block
    catalog = importlib.import_module("bcft.catalog")  # the package exports a function of that name
    data = su2_level(6)
    keys, whole = data.ring.f_key_array, data.presentation.f_values
    assert len(keys) < catalog._F_BLOCK
    monkeypatch.setattr(catalog, "_F_BLOCK", 100)
    assert catalog._su2_f_values(keys, 6).astype(complex).tobytes() == whole.tobytes()


def test_broken_f_entry_fails_pentagon(ising_data):
    F = {
        k: (v if k != (1, 1, 1, 1, 0, 0) else -v)
        for k, v in _fr_dicts(ising_data)[0].items()
    }
    cat = CategoryPresentation(ising_data.ring, F, _fr_dicts(ising_data)[1])
    rep = validate_axioms(cat)
    assert rep.pentagon_residual >= 0.1
    assert not rep.valid


def test_broken_r_entry_fails_hexagon(ising_data):
    F, R = _fr_dicts(ising_data)
    R[1, 1, 0] = -R[1, 1, 0]
    rep = validate_axioms(CategoryPresentation(ising_data.ring, F, R))
    assert rep.hexagon_residual >= 0.1
    assert not rep.valid


def _non_square_ising_ring(ising_data):
    N = ising_data.ring.N.copy()
    N[2, 2, 2] = 1  # psi x psi = 1 + psi: (psi psi) psi and psi (psi psi) differ
    return FusionRing(ising_data.ring.labels, ising_data.ring.dual, N)


def test_non_square_f_block_fails_unitarity(ising_data):
    ring = _non_square_ising_ring(ising_data)
    F, R = dict.fromkeys(label_tuples(ring.f_key_array), 1.0), dict.fromkeys(label_tuples(ring.r_key_array), 1.0)
    cat = CategoryPresentation(ring, F, R)
    rep = validate_axioms(cat)
    assert rep.unitarity_residual == math.inf
    assert not rep.valid
    # the pentagon and hexagon still read the non-square blocks by position
    assert _residuals(cat) == pytest.approx(reference_axiom_residuals(cat), rel=1e-12, abs=1e-15)


def _s3_ring():
    """The group ring of S_3, whose fusion does not commute (no braiding exists)."""
    perms = list(itertools.permutations(range(3)))
    N = np.zeros((6, 6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            N[i, j, perms.index(tuple(p[x] for x in q))] = 1
    dual = [perms.index(tuple(np.argsort(p).tolist())) for p in perms]
    return FusionRing([str(p) for p in perms], dual, N)


def _f_positions(ring, *labels):
    """Positions in ``f_key_array`` of the broadcast labels, -1 off the admissible keys."""
    at, off = ring._f_at(*labels)
    return np.where(off, -1, at)


def test_f_block_index_places_every_key(all_catalogs, ising_data):
    # the positions come from N alone: the admissible keys land on 0..M-1 in
    # order, and every other label tuple on -1; S_3 shows the index assumes
    # no commutativity
    for ring in [data.ring for data in all_catalogs] + [_non_square_ising_ring(ising_data), _s3_ring()]:
        keys, n = ring.f_key_array, ring.size
        assert np.array_equal(_f_positions(ring, *keys.T), np.arange(len(keys))), ring
        grid = _f_positions(ring, *np.indices((n,) * 6)).reshape(-1)
        admissible = np.zeros(n**6, dtype=bool)
        admissible[np.ravel_multi_index(tuple(keys.T), (n,) * 6)] = True
        assert np.array_equal(grid[admissible], np.arange(len(keys))) and (grid[~admissible] == -1).all(), ring
        index = ring.f_block_index
        assert index.row.itemsize == index.col.itemsize == 1, ring
        assert not any(part.flags.writeable for part in index), ring


def test_f_block_index_allocates_no_object_per_f_entry(su2_level):
    # a fresh ring, so that the index is built here: a few arrays over the
    # label tuples, not a Python object per F entry
    ring = su2_level(12).ring
    ring = FusionRing(ring.labels, ring.dual, ring.N)
    M = len(ring.f_key_array)
    tracemalloc.start()
    try:
        ring.f_block_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * M, peak / M


@pytest.mark.parametrize(
    "labels", [(1, 1, 1, 1, 0, 3), (1, 1, 1, 1, -1, 0), (-1, 1, 1, 1, 0, 0), ([0, 3], 0, 0, 0, 0, 0)]
)
def test_f_rejects_labels_out_of_range(ising_data, labels):
    # a label outside 0..n-1 is an error, never wrapped onto another key
    with pytest.raises(ValueError):
        ising_data.presentation.f(*labels)


def _fr_dicts(data):
    return tuple(map(dict, fr_tables(data.presentation)))


def _residuals(cat):
    rep = validate_axioms(cat)
    return rep.pentagon_residual, rep.hexagon_residual, rep.unitarity_residual


def test_axioms_match_reference_on_catalogs(all_catalogs, su2_level):
    # su2_6 and su2_8 (1680 and 6105 F keys) take 5 and 32 pentagon chunks, 1 hexagon chunk each
    for cat in [data.presentation for data in all_catalogs] + [su2_level(6).presentation, su2_level(8).presentation]:
        assert _residuals(cat) == pytest.approx(reference_axiom_residuals(cat), rel=1e-12, abs=1e-15)


def test_axioms_match_reference_in_noisy_gauge(all_catalogs, rng):
    # a complex vertex gauge keeps the pentagon and hexagon; the noise breaks
    # them at O(1), so every summed term and both braid orientations count
    for data in all_catalogs:
        ring, cat = data.ring, data.presentation
        u = {
            key: rng.normal() + 1j * rng.normal() if key[0] and key[1] else 1.0
            for key in label_tuples(ring.r_key_array)
        }
        F, R = vertex_gauge(cat, u)
        F = {key: val + 0.1 * (rng.normal() + 1j * rng.normal()) for key, val in F.items()}
        R = {key: val + 0.1 * (rng.normal() + 1j * rng.normal()) for key, val in R.items()}
        noisy = CategoryPresentation(ring, F, R)
        got, want = _residuals(noisy), reference_axiom_residuals(noisy)
        assert min(want) > 1e-3, data.name
        assert got == pytest.approx(want, rel=1e-12, abs=0), data.name


def test_noisy_axioms_match_reference_across_chunks(su2_level, rng, monkeypatch):
    # su2_6 (1680 F keys, 37208 pentagon pairs) at O(1) residuals: a bound far
    # below one key's pairs puts every key in a chunk of its own, 1024 pairs
    # give 37 pentagon chunks, the default bound 5, and a huge one a single
    # chunk; the residuals must agree bitwise and with the reference
    data = su2_level(6)
    ring, cat = data.ring, data.presentation
    M, m = len(ring.f_key_array), len(ring.r_key_array)
    F = cat.f_values + rng.normal(size=M) + 1j * rng.normal(size=M)
    R = cat.R[ring.N > 0] + rng.normal(size=m) + 1j * rng.normal(size=m)
    noisy = CategoryPresentation(ring, (ring.f_key_array, F), (ring.r_key_array, R))
    want = reference_axiom_residuals(noisy)
    assert min(want[:2]) > 1.0
    default = _residuals(noisy)
    assert default == pytest.approx(want, rel=1e-12, abs=0)
    for bound in (7, 1 << 10, 1 << 30):
        monkeypatch.setattr(category, "_CHUNK", bound)
        assert _residuals(noisy) == default, bound


def _hypot_max_bits(gap):
    return float(np.max(np.hypot(gap.real, gap.imag))).hex()


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300, 1e-310, 1e-322])
def test_screened_gap_is_the_hypot_maximum(rng, scale):
    # _gap gives a hypot only to the entries that np.abs puts near its maximum;
    # the result must be the maximum hypot of all entries, bit for bit, on
    # random arrays, on near-ties (moduli a few ulps apart at random phases),
    # on pairs that np.abs and hypot order oppositely, on a single entry, and
    # from normal down to subnormal magnitudes
    cases = []
    for size in (1, 2, 9, 4000):
        cases.append((rng.normal(size=size) + 1j * rng.normal(size=size)) * scale)
        radius = rng.uniform(0.5, 2.0) * scale * (1 + rng.integers(-4, 5, size=size) * 2.0**-52)
        cases.append(radius * np.exp(2j * np.pi * rng.uniform(size=size)))
    big = cases[-2]
    # one modulus at random phases: pairs whose np.abs and hypot order them oppositely
    ring = rng.uniform(0.5, 2.0) * scale * np.exp(2j * np.pi * rng.uniform(size=4000))
    mod, hyp = np.abs(ring), np.hypot(ring.real, ring.imag)
    order = np.lexsort((hyp, mod))
    flips = np.flatnonzero((np.diff(mod[order]) > 0) & (np.diff(hyp[order]) < 0))
    cases += [ring[order[k : k + 2]] for k in flips[:20].tolist()]
    if scale == 1.0:
        # about a third of the entries round differently under np.abs and hypot,
        # and a screen that kept only the largest np.abs would miss a flipped pair
        assert np.count_nonzero(np.abs(big) != np.hypot(big.real, big.imag)) > len(big) // 5
        assert len(flips) > 0
    for gap in cases:
        assert float(category._gap(gap, np.zeros_like(gap))).hex() == _hypot_max_bits(gap)
        assert float(category._gap(np.zeros_like(gap), gap)).hex() == _hypot_max_bits(gap)


@pytest.mark.parametrize(
    "gap",
    [
        np.zeros(1, complex),
        np.zeros(50, complex),
        np.array([3 + 4j]),
        np.array([1 + 1j, complex(math.inf, 0), 2j]),
        np.array([1 + 1j, complex(-math.inf, math.nan), 2j]),
        np.array([1 + 1j, complex(math.nan, 0), 2j]),
        np.array([complex(math.nan, 5), 1e308 + 1e308j]),
        np.array([1e308 + 1e308j, 1 + 1j]),
    ],
    ids=["zero", "zeros", "single", "inf", "inf-nan", "nan", "nan-overflow", "overflow"],
)
def test_screened_gap_keeps_zeros_and_non_finite_entries(gap):
    # a NaN or inf maximum of np.abs keeps every entry, so NaN and inf come
    # through as they do from the maximum hypot
    assert float(category._gap(gap, np.zeros_like(gap))).hex() == _hypot_max_bits(gap)


def _o1_noise(cat):
    """``cat`` with seeded O(1) complex noise added to every F and R entry."""
    rng, ring = np.random.default_rng(0), cat.ring
    M, m = len(ring.f_key_array), len(ring.r_key_array)
    F = cat.f_values + rng.normal(size=M) + 1j * rng.normal(size=M)
    R = cat.R[ring.N > 0] + rng.normal(size=m) + 1j * rng.normal(size=m)
    return CategoryPresentation(ring, (ring.f_key_array, F), (ring.r_key_array, R))


def _residual_bits(cat):
    return tuple(float(x).hex() for x in _residuals(cat))


# (pentagon, hexagon, unitarity) residuals as float.hex, recorded with validators
# that expanded one array entry per summed term and summed them by bincount;
# the column-rank sums add the same products in the same order.  su2_16 was
# recorded with the column-rank sums in chunks of 8192 summed terms, each
# residual's moduli all by hypot
_RESIDUAL_BITS = {
    (8, False): ("0x1.3c00000000000p-49", "0x1.6d34f03cda114p-49", "0x1.c000000000000p-50"),
    (10, False): ("0x1.1800000000000p-48", "0x1.616b27d372e28p-48", "0x1.a000000000000p-49"),
    (12, False): ("0x1.c000000000000p-48", "0x1.3cfc5da84b818p-48", "0x1.c000000000000p-48"),
    (16, False): ("0x1.30f0000000000p-46", "0x1.a6d2c2f3bd2a4p-47", "0x1.f800000000000p-48"),
    (6, True): ("0x1.342e49a07ac19p+5", "0x1.2d20521f6a38cp+5", "0x1.3ae4d7dc4596ep+4"),
    (8, True): ("0x1.cbd8b82528048p+5", "0x1.565c2dd916c8fp+5", "0x1.aed3b7302072cp+4"),
}


@pytest.mark.parametrize("level, noisy", [(8, False), (10, False), (6, True), (8, True)])
def test_axiom_residuals_keep_their_bits(su2_level, level, noisy):
    cat = su2_level(level).presentation
    assert _residual_bits(_o1_noise(cat) if noisy else cat) == _RESIDUAL_BITS[level, noisy]


@pytest.mark.slow
def test_axiom_residuals_keep_their_bits_at_su2_12(su2_level):
    # the only pinned level whose pentagon blocks reach 7 columns (su2_10 reaches 6)
    assert _residual_bits(su2_level(12).presentation) == _RESIDUAL_BITS[12, False]


@pytest.mark.slow
def test_axiom_residuals_keep_their_bits_at_su2_16(su2_level):
    # pentagon blocks reach 9 columns, and every code and position is still int32
    assert _residual_bits(su2_level(16).presentation) == _RESIDUAL_BITS[16, False]


def test_non_square_axiom_residuals_keep_their_bits(ising_data):
    ring = _non_square_ising_ring(ising_data)
    F, R = (ring.f_key_array, np.ones(len(ring.f_key_array))), (ring.r_key_array, np.ones(len(ring.r_key_array)))
    assert _residual_bits(CategoryPresentation(ring, F, R)) == ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "inf")


def test_validate_axioms_peak_memory(su2_level):
    # a fresh su2_8 presentation, so the validators' tables are built here; the
    # validators with chunks of 8192 summed terms peaked at 1,711,196 traced
    # bytes (280 per F key), and the bound is that plus a 0.5% margin, so a
    # larger chunk bound cannot buy speed with memory unnoticed: 8192 pairs
    # read 1.54 MB, and 10240 pairs 1.73 MB
    data = su2_level(8)
    ring = FusionRing(data.ring.labels, data.ring.dual, data.ring.N)
    F, R = (ring.f_key_array, data.presentation.f_values), (ring.r_key_array, data.presentation.R[ring.N > 0])
    cat = CategoryPresentation(ring, F, R)
    tracemalloc.start()
    try:
        validate_axioms(cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_720_000, peak / len(ring.f_key_array)


def test_axioms_match_reference_per_entry(ising_data, fib_data, z3_data, spin8_data):
    for data in (ising_data, fib_data, z3_data, spin8_data):
        F, R = _fr_dicts(data)
        cases = [({**F, key: F[key] + 0.5j}, R) for key in F]
        cases += [(F, {**R, key: R[key] + 0.5j}) for key in R]
        for F_case, R_case in cases:
            cat = CategoryPresentation(data.ring, F_case, R_case)
            got, want = _residuals(cat), reference_axiom_residuals(cat)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), data.name


@pytest.mark.parametrize("symbol, key", [("F", (1, 1, 1, 1, 2, 2)), ("R", (1, 1, 0))])
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_non_finite_symbol_is_structural(ising_data, symbol, key, value):
    F, R = _fr_dicts(ising_data)
    {"F": F, "R": R}[symbol][key] = value
    with pytest.raises(StructuralError, match=rf"non-finite {symbol} entry \({key[0]}, {key[1]}"):
        CategoryPresentation(ising_data.ring, F, R)


def test_missing_f_entry_is_structural(ising_data):
    F, R = _fr_dicts(ising_data)
    del F[(1, 1, 1, 1, 0, 0)]
    with pytest.raises(StructuralError, match=r"missing admissible F entry"):
        CategoryPresentation(ising_data.ring, F, R)
    F, R = _fr_dicts(ising_data)
    F[(1, 1, 1, 1, 0, 1)] = 1.0  # N[1,1,1] = 0 in Ising
    with pytest.raises(StructuralError, match=r"inadmissible F entry supplied"):
        CategoryPresentation(ising_data.ring, F, R)
    F, R = _fr_dicts(ising_data)
    del R[(1, 2, 1)]
    with pytest.raises(StructuralError, match=r"missing admissible R entry"):
        CategoryPresentation(ising_data.ring, F, R)


def test_symbol_tables_are_read_only(ising_data):
    cat = ising_data.presentation
    with pytest.raises(ValueError):
        cat.f_values[0] = 0.0
    with pytest.raises(ValueError):
        cat.R[1, 1, 0] = 1.0
    # N[1,1,1] = 0 in Ising: the key is inadmissible, so F reads exactly 0 there
    assert cat.f(1, 1, 1, 1, 0, 1) == 0
    assert not (cat.ring.f_key_array == (1, 1, 1, 1, 0, 1)).all(axis=1).any()


def test_f_lookup_and_dense_r_match_the_supplied_tables(all_catalogs, rng):
    # random complex tables, supplied in a shuffled order, on every catalog,
    # Z_3 (not self-dual) and Spin(8)_1
    for data in all_catalogs:
        ring = data.ring
        n, f_keys, r_keys = ring.size, ring.f_key_array, ring.r_key_array
        F = rng.normal(size=len(f_keys)) + 1j * rng.normal(size=len(f_keys))
        R = rng.normal(size=len(r_keys)) + 1j * rng.normal(size=len(r_keys))
        f_order, r_order = rng.permutation(len(f_keys)), rng.permutation(len(r_keys))
        F_supplied = dict(zip(map(tuple, f_keys[f_order].tolist()), F[f_order]))
        R_supplied = dict(zip(map(tuple, r_keys[r_order].tolist()), R[r_order]))
        cat = CategoryPresentation(ring, F_supplied, R_supplied)
        assert np.array_equal(cat.f(*f_keys.T), F), data.name
        grid = cat.f(*np.indices((n,) * 6))  # every label 6-tuple
        admissible = np.zeros((n,) * 6, dtype=bool)
        admissible[tuple(f_keys.T)] = True
        assert np.array_equal(grid[admissible], F) and not grid[~admissible].any(), data.name
        assert cat.R.shape == (n, n, n), data.name
        assert np.array_equal(cat.R[tuple(r_keys.T)], R) and not cat.R[ring.N == 0].any(), data.name
        assert not cat.R.flags.writeable and not cat.f_values.flags.writeable, data.name


def test_presentation_allocates_no_object_per_f_entry(su2_level):
    # the F and R symbols are stored as arrays: building a presentation from
    # label and value arrays allocates a few arrays, not a Python object per entry
    data = su2_level(12)
    ring, cat = data.ring, data.presentation
    F, R = (ring.f_key_array, cat.f_values), (ring.r_key_array, cat.R[ring.N > 0])
    tracemalloc.start()
    try:
        CategoryPresentation(ring, F, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * len(ring.f_key_array), peak / len(ring.f_key_array)


def test_multiplicity_rejected(fib_data):
    N = fib_data.ring.N.copy()
    N[1, 1, 1] = 2  # still a valid ring, but not multiplicity-free
    ring = FusionRing(fib_data.ring.labels, fib_data.ring.dual, N)
    with pytest.raises(StructuralError, match="multiplicity-free"):
        CategoryPresentation(ring, {}, {})


def test_non_commutative_fusion_rejected():
    """The group ring of S3 is multiplicity-free but not commutative, so it has no braiding."""
    group = list(itertools.permutations(range(3)))
    times = lambda g, h: tuple(g[i] for i in h)  # noqa: E731
    N = np.zeros((6, 6, 6), dtype=np.int64)
    for (i, g), (j, h) in itertools.product(enumerate(group), repeat=2):
        N[i, j, group.index(times(g, h))] = 1
    dual = [next(j for j, h in enumerate(group) if times(g, h) == group[0]) for g in group]
    ring = FusionRing([str(g) for g in group], dual, N)
    with pytest.raises(StructuralError, match="braidable fusion rules must be commutative"):
        CategoryPresentation(ring, {}, {})


def test_mapping_key_of_the_wrong_width_is_structural(ising_data):
    F, R = fr_tables(ising_data.presentation)
    with pytest.raises(StructuralError, match=r"inadmissible F entry supplied: \(0, 0, 0\)"):
        CategoryPresentation(ising_data.ring, {**F, (0, 0, 0): 1.0}, R)
    with pytest.raises(StructuralError, match=r"inadmissible R entry supplied: \(0, 0, 0, 0\)"):
        CategoryPresentation(ising_data.ring, F, {**R, (0, 0, 0, 0): 1.0})


def _hom_space_dim(ring, src, tgt):
    return sum(hom_dim(ring, src, c) * hom_dim(ring, tgt, c) for c in range(ring.size))


def test_hom_dims_match_path_counting(all_catalogs, rng):
    # hom-space dimensions from tree enumeration vs the matrix-DP oracle,
    # 1000 random word pairs per catalog
    for data in all_catalogs:
        ring = data.ring
        for _ in range(1000):
            src = random_word(ring, rng, 2)
            tgt = random_word(ring, rng, 2)
            want = sum(
                path_count(ring, src, c) * path_count(ring, tgt, c)
                for c in range(ring.size)
            )
            assert _hom_space_dim(ring, src, tgt) == want


def test_hom_basis_dimensions(ising_data, rng):
    ring = ising_data.ring
    assert _hom_space_dim(ring, Word(), Word()) == 1  # unit -> unit
    assert _hom_space_dim(ring, simple_word(1), simple_word(1, 2)) == 1  # sigma -> sigma psi
    # dimension = sum_c paths(c, source) * paths(c, target), oracle-checked
    theta = sum_word([1, 0, 1])
    src, tgt = theta, theta + simple_word(1, 1)
    want = sum(path_count(ring, src, c) * path_count(ring, tgt, c) for c in range(ring.size))
    assert _hom_space_dim(ring, src, tgt) == want
    for _ in range(50):
        s, t = random_word(ring, rng, 2), random_word(ring, rng, 2)
        want = sum(path_count(ring, s, c) * path_count(ring, t, c) for c in range(ring.size))
        assert _hom_space_dim(ring, s, t) == want


def test_split_unitarity(all_catalogs, rng):
    for data in all_catalogs:
        cat = data.presentation
        for _ in range(12):
            w = random_word(data.ring, rng, 3)
            if len(w) == 0:
                continue
            k = int(rng.integers(0, len(w) + 1))
            for _c, (M, _) in split(cat, w, k).items():
                if M.size:
                    resid = np.max(np.abs(M @ M.conj().T - np.eye(M.shape[0])))
                    assert resid < 1e-12


def test_compose_identity_and_dagger(ising_data, rng):
    cat = ising_data.presentation
    w1 = simple_word(1, 2)
    w2 = sum_word([1, 0, 1]) + simple_word(1)
    f = random_morphism(cat, w1, w2, rng)
    assert compose(identity(cat, w2), f).residual(f) == 0
    assert compose(f, identity(cat, w1)).residual(f) == 0
    g = random_morphism(cat, w2, w1, rng)
    lhs = compose(f, g).dagger()
    rhs = compose(g.dagger(), f.dagger())
    assert lhs.residual(rhs) < 1e-12
    # C* positivity: dagger(f) . f has positive semidefinite blocks
    pos = compose(f.dagger(), f)
    for blk in pos.blocks.values():
        if blk.size:
            assert np.min(np.linalg.eigvalsh((blk + blk.conj().T) / 2)) > -1e-10


def test_tensor_bifunctoriality_and_interchange(all_catalogs, rng):
    for data in all_catalogs:
        cat = data.presentation
        n = data.ring.size
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        w1, w2 = simple_word(a), simple_word(a, b)
        f = random_morphism(cat, w1, w2, rng)
        g = random_morphism(cat, w2, w1, rng)
        # bifunctoriality: f (x) g = (f (x) id) . (id (x) g)
        lhs = tensor(f, g)
        rhs = compose(tensor(f, identity(cat, w1)), tensor(identity(cat, w1), g))
        assert lhs.residual(rhs) < 1e-9
        # interchange law
        f2 = random_morphism(cat, w2, w1, rng)
        g2 = random_morphism(cat, w1, w2, rng)
        lhs = tensor(compose(f2, f), compose(g2, g))
        rhs = compose(tensor(f2, g2), tensor(f, g))
        assert lhs.residual(rhs) < 1e-9


def test_tensor_associativity(ising_data, rng):
    cat = ising_data.presentation
    ws = [simple_word(1), simple_word(2), sum_word([1, 0, 1])]
    fs = [random_morphism(cat, w, w, rng) for w in ws]
    lhs = tensor(tensor(fs[0], fs[1]), fs[2])
    rhs = tensor(fs[0], tensor(fs[1], fs[2]))
    assert lhs.residual(rhs) < 1e-9


def test_tensor_identities(ising_data):
    cat = ising_data.presentation
    wa, wb = simple_word(1), simple_word(2, 1)
    assert tensor(identity(cat, wa), identity(cat, wb)).residual(
        identity(cat, wa + wb)
    ) < 1e-12


def test_vacuum_braiding_trivial(ising_data):
    cat = ising_data.presentation
    eps = braiding(cat, simple_word(0), simple_word(1))
    # vacuum braiding is the canonical relabeling with no phase
    for blk in eps.blocks.values():
        if blk.size:
            assert np.allclose(blk, np.eye(blk.shape[0]))


def test_ising_braiding_phases(ising_data):
    cat = ising_data.presentation
    epp = braiding(cat, simple_word(2), simple_word(2))
    assert epp.blocks[0][0, 0] == pytest.approx(-1.0)
    # exchange phase in the channel (1/2 <- 1/16 <- 0), reverse orientation
    em = braiding(cat, simple_word(1), simple_word(1), "minus")
    assert em.blocks[2][0, 0] == pytest.approx(np.exp(-3j * np.pi / 8), abs=1e-12)
    ep = braiding(cat, simple_word(1), simple_word(1), "plus")
    assert ep.blocks[2][0, 0] == pytest.approx(np.exp(3j * np.pi / 8), abs=1e-12)


def test_monodromy_channel_eigenvalues(ising_data):
    cat = ising_data.presentation
    eps = braiding(cat, simple_word(1), simple_word(1))
    mono = compose(eps, eps)
    r1 = np.exp(-1j * np.pi / 8)
    rpsi = np.exp(3j * np.pi / 8)
    assert mono.blocks[0][0, 0] == pytest.approx(r1**2, abs=1e-12)
    assert mono.blocks[2][0, 0] == pytest.approx(rpsi**2, abs=1e-12)


def test_braiding_unitary_and_natural(all_catalogs, rng):
    for data in all_catalogs:
        cat = data.presentation
        n = data.ring.size
        for _ in range(4):
            a, b, c = (int(x) for x in rng.integers(0, n, size=3))
            X, Y = simple_word(a, b), simple_word(c)
            eps = braiding(cat, X, Y)
            for blk in eps.blocks.values():
                if blk.size:
                    assert np.max(np.abs(blk.conj().T @ blk - np.eye(blk.shape[1]))) < 1e-9
            f = random_morphism(cat, X, X, rng)
            g = random_morphism(cat, Y, Y, rng)
            lhs = compose(eps, tensor(f, g))
            rhs = compose(tensor(g, f), eps)
            assert lhs.residual(rhs) < 1e-9
            # naturality for morphisms with genuinely different source words
            Xp = simple_word(int(rng.integers(0, n)))
            Yp = simple_word(*(int(x) for x in rng.integers(0, n, size=2)))
            f2 = random_morphism(cat, Xp, X, rng)
            g2 = random_morphism(cat, Yp, Y, rng)
            lhs = compose(eps, tensor(f2, g2))
            rhs = compose(tensor(g2, f2), braiding(cat, Xp, Yp))
            assert lhs.residual(rhs) < 1e-9


def test_braiding_on_sums_acts_blockwise(ising_data):
    cat = ising_data.presentation
    theta = sum_word([1, 0, 1])
    eps = braiding(cat, theta, theta)
    # vacuum channel: summand pair (0,0) keeps +1, (psi,psi) picks up -1
    blk = eps.blocks[0]
    assert blk.shape == (2, 2)
    assert np.allclose(np.diag(blk), [1.0, -1.0])


def test_yang_baxter(all_catalogs):
    for data in all_catalogs:
        cat = data.presentation
        n = data.ring.size
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    A, B, C = simple_word(a), simple_word(b), simple_word(c)
                    lhs = compose(
                        tensor(braiding(cat, B, C), identity(cat, A)),
                        compose(
                            tensor(identity(cat, B), braiding(cat, A, C)),
                            tensor(braiding(cat, A, B), identity(cat, C)),
                        ),
                    )
                    rhs = compose(
                        tensor(identity(cat, C), braiding(cat, A, B)),
                        compose(
                            tensor(braiding(cat, A, C), identity(cat, B)),
                            tensor(identity(cat, A), braiding(cat, B, C)),
                        ),
                    )
                    assert lhs.residual(rhs) < 1e-9


def test_conjugation_pairs(all_catalogs):
    for data in all_catalogs:
        cat = data.presentation
        ring = data.ring
        for rho in range(ring.size):
            R, Rbar = conjugation_pair(cat, rho)
            norm = compose(R.dagger(), R).blocks[0][0, 0]
            assert norm == pytest.approx(ring.fp_dims[rho], abs=1e-9)
            norm_bar = compose(Rbar.dagger(), Rbar).blocks[0][0, 0]
            assert norm_bar == pytest.approx(ring.fp_dims[rho], abs=1e-9)


def test_conjugation_norms(ising_data, fib_data):
    R_sigma, _ = conjugation_pair(ising_data.presentation, 1)
    assert compose(R_sigma.dagger(), R_sigma).blocks[0][0, 0] == pytest.approx(
        math.sqrt(2.0)
    )
    R_tau, _ = conjugation_pair(fib_data.presentation, 1)
    assert compose(R_tau.dagger(), R_tau).blocks[0][0, 0] == pytest.approx(
        (1 + math.sqrt(5)) / 2
    )
