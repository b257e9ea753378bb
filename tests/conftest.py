import itertools
import math

import numpy as np
import pytest

from bcft.catalog import fibonacci, ising, su2
from bcft.classify import Nimrep, _canonical_key, _derive_all, _select_generators


@pytest.fixture(scope="session")
def ising_data():
    return ising()


@pytest.fixture(scope="session")
def fib_data():
    return fibonacci()


@pytest.fixture(scope="session")
def su2_4_data():
    return su2(4)


@pytest.fixture(scope="session")
def all_catalogs(ising_data, fib_data, su2_4_data):
    return [ising_data, fib_data, su2(2), su2_4_data]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def brute_force_invariants(md, max_entry: int, tol: float = 1e-7):
    """Oracle: exhaustive scan over all integer matrices with bounded entries."""
    n = md.size
    out = []
    for flat in itertools.product(range(max_entry + 1), repeat=n * n):
        Z = np.array(flat, dtype=np.int64).reshape(n, n)
        if Z[0, 0] != 1:
            continue
        Zf = Z.astype(float)
        if np.max(np.abs(md.S @ Zf - Zf @ md.S)) > tol:
            continue
        if np.max(np.abs(md.T[:, None] * Zf - Zf * md.T[None, :])) > tol:
            continue
        out.append(Z)
    return sorted(out, key=lambda Z: tuple(Z.reshape(-1)))


def _row_norm_generator_matrices(ring, g: int, size: int, tol: float):
    """All candidate n^g: bounded entries, row square sums <= floor(d_g^2)."""
    d = ring.fp_dims
    entry_bound = int(math.floor(d[g] + tol))
    row_bound = int(math.floor(d[g] ** 2 + tol))
    symmetric = ring.dual[g] == g
    mats = []
    cells = (
        [(i, j) for i in range(size) for j in range(i, size)]
        if symmetric
        else [(i, j) for i in range(size) for j in range(size)]
    )

    mat = np.zeros((size, size), dtype=np.int64)

    def rows_ok():
        sq = mat**2
        return all(sq[i].sum() <= row_bound for i in range(size)) and all(
            sq[:, j].sum() <= row_bound for j in range(size)
        )

    def rec(idx):
        if idx == len(cells):
            mats.append(mat.copy())
            return
        i, j = cells[idx]
        for v in range(entry_bound + 1):
            mat[i, j] = v
            if symmetric:
                mat[j, i] = v
            if rows_ok():
                rec(idx + 1)
        mat[i, j] = 0
        if symmetric:
            mat[j, i] = 0

    rec(0)
    return mats


def brute_force_nimreps(ring, size: int, tol: float = 1e-9):
    """Oracle: nimrep orbits from generator matrices bounded only by entry
    size and row norm, derived, verified and deduplicated like
    ``enumerate_nimreps``."""
    gens, plan = _select_generators(ring)
    candidate_lists = [_row_norm_generator_matrices(ring, g, size, tol) for g in gens]
    found = {}
    eye = np.eye(size, dtype=np.int64)
    for combo in itertools.product(*candidate_lists):
        mats = _derive_all(ring, {0: eye, **dict(zip(gens, combo))}, plan)
        if mats is None:
            continue
        matrices = tuple(mats[s] for s in range(ring.size))
        if Nimrep(ring, matrices).validate():
            continue
        found.setdefault(_canonical_key(matrices, size), None)
    return [
        tuple(np.array(k, dtype=np.int64).reshape(size, size) for k in key)
        for key in sorted(found)
    ]
