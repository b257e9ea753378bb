import itertools

import numpy as np
import pytest

from bcft.catalog import fibonacci, ising, su2


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
