import math

import numpy as np
import pytest

from bcft.errors import StructuralError
from bcft.modular import (
    ModularData,
    quantum_dimensions,
    validate_modular,
    verlinde_fusion,
)
from bcft.rings import FusionRing


def test_trivial_modular_data():
    ring = FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))
    md = ModularData(ring, [[1.0]], [1.0])
    assert validate_modular(md) == []
    assert verlinde_fusion(md) == ring
    assert quantum_dimensions(md) == pytest.approx([1.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_modular_entry_is_structural(ising_data, value):
    S, T = ising_data.modular.S.copy(), ising_data.modular.T.copy()
    S[1, 1] = value
    with pytest.raises(StructuralError, match=r"non-finite S entry \(1, 1\)"):
        ModularData(ising_data.ring, S, T)
    T[1] = value
    with pytest.raises(StructuralError, match=r"non-finite T entry \(1,\)"):
        ModularData(ising_data.ring, ising_data.modular.S, T)


def test_catalog_modular_valid(all_catalogs):
    for data in all_catalogs:
        assert validate_modular(data.modular) == [], data.name


def test_validate_modular_names_a_broken_t(ising_data):
    S, T = ising_data.modular.S, ising_data.modular.T
    scaled, boson = T.copy(), T.copy()
    scaled[1] *= 2  # |T_sigma| = 2
    boson[2] *= -1  # T_psi = 1: unimodular, but (ST)^3 is no longer S^2 up to a phase
    assert validate_modular(ModularData(ising_data.ring, S, scaled)) == ["T entries not unimodular (residual 1.00e+00)"]
    assert validate_modular(ModularData(ising_data.ring, S, boson)) == [
        "(ST)^3 != S^2 up to global phase (residual 1.41e+00)"
    ]


def test_ising_flipped_sign_reported(ising_data):
    S = ising_data.modular.S.copy()
    S[1, 0] = -S[1, 0]
    md = ModularData(ising_data.ring, S, ising_data.modular.T)
    bad = validate_modular(md)
    assert any("symmetric" in b or "unitary" in b for b in bad)


def test_verlinde_reproduces_catalog_rings(all_catalogs):
    for data in all_catalogs:
        assert verlinde_fusion(data.modular) == data.ring, data.name


def test_su2_level_2_ring_equals_ising(ising_data, all_catalogs):
    su2_2 = next(d for d in all_catalogs if d.name == "su2_2")
    assert np.array_equal(verlinde_fusion(su2_2.modular).N, ising_data.ring.N)


def test_quantum_dimensions_match_fp(all_catalogs):
    for data in all_catalogs:
        d = quantum_dimensions(data.modular)
        assert d == pytest.approx(data.ring.fp_dims, abs=1e-9)


def test_global_dimension_from_s(all_catalogs):
    for data in all_catalogs:
        mu = 1.0 / abs(data.modular.S[0, 0]) ** 2
        assert mu == pytest.approx(data.ring.global_dim, abs=1e-9)
    # su2_4: five sectors with the sine-weight normalization, mu = 12
    su2_4 = next(d for d in all_catalogs if d.name == "su2_4")
    assert su2_4.ring.size == 5
    assert su2_4.ring.global_dim == pytest.approx(12.0, abs=1e-9)


def test_verlinde_rejects_non_integer_s(ising_data):
    # a slightly rotated S is still unitary but has no integer fusion ring
    c, s = math.cos(0.2), math.sin(0.2)
    rot = np.eye(3, dtype=complex)
    rot[1, 1], rot[1, 2], rot[2, 1], rot[2, 2] = c, -s, s, c
    S = rot @ ising_data.modular.S @ rot.T
    md = ModularData(ising_data.ring, S, ising_data.modular.T)
    from bcft.errors import DataInconsistencyError

    with pytest.raises(DataInconsistencyError, match="integer fusion ring"):
        verlinde_fusion(md)


def test_ising_s_matrix_values(ising_data):
    s2 = math.sqrt(2.0)
    want = 0.5 * np.array([[1, s2, 1], [s2, 0, -s2], [1, -s2, 1]])
    assert np.allclose(ising_data.modular.S, want, atol=1e-15)


def test_shape_mismatch():
    ring = FusionRing(["0"], [0], np.ones((1, 1, 1), dtype=np.int64))
    with pytest.raises(StructuralError):
        ModularData(ring, [[1.0, 0.0]], [1.0])
