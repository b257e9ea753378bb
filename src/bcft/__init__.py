"""Boundary CFT classification engine.

Takes the data of a rational braided fusion category (fusion rules, modular
S/T matrices, F/R symbols) plus a Q-system for a chiral extension, and
computes the associated boundary theory: the coupling matrix from the
charged-intertwiner kernel problem, the dual canonical object and index
ledger, modular-invariant and nimrep enumeration, Cardy matrices and annulus
partition functions with numerical modular checks.
"""

from .catalog import CategoryData, catalog, fibonacci, ising, su2
from .category import AxiomReport, CategoryPresentation, validate_axioms
from .characters import (
    AnnulusReport,
    CharacterSeries,
    annulus_partition,
    cardy_transform_check,
    evaluate_character,
    minimal_model_characters,
    sector_characters,
)
from .classify import (
    CardySolution,
    Nimrep,
    cardy_solve,
    compatibility,
    enumerate_modular_invariants,
    enumerate_nimreps,
    regular_nimrep,
)
from .errors import (
    BcftError,
    DataInconsistencyError,
    NumericDegeneracyError,
    StructuralError,
)
from .induction import (
    BoundaryFieldBasis,
    IndexLedger,
    charged_field_basis,
    coupling_from_qsystem,
    dhr_orbit_thetas,
    index_ledger,
    theta_plus,
)
from .modular import ModularData, quantum_dimensions, validate_modular, verlinde_fusion
from .qsystems import (
    ChargedIntertwinerAlgebra,
    QSystemSpec,
    SearchResult,
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
from .rings import (
    FusionRing,
    fp_dimensions,
    global_dimension,
    validate_ring,
)

__version__ = "0.1.0"
