"""Representation-theoretic data of su(N) WZW models and their cosets:
integrable weights, modular S-matrices, Verlinde fusion rings, diagonal and
torus coset sector rings, branching-function expansions, and the dimension
identities tying them together."""

from .weights import (
    AlgebraSpec,
    Weight,
    color,
    conformal_weight,
    conjugate_weight,
    integrable_weights,
    sigma_apply,
)
from .modular import (
    SMatrix,
    asymptotic_dimension,
    product_quantum_dimension,
    quantum_dimension,
    s_matrix,
)
from .fusion import (
    BasedRing,
    FusionRing,
    IntegralityViolation,
    SimpleCurrentReport,
    SparseTensor,
    dimension_homomorphism_residual,
    fuse,
    fuse_pair,
    fusion_ring,
    product_ring,
    ring_axiom_failures,
    simple_current_check,
    verlinde_tensor,
)
from .coset import (
    CosetSector,
    CosetSpec,
    NotFaithful,
    SectorOrbit,
    class_dimension_sums,
    coset_ring,
    coset_statistical_dimension,
    dgh,
    exp_set,
    formula_31_residual,
    identification_orbits,
    kw_identity_check,
    sector_sigma,
    vacuum_orbit_membership,
)
from .torus import (
    TorusClass,
    TorusSector,
    torus_class,
    torus_classes,
    torus_exp,
    torus_kw_residual,
    torus_ring,
)
from .characters import (
    BranchingFunction,
    GradedCharacter,
    InconclusiveCutoff,
    NegativeResidual,
    WeightTable,
    coset_energy_offset,
    diagonal_branching,
    freudenthal_character,
    graded_character,
    kw_numeric_ratio,
    peel_branching,
    reconstitute,
    restrict_character,
    sector_branching,
    tensor_characters,
    vacuum_membership,
)
from .maverick import (
    InconsistentRelations,
    MaverickBranchingReport,
    build_maverick_ring,
    maverick_branching,
    maverick_branching_check,
    maverick_dims,
)

__version__ = "0.1.0"
