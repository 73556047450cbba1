"""Representation-theoretic data of su(N) WZW models and their cosets:
integrable weights, modular S-matrices, Verlinde fusion rings, diagonal and
torus coset sector rings, branching-function expansions, and the dimension
identities tying them together.

Importing the package runs none of its modules.  Each library submodule is
put in ``sys.modules`` as a lazy module, which runs on its first attribute
access, and the names below resolve on first use (PEP 562).  A caller, or a
CLI command, therefore pays only for the modules it touches: ``weights`` and
``characters`` import no numpy, and ``import cosetcft.fusion`` or
``from cosetcft import s_matrix`` runs a module and what it imports, as an
eager import would.  ``cli`` is not registered: ``python -m cosetcft.cli``
must find it unloaded."""

import importlib.util
import sys

_EXPORTS = {
    "weights": (
        "AlgebraSpec",
        "SelfCheckFailed",
        "Weight",
        "color",
        "conformal_weight",
        "conjugate_weight",
        "integrable_weights",
        "kac_walton",
        "sigma_apply",
    ),
    "modular": (
        "SMatrix",
        "asymptotic_dimension",
        "product_quantum_dimension",
        "quantum_dimension",
        "s_matrix",
    ),
    "fusion": (
        "BasedRing",
        "FusionRing",
        "SparseTensor",
        "dimension_homomorphism_residual",
        "fuse",
        "fusion_ring",
        "orbit_ring",
        "product_ring",
        "ring_axiom_failures",
        "simple_current_check",
        "verlinde_tensor",
    ),
    "coset": (
        "CosetSector",
        "CosetSpec",
        "NotFaithful",
        "SectorOrbit",
        "class_dimension_sums",
        "coset_ring",
        "coset_statistical_dimension",
        "dgh",
        "exp_set",
        "formula_31_residual",
        "identification_orbits",
        "kw_identity_check",
        "sector_sigma",
        "vacuum_orbit_membership",
    ),
    "torus": (
        "TorusClass",
        "TorusSector",
        "torus_class",
        "torus_classes",
        "torus_exp",
        "torus_kw_residual",
        "torus_ring",
    ),
    "characters": (
        "BranchingFunction",
        "InconclusiveCutoff",
        "WeightTable",
        "coset_energy_offset",
        "diagonal_branching",
        "freudenthal_character",
        "graded_character",
        "kw_numeric_ratio",
        "peel_branching",
        "reconstitute",
        "restrict_character",
        "sector_branching",
        "tensor_characters",
        "vacuum_membership",
    ),
    "maverick": (
        "build_maverick_ring",
        "maverick_branching",
        "maverick_branching_check",
        "maverick_dims",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazy(name: str):
    """Put the submodule ``name`` in ``sys.modules`` unexecuted; it runs on
    its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in (*_EXPORTS, "report", "verify"):
    globals()[_name] = _register_lazy(_name)
del _name

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)
