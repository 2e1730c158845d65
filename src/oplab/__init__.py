"""Finite-dimensional operator laboratory.

Computes weighted defect operators and their expansive / contractive /
isometric classification, Drazin inverses and core-nilpotent structure,
range-kernel splittings, polar-type transforms, and runs every structural
theorem about these objects as an executable check over seeded random
fixtures.

Only the matrix substrate and the defect layer load with the package; every
other module loads on first access, so a one-shot query loads only what it runs.
"""

from importlib import import_module as _import_module

from .matrix_core import (
    DEFAULT_TOL,
    DecompositionError,
    DefinitenessVerdict,
    DimensionError,
    DomainError,
    GenerationError,
    HermitianError,
    MatrixFormatError,
    NumericalFailureError,
    OplabError,
    PreconditionError,
    Tolerance,
    adjoint,
    matrix_from_json,
    matrix_to_json,
)
from .expansivity import (
    ClassificationReport,
    DefectResult,
    DefectSpec,
    classify,
    defect,
    defect_series,
    gram_weight,
)

__version__ = "0.1.0"

# The module of each lazily loaded public name; a submodule maps to itself.
_LAZY = {name: module for module, names in {
    "decompositions": ("CoreNilpotent", "IllConditionedWarning", "PolarParts", "RangeKernelSplit", "TransformBundle",
                       "build_transform_bundle", "core_nilpotent", "drazin_inverse", "polar", "range_kernel_split"),
    "generators": ("GenSpec", "gen_coupled_kernel", "gen_drazin_pair", "gen_expansive_invertible",
                   "gen_haar_unitary", "gen_nilpotent", "gen_psd", "generate"),
    "theorem_lab": ("TheoremVerdict", "spectral_constraints", "verify_no_singular_expansive",
                    "verify_power_stability", "verify_sandwich_isometry", "verify_transform_bundle",
                    "verify_two_expansive_isometry", "verify_unitary_nilpotent_structure",
                    "verify_weight_decomposition"),
    "suite": ("THEOREM_IDS", "replay_quarantine", "run_suite"),
}.items() for name in (module, *names)}

# star-import binds every public name, the submodules included
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
