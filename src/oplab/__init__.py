"""Finite-dimensional operator laboratory.

Computes weighted defect operators and their expansive / contractive /
isometric classification, Drazin inverses and core-nilpotent structure,
range-kernel splittings, polar-type transforms, and runs every structural
theorem about these objects as an executable check over seeded random
fixtures.
"""

from .matrix_core import (
    DEFAULT_TOL,
    DefinitenessVerdict,
    DimensionError,
    DomainError,
    HermitianError,
    MatrixFormatError,
    NumericalFailureError,
    OplabError,
    PreconditionError,
    Tolerance,
    adjoint,
    block_compose,
    definiteness,
    eigenvalues,
    hermitian_part,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    moore_penrose,
    numerical_rank,
    operator_norm,
    spectral_radius,
    sqrt_psd,
)
from .expansivity import (
    ClassificationReport,
    DefectResult,
    DefectSpec,
    classify,
    defect,
    defect_series,
    defect_tilde,
    gram_weight,
    is_p_isometric,
)
from .decompositions import (
    CoreNilpotent,
    DecompositionError,
    IllConditionedWarning,
    PolarParts,
    RangeKernelSplit,
    TransformBundle,
    aluthge,
    build_transform_bundle,
    core_nilpotent,
    drazin_index,
    drazin_inverse,
    drazin_residuals,
    duggal,
    polar,
    range_kernel_split,
)
from .generators import (
    GenerationError,
    GenSpec,
    gen_coupled_kernel,
    gen_drazin_pair,
    gen_expansive_invertible,
    gen_haar_unitary,
    gen_nilpotent,
    gen_psd,
    generate,
)
from .theorem_lab import (
    TheoremVerdict,
    spectral_constraints,
    verify_no_singular_expansive,
    verify_power_stability,
    verify_sandwich_isometry,
    verify_transform_bundle,
    verify_two_expansive_isometry,
    verify_unitary_nilpotent_structure,
    verify_weight_decomposition,
)
from .suite import THEOREM_IDS, replay_quarantine, run_suite

__version__ = "0.1.0"
