"""Single-generator Parseval frames for bandlimited subspaces over step-two
nilpotent groups: algebra validation, spectral analysis, quasi-lattice design,
window synthesis, and independent numerical verification."""

__version__ = "0.1.0"

from .algebra import (
    LieAlgebraSpec,
    ValidationReport,
    bracket,
    jump_indices,
    load_spec,
    validate_class,
)
from .lattice import (
    ConditionReport,
    FiberGaborLattice,
    QuasiLatticeParams,
    check_density_condition,
    check_necessary_bounds,
    check_onb_condition,
    check_wavelet_discretization,
    design_params,
    fiber_lattice,
)
from .polynomial import SpectralPolynomial, determinant
from .spectral import (
    SpectrumBox,
    build_matrices,
    density_polynomial,
    eval_density,
    pfaffian_identity_check,
    spectral_measure,
    sup_density,
)
from .verify import (
    PeriodizedFiber,
    gram_orthonormality_check,
    periodized_frame_ratio,
    window_tiling_check,
)
from .windows import (
    FrameGeneratorField,
    PiecewiseBoxWindow,
    build_generator_field,
    field_to_document,
    synthesize_window,
)

__all__ = [
    "LieAlgebraSpec",
    "ValidationReport",
    "bracket",
    "jump_indices",
    "load_spec",
    "validate_class",
    "SpectralPolynomial",
    "determinant",
    "SpectrumBox",
    "build_matrices",
    "density_polynomial",
    "eval_density",
    "pfaffian_identity_check",
    "spectral_measure",
    "sup_density",
    "ConditionReport",
    "FiberGaborLattice",
    "QuasiLatticeParams",
    "check_density_condition",
    "check_necessary_bounds",
    "check_onb_condition",
    "check_wavelet_discretization",
    "design_params",
    "fiber_lattice",
    "PiecewiseBoxWindow",
    "FrameGeneratorField",
    "build_generator_field",
    "field_to_document",
    "synthesize_window",
    "PeriodizedFiber",
    "gram_orthonormality_check",
    "periodized_frame_ratio",
    "window_tiling_check",
]
