"""Cantor boundary sets, holomorphic decay factors, and Almgren frequency
diagnostics for Q-valued Dirichlet minimizers."""

from .cantor import CantorSet, IntervalIndex, interval_length, log2_interval_length
from .errors import (
    BranchCutError,
    ConvergenceError,
    DegenerateMassError,
    SingularPointError,
    ValidationError,
)
from .logcomplex import (
    LogComplex,
    decay_block,
    oscillating_block,
    principal_log,
)
from ._quad import QuadConfig
from .series import (
    AnchoredPoint,
    ProductZero,
    SeriesParams,
    TruncatedValue,
    boundary_decay_check,
    branched_product,
    cauchy_derivatives,
    cosine_factor,
    cosine_product,
    decay_exponent,
    decay_exponent_many,
    decay_factor,
    derivative,
    evaluate_many,
    function_evaluator,
    product_zero,
)
from .frequency import (
    FrequencySample,
    MinimizerSpec,
    Monomial,
    OscillatingPower,
    Polynomial,
    SeriesFactor,
    SeriesProduct,
    SmoothBlock,
    boundary_mass,
    dirichlet_energy,
    frequency,
    frequency_curve,
    gap_centered_radii,
    smooth_block_frequency_bound,
)
from .vanishing import (
    ConstantTarget,
    MassCurve,
    RealPartTarget,
    default_ladder,
    doubling_ratio,
    mass_curve,
    sliding_window_slopes,
    vanishing_order_slope,
)

__version__ = "0.1.0"
