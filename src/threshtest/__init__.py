"""Thresholding tests for linear and generalized linear hypotheses."""

from .core import (
    DesignMatrix,
    GlmFamily,
    LinearHypothesis,
    ReducedProblem,
    ReductionFactor,
    SubsetHypothesis,
    build_reduction,
    factor_reduction,
    glm_family,
    kernel_basis,
    residual,
)
from .statistics import (
    StatValue,
    StatisticSpec,
    build_evaluator,
    fisher_F,
    link_identity_residual,
    zt_affine_group_lasso,
    zt_affine_lasso,
    zt_lad,
    zt_sqrt_variant,
)
from .calibration import (
    CalibrationResult,
    CompositeCalibration,
    NullModel,
    calibrate,
    calibrate_composite,
    gaussian_pivotal_null,
    glm_plugin_null,
    p_value,
    simulate_null,
    substream,
)
from .inference import (
    ConfidenceRegion,
    McConfig,
    TestResult,
    confidence_region,
    cr_grid,
    cr_member,
    run_composite,
    run_test,
)
from .oracle import constrained_ls, oracle_zero_threshold, solve_affine_lasso
from .simulate import (
    AlternativeSpec,
    DesignSpec,
    ExperimentConfig,
    PowerRow,
    baseline_f_test,
    baseline_lrt,
    estimate_level,
    estimate_power,
    gen_beta,
    gen_design,
    gen_response,
)

__version__ = "0.1.0"
