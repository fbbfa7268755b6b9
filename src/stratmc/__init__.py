"""Stratified Monte Carlo pricing along chosen projection directions.

The package prices path-dependent options by stratifying the Gaussian
driver along one or two directions (gradient-based, expansion-based or
eigenvector-based), allocating draws across strata either equally or
proportionally to the estimated stratum stds, and comparing against plain
Monte Carlo and Latin hypercube baselines.
"""
from .errors import (
    AllZeroSigma,
    ConfigInvalid,
    DegenerateColumn,
    DegenerateCovariance,
    DegenerateGradient,
    DependentDirections,
    IndexOutOfRange,
    InvalidFeller,
    NegativePathValue,
    NoConvergence,
    NonIncreasingGrid,
    NotOrthogonal,
    NotPositiveDefinite,
    RankDeficient,
    StratMcError,
    ZeroVector,
)
from .linalg import (
    EigenDecomposition,
    angle_degrees,
    bm_covariance,
    cholesky,
    gram_schmidt,
    normalize_sign,
    symmetric_eigen,
)
from .gaussian import (
    RandomStream,
    lhs_normals,
    stratum_uniform,
)
from .stratify import (
    AllocationPlan,
    DirectionSet,
    EstimateReport,
    StratumSpec,
    equal_allocation,
    lhs_estimate,
    optimal_allocation,
    plain_mc_estimate,
    sample_strata,
    stratified_estimate,
    two_stage_estimate,
)
from .models import (
    BsParams,
    CirParams,
    PathMatrix,
    asset_covariance,
    bs_basket_g,
    bs_paths,
    cir_euler_path,
    cir_zero_noise_path,
    path_covariance,
)
from .payoffs import (
    PayoffSpec,
    asian_barrier_complete,
    asian_barrier_expiry,
    asian_basket,
    evaluate,
    payoff_evaluator,
)
from .directions import (
    LtCirWorkspace,
    bs_gradient,
    cir_mean_gradient,
    cir_workspace,
    export_directions,
    la_direction_bs,
    la_direction_cir,
    la_directions_multi,
    lt_directions_bs,
    lt_directions_cir,
    pca_directions,
    pilot_pca_cir,
)
from .presets import (
    basket_params,
    bs_asian_params,
    bs_barrier_params,
    cir_asian_params,
    payoff_for,
    uniform_weights,
)
from .experiment import (
    ALLOCS,
    METHODS,
    ExperimentConfig,
    ResultRow,
    build_directions,
    format_rows,
    load_config,
    parse_csv,
    run_experiment,
)

__version__ = "0.1.0"
