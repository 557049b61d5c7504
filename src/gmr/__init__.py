"""Grouped mixture of Gaussian linear regressions.

Observations come in groups that each share a single latent cluster; every
cluster carries its own regression coefficients and noise variance.  The
package estimates the mixture by EM over sufficient statistics, predicts
new observations through per-group posteriors, generates synthetic
benchmark data with controlled cluster separation, and selects the number
of clusters by repeated hold-out validation.
"""

from .benchmark import BenchmarkSpec, aggregate, aggregate_columns, iter_records
from .data import (
    Group,
    GroupedDataset,
    ModelParams,
    Responsibilities,
    compute_group_stats,
    validate_dataset,
)
from .em import (
    EmConfig,
    FitResult,
    e_step,
    fit,
    init_responsibilities,
    log_joint,
    log_marginal_likelihood,
    m_step_beta,
    m_step_pi,
    m_step_sigma2,
)
from .errors import (
    AllRestartsFailedError,
    DimensionMismatchError,
    DuplicateGroupIdError,
    EmptyClusterError,
    EmptyGroupError,
    GmrError,
    GroupTooSmallError,
    InfeasibleError,
    LengthMismatchError,
    NonFiniteError,
    SingularSystemError,
    TooFewGroupsError,
    TooManyGroupsError,
    UnknownGroupError,
)
from .metrics import beta_error, confusion, nmi, rmse
from .predict import (
    GroupPredictions,
    PredictiveMixture,
    map_predict_fmr,
    map_predict_gmr,
    predict_groups,
    predictive_density,
)
from .select import SelectionReport, baseline_mean, baseline_ols, select_k
from .simulate import (
    GroundTruth,
    SimConfig,
    generate,
    partition_groups,
    simplex_betas,
    train_test_split,
    wishart_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "AllRestartsFailedError",
    "BenchmarkSpec",
    "DimensionMismatchError",
    "DuplicateGroupIdError",
    "EmConfig",
    "EmptyClusterError",
    "EmptyGroupError",
    "FitResult",
    "GmrError",
    "GroundTruth",
    "Group",
    "GroupPredictions",
    "GroupTooSmallError",
    "GroupedDataset",
    "InfeasibleError",
    "LengthMismatchError",
    "ModelParams",
    "NonFiniteError",
    "PredictiveMixture",
    "Responsibilities",
    "SelectionReport",
    "SimConfig",
    "SingularSystemError",
    "TooFewGroupsError",
    "TooManyGroupsError",
    "UnknownGroupError",
    "aggregate",
    "aggregate_columns",
    "baseline_mean",
    "baseline_ols",
    "beta_error",
    "compute_group_stats",
    "confusion",
    "e_step",
    "fit",
    "generate",
    "init_responsibilities",
    "iter_records",
    "log_joint",
    "log_marginal_likelihood",
    "m_step_beta",
    "m_step_pi",
    "m_step_sigma2",
    "map_predict_fmr",
    "map_predict_gmr",
    "nmi",
    "partition_groups",
    "predict_groups",
    "predictive_density",
    "rmse",
    "select_k",
    "simplex_betas",
    "train_test_split",
    "validate_dataset",
    "wishart_covariance",
    "__version__",
]
