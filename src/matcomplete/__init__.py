"""Low-rank matrix completion toolkit.

Provides the two-phase rank-aware completion algorithm (accelerated
fixed-rank warm start followed by accelerated Soft-Impute), the FRSI, SVT,
FPC and Soft-Impute baselines, a matrix-free sparse-plus-low-rank truncated
SVD, synthetic and MovieLens data handling, and a benchmark harness.
"""

from .data import (
    RatingsDataset,
    SyntheticInstance,
    gen_synthetic,
    load_movielens,
    load_synthetic,
    make_ratings_dataset,
    rer,
    rmse,
    save_synthetic,
    split_holdout,
)
from .factored import (
    FactoredMatrix,
    FactoredSum,
    combine,
    frobenius_distance,
    project_entries,
    project_omega,
    scale,
)
from .observed import ObservedMatrix
from .operators import SpLrOperator, assemble_iterate_operator
from .shrinkage import fejer_slack, fixed_rank_step, make_spurious_fixed_point, soft_threshold
from .solvers import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    DIVERGED,
    STALLED,
    PhaseOneResult,
    SolveResult,
    SolverConfig,
    SolveTrace,
    TraceRecord,
    fpc,
    frsi,
    momentum_coefficient,
    objective,
    phase_one,
    phase_two,
    soft_impute,
    svt,
    two_phase,
)
from .svd import LanczosStart, TruncatedSvdError, dense_svd, truncated_svd

__version__ = "0.1.0"

__all__ = [
    "BUDGET_EXHAUSTED",
    "CONVERGED",
    "DIVERGED",
    "FactoredMatrix",
    "FactoredSum",
    "LanczosStart",
    "ObservedMatrix",
    "PhaseOneResult",
    "RatingsDataset",
    "STALLED",
    "SolveResult",
    "SolverConfig",
    "SolveTrace",
    "SpLrOperator",
    "SyntheticInstance",
    "TraceRecord",
    "TruncatedSvdError",
    "assemble_iterate_operator",
    "combine",
    "dense_svd",
    "fejer_slack",
    "fixed_rank_step",
    "fpc",
    "frobenius_distance",
    "frsi",
    "gen_synthetic",
    "load_movielens",
    "load_synthetic",
    "make_ratings_dataset",
    "make_spurious_fixed_point",
    "momentum_coefficient",
    "objective",
    "phase_one",
    "phase_two",
    "project_entries",
    "project_omega",
    "rer",
    "rmse",
    "save_synthetic",
    "scale",
    "soft_impute",
    "soft_threshold",
    "split_holdout",
    "svt",
    "truncated_svd",
    "two_phase",
    "__version__",
]
