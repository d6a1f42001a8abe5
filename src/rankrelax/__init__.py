"""Low-rank matrix recovery with combined singular-value weights and rank costs."""

from .bench import (
    ExperimentSpec,
    ResultRecord,
    datafit,
    gen_instance,
    instance_weights,
    mask_tracking,
    mask_uniform,
    normalized_distance,
    run_sweep,
    write_results_csv,
)
from .envelope import eval_Rh, maximizing_spectrum
from .linalg import SvdFactors, compose, svd
from .penalty import (
    InvalidWeightsError,
    PenaltyWeights,
    eval_h,
    make_weights,
    preset,
    shrink_spectrum,
)
from .proximal import prox_Rh, prox_spectrum
from .solver import (
    AdmmConfig,
    AdmmDiagnostics,
    MaskedObservations,
    admm_complete,
    data_update,
    solve_objective,
)

__all__ = [
    "AdmmConfig",
    "AdmmDiagnostics",
    "ExperimentSpec",
    "InvalidWeightsError",
    "MaskedObservations",
    "PenaltyWeights",
    "ResultRecord",
    "SvdFactors",
    "admm_complete",
    "compose",
    "data_update",
    "datafit",
    "eval_Rh",
    "eval_h",
    "gen_instance",
    "instance_weights",
    "make_weights",
    "mask_tracking",
    "mask_uniform",
    "maximizing_spectrum",
    "normalized_distance",
    "preset",
    "prox_Rh",
    "prox_spectrum",
    "run_sweep",
    "shrink_spectrum",
    "solve_objective",
    "svd",
    "write_results_csv",
]
