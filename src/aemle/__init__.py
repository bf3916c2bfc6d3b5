"""Maximum-likelihood amplitude estimation under depolarizing noise.

A library and CLI for the staged-amplification estimation problem: the
forward probability model, Fisher-information error bounds, anomalous-target
analysis, an adaptive grid-search estimator, seeded simulated experiments,
and a hardware-requirement calculator.
"""
from .errors import (
    AemleError,
    ConfigError,
    DegenerateDataError,
    DegenerateScheduleError,
    DegenerateTermError,
    DomainError,
    NotAchievableError,
    SingularPointError,
)
from .estimator import (
    EstimateResult,
    ExperimentData,
    MleConfig,
    StageTrace,
    data_from_json,
    data_to_json,
    log_likelihood,
    mle_grid_adaptive,
    mle_profile_1d,
)
from .fisher import (
    ANOMALY_THRESHOLD,
    CrBoundResult,
    FisherMatrix,
    anomality,
    classical_bound,
    cr_lower_bound,
    fisher_matrix,
    max_grover_depth,
    nuisance_inflation,
    required_noise_for_error,
)
from .hwspec import (
    GateErrorGap,
    HardwareAssumptions,
    HardwareReport,
    TimeInterpretation,
    compute_spec,
    gate_error_gap,
    kappa_from_gate_errors,
    total_execution_time,
)
from .model import (
    AmplitudePoint,
    Schedule,
    ScheduleKind,
    amplitude_point,
    make_schedule,
    noisy_good_prob,
    schedule_to_json,
    total_queries,
)
from .sampler import (
    TrialBatchResult,
    TrialRecord,
    hit_rate_curve,
    run_trials,
    sample_counts,
)
from .survey import (
    ContourGrid,
    DensityResult,
    QueryErrorRow,
    anomaly_density,
    default_density_schedule,
    error_vs_kappa_contour,
    error_vs_queries,
)

__version__ = "0.1.0"
