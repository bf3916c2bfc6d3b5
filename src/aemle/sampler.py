"""Simulated experiments: seeded sampling from the depolarized hit model.

Hit counts are drawn as sums of Bernoulli draws from a counter-based
generator (Philox), so identical seeds give identical data on any platform.
Each trial of a batch derives its own stream from (seed, M, trial index), so
a trial's estimate depends on nothing else: not on the other trials, their
order, or how many M values the batch covers.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .estimator import (
    EstimateResult,
    ExperimentData,
    MleConfig,
    _estimate_batch,
    _stage_cap_error,
)
from .fisher import cr_lower_bound
from .model import (
    AmplitudePoint,
    Schedule,
    ScheduleKind,
    _integral,
    make_schedule,
    noisy_good_prob,
    total_queries,
)


@dataclass(frozen=True)
class TrialRecord:
    """Summary of one M value of a trial batch."""

    M: int
    n_queries: int
    rmse: float
    stderr: float
    mean_kappa_hat: float
    failed_trials: int
    epsilon_min: float


@dataclass(frozen=True)
class TrialBatchResult:
    records: tuple[TrialRecord, ...]
    trials: int
    seed: int


def _rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *stream))))


def _binomial(rng: np.random.Generator, n: int, p: float) -> int:
    # sum of Bernoulli draws: exact, and stable across numpy versions (n = 0 draws nothing)
    return int(np.count_nonzero(rng.random(n) < p))


def sample_counts(point: AmplitudePoint, schedule: Schedule, seed: int) -> ExperimentData:
    """Draw h_k ~ Binomial(N_k, P(m_k; a, kappa)) for every stage."""
    return _sample_with_rng(point, schedule, _rng_for(seed))


def _sample_with_rng(
    point: AmplitudePoint, schedule: Schedule, rng: np.random.Generator
) -> ExperimentData:
    stages = []
    for m, n in schedule.stages:
        p = noisy_good_prob(m, point)
        stages.append((m, n, _binomial(rng, n, p)))
    return ExperimentData(stages=tuple(stages))


def _jackknife_rmse_stderr(sq_errors: np.ndarray) -> float:
    """Standard error of the RMSE estimate by leave-one-out jackknife."""
    n = sq_errors.size
    if n < 2:
        return float("nan")
    total = float(np.sum(sq_errors))
    loo = np.sqrt(np.maximum(total - sq_errors, 0.0) / (n - 1))
    return float(math.sqrt((n - 1) / n * float(np.sum((loo - loo.mean()) ** 2))))


def run_trials(
    point: AmplitudePoint,
    kind: ScheduleKind | str,
    M_max: int,
    shots: int,
    trials: int,
    seed: int,
    config: MleConfig | None = None,
    r: float | None = None,
) -> TrialBatchResult:
    """Estimate over seeded repetitions for each M = 1..M_max.

    Per M: builds the schedule, samples `trials` independent datasets,
    estimates (a, kappa) on all of them in one batched stage loop, and
    records the RMSE of a-hat against the true a with a jackknife standard
    error.  Trials whose estimation fails are excluded and counted.  A
    ladder whose M_max schedule has more stages than the estimator takes
    is refused, as estimating its data would be, before any trial runs.
    """
    trials = _integral(trials, "trials", 1)
    M_max = _integral(M_max, "M_max", 1)
    config = config or MleConfig()
    # a bad or too long ladder is refused before any trial runs
    if (error := _stage_cap_error(len(make_schedule(kind, M_max, shots, r)))) is not None:
        raise error
    records = []
    for M in range(1, M_max + 1):
        schedule = make_schedule(kind, M, shots, r)
        datasets = [
            _sample_with_rng(point, schedule, _rng_for(seed, M, t)) for t in range(trials)
        ]
        results = _estimate_batch(datasets, config)
        good = [res for res in results if isinstance(res, EstimateResult)]
        failed = trials - len(good)
        sq_errors = np.asarray([(res.a_hat - point.a) ** 2 for res in good])
        rmse = float(np.sqrt(np.mean(sq_errors))) if good else float("nan")
        stderr = _jackknife_rmse_stderr(sq_errors) if good else float("nan")
        mean_kappa = float(np.mean([res.kappa_hat for res in good])) if good else float("nan")
        records.append(
            TrialRecord(
                M=M,
                n_queries=total_queries(schedule),
                rmse=rmse,
                stderr=stderr,
                mean_kappa_hat=mean_kappa,
                failed_trials=failed,
                epsilon_min=cr_lower_bound(point, schedule).epsilon_min,
            )
        )
    return TrialBatchResult(records=tuple(records), trials=trials, seed=seed)


def hit_rate_curve(
    point: AmplitudePoint, depths: Sequence[int], shots: int, seed: int
) -> list[tuple[int, float]]:
    """Sampled hit rate h/shots per amplification depth; `depths` is read
    twice, so a range serves as well as a list."""
    shots = _integral(shots, "shots", 1)
    for m in depths:  # every depth before any draw
        _integral(m, "depth m")
    rng = _rng_for(seed)
    out = []
    for m in depths:
        p = noisy_good_prob(m, point)
        out.append((m, _binomial(rng, shots, p) / shots))
    return out
