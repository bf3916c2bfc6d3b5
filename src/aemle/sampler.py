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
from .model import (
    AmplitudePoint,
    Schedule,
    ScheduleKind,
    _integral,
    make_schedule,
    noisy_good_prob,
)
from .survey import error_vs_queries


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


def _draw(point: AmplitudePoint, stages, rng: np.random.Generator) -> list[int]:
    """Hits h_k ~ Binomial(N_k, P(m_k; a, kappa)) of each (m_k, N_k) stage, as
    sums of Bernoulli draws: exact, and stable across numpy versions (a
    zero-shot stage draws nothing)."""
    return [int(np.count_nonzero(rng.random(n) < noisy_good_prob(m, point))) for m, n in stages]


def sample_counts(point: AmplitudePoint, schedule: Schedule, seed: int) -> ExperimentData:
    """Draw h_k ~ Binomial(N_k, P(m_k; a, kappa)) for every stage."""
    hits = _draw(point, schedule.stages, _rng_for(seed))
    return ExperimentData(stages=tuple((m, n, h) for (m, n), h in zip(schedule.stages, hits)))


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

    Per M: samples `trials` independent hit rows on the first M + 1 stages
    of the M_max ladder, estimates (a, kappa) on all of them in one batched
    stage loop, and records the RMSE of a-hat against the true a with a
    jackknife standard error.  Trials whose estimation fails are excluded
    and counted.  The N_q and epsilon_min columns are error_vs_queries'
    rows.  A ladder whose M_max schedule has more stages than the estimator
    takes is refused, as estimating its data would be, and so is a point
    with no bound, before any trial runs.
    """
    trials = _integral(trials, "trials", 1)
    M_max = _integral(M_max, "M_max", 1)
    config = config or MleConfig()
    ladder = make_schedule(kind, M_max, shots, r)
    if (error := _stage_cap_error(len(ladder))) is not None:
        raise error
    bounds = error_vs_queries(point.a, point.kappa, M_max, shots, kind, r)
    records = []
    for M, bound in enumerate(bounds, 1):
        stages = ladder.stages[: M + 1]
        hits = [_draw(point, stages, _rng_for(seed, M, t)) for t in range(trials)]
        results = _estimate_batch(ladder.depths[: M + 1], ladder.shots[: M + 1], hits, config)
        good = [res for res in results if isinstance(res, EstimateResult)]
        failed = trials - len(good)
        sq_errors = np.asarray([(res.a_hat - point.a) ** 2 for res in good])
        rmse = float(np.sqrt(np.mean(sq_errors))) if good else float("nan")
        stderr = _jackknife_rmse_stderr(sq_errors) if good else float("nan")
        mean_kappa = float(np.mean([res.kappa_hat for res in good])) if good else float("nan")
        records.append(
            TrialRecord(
                M=M,
                n_queries=bound.n_queries,
                rmse=rmse,
                stderr=stderr,
                mean_kappa_hat=mean_kappa,
                failed_trials=failed,
                epsilon_min=bound.epsilon_min,
            )
        )
    return TrialBatchResult(records=tuple(records), trials=trials, seed=seed)


def hit_rate_curve(
    point: AmplitudePoint, depths: Sequence[int], shots: int, seed: int
) -> list[tuple[int, float]]:
    """Sampled hit rate h/shots per amplification depth, every depth
    checked before any draw."""
    shots = _integral(shots, "shots", 1)
    stages = [(_integral(m, "depth m"), shots) for m in depths]
    return [(m, h / shots) for (m, _), h in zip(stages, _draw(point, stages, _rng_for(seed)))]
