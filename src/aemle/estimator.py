"""Two-parameter likelihood and the adaptive constant grid-search estimator.

The estimator processes stages incrementally: after stage k-1 it computes the
Fisher matrix of the schedule so far at the running estimate, sizes a
confidence box C_eps times the per-parameter Cramer-Rao errors, and searches
stage k's accumulated likelihood on a constant-size grid inside that box
(a linear, kappa log-spaced).  The previous estimate is snapped onto the new
grid so a stage can never do worse than carrying the old estimate forward.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DegenerateScheduleError
from .fisher import (
    ANOMALY_THRESHOLD,
    FisherMatrix,
    _element_sums,
    anomality,
    fisher_matrix,
)
from .model import Schedule, amplitude_point, explicit_schedule

# Probability clamp inside logs: h=0 or h=N with extreme P must stay finite.
EPS_P = 1e-12

# Positive floor for the log-spaced kappa grid (kappa = 0 is represented by it).
_KAPPA_GRID_FLOOR = 1e-10

# Inset used when evaluating Fisher information at a boundary estimate.
_A_INSET = 1e-9


def _integral(value: object, name: str) -> int:
    """value as an int if it is integral (2 or 2.0), else ConfigError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name}={value!r} must be an integer")


@dataclass(frozen=True)
class ExperimentData:
    """Observed stages (m_k, N_k, h_k) of a staged amplification experiment."""

    stages: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigError("experiment data must have at least one stage")
        stages = tuple(
            (_integral(m, "depth m"), _integral(n, "shots N"), _integral(h, "hits h"))
            for m, n, h in self.stages
        )
        object.__setattr__(self, "stages", stages)
        prev = -1
        for m, n, h in stages:
            if m < 0:
                raise ConfigError(f"depth m={m} must be >= 0")
            if m < prev:
                raise ConfigError("stage depths must be non-decreasing")
            if n < 0 or not 0 <= h <= n:
                raise ConfigError(f"hits h={h} outside [0, N={n}]")
            prev = m

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(m for m, _, _ in self.stages)

    @property
    def shots(self) -> tuple[int, ...]:
        return tuple(n for _, n, _ in self.stages)

    @property
    def hits(self) -> tuple[int, ...]:
        return tuple(h for _, _, h in self.stages)

    def schedule(self) -> Schedule:
        return explicit_schedule((m, n) for m, n, _ in self.stages)


def data_to_json(data: ExperimentData) -> str:
    return json.dumps(
        {"stages": [{"m": m, "shots": n, "hits": h} for m, n, h in data.stages]}
    )


def data_from_json(text: str) -> ExperimentData:
    try:
        doc = json.loads(text)
        stages = tuple((s["m"], s["shots"], s["hits"]) for s in doc["stages"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed experiment-data JSON: {exc}") from exc
    return ExperimentData(stages=stages)


@dataclass(frozen=True)
class MleConfig:
    """Tuning knobs of the adaptive grid search."""

    divisions_per_stage: int = 64
    chebyshev_factor_scale: float = 3.0
    kappa_init_range: tuple[float, float] = (1e-6, 2.0)
    a_init_range: tuple[float, float] = (0.0, 1.0)
    max_stages: int = 64

    def __post_init__(self) -> None:
        if self.divisions_per_stage < 8:
            raise ConfigError("divisions_per_stage must be >= 8")
        if self.chebyshev_factor_scale <= 0.0:
            raise ConfigError("chebyshev_factor_scale must be positive")
        klo, khi = self.kappa_init_range
        alo, ahi = self.a_init_range
        if not (0.0 <= klo < khi):
            raise ConfigError("kappa_init_range must satisfy 0 <= low < high")
        if not (0.0 <= alo < ahi <= 1.0):
            raise ConfigError("a_init_range must be a non-empty subrange of [0, 1]")
        if self.max_stages < 1:
            raise ConfigError("max_stages must be >= 1")


@dataclass(frozen=True)
class StageTrace:
    """Grid bounds used at one refinement stage, with the stage objective
    at the new argmax and at the carried-forward estimate."""

    stage: int
    a_lo: float
    a_hi: float
    kappa_lo: float
    kappa_hi: float
    best_ll: float
    carried_ll: float


@dataclass(frozen=True)
class EstimateResult:
    a_hat: float
    kappa_hat: float
    log_likelihood_at_max: float
    fisher_at_estimate: FisherMatrix
    likelihood_evaluations: int
    stage_trace: tuple[StageTrace, ...]
    anomalous: bool
    anomality: float | None
    kappa_identifiable: bool


# numpy sums a contiguous row pairwise in blocks of this many elements.
_PAIRWISE_BLOCK = 128


def _stage_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading (stage) axis, bit-identical to np.sum(axis=-1) of
    the stage-last layout.

    numpy reduces a contiguous row of up to 128 elements with eight running
    accumulators over blocks of eight, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then adds the remainder in sequence
    (rows under eight are summed in sequence); longer rows split in halves at
    a multiple of eight.  The reduction starts from +0.0, so a zero total is
    +0.0.  The leading rows of `terms` are overwritten.
    """
    n = len(terms)
    if n > _PAIRWISE_BLOCK:
        half = n // 2
        half -= half % 8
        return _stage_sum(terms[:half]) + _stage_sum(terms[half:])
    if n < 8:
        total = terms[0]
        for row in terms[1:]:
            total += row
        return total + 0.0
    acc = terms[:8]
    body = n - n % 8
    for i in range(8, body, 8):
        acc += terms[i : i + 8]
    acc[0::2] += acc[1::2]
    acc[0::4] += acc[2::4]
    total = acc[0]
    total += acc[4]
    for row in terms[body:]:
        total += row
    return total + 0.0


class _StageLikelihood:
    """Binomial log-likelihood of a dataset's leading stages on (a, kappa) grids.

    The stage counts are converted to float arrays once, and one stage-first
    (stage, a, kappa) workspace serves every grid of an estimate.
    """

    def __init__(self, data: ExperimentData, n_a: int, n_kappa: int) -> None:
        self.depths = np.asarray(data.depths, dtype=float)
        self.shots = np.asarray(data.shots, dtype=float)
        self.hits = np.asarray(data.hits, dtype=float)
        self.misses = self.shots - self.hits
        shape = (len(self.depths), n_a, n_kappa)
        self._log_p = np.empty(shape)
        self._log_q = np.empty(shape)

    def grid(self, n_stages: int, a_grid: np.ndarray, kappa_grid: np.ndarray) -> np.ndarray:
        """Sum over stages 0..n_stages-1 of h ln P + (N - h) ln(1 - P), with
        P = 1/2 - 1/2 e^{-kappa m} cos(2(2m+1) theta_a) clamped to
        [EPS_P, 1 - EPS_P]; shape (len(a_grid), len(kappa_grid))."""
        m = self.depths[:n_stages]
        theta = np.arcsin(np.sqrt(np.clip(a_grid, 0.0, 1.0)))
        half_decay = 0.5 * np.exp(np.multiply.outer(m, -kappa_grid))
        osc = np.cos(np.multiply.outer(2.0 * (2.0 * m + 1.0), theta))
        log_p = self._log_p[:n_stages]
        log_q = self._log_q[:n_stages]
        np.multiply(osc[:, :, None], half_decay[:, None, :], out=log_p)
        np.subtract(0.5, log_p, out=log_p)
        np.clip(log_p, EPS_P, 1.0 - EPS_P, out=log_p)
        np.negative(log_p, out=log_q)
        np.log1p(log_q, out=log_q)
        np.log(log_p, out=log_p)
        log_p *= self.hits[:n_stages, None, None]
        log_q *= self.misses[:n_stages, None, None]
        log_p += log_q
        return _stage_sum(log_p)


def log_likelihood(data: ExperimentData, a: float, kappa: float) -> float:
    """Sum of h ln P + (N - h) ln(1 - P) over stages, with P clamped to
    [1e-12, 1 - 1e-12]; always finite."""
    grid = _StageLikelihood(data, 1, 1).grid(
        len(data.stages), np.asarray([float(a)]), np.asarray([float(kappa)])
    )
    return float(grid[0, 0])


def _chebyshev_factor(eps_target: float, scale: float) -> int:
    """C_eps = max(3, ceil(sqrt(ln(1/eps_target))) * scale)."""
    eps = min(max(eps_target, 1e-300), 0.5)
    return max(3, math.ceil(math.sqrt(math.log(1.0 / eps))) * math.ceil(scale))


def _snap(grid: np.ndarray, value: float) -> np.ndarray:
    """Replace the grid point nearest to value with value itself."""
    out = grid.copy()
    out[int(np.argmin(np.abs(grid - value)))] = value
    return out


def _fisher_prefix(
    a: float, kappa: float, lik: _StageLikelihood, n_stages: int
) -> FisherMatrix:
    """Fisher matrix of the first n_stages stages at (a, kappa), with a inset
    from the {0, 1} boundary where the information is singular."""
    point = amplitude_point(min(max(a, _A_INSET), 1.0 - _A_INSET), kappa)
    i11, i12, i22 = _element_sums(
        np.asarray([point.a]), point.kappa, lik.depths[:n_stages], lik.shots[:n_stages]
    )
    return FisherMatrix(i11=float(i11[0]), i12=float(i12[0]), i22=float(i22[0]))


def _box_errors(
    a_hat: float, kappa_hat: float, lik: _StageLikelihood, n_stages: int
) -> tuple[float | None, float | None]:
    """Per-parameter Cramer-Rao errors of the first n_stages stages,
    evaluated at the running estimate."""
    info = _fisher_prefix(a_hat, max(kappa_hat, _KAPPA_GRID_FLOOR), lik, n_stages)
    det = info.det
    if info.i22 > 0.0 and det > 1e-12 * info.i11 * info.i22:
        return math.sqrt(info.i22 / det), math.sqrt(info.i11 / det)
    if info.i11 > 0.0:
        return 1.0 / math.sqrt(info.i11), None
    return None, None


def mle_grid_adaptive(data: ExperimentData, config: MleConfig | None = None) -> EstimateResult:
    """Adaptive constant grid-search MLE of (a, kappa).

    Stage 0 searches the full init box; stage k restricts to the confidence
    box around the stage k-1 estimate.  Ties break toward smaller a, then
    smaller kappa.  If no stage has m > 0, kappa is unidentifiable: it is
    fixed at the log-midpoint of kappa_init_range and flagged.
    """
    config = config or MleConfig()
    n_stages = len(data.stages)
    if n_stages > config.max_stages:
        raise ConfigError(f"data has {n_stages} stages, config allows {config.max_stages}")
    if all(m == 0 for m in data.depths) and all(h in (0, n) for _, n, h in data.stages):
        raise DegenerateDataError(
            "all stages are classical with saturated hit counts; the estimate "
            "lies on the amplitude boundary"
        )
    div = config.divisions_per_stage
    kappa_identifiable = any(m > 0 for m in data.depths)
    klo_init = max(config.kappa_init_range[0], _KAPPA_GRID_FLOOR)
    khi_init = max(config.kappa_init_range[1], 2 * _KAPPA_GRID_FLOOR)
    kappa_mid = math.sqrt(klo_init * khi_init)

    lik = _StageLikelihood(data, div, div if kappa_identifiable else 1)
    a_hat = kappa_hat = None
    evaluations = 0
    trace: list[StageTrace] = []
    best_ll = float("-inf")

    for stage in range(n_stages):
        if stage == 0:
            a_lo, a_hi = config.a_init_range
            k_lo, k_hi = klo_init, khi_init
        else:
            eps_a, eps_k = _box_errors(a_hat, kappa_hat, lik, stage)
            if eps_a is not None:
                c_box = _chebyshev_factor(min(eps_a, 0.5), config.chebyshev_factor_scale)
                a_lo = max(0.0, a_hat - c_box * eps_a)
                a_hi = min(1.0, a_hat + c_box * eps_a)
            else:
                a_lo, a_hi = config.a_init_range
            if eps_k is not None:
                c_box = _chebyshev_factor(min(eps_a, 0.5), config.chebyshev_factor_scale)
                k_lo = max(kappa_hat - c_box * eps_k, _KAPPA_GRID_FLOOR)
                k_hi = max(kappa_hat + c_box * eps_k, 2 * _KAPPA_GRID_FLOOR)
            else:
                k_lo, k_hi = klo_init, khi_init

        a_grid = np.linspace(a_lo, a_hi, div)
        if kappa_identifiable:
            k_grid = np.geomspace(k_lo, k_hi, div)
        else:
            k_lo = k_hi = kappa_mid
            k_grid = np.asarray([kappa_mid])
        if stage > 0:
            a_grid = _snap(a_grid, a_hat)
            if kappa_identifiable:
                k_grid = _snap(k_grid, kappa_hat)

        ll = lik.grid(stage + 1, a_grid, k_grid)
        evaluations += ll.size
        flat = int(np.argmax(ll))  # first max in a-major order: smallest a, then kappa
        ia, ik = np.unravel_index(flat, ll.shape)
        carried_ll = float("nan")
        if stage > 0:
            ia_prev = int(np.argmin(np.abs(a_grid - a_hat)))
            ik_prev = int(np.argmin(np.abs(k_grid - kappa_hat)))
            carried_ll = float(ll[ia_prev, ik_prev])
        a_hat, kappa_hat = float(a_grid[ia]), float(k_grid[ik])
        best_ll = float(ll[ia, ik])
        trace.append(
            StageTrace(
                stage=stage,
                a_lo=float(a_lo),
                a_hi=float(a_hi),
                kappa_lo=float(k_lo),
                kappa_hi=float(k_hi),
                best_ll=best_ll,
                carried_ll=carried_ll,
            )
        )

    point = amplitude_point(
        min(max(a_hat, _A_INSET), 1.0 - _A_INSET), max(kappa_hat, _KAPPA_GRID_FLOOR)
    )
    schedule = data.schedule()
    info = fisher_matrix(point, schedule)
    beta: float | None
    try:
        beta = anomality(point, schedule)
        anomalous = beta > ANOMALY_THRESHOLD
    except DegenerateScheduleError:
        beta = None
        anomalous = False
    return EstimateResult(
        a_hat=a_hat,
        kappa_hat=kappa_hat if kappa_identifiable else kappa_mid,
        log_likelihood_at_max=best_ll,
        fisher_at_estimate=info,
        likelihood_evaluations=evaluations,
        stage_trace=tuple(trace),
        anomalous=anomalous,
        anomality=beta,
        kappa_identifiable=kappa_identifiable,
    )


def mle_profile_1d(
    data: ExperimentData, kappa_fixed: float, config: MleConfig | None = None
) -> float:
    """One-dimensional grid-search MLE of a with kappa held fixed."""
    if kappa_fixed < 0.0:
        raise ConfigError(f"kappa_fixed={kappa_fixed} must be >= 0")
    config = config or MleConfig()
    div = config.divisions_per_stage
    k_grid = np.asarray([float(kappa_fixed)])
    lik = _StageLikelihood(data, div, 1)
    a_hat = None
    for stage in range(len(data.stages)):
        if stage == 0:
            a_lo, a_hi = config.a_init_range
        else:
            info = _fisher_prefix(a_hat, kappa_fixed, lik, stage)
            if info.i11 <= 0.0:
                a_lo, a_hi = config.a_init_range
            else:
                eps_a = 1.0 / math.sqrt(info.i11)
                c_box = _chebyshev_factor(min(eps_a, 0.5), config.chebyshev_factor_scale)
                a_lo = max(0.0, a_hat - c_box * eps_a)
                a_hi = min(1.0, a_hat + c_box * eps_a)
        a_grid = np.linspace(a_lo, a_hi, div)
        if stage > 0:
            a_grid = _snap(a_grid, a_hat)
        ll = lik.grid(stage + 1, a_grid, k_grid)
        a_hat = float(a_grid[int(np.argmax(ll[:, 0]))])
    return a_hat
