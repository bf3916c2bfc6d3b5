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

from .errors import ConfigError, DegenerateDataError
from .fisher import ANOMALY_THRESHOLD, FisherMatrix, _fisher_at
from .model import amplitude_point

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


def _snap(grid: np.ndarray, value: float) -> tuple[np.ndarray, int]:
    """Replace the grid point nearest to value with value itself; returns the
    new grid and that point's index."""
    out = grid.copy()
    index = int(np.argmin(np.abs(grid - value)))
    out[index] = value
    return out, index


def _fisher_prefix(
    a: float, kappa: float, lik: _StageLikelihood, n_stages: int
) -> FisherMatrix:
    """Fisher matrix of the first n_stages stages at (a, kappa), with a inset
    from the {0, 1} boundary where the information is singular."""
    point = amplitude_point(min(max(a, _A_INSET), 1.0 - _A_INSET), kappa)
    return _fisher_at(point, lik.depths[:n_stages], lik.shots[:n_stages])


def _kappa_init_box(config: MleConfig) -> tuple[float, float]:
    """kappa_init_range lifted onto the positive floor of the log grid."""
    lo, hi = config.kappa_init_range
    return max(lo, _KAPPA_GRID_FLOOR), max(hi, 2 * _KAPPA_GRID_FLOOR)


def _search(
    lik: _StageLikelihood, config: MleConfig, kappa_fixed: float | None
) -> tuple[float, float, float, int, list[StageTrace]]:
    """The stage-by-stage box search; returns (a_hat, kappa_hat, best_ll,
    evaluations, trace).

    kappa_fixed=None searches kappa on the log-spaced grid.  A fixed kappa is
    searched as a one-point axis, and its a-box is sized by the
    one-parameter error 1/sqrt(i11) at that kappa.
    """
    div = config.divisions_per_stage
    klo_init, khi_init = _kappa_init_box(config)
    a_hat = kappa_hat = None
    evaluations = 0
    trace: list[StageTrace] = []

    for stage in range(len(lik.depths)):
        if stage == 0:
            info = FisherMatrix(0.0, 0.0, 0.0)  # no stage seen yet: the init box
        elif kappa_fixed is None:
            info = _fisher_prefix(a_hat, max(kappa_hat, _KAPPA_GRID_FLOOR), lik, stage)
        else:
            # kappa is held fixed, so only the a-information sizes the box
            info = FisherMatrix(_fisher_prefix(a_hat, kappa_fixed, lik, stage).i11, 0.0, 0.0)
        eps_a, eps_k = info.errors()
        c_box = _chebyshev_factor(min(eps_a, 0.5), config.chebyshev_factor_scale)
        if math.isfinite(eps_a):
            a_lo = max(0.0, a_hat - c_box * eps_a)
            a_hi = min(1.0, a_hat + c_box * eps_a)
        else:
            a_lo, a_hi = config.a_init_range
        if eps_k is not None:
            k_lo = max(kappa_hat - c_box * eps_k, _KAPPA_GRID_FLOOR)
            k_hi = max(kappa_hat + c_box * eps_k, 2 * _KAPPA_GRID_FLOOR)
        else:
            k_lo, k_hi = klo_init, khi_init

        a_grid = np.linspace(a_lo, a_hi, div)
        if kappa_fixed is None:
            k_grid = np.geomspace(k_lo, k_hi, div)
        else:
            k_lo = k_hi = kappa_fixed
            k_grid = np.asarray([kappa_fixed])
        if stage > 0:
            a_grid, ia_prev = _snap(a_grid, a_hat)
            k_grid, ik_prev = _snap(k_grid, kappa_hat)

        ll = lik.grid(stage + 1, a_grid, k_grid)
        evaluations += ll.size
        flat = int(np.argmax(ll))  # first max in a-major order: smallest a, then kappa
        ia, ik = np.unravel_index(flat, ll.shape)
        carried_ll = float(ll[ia_prev, ik_prev]) if stage > 0 else float("nan")
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
    return a_hat, kappa_hat, best_ll, evaluations, trace


def mle_grid_adaptive(data: ExperimentData, config: MleConfig | None = None) -> EstimateResult:
    """Adaptive constant grid-search MLE of (a, kappa).

    Stage 0 searches the full init box; stage k restricts to the confidence
    box around the stage k-1 estimate.  Ties break toward smaller a, then
    smaller kappa.  If no stage has m > 0, kappa is unidentifiable: it is
    fixed at the log-midpoint of kappa_init_range and flagged.  Data whose
    hit counts are all 0, or all equal to the shots, raise
    DegenerateDataError: its likelihood peaks on the parameter boundary.
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
    if all(h == 0 for h in data.hits) or data.hits == data.shots:
        raise DegenerateDataError(
            "no stage has both hits and misses; the estimate lies on the "
            "parameter boundary"
        )
    div = config.divisions_per_stage
    kappa_identifiable = any(m > 0 for m in data.depths)
    kappa_fixed = None if kappa_identifiable else math.sqrt(math.prod(_kappa_init_box(config)))
    lik = _StageLikelihood(data, div, div if kappa_identifiable else 1)
    a_hat, kappa_hat, best_ll, evaluations, trace = _search(lik, config, kappa_fixed)

    info = _fisher_prefix(a_hat, max(kappa_hat, _KAPPA_GRID_FLOOR), lik, n_stages)
    beta = info.beta
    return EstimateResult(
        a_hat=a_hat,
        kappa_hat=kappa_hat,
        log_likelihood_at_max=best_ll,
        fisher_at_estimate=info,
        likelihood_evaluations=evaluations,
        stage_trace=tuple(trace),
        anomalous=beta is not None and beta > ANOMALY_THRESHOLD,
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
    lik = _StageLikelihood(data, config.divisions_per_stage, 1)
    return _search(lik, config, float(kappa_fixed))[0]
