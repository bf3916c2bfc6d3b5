"""Two-parameter likelihood and the adaptive constant grid-search estimator.

The estimator processes stages incrementally: after stage k-1 it computes the
Fisher matrix of the schedule so far at the running estimate, sizes a
confidence box C_eps times the per-parameter Cramer-Rao errors, and searches
stage k's accumulated likelihood on a constant-size grid inside that box
(a linear, kappa log-spaced).  The previous estimate is snapped onto the new
grid so a stage can never do worse than carrying the old estimate forward.
Datasets that share a schedule run through one stage loop together, and
each gets the result it would get alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AemleError, ConfigError, DegenerateDataError
from .fisher import ANOMALY_THRESHOLD, FisherMatrix, _element_sums
from .model import _integral

# Probability clamp inside logs: h=0 or h=N with extreme P must stay finite.
EPS_P = 1e-12

# Positive floor for the log-spaced kappa grid (kappa = 0 is represented by it).
_KAPPA_GRID_FLOOR = 1e-10

# Inset used when evaluating Fisher information at a boundary estimate.
_A_INSET = 1e-9

# Stage-0 search box, along any axis whose Cramer-Rao error is unknown.
_A_INIT = (0.0, 1.0)
_KAPPA_INIT = (1e-6, 2.0)

# Most stages a dataset may have; guards data read from files.
_MAX_STAGES = 64


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
    """Grid points per axis at every stage of the adaptive search (the CLI's
    --divisions).  The rest of the search is fixed: the initial box _A_INIT x
    _KAPPA_INIT, the box factor of _chebyshev_factor and the _MAX_STAGES cap."""

    divisions_per_stage: int = 64

    def __post_init__(self) -> None:
        if self.divisions_per_stage < 8:
            raise ConfigError("divisions_per_stage must be >= 8")


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
    """Binomial log-likelihoods of datasets that share one schedule, on
    (a, kappa) grids.

    The schedule and every dataset's counts are converted to float arrays
    once, and one stage-first (stage, a, kappa) workspace serves every grid
    of every dataset.
    """

    def __init__(self, datasets: Sequence[ExperimentData], n_a: int, n_kappa: int) -> None:
        self.depths = np.asarray(datasets[0].depths, dtype=float)
        self.shots = np.asarray(datasets[0].shots, dtype=float)
        self.hits = np.asarray([data.hits for data in datasets], dtype=float)
        self.misses = self.shots - self.hits
        shape = (len(self.depths), n_a, n_kappa)
        self._log_p = np.empty(shape)
        self._log_q = np.empty(shape)

    def grid(
        self, t: int, n_stages: int, a_grid: np.ndarray, kappa_grid: np.ndarray
    ) -> np.ndarray:
        """Sum over dataset t's stages 0..n_stages-1 of h ln P + (N - h) ln(1 - P),
        with P = 1/2 - 1/2 e^{-kappa m} cos(2(2m+1) theta_a) clamped to
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
        log_p *= self.hits[t, :n_stages, None, None]
        log_q *= self.misses[t, :n_stages, None, None]
        log_p += log_q
        return _stage_sum(log_p)


def log_likelihood(data: ExperimentData, a: float, kappa: float) -> float:
    """Sum of h ln P + (N - h) ln(1 - P) over stages, with P clamped to
    [1e-12, 1 - 1e-12]; always finite."""
    grid = _StageLikelihood([data], 1, 1).grid(
        0, len(data.stages), np.asarray([float(a)]), np.asarray([float(kappa)])
    )
    return float(grid[0, 0])


def _chebyshev_factor(eps_target: float) -> int:
    """C_eps = 3 ceil(sqrt(ln(1/eps))), with eps_target clamped to [1e-300, 0.5]."""
    eps = min(max(eps_target, 1e-300), 0.5)
    return 3 * math.ceil(math.sqrt(math.log(1.0 / eps)))


def _snap(grids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In each row of grids, replace the point nearest to that row's value
    with the value itself (the first nearest on ties); returns those indices."""
    index = np.abs(grids - values[:, None]).argmin(axis=1)
    grids[np.arange(len(grids)), index] = values
    return index


def _linspace(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(lo, hi, num) with the bits of a lone call in every column.

    With array endpoints numpy switches every column to its zero-step
    formula as soon as one column's step is zero, so columns with and
    without a zero step are spaced apart.
    """
    zero = (hi - lo) / (num - 1) == 0.0
    if np.count_nonzero(zero) in (0, len(zero)):
        return np.linspace(lo, hi, num)
    out = np.empty((num, len(lo)))
    for cols in (zero, ~zero):
        out[:, cols] = np.linspace(lo[cols], hi[cols], num)
    return out


def _geomspace(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """np.geomspace(lo, hi, num) for positive endpoints, with the bits of a
    lone call in every column: numpy's 10 ** linspace(log10 lo, log10 hi)
    with both endpoints set exactly."""
    out = np.power(10.0, _linspace(np.log10(lo), np.log10(hi), num))
    out[0] = lo
    out[-1] = hi
    return out


def _fisher_prefix(
    lik: _StageLikelihood, a: np.ndarray, kappa: np.ndarray | float, n_stages: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fisher sums (i11, i12, i22) of the first n_stages stages at each
    (a[t], kappa[t]), with a inset from the {0, 1} boundary where the
    information is singular."""
    a = np.minimum(np.maximum(a, _A_INSET), 1.0 - _A_INSET)
    return _element_sums(a, kappa, lik.depths[:n_stages], lik.shots[:n_stages])


def _box(
    info: FisherMatrix, a_hat: float, kappa_hat: float, kappa_fixed: float | None
) -> tuple[float, float, float, float]:
    """Search box (a_lo, a_hi, kappa_lo, kappa_hi): C_eps Cramer-Rao errors
    around the running estimate, clipped to the domain, or the init range
    along an axis whose error is unknown."""
    eps_a, eps_k = info.errors()
    c_box = _chebyshev_factor(eps_a)
    if math.isfinite(eps_a):
        a_lo = max(0.0, a_hat - c_box * eps_a)
        a_hi = min(1.0, a_hat + c_box * eps_a)
    else:
        a_lo, a_hi = _A_INIT
    if kappa_fixed is not None:
        k_lo = k_hi = kappa_fixed
    elif eps_k is not None:
        k_lo = max(kappa_hat - c_box * eps_k, _KAPPA_GRID_FLOOR)
        k_hi = max(kappa_hat + c_box * eps_k, 2 * _KAPPA_GRID_FLOOR)
    else:
        k_lo, k_hi = _KAPPA_INIT
    return a_lo, a_hi, k_lo, k_hi


def _search(
    lik: _StageLikelihood, config: MleConfig, kappa_fixed: float | None
) -> tuple[np.ndarray, np.ndarray, list[float], int, list[list[StageTrace]]]:
    """The stage-by-stage box search of every dataset of lik at once; returns
    per-dataset a_hat, kappa_hat, best_ll and trace, and the evaluation count
    of one dataset.

    Each stage makes one Fisher call, one grid-spacing call per axis and one
    snap for all datasets, sizes each dataset's box from its own
    FisherMatrix.errors(), and evaluates the likelihood one dataset at a
    time.  kappa_fixed=None searches kappa on the log-spaced grid.  A fixed
    kappa is searched as a one-point axis, and its a-box is sized by the
    one-parameter error 1/sqrt(i11) at that kappa.
    """
    div = config.divisions_per_stage
    n_data = len(lik.hits)
    rows = np.arange(n_data)
    a_hat = kappa_hat = np.full(n_data, math.nan)
    evaluations = 0
    traces: list[list[StageTrace]] = [[] for _ in range(n_data)]

    for stage in range(len(lik.depths)):
        if stage == 0:
            infos = [FisherMatrix(0.0, 0.0, 0.0)] * n_data  # no stage seen yet: the init box
        elif kappa_fixed is None:
            sums = _fisher_prefix(lik, a_hat, np.maximum(kappa_hat, _KAPPA_GRID_FLOOR), stage)
            infos = [FisherMatrix(*fisher) for fisher in zip(*(x.tolist() for x in sums))]
        else:
            # kappa is held fixed, so only the a-information sizes the box
            i11 = _fisher_prefix(lik, a_hat, kappa_fixed, stage)[0]
            infos = [FisherMatrix(x, 0.0, 0.0) for x in i11.tolist()]
        boxes = [
            _box(info, a, k, kappa_fixed)
            for info, a, k in zip(infos, a_hat.tolist(), kappa_hat.tolist())
        ]
        box = np.asarray(boxes, dtype=float)
        a_lo, a_hi, k_lo, k_hi = np.ascontiguousarray(box.T)

        # (dataset, point) views of numpy's native (point, dataset) layout
        a_grid = _linspace(a_lo, a_hi, div).T
        if kappa_fixed is None:
            k_grid = _geomspace(k_lo, k_hi, div).T
        else:
            k_grid = np.full((n_data, 1), kappa_fixed)
        if stage > 0:
            ia_prev = _snap(a_grid, a_hat).tolist()
            ik_prev = _snap(k_grid, kappa_hat).tolist()

        evaluations += a_grid.shape[1] * k_grid.shape[1]
        ia, ik, best_ll = [], [], []
        for t, bounds in enumerate(box.tolist()):
            ll = lik.grid(t, stage + 1, a_grid[t], k_grid[t])
            # first max in a-major order: smallest a, then kappa
            i, j = divmod(int(ll.argmax()), ll.shape[1])
            carried_ll = float(ll[ia_prev[t], ik_prev[t]]) if stage > 0 else math.nan
            ia.append(i)
            ik.append(j)
            best_ll.append(float(ll[i, j]))
            traces[t].append(StageTrace(stage, *bounds, best_ll[t], carried_ll))
        a_hat, kappa_hat = a_grid[rows, ia], k_grid[rows, ik]
    return a_hat, kappa_hat, best_ll, evaluations, traces


def _data_error(data: ExperimentData) -> AemleError | None:
    """The error that keeps data from being estimated, or None; the stage
    cap is checked first."""
    n_stages = len(data.stages)
    if n_stages > _MAX_STAGES:
        return ConfigError(f"data has {n_stages} stages, at most {_MAX_STAGES} are allowed")
    if all(m == 0 for m in data.depths) and all(h in (0, n) for _, n, h in data.stages):
        return DegenerateDataError(
            "all stages are classical with saturated hit counts; the estimate "
            "lies on the amplitude boundary"
        )
    if all(h == 0 for h in data.hits) or data.hits == data.shots:
        return DegenerateDataError(
            "no stage has both hits and misses; the estimate lies on the "
            "parameter boundary"
        )
    return None


def _estimate_batch(
    datasets: Sequence[ExperimentData], config: MleConfig
) -> list[EstimateResult | AemleError]:
    """mle_grid_adaptive on datasets that share one schedule (the same depths
    and shots), in one stage loop.

    A dataset that cannot be estimated gets its error in place of a result;
    the others are estimated exactly as they would be alone.
    """
    depths, shots = datasets[0].depths, datasets[0].shots
    if any(data.depths != depths or data.shots != shots for data in datasets):
        raise ConfigError("the datasets of a batch must share one schedule")
    errors = [_data_error(data) for data in datasets]
    good = [data for data, error in zip(datasets, errors) if error is None]
    if not good:
        return errors
    div = config.divisions_per_stage
    kappa_identifiable = any(m > 0 for m in depths)
    kappa_fixed = None if kappa_identifiable else math.sqrt(math.prod(_KAPPA_INIT))
    lik = _StageLikelihood(good, div, div if kappa_identifiable else 1)
    a_hat, kappa_hat, best_ll, evaluations, traces = _search(lik, config, kappa_fixed)

    sums = _fisher_prefix(lik, a_hat, np.maximum(kappa_hat, _KAPPA_GRID_FLOOR), len(depths))
    i11, i12, i22 = (x.tolist() for x in sums)
    results = []
    for t in range(len(good)):
        info = FisherMatrix(i11[t], i12[t], i22[t])
        beta = info.beta
        results.append(
            EstimateResult(
                a_hat=float(a_hat[t]),
                kappa_hat=float(kappa_hat[t]),
                log_likelihood_at_max=best_ll[t],
                fisher_at_estimate=info,
                likelihood_evaluations=evaluations,
                stage_trace=tuple(traces[t]),
                anomalous=beta is not None and beta > ANOMALY_THRESHOLD,
                anomality=beta,
                kappa_identifiable=kappa_identifiable,
            )
        )
    estimates = iter(results)
    return [error if error is not None else next(estimates) for error in errors]


def mle_grid_adaptive(data: ExperimentData, config: MleConfig | None = None) -> EstimateResult:
    """Adaptive constant grid-search MLE of (a, kappa).

    Stage 0 searches the full init box; stage k restricts to the confidence
    box around the stage k-1 estimate.  Ties break toward smaller a, then
    smaller kappa.  If no stage has m > 0, kappa is unidentifiable: it is
    fixed at the log-midpoint of _KAPPA_INIT and flagged.  Data whose
    hit counts are all 0, or all equal to the shots, raise
    DegenerateDataError: its likelihood peaks on the parameter boundary.
    This is a batch of one dataset.
    """
    (result,) = _estimate_batch([data], config or MleConfig())
    if isinstance(result, AemleError):
        raise result
    return result


def mle_profile_1d(
    data: ExperimentData, kappa_fixed: float, config: MleConfig | None = None
) -> float:
    """One-dimensional grid-search MLE of a with kappa held fixed."""
    if not 0.0 <= kappa_fixed < math.inf:
        raise ConfigError(f"kappa_fixed={kappa_fixed} must be finite and >= 0")
    if len(data.stages) > _MAX_STAGES:
        raise _data_error(data)
    config = config or MleConfig()
    lik = _StageLikelihood([data], config.divisions_per_stage, 1)
    return float(_search(lik, config, float(kappa_fixed))[0][0])
