"""Two-parameter likelihood and the adaptive constant grid-search estimator.

The estimator processes stages incrementally: after stage k-1 it computes the
Fisher matrix of the schedule so far at the running estimate, sizes a
confidence box C_eps times the per-parameter Cramer-Rao errors, and searches
stage k's accumulated likelihood on a constant-size grid inside that box
(a linear, kappa log-spaced).  The previous estimate is snapped onto the new
grid so a stage can never do worse than carrying the old estimate forward.
After the last stage a final zoom of a few shrinking linear grids around
the estimate polishes it, moving it only to a strictly better point.
The hit rows of datasets that share a schedule run through one stage loop
and zoom together, and each gets the result it would get alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AemleError, ConfigError, DegenerateDataError
from .fisher import ANOMALY_THRESHOLD, FisherMatrix, _bound_rule, _element_terms, _stage_weights
from .model import Schedule, _integral, amplitude_point

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

# The final zoom: rounds and linear grid points per axis.
_ZOOM_ROUNDS = 4
_ZOOM_POINTS = 17

# Likelihood cells (stage x a x kappa points of every dataset in the call)
# per kernel call, or one dataset's cells where they are more: with the
# divisions cap and _MAX_STAGES, the kernel's two workspaces stay under
# 64 x 256^2 x 2 doubles (about 67 MB).
_BLOCK_CELLS = 2**16


@dataclass(frozen=True)
class ExperimentData:
    """Observed stages (m_k, N_k, h_k) of a staged amplification experiment."""

    stages: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigError("experiment data must have at least one stage")
        schedule = Schedule(tuple((m, n) for m, n, _ in self.stages))  # the depth and shot rules
        object.__setattr__(self, "stages", tuple(
            (m, n, _integral(h, "hits h", 0, n))
            for (m, n), (_, _, h) in zip(schedule.stages, self.stages)
        ))

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
    --divisions), 8 to 256; the cap bounds the kernel's workspace.  The rest
    of the search is fixed: the initial box _A_INIT x _KAPPA_INIT, the box
    factor of _chebyshev_factor, the _MAX_STAGES cap and the final zoom
    (_ZOOM_ROUNDS rounds of _ZOOM_POINTS per axis), which adds the same
    evaluations to every estimate."""

    divisions_per_stage: int = 32

    def __post_init__(self) -> None:
        object.__setattr__(self, "divisions_per_stage",
                           _integral(self.divisions_per_stage, "divisions_per_stage", 8, 256))


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


def _weigh(
    p: np.ndarray, q: np.ndarray, hits: np.ndarray, misses: np.ndarray, clamp: bool
) -> None:
    """Turn P in p into h ln P + (N - h) ln(1 - P), with P first clamped to
    [EPS_P, 1 - EPS_P] if clamp; hits and misses hold h and N - h, broadcast
    against p, and q is scratch of p's shape.  The clamp can act only at
    m = 0, where P is 0 or 1 at a in {0, 1}, or at kappa m below
    _KAPPA_GRID_FLOOR: at kappa m >= 1e-10, |P - 1/2| <= e^{-kappa m}/2
    keeps P in [5e-11, 1 - 5e-11]."""
    if clamp:
        np.maximum(p, EPS_P, out=p)
        np.minimum(p, 1.0 - EPS_P, out=p)
    np.negative(p, out=q)
    np.log1p(q, out=q)
    np.log(p, out=p)
    p *= hits
    q *= misses
    p += q


class _StageLikelihood:
    """Binomial log-likelihoods of hit rows on one schedule (depths, shots),
    on (a, kappa) grids, with the schedule's Fisher weights.

    The schedule, its _stage_weights and every row's counts are converted
    once, and one stage-first (stage, dataset, a, kappa) workspace, grown
    to the largest call, serves every block of datasets (see best).  The
    m = 0 stages lead (depths are non-decreasing) and, as e^{-kappa 0} = 1
    at every finite kappa, their terms are computed on (dataset, a) columns
    and copied along the kappa axis.  The other stages
    form cos(2(2m+1) theta_a) x e^{-kappa m} / 2 with einsum, which skips
    the buffering of numpy's broadcast multiply, and are clamped only when
    a kappa of the call is below _KAPPA_GRID_FLOOR: above it the clamp
    cannot act (_weigh), so dropping it keeps every bit.  Every stage term is
    elementwise and keeps the bits of the broadcast formula (einsum may drop
    a zero's sign; 1/2 - 0 erases it), and each cell's terms are summed in
    stage order from +0.0, so a dataset's grid has the same bits in any call
    and any block.
    """

    def __init__(self, depths: Sequence[int], shots: Sequence[int], hits) -> None:
        self.depths = np.asarray(depths, dtype=float)
        self.shots = np.asarray(shots, dtype=float)
        self.n_data = len(hits)
        # (stage, dataset, 1, 1) hit and miss counts
        self._hits = np.asarray(hits, dtype=float).T[:, :, None, None]
        self._misses = self.shots[:, None, None, None] - self._hits
        self.weights = _stage_weights(self.depths, self.shots)
        self._freq = self.weights[1][0]  # 2(2m+1)
        self._n_flat = int(np.count_nonzero(self.depths == 0.0))
        self._log_p = self._log_q = np.empty(0)
        self._kept: tuple[slice, np.ndarray] | None = None  # best's one block and its grid
        self._fisher: tuple[bytes, np.ndarray] | None = None  # _fisher_prefix's point and terms
        self.evaluations = 0

    def grid(
        self,
        rows: slice | Sequence[int],
        n_stages: int,
        a_grids: np.ndarray,
        kappa_grids: np.ndarray,
        first: int = 0,
    ) -> np.ndarray:
        """Sum over stages first..n_stages-1 of h ln P + (N - h) ln(1 - P),
        with P = 1/2 - 1/2 e^{-kappa m} cos(2(2m+1) theta_a) clamped to
        [EPS_P, 1 - EPS_P], for each dataset of rows on its own grid: row r
        of a_grids (n_a points) and of kappa_grids (n_k points); shape
        (len(rows), n_a, n_k).  kappa must be finite.  The m >= 1 stages
        skip the clamp when every kappa of the call is at least
        _KAPPA_GRID_FLOOR, where it cannot act (_weigh); the stage loop
        and the zoom never go below it.  A stage's terms are the same in
        any range, so adding the one-stage range n_stages - 1 to the sum of
        the stages before it takes the last step of their in-order sum."""
        n_rows, n_a = a_grids.shape
        n_k = kappa_grids.shape[1]
        stages = slice(first, n_stages)
        count = n_stages - first
        size = count * n_rows * n_a * n_k
        if self._log_p.size < size:
            self._log_p, self._log_q = np.empty(size), np.empty(size)
        shape = (count, n_rows, n_a, n_k)
        log_p = self._log_p[:size].reshape(shape)
        log_q = self._log_q[:size].reshape(shape)
        hits = self._hits[stages, rows]
        misses = self._misses[stages, rows]
        theta = np.arcsin(np.sqrt(np.minimum(np.maximum(a_grids, 0.0), 1.0)))
        osc = np.cos(np.multiply.outer(self._freq[stages], theta))
        n_flat = min(max(self._n_flat - first, 0), count)  # the range's m = 0 stages
        if n_flat:
            flat = 0.5 - osc[:n_flat] * 0.5
            _weigh(flat, np.empty_like(flat), hits[:n_flat, :, :, 0], misses[:n_flat, :, :, 0],
                   clamp=True)
            log_p[:n_flat] = flat[..., None]
        if n_flat < count:
            rest = log_p[n_flat:]
            half_decay = np.exp(np.multiply.outer(self.depths[stages][n_flat:], -kappa_grids))
            half_decay *= 0.5
            np.einsum("sra,srk->srak", osc[n_flat:], half_decay, out=rest)
            np.subtract(0.5, rest, out=rest)
            _weigh(rest, log_q[n_flat:], hits[n_flat:], misses[n_flat:],
                   clamp=not kappa_grids.min() >= _KAPPA_GRID_FLOOR)
        return log_p.sum(axis=0)

    def best(
        self, n_stages: int, a_grids: np.ndarray, kappa_grids: np.ndarray, held=None,
        extend: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Each dataset's first maximum in a-major order (smallest a, then
        kappa) on stages 0..n_stages-1: its a and kappa indices and its
        log-likelihood, and the log-likelihood at the flat a-major index
        held[t] when held is given (else None).  Each grid call takes as
        many datasets as fit in _BLOCK_CELLS cells, and at least one.

        When one grid call covers every dataset, its log-likelihoods are
        kept by reference, which holds no more memory than the call did.
        extend says the grids are the last call's and n_stages is one more:
        if that call kept them, only stage n_stages - 1 is evaluated and
        added to them in place.  Either way adds one dataset's grid size to
        self.evaluations."""
        n_k = kappa_grids.shape[1]
        size = a_grids.shape[1] * n_k
        self.evaluations += size
        if extend and self._kept:
            rows, lls = self._kept
            lls += self.grid(rows, n_stages, a_grids[rows], kappa_grids[rows], n_stages - 1)
            blocks = [self._kept]
        else:
            self._kept = None
            step = max(1, _BLOCK_CELLS // (n_stages * size))
            starts = range(0, self.n_data, step)
            blocks = ((rows, self.grid(rows, n_stages, a_grids[rows], kappa_grids[rows]))
                      for rows in (slice(start, start + step) for start in starts))
        top, best_ll = np.empty(self.n_data, dtype=np.intp), np.empty(self.n_data)
        held_ll = None if held is None else np.empty(self.n_data)
        for rows, lls in blocks:
            ll = lls.reshape(-1, size)
            at = np.arange(len(ll))
            top[rows] = flat = ll.argmax(axis=1)
            best_ll[rows] = ll[at, flat]
            if held is not None:
                held_ll[rows] = ll[at, held[rows]]
        if rows.start == 0 and rows.stop >= self.n_data:
            self._kept = rows, lls
        ia, ik = np.divmod(top, n_k)
        return ia, ik, best_ll, held_ll


def log_likelihood(data: ExperimentData, a: float, kappa: float) -> float:
    """Sum of h ln P + (N - h) ln(1 - P) over stages, with P clamped to
    [1e-12, 1 - 1e-12]; always finite.  a outside [0, 1] and a kappa that
    is negative or not finite raise DomainError."""
    point = amplitude_point(a, kappa)
    cell = np.asarray([[point.a, point.kappa]])
    lik = _StageLikelihood(data.depths, data.shots, [data.hits])
    grid = lik.grid(slice(0, 1), len(data.stages), cell[:, :1], cell[:, 1:])
    return float(grid[0, 0, 0])


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

    This is numpy's own formula, arange * step + lo with the last point set
    to hi, and arange / (num - 1) * (hi - lo) + lo in a column whose step is
    zero.  numpy itself, given array endpoints, switches every column to the
    zero-step form as soon as one column's step is zero.
    """
    delta = hi - lo
    step = delta / (num - 1)
    index = np.arange(num, dtype=float)[:, None]
    out = index * step
    zero = step == 0.0
    if zero.any():
        out[:, zero] = index / (num - 1) * delta[zero]
    out += lo
    out[-1] = hi
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
) -> np.ndarray:
    """Fisher sums (i11, i12, i22), a (3, T) array, of the first n_stages
    stages at each (a[t], kappa[t]), with a inset from the {0, 1} boundary
    where the information is singular.

    The last call's points and their terms of every stage are kept on lik;
    at the same points, bit for bit, their prefix is re-summed as a fresh
    _element_sums sums it.  No denominator past the prefix can fail
    _element_terms' check: at the inset a each is at least the sin^2 of a
    nonzero double, far above its floor."""
    a = np.minimum(np.maximum(a, _A_INSET), 1.0 - _A_INSET)
    key = a.tobytes() + np.asarray(kappa, dtype=float).tobytes()
    if lik._fisher is None or lik._fisher[0] != key:
        lik._fisher = key, _element_terms(a, kappa, lik.weights)
    return lik._fisher[1][..., :n_stages].sum(axis=2)


def _box(
    eps_a: float, eps_k: float, a_hat: float, kappa_hat: float, kappa_fixed: float | None
) -> tuple[float, float, float, float]:
    """Search box (a_lo, a_hi, kappa_lo, kappa_hi): C_eps times _bound_rule's
    errors around the running estimate, clipped to the domain, or the init
    range along an axis whose error is unknown (eps_a inf, eps_k NaN)."""
    c_box = _chebyshev_factor(eps_a)
    if math.isfinite(eps_a):
        a_lo = max(0.0, a_hat - c_box * eps_a)
        a_hi = min(1.0, a_hat + c_box * eps_a)
    else:
        a_lo, a_hi = _A_INIT
    if kappa_fixed is not None:
        k_lo = k_hi = kappa_fixed
    elif not math.isnan(eps_k):
        k_lo = max(kappa_hat - c_box * eps_k, _KAPPA_GRID_FLOOR)
        k_hi = max(kappa_hat + c_box * eps_k, 2 * _KAPPA_GRID_FLOOR)
    else:
        k_lo, k_hi = _KAPPA_INIT
    return a_lo, a_hi, k_lo, k_hi


def _search(
    lik: _StageLikelihood, config: MleConfig, kappa_fixed: float | None
) -> tuple[np.ndarray, np.ndarray, list[float], list[list[StageTrace]]]:
    """The stage-by-stage box search of every dataset of lik at once, then
    the final _zoom; returns per-dataset a_hat, kappa_hat, best_ll and
    trace, and counts one dataset's evaluations in lik.evaluations.

    Stage 0 searches the init box.  Each later stage makes one Fisher and
    one _bound_rule call, one grid-spacing call per axis, one snap per axis
    and one lik.best call for all datasets, and sizes each dataset's box
    from its own errors.  A stage whose boxes and carried estimates all
    equal the last stage's, bit for bit, would build the same grids: it
    keeps them and the carried indices, with no spacing or snap call, and
    has lik.best extend the last stage's grid log-likelihoods by its own
    stage.  kappa_fixed=None searches kappa on the log-spaced grid.  A
    fixed kappa is searched as a one-point axis, its a-box sized by the
    one-parameter error 1/sqrt(i11).
    """
    div = config.divisions_per_stage
    n_data = lik.n_data
    rows = np.arange(n_data)
    a_hat = kappa_hat = np.full(n_data, math.nan)
    traces: list[list[StageTrace]] = [[] for _ in range(n_data)]
    carried = None  # stage 0 has no carried estimate
    last = b""  # the last stage's boxes and carried estimates, as bytes

    for stage in range(len(lik.depths)):
        if stage == 0:  # no stage seen yet: the init box
            eps_a, eps_k = [math.inf] * n_data, [math.nan] * n_data
        else:
            i11, i12, i22 = _fisher_prefix(lik, a_hat, kappa_hat, stage)
            if kappa_fixed is not None:  # only the a-information sizes the box
                i12 = i22 = np.zeros(n_data)
            eps_a, eps_k = _bound_rule(i11, i12, i22)[:2].tolist()
        box = np.asarray([
            _box(e_a, e_k, a, k, kappa_fixed)
            for e_a, e_k, a, k in zip(eps_a, eps_k, a_hat.tolist(), kappa_hat.tolist())
        ])
        key = box.tobytes() + a_hat.tobytes() + kappa_hat.tobytes()
        repeat, last = key == last, key
        if not repeat:  # else the last stage's grids and carried index, bit for bit
            a_lo, a_hi, k_lo, k_hi = np.ascontiguousarray(box.T)
            # (dataset, point) views of numpy's native (point, dataset) layout
            a_grid = _linspace(a_lo, a_hi, div).T
            if kappa_fixed is None:
                k_grid = _geomspace(k_lo, k_hi, div).T
            else:
                k_grid = np.full((n_data, 1), kappa_fixed)
            if stage > 0:  # the carried estimate's index in a-major order
                carried = _snap(a_grid, a_hat) * k_grid.shape[1] + _snap(k_grid, kappa_hat)

        ia, ik, best_ll, carried_ll = lik.best(stage + 1, a_grid, k_grid, carried, repeat)
        a_hat, kappa_hat = a_grid[rows, ia], k_grid[rows, ik]
        carried_ll = [math.nan] * n_data if carried_ll is None else carried_ll.tolist()
        for trace, bounds, best, held in zip(traces, box.tolist(), best_ll.tolist(), carried_ll):
            trace.append(StageTrace(stage, *bounds, best, held))
    a_step = (a_hi - a_lo) / (div - 1)
    a_hat, kappa_hat, best_ll = _zoom(lik, a_hat, kappa_hat, best_ll, a_step, kappa_fixed)
    return a_hat, kappa_hat, best_ll.tolist(), traces


def _zoom(
    lik: _StageLikelihood,
    a_hat: np.ndarray,
    kappa_hat: np.ndarray,
    best_ll: np.ndarray,
    a_step: np.ndarray,
    kappa_fixed: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polish each dataset's search estimate on every stage; returns the new
    a_hat, kappa_hat and best_ll.

    _ZOOM_ROUNDS rounds of one lik.best call on a linear grid, _ZOOM_POINTS
    per axis (a fixed kappa is a one-point axis of zero half-width).  The
    first window is a_hat +- 2 a_step (the last stage's a-spacing) by
    kappa_hat +- kappa_hat / 2, clipped to [0, 1] and to _KAPPA_GRID_FLOOR.
    A point replaces the estimate only if its likelihood is strictly higher
    (the first max in a-major order).  Each round centres on the best point
    so far and quarters each half-width, except along an axis where the
    estimate just moved to the window's edge: there the window keeps its
    size, so it can follow a ridge.
    """
    rows = np.arange(lik.n_data)
    last = _ZOOM_POINTS - 1
    a_half = 2.0 * a_step
    k_half = 0.5 * kappa_hat if kappa_fixed is None else np.zeros(lik.n_data)
    for _ in range(_ZOOM_ROUNDS):
        lo, hi = np.maximum(a_hat - a_half, 0.0), np.minimum(a_hat + a_half, 1.0)
        a_grid = _linspace(lo, hi, _ZOOM_POINTS).T
        if kappa_fixed is None:
            lo = np.maximum(kappa_hat - k_half, _KAPPA_GRID_FLOOR)
            k_grid = _linspace(lo, kappa_hat + k_half, _ZOOM_POINTS).T
        else:
            k_grid = kappa_hat[:, None]
        ia, ik, top, _ = lik.best(len(lik.depths), a_grid, k_grid)
        moved = top > best_ll
        a_hat = np.where(moved, a_grid[rows, ia], a_hat)
        kappa_hat = np.where(moved, k_grid[rows, ik], kappa_hat)
        best_ll = np.where(moved, top, best_ll)
        a_half = np.where(moved & ((ia == 0) | (ia == last)), a_half, a_half / 4.0)
        k_half = np.where(moved & ((ik == 0) | (ik == last)), k_half, k_half / 4.0)
    return a_hat, kappa_hat, best_ll


def _stage_cap_error(n_stages: int) -> ConfigError | None:
    """The error for data of n_stages stages past _MAX_STAGES, or None."""
    if n_stages > _MAX_STAGES:
        return ConfigError(f"data has {n_stages} stages, at most {_MAX_STAGES} are allowed")
    return None


def _data_error(
    depths: Sequence[int], shots: Sequence[int], hits: Sequence[int]
) -> AemleError | None:
    """The error that keeps one hit row on the schedule (depths, shots) from
    being estimated, or None; the stage cap is checked first."""
    if (error := _stage_cap_error(len(depths))) is not None:
        return error
    if all(m == 0 for m in depths) and all(h in (0, n) for n, h in zip(shots, hits)):
        return DegenerateDataError(
            "all stages are classical with saturated hit counts; the estimate "
            "lies on the amplitude boundary"
        )
    if all(h == 0 for h in hits) or all(h == n for n, h in zip(shots, hits)):
        return DegenerateDataError(
            "no stage has both hits and misses; the estimate lies on the "
            "parameter boundary"
        )
    return None


def _estimate_batch(
    depths: Sequence[int], shots: Sequence[int], hits: Sequence[Sequence[int]],
    config: MleConfig, kappa_fixed: float | None = None,
) -> list[EstimateResult | AemleError]:
    """mle_grid_adaptive, or at kappa_fixed the profile search, on each row
    of a (T, S) hit matrix on one schedule (depths, shots), in one stage loop.

    A row that cannot be estimated gets its error in place of a result; the
    others are estimated exactly as they would be alone.
    """
    errors = [_data_error(depths, shots, row) for row in hits]
    good = [row for row, error in zip(hits, errors) if error is None]
    if not good:
        return errors
    kappa_identifiable = any(m > 0 for m in depths)
    if kappa_fixed is None and not kappa_identifiable:
        kappa_fixed = math.sqrt(math.prod(_KAPPA_INIT))
    lik = _StageLikelihood(depths, shots, good)
    a_hat, kappa_hat, best_ll, traces = _search(lik, config, kappa_fixed)

    sums = _fisher_prefix(lik, a_hat, kappa_hat, len(depths))
    betas = _bound_rule(*sums)[2].tolist()
    i11, i12, i22 = sums.tolist()
    results = []
    for t, beta in enumerate(betas):
        results.append(
            EstimateResult(
                a_hat=float(a_hat[t]),
                kappa_hat=float(kappa_hat[t]),
                log_likelihood_at_max=best_ll[t],
                fisher_at_estimate=FisherMatrix(i11[t], i12[t], i22[t]),
                likelihood_evaluations=lik.evaluations,
                stage_trace=tuple(traces[t]),
                anomalous=beta > ANOMALY_THRESHOLD,
                anomality=None if math.isnan(beta) else beta,
                kappa_identifiable=kappa_identifiable,
            )
        )
    estimates = iter(results)
    return [error if error is not None else next(estimates) for error in errors]


def mle_grid_adaptive(data: ExperimentData, config: MleConfig | None = None) -> EstimateResult:
    """Adaptive constant grid-search MLE of (a, kappa).

    Stage 0 searches the full init box; stage k restricts to the confidence
    box around the stage k-1 estimate; the final zoom polishes the last
    stage's estimate.  Ties break toward smaller a, then smaller kappa.  If
    no stage has m > 0, kappa is unidentifiable: it is fixed at the
    log-midpoint of _KAPPA_INIT and flagged.  Data whose hit counts are all
    0, or all equal to the shots, raise DegenerateDataError: its likelihood
    peaks on the parameter boundary.  This is a batch of one dataset.
    """
    (result,) = _estimate_batch(data.depths, data.shots, [data.hits], config or MleConfig())
    if isinstance(result, AemleError):
        raise result
    return result


def mle_profile_1d(
    data: ExperimentData, kappa_fixed: float, config: MleConfig | None = None
) -> float:
    """One-dimensional grid-search MLE of a with kappa held fixed: the stage
    search and an a-only final zoom.  It refuses the data mle_grid_adaptive
    refuses."""
    if not 0.0 <= kappa_fixed < math.inf:
        raise ConfigError(f"kappa_fixed={kappa_fixed} must be finite and >= 0")
    # kappa_fixed near 1e308 overflows m * -kappa to -inf; exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        (result,) = _estimate_batch(data.depths, data.shots, [data.hits],
                                    config or MleConfig(), float(kappa_fixed))
    if isinstance(result, AemleError):
        raise result
    return result.a_hat
