"""Independent oracles used to validate closed forms in the tests.

The Fisher-matrix oracle never touches the library's analytic derivatives:
per-stage log-probability derivatives come from complex-step differentiation
(machine-accurate, no truncation error), and the information matrix is the
exact covariance of the score over every possible outcome vector.

The likelihood-grid reference is the estimator's original stage-last
broadcast formula, kept verbatim so the stage-first kernel can be checked
against it bit for bit.

The search reference is the estimator's original one-dataset stage loop,
kept verbatim on top of that likelihood grid, so the trial-batched search
can be checked against it result for result.  It writes out the search's
fixed settings (the initial box, the box factor and the stage cap) as its
own literals rather than importing the estimator's constants.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from aemle.errors import ConfigError, DegenerateDataError
from aemle.estimator import (
    _A_INSET,
    _KAPPA_GRID_FLOOR,
    EstimateResult,
    MleConfig,
    StageTrace,
)
from aemle.fisher import ANOMALY_THRESHOLD, FisherMatrix, _fisher_at
from aemle.model import amplitude_point

_H = 1e-30  # complex-step size; contributes no subtractive rounding


def prob_model(m: int, a: complex, kappa: complex) -> complex:
    """Hit probability, analytic in both parameters for the complex step."""
    theta = cmath.asin(cmath.sqrt(a))
    return 0.5 - 0.5 * cmath.exp(-kappa * m) * cmath.cos(2 * (2 * m + 1) * theta)


def _dlog_terms(m: int, a: float, kappa: float) -> tuple[float, float, float, float]:
    """(d/da ln P, d/dkappa ln P, d/da ln(1-P), d/dkappa ln(1-P))."""
    da_p = cmath.log(prob_model(m, a + 1j * _H, kappa)).imag / _H
    dk_p = cmath.log(prob_model(m, a, kappa + 1j * _H)).imag / _H
    da_q = cmath.log(1 - prob_model(m, a + 1j * _H, kappa)).imag / _H
    dk_q = cmath.log(1 - prob_model(m, a, kappa + 1j * _H)).imag / _H
    return da_p, dk_p, da_q, dk_q


def score(depths, shots, hits, a: float, kappa: float) -> tuple[float, float]:
    """Score vector of the staged binomial log-likelihood at one outcome."""
    sa = sk = 0.0
    for m, n, h in zip(depths, shots, hits):
        da_p, dk_p, da_q, dk_q = _dlog_terms(m, a, kappa)
        sa += h * da_p + (n - h) * da_q
        sk += h * dk_p + (n - h) * dk_q
    return sa, sk


def fisher_enumerated(depths, shots, a: float, kappa: float) -> tuple[float, float, float]:
    """Fisher matrix as the exhaustive score covariance over all outcomes."""
    probs = [prob_model(m, a, kappa).real for m in depths]
    terms = [_dlog_terms(m, a, kappa) for m in depths]
    i11 = i12 = i22 = 0.0
    for hits in itertools.product(*(range(n + 1) for n in shots)):
        weight = 1.0
        sa = sk = 0.0
        for h, n, p, (da_p, dk_p, da_q, dk_q) in zip(hits, shots, probs, terms):
            weight *= math.comb(n, h) * p**h * (1.0 - p) ** (n - h)
            sa += h * da_p + (n - h) * da_q
            sk += h * dk_p + (n - h) * dk_q
        i11 += weight * sa * sa
        i12 += weight * sa * sk
        i22 += weight * sk * sk
    return i11, i12, i22


def all_small_schedules(max_stages: int = 3, max_shots: int = 3, depth_pool=(0, 1, 2)):
    """Every non-decreasing depth tuple with per-stage shots in 1..max_shots."""
    for length in range(1, max_stages + 1):
        for depths in itertools.combinations_with_replacement(depth_pool, length):
            for shots in itertools.product(range(1, max_shots + 1), repeat=length):
                yield depths, shots


def log_likelihood_grid(depths, shots, hits, a_grid, kappa_grid):
    """Staged binomial log-likelihood on an (a, kappa) grid, stage axis last.

    P = 1/2 - 1/2 e^{-kappa m} cos(2(2m+1) theta_a) is broadcast to
    (len(a_grid), len(kappa_grid), stages), clipped to [1e-12, 1 - 1e-12],
    and h ln P + (N - h) ln(1 - P) is summed with np.sum(axis=2).
    """
    depths = np.asarray(depths, dtype=float)
    shots = np.asarray(shots, dtype=float)
    hits = np.asarray(hits, dtype=float)
    theta = np.arcsin(np.sqrt(np.clip(a_grid, 0.0, 1.0)))[:, None, None]
    kk = np.asarray(kappa_grid)[None, :, None]
    mm = depths[None, None, :]
    probs = 0.5 - 0.5 * np.exp(-kk * mm) * np.cos(2.0 * (2.0 * mm + 1.0) * theta)
    probs = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return np.sum(hits * np.log(probs) + (shots - hits) * np.log1p(-probs), axis=2)


class ReferenceLikelihood:
    """One dataset's stage arrays and its likelihood grid through
    log_likelihood_grid, in the interface the search reference reads."""

    def __init__(self, data) -> None:
        self.data = data
        self.depths = np.asarray(data.depths, dtype=float)
        self.shots = np.asarray(data.shots, dtype=float)

    def grid(self, n_stages, a_grid, kappa_grid):
        d = self.data
        return log_likelihood_grid(
            d.depths[:n_stages], d.shots[:n_stages], d.hits[:n_stages], a_grid, kappa_grid
        )


def _snap(grid: np.ndarray, value: float) -> tuple[np.ndarray, int]:
    """Replace the grid point nearest to value with value itself; returns the
    new grid and that point's index."""
    out = grid.copy()
    index = int(np.argmin(np.abs(grid - value)))
    out[index] = value
    return out, index


def _fisher_prefix(a: float, kappa: float, lik, n_stages: int) -> FisherMatrix:
    """Fisher matrix of the first n_stages stages at (a, kappa), with a inset
    from the {0, 1} boundary where the information is singular."""
    point = amplitude_point(min(max(a, _A_INSET), 1.0 - _A_INSET), kappa)
    return _fisher_at(point, lik.depths[:n_stages], lik.shots[:n_stages])


def _chebyshev_factor(eps_target: float) -> int:
    """C_eps = max(3, ceil(sqrt(ln(1/eps_target))) * 3), eps clamped to [1e-300, 0.5]."""
    eps = min(max(eps_target, 1e-300), 0.5)
    return max(3, math.ceil(math.sqrt(math.log(1.0 / eps))) * 3)


def search_reference(
    lik, config: MleConfig, kappa_fixed: float | None
) -> tuple[float, float, float, int, list[StageTrace]]:
    """The stage-by-stage box search; returns (a_hat, kappa_hat, best_ll,
    evaluations, trace).

    kappa_fixed=None searches kappa on the log-spaced grid.  A fixed kappa is
    searched as a one-point axis, and its a-box is sized by the
    one-parameter error 1/sqrt(i11) at that kappa.
    """
    div = config.divisions_per_stage
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
        c_box = _chebyshev_factor(min(eps_a, 0.5))
        if math.isfinite(eps_a):
            a_lo = max(0.0, a_hat - c_box * eps_a)
            a_hi = min(1.0, a_hat + c_box * eps_a)
        else:
            a_lo, a_hi = 0.0, 1.0
        if eps_k is not None:
            k_lo = max(kappa_hat - c_box * eps_k, _KAPPA_GRID_FLOOR)
            k_hi = max(kappa_hat + c_box * eps_k, 2 * _KAPPA_GRID_FLOOR)
        else:
            k_lo, k_hi = 1e-6, 2.0

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


def estimate_reference(data, config: MleConfig | None = None) -> EstimateResult:
    """mle_grid_adaptive of one dataset through search_reference."""
    config = config or MleConfig()
    n_stages = len(data.stages)
    if n_stages > 64:
        raise ConfigError(f"data has {n_stages} stages, at most 64 are allowed")
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
    kappa_identifiable = any(m > 0 for m in data.depths)
    kappa_fixed = None if kappa_identifiable else math.sqrt(1e-6 * 2.0)
    lik = ReferenceLikelihood(data)
    a_hat, kappa_hat, best_ll, evaluations, trace = search_reference(lik, config, kappa_fixed)

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


def profile_reference(data, kappa_fixed: float, config: MleConfig | None = None) -> float:
    """mle_profile_1d of one dataset through search_reference."""
    config = config or MleConfig()
    return search_reference(ReferenceLikelihood(data), config, float(kappa_fixed))[0]
