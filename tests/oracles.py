"""Independent oracles used to validate closed forms in the tests.

The Fisher-matrix oracle never touches the library's analytic derivatives:
per-stage log-probability derivatives come from complex-step differentiation
(machine-accurate, no truncation error), and the information matrix is the
exact covariance of the score over every possible outcome vector.

The likelihood-grid reference is the estimator's original stage-last
broadcast formula, its stage terms summed in a plain loop in stage order,
so the stage-first kernel can be checked against it bit for bit.

The search reference is the estimator's original one-dataset stage loop,
kept verbatim on top of that likelihood grid, so the trial-batched search
can be checked against it result for result.  It writes out the search's
fixed settings (the initial box, the box factor and the stage cap) as its
own literals rather than importing the estimator's constants.

The brute-force MLE is a global maximum of the staged likelihood found
without the adaptive search: a dense grid uniform in theta = arcsin(sqrt(a))
by kappa, then a pattern search from each of the best grid peaks.  It
shares no code with the estimator and is trusted only on shallow ladders.

The kappa-bar scan reference is the scan as written before it was batched:
one saturated schedule, its Fisher matrix and the scalar 2x2 rule per noise
level, on a grid and a bisection tolerance it writes out as its own literals.

The depth-limit reference is the library's scalar m-bar loop as written
before the rule became array-native; the saturated schedules use it, so the
scan references do not run the rule they check.  The sequential kappa-bar
reference is the library's scan followed by the bisection as written before
its midpoints were evaluated in one pass: one lone-kappa scan call per step.

The 2x2 rule reference is the library's scalar Cramer-Rao inverse and
anomality as written before they became one elementwise array rule, with
the determinant tolerance as its own literal; the search, estimate and scan
references use it, so none of them runs the rule they check.

The gate-error budget reference is the budget bisection as written with a
fixed 200 steps, so the loop that stops once its bracket holds two adjacent
doubles can be checked against it bit for bit.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from aemle.errors import ConfigError, DegenerateDataError, DomainError
from aemle.estimator import (
    _A_INSET,
    _KAPPA_GRID_FLOOR,
    EstimateResult,
    MleConfig,
    StageTrace,
)
from aemle.fisher import (
    _KAPPA_SCAN,
    ANOMALY_THRESHOLD,
    FisherMatrix,
    _saturated_errors,
    fisher_matrix,
)
from aemle.hwspec import kappa_from_gate_errors
from aemle.model import Schedule, amplitude_point, capped_depths

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
    and h ln P + (N - h) ln(1 - P) is summed in stage order with
    stage_sum_reference.
    """
    depths = np.asarray(depths, dtype=float)
    shots = np.asarray(shots, dtype=float)
    hits = np.asarray(hits, dtype=float)
    theta = np.arcsin(np.sqrt(np.clip(a_grid, 0.0, 1.0)))[:, None, None]
    kk = np.asarray(kappa_grid)[None, :, None]
    mm = depths[None, None, :]
    probs = 0.5 - 0.5 * np.exp(-kk * mm) * np.cos(2.0 * (2.0 * mm + 1.0) * theta)
    probs = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return stage_sum_reference(hits * np.log(probs) + (shots - hits) * np.log1p(-probs))


def stage_sum_reference(terms: np.ndarray) -> np.ndarray:
    """Sum over the last (stage) axis: a grid of +0.0 plus each stage's
    terms in turn, in stage order."""
    total = np.zeros(terms.shape[:-1])
    for stage in range(terms.shape[-1]):
        total += terms[..., stage]
    return total


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
    stages = zip(lik.depths[:n_stages], lik.shots[:n_stages])
    return fisher_matrix(point, Schedule(tuple(stages)))


def errors_reference(i11: float, i12: float, i22: float) -> tuple[float, float | None]:
    """Cramer-Rao errors (eps_a, eps_kappa), the square roots of the 2x2
    inverse's diagonal.

    The inverse is not trusted when kappa carries no information (i22 = 0),
    i11 * i22 overflows or the determinant is below 1e-12 * i11 * i22; eps_a
    then falls back to the one-parameter bound 1/sqrt(i11) (infinite at
    i11 = 0) and eps_kappa is None.
    """
    det = i11 * i22 - i12 * i12
    if i22 > 0.0 and det > 1e-12 * i11 * i22 and i11 * i22 < math.inf:
        return math.sqrt(i22 / det), math.sqrt(i11 / det)
    if i11 <= 0.0:
        return math.inf, None
    return 1.0 / math.sqrt(i11), None


def beta_reference(i11: float, i12: float, i22: float) -> float | None:
    """Anomality min(i12^2 / (i11 i22), 1); None unless i11, i22 > 0."""
    if i22 <= 0.0 or i11 <= 0.0:
        return None
    return min(i12 * i12 / (i11 * i22), 1.0)


def _chebyshev_factor(eps_target: float) -> int:
    """C_eps = 3 ceil(sqrt(ln(1/eps))), with eps_target clamped to [1e-300, 0.5]."""
    eps = min(max(eps_target, 1e-300), 0.5)
    return 3 * math.ceil(math.sqrt(math.log(1.0 / eps)))


def search_reference(
    lik, config: MleConfig, kappa_fixed: float | None
) -> tuple[float, float, float, int, list[StageTrace]]:
    """The stage-by-stage box search and the final zoom, one dataset at a
    time; returns (a_hat, kappa_hat, best_ll, evaluations, trace).

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
        eps_a, eps_k = errors_reference(info.i11, info.i12, info.i22)
        c_box = _chebyshev_factor(eps_a)
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

    # the final zoom: 4 rounds of a 17-point linear grid per axis, starting
    # at +-2 last-stage a-spacings by kappa-hat +-50%; each round is centred
    # on the best point so far, and a half-width is quartered unless the
    # round moved the estimate to that axis's first or last point
    a_half = 2.0 * (a_hi - a_lo) / (div - 1)
    k_half = kappa_hat / 2.0
    for _ in range(4):
        a_grid = np.linspace(max(0.0, a_hat - a_half), min(1.0, a_hat + a_half), 17)
        if kappa_fixed is None:
            k_grid = np.linspace(max(kappa_hat - k_half, _KAPPA_GRID_FLOOR), kappa_hat + k_half, 17)
        else:
            k_grid = np.asarray([kappa_fixed])
        ll = lik.grid(len(lik.depths), a_grid, k_grid)
        evaluations += ll.size
        ia, ik = np.unravel_index(int(np.argmax(ll)), ll.shape)
        moved = ll[ia, ik] > best_ll  # only a strictly better point moves the estimate
        if moved:
            a_hat, kappa_hat, best_ll = float(a_grid[ia]), float(k_grid[ik]), float(ll[ia, ik])
        if not (moved and ia in (0, 16)):
            a_half /= 4.0
        if not (moved and ik in (0, 16)):
            k_half /= 4.0
    return a_hat, kappa_hat, best_ll, evaluations, trace


def _refuse_reference(data) -> None:
    """Raise what the estimators raise for data they do not estimate: more
    than 64 stages, or hit counts whose likelihood peaks on the boundary."""
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


def estimate_reference(data, config: MleConfig | None = None) -> EstimateResult:
    """mle_grid_adaptive of one dataset through search_reference."""
    config = config or MleConfig()
    _refuse_reference(data)
    n_stages = len(data.stages)
    kappa_identifiable = any(m > 0 for m in data.depths)
    kappa_fixed = None if kappa_identifiable else math.sqrt(1e-6 * 2.0)
    lik = ReferenceLikelihood(data)
    a_hat, kappa_hat, best_ll, evaluations, trace = search_reference(lik, config, kappa_fixed)

    info = _fisher_prefix(a_hat, max(kappa_hat, _KAPPA_GRID_FLOOR), lik, n_stages)
    beta = beta_reference(info.i11, info.i12, info.i22)
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
    _refuse_reference(data)
    return search_reference(ReferenceLikelihood(data), config, float(kappa_fixed))[0]


def _theta_lnl(data, theta, kappa) -> np.ndarray:
    """Log-likelihood on a (theta, kappa) grid, a = sin^2 theta."""
    a = np.sin(np.clip(np.atleast_1d(theta), 0.0, math.pi / 2)) ** 2
    return log_likelihood_grid(data.depths, data.shots, data.hits, a, np.atleast_1d(kappa))


def polish(data, a: float, kappa: float, d_theta: float = 1e-3, d_kappa: float = 1e-3):
    """(a, kappa, log-likelihood) at the top of the mode that holds (a, kappa).

    A compass search in (theta, kappa), theta = arcsin(sqrt(a)): it moves to
    the best of the eight neighbours at the current steps and halves both
    steps only when none is better, so it follows a tilted ridge.  theta is
    kept in [0, pi/2] and kappa >= 0.
    """
    theta = math.asin(math.sqrt(a))
    value = float(_theta_lnl(data, theta, kappa)[0, 0])
    steps = np.array([-1.0, 0.0, 1.0])
    for _ in range(4000):
        if d_theta < 1e-13 and d_kappa < 1e-13 * max(kappa, 1e-3):
            break
        cand_t = np.clip(theta + d_theta * steps, 0.0, math.pi / 2)
        cand_k = np.maximum(kappa + d_kappa * steps, 0.0)
        local = _theta_lnl(data, cand_t, cand_k)
        j, l = np.unravel_index(int(np.argmax(local)), local.shape)
        if local[j, l] > value:
            theta, kappa, value = float(cand_t[j]), float(cand_k[l]), float(local[j, l])
        else:
            d_theta, d_kappa = d_theta / 2, d_kappa / 2
    return math.sin(theta) ** 2, kappa, value


def brute_force_mle(data, n_theta: int = 2001, n_kappa: int = 201, peaks: int = 6):
    """(a, kappa, log-likelihood) of the global maximum over a in [0, 1] and
    kappa in [0, 50].

    The grid is uniform in theta = arcsin(sqrt(a)) (n_theta points on
    [0, pi/2]), so its a-step is at most its theta-step, and kappa is 0 plus
    n_kappa points log-spaced from 1e-5 to 50 (at kappa m >= 50 an amplified
    stage carries no information).  Each of the `peaks` best grid points
    that beat their eight neighbours is polished, one grid step at a time to
    begin with.  The likelihood repeats in theta with period pi / (2 m + 1)
    at depth m, so the grid is refused (ValueError) unless its a-step is
    below 1 / (32 m_max): on a deep ladder a narrow peak can fall between
    grid points while a wrong mode's shoulder does not.
    """
    m_max = max(data.depths)
    theta_step = (math.pi / 2) / (n_theta - 1)
    if theta_step * 32 * max(m_max, 1) > 1.0:
        raise ValueError(f"a theta-step of {theta_step:.3g} is too coarse for depth {m_max}")
    thetas = np.linspace(0.0, math.pi / 2, n_theta)
    kappas = np.concatenate([[0.0], np.geomspace(1e-5, 50.0, n_kappa)])
    ll = _theta_lnl(data, thetas, kappas)
    padded = np.pad(ll, 1, constant_values=-np.inf)
    neighbours = [padded[1 + di : 1 + di + ll.shape[0], 1 + dk : 1 + dk + ll.shape[1]]
                  for di in (-1, 0, 1) for dk in (-1, 0, 1) if (di, dk) != (0, 0)]
    is_peak = np.all([ll >= nb for nb in neighbours], axis=0)
    order = np.argsort(np.where(is_peak, ll, -np.inf), axis=None)[::-1][:peaks]
    best = (0.0, 0.0, -math.inf)
    for flat in order:
        i, k = np.unravel_index(flat, ll.shape)
        if not is_peak[i, k]:
            break
        d_kappa = max(kappas[min(k + 1, n_kappa)] - kappas[k], 1e-6)
        found = polish(data, math.sin(thetas[i]) ** 2, float(kappas[k]), theta_step, d_kappa)
        if found[2] > best[2]:
            best = found
    return best


def max_grover_depth_reference(kappa: float) -> int:
    """Largest integer m-bar with (2 m-bar + 1)(1 - e^{-kappa}) <= 1, one
    Python integer step at a time (it does not return below kappa ~ 1e-16)."""
    decay = -math.expm1(-kappa)
    cand = int(math.floor((1.0 / decay - 1.0) / 2.0))
    while (2 * (cand + 1) + 1) * decay <= 1.0:
        cand += 1
    while cand > 0 and (2 * cand + 1) * decay > 1.0:
        cand -= 1
    return cand


def saturated_schedule(kappa: float, shots: int) -> Schedule:
    """Maximal EIS schedule with depths <= m-bar(kappa): the depths 0, 1, 2,
    4, ... below m-bar, with a final stage at m-bar itself."""
    mbar = max_grover_depth_reference(kappa)
    return Schedule(tuple((m, shots) for m in capped_depths(mbar)))


def saturated_error_reference(a: float, kappa: float, shots: int) -> float:
    """eps_min of one saturated EIS schedule, built and bounded on its own."""
    info = fisher_matrix(amplitude_point(a, kappa), saturated_schedule(kappa, shots))
    return errors_reference(info.i11, info.i12, info.i22)[0]


def kappa_scan_reference(a: float, target_eps: float, shots: int):
    """(grid, eps_min at each grid point, kappa-bar) of the per-point scan:
    25 kappa points per decade from 1e-8 to 2, then log-bisection of the
    last passing bracket to a ratio of 1.005.  kappa-bar is None when no grid
    point meets the target and inf when the last one (kappa = 2) does."""
    grid = np.geomspace(1e-8, 2.0, int(math.log10(2.0 / 1e-8) * 25) + 1)
    errors = [saturated_error_reference(a, float(k), shots) for k in grid]
    passing = [k for k, eps in zip(grid, errors) if eps <= target_eps]
    if not passing:
        return grid, errors, None
    lo = max(passing)
    idx = int(np.searchsorted(grid, lo))
    if idx + 1 == len(grid):
        return grid, errors, math.inf
    hi = float(grid[idx + 1])
    while hi / lo > 1.005:
        mid = math.sqrt(lo * hi)
        if saturated_error_reference(a, mid, shots) <= target_eps:
            lo = mid
        else:
            hi = mid
    return grid, errors, float(lo)


def kappa_bar_sequential_reference(a: float, target_eps: float, shots: int) -> float | None:
    """required_noise_for_error's kappa-bar, bisecting the scan's last passing
    bracket with one lone-kappa _saturated_errors call per midpoint; None
    when no scan point meets the target and inf when the last one does."""
    errors = _saturated_errors(a, _KAPPA_SCAN, shots)
    passing = [i for i, eps in enumerate(errors) if eps <= target_eps]
    if not passing:
        return None
    idx = passing[-1]
    if idx + 1 == len(errors):
        return math.inf
    lo, hi = float(_KAPPA_SCAN[idx]), float(_KAPPA_SCAN[idx + 1])
    while hi / lo > 1.005:
        mid = math.sqrt(lo * hi)
        if _saturated_errors(a, [mid], shots)[0] <= target_eps:
            lo = mid
        else:
            hi = mid
    return lo


def gate_error_budget_reference(kappa_bar: float, N_s: int, N_d: int, ratio: float) -> float:
    """hwspec._gate_error_budget as written with a fixed count of 200
    bisection steps, far more than float64 can halve a bracket below 1."""

    def decay(e: float) -> float:
        return kappa_from_gate_errors([(e / ratio, N_s), (e, N_d)])

    lo, hi = 0.0, 0.999999 * min(1.0, ratio)
    if decay(hi) < kappa_bar:
        raise DomainError(
            f"kappa_bar={kappa_bar} exceeds kappa={decay(hi)}, the largest "
            "a gate-error budget of at most 0.999999 per gate reaches"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if decay(mid) < kappa_bar:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
