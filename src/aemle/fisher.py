"""Fisher information for (a, kappa), Cramer-Rao bounds, and anomaly analysis.

For a stage at depth m with N shots the hit probability is
P = 1/2 - 1/2 e^{-kappa m} cos(2(2m+1) theta_a).  The binomial Fisher matrix
summed over stages has the closed form (common denominator
e^{2 kappa m} - cos^2(2(2m+1) theta_a), written here as
expm1(2 kappa m) + sin^2(...) to avoid cancellation at small kappa):

    i11 = sum N (2m+1)^2 / sin^2(2 theta_a) * 4 sin^2(2(2m+1) theta_a) / denom
    i12 = sum N m (2m+1) / sin(2 theta_a) * sin(4(2m+1) theta_a) / denom
    i22 = sum N m^2 cos^2(2(2m+1) theta_a) / denom

The a-error bound is eps_min = sqrt((I^{-1})_{11}); the anomality
beta = i12^2/(i11 i22) measures how close the matrix is to singular, which is
what makes certain target amplitudes hard to estimate jointly with the noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScheduleError,
    DegenerateTermError,
    DomainError,
    NotAchievableError,
    SingularPointError,
)
from .model import (
    AmplitudePoint,
    Schedule,
    ScheduleKind,
    amplitude_point,
    capped_depths,
    explicit_schedule,
)

# Beta above this value marks a target amplitude as anomalous.
ANOMALY_THRESHOLD = 0.9

# Relative determinant tolerance below which the 2x2 inverse is not trusted.
_DET_RTOL = 1e-12

# Denominator guard: only reachable at kappa = 0 exactly on a sine zero.
_DENOM_FLOOR = 1e-300

# Scan range for required_noise_for_error.
_KAPPA_SCAN_LO = 1e-8
_KAPPA_SCAN_HI = 2.0
_KAPPA_SCAN_PER_DECADE = 25


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric 2x2 information matrix for (a, kappa)."""

    i11: float
    i12: float
    i22: float

    @property
    def det(self) -> float:
        return self.i11 * self.i22 - self.i12 * self.i12

    @property
    def beta(self) -> float | None:
        """Anomality min(i12^2 / (i11 i22), 1); None unless i11, i22 > 0."""
        if self.i22 <= 0.0 or self.i11 <= 0.0:
            return None
        return min(self.i12 * self.i12 / (self.i11 * self.i22), 1.0)

    def errors(self) -> tuple[float, float | None]:
        """Cramer-Rao errors (eps_a, eps_kappa), the square roots of the
        inverse's diagonal.

        The inverse is not trusted when kappa carries no information (i22 = 0)
        or the determinant is below _DET_RTOL * i11 * i22; eps_a then falls
        back to the one-parameter bound 1/sqrt(i11) (infinite at i11 = 0) and
        eps_kappa is None.
        """
        det = self.det
        if self.i22 > 0.0 and det > _DET_RTOL * self.i11 * self.i22:
            return math.sqrt(self.i22 / det), math.sqrt(self.i11 / det)
        if self.i11 <= 0.0:
            return math.inf, None
        return 1.0 / math.sqrt(self.i11), None


@dataclass(frozen=True)
class CrBoundResult:
    """Lower bound on the RMSE of a-hat, with degeneracy flags."""

    epsilon_min: float
    identifiable: bool
    fallback_used: bool


def _element_sums(
    a: np.ndarray, kappa: np.ndarray | float, depths: np.ndarray, shots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Fisher sums for an array of amplitudes.

    Shapes: a is (K,), kappa is one noise level for all of them or (K,), one
    per amplitude, depths/shots are (S,); returns three (K,) arrays.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.min() <= 0.0 or a.max() >= 1.0:
        raise SingularPointError("Fisher information is singular at a in {0, 1}")
    theta = np.arcsin(np.sqrt(a))[:, None]
    kappa = np.reshape(np.asarray(kappa, dtype=float), (-1, 1))
    m = np.asarray(depths, dtype=float)[None, :]
    n = np.asarray(shots, dtype=float)[None, :]
    odd = 2.0 * m + 1.0
    x = 2.0 * odd * theta
    sin2_x = np.sin(x) ** 2
    with np.errstate(over="ignore"):
        denom = np.expm1(2.0 * kappa * m) + sin2_x
    if denom.min() < _DENOM_FLOOR:
        raise DegenerateTermError(
            "Fisher summand denominator underflowed (kappa = 0 on a sine zero)"
        )
    # sin(2 theta_a) = 2 sqrt(a(1-a)) exactly; avoids rounding near the ends.
    one_minus_a = 1.0 - a
    sin2_2t = (4.0 * a * one_minus_a)[:, None]
    sin_2t = (2.0 * np.sqrt(a * one_minus_a))[:, None]
    with np.errstate(invalid="ignore"):
        i11 = (n * odd**2 / sin2_2t * 4.0 * sin2_x / denom).sum(axis=1)
        i12 = (n * m * odd / sin_2t * np.sin(2.0 * x) / denom).sum(axis=1)
        i22 = (n * m**2 * np.cos(x) ** 2 / denom).sum(axis=1)
    return i11, i12, i22


def _fisher_at(point: AmplitudePoint, depths, shots) -> FisherMatrix:
    """Fisher matrix at one point for stage depth and shot sequences."""
    i11, i12, i22 = _element_sums(np.asarray([point.a]), point.kappa, depths, shots)
    return FisherMatrix(i11=float(i11[0]), i12=float(i12[0]), i22=float(i22[0]))


def fisher_matrix(point: AmplitudePoint, schedule: Schedule) -> FisherMatrix:
    """Closed-form Fisher matrix for the two-parameter model at this point."""
    return _fisher_at(point, schedule.depths, schedule.shots)


def cr_lower_bound(point: AmplitudePoint, schedule: Schedule) -> CrBoundResult:
    """Cramer-Rao bound on the RMSE of a-hat.

    Uses sqrt((I^{-1})_{11}) = sqrt(i22/det) when the matrix is invertible;
    falls back to the one-parameter bound 1/sqrt(i11) when kappa is
    unidentifiable (classical schedules) or the determinant is negligible.
    """
    info = fisher_matrix(point, schedule)
    if info.i11 <= 0.0:
        raise DegenerateScheduleError("schedule carries no information about a")
    eps_a, eps_kappa = info.errors()
    identifiable = eps_kappa is not None
    return CrBoundResult(
        epsilon_min=eps_a, identifiable=identifiable, fallback_used=not identifiable
    )


def saturation_floor(point: AmplitudePoint, schedule: Schedule) -> float:
    """Noise-induced floor on eps_min: the bound chain eps_min >= this value.

    Sum of 4 N (2m+1)^2 / sin^2(2 theta_a) * e^{-2 kappa m} / (1 - e^{-2 kappa m})
    over stages with m > 0 (the ratio is undefined at m = 0), inverted and
    square-rooted.  Defined only under noise.
    """
    if point.kappa <= 0.0:
        raise DomainError("saturation floor is defined only for kappa > 0")
    if not (0.0 < point.a < 1.0):
        raise SingularPointError("Fisher information is singular at a in {0, 1}")
    m = np.asarray(schedule.depths, dtype=float)
    n = np.asarray(schedule.shots, dtype=float)
    keep = m > 0
    if not np.any(keep):
        raise DegenerateScheduleError("saturation floor needs at least one stage with m > 0")
    m, n = m[keep], n[keep]
    sin2_2t = 4.0 * point.a * (1.0 - point.a)
    decay = np.exp(-2.0 * point.kappa * m)
    terms = 4.0 * n * (2.0 * m + 1.0) ** 2 / sin2_2t * decay / (1.0 - decay)
    return 1.0 / math.sqrt(float(np.sum(terms)))


def max_grover_depth(kappa: float) -> int:
    """Largest integer m-bar with (2 m-bar + 1)(1 - e^{-kappa}) <= 1."""
    if kappa <= 0.0 or not math.isfinite(kappa):
        raise DomainError("maximum depth is unbounded at kappa <= 0")
    decay = -math.expm1(-kappa)  # 1 - e^{-kappa}, accurate for small kappa
    cand = int(math.floor((1.0 / decay - 1.0) / 2.0))
    # exact integer semantics regardless of rounding in the division
    while (2 * (cand + 1) + 1) * decay <= 1.0:
        cand += 1
    while cand > 0 and (2 * cand + 1) * decay > 1.0:
        cand -= 1
    return cand


def anomality(point: AmplitudePoint, schedule: Schedule) -> float:
    """beta = i12^2 / (i11 i22) in [0, 1]; beta = 1 iff the matrix is singular."""
    beta = fisher_matrix(point, schedule).beta
    if beta is None:
        raise DegenerateScheduleError(
            "anomality needs at least one stage with m > 0 and nonzero shots"
        )
    return beta


def nuisance_inflation(point: AmplitudePoint, schedule: Schedule, c: float) -> float:
    """Mean-squared a-error when kappa-hat has squared error c times its CR bound.

    (I^{-1})_{11} * (1 + (c - 1) beta): c = 1 reproduces eps_min^2, c = 0
    (kappa known exactly) gives 1/i11.
    """
    if c < 0.0:
        raise DomainError(f"c={c} must be >= 0")
    info = fisher_matrix(point, schedule)
    if info.beta is None:
        raise DegenerateScheduleError(
            "nuisance inflation needs at least one stage with m > 0 and nonzero shots"
        )
    det = info.det
    if det <= 0.0:
        raise DegenerateScheduleError("Fisher matrix is singular; inflation undefined")
    # det > 0 keeps beta below 1, so the clamp in FisherMatrix.beta is inert
    return info.i22 / det * (1.0 + (c - 1.0) * info.beta)


def saturated_schedule(
    kappa: float, shots: int, kind: ScheduleKind | str = ScheduleKind.EIS, r: float | None = None
) -> Schedule:
    """Maximal schedule with depths <= m-bar(kappa): the usual depth ladder of
    the kind, truncated below m-bar, with a final stage at m-bar itself."""
    mbar = max_grover_depth(kappa)
    return explicit_schedule((m, shots) for m in capped_depths(kind, mbar, r))


def required_noise_for_error(a: float, target_eps: float, shots: int) -> float:
    """Largest noise level whose saturated-schedule error still meets target_eps.

    For each kappa on a log grid from 1e-8 to 2 the EIS saturated schedule
    (depths 0, 1, 2, 4, ... below m-bar, then m-bar, `shots` shots each) is
    built and eps_min evaluated on it; the largest passing kappa is refined
    by log-bisection to two significant digits.
    """
    if not (0.0 < target_eps < 0.5):
        raise DomainError(f"target_eps={target_eps} outside (0, 0.5)")
    if shots <= 0:
        raise DomainError(f"shots={shots} must be positive")

    def error_at(kappa: float) -> float:
        sched = saturated_schedule(kappa, shots)
        return cr_lower_bound(amplitude_point(a, kappa), sched).epsilon_min

    decades = math.log10(_KAPPA_SCAN_HI / _KAPPA_SCAN_LO)
    count = int(decades * _KAPPA_SCAN_PER_DECADE) + 1
    grid = np.geomspace(_KAPPA_SCAN_LO, _KAPPA_SCAN_HI, count)
    passing = [k for k in grid if error_at(float(k)) <= target_eps]
    if not passing:
        raise NotAchievableError(
            f"target error {target_eps} not reachable even at kappa = {_KAPPA_SCAN_LO}"
        )
    lo = max(passing)
    idx = int(np.searchsorted(grid, lo))
    hi = float(grid[idx + 1]) if idx + 1 < len(grid) else _KAPPA_SCAN_HI * 1.1
    while hi / lo > 1.005:  # two significant digits
        mid = math.sqrt(lo * hi)
        if error_at(mid) <= target_eps:
            lo = mid
        else:
            hi = mid
    return float(lo)


def classical_bound(a: float, n_queries: int) -> float:
    """Classical sampling error sqrt(a(1-a)/N_q)."""
    if not (0.0 < a < 1.0):
        raise SingularPointError("classical bound undefined at a in {0, 1}")
    return math.sqrt(a * (1.0 - a) / n_queries)
