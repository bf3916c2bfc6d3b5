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
from .model import _MAX_COUNT, AmplitudePoint, Schedule, _integral, capped_depths

# Beta above this value marks a target amplitude as anomalous.
ANOMALY_THRESHOLD = 0.9

# Relative determinant tolerance below which the 2x2 inverse is not trusted.
_DET_RTOL = 1e-12

# Columns up to which _bound_rule runs in Python floats.  numpy's masked
# ufuncs cost about 16 us a call at any small width; the float loop costs
# about 3 us plus 0.6 us a column, so it is faster up to about 24 columns
# (timeit, 2-vCPU x86-64 VM).  16 keeps clear of that crossover.
_SCALAR_COLUMNS = 16

# _bound_rule's (eps_a, eps_kappa, beta) column before any information is seen.
_UNKNOWN = np.asarray([[math.inf], [math.nan], [math.nan]])

# Smallest Fisher summand denominator trusted; at m = 0 it is sin^2(2 theta_a) ~ 4a.
_DENOM_FLOOR = 1e-300

# Noise levels scanned by required_noise_for_error: 1e-8 to 2, 25 per decade.
_KAPPA_SCAN = np.geomspace(1e-8, 2.0, 208)

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
        """_bound_rule's anomality beta, None unless i11, i22 > 0."""
        beta = _bound_rule([self.i11], [self.i12], [self.i22])[2].item()
        return None if math.isnan(beta) else beta

    def errors(self) -> tuple[float, float | None]:
        """_bound_rule's (eps_a, eps_kappa), eps_kappa None if not trusted."""
        eps_a, eps_kappa, _ = _bound_rule([self.i11], [self.i12], [self.i22])[:, 0].tolist()
        return eps_a, None if math.isnan(eps_kappa) else eps_kappa


def _bound_rule(i11, i12, i22) -> np.ndarray:
    """Rows eps_a = sqrt(i22/det), eps_kappa = sqrt(i11/det) and beta =
    min(i12^2 / (i11 i22), 1) of a (3, n) array, for (n,) Fisher sums.
    Where kappa carries no information (i22 = 0), i11 i22 overflows or
    det <= _DET_RTOL i11 i22 the inverse is not trusted: eps_a falls back to
    1/sqrt(i11) (inf at i11 <= 0), eps_kappa is NaN.  beta is NaN unless
    i11, i22 > 0.

    Up to _SCALAR_COLUMNS columns each is worked out in Python floats
    (_bound_columns), past it by masked ufuncs over all columns.  Both paths
    take the same correctly rounded operations in the same order, so they
    agree bit for bit with each other and with every numpy loop.
    """
    i11, i12, i22 = (np.asarray(x, dtype=float) for x in (i11, i12, i22))
    if i11.size <= _SCALAR_COLUMNS:
        return _bound_columns(i11.tolist(), i12.tolist(), i22.tolist())
    with np.errstate(all="ignore"):  # an overflowed i11 i22 is not trusted
        diag, off = i11 * i22, i12 * i12
        det = diag - off
        kappa_informed = i22 > 0.0
        trusted = kappa_informed & (det > _DET_RTOL * i11 * i22) & (diag < math.inf)
        informed = ~(i11 <= 0.0)  # a NaN i11 gives NaN, as 1/sqrt(NaN) does
        out = _UNKNOWN.repeat(len(det), axis=1)
        eps_a, eps_kappa, beta = out[0], out[1], out[2]
        np.sqrt(i11, out=eps_a, where=informed)
        np.divide(1.0, eps_a, out=eps_a, where=informed)
        np.divide(i22, det, out=eps_a, where=trusted)
        np.divide(i11, det, out=eps_kappa, where=trusted)
        np.sqrt(out[:2], out=out[:2], where=trusted)
        np.divide(off, diag, out=beta, where=informed & kappa_informed)
        np.minimum(beta, 1.0, out=beta)
    return out


def _bound_columns(i11s: list, i12s: list, i22s: list) -> np.ndarray:
    """_bound_rule's vector path, one column at a time in Python floats.

    A trusted det is positive (det > _DET_RTOL i11 i22 >= 0 unless i11 < 0,
    and then det <= i11 i22 <= _DET_RTOL i11 i22), so only beta can divide
    by zero, at an underflowed i11 i22 = +0: there off * inf gives what
    numpy's off / +0 gives, inf or (off = 0) the same NaN."""
    eps_a, eps_kappa, beta = [], [], []
    for i11, i12, i22 in zip(i11s, i12s, i22s):
        diag, off = i11 * i22, i12 * i12
        det = diag - off
        informed = not i11 <= 0.0
        if i22 > 0.0 and det > _DET_RTOL * i11 * i22 and diag < math.inf:
            eps_a.append(math.sqrt(i22 / det))
            eps_kappa.append(math.sqrt(i11 / det))
        else:
            eps_a.append(1.0 / math.sqrt(i11) if informed else math.inf)
            eps_kappa.append(math.nan)
        if informed and i22 > 0.0:
            beta.append(min(off / diag if diag else off * math.inf, 1.0))
        else:
            beta.append(math.nan)
    return np.array([eps_a, eps_kappa, beta])


@dataclass(frozen=True)
class CrBoundResult:
    """Lower bound on the RMSE of a-hat, with degeneracy flags."""

    epsilon_min: float
    identifiable: bool


def _stage_weights(depths, shots) -> tuple[np.ndarray, ...]:
    """The schedule-only factors of the Fisher summands, for _element_terms:
    m, 2(2m+1), N (2m+1)^2, N m (2m+1) and N m^2, each 2-D, stages last.

    depths/shots are (S,) or (K, S), row k the schedule of row k; slicing
    every factor to its first n stages gives the factors of that prefix.
    """
    m = np.atleast_2d(np.asarray(depths, dtype=float))
    n = np.atleast_2d(np.asarray(shots, dtype=float))
    odd = 2.0 * m + 1.0
    return m, 2.0 * odd, n * odd**2, n * m * odd, n * m**2


def _element_terms(
    a: np.ndarray, kappa: np.ndarray | float, weights: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Per-stage Fisher summands: one C-contiguous (3, K, S) array, i11's,
    i12's and i22's, whose sums over the last axis are _element_sums.

    Shapes: a is (K,), or (1,) for one amplitude in every row; kappa is one
    noise level for all rows or (K,), one per row; weights are
    _stage_weights of one schedule for all rows or of K schedules.  Each
    weight is the leading factor of its summand's left-to-right product,
    which is computed in place in its slot, the division by denom last.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.size == 0:
        raise DomainError("Fisher sums need at least one amplitude")
    if a.min() <= 0.0 or a.max() >= 1.0:
        raise SingularPointError("Fisher information is singular at a in {0, 1}")
    m, freq, w11, w12, w22 = weights
    theta = np.arcsin(np.sqrt(a))[:, None]
    kappa = np.asarray(kappa, dtype=float).reshape(-1, 1)
    x = freq * theta
    sin2_x = np.sin(x) ** 2
    # sin(2 theta_a) = 2 sqrt(a(1-a)) exactly; avoids rounding near the ends.
    one_minus_a = 1.0 - a
    sin2_2t = (4.0 * a * one_minus_a)[:, None]
    sin_2t = (2.0 * np.sqrt(a * one_minus_a))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.expm1(2.0 * (kappa * m)) + sin2_x
        if denom.min() < _DENOM_FLOOR:
            cell = tuple(np.argwhere(denom < _DENOM_FLOOR)[0])  # the first one
            at = [np.broadcast_to(v, denom.shape)[cell].item() for v in (a[:, None], kappa, m)]
            raise DegenerateTermError("Fisher summand denominator is below {} at a={!r}, "
                                      "kappa={!r}, m={:.0f}".format(_DENOM_FLOOR, *at))
        terms = np.empty((3, *denom.shape))
        t11, t12, t22 = terms
        np.divide(w11, sin2_2t, out=t11)  # w11 / sin2_2t * 4 sin2_x
        t11 *= 4.0
        t11 *= sin2_x
        np.sin(np.multiply(2.0, x, out=t22), out=t22)  # sin(2x), in t22's slot
        np.divide(w12, sin_2t, out=t12)  # w12 / sin_2t * sin(2x)
        t12 *= t22
        np.cos(x, out=t22)  # w22 * cos(x)**2
        np.square(t22, out=t22)
        t22 *= w22
        terms /= denom
    return terms


def _element_sums(
    a: np.ndarray, kappa: np.ndarray | float, weights: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Vectorized Fisher sums (i11, i12, i22): one (3, K) array, the row
    sums of _element_terms, row k summed as a lone (S,) call sums it."""
    return _element_terms(a, kappa, weights).sum(axis=2)


def _point_sums(point: AmplitudePoint, schedule: Schedule) -> np.ndarray:
    """The (3, 1) Fisher sums of a schedule at one point."""
    weights = _stage_weights(schedule.depths, schedule.shots)
    return _element_sums(np.asarray([point.a]), point.kappa, weights)


def fisher_matrix(point: AmplitudePoint, schedule: Schedule) -> FisherMatrix:
    """Closed-form Fisher matrix for the two-parameter model at this point."""
    return FisherMatrix(*_point_sums(point, schedule)[:, 0].tolist())


def _bounds(sums: np.ndarray, a: np.ndarray | float) -> np.ndarray:
    """_bound_rule of (3, n) Fisher sums at amplitude a (one, or one per
    column), refused unless each i11 is positive and finite (1/sqrt(inf) is 0)."""
    bad = np.flatnonzero(~((sums[0] > 0.0) & (sums[0] < math.inf)))
    if bad.size:
        why = "overflows a double" if sums[0, bad[0]] > 0.0 else "is zero"
        at = np.broadcast_to(a, sums[0].shape)[bad[0]].item()
        raise DegenerateScheduleError(f"the schedule's information about a {why} at a={at!r}")
    return _bound_rule(*sums)


def cr_lower_bound(point: AmplitudePoint, schedule: Schedule) -> CrBoundResult:
    """Cramer-Rao bound on the RMSE of a-hat by _bounds: sqrt(i22/det) where
    the inverse is trusted, else the one-parameter bound 1/sqrt(i11)."""
    eps_a, eps_kappa, _ = _bounds(_point_sums(point, schedule), point.a)[:, 0].tolist()
    return CrBoundResult(epsilon_min=eps_a, identifiable=not math.isnan(eps_kappa))


def _max_grover_depths(kappas) -> np.ndarray:
    """max_grover_depth of each kappa, as an int64 array; the decay is
    math.expm1's, as numpy's expm1 rounds differently on each SIMD path."""
    kappas = np.asarray(kappas, dtype=float).reshape(-1)
    valid = (kappas > 0.0) & (kappas < math.inf)
    if not valid.all():
        raise DomainError(f"kappa={float(kappas[~valid][0])} must be finite and > 0")
    decay = np.asarray([-math.expm1(-k) for k in kappas.tolist()])  # 1 - e^{-kappa}
    with np.errstate(over="ignore"):
        cand = np.floor((1.0 / decay - 1.0) / 2.0)
    # past _MAX_COUNT (2m+1)(1 - e^{-kappa}) no longer tells m from m + 1, so a
    # kappa below about 1.1e-16 is refused; the smallest has the deepest m-bar
    if not cand.max() <= _MAX_COUNT:
        raise DomainError(f"kappa={float(kappas.min())} is too small: "
                          "its maximum depth passes 2**52")
    # The floor never overshoots: below 2**53, fl(1/decay) - 1 is exact, so
    # (2 cand + 1) decay <= 1 + 2**-53 rounds to at most 1.  It steps up only.
    while (up := (2.0 * (cand + 1.0) + 1.0) * decay <= 1.0).any():
        cand += up
    return cand.astype(np.int64)


def max_grover_depth(kappa: float) -> int:
    """Largest integer m-bar with (2 m-bar + 1)(1 - e^{-kappa}) <= 1."""
    return int(_max_grover_depths([kappa])[0])


def anomality(point: AmplitudePoint, schedule: Schedule) -> float:
    """beta = i12^2 / (i11 i22) in [0, 1]; beta = 1 iff the matrix is singular."""
    beta = _bounds(_point_sums(point, schedule), point.a)[2].item()
    if math.isnan(beta):
        raise DegenerateScheduleError("anomality needs a stage with m > 0 and nonzero shots")
    return beta


def nuisance_inflation(point: AmplitudePoint, schedule: Schedule, c: float) -> float:
    """Mean-squared a-error when kappa-hat has squared error c times its CR bound.

    (I^{-1})_{11} * (1 + (c - 1) beta): c = 1 reproduces eps_min^2, c = 0
    (kappa known exactly) gives 1/i11.  The inverse is _bounds': where it is
    not trusted (no eps_kappa) the inflation is undefined.
    """
    if c < 0.0:
        raise DomainError(f"c={c} must be >= 0")
    eps_a, eps_kappa, beta = _bounds(_point_sums(point, schedule), point.a)[:, 0].tolist()
    if math.isnan(eps_kappa):
        raise DegenerateScheduleError("kappa is not identifiable: the inflation is undefined")
    return eps_a * eps_a * (1.0 + (c - 1.0) * beta)


def _saturated_errors(a: float, kappas: np.ndarray | list[float], shots: int) -> list[float]:
    """cr_lower_bound's eps_a at each kappa on its EIS saturated ladder.

    One _element_terms pass covers every (kappa, stage) cell, ladder after
    ladder, so a run of equal-length ladders sums as one (3, rows, L)
    block, each ladder as a lone call sums it; zero-shot padding or
    np.add.reduceat would change that order, and the bits."""
    mbars = _max_grover_depths(kappas)
    top = np.asarray(capped_depths(int(mbars.max())), dtype=float)
    lengths = np.searchsorted(top, mbars) + 1  # the depths below m-bar, then m-bar
    offsets = np.concatenate(([0], np.cumsum(lengths)))  # ladder k is cells offsets[k:k+2]
    depths = top[np.arange(offsets[-1]) - np.repeat(offsets[:-1], lengths)]
    depths[offsets[1:] - 1] = mbars
    kappa = np.repeat(np.asarray(kappas, dtype=float), lengths)
    weights = _stage_weights(depths[:, None], float(shots))
    cells = _element_terms(np.asarray([float(a)]), kappa, weights).reshape(3, -1)
    sums = np.empty((3, lengths.size))
    runs = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), lengths.size]
    for i, j in zip(runs, runs[1:]):  # run starts, then K
        cells[:, offsets[i]:offsets[j]].reshape(3, j - i, -1).sum(axis=2, out=sums[:, i:j])
    return _bounds(sums, a)[0].tolist()


def required_noise_for_error(a: float, target_eps: float, shots: int) -> float:
    """Largest noise level whose saturated-schedule error still meets target_eps.

    eps_min on the EIS saturated schedule (depths 0, 1, 2, 4, ... below m-bar,
    then m-bar, `shots` shots each) is evaluated at every kappa of a log grid
    from 1e-8 to 2 in one elementwise pass; the largest passing kappa is refined
    by log-bisection to two significant digits, on the errors of a second
    pass over every midpoint the bisection can visit.  If kappa = 2 passes,
    the unamplified stage meets the target: kappa-bar is unbounded (DomainError).
    """
    if not (0.0 < target_eps < 0.5):
        raise DomainError(f"target_eps={target_eps} outside (0, 0.5)")
    shots = _integral(shots, "shots", 1)
    passing = np.flatnonzero(np.asarray(_saturated_errors(a, _KAPPA_SCAN, shots)) <= target_eps)
    if passing.size == 0:
        raise NotAchievableError(
            f"target error {target_eps} not reachable even at kappa = {float(_KAPPA_SCAN[0])}"
        )
    if passing[-1] == _KAPPA_SCAN.size - 1:
        raise DomainError(f"target error {target_eps} is met without amplification; "
                          "kappa-bar is unbounded")
    lo, hi = float(_KAPPA_SCAN[passing[-1]]), float(_KAPPA_SCAN[passing[-1] + 1])
    mids = _bisection_midpoints(lo, hi)
    passes = dict(zip(mids, np.asarray(_saturated_errors(a, mids, shots)) <= target_eps))
    while hi / lo > 1.005:  # two significant digits
        mid = math.sqrt(lo * hi)
        if passes[mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _bisection_midpoints(lo: float, hi: float) -> list[float]:
    """Every midpoint the log-bisection of [lo, hi] can visit, in order."""
    if hi / lo <= 1.005:
        return []
    mid = math.sqrt(lo * hi)
    return [*_bisection_midpoints(lo, mid), mid, *_bisection_midpoints(mid, hi)]


def classical_bound(a: float, n_queries: int) -> float:
    """Classical sampling error sqrt(a(1-a)/N_q)."""
    if not (0.0 < a < 1.0):
        raise SingularPointError("classical bound undefined at a in {0, 1}")
    return math.sqrt(a * (1.0 - a) / n_queries)
