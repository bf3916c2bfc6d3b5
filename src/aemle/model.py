"""Core parameterization, measurement schedules, and the forward probability model.

The unknown is the pair (a, kappa): a target amplitude a = sin^2(theta_a) and a
depolarizing noise level kappa = -ln p, where p is the survival probability per
amplification step.  A schedule lists the amplification depths m_k and shot
counts N_k of the staged experiment; the forward model gives the probability of
observing the good state after m amplifications (kappa = 0 is the noiseless
case).
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .errors import ConfigError, DomainError

# Nudge added before flooring r**(k-1) so 2.9999999 floors to 3, not 2.
_FLOOR_NUDGE = 1e-9

# Largest count any input may hold: a depth, a shot, stage, trial, sample,
# grid-point or gate count, and the deepest m-bar max_grover_depth returns.
# Under it an islice bound, a conversion to float and the Fisher weights
# N (2m+1)^2 all hold; far larger counts overflow them.
_MAX_COUNT = 2**52

# Largest M make_schedule builds: the depth ceiling does not bound lis or classical.
_MAX_M = 1024


def _integral(value: object, name: str, lo: int = 0, hi: float = _MAX_COUNT) -> int:
    """value as an int if it is integral (2, 2.0 or a numpy int, never a
    bool) and in [lo, hi], else ConfigError naming the value and the range."""
    if type(value) is int and lo <= value <= hi:  # the common case, ahead of the ABC check
        return value
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()) and lo <= int(value) <= hi:
        return int(value)
    end = "2**52]" if hi == _MAX_COUNT else "inf)" if hi == math.inf else f"{hi}]"
    raise ConfigError(f"{name}={value!r} must be an integer in [{lo}, {end}")


class ScheduleKind(Enum):
    CLASSICAL = "classical"
    LIS = "lis"
    EIS = "eis"
    POWER_BASE = "powerbase"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class AmplitudePoint:
    """The parameter pair (a, kappa) with derived theta_a and p = e^{-kappa}.

    kappa is the stored noise parameter; p is derived so there is a single
    source of truth for the estimation variable.
    """

    a: float
    kappa: float
    theta: float = field(init=False)
    p: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.a <= 1.0) or not math.isfinite(self.a):
            raise DomainError(f"amplitude a={self.a} outside [0, 1]")
        if self.kappa < 0.0 or not math.isfinite(self.kappa):
            raise DomainError(f"noise level kappa={self.kappa} must be finite and >= 0")
        # Clamp sqrt(a) against rounding so a=1 cannot produce arcsin(>1) = NaN.
        root = min(1.0, math.sqrt(self.a))
        object.__setattr__(self, "theta", math.asin(root))
        object.__setattr__(self, "p", math.exp(-self.kappa))


def amplitude_point(a: float, kappa: float = 0.0) -> AmplitudePoint:
    """Construct an AmplitudePoint, validating a in [0,1] and kappa >= 0."""
    return AmplitudePoint(a=float(a), kappa=float(kappa))


@dataclass(frozen=True)
class Schedule:
    """Ordered stages (m_k, N_k) with the kind that generated them.

    Depths and shots are integers in [0, 2**52] (2.0 is stored as 2), and
    depths are non-decreasing.  Explicit schedules may carry zero-shot
    stages (useful for information-content comparisons); generated kinds
    always have positive shots.
    """

    stages: tuple[tuple[int, int], ...]
    kind: ScheduleKind = ScheduleKind.EXPLICIT
    r: float | None = None  # power base, only for POWER_BASE kind

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigError("schedule must have at least one stage")
        stages = tuple(
            (_integral(m, "depth m"), _integral(n, "shot count N")) for m, n in self.stages
        )
        object.__setattr__(self, "stages", stages)
        prev = -1
        for m, _ in stages:
            if m < prev:
                raise ConfigError("stage depths must be non-decreasing")
            prev = m
        if self.kind is ScheduleKind.CLASSICAL and any(m != 0 for m, _ in self.stages):
            raise ConfigError("classical schedule requires all depths zero")
        if self.kind is ScheduleKind.POWER_BASE and not 1.0 < (self.r or 0.0) < math.inf:
            raise ConfigError("power-base schedule requires a finite r > 1")

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.stages)

    @property
    def shots(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.stages)

    def __len__(self) -> int:
        return len(self.stages)


def _parse_kind(kind: ScheduleKind | str) -> ScheduleKind:
    if isinstance(kind, str):
        try:
            return ScheduleKind(kind.lower())
        except ValueError as exc:
            raise ConfigError(f"unknown schedule kind {kind!r}") from exc
    return kind


def _ladder(kind: ScheduleKind, r: float | None) -> Iterator[int]:
    """Depths m_0, m_1, ... of a generated kind, without end.

    classical: m_k = 0; lis: m_k = k; eis: m_0 = 0, m_k = 2^{k-1};
    powerbase: m_0 = 0, m_k = floor(r^{k-1}), an exact integer power when r
    is integral (so eis is the r = 2 ladder).  The explicit kind and an r
    outside (1, inf) raise ConfigError at the first depth, and an eis or
    powerbase ladder at its first depth past _MAX_COUNT, before it builds
    a larger one.
    """
    if kind is ScheduleKind.EXPLICIT:
        raise ConfigError("explicit schedules are built from stage lists, not make_schedule")
    if kind is ScheduleKind.POWER_BASE and not 1.0 < (r or 0.0) < math.inf:
        raise ConfigError(f"power-base schedule requires a finite r > 1, got {r}")
    if kind is ScheduleKind.CLASSICAL:
        yield from itertools.repeat(0)
    elif kind is ScheduleKind.LIS:
        yield from itertools.count()
    else:
        base = 2.0 if kind is ScheduleKind.EIS else float(r)
        integral = base.is_integer()
        yield 0
        for j in itertools.count():
            m = int(base) ** j if integral else int(math.floor(base**j + _FLOOR_NUDGE))
            if m > _MAX_COUNT:
                raise ConfigError(f"the {kind.value} ladder passes depth 2**52 at stage {j + 1}")
            yield m


def make_schedule(
    kind: ScheduleKind | str,
    M: int,
    shots: int,
    r: float | None = None,
) -> Schedule:
    """The first M + 1 depths (stages k = 0..M) of the kind's ladder, each
    with `shots` shots."""
    kind = _parse_kind(kind)
    M = _integral(M, "M", 0, _MAX_M)
    shots = _integral(shots, "shots", 1)
    stages = tuple((m, shots) for m in itertools.islice(_ladder(kind, r), M + 1))
    return Schedule(stages=stages, kind=kind, r=float(r) if kind is ScheduleKind.POWER_BASE else None)


def capped_depths(m_max: int) -> list[int]:
    """The EIS depths 0, 1, 2, 4, ... below m_max, then m_max itself: the
    deepest EIS ladder within a depth limit, [0] when m_max < 1."""
    if m_max < 1:
        return [0]
    # 0 and the powers of two below m_max, not the next depth: it may pass _MAX_COUNT
    return [*itertools.islice(_ladder(ScheduleKind.EIS, None), 1 + (m_max - 1).bit_length()), m_max]


def total_queries(schedule: Schedule) -> int:
    """Total oracle queries N_q = sum_k N_k (2 m_k + 1)."""
    return sum(n * (2 * m + 1) for m, n in schedule.stages)


def noisy_good_prob(m: int, point: AmplitudePoint) -> float:
    """Depolarized good-state probability 1/2 - 1/2 e^{-kappa m} cos(2(2m+1) theta_a).

    Equals e^{-kappa m} sin^2((2m+1) theta_a) + (1 - e^{-kappa m})/2: the
    surviving noiseless branch plus the maximally mixed remainder, which lands
    on the good state with probability 1/2.
    """
    return 0.5 - 0.5 * math.exp(-point.kappa * m) * math.cos(2.0 * (2 * m + 1) * point.theta)


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize a schedule as {"kind": ..., "stages": [{"m":..,"shots":..}, ...]}."""
    doc: dict = {
        "kind": schedule.kind.value,
        "stages": [{"m": m, "shots": n} for m, n in schedule.stages],
    }
    if schedule.r is not None:
        doc["r"] = schedule.r
    return json.dumps(doc)
