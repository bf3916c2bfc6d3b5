"""Core parameterization, measurement schedules, and the forward probability model.

The unknown is the pair (a, kappa): a target amplitude a = sin^2(theta_a) and a
depolarizing noise level kappa = -ln p, where p is the survival probability per
amplification step.  A schedule lists the amplification depths m_k and shot
counts N_k of the staged experiment; the forward model gives the probability of
observing the good state after m amplifications, with and without noise.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .errors import ConfigError, DomainError

# Nudge added before flooring r**(k-1) so 2.9999999 floors to 3, not 2.
_FLOOR_NUDGE = 1e-9

# Most stages a depth-capped ladder may have: the lis ladder has one stage per
# depth, 5e7 of them below the cap at kappa = 1e-8.
_MAX_LADDER_STAGES = 10_000


def _integral(value: object, name: str) -> int:
    """value as an int if it is integral (2 or 2.0), else ConfigError."""
    if type(value) is int:  # the common case, ahead of the slower ABC check
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name}={value!r} must be an integer")


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

    Depths must be non-decreasing, and depths and shots integral (2.0 is
    stored as 2).  Explicit schedules may carry zero-shot stages (useful for
    information-content comparisons); generated kinds always have positive
    shots.
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
        for m, n in stages:
            if m < 0:
                raise ConfigError(f"depth m={m} must be a non-negative integer")
            if n < 0:
                raise ConfigError(f"shot count N={n} must be a non-negative integer")
            if m < prev:
                raise ConfigError("stage depths must be non-decreasing")
            prev = m
        if self.kind is ScheduleKind.CLASSICAL and any(m != 0 for m, _ in self.stages):
            raise ConfigError("classical schedule requires all depths zero")
        if self.kind is ScheduleKind.POWER_BASE and (self.r is None or self.r <= 1.0):
            raise ConfigError("power-base schedule requires r > 1")

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
    is integral (so eis is the r = 2 ladder).  The explicit kind and r <= 1
    raise ConfigError at the first depth.
    """
    if kind is ScheduleKind.EXPLICIT:
        raise ConfigError("explicit schedules are built from stage lists, not make_schedule")
    if kind is ScheduleKind.POWER_BASE and (r is None or r <= 1.0):
        raise ConfigError(f"power-base schedule requires r > 1, got {r}")
    if kind is ScheduleKind.CLASSICAL:
        yield from itertools.repeat(0)
    elif kind is ScheduleKind.LIS:
        yield from itertools.count()
    else:
        base = 2.0 if kind is ScheduleKind.EIS else float(r)
        integral = base.is_integer()
        yield 0
        for j in itertools.count():
            yield int(base) ** j if integral else int(math.floor(base**j + _FLOOR_NUDGE))


def make_schedule(
    kind: ScheduleKind | str,
    M: int,
    shots: int,
    r: float | None = None,
) -> Schedule:
    """The first M + 1 depths (stages k = 0..M) of the kind's ladder, each
    with `shots` shots."""
    kind = _parse_kind(kind)
    if M < 0:
        raise ConfigError(f"M={M} must be >= 0")
    if shots <= 0:
        raise ConfigError(f"shots={shots} must be positive")
    stages = tuple((m, shots) for m in itertools.islice(_ladder(kind, r), M + 1))
    return Schedule(stages=stages, kind=kind, r=float(r) if kind is ScheduleKind.POWER_BASE else None)


def capped_depths(kind: ScheduleKind | str, m_max: int, r: float | None = None) -> list[int]:
    """The kind's distinct ladder depths below m_max, then m_max itself.

    This is the deepest ladder that stays within a depth limit; it is [0]
    when m_max < 1 or the kind never amplifies (classical).  A ladder of
    more than _MAX_LADDER_STAGES stages raises ConfigError before it is built.
    """
    kind = _parse_kind(kind)
    if kind is ScheduleKind.CLASSICAL or m_max < 1:
        return [0]
    depths = [0]
    for m in _ladder(kind, r):
        if m >= m_max:
            break
        if m > depths[-1]:
            if len(depths) + 2 > _MAX_LADDER_STAGES:  # m and m_max still to come
                raise ConfigError(
                    f"the {kind.value} ladder up to depth {m_max} has more than "
                    f"{_MAX_LADDER_STAGES} stages"
                )
            depths.append(m)
    depths.append(m_max)
    return depths


def explicit_schedule(stages: Iterable[tuple[int, int]]) -> Schedule:
    """Wrap an explicit (depth, shots) list as a Schedule."""
    return Schedule(stages=tuple(stages))


def total_queries(schedule: Schedule) -> int:
    """Total oracle queries N_q = sum_k N_k (2 m_k + 1)."""
    return sum(n * (2 * m + 1) for m, n in schedule.stages)


def ideal_good_prob(m: int, point: AmplitudePoint) -> float:
    """Noiseless good-state probability sin^2((2m+1) theta_a) after m amplifications."""
    return math.sin((2 * m + 1) * point.theta) ** 2


def noisy_good_prob(m: int, point: AmplitudePoint) -> float:
    """Depolarized good-state probability 1/2 - 1/2 e^{-kappa m} cos(2(2m+1) theta_a).

    Equals e^{-kappa m} * ideal + (1 - e^{-kappa m})/2: the surviving branch
    plus the maximally mixed remainder, which lands on the good state with
    probability 1/2.
    """
    return 0.5 - 0.5 * math.exp(-point.kappa * m) * math.cos(2.0 * (2 * m + 1) * point.theta)


def modified_amplitude(a: float, phi: float) -> float:
    """Rescaled target a * sin^2(phi), used to move off an anomalous amplitude."""
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"amplitude a={a} outside [0, 1]")
    if not (0.0 <= phi <= math.pi / 2):
        raise DomainError(f"phi={phi} outside [0, pi/2]")
    return a * math.sin(phi) ** 2


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize a schedule as {"kind": ..., "stages": [{"m":..,"shots":..}, ...]}."""
    doc: dict = {
        "kind": schedule.kind.value,
        "stages": [{"m": m, "shots": n} for m, n in schedule.stages],
    }
    if schedule.r is not None:
        doc["r"] = schedule.r
    return json.dumps(doc)


def schedule_from_json(text: str) -> Schedule:
    """Parse the JSON produced by schedule_to_json."""
    try:
        doc = json.loads(text)
        kind = ScheduleKind(doc.get("kind", "explicit"))
        stages = tuple((s["m"], s["shots"]) for s in doc["stages"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed schedule JSON: {exc}") from exc
    r = doc.get("r")
    return Schedule(stages=stages, kind=kind, r=float(r) if r is not None else None)
