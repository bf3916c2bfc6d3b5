"""Hardware-requirement calculator for an amplitude-estimation integrator.

Given a target accuracy and circuit-size assumptions, derives the register
widths, gate counts per amplification round, the tolerable noise level
kappa-bar, the per-gate error budget that achieves it, and wall-clock
execution times.  Pure arithmetic end to end; the only iterative pieces are
the kappa-bar scan (fisher.required_noise_for_error, two elementwise Fisher
passes: the log grid, then every midpoint of its bisection; DomainError when
the unamplified stage already meets the target) and a bisection for the
gate-error budget.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum

from .errors import ConfigError, DomainError
from .fisher import max_grover_depth, required_noise_for_error
from .model import _integral, capped_depths

# Reference target amplitude for the kappa-bar scan when no override is given.
_REFERENCE_AMPLITUDE = 0.375


class TimeInterpretation(Enum):
    """Reading of the between-shot interval t_i in the total-time sum.

    PER_SHOT scales the interval with each stage's own execution time
    (t_i = factor * (t_AA m_k + t_m)); PER_MBAR uses the deepest stage's
    time for every shot (t_i = factor * t_mbar).
    """

    PER_SHOT = "per_shot"
    PER_MBAR = "per_mbar"


@dataclass(frozen=True)
class HardwareAssumptions:
    """Inputs of the requirement calculation."""

    epsilon_target: float
    N_int: int
    N_k: int = 100
    t_s: float = 7.1e-8
    t_d: float = 2.8e-7
    t_m: float = 3.5e-6
    interval_factor: float = 10.0
    error_ratio: float = 10.0
    reference_amplitude: float = _REFERENCE_AMPLITUDE
    kappa_bar_override: float | None = None

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{item.name}={value} must be finite")
        if not (0.0 < self.epsilon_target < 1.0):
            raise ConfigError(f"epsilon_target={self.epsilon_target} outside (0, 1)")
        if 1.0 / self.epsilon_target == math.inf:  # compute_spec takes log2(1 / eps)
            raise ConfigError(f"epsilon_target={self.epsilon_target} is too small: 1/eps overflows")
        for name in ("N_int", "N_k"):  # 3.0 is stored as 3, 2.5 is refused
            object.__setattr__(self, name, _integral(getattr(self, name), name, 1))
        for name in ("t_s", "t_d", "t_m", "error_ratio"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name}={getattr(self, name)} must be positive")
        # below a normal double, 0.999999 * ratio rounds back to ratio, and the
        # budget bracket's single-qubit error e / ratio reaches 1
        if self.error_ratio < sys.float_info.min:
            raise ConfigError(f"error_ratio={self.error_ratio} must be at least "
                              f"{sys.float_info.min} (the smallest normal double)")
        if self.interval_factor < 0.0:
            raise ConfigError(f"interval_factor={self.interval_factor} must be >= 0")
        if not (0.0 < self.reference_amplitude < 1.0):
            raise ConfigError(f"reference_amplitude={self.reference_amplitude} outside (0, 1)")
        if self.kappa_bar_override is not None and self.kappa_bar_override <= 0.0:
            raise ConfigError(f"kappa_bar_override={self.kappa_bar_override} must be positive")


@dataclass(frozen=True)
class HardwareReport:
    """Derived requirements, one field per quantity."""

    N_nq: int
    N_tnq: int
    N_y: int
    N_s: int
    N_d: int
    kappa_bar: float
    m_bar: int
    eps_s: float
    eps_d: float
    t_AA: float
    t_mbar: float
    t_total: float
    interpretation: TimeInterpretation


def _gate_error_budget(kappa_bar: float, N_s: int, N_d: int, ratio: float) -> float:
    """Bisect for e with kappa_from_gate_errors([(e / ratio, N_s), (e, N_d)]) = kappa_bar.

    The left side is 0 at e = 0 and strictly increasing, so the root is
    unique; the bracket ends where the larger gate error is 0.999999.  A
    kappa_bar beyond the kappa there raises DomainError.  decay is that sum
    in kappa_from_gate_errors' operation order without its checks: at a
    normal ratio (HardwareAssumptions' floor) both errors stay in [0, 1).
    """

    def decay(e: float) -> float:
        return 0.0 - N_s * math.log1p(-(e / ratio)) - N_d * math.log1p(-e)

    lo, hi = 0.0, 0.999999 * min(1.0, ratio)
    if decay(hi) < kappa_bar:
        raise DomainError(
            f"kappa_bar={kappa_bar} exceeds kappa={decay(hi)}, the largest "
            "a gate-error budget of at most 0.999999 per gate reaches"
        )
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # until lo and hi are adjacent doubles
        if decay(mid) < kappa_bar:
            lo = mid
        else:
            hi = mid
    return mid


def total_execution_time(
    assumptions: HardwareAssumptions,
    t_AA: float,
    t_mbar: float,
    m_bar: int,
    interpretation: TimeInterpretation = TimeInterpretation.PER_SHOT,
) -> float:
    """Wall-clock time of the full run: sum over stages of (run + readout +
    interval) per shot, on the doubling ladder 1, 2, 4, ... capped at m_bar
    (a single m = 0 stage when m_bar < 1)."""
    total = 0.0
    for m in capped_depths(m_bar)[1:] or [0]:
        shot = t_AA * m + assumptions.t_m
        if interpretation is TimeInterpretation.PER_SHOT:
            interval = assumptions.interval_factor * shot
        else:
            interval = assumptions.interval_factor * t_mbar
        total += assumptions.N_k * (shot + interval)
    return total


def compute_spec(
    assumptions: HardwareAssumptions,
    interpretation: TimeInterpretation = TimeInterpretation.PER_SHOT,
) -> HardwareReport:
    """Derive every requirement row from the assumptions.

    Register widths and gate counts follow closed-form circuit-size formulas;
    kappa-bar comes from the override if given, else from the noise-versus-
    error scan at the reference amplitude; the gate-error budget splits
    kappa-bar across single and two-qubit gates at the assumed ratio.
    """
    eps = assumptions.epsilon_target
    n_int = assumptions.N_int
    N_nq = math.ceil(math.log2(1.0 / eps))
    N_tnq = 2 * N_nq * n_int - 1
    N_y = n_int * (n_int - 1) * N_nq**2 // 2
    N_s = 2 * (N_nq * n_int + 1 + 6 * N_y) + 12 * N_nq * n_int - 15
    N_d = 8 * N_y * 2 + 6 * N_nq * n_int - 5
    if assumptions.kappa_bar_override is not None:
        kappa_bar = assumptions.kappa_bar_override
    else:
        kappa_bar = required_noise_for_error(
            assumptions.reference_amplitude, eps, assumptions.N_k
        )
    m_bar = max_grover_depth(kappa_bar)
    eps_d = _gate_error_budget(kappa_bar, N_s, N_d, assumptions.error_ratio)
    eps_s = eps_d / assumptions.error_ratio
    t_AA = assumptions.t_s * N_s + assumptions.t_d * N_d
    t_mbar = t_AA * m_bar + assumptions.t_m
    t_total = total_execution_time(assumptions, t_AA, t_mbar, m_bar, interpretation)
    for name, value in (("t_AA", t_AA), ("t_mbar", t_mbar), ("t_total", t_total)):
        if not math.isfinite(value):
            raise DomainError(f"{name}={value} is not finite: the times overflow a double")
    return HardwareReport(
        N_nq=N_nq,
        N_tnq=N_tnq,
        N_y=N_y,
        N_s=N_s,
        N_d=N_d,
        kappa_bar=kappa_bar,
        m_bar=m_bar,
        eps_s=eps_s,
        eps_d=eps_d,
        t_AA=t_AA,
        t_mbar=t_mbar,
        t_total=t_total,
        interpretation=interpretation,
    )


def kappa_from_gate_errors(gates: list[tuple[float, int]]) -> float:
    """Noise level implied by per-gate error rates: -sum count * ln(1 - error)."""
    if not gates:
        raise ConfigError("at least one (error, count) pair is required")
    total = 0.0
    for error, count in gates:
        if not (0.0 <= error < 1.0):
            raise DomainError(f"gate error {error} outside [0, 1)")
        total -= _integral(count, "gate count") * math.log1p(-error)
    return total


@dataclass(frozen=True)
class GateErrorGap:
    """Device over required gate errors: the factor each must improve by."""

    gap_s: float
    gap_d: float


def gate_error_gap(
    report: HardwareReport, device_eps_s: float = 1.0e-3, device_eps_d: float = 1.0e-2
) -> GateErrorGap:
    """Factor by which device gate errors must improve to meet the budget."""
    for error in (device_eps_s, device_eps_d):
        if not (0.0 < error < 1.0):
            raise DomainError(f"device gate error {error} must be finite and in (0, 1)")
    gaps = {}
    for name, device, budget in (("gap_s", device_eps_s, report.eps_s),
                                 ("gap_d", device_eps_d, report.eps_d)):
        gaps[name] = device / budget if budget > 0.0 else math.inf
        if not math.isfinite(gaps[name]):
            raise DomainError(f"{name}={gaps[name]} is not finite: device error {device} "
                              f"over the budget {budget} overflows a double")
    return GateErrorGap(**gaps)


def report_rows(report: HardwareReport) -> list[tuple[str, str, object]]:
    """Ordered (symbol, description, value) rows for table emission."""
    return [
        ("N_nq", "qubits per integration variable", report.N_nq),
        ("N_tnq", "total data qubits", report.N_tnq),
        ("N_y", "multiplier partial products", report.N_y),
        ("N_s", "single-qubit gates per round", report.N_s),
        ("N_d", "two-qubit gates per round", report.N_d),
        ("kappa_bar", "tolerable noise level", report.kappa_bar),
        ("m_bar", "maximum amplification depth", report.m_bar),
        ("eps_s", "single-qubit gate error budget", report.eps_s),
        ("eps_d", "two-qubit gate error budget", report.eps_d),
        ("t_AA", "time per amplification round (s)", report.t_AA),
        ("t_mbar", "time of the deepest circuit (s)", report.t_mbar),
        ("t_total", "total executing time (s)", report.t_total),
        ("t_i_rule", "interval-time interpretation", report.interpretation.value),
    ]
