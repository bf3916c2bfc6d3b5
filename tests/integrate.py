"""Monte Carlo integration targets.

An integral int_0^1 q(x) f(x) dx is discretized on 2^n midpoints
x_j = (j + 1/2)/2^n into S(f) = sum_j p(x_j) f(x_j), where p(x_j) is the cell
integral of the density q (uniform in sin2_target, the built-in target).
S(f) is the amplitude fed to estimation; the discretization error against the
continuum integral is deliberately not corrected, since estimation accuracy is
measured against S(f) itself.  The circuit oracle and the acceptance suite
build their targets here; the library itself takes the amplitude as a number.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aemle.errors import AemleError


class SpecError(AemleError):
    """An integrand specification violates its normalization or range."""


@dataclass(frozen=True)
class IntegrandSpec:
    """Discretized integrand: probabilities p(x_j) and values f(x_j) on 2^n midpoints."""

    n: int
    probabilities: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        size = 2**self.n
        if len(self.probabilities) != size or len(self.values) != size:
            raise SpecError(f"arrays must have length 2^{self.n} = {size}")
        p = np.asarray(self.probabilities)
        f = np.asarray(self.values)
        if np.any(p < 0.0):
            raise SpecError("probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise SpecError(f"probabilities sum to {p.sum()}, expected 1")
        if np.any(f < 0.0) or np.any(f > 1.0):
            raise SpecError("values must lie in [0, 1]")


def grid_points(n: int) -> np.ndarray:
    """Midpoints x_j = (j + 1/2)/2^n."""
    return (np.arange(2**n) + 0.5) / 2**n


def sin2_target(n: int, b: float) -> tuple[IntegrandSpec, float]:
    """Uniform density with f(x) = sin^2(b x); returns the integrand and S(f)."""
    if n < 1:
        raise SpecError(f"n={n} must be >= 1")
    size = 2**n
    xs = grid_points(n)
    vals = np.sin(b * xs) ** 2
    spec = IntegrandSpec(n=n, probabilities=tuple([1.0 / size] * size), values=tuple(vals))
    return spec, target_amplitude(spec)


def target_amplitude(spec: IntegrandSpec) -> float:
    """S(f) = sum_j p(x_j) f(x_j), the amplitude to be estimated."""
    return float(np.dot(spec.probabilities, spec.values))
