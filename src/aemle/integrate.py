"""Monte Carlo integration targets.

An integral int_0^1 q(x) f(x) dx is discretized on 2^n midpoints
x_j = (j + 1/2)/2^n into S(f) = sum_j p(x_j) f(x_j), where p(x_j) is the cell
integral of the density q.  S(f) is the amplitude fed to estimation; the
discretization error against the continuum integral is deliberately not
corrected, since estimation accuracy is measured against S(f) itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpecError

# Gauss-Legendre nodes per discretization cell; exact for polynomial-like densities.
_QUAD_NODES = 64


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


def discretize(q: Callable[[float], float], f: Callable[[float], float], n: int) -> IntegrandSpec:
    """Discretize density q and integrand f on the 2^n-point midpoint grid.

    Cell probabilities are computed with a 64-node Gauss-Legendre rule per
    cell.  Raises SpecError if the quadrature yields a negative cell mass or
    a total mass off 1 by more than 1e-9.
    """
    size = 2**n
    half = 0.5 / size
    xs = grid_points(n)
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    probs = np.empty(size)
    for j, x in enumerate(xs):
        # map [-1, 1] nodes onto the cell [x - half, x + half]
        t = x + half * nodes
        probs[j] = half * float(np.sum(weights * np.asarray([q(v) for v in t], dtype=float)))
    if np.any(probs < -1e-15):
        raise SpecError("density quadrature produced a negative cell probability")
    probs = np.clip(probs, 0.0, None)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise SpecError(f"density integrates to {total}, expected 1 within 1e-9")
    vals = np.asarray([f(x) for x in xs], dtype=float)
    return IntegrandSpec(n=n, probabilities=tuple(probs), values=tuple(vals))


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


def spec_to_json(spec: IntegrandSpec) -> str:
    return json.dumps({"n": spec.n, "p": list(spec.probabilities), "f": list(spec.values)})


def spec_from_json(text: str) -> IntegrandSpec:
    try:
        doc = json.loads(text)
        return IntegrandSpec(
            n=int(doc["n"]),
            probabilities=tuple(float(v) for v in doc["p"]),
            values=tuple(float(v) for v in doc["f"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed integrand JSON: {exc}") from exc
