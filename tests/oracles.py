"""Independent oracles used to validate closed forms in the tests.

The Fisher-matrix oracle never touches the library's analytic derivatives:
per-stage log-probability derivatives come from complex-step differentiation
(machine-accurate, no truncation error), and the information matrix is the
exact covariance of the score over every possible outcome vector.

The likelihood-grid reference is the estimator's original stage-last
broadcast formula, kept verbatim so the stage-first kernel can be checked
against it bit for bit.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

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
