"""Batch sweeps over amplitudes and noise levels.

Three studies built on the Fisher machinery: the linear density of anomalous
target amplitudes (fraction of a in [0,1] with beta above a threshold), error
bound versus total query count (the rows crbound prints and trials reads),
and the error bound on an (a, kappa) grid.  The density and the grid share
one blocked sweep, _bound_sweep, which runs more than one block on a thread
per core (numpy's sin/cos release the interpreter lock); each block writes
only its own slice, so any core count gives the same bits.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .fisher import (
    ANOMALY_THRESHOLD,
    _bounds,
    _element_sums,
    _element_terms,
    _stage_weights,
    classical_bound,
    max_grover_depth,
)
from .model import Schedule, ScheduleKind, _integral, amplitude_point, make_schedule

# Samples closer than this to a = 0 or a = 1 are excluded (singular Fisher).
_EDGE_MARGIN = 1e-9

# Depth-count cap for the default density schedule.
_DENSITY_M_CAP = 25

# Fisher rows in flight across _bound_sweep's workers (bounds their temporaries).
_BETA_BLOCK = 4096


@dataclass(frozen=True)
class DensityResult:
    """Fraction of uniformly drawn amplitudes that are anomalous at one kappa."""

    kappa: float
    density_percent: float
    stderr_percent: float
    samples: int
    threshold: float
    skipped: int
    schedule: Schedule


@dataclass(frozen=True)
class QueryErrorRow:
    """One point of an error-versus-queries curve: the schedule's bound and
    identifiability flag, and the classical bound at the same queries."""

    M: int
    n_queries: int
    epsilon_min: float
    classical_epsilon: float
    identifiable: bool
    beyond_max_depth: bool


@dataclass(frozen=True)
class ContourGrid:
    """epsilon_min over an amplitude grid (rows) by noise grid (columns)."""

    a_values: tuple[float, ...]
    kappa_values: tuple[float, ...]
    epsilon_min: tuple[tuple[float, ...], ...]


def default_density_schedule(kappa: float, shots: int = 100) -> Schedule:
    """Exponential schedule whose deepest stage sits just under the depth limit.

    M = bit_length(m-bar) puts the last depth 2^{M-1} at the largest power of
    two not exceeding m-bar(kappa), with M clamped to 1..25 (m-bar = 0 gives M = 1).
    """
    M = min(max(max_grover_depth(kappa).bit_length(), 1), _DENSITY_M_CAP)
    return make_schedule(ScheduleKind.EIS, M, shots)


def _bound_sweep(a: np.ndarray, kappa: np.ndarray | float, weights: tuple, row: int) -> np.ndarray:
    """Row `row` of _bounds (0 eps_a, 2 beta) at each amplitude, at one
    kappa or one per amplitude, in blocks of _BETA_BLOCK // workers rows (an
    empty `a` is one empty block, refused).  More than one block runs on a
    thread per core, read in block order so the first failing block's error
    is raised; NaN marks a degenerate sample."""
    workers = os.cpu_count() or 1
    block = max(_BETA_BLOCK // workers, 1)
    out = np.empty(a.size)

    def fill(start: int) -> None:
        rows = slice(start, start + block)
        sums = _element_sums(a[rows], kappa if np.ndim(kappa) == 0 else kappa[rows], weights)
        out[rows] = _bounds(sums, a[rows])[row]

    if a.size <= block:
        fill(0)
        return out
    from concurrent.futures import ThreadPoolExecutor  # lazy: imports logging
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, range(0, a.size, block)))
    return out


def anomaly_density(
    kappa: float,
    samples: int,
    threshold: float = ANOMALY_THRESHOLD,
    schedule: Schedule | None = None,
    seed: int = 0,
) -> DensityResult:
    """Percentage of uniform a in [0,1] with beta above the threshold.

    Draws `samples` amplitudes, skips those within 1e-9 of an endpoint or
    with a degenerate Fisher matrix (counted in `skipped`), and reports the
    anomalous fraction with its binomial standard error.
    """
    samples = _integral(samples, "samples", 1000)  # fewer give no stable density
    if not (0.0 < threshold < 1.0):
        raise ConfigError(f"threshold={threshold} outside (0, 1)")
    if not math.isfinite(kappa):
        raise DomainError(f"the beta sweep needs a finite kappa, got {kappa}")
    if kappa <= 0.0:
        raise DomainError("anomaly density needs kappa > 0 (beta -> 0 for all a at kappa = 0)")
    if schedule is None:
        schedule = default_density_schedule(kappa)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0))))
    a = rng.random(samples)
    edge = (a < _EDGE_MARGIN) | (a > 1.0 - _EDGE_MARGIN)
    interior = a[~edge]
    beta = _bound_sweep(interior, kappa, _stage_weights(schedule.depths, schedule.shots), 2)
    bad = np.isnan(beta)
    used = int(interior.size - np.count_nonzero(bad))
    skipped = samples - used
    if used == 0:
        raise DomainError("all samples skipped; schedule carries no kappa information")
    hits = int(np.count_nonzero(beta[~bad] > threshold))
    rho = hits / used
    return DensityResult(
        kappa=kappa,
        density_percent=100.0 * rho,
        stderr_percent=100.0 * math.sqrt(rho * (1.0 - rho) / used),
        samples=used,
        threshold=threshold,
        skipped=skipped,
        schedule=schedule,
    )


def error_vs_queries(
    a: float,
    kappa: float,
    M_max: int,
    shots: int,
    kind: ScheduleKind | str = ScheduleKind.EIS,
    r: float | None = None,
) -> list[QueryErrorRow]:
    """Error bound against total queries at one noise level, one row per
    M = 1..M_max.

    Row M holds the cr_lower_bound of the M-stage schedule and the classical
    bound sqrt(a(1-a)/N_q) at the same query count.  Rows whose deepest
    stage exceeds m-bar(kappa), where (2m + 1)(1 - e^{-kappa}) > 1 as in
    max_grover_depth, are flagged: past that point the bound saturates and
    extra depth is wasted.  A kappa whose m-bar passes 2**52 flags no row.

    Each M's schedule is the first M + 1 stages of the M_max one, so one
    Fisher pass covers every row: row M sums that prefix as a lone
    cr_lower_bound call sums its schedule (a running sum rounds differently),
    and one _bounds call inverts every row.
    """
    if not (0.0 < a < 1.0):
        raise DomainError(f"a={a} outside (0, 1)")
    M_max = _integral(M_max, "M_max", 1)
    schedule = make_schedule(kind, M_max, shots, r)
    point = amplitude_point(a, kappa)
    weights = _stage_weights(schedule.depths, schedule.shots)
    terms = _element_terms(np.asarray([point.a]), point.kappa, weights)[:, 0]
    sums = np.stack([terms[:, :M + 1].sum(axis=1) for M in range(1, M_max + 1)], axis=1)
    eps_a, eps_kappa, _ = _bounds(sums, a).tolist()
    decay = -math.expm1(-point.kappa)
    queries = list(itertools.accumulate(n * (2 * m + 1) for m, n in schedule.stages))
    return [QueryErrorRow(M, nq, eps, classical_bound(a, nq), not math.isnan(eps_k),
                          (2 * m + 1) * decay > 1.0)
            for M, m, nq, eps, eps_k in zip(range(1, M_max + 1), schedule.depths[1:],
                                            queries[1:], eps_a, eps_kappa)]


def error_vs_kappa_contour(
    a_values: np.ndarray, kappa_values: np.ndarray, schedule: Schedule
) -> ContourGrid:
    """epsilon_min on the product grid, amplitudes down the rows.

    _bound_sweep runs over the cells of the a-major product, each cell the
    eps_a of _bounds, the rule cr_lower_bound applies, so cells where the
    matrix is numerically singular fall back to the one-parameter bound.
    """
    a = np.asarray(a_values, dtype=float)
    kappas = np.asarray(kappa_values, dtype=float)
    if a.size == 0 or kappas.size == 0:
        raise DomainError("contour grids must not be empty")
    # written as "all inside" so that a NaN fails it
    if not np.all((a > 0.0) & (a < 1.0)):
        raise DomainError("amplitude grid must lie strictly inside (0, 1)")
    if not np.all((kappas >= 0.0) & np.isfinite(kappas)):
        raise DomainError("kappa grid must be finite and non-negative")
    a_cells, k_cells = np.repeat(a, kappas.size), np.tile(kappas, a.size)
    weights = _stage_weights(schedule.depths, schedule.shots)
    eps = _bound_sweep(a_cells, k_cells, weights, 0).reshape(a.size, kappas.size)
    return ContourGrid(
        a_values=tuple(float(v) for v in a),
        kappa_values=tuple(float(v) for v in kappas),
        epsilon_min=tuple(map(tuple, eps.tolist())),
    )
