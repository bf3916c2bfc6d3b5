"""Density of anomalous targets, query-error curves, and the noise contour."""
import math
import os
import sys

import numpy as np
import pytest

from aemle import (
    ANOMALY_THRESHOLD,
    ConfigError,
    DegenerateScheduleError,
    DomainError,
    Schedule,
    SingularPointError,
    amplitude_point,
    anomaly_density,
    classical_bound,
    cr_lower_bound,
    default_density_schedule,
    error_vs_kappa_contour,
    error_vs_queries,
    make_schedule,
    max_grover_depth,
    survey,
    total_queries,
)
from aemle.fisher import _stage_weights

A_ANOMALOUS = math.sin(math.pi / 8) ** 2


def test_default_schedule_tracks_depth_limit():
    sched = default_density_schedule(1e-2)
    mbar = max_grover_depth(1e-2)
    assert max(sched.depths) <= mbar < 2 * max(sched.depths)
    # stage cap kicks in at tiny noise
    assert len(default_density_schedule(1e-9).depths) == 26


def _density_M_reference(kappa):
    """The density schedule's M as first written: floor(log2(m-bar)) + 1,
    at most 25, and 1 when m-bar < 1."""
    mbar = max_grover_depth(kappa)
    if mbar < 1:
        return 1
    return min(int(math.floor(math.log2(mbar))) + 1, 25)


def _density_kappas():
    """A log grid from 1.2e-16 to 50, then the kappa at which m-bar reaches
    each power of two up to 2^30 (past the cap), a few ulps either side."""
    yield from np.geomspace(1.2e-16, 50.0, 2000).tolist()
    for k in range(31):
        edge = -math.log1p(-1.0 / (2 * 2**k + 1))
        for steps in range(-3, 4):
            kappa = edge
            for _ in range(abs(steps)):
                kappa = math.nextafter(kappa, math.copysign(math.inf, steps))
            yield kappa


def test_default_schedule_matches_the_log2_rule():
    mbars, Ms = set(), set()
    for kappa in _density_kappas():
        M = _density_M_reference(kappa)
        assert default_density_schedule(kappa, 7) == make_schedule("eis", M, 7), kappa
        mbars.add(max_grover_depth(kappa))
        Ms.add(M)
    assert {0, *(2**k for k in range(31))} <= mbars
    assert Ms == set(range(1, 26))


def test_density_seed_stable():
    first = anomaly_density(1e-2, 5000, seed=42)
    second = anomaly_density(1e-2, 5000, seed=42)
    assert first == second
    other = anomaly_density(1e-2, 5000, seed=43)
    combined = math.hypot(first.stderr_percent, other.stderr_percent)
    assert abs(first.density_percent - other.density_percent) <= 3.0 * max(combined, 0.3)


def test_density_high_noise_is_zero():
    result = anomaly_density(1e-1, 5000, seed=1)
    assert result.density_percent == 0.0
    assert result.stderr_percent == 0.0


def test_density_stderr_formula():
    result = anomaly_density(1e-2, 20_000, seed=1)
    rho = result.density_percent / 100.0
    expected = 100.0 * math.sqrt(rho * (1.0 - rho) / result.samples)
    assert result.stderr_percent == pytest.approx(expected, rel=1e-12)
    assert result.skipped == 0
    assert result.samples == 20_000


def test_density_validation():
    with pytest.raises(ConfigError):
        anomaly_density(1e-2, 500, seed=1)
    with pytest.raises(ConfigError):
        anomaly_density(1e-2, 5000, threshold=1.5, seed=1)
    with pytest.raises(DomainError):
        anomaly_density(0.0, 5000, seed=1)
    with pytest.raises(ConfigError, match="samples=2000.5 must be an integer"):
        anomaly_density(1e-2, 2000.5, seed=1)
    # an integral float is the count it spells, as in Schedule and ExperimentData
    assert anomaly_density(1e-2, 5000.0, seed=1) == anomaly_density(1e-2, 5000, seed=1)
    for kappa in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite kappa"):
            anomaly_density(kappa, 5000, seed=1)


# float.hex of (density_percent, stderr_percent) and skipped from
# anomaly_density(kappa, 20_000) at the default seed, captured from the serial
# sweep before the blocks ran on threads: the core count must not move a bit.
DENSITY_GOLDEN = {
    1e-6: ("0x1.08f5c28f5c28fp+1", "0x1.9c5ef2a66de2fp-4", 0),
    1e-3: ("0x1.f47ae147ae148p+0", "0x1.90fcda39d274ap-4", 0),
    1e-1: ("0x0.0p+0", "0x0.0p+0", 0),
}


@pytest.mark.parametrize("kappa", sorted(DENSITY_GOLDEN))
def test_density_golden(kappa):
    result = anomaly_density(kappa, 20_000)
    got = (result.density_percent.hex(), result.stderr_percent.hex(), result.skipped)
    assert got == DENSITY_GOLDEN[kappa]
    assert result.samples == 20_000


def _beta(a, kappa, schedule):
    """The density sweep's beta at each amplitude."""
    return survey._bound_sweep(a, kappa, _stage_weights(schedule.depths, schedule.shots), 2)


def _segment_count(kappa):
    # maximal runs of beta above the threshold on 200,000 interior midpoints
    a = (np.arange(200_000) + 0.5) / 200_000
    beta = _beta(a, kappa, default_density_schedule(kappa))
    above = beta > ANOMALY_THRESHOLD  # a degenerate sample's NaN is never above
    return int(np.count_nonzero(above[1:] & ~above[:-1])) + int(above[0])


def test_segment_counts_scale_inversely_with_noise():
    high = _segment_count(1e-2)
    low = _segment_count(1e-3)
    assert high == 4
    assert low == 64
    assert 5.0 <= low / high <= 20.0


def test_error_vs_queries_rows():
    for kappa in (0.0, 0.01):
        rows = error_vs_queries(0.375, kappa, M_max=8, shots=100)
        assert [r.M for r in rows] == list(range(1, 9))
        mbar = max_grover_depth(kappa) if kappa > 0.0 else None
        for row in rows:
            schedule = make_schedule("eis", row.M, 100)
            bound = cr_lower_bound(amplitude_point(0.375, kappa), schedule)
            assert row.n_queries == total_queries(schedule)
            assert (row.epsilon_min, row.identifiable) == (bound.epsilon_min, bound.identifiable)
            assert row.classical_epsilon == classical_bound(0.375, row.n_queries)
            # noiseless rows never exceed the depth limit; noisy rows flag
            # exactly the schedules deeper than m-bar
            assert row.beyond_max_depth == (mbar is not None and max(schedule.depths) > mbar)


# beyond_max_depth reads the depth limit's rule, (2m + 1)(1 - e^{-kappa}) > 1, so
# it flags the rows max_grover_depth flags on either side of each depth's
# own limit, and a kappa whose m-bar passes 2**52 flags none and is not
# refused (run_trials reads these rows at any kappa)
def test_error_vs_queries_flags_the_rows_past_max_grover_depth():
    for M in range(1, 20):
        depth = make_schedule("eis", M, 1).depths[M]
        edge = -math.log1p(-1.0 / (2 * depth + 1))
        for kappa in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            rows = error_vs_queries(0.375, float(kappa), M_max=20, shots=100)
            mbar = max_grover_depth(float(kappa))
            assert [r.beyond_max_depth for r in rows] == [
                make_schedule("eis", r.M, 1).depths[r.M] > mbar for r in rows]
    for kappa in (1e-17, 1e-300):
        with pytest.raises(DomainError, match="is too small"):
            max_grover_depth(kappa)
        assert not any(r.beyond_max_depth for r in error_vs_queries(0.375, kappa, 53, 100))


def test_error_vs_queries_quantum_beats_classical_under_low_noise():
    rows = error_vs_queries(0.375, 0.001, M_max=8, shots=100)
    for row in rows[2:]:  # M = 3..8
        assert row.epsilon_min < row.classical_epsilon


# an empty sweep is refused, as run_trials refuses it; it returned no rows
@pytest.mark.parametrize("M_max", [0, -2])
def test_error_vs_queries_refuses_an_empty_sweep(M_max):
    with pytest.raises(ConfigError, match=rf"M_max={M_max} must be an integer in \[1, 2\*\*52\]"):
        error_vs_queries(0.375, 0.01, M_max=M_max, shots=100)


@pytest.mark.parametrize("a", [0.0, 1.0, -0.5, math.nan])
def test_error_vs_queries_refuses_an_amplitude_outside_0_1(a):
    with pytest.raises(DomainError, match=rf"^a={a} outside \(0, 1\)$"):
        error_vs_queries(a, 0.01, M_max=3, shots=100)


# a schedule with no information about a, and one whose information passes
# a double (2**52 shots at a = 1e-300, where the m = 0 stage gives N / a):
# contour cells read inf and 0 and crbound rows 0, with exit code 0, and the
# density refused the no-shot schedule for carrying no kappa information
NO_SHOTS = Schedule(((0, 0), (2, 0)))
OVERFLOWING = make_schedule("eis", 2, 2**52)
NONE, OVERFLOW = "information about a is zero at a=", "information about a overflows a double at a=1e-300$"
UNUSABLE = {
    "contour-no-shots": (lambda: error_vs_kappa_contour(
        np.asarray([0.3, 0.5]), np.asarray([1e-5, 0.1]), NO_SHOTS), NONE),
    "contour-overflow": (lambda: error_vs_kappa_contour(
        np.asarray([0.3, 1e-300, 2e-300]), np.asarray([1e-5, 0.1]), OVERFLOWING), OVERFLOW),
    "crbound-overflow": (lambda: error_vs_queries(1e-300, 0.0, M_max=3, shots=2**52), OVERFLOW),
    "density-no-shots": (lambda: anomaly_density(0.01, 1000, schedule=NO_SHOTS), NONE),
}


@pytest.mark.parametrize("name", list(UNUSABLE))
def test_a_sweep_refuses_unusable_information(name):
    sweep, reason = UNUSABLE[name]
    with pytest.raises(DegenerateScheduleError, match=reason):
        sweep()


def test_contour_grid_shape_and_values():
    sched = make_schedule("eis", 5, 100)
    a = np.linspace(0.1, 0.9, 5)
    k = np.geomspace(1e-4, 1e-1, 4)
    grid = error_vs_kappa_contour(a, k, sched)
    assert len(grid.a_values) == 5
    assert len(grid.kappa_values) == 4
    assert len(grid.epsilon_min) == 5 and len(grid.epsilon_min[0]) == 4
    for i, av in enumerate(grid.a_values):
        for j, kv in enumerate(grid.kappa_values):
            direct = cr_lower_bound(amplitude_point(av, kv), sched).epsilon_min
            assert grid.epsilon_min[i][j] == direct


@pytest.mark.parametrize("block", [97, None])
def test_blocked_contour_equals_one_call(monkeypatch, block):
    # 70 x 61 cells span two default blocks; each block size splits rows
    sched = make_schedule("eis", 11, 100)
    a, k = np.linspace(0.01, 0.99, 70), np.geomspace(1e-4, 1e-1, 61)
    with monkeypatch.context() as patch:
        patch.setattr(survey, "_BETA_BLOCK", a.size * k.size)
        whole = np.asarray(error_vs_kappa_contour(a, k, sched).epsilon_min)
    if block is not None:
        monkeypatch.setattr(survey, "_BETA_BLOCK", block)
    blocked = np.asarray(error_vs_kappa_contour(a, k, sched).epsilon_min)
    assert blocked.tobytes() == whole.tobytes()


def test_contour_rejects_bad_grids():
    sched = make_schedule("eis", 3, 10)
    with pytest.raises(DomainError):
        error_vs_kappa_contour(np.asarray([0.0, 0.5]), np.asarray([0.01]), sched)
    with pytest.raises(DomainError):
        error_vs_kappa_contour(np.asarray([0.5]), np.asarray([-0.1]), sched)
    with pytest.raises(DomainError):
        error_vs_kappa_contour(np.asarray([]), np.asarray([0.01]), sched)
    with pytest.raises(DomainError, match="must not be empty"):
        error_vs_kappa_contour(np.asarray([0.5]), np.asarray([]), sched)
    # a NaN passes a "some point outside" test, and kappa = inf would give nan cells
    for a, kappa in ([math.nan], [0.01]), ([0.5], [math.nan]), ([0.5], [0.01, math.inf]):
        with pytest.raises(DomainError):
            error_vs_kappa_contour(np.asarray(a), np.asarray(kappa), sched)


def test_trace_rejects_empty_grid():
    with pytest.raises(DomainError):
        _beta(np.asarray([]), 0.01, make_schedule("eis", 3, 10))


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_beta_sweeps_refuse_a_non_finite_kappa(kappa):
    with pytest.raises(DomainError, match="finite kappa"):
        anomaly_density(kappa, 5000, seed=1)


@pytest.mark.parametrize("size", [4095, 4096, 4097, 10_001])
def test_blocked_beta_grid_equals_one_call(monkeypatch, size):
    a = np.random.default_rng(size).random(size)
    sched = default_density_schedule(1e-4)
    with monkeypatch.context() as patch:
        patch.setattr(os, "cpu_count", lambda: 1)
        patch.setattr(survey, "_BETA_BLOCK", size)
        whole = _beta(a, 1e-4, sched)
    # None is what os.cpu_count returns when it cannot tell; 8 workers on
    # fewer cores with a 1 us switch interval interleave the block writes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (None, 1, 2, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            blocked = _beta(a, 1e-4, sched)
            assert blocked.dtype == whole.dtype and blocked.tobytes() == whole.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [1, 2])
def test_trace_raises_for_a_singular_point_in_a_late_block(monkeypatch, cores):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    a = np.linspace(0.01, 0.99, 3 * survey._BETA_BLOCK)
    a[-2] = 0.0
    with pytest.raises(SingularPointError):
        _beta(a, 1e-3, default_density_schedule(1e-3))


def test_bound_sweep_starts_a_pool_only_past_one_block(monkeypatch):
    import concurrent.futures
    started = []
    pool = concurrent.futures.ThreadPoolExecutor

    def spy(workers):
        started.append(workers)
        return pool(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sched = make_schedule("eis", 6, 100)
    # the default contour's 99 x 9 cells and 2,048 amplitudes are one block of 4096 // 2
    error_vs_kappa_contour(np.linspace(0.01, 0.99, 99), np.geomspace(1e-5, 1e-1, 9), sched)
    _beta(np.linspace(0.01, 0.99, 2048), 1e-3, sched)
    assert started == []
    _beta(np.linspace(0.01, 0.99, 2049), 1e-3, sched)
    assert started == [2]


def test_anomalous_row_insensitive_to_noise():
    # with a depth-limit-matched schedule per kappa, the anomalous amplitude
    # stays pinned in the 1e-3..1e-2 error band while a normal amplitude
    # improves roughly 10x per noise decade
    eps_anom = []
    eps_norm = []
    for kappa in (1e-5, 1e-4, 1e-3):
        sched = default_density_schedule(kappa)
        grid = error_vs_kappa_contour(
            np.asarray([A_ANOMALOUS, 0.375]), np.asarray([kappa]), sched
        )
        eps_anom.append(grid.epsilon_min[0][0])
        eps_norm.append(grid.epsilon_min[1][0])
    assert all(1e-3 <= e <= 1e-2 for e in eps_anom)
    assert max(eps_anom) / min(eps_anom) < 1.5
    assert 5.0 <= eps_norm[1] / eps_norm[0] <= 20.0
    assert 5.0 <= eps_norm[2] / eps_norm[1] <= 20.0


def test_error_spikes_sit_on_anomalous_targets():
    # every strong local maximum of eps_min lies within one grid cell of a
    # point flagged anomalous (beta above threshold)
    kappa = 1e-2
    sched = default_density_schedule(kappa)
    a = np.linspace(0.005, 0.995, 2000)
    grid = error_vs_kappa_contour(a, np.asarray([kappa]), sched)
    eps = np.asarray([row[0] for row in grid.epsilon_min])
    beta = _beta(a, kappa, sched)
    assert not np.isnan(beta).any()
    median = float(np.median(eps))
    spikes = [
        i
        for i in range(1, len(a) - 1)
        if eps[i] > eps[i - 1] and eps[i] > eps[i + 1] and eps[i] > 3.0 * median
    ]
    assert len(spikes) >= 2
    for i in spikes:
        assert beta[max(0, i - 1) : i + 2].max() > ANOMALY_THRESHOLD
    # the two strongest spikes are the conjugate anomalous pair
    tops = sorted(spikes, key=lambda i: eps[i], reverse=True)[:2]
    located = sorted(a[i] for i in tops)
    assert located[0] == pytest.approx(A_ANOMALOUS, abs=2e-3)
    assert located[1] == pytest.approx(math.sin(3 * math.pi / 8) ** 2, abs=2e-3)
