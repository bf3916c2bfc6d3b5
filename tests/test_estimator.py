"""Likelihood evaluation and the adaptive grid-search estimator."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import log_likelihood_grid

from aemle import (
    ConfigError,
    DegenerateDataError,
    ExperimentData,
    MleConfig,
    amplitude_point,
    cr_lower_bound,
    data_from_json,
    data_to_json,
    log_likelihood,
    make_schedule,
    mle_grid_adaptive,
    mle_profile_1d,
    noisy_good_prob,
    sample_counts,
)
from aemle.estimator import _StageLikelihood, _stage_sum


def binomial_log_pmf(n: int, h: int, p: float) -> float:
    return math.log(math.comb(n, h)) + h * math.log(p) + (n - h) * math.log1p(-p)


def test_log_likelihood_matches_binomial_pmf():
    # model lnL differs from the sum of binomial log-pmfs by the constant
    # sum of log-binomial coefficients
    data = ExperimentData(stages=((0, 100, 37), (1, 100, 80), (4, 100, 21)))
    a, kappa = 0.36, 0.04
    point = amplitude_point(a, kappa)
    expected = 0.0
    for m, n, h in data.stages:
        p = noisy_good_prob(m, point)
        expected += binomial_log_pmf(n, h, p) - math.log(math.comb(n, h))
    assert log_likelihood(data, a, kappa) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_finite_at_extremes():
    data = ExperimentData(stages=((0, 50, 0), (1, 50, 50)))
    assert math.isfinite(log_likelihood(data, 0.0, 0.0))
    assert math.isfinite(log_likelihood(data, 1.0, 0.0))
    assert math.isfinite(log_likelihood(data, 0.5, 10.0))


def test_data_validation():
    with pytest.raises(ConfigError):
        ExperimentData(stages=())
    with pytest.raises(ConfigError):
        ExperimentData(stages=((0, 10, 11),))
    with pytest.raises(ConfigError):
        ExperimentData(stages=((2, 10, 1), (1, 10, 1)))
    with pytest.raises(ConfigError):
        ExperimentData(stages=((-1, 10, 1),))


def test_data_json_round_trip():
    data = ExperimentData(stages=((0, 100, 37), (2, 50, 11)))
    doc = json.loads(data_to_json(data))
    assert doc["stages"][1] == {"m": 2, "shots": 50, "hits": 11}
    assert data_from_json(data_to_json(data)) == data
    with pytest.raises(ConfigError):
        data_from_json('{"stages": [{"m": 0}]}')
    with pytest.raises(ConfigError):
        data_from_json("not json")


def test_config_validation():
    with pytest.raises(ConfigError):
        MleConfig(divisions_per_stage=7)


def test_degenerate_data_raises_only_on_saturated_classical():
    with pytest.raises(DegenerateDataError):
        mle_grid_adaptive(ExperimentData(stages=((0, 100, 0),)))
    with pytest.raises(DegenerateDataError):
        mle_grid_adaptive(ExperimentData(stages=((0, 100, 100), (0, 40, 0))))
    # interior hits: fine
    mle_grid_adaptive(ExperimentData(stages=((0, 100, 37),)))
    # amplified stages with no hit at all still pin a to the boundary
    with pytest.raises(DegenerateDataError):
        mle_grid_adaptive(ExperimentData(stages=((0, 100, 0), (1, 100, 0))))
    # an amplified stage with interior hits: fine
    mle_grid_adaptive(ExperimentData(stages=((0, 100, 0), (1, 100, 3))))


def test_degenerate_rule_needs_hits_and_misses_somewhere():
    # a zero-shot stage next to all-hit stages: still every hit count equals its shots
    with pytest.raises(DegenerateDataError):
        mle_grid_adaptive(ExperimentData(stages=((0, 0, 0), (4, 30, 30))))
    # every stage saturated, but hits and misses both occur: a is interior
    result = mle_grid_adaptive(ExperimentData(stages=((0, 100, 0), (1, 100, 100))))
    assert 0.0 < result.a_hat < 1.0
    # zero-shot stages next to informative ones do not block an estimate
    mle_grid_adaptive(ExperimentData(stages=((0, 0, 0), (1, 100, 40), (2, 100, 70))))


def test_classical_stage_estimates_hit_rate():
    result = mle_grid_adaptive(ExperimentData(stages=((0, 100, 37),)))
    # answer lies within one grid cell of h/N
    cell = 1.0 / 63
    assert abs(result.a_hat - 0.37) <= cell
    assert not result.kappa_identifiable
    # unidentifiable kappa pinned at the log-midpoint of the init range
    assert result.kappa_hat == pytest.approx(math.sqrt(1e-6 * 2.0), rel=1e-12)


def test_evaluation_count_is_linear_in_stages():
    point = amplitude_point(0.375, 0.067)
    for M in range(1, 7):
        sched = make_schedule("eis", M, 100)
        data = sample_counts(point, sched, seed=11)
        result = mle_grid_adaptive(data)
        assert result.likelihood_evaluations == 64 * 64 * (M + 1)


def test_stage_never_loses_to_carried_estimate():
    point = amplitude_point(0.375, 0.067)
    data = sample_counts(point, make_schedule("eis", 6, 100), seed=3)
    result = mle_grid_adaptive(data)
    for trace in result.stage_trace[1:]:
        assert trace.best_ll >= trace.carried_ll - 1e-12


def test_recovers_simulated_truth():
    point = amplitude_point(0.375, 0.067)
    sched = make_schedule("eis", 6, 100)
    data = sample_counts(point, sched, seed=5)
    result = mle_grid_adaptive(data)
    eps = cr_lower_bound(point, sched).epsilon_min
    assert abs(result.a_hat - point.a) < 5 * eps
    assert 0.0 < result.kappa_hat < 0.5
    assert result.kappa_identifiable
    assert result.anomality is not None


@given(seed=st.integers(0, 30))
@settings(max_examples=30, deadline=None)
def test_estimate_stays_in_domain(seed):
    point = amplitude_point(0.731, 0.12)
    data = sample_counts(point, make_schedule("eis", 4, 50), seed=seed)
    result = mle_grid_adaptive(data)
    assert 0.0 <= result.a_hat <= 1.0
    assert result.kappa_hat >= 0.0


def test_max_stages_guard():
    # data read from a file may have any number of stages; 64 are allowed
    data = ExperimentData(stages=tuple((m, 5, 2) for m in range(65)))
    with pytest.raises(ConfigError):
        mle_grid_adaptive(data)
    with pytest.raises(ConfigError):
        mle_profile_1d(data, kappa_fixed=0.01)
    at_cap = ExperimentData(stages=data.stages[:64])
    mle_grid_adaptive(at_cap, MleConfig(divisions_per_stage=8))
    mle_profile_1d(at_cap, kappa_fixed=0.01, config=MleConfig(divisions_per_stage=8))


def test_estimate_is_deterministic():
    data = sample_counts(amplitude_point(0.375, 0.067), make_schedule("eis", 5, 100), seed=2)
    first = mle_grid_adaptive(data)
    second = mle_grid_adaptive(data)
    assert (first.a_hat, first.kappa_hat) == (second.a_hat, second.kappa_hat)
    assert first.log_likelihood_at_max == second.log_likelihood_at_max
    assert first.fisher_at_estimate == second.fisher_at_estimate
    assert first.stage_trace[1:] == second.stage_trace[1:]


def test_profile_recovers_amplitude_at_true_kappa():
    point = amplitude_point(0.42, 0.05)
    sched = make_schedule("eis", 6, 200)
    data = sample_counts(point, sched, seed=9)
    a_hat = mle_profile_1d(data, kappa_fixed=0.05)
    eps = cr_lower_bound(point, sched).epsilon_min
    assert abs(a_hat - point.a) < 6 * eps


def test_profile_rejects_negative_kappa():
    data = ExperimentData(stages=((0, 10, 4),))
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            mle_profile_1d(data, kappa_fixed=bad)


# Verbatim mle_profile_1d estimates (as float.hex) on three seeded datasets,
# keyed by (a, kappa, kind, M, shots, seed, kappa_fixed): any change to the
# profile search's boxes, grids or tie-breaking shows up as a changed bit.
PROFILE_GOLDENS = [
    ((0.375, 0.067, "eis", 5, 100, 2, 0.067), "0x1.8ccfc78610f29p-2"),
    ((0.2, 0.01, "lis", 8, 200, 5, 0.0), "0x1.9ee30523a70d9p-3"),
    ((0.7, 0.03, "powerbase", 6, 150, 9, 0.02), "0x1.68bd87881932ap-1"),
]


@pytest.mark.parametrize("case,expected", PROFILE_GOLDENS)
def test_profile_goldens(case, expected):
    a, kappa, kind, M, shots, seed, kappa_fixed = case
    r = 2.5 if kind == "powerbase" else None
    data = sample_counts(amplitude_point(a, kappa), make_schedule(kind, M, shots, r), seed)
    assert mle_profile_1d(data, kappa_fixed).hex() == expected


@st.composite
def stage_counts(draw):
    """Random staged counts: up to 64 stages, depths up to 2**10, shots up to
    1e4, with saturated hit counts (h = 0 or h = N) drawn often."""
    n_stages = draw(st.integers(1, 64))
    depths = sorted(draw(st.lists(st.integers(0, 2**10), min_size=n_stages, max_size=n_stages)))
    stages = []
    for m in depths:
        n = draw(st.integers(0, 10_000))
        h = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
        stages.append((m, n, h))
    return ExperimentData(stages=tuple(stages))


@given(
    data=stage_counts(),
    div=st.integers(8, 64),
    profile=st.booleans(),
    a_box=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    k_box=st.tuples(st.floats(1e-10, 2.0), st.floats(1e-10, 2.0)),
    prefix=st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_stage_first_kernel_is_bit_identical_to_broadcast_formula(
    data, div, profile, a_box, k_box, prefix
):
    a_grid = np.linspace(min(a_box), max(a_box), div)
    k_grid = np.asarray([k_box[0]]) if profile else np.geomspace(min(k_box), max(k_box), div)
    n_stages = 1 + int(prefix * (len(data.stages) - 1))
    got = _StageLikelihood([data], div, len(k_grid)).grid(0, n_stages, a_grid, k_grid)
    ref = log_likelihood_grid(
        data.depths[:n_stages], data.shots[:n_stages], data.hits[:n_stages], a_grid, k_grid
    )
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("n_stages", [*range(1, 65), 129, 200, 300])
def test_stage_sum_matches_numpy_reduction_order(n_stages):
    # magnitudes spread over 16 decades, so any other summation order rounds
    # differently; the zero rows pin the sign of an all-zero sum
    rng = np.random.default_rng(n_stages)
    stage_last = rng.standard_normal((33, 17, n_stages)) * 10.0 ** rng.integers(
        -8, 8, (33, 17, n_stages)
    )
    stage_last[0, 0] = -0.0
    stage_last[0, 1] = 0.0
    expected = np.sum(stage_last, axis=-1)
    got = _stage_sum(np.ascontiguousarray(np.moveaxis(stage_last, -1, 0)))
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_data_rejects_non_integral_stage_values():
    with pytest.raises(ConfigError):
        ExperimentData(stages=((0, 10, 4), (1.7, 10, 5)))
    with pytest.raises(ConfigError):
        ExperimentData(stages=((0, 10.5, 4),))
    with pytest.raises(ConfigError):
        ExperimentData(stages=((0, 10, 4.2),))
    with pytest.raises(ConfigError):
        data_from_json('{"stages": [{"m": 1.7, "shots": 10, "hits": 5}]}')
    with pytest.raises(ConfigError):
        data_from_json('{"stages": [{"m": 1, "shots": "10", "hits": 5}]}')
    # integral floats are counts, stored as ints
    data = data_from_json('{"stages": [{"m": 2.0, "shots": 10, "hits": 5.0}]}')
    assert data.stages == ((2, 10, 5),)
    assert all(type(v) is int for v in data.stages[0])
