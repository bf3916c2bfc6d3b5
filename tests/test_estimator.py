"""Likelihood evaluation and the adaptive grid-search estimator."""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    brute_force_mle,
    estimate_reference,
    log_likelihood_grid,
    polish,
    profile_reference,
    stage_sum_reference,
)

from aemle import (
    ConfigError,
    DegenerateDataError,
    DomainError,
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
from aemle import estimator
from aemle.estimator import _StageLikelihood, _estimate_batch


def _rows(datasets):
    """The schedule and hit rows of datasets on one schedule, as
    _StageLikelihood and _estimate_batch take them."""
    return datasets[0].depths, datasets[0].shots, [data.hits for data in datasets]


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
    # zero-shot stages add -0.0 terms; the stage sum starts from +0.0
    for stages in [((0, 0, 0),), tuple((m, 0, 0) for m in range(12))]:
        value = log_likelihood(ExperimentData(stages=stages), 0.3, 0.1)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


# a in {0, 1} puts P at 0 or 1 on the m = 0 stages at every kappa, and on the
# others at kappa = 0; at kappa = 1e-10 the m = 1 stage's P is about 5e-11
_CLAMP_DATA = ExperimentData(stages=((0, 50, 0), (0, 40, 40), (1, 50, 50), (1, 30, 0),
                                     (4, 60, 17), (9, 70, 70)))


@pytest.mark.parametrize("kappas, clamps", [
    ([1e-10, 3e-10, 1.0, 50.0], [True, False]),
    ([1e-10], [True, False]),
    ([0.0, 1.0], [True, True]),
    ([1e-11], [True, True]),
    ([1e-11, 1e-10, 2.0], [True, True]),
], ids=["above-floor", "at-floor", "zero", "below-floor", "straddling"])
def test_clamp_is_skipped_only_at_or_above_the_kappa_floor(kappas, clamps, monkeypatch):
    # the clamp goes from the m >= 1 stages where no kappa of the call is below
    # _KAPPA_GRID_FLOOR; the grid keeps the bits of the oracle, which always clamps
    taken = []

    def spy(p, q, hits, misses, clamp):
        taken.append(clamp)
        weigh(p, q, hits, misses, clamp)

    weigh = estimator._weigh
    monkeypatch.setattr(estimator, "_weigh", spy)
    d = _CLAMP_DATA
    a_grid = np.asarray([[0.0, 1e-300, 0.25, 0.5, 1.0 - 2**-53, 1.0]])
    k_grid = np.asarray([kappas])
    got = _StageLikelihood(*_rows([d])).grid(slice(0, 1), len(d.stages), a_grid, k_grid)[0]
    ref = log_likelihood_grid(d.depths, d.shots, d.hits, a_grid[0], k_grid[0])
    assert taken == clamps
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize(
    "a,kappa",
    [(math.nan, 0.1), (0.3, math.nan), (0.3, math.inf), (math.inf, 0.1),
     (0.3, -1.0), (2.0, 0.1), (-1e-300, 0.1)],
)
def test_log_likelihood_rejects_points_outside_the_domain(a, kappa):
    data = ExperimentData(stages=((0, 50, 10), (1, 50, 20)))
    with pytest.raises(DomainError):
        log_likelihood(data, a, kappa)


def test_data_validation():
    with pytest.raises(ConfigError):
        ExperimentData(stages=())
    with pytest.raises(ConfigError):
        ExperimentData(stages=((0, 10, 11),))
    with pytest.raises(ConfigError):
        ExperimentData(stages=((2, 10, 1), (1, 10, 1)))
    with pytest.raises(ConfigError):
        ExperimentData(stages=((-1, 10, 1),))
    with pytest.raises(ConfigError):
        ExperimentData(stages=((0, -1, 0),))
    assert ExperimentData(stages=((0, 10, 1), (2**52, 10, 1))).depths[-1] == 2**52
    with pytest.raises(ConfigError, match=r"depth m=4503599627370497 must be an integer in \[0, 2\*\*52\]"):
        ExperimentData(stages=((0, 10, 1), (2**52 + 1, 10, 1)))


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
    # the cap bounds the kernel's workspace, whatever the block size
    with pytest.raises(ConfigError):
        MleConfig(divisions_per_stage=257)
    assert MleConfig(divisions_per_stage=256).divisions_per_stage == 256


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
        # a 32 x 32 grid per stage, then four 17 x 17 zoom rounds
        assert result.likelihood_evaluations == 32 * 32 * (M + 1) + 4 * 17 * 17
    # this ladder repeats its last 4 stages' grids, and each still counts its grid
    data = sample_counts(amplitude_point(0.3, 1e-3), make_schedule("eis", 20, 1000), seed=0)
    assert mle_grid_adaptive(data).likelihood_evaluations == 32 * 32 * 21 + 4 * 17 * 17


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


def test_kappa_estimates_and_boxes_stay_on_the_grid_floor():
    # every kappa grid's low end is floored, so the Fisher calls on kappa_hat
    # need no clamp of their own
    plateau = ExperimentData(stages=((0, 100, 37), *((m, 100, 50) for m in (1, 2, 4, 8))))
    floor = sample_counts(amplitude_point(0.3, 0.0), make_schedule("eis", 6, 1000), 5)
    seeded = [sample_counts(amplitude_point(0.3, kappa), make_schedule(kind, 5, 100), seed)
              for kappa in (0.0, 0.5) for kind in ("lis", "eis") for seed in range(4)]
    results = [mle_grid_adaptive(data) for data in (plateau, floor, *seeded)]
    assert results[0].kappa_hat > 10.0  # on the kappa -> inf plateau
    assert results[1].kappa_hat == estimator._KAPPA_GRID_FLOOR
    for result in results:
        assert result.kappa_hat >= estimator._KAPPA_GRID_FLOOR
        assert all(t.kappa_lo >= estimator._KAPPA_GRID_FLOOR for t in result.stage_trace)


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


@pytest.mark.parametrize("stages", [
    ((0, 100, 0), (1, 100, 0)),
    ((0, 100, 0), (2, 100, 0), (4, 100, 0)),
    ((0, 100, 100), (1, 100, 100)),
    ((0, 100, 0), (0, 100, 100)),  # the box search misses its maximum, a = 0.5
], ids=["no-hits", "no-hits-eis", "all-hits", "saturated-classical"])
def test_profile_refuses_what_the_estimate_refuses(stages):
    data = ExperimentData(stages=stages)
    with pytest.raises(DegenerateDataError):
        mle_grid_adaptive(data)
    with pytest.raises(DegenerateDataError):
        mle_profile_1d(data, kappa_fixed=0.01)


def test_profile_at_the_largest_finite_kappa():
    # at kappa near 1e308 every amplified stage's decay is exp(-inf) = 0, as
    # at 1e300: the same estimate, with no numpy warning.  Only the m = 0
    # stage then carries information, so the profile MLE is its hit rate
    # h0 / N0; the last zoom round's a-spacing here is about 7e-5.
    data = sample_counts(amplitude_point(0.3, 0.01), make_schedule("eis", 4, 100), seed=1)
    m0, n0, h0 = data.stages[0]
    assert m0 == 0
    a_hat = mle_profile_1d(data, kappa_fixed=1e300)
    assert a_hat == pytest.approx(h0 / n0, abs=1e-4)
    assert mle_profile_1d(data, kappa_fixed=1e308) == a_hat


# The final zoom's promise, against the brute-force MLE: the estimate tops
# the mode it lies in, to within TOL_NATS, and when that mode holds the
# global maximum, so does the estimate.  A dataset whose global maximum lies
# in another mode (the oracle's polish from the estimate stops below it) is
# the search's wrong-mode defect, pinned below, which a local zoom cannot
# mend.  The ladders are shallow enough for the oracle (depth <= 16), with
# 100-3,000 shots per stage.
TOL_NATS = 0.5
ORACLE_LADDERS = [("eis", None, 4), ("lis", None, 8), ("powerbase", 2.5, 3)]


@given(
    ladder=st.sampled_from(ORACLE_LADDERS),
    depth=st.floats(0.0, 1.0),
    log_shots=st.floats(2.0, 3.5),
    a=st.floats(0.02, 0.98),
    log_kappa=st.floats(math.log(1e-4), math.log(0.3)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_estimate_tops_its_mode_against_brute_force_mle(
    ladder, depth, log_shots, a, log_kappa, seed
):
    kind, r, max_M = ladder
    schedule = make_schedule(kind, 1 + int(depth * (max_M - 1)), round(10**log_shots), r)
    data = sample_counts(amplitude_point(a, math.exp(log_kappa)), schedule, seed)
    # a saturated m = 0 stage is the box-collapse defect, pinned below
    assume(0 < data.hits[0] < data.shots[0])
    est = mle_grid_adaptive(data)
    ll = est.log_likelihood_at_max
    global_ll = brute_force_mle(data)[2]
    mode_ll = polish(data, est.a_hat, est.kappa_hat)[2]
    assert ll <= global_ll + 1e-9 * abs(global_ll)
    assert ll >= mode_ll - TOL_NATS
    if mode_ll >= global_ll - TOL_NATS:
        assert ll >= global_ll - TOL_NATS


# Two datasets on which the 64 x 64 search without a zoom stopped well below
# the likelihood at the true point (10.94 and 6.75 nats; datasets 1530 and
# 1477 of `scripts/run_mle_misses.py --seed 123`): the estimate must now
# reach it, as a maximum always does, to within 0.1 nats.
ZOOM_MENDED = [
    (0.8466456740580067, 0.009292712117909436,
     ((0, 7324, 6219), (1, 7324, 972), (2, 7324, 1283), (4, 7324, 5677), (8, 7324, 5169),
      (16, 7324, 4147), (32, 7324, 2425), (64, 7324, 1645))),
    (0.8166907988382714, 0.0943962477587193,
     ((0, 3918, 3212), (1, 3918, 387), (2, 3918, 1511), (4, 3918, 1793), (8, 3918, 1271))),
]


@pytest.mark.parametrize("a,kappa,stages", ZOOM_MENDED)
def test_estimate_reaches_the_true_point_likelihood(a, kappa, stages):
    data = ExperimentData(stages=stages)
    est = mle_grid_adaptive(data)
    assert est.log_likelihood_at_max >= log_likelihood(data, a, kappa) - 0.1
    if max(data.depths) <= 16:
        assert est.log_likelihood_at_max >= brute_force_mle(data)[2] - 0.1


@pytest.mark.xfail(
    strict=True,
    reason="wrong mode: the stage search settles on a local maximum 15.5 nats below "
    "the true point, which a local zoom cannot leave",
)
def test_wrong_mode_on_a_13_stage_eis_dataset():
    # dataset 1165 of `scripts/run_mle_misses.py --seed 123`: a = 0.0388,
    # kappa = 9.4e-4, 118 shots per stage
    data = ExperimentData(stages=(
        (0, 118, 6), (1, 118, 39), (2, 118, 83), (4, 118, 113), (8, 118, 3), (16, 118, 8),
        (32, 118, 8), (64, 118, 27), (128, 118, 48), (256, 118, 98), (512, 118, 66),
        (1024, 118, 67), (2048, 118, 82),
    ))
    est = mle_grid_adaptive(data)
    assert est.log_likelihood_at_max >= log_likelihood(data, 0.03879450784910759,
                                                       0.0009427256678587151) - 0.1


# Draws of test_estimate_tops_its_mode_against_brute_force_mle whose estimate
# stops short of the top of its own mode, which is the global maximum:
# - LIS M = 6, 2,639 shots, a = 0.54296875, kappa = e^-1.875, seed 162: the
#   estimate reads -11,904.783 and the mode top -11,904.081 (0.70 nats);
# - EIS M = 2, 1,655 shots, a = 0.068359375, kappa = e^-6, seed 1448: the
#   estimate reads -1,949.201 and the mode top -1,948.670 (0.53 nats).
SHORT_OF_MODE_TOP = [
    ((0, 2639, 1414), (1, 2639, 1051), (2, 2639, 1732), (3, 2639, 889), (4, 2639, 1842),
     (5, 2639, 824), (6, 2639, 1779)),
    ((0, 1655, 117), (1, 1655, 863), (2, 1655, 1554)),
]


@pytest.mark.xfail(
    strict=True,
    reason="short of the mode top: the estimate stops 0.53-0.70 nats below the top of "
    "its own mode, which holds the global maximum, past TOL_NATS",
)
@pytest.mark.parametrize("stages", SHORT_OF_MODE_TOP, ids=["lis-7-stages", "eis-3-stages"])
def test_estimate_short_of_its_mode_top(stages):
    data = ExperimentData(stages=stages)
    est = mle_grid_adaptive(data)
    assert est.log_likelihood_at_max >= polish(data, est.a_hat, est.kappa_hat)[2] - TOL_NATS


@pytest.mark.xfail(
    strict=True,
    reason="box collapse: with no hit at m = 0 the stage-0 estimate is a = 0, the "
    "Fisher box at the inset a is 4e-5 wide, and the search stays 4.1 nats below the maximum",
)
def test_box_collapse_after_a_hitless_classical_stage():
    # sampled at a = 0.0215, kappa = 0.05; the MLE is near a = 0.024, kappa = 0
    data = ExperimentData(stages=((0, 100, 0), (1, 100, 16), (2, 100, 54)))
    est = mle_grid_adaptive(data)
    assert est.log_likelihood_at_max >= brute_force_mle(data)[2] - 0.1


# Verbatim mle_profile_1d estimates (as float.hex) on three seeded datasets,
# keyed by (a, kappa, kind, M, shots, seed, kappa_fixed): any change to the
# profile search's boxes, grids, zoom or tie-breaking shows up as a changed bit.
PROFILE_GOLDENS = [
    ((0.375, 0.067, "eis", 5, 100, 2, 0.067), "0x1.8cb2ef4bdd27ap-2"),
    ((0.2, 0.01, "lis", 8, 200, 5, 0.0), "0x1.9eb360a5d4991p-3"),
    ((0.7, 0.03, "powerbase", 6, 150, 9, 0.02), "0x1.68ce94797b534p-1"),
]


@pytest.mark.simd_golden
@pytest.mark.parametrize("case,expected", PROFILE_GOLDENS)
def test_profile_goldens(case, expected):
    a, kappa, kind, M, shots, seed, kappa_fixed = case
    r = 2.5 if kind == "powerbase" else None
    data = sample_counts(amplitude_point(a, kappa), make_schedule(kind, M, shots, r), seed)
    assert mle_profile_1d(data, kappa_fixed).hex() == expected


@st.composite
def stage_counts(draw):
    """Random staged counts: up to 64 stages, depths up to 2**10, shots up to
    1e4, with saturated hit counts (h = 0 or h = N) drawn often.  The leading
    run of m = 0 stages, which the kernel computes without kappa, has any
    length: none (the first depth is >= 1), some stages, or every stage (a
    classical schedule)."""
    n_stages = draw(st.integers(1, 64))
    n_zero = draw(st.integers(0, n_stages))
    tail = draw(st.lists(st.integers(1, 2**10), min_size=n_stages - n_zero,
                         max_size=n_stages - n_zero))
    stages = []
    for m in [0] * n_zero + sorted(tail):
        n = draw(st.integers(0, 10_000))
        h = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
        stages.append((m, n, h))
    return ExperimentData(stages=tuple(stages))


@given(
    data=stage_counts(),
    draws=st.data(),
    div=st.integers(8, 64),
    profile=st.booleans(),
    profile_kappa=st.one_of(st.just(0.0), st.floats(1e-10, 2.0)),
    prefix=st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_stage_first_kernel_is_bit_identical_to_broadcast_formula(
    data, draws, div, profile, profile_kappa, prefix
):
    # up to four more datasets on the same schedule, every dataset on its own
    # grid, evaluated in one call on a subset of rows in any order
    others = draws.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=len(data.stages),
                                          max_size=len(data.stages)), max_size=4))
    datasets = [data] + [
        ExperimentData(stages=tuple((m, n, round(u * n)) for (m, n, _), u in zip(data.stages, us)))
        for us in others
    ]
    rows = np.asarray(draws.draw(st.permutations(range(len(datasets)))))
    rows = rows[: draws.draw(st.integers(1, len(rows)))]
    a_grids, k_grids = [], []
    for _ in rows:
        a_box = draws.draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
        k_box = draws.draw(st.tuples(st.floats(1e-10, 2.0), st.floats(1e-10, 2.0)))
        a_grids.append(np.linspace(min(a_box), max(a_box), div))
        k_grids.append(
            [profile_kappa] if profile else np.geomspace(min(k_box), max(k_box), div)
        )
    a_grids, k_grids = np.asarray(a_grids), np.asarray(k_grids)
    n_stages = 1 + int(prefix * (len(data.stages) - 1))
    lik = _StageLikelihood(*_rows(datasets))
    # a stage prefix, then every stage on the same workspace
    for stages in (n_stages, len(data.stages)):
        got = lik.grid(rows, stages, a_grids, k_grids)
        for row, t in enumerate(rows):
            d = datasets[t]
            ref = log_likelihood_grid(
                d.depths[:stages], d.shots[:stages], d.hits[:stages], a_grids[row], k_grids[row]
            )
            assert np.array_equal(got[row], ref)
            assert np.array_equal(np.signbit(got[row]), np.signbit(ref))


# One dataset per kernel call, and every dataset of a stage in one call: the
# estimates, traces, evaluation counts and profiles keep the reference's bits.
@pytest.mark.parametrize("block_cells", [1, 2**30])
@pytest.mark.parametrize("kind, M", [("eis", 3), ("classical", 3), ("lis", 20)])
def test_results_do_not_depend_on_the_block_size(monkeypatch, block_cells, kind, M):
    monkeypatch.setattr(estimator, "_BLOCK_CELLS", block_cells)
    schedule = make_schedule(kind, M, 40)
    point = amplitude_point(0.3, 0.05)
    batch = [sample_counts(point, schedule, seed) for seed in range(6)]
    got = [repr(result) for result in _estimate_batch(*_rows(batch), MleConfig())]
    assert got == [repr(estimate_reference(data)) for data in batch]
    for data in batch[:2]:
        assert mle_profile_1d(data, 0.05).hex() == profile_reference(data, 0.05).hex()


# The stage search keeps each point's Fisher terms of every stage, also at a
# fixed kappa below the grid floor, where every denominator is still at
# least the sin^2 of a nonzero double: one _element_terms call per point,
# each over the whole schedule, and the prefix sums of the reference, which
# builds each prefix's Fisher matrix alone.
@pytest.mark.parametrize("kind, M", [("eis", 30), ("lis", 40)])
@pytest.mark.parametrize("kappa_fixed", [0.0, 1e-11])
def test_profile_fisher_terms_span_the_schedule_below_the_kappa_floor(
    monkeypatch, kind, M, kappa_fixed
):
    data = sample_counts(amplitude_point(0.3, 0.0), make_schedule(kind, M, 50), seed=3)
    expected = profile_reference(data, kappa_fixed).hex()
    calls = []

    def spy(a, kappa, weights):
        calls.append((a.tobytes(), weights[0].shape[-1]))
        return element_terms(a, kappa, weights)

    element_terms = estimator._element_terms
    monkeypatch.setattr(estimator, "_element_terms", spy)
    assert mle_profile_1d(data, kappa_fixed).hex() == expected
    assert calls and {stages for _, stages in calls} == {M + 1}
    assert all(this != last for (this, _), (last, _) in zip(calls[1:], calls))


@pytest.mark.parametrize("n_stages", [*range(1, 65), 129, 200, 300])
def test_stage_sum_matches_numpy_reduction_order(n_stages):
    # The kernel sums its stage-first workspace with .sum(axis=0) and the
    # reference adds stages in a loop; both must be the in-order sum from
    # +0.0.  Magnitudes spread over 16 decades, so any other summation order
    # rounds differently; the zero rows pin the sign of an all-zero sum.
    rng = np.random.default_rng(n_stages)
    stage_last = rng.standard_normal((33, 17, n_stages)) * 10.0 ** rng.integers(
        -8, 8, (33, 17, n_stages)
    )
    stage_last[0, 0] = -0.0
    stage_last[0, 1] = 0.0
    expected = stage_sum_reference(stage_last)
    got = np.ascontiguousarray(np.moveaxis(stage_last, -1, 0)).sum(axis=0)
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
