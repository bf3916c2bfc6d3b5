"""Fisher matrix, error bounds, depth limits, and anomaly measures."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aemle import (
    ANOMALY_THRESHOLD,
    ConfigError,
    DegenerateScheduleError,
    DomainError,
    FisherMatrix,
    NotAchievableError,
    SingularPointError,
    amplitude_point,
    anomality,
    classical_bound,
    cr_lower_bound,
    explicit_schedule,
    fisher_matrix,
    make_schedule,
    max_grover_depth,
    nuisance_inflation,
    required_noise_for_error,
    saturated_schedule,
    saturation_floor,
    total_queries,
)

from oracles import fisher_enumerated

POINTS = [(0.12, 0.0), (0.3, 0.05), (0.5, 0.31), (0.62, 0.05), (0.85, 0.31)]


@pytest.mark.parametrize("a,kappa", POINTS)
@pytest.mark.parametrize(
    "depths,shots",
    [
        ((0,), (3,)),
        ((1,), (2,)),
        ((0, 1), (2, 3)),
        ((0, 1, 2), (3, 3, 3)),
        ((2, 2), (1, 2)),
    ],
)
def test_matrix_matches_enumeration(a, kappa, depths, shots):
    sched = explicit_schedule(zip(depths, shots))
    info = fisher_matrix(amplitude_point(a, kappa), sched)
    o11, o12, o22 = fisher_enumerated(depths, shots, a, kappa)
    scale = max(abs(o11), abs(o12), abs(o22))
    assert info.i11 == pytest.approx(o11, rel=1e-8, abs=1e-10 * scale)
    assert info.i12 == pytest.approx(o12, rel=1e-8, abs=1e-10 * scale)
    assert info.i22 == pytest.approx(o22, rel=1e-8, abs=1e-10 * scale)


def test_sampled_score_covariance_matches_matrix():
    # 10^6 sampled outcome vectors; empirical score covariance within 2% rel
    point = amplitude_point(0.375, 0.05)
    sched = make_schedule("eis", 3, 30)
    info = fisher_matrix(point, sched)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
    delta = 1e-6
    n_samples = 1_000_000
    s_a = np.zeros(n_samples)
    s_k = np.zeros(n_samples)
    for m, n in sched.stages:
        p0 = 0.5 - 0.5 * math.exp(-point.kappa * m) * math.cos(2 * (2 * m + 1) * point.theta)
        h = rng.binomial(n, p0, size=n_samples)

        def lp(a, kappa, h=h, m=m, n=n):
            th = math.asin(math.sqrt(a))
            p = 0.5 - 0.5 * math.exp(-kappa * m) * math.cos(2 * (2 * m + 1) * th)
            return h * math.log(p) + (n - h) * math.log1p(-p)

        s_a += (lp(point.a + delta, point.kappa) - lp(point.a - delta, point.kappa)) / (2 * delta)
        s_k += (lp(point.a, point.kappa + delta) - lp(point.a, point.kappa - delta)) / (2 * delta)
    cov = np.cov(np.vstack([s_a, s_k]))
    assert cov[0, 0] == pytest.approx(info.i11, rel=0.02)
    assert cov[0, 1] == pytest.approx(info.i12, rel=0.02)
    assert cov[1, 1] == pytest.approx(info.i22, rel=0.02)


def test_zero_shot_stage_is_inert():
    point = amplitude_point(0.42, 0.03)
    base = explicit_schedule([(0, 50), (2, 40)])
    padded = explicit_schedule([(0, 50), (1, 0), (2, 40)])
    assert fisher_matrix(point, base) == fisher_matrix(point, padded)


@given(
    a=st.floats(1e-4, 1.0 - 1e-4),
    kappa=st.floats(0.0, 1.0),
    depths=st.lists(st.integers(0, 40), min_size=1, max_size=5),
    shots=st.integers(1, 200),
)
@settings(max_examples=150, deadline=None)
def test_determinant_nonnegative(a, kappa, depths, shots):
    sched = explicit_schedule((m, shots) for m in sorted(depths))
    info = fisher_matrix(amplitude_point(a, kappa), sched)
    # Cauchy-Schwarz: det >= 0 up to rounding, scale-free tolerance
    assert info.det >= -1e-9 * info.i11 * max(info.i22, 1e-300)


def test_singular_endpoints_raise():
    sched = make_schedule("eis", 3, 10)
    with pytest.raises(SingularPointError):
        fisher_matrix(amplitude_point(0.0, 0.1), sched)
    with pytest.raises(SingularPointError):
        fisher_matrix(amplitude_point(1.0, 0.1), sched)


def test_classical_bound_closed_form():
    for a in (0.1, 0.375, 0.9):
        for M, shots in ((4, 100), (0, 57)):
            sched = make_schedule("classical", M, shots)
            res = cr_lower_bound(amplitude_point(a, 0.0), sched)
            assert res.fallback_used and not res.identifiable
            nq = total_queries(sched)
            assert res.epsilon_min == pytest.approx(classical_bound(a, nq), rel=1e-12)


def test_full_bound_beats_fallback_information():
    # joint estimation can only lose information: eps_min >= 1/sqrt(i11)
    point = amplitude_point(0.375, 0.05)
    sched = make_schedule("eis", 6, 100)
    info = fisher_matrix(point, sched)
    res = cr_lower_bound(point, sched)
    assert res.identifiable
    assert res.epsilon_min >= 1.0 / math.sqrt(info.i11) - 1e-15


def test_heisenberg_slope_noiseless():
    point = amplitude_point(0.375, 0.0)
    logs = []
    for M in range(3, 15):
        sched = make_schedule("eis", M, 100)
        logs.append(
            (math.log(total_queries(sched)), math.log(cr_lower_bound(point, sched).epsilon_min))
        )
    xs, ys = zip(*logs)
    slope = np.polyfit(xs, ys, 1)[0]
    assert -1.05 <= slope <= -0.85


@given(
    a=st.floats(0.05, 0.95),
    kappa=st.floats(1e-3, 0.5),
    M=st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_saturation_floor_bounds_eps(a, kappa, M):
    point = amplitude_point(a, kappa)
    sched = make_schedule("eis", M, 100)
    floor = saturation_floor(point, sched)
    assert cr_lower_bound(point, sched).epsilon_min >= floor * (1.0 - 1e-12)


def test_saturation_floor_domain():
    sched = make_schedule("eis", 3, 100)
    with pytest.raises(DomainError):
        saturation_floor(amplitude_point(0.3, 0.0), sched)
    with pytest.raises(DegenerateScheduleError):
        saturation_floor(amplitude_point(0.3, 0.1), make_schedule("classical", 2, 10))


@pytest.mark.parametrize(
    "kappa,expected",
    [(0.1, 4), (0.01, 49), (0.005, 99), (0.001, 499), (math.log(2), 0)],
)
def test_max_depth_values(kappa, expected):
    assert max_grover_depth(kappa) == expected


@given(kappa=st.floats(1e-6, 3.0))
@settings(max_examples=200, deadline=None)
def test_max_depth_is_maximal(kappa):
    mbar = max_grover_depth(kappa)
    decay = -math.expm1(-kappa)
    assert (2 * mbar + 1) * decay <= 1.0
    assert (2 * (mbar + 1) + 1) * decay > 1.0


def test_max_depth_rejects_zero_noise():
    with pytest.raises(DomainError):
        max_grover_depth(0.0)


def test_anomalous_amplitude_flagged():
    a_anom = math.sin(math.pi / 8) ** 2
    point = amplitude_point(a_anom, 1e-3)
    beta_eis = anomality(point, make_schedule("eis", 8, 100))
    assert beta_eis > ANOMALY_THRESHOLD
    assert beta_eis == pytest.approx(0.9995024506958015, abs=1e-10)
    beta_pb = anomality(point, make_schedule("powerbase", 8, 100, r=2.5))
    assert beta_pb < ANOMALY_THRESHOLD


@given(a=st.floats(0.02, 0.98), kappa=st.floats(1e-4, 0.5), M=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_anomality_in_unit_interval(a, kappa, M):
    beta = anomality(amplitude_point(a, kappa), make_schedule("eis", M, 50))
    assert 0.0 <= beta <= 1.0


def test_anomality_needs_depth():
    with pytest.raises(DegenerateScheduleError):
        anomality(amplitude_point(0.3, 0.1), make_schedule("classical", 3, 10))


def test_nuisance_inflation_limits():
    point = amplitude_point(0.3, 0.05)
    sched = make_schedule("eis", 5, 100)
    info = fisher_matrix(point, sched)
    eps2 = cr_lower_bound(point, sched).epsilon_min ** 2
    assert nuisance_inflation(point, sched, 1.0) == pytest.approx(eps2, rel=1e-12)
    assert nuisance_inflation(point, sched, 0.0) == pytest.approx(1.0 / info.i11, rel=1e-12)
    # linear in c
    f1 = nuisance_inflation(point, sched, 2.0)
    f2 = nuisance_inflation(point, sched, 4.0)
    f3 = nuisance_inflation(point, sched, 6.0)
    assert f3 - f2 == pytest.approx(f2 - f1, rel=1e-9)
    with pytest.raises(DomainError):
        nuisance_inflation(point, sched, -0.5)


def test_saturated_schedule_shape():
    sched = saturated_schedule(0.005, 100)
    assert sched.depths == (0, 1, 2, 4, 8, 16, 32, 64, 99)
    assert all(n == 100 for n in sched.shots)
    lis = saturated_schedule(0.1, 50, "lis")
    assert lis.depths == (0, 1, 2, 3, 4)


@pytest.mark.parametrize(
    "kappa,kind,r,depths",
    [
        (0.005, "powerbase", 2.5, (0, 1, 2, 6, 15, 39, 97, 99)),
        # floor(1.5^k) repeats 1; the repeat is dropped
        (0.005, "powerbase", 1.5, (0, 1, 2, 3, 5, 7, 11, 17, 25, 38, 57, 86, 99)),
        (0.02, "powerbase", 1.5, (0, 1, 2, 3, 5, 7, 11, 17, 24)),
        (0.005, "classical", None, (0,)),
    ],
)
def test_saturated_schedule_depth_goldens(kappa, kind, r, depths):
    assert saturated_schedule(kappa, 100, kind, r).depths == depths


@pytest.mark.parametrize("kind,r", [("powerbase", None), ("powerbase", 1.0), ("explicit", None),
                                    ("nope", None)])
def test_saturated_schedule_rejects_what_make_schedule_rejects(kind, r):
    with pytest.raises(ConfigError):
        saturated_schedule(0.01, 100, kind, r)
    with pytest.raises(ConfigError):
        make_schedule(kind, 3, 100, r)


def test_errors_and_beta_follow_the_inverse():
    point = amplitude_point(0.3, 0.05)
    sched = make_schedule("eis", 5, 100)
    info = fisher_matrix(point, sched)
    eps_a, eps_kappa = info.errors()
    assert eps_a == cr_lower_bound(point, sched).epsilon_min
    assert eps_a == pytest.approx(math.sqrt(info.i22 / info.det), rel=1e-15)
    assert eps_kappa == pytest.approx(math.sqrt(info.i11 / info.det), rel=1e-15)
    assert info.beta == anomality(point, sched)
    # kappa uninformative or the matrix singular: the one-parameter bound
    assert FisherMatrix(4.0, 0.0, 0.0).errors() == (0.5, None)
    assert FisherMatrix(4.0, 2.0, 1.0).errors() == (0.5, None)
    assert FisherMatrix(0.0, 0.0, 0.0).errors() == (math.inf, None)
    assert FisherMatrix(4.0, 0.0, 0.0).beta is None
    assert FisherMatrix(4.0, 3.0, 1.0).beta == 1.0


def test_lis_ladder_below_a_deep_cap_is_refused():
    # m-bar(1e-8) is about 5e7: one lis stage per depth would be 5e7 stages
    with pytest.raises(ConfigError):
        saturated_schedule(1e-8, 100, "lis")
    # the eis ladder at the same depth budget has 28 stages
    assert len(saturated_schedule(1e-8, 100, "eis")) == 28


def test_saturated_schedule_tiny_depth_budget():
    # m-bar = 0: only the unamplified stage remains
    sched = saturated_schedule(1.5, 40)
    assert sched.depths == (0,)


def test_required_noise_reference_value():
    kappa_bar = required_noise_for_error(0.375, 1e-4, 100)
    assert 3e-4 <= kappa_bar <= 3e-3
    assert kappa_bar == pytest.approx(1.494e-3, rel=0.02)


def test_required_noise_monotone_in_target():
    k3 = required_noise_for_error(0.375, 1e-3, 100)
    k4 = required_noise_for_error(0.375, 1e-4, 100)
    assert k4 < k3


def test_required_noise_domain_and_reachability():
    with pytest.raises(DomainError):
        required_noise_for_error(0.375, 0.7, 100)
    with pytest.raises(DomainError):
        required_noise_for_error(0.375, 1e-4, 0)
    with pytest.raises(NotAchievableError):
        required_noise_for_error(0.375, 2e-11, 100)
