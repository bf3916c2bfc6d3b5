"""Forward model, parameter validation, and schedule construction."""
import json
import math

import pytest
from hypothesis import given, strategies as st

from aemle import (
    ConfigError,
    DomainError,
    Schedule,
    ScheduleKind,
    amplitude_point,
    explicit_schedule,
    ideal_good_prob,
    make_schedule,
    modified_amplitude,
    noisy_good_prob,
    schedule_from_json,
    schedule_to_json,
    total_queries,
)
from aemle.model import _MAX_LADDER_STAGES, capped_depths


def test_point_derives_theta_and_p():
    pt = amplitude_point(0.25, 0.5)
    assert pt.theta == pytest.approx(math.pi / 6, abs=1e-15)
    assert pt.p == pytest.approx(math.exp(-0.5), abs=1e-15)


@pytest.mark.parametrize("a", [-0.1, 1.1, float("nan"), float("inf")])
def test_point_rejects_bad_amplitude(a):
    with pytest.raises(DomainError):
        amplitude_point(a, 0.0)


@pytest.mark.parametrize("kappa", [-1e-9, float("nan")])
def test_point_rejects_bad_kappa(kappa):
    with pytest.raises(DomainError):
        amplitude_point(0.5, kappa)


def test_ideal_prob_endpoints():
    assert ideal_good_prob(0, amplitude_point(0.0)) == 0.0
    assert ideal_good_prob(0, amplitude_point(1.0)) == pytest.approx(1.0, abs=1e-15)
    assert ideal_good_prob(0, amplitude_point(0.375)) == pytest.approx(0.375, abs=1e-15)


def test_noiseless_limit_equals_ideal():
    pt = amplitude_point(0.375, 0.0)
    for m in range(10):
        assert noisy_good_prob(m, pt) == pytest.approx(ideal_good_prob(m, pt), abs=1e-15)


@given(
    a=st.floats(0.0, 1.0),
    kappa=st.floats(0.0, 5.0),
    m=st.integers(0, 200),
)
def test_mixture_identity(a, kappa, m):
    # P = survival * ideal + (1 - survival)/2, survival = e^{-kappa m}
    pt = amplitude_point(a, kappa)
    survival = math.exp(-kappa * m)
    mixed = survival * ideal_good_prob(m, pt) + (1.0 - survival) / 2.0
    assert noisy_good_prob(m, pt) == pytest.approx(mixed, abs=1e-12)


@given(a=st.floats(0.0, 1.0), kappa=st.floats(0.0, 5.0), m=st.integers(0, 500))
def test_noisy_prob_envelope(a, kappa, m):
    # contrast decays as e^{-kappa m} around 1/2
    pt = amplitude_point(a, kappa)
    half_width = 0.5 * math.exp(-kappa * m)
    p = noisy_good_prob(m, pt)
    assert 0.5 - half_width - 1e-12 <= p <= 0.5 + half_width + 1e-12


def test_depth_zero_is_noise_free():
    # m = 0 applies no amplification, so kappa cannot enter
    for kappa in (0.0, 0.1, 2.0):
        assert noisy_good_prob(0, amplitude_point(0.3, kappa)) == pytest.approx(0.3, abs=1e-15)


def test_make_schedule_eis_depths():
    sch = make_schedule("eis", 6, 100)
    assert sch.depths == (0, 1, 2, 4, 8, 16, 32)
    assert sch.shots == (100,) * 7
    assert sch.kind is ScheduleKind.EIS


def test_make_schedule_lis_depths():
    assert make_schedule("lis", 5, 30).depths == (0, 1, 2, 3, 4, 5)


def test_make_schedule_classical_depths():
    sch = make_schedule("classical", 4, 10)
    assert sch.depths == (0,) * 5


def test_make_schedule_powerbase_floors():
    sch = make_schedule("powerbase", 6, 100, r=2.5)
    assert sch.depths == (0, 1, 2, 6, 15, 39, 97)


@given(M=st.integers(1, 20), r=st.floats(1.01, 4.0))
def test_powerbase_depths_are_floored_powers(M, r):
    sch = make_schedule(ScheduleKind.POWER_BASE, M, 1, r=r)
    for k in range(1, M + 1):
        expected = int(math.floor(r ** (k - 1) + 1e-9))
        assert sch.depths[k] == expected


def test_powerbase_requires_base_above_one():
    with pytest.raises(ConfigError):
        make_schedule("powerbase", 3, 10, r=1.0)
    with pytest.raises(ConfigError):
        make_schedule("powerbase", 3, 10)


def test_capped_depths_stop_at_the_limit():
    assert capped_depths("eis", 35) == [0, 1, 2, 4, 8, 16, 32, 35]
    assert capped_depths("eis", 32) == [0, 1, 2, 4, 8, 16, 32]
    assert capped_depths("lis", 3) == [0, 1, 2, 3]
    # make_schedule keeps the repeated floor(1.5^1) = 1; the capped ladder drops it
    assert make_schedule("powerbase", 3, 1, r=1.5).depths == (0, 1, 1, 2)
    assert capped_depths("powerbase", 4, r=1.5) == [0, 1, 2, 3, 4]
    assert capped_depths("eis", 0) == [0]
    assert capped_depths(ScheduleKind.CLASSICAL, 50) == [0]
    with pytest.raises(ConfigError):
        capped_depths("explicit", 10)


def test_capped_depths_refuses_overlong_ladders():
    # lis has one stage per depth: [0, 1, ..., m_max] is m_max + 1 stages
    assert len(capped_depths("lis", _MAX_LADDER_STAGES - 1)) == _MAX_LADDER_STAGES
    with pytest.raises(ConfigError):
        capped_depths("lis", _MAX_LADDER_STAGES)
    with pytest.raises(ConfigError):
        capped_depths("lis", 50_000_000)
    # slow geometric ladders stay well inside the limit
    assert len(capped_depths("powerbase", 2**40, r=1.01)) < _MAX_LADDER_STAGES


def test_total_queries():
    sch = make_schedule("eis", 6, 100)
    # sum N (2m+1) = 100 * (1+3+5+9+17+33+65)
    assert total_queries(sch) == 100 * 133


def test_explicit_schedule_allows_zero_shots():
    sch = explicit_schedule([(0, 100), (3, 0), (5, 50)])
    assert sch.shots == (100, 0, 50)


def test_schedule_rejects_decreasing_depths():
    with pytest.raises(ConfigError):
        explicit_schedule([(4, 10), (2, 10)])


def test_schedule_rejects_empty():
    with pytest.raises(ConfigError):
        explicit_schedule([])


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        make_schedule("quadratic", 3, 10)


def test_modified_amplitude():
    assert modified_amplitude(0.8, math.pi / 2) == pytest.approx(0.8, abs=1e-15)
    assert modified_amplitude(0.8, 0.0) == 0.0
    assert modified_amplitude(0.5, math.pi / 4) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(DomainError):
        modified_amplitude(0.5, 2.0)


def test_schedule_json_round_trip():
    sch = make_schedule("powerbase", 4, 25, r=2.5)
    doc = json.loads(schedule_to_json(sch))
    assert doc["kind"] == "powerbase"
    assert doc["stages"][0] == {"m": 0, "shots": 25}
    back = schedule_from_json(schedule_to_json(sch))
    assert back.stages == sch.stages
    assert back.kind is sch.kind
    assert back.r == sch.r


def test_schedule_json_malformed():
    with pytest.raises(ConfigError):
        schedule_from_json('{"stages": [{"m": "x"}]}')
    with pytest.raises(ConfigError):
        schedule_from_json("[1, 2]")


def test_schedule_rejects_non_integral_counts():
    with pytest.raises(ConfigError):
        schedule_from_json('{"stages": [{"m": 1.7, "shots": 100}]}')
    with pytest.raises(ConfigError):
        schedule_from_json('{"stages": [{"m": 1, "shots": 100.9}]}')
    with pytest.raises(ConfigError):
        explicit_schedule([(0, 10), (1.7, 10)])
    for bad in (True, math.nan, math.inf, "2"):
        with pytest.raises(ConfigError):
            Schedule(stages=((bad, 100),))
        with pytest.raises(ConfigError):
            Schedule(stages=((1, bad),))
    # integral floats are counts, stored as ints
    sch = Schedule(stages=((2.0, 100), (3, 50.0)))
    assert sch.stages == ((2, 100), (3, 50))
    assert all(type(v) is int for stage in sch.stages for v in stage)
    assert schedule_from_json('{"stages": [{"m": 2.0, "shots": 10}]}').stages == ((2, 10),)
