"""Forward model, parameter validation, and schedule construction."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aemle import (
    ConfigError,
    DomainError,
    Schedule,
    ScheduleKind,
    amplitude_point,
    make_schedule,
    noisy_good_prob,
    schedule_to_json,
    total_queries,
)
from aemle.model import _MAX_M, _integral, capped_depths


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


def _ideal(m, pt):
    # noiseless good-state probability sin^2((2m+1) theta_a)
    return math.sin((2 * m + 1) * pt.theta) ** 2


def test_ideal_prob_endpoints():
    # kappa = 0 is the noiseless model
    assert noisy_good_prob(0, amplitude_point(0.0)) == 0.0
    assert noisy_good_prob(0, amplitude_point(1.0)) == pytest.approx(1.0, abs=1e-15)
    assert noisy_good_prob(0, amplitude_point(0.375)) == pytest.approx(0.375, abs=1e-15)


def test_noiseless_limit_equals_ideal():
    pt = amplitude_point(0.375, 0.0)
    for m in range(10):
        assert noisy_good_prob(m, pt) == pytest.approx(_ideal(m, pt), abs=1e-15)


@given(
    a=st.floats(0.0, 1.0),
    kappa=st.floats(0.0, 5.0),
    m=st.integers(0, 200),
)
def test_mixture_identity(a, kappa, m):
    # P = survival * ideal + (1 - survival)/2, survival = e^{-kappa m}
    pt = amplitude_point(a, kappa)
    survival = math.exp(-kappa * m)
    mixed = survival * _ideal(m, pt) + (1.0 - survival) / 2.0
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
    assert capped_depths(35) == [0, 1, 2, 4, 8, 16, 32, 35]
    assert capped_depths(32) == [0, 1, 2, 4, 8, 16, 32]
    assert capped_depths(0) == [0]
    # make_schedule keeps the repeated floor(1.5^1) = 1
    assert make_schedule("powerbase", 3, 1, r=1.5).depths == (0, 1, 1, 2)


def _capped_depths_reference(m):
    """The powers of two below m after 0, then m: integer arithmetic only."""
    if m < 1:
        return [0]
    return [0] + [2**j for j in range(m.bit_length()) if 2**j < m] + [m]


_DEEP_LIMITS = [2**k + d for k in range(1, 53) for d in (-1, 0, 1)]


@pytest.mark.parametrize("limits", [range(4097), _DEEP_LIMITS], ids=["0-4096", "2^k+-1"])
def test_capped_depths_match_the_integer_reference(limits):
    for m in limits:
        assert capped_depths(m) == _capped_depths_reference(m), m
    # an EIS ladder up to depth 2^52, about the deepest m-bar allowed, has 54 stages
    assert len(capped_depths(2**52)) == 54


@pytest.mark.parametrize("kind,r", [("powerbase", None), ("powerbase", 1.0), ("explicit", None),
                                    ("nope", None)])
def test_make_schedule_rejects_bad_kinds(kind, r):
    with pytest.raises(ConfigError):
        make_schedule(kind, 3, 100, r)


def test_depths_stop_at_two_to_the_52():
    assert Schedule(((0, 1), (2**52, 1))).depths[-1] == 2**52
    with pytest.raises(ConfigError, match=r"depth m=4503599627370497 must be an integer in \[0, 2\*\*52\]"):
        Schedule(((0, 1), (2**52 + 1, 1)))
    # the EIS ladder reaches 2**52 at M = 53; the next depth is refused
    assert make_schedule("eis", 53, 1).depths[-1] == 2**52
    with pytest.raises(ConfigError, match="eis ladder passes depth 2\\*\\*52 at stage 54"):
        make_schedule("eis", 54, 1)
    # a huge base is refused at its first deep depth, never raised to a power
    with pytest.raises(ConfigError, match="at stage 2"):
        make_schedule("powerbase", _MAX_M, 1, r=1e300)


@pytest.mark.parametrize("kind", ["lis", "classical"])
def test_generated_schedules_stop_at_the_stage_cap(kind):
    # the depth ceiling does not bound these ladders: 2**52 stages asked for
    # memory until it ran out
    assert len(make_schedule(kind, _MAX_M, 1)) == _MAX_M + 1
    for M in (_MAX_M + 1, 2**52):
        with pytest.raises(ConfigError, match=rf"^M={M} must be an integer in \[0, {_MAX_M}\]$"):
            make_schedule(kind, M, 1)


@pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf])
def test_powerbase_requires_a_finite_base(r):
    with pytest.raises(ConfigError, match="finite r > 1"):
        make_schedule("powerbase", 3, 10, r)
    with pytest.raises(ConfigError, match="finite r > 1"):
        Schedule(stages=((0, 10),), kind=ScheduleKind.POWER_BASE, r=r)


def test_total_queries():
    sch = make_schedule("eis", 6, 100)
    # sum N (2m+1) = 100 * (1+3+5+9+17+33+65)
    assert total_queries(sch) == 100 * 133


def test_explicit_schedule_allows_zero_shots():
    sch = Schedule(((0, 100), (3, 0), (5, 50)))
    assert sch.shots == (100, 0, 50)


def test_schedule_rejects_decreasing_depths():
    with pytest.raises(ConfigError):
        Schedule(((4, 10), (2, 10)))


def test_classical_schedule_rejects_an_amplified_stage():
    assert Schedule(((0, 10), (0, 5)), kind=ScheduleKind.CLASSICAL).depths == (0, 0)
    with pytest.raises(ConfigError, match="^classical schedule requires all depths zero$"):
        Schedule(((0, 10), (1, 10)), kind=ScheduleKind.CLASSICAL)


def test_schedule_rejects_empty():
    with pytest.raises(ConfigError):
        Schedule(())


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        make_schedule("quadratic", 3, 10)


def test_schedule_json_round_trip():
    sch = make_schedule("powerbase", 4, 25, r=2.5)
    doc = json.loads(schedule_to_json(sch))
    assert doc["kind"] == "powerbase"
    assert doc["stages"][0] == {"m": 0, "shots": 25}
    back = Schedule(
        stages=tuple((s["m"], s["shots"]) for s in doc["stages"]),
        kind=ScheduleKind(doc["kind"]),
        r=doc["r"],
    )
    assert back == sch


def test_schedule_rejects_non_integral_counts():
    with pytest.raises(ConfigError):
        Schedule(((1.7, 100),))
    with pytest.raises(ConfigError):
        Schedule(((1, 100.9),))
    with pytest.raises(ConfigError):
        Schedule(((0, 10), (1.7, 10)))
    for bad in (True, math.nan, math.inf, "2"):
        with pytest.raises(ConfigError):
            Schedule(stages=((bad, 100),))
        with pytest.raises(ConfigError):
            Schedule(stages=((1, bad),))
    # integral floats are counts, stored as ints
    sch = Schedule(stages=((2.0, 100), (3, 50.0)))
    assert sch.stages == ((2, 100), (3, 50))
    assert all(type(v) is int for stage in sch.stages for v in stage)


# ranges [lo, hi] up to past the default ceiling, and integers around them;
# |value| <= 2**53 so that float(value) is the same integer
@given(value=st.integers(-2**53, 2**53), lo=st.integers(0, 2**20),
       hi=st.one_of(st.just(2**52), st.integers(0, 2**53)))
def test_integral_accepts_an_integer_in_range_in_any_integral_form(value, lo, hi):
    end = "2**52]" if hi == 2**52 else f"{hi}]"
    for form in (value, np.int64(value), float(value)):
        if lo <= value <= hi:
            got = _integral(form, "count", lo, hi)
            assert got == value and type(got) is int
        else:
            with pytest.raises(ConfigError, match=rf"^count=.+ must be an integer in \[{lo}, {re.escape(end)}$"):
                _integral(form, "count", lo, hi)


@given(value=st.one_of(
    st.booleans(), st.booleans().map(np.bool_), st.fractions(), st.text(), st.none(),
    st.floats().filter(lambda x: not x.is_integer()),  # fractions, NaN and +-inf
    st.integers(2**52 + 1, 10**400), st.integers(-10**400, -1),
))
def test_integral_refuses_everything_else_naming_the_value(value):
    with pytest.raises(ConfigError, match=r"^count=.+ must be an integer in \[0, 2\*\*52\]$"):
        _integral(value, "count")


def test_integral_without_a_ceiling():
    assert _integral(10**400, "--seed", 0, math.inf) == 10**400
    with pytest.raises(ConfigError, match=r"^--seed=-1 must be an integer in \[0, inf\)$"):
        _integral(-1, "--seed", 0, math.inf)


def test_the_result_and_error_types_import_from_the_package():
    # the package has no __all__; the imports of the tests, scripts and
    # perfbench pin its other public names, and this one pins the rest
    from aemle import (
        AemleError,
        AmplitudePoint,
        ContourGrid,
        CrBoundResult,
        DegenerateTermError,
        DensityResult,
        EstimateResult,
        GateErrorGap,
        HardwareReport,
        QueryErrorRow,
        StageTrace,
        TrialBatchResult,
        TrialRecord,
    )

    assert issubclass(DegenerateTermError, AemleError)
    for result in (AmplitudePoint, ContourGrid, CrBoundResult, DensityResult, EstimateResult,
                   GateErrorGap, HardwareReport, QueryErrorRow, StageTrace, TrialBatchResult,
                   TrialRecord):
        assert dataclasses.is_dataclass(result)
