"""The trial-batched search against the one-dataset reference search.

`oracles.search_reference` is the stage loop as it ran one dataset at a
time, on the stage-last likelihood formula.  A batch of datasets that share
one schedule must give every dataset the result the reference gives it
alone, including its stage trace and evaluation count, and a dataset that
fails must fail alone, with the reference's error.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import estimate_reference, profile_reference

from aemle import (
    AemleError,
    ConfigError,
    ExperimentData,
    MleConfig,
    mle_grid_adaptive,
    mle_profile_1d,
)
from aemle.estimator import _estimate_batch, _geomspace, _linspace
from aemle.model import ScheduleKind, _ladder

KINDS = [(ScheduleKind.EIS, None), (ScheduleKind.LIS, None),
         (ScheduleKind.POWER_BASE, 2.5), (ScheduleKind.CLASSICAL, None)]

CONFIGS = st.builds(MleConfig, divisions_per_stage=st.sampled_from([8, 16, 64]))


@st.composite
def shared_schedule(draw, max_stages=25):
    """Depths from one kind's ladder, with per-stage shots in 0..1e4 (zero
    often, and now and then on every stage)."""
    kind, r = draw(st.sampled_from(KINDS))
    n_stages = draw(st.integers(1, max_stages))
    depths = list(itertools.islice(_ladder(kind, r), n_stages))
    if draw(st.integers(0, 9)) == 0:
        return [(m, 0) for m in depths]
    shot = st.one_of(st.just(0), st.integers(1, 10_000))
    return [(m, draw(shot)) for m in depths]


@st.composite
def dataset(draw, schedule):
    """Counts on the schedule: all hits, all misses, or mixed, with
    saturated stages drawn often."""
    style = draw(st.sampled_from(["mixed", "mixed", "mixed", "all_hits", "all_misses"]))
    stages = []
    for m, n in schedule:
        if style == "all_hits":
            h = n
        elif style == "all_misses":
            h = 0
        else:
            h = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
        stages.append((m, n, h))
    return ExperimentData(stages=tuple(stages))


@st.composite
def shared_batch(draw):
    schedule = draw(shared_schedule())
    return draw(st.lists(dataset(schedule), min_size=1, max_size=5))


def _reference_or_error(data, config):
    try:
        return repr(estimate_reference(data, config))
    except AemleError as exc:
        return type(exc), str(exc)


def _outcome(result):
    if isinstance(result, AemleError):
        return type(result), str(result)
    return repr(result)


@given(batch=shared_batch(), config=CONFIGS)
@settings(max_examples=60, deadline=None)
def test_batch_equals_reference_per_dataset(batch, config):
    got = [_outcome(res) for res in _estimate_batch(batch, config)]
    assert got == [_reference_or_error(data, config) for data in batch]


@given(batch=shared_batch(), config=CONFIGS)
@settings(max_examples=25, deadline=None)
def test_result_does_not_depend_on_the_batch(batch, config):
    forward = [_outcome(res) for res in _estimate_batch(batch, config)]
    backward = [_outcome(res) for res in _estimate_batch(batch[::-1], config)][::-1]
    alone = [_outcome(_estimate_batch([data], config)[0]) for data in batch]
    assert forward == backward == alone
    for data, outcome in zip(batch, alone):
        if isinstance(outcome, str):
            assert repr(mle_grid_adaptive(data, config)) == outcome
        else:
            with pytest.raises(outcome[0]):
                mle_grid_adaptive(data, config)


@given(
    schedule=shared_schedule(max_stages=12),
    data=st.data(),
    config=CONFIGS,
    kappa=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
)
@settings(max_examples=40, deadline=None)
def test_profile_equals_reference(schedule, data, config, kappa):
    sample = data.draw(dataset(schedule))
    try:
        expected = profile_reference(sample, kappa, config)
    except AemleError as exc:
        with pytest.raises(type(exc)):
            mle_profile_1d(sample, kappa, config)
        return
    assert mle_profile_1d(sample, kappa, config).hex() == expected.hex()


def test_batch_needs_one_schedule():
    first = ExperimentData(stages=((0, 10, 4), (1, 10, 6)))
    with pytest.raises(ConfigError):
        _estimate_batch([first, ExperimentData(stages=((0, 10, 4), (2, 10, 6)))], MleConfig())
    with pytest.raises(ConfigError):
        _estimate_batch([first, ExperimentData(stages=((0, 10, 4), (1, 11, 6)))], MleConfig())


# Columns whose step is zero (equal endpoints, or a subnormal difference that
# underflows when divided) sit next to ordinary ones, which numpy would
# otherwise move to its zero-step formula as well.
ENDPOINT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-320, 0.5, 1.0]))


@given(
    ends=st.lists(st.tuples(ENDPOINT, ENDPOINT), min_size=1, max_size=6),
    num=st.sampled_from([8, 16, 64]),
)
@settings(max_examples=200, deadline=None)
def test_linspace_columns_equal_lone_calls(ends, num):
    lo = np.asarray([min(e) for e in ends])
    hi = np.asarray([max(e) for e in ends])
    got = _linspace(lo, hi, num)
    for col, (a, b) in enumerate(zip(lo, hi)):
        assert np.array_equal(got[:, col], np.linspace(a, b, num))


KAPPA_END = st.one_of(
    st.floats(1e-10, 3.0), st.sampled_from([1e-10, 2e-10, 0.3, 1.0, 1.0000000000000002])
)


@given(
    ends=st.lists(st.tuples(KAPPA_END, KAPPA_END), min_size=1, max_size=6),
    num=st.sampled_from([8, 16, 64]),
)
@settings(max_examples=200, deadline=None)
def test_geomspace_columns_equal_lone_calls(ends, num):
    lo = np.asarray([min(e) for e in ends])
    hi = np.asarray([max(e) for e in ends])
    got = _geomspace(lo, hi, num)
    for col, (a, b) in enumerate(zip(lo, hi)):
        assert np.array_equal(got[:, col], np.geomspace(a, b, num))
