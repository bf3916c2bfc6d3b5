"""The trial-batched search against the one-dataset reference search.

`oracles.search_reference` is the stage loop and the final zoom as they
run one dataset at a time, on the stage-last likelihood formula.  A batch
of datasets that share one schedule must give every dataset the result the
reference gives it alone, including its stage trace and evaluation count,
and a dataset that fails must fail alone, with the reference's error.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import estimate_reference, profile_reference

from aemle import (
    AemleError,
    ExperimentData,
    MleConfig,
    amplitude_point,
    make_schedule,
    mle_grid_adaptive,
    mle_profile_1d,
    sample_counts,
)
from aemle.estimator import _estimate_batch, _geomspace, _linspace, _StageLikelihood
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


def _rows(batch):
    """_estimate_batch's schedule and hit rows of datasets on one schedule."""
    return batch[0].depths, batch[0].shots, [data.hits for data in batch]


def _outcome(result):
    if isinstance(result, AemleError):
        return type(result), str(result)
    return repr(result)


@given(batch=shared_batch(), config=CONFIGS)
@settings(max_examples=60, deadline=None)
def test_batch_equals_reference_per_dataset(batch, config):
    got = [_outcome(res) for res in _estimate_batch(*_rows(batch), config)]
    assert got == [_reference_or_error(data, config) for data in batch]


@given(batch=shared_batch(), config=CONFIGS)
@settings(max_examples=25, deadline=None)
def test_result_does_not_depend_on_the_batch(batch, config):
    forward = [_outcome(res) for res in _estimate_batch(*_rows(batch), config)]
    backward = [_outcome(res) for res in _estimate_batch(*_rows(batch[::-1]), config)][::-1]
    alone = [_outcome(_estimate_batch(*_rows([data]), config)[0]) for data in batch]
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


# The stage loop and the zoom share the kernel's row blocks (as many datasets
# as fit in _BLOCK_CELLS cells).  At 32 x 32 the 12-stage EIS ladder runs 8
# datasets to a call at its 8th stage and 5 at its last; the 21-stage LIS
# ladder runs 3 and its zoom 10.  Both run past 8 stages, where in-order and
# pairwise stage sums round differently.
@pytest.mark.parametrize(
    "kind, M", [("eis", 3), ("classical", 3), ("eis", 11), ("lis", 20)],
    ids=["eis", "classical", "eis11", "lis20"],
)
@pytest.mark.parametrize("size", [1, 7, 8, 9, 17])
def test_batches_straddling_zoom_blocks_equal_reference(size, kind, M):
    # a dataset that cannot be estimated (all hits) shifts the blocks of
    # those after it
    schedule = make_schedule(kind, M, 40)
    point = amplitude_point(0.3, 0.05)
    batch = [sample_counts(point, schedule, seed) for seed in range(size)]
    if size > 2:
        batch[2] = ExperimentData(stages=tuple((m, n, n) for m, n, _ in batch[2].stages))
    expected = [_reference_or_error(data, MleConfig()) for data in batch]
    assert [_outcome(res) for res in _estimate_batch(*_rows(batch), MleConfig())] == expected
    reversed_batch = _estimate_batch(*_rows(batch[::-1]), MleConfig())
    assert [_outcome(res) for res in reversed_batch][::-1] == expected


# Past the noise-limited depth a stage's boxes and carried estimates can equal
# the last stage's bit for bit; the search then keeps its grids and adds only
# the new stage's terms, through a one-stage kernel call.  At a = 0.3 and
# kappa = 1e-3 with 1,000 shots, EIS M = 20 repeats its last 4 of 21 stages
# at seeds 0-2 and power-base M = 14 its last 1-2; at kappa = 1e-6 neither
# repeats a stage.  An all-classical schedule of few shots keeps the init
# a-box [0, 1]: its zero-shot stages repeat, through the m = 0 clamp, and a
# stage where the estimate moves must not.
_FEW_SHOTS = ((0, 7), (0, 0), (0, 0), (0, 2), (0, 1), (0, 1))


def _saturated(kind, M, r=None):
    """Three datasets that repeat stages together, one that repeats none,
    and the kappa to profile them at."""
    if kind == "classical":
        data = [ExperimentData(stages=tuple(
            (m, n, h) for (m, n), h in zip(_FEW_SHOTS, hits)))
            for hits in [(5, 0, 0, 2, 0, 1), (3, 0, 0, 0, 1, 0), (4, 0, 0, 1, 1, 0)]]
        return data, None, 0.0
    schedule = make_schedule(kind, M, 1000, r)
    data = [sample_counts(amplitude_point(0.3, 1e-3), schedule, seed) for seed in range(3)]
    return data, sample_counts(amplitude_point(0.3, 1e-6), schedule, 7), 1e-3


@pytest.mark.parametrize("kind, M, r", [("eis", 20, None), ("powerbase", 14, 2.5),
                                         ("classical", None, None)],
                         ids=["eis20", "powerbase14", "classical-few-shots"])
def test_repeated_stages_add_one_stage_and_equal_reference(monkeypatch, kind, M, r):
    repeating, other, kappa = _saturated(kind, M, r)
    one_stage = []  # n_stages of each one-stage kernel call past stage 0

    def spy(self, rows, n_stages, a_grids, kappa_grids, first=0):
        if first:
            assert first == n_stages - 1
            one_stage.append(n_stages)
        return grid(self, rows, n_stages, a_grids, kappa_grids, first)

    grid = _StageLikelihood.grid
    monkeypatch.setattr(_StageLikelihood, "grid", spy)
    expected = [repr(estimate_reference(data)) for data in repeating]
    for data, want in zip(repeating, expected):
        one_stage.clear()
        assert repr(_estimate_batch(*_rows([data]), MleConfig())[0]) == want
        assert one_stage
        one_stage.clear()
        assert mle_profile_1d(data, kappa).hex() == profile_reference(data, kappa).hex()
        assert one_stage
    one_stage.clear()
    assert [repr(res) for res in _estimate_batch(*_rows(repeating), MleConfig())] == expected
    assert one_stage
    if other is not None:  # a batch whose datasets do not all repeat takes the full path
        one_stage.clear()
        alone = _estimate_batch(*_rows([other]), MleConfig())[0]
        assert repr(alone) == repr(estimate_reference(other))
        assert not one_stage
        mixed = [repeating[0], other]
        assert [repr(res) for res in _estimate_batch(*_rows(mixed), MleConfig())] == [
            expected[0], repr(estimate_reference(other))]
        assert not one_stage


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
