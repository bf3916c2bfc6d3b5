"""Seeded sampling and the repeated-trial harness."""
import math

import numpy as np
import pytest

from aemle import (
    AemleError,
    ConfigError,
    DomainError,
    ExperimentData,
    Schedule,
    amplitude_point,
    cr_lower_bound,
    hit_rate_curve,
    make_schedule,
    mle_grid_adaptive,
    noisy_good_prob,
    run_trials,
    sample_counts,
    total_queries,
)
from aemle import sampler, survey
from aemle.sampler import _draw, _jackknife_rmse_stderr, _rng_for


def test_sample_counts_deterministic():
    point = amplitude_point(0.375, 0.067)
    sched = make_schedule("eis", 5, 100)
    assert sample_counts(point, sched, seed=7) == sample_counts(point, sched, seed=7)
    assert sample_counts(point, sched, seed=7) != sample_counts(point, sched, seed=8)


def test_sample_counts_respects_shot_budget():
    point = amplitude_point(0.9, 0.0)
    sched = make_schedule("lis", 6, 40)
    data = sample_counts(point, sched, seed=1)
    assert data.depths == sched.depths
    assert data.shots == sched.shots
    assert all(0 <= h <= n for _, n, h in data.stages)


def test_a_zero_shot_stage_draws_nothing():
    # rng.random(0) draws no number, so a zero-shot stage counts 0 hits and
    # leaves the stream to the next stage as if it were not there (a stream
    # shifted by one draw keeps a stage's count about half the time, hence
    # several seeds)
    point = amplitude_point(0.375, 0.05)
    for seed in range(5):
        padded = sample_counts(point, Schedule(((0, 0), (1, 50), (1, 0), (2, 50))), seed)
        first, second = sample_counts(point, Schedule(((1, 50), (2, 50))), seed).stages
        assert padded.stages == ((0, 0, 0), first, (1, 0, 0), second)


def test_sample_counts_tracks_expected_rate():
    point = amplitude_point(0.375, 0.05)
    sched = make_schedule("eis", 1, 100_000)
    data = sample_counts(point, sched, seed=123)
    for m, n, h in data.stages:
        p = noisy_good_prob(m, point)
        # 5-sigma band around the binomial mean, seeded so this never flakes
        assert abs(h - n * p) < 5.0 * math.sqrt(n * p * (1.0 - p))


def test_run_trials_record_shape():
    point = amplitude_point(0.375, 0.067)
    batch = run_trials(point, "eis", 3, 50, trials=8, seed=4)
    assert batch.trials == 8 and batch.seed == 4
    assert [rec.M for rec in batch.records] == [1, 2, 3]
    nq = [rec.n_queries for rec in batch.records]
    assert nq == sorted(nq)
    for rec in batch.records:
        assert rec.failed_trials == 0
        assert rec.rmse > 0.0
        assert rec.stderr > 0.0
        assert rec.epsilon_min > 0.0


def _records_from_single_trials(point, kind, r, shots, trials, seed, M):
    """failed_trials, rmse, stderr and mean_kappa_hat of one M, with every
    trial sampled on the kind's M schedule from its (seed, M, t) stream and
    estimated alone."""
    schedule = make_schedule(kind, M, shots, r)
    results = []
    for t in range(trials):
        hits = _draw(point, schedule.stages, _rng_for(seed, M, t))
        data = ExperimentData(stages=tuple((m, n, h) for (m, n), h in zip(schedule.stages, hits)))
        try:
            results.append(mle_grid_adaptive(data))
        except AemleError:
            pass
    sq_errors = np.asarray([(res.a_hat - point.a) ** 2 for res in results])
    return (
        trials - len(results),
        float(np.sqrt(np.mean(sq_errors))),
        _jackknife_rmse_stderr(sq_errors),
        float(np.mean([res.kappa_hat for res in results])),
    )


def test_run_trials_records_follow_per_trial_streams():
    # each trial's estimate depends only on its (seed, M, t) stream: the batch
    # records, drawn on prefixes of the M_max ladder, equal records rebuilt
    # from trials on each M's own schedule, estimated one at a time
    for kind, r in [("eis", None), ("lis", None), ("powerbase", 2.5), ("classical", None)]:
        point = amplitude_point(0.375, 0.067)
        batch = run_trials(point, kind, 3, 40, trials=6, seed=10, r=r)
        for rec in batch.records:
            expected = _records_from_single_trials(point, kind, r, 40, 6, 10, rec.M)
            assert (rec.failed_trials, rec.rmse, rec.stderr, rec.mean_kappa_hat) == expected
            assert rec.failed_trials == 0
        # few hits at a small amplitude: some datasets have no hit at all and
        # fail the degenerate-data rule inside the batch of their M, and fail
        # alone (repr: a lone good trial's stderr is nan)
        point = amplitude_point(0.01, 0.02)
        batch = run_trials(point, kind, 3, 5, trials=8, seed=10, r=r)
        for rec in batch.records:
            got = (rec.failed_trials, rec.rmse, rec.stderr, rec.mean_kappa_hat)
            assert repr(got) == repr(_records_from_single_trials(point, kind, r, 5, 8, 10, rec.M))
        assert any(0 < rec.failed_trials < 8 for rec in batch.records)


def test_run_trials_builds_one_ladder_and_no_data_object(monkeypatch):
    # one M_max ladder per call, whose prefixes are each M's schedule, and
    # hit rows in place of a validated ExperimentData per trial
    calls = []

    def spy(*args):
        calls.append(args)
        return make(*args)

    make = sampler.make_schedule
    monkeypatch.setattr(sampler, "make_schedule", spy)
    monkeypatch.setattr(sampler, "ExperimentData", lambda **kw: pytest.fail("data object"))
    run_trials(amplitude_point(0.375, 0.067), "powerbase", 4, 20, trials=3, seed=2, r=2.5)
    assert calls == [("powerbase", 4, 20, 2.5)]


def test_run_trials_counts_failures():
    # nearly-saturated classical data raises DegenerateDataError in most trials
    point = amplitude_point(0.9999999, 0.0)
    batch = run_trials(point, "classical", 1, 5, trials=12, seed=0)
    assert batch.records[0].failed_trials > 0


def test_run_trials_rejects_zero_trials():
    with pytest.raises(ConfigError):
        run_trials(amplitude_point(0.3, 0.0), "eis", 2, 10, trials=0, seed=1)


@pytest.mark.parametrize("M_max", [0, -2])
def test_run_trials_rejects_an_empty_sweep(M_max):
    with pytest.raises(ConfigError, match=f"M_max={M_max}"):
        run_trials(amplitude_point(0.3, 0.0), "eis", M_max, 10, trials=4, seed=1)


@pytest.mark.parametrize("M_max", [64, 66])
def test_run_trials_refuses_a_ladder_past_the_stage_cap(M_max, monkeypatch):
    # it sampled every trial and printed nan rows for every M past 63; it now
    # refuses as the estimator refuses such data, before any trial is drawn
    monkeypatch.setattr(sampler, "_draw", lambda *args: pytest.fail("sampled"))
    reason = f"data has {M_max + 1} stages, at most 64 are allowed"
    with pytest.raises(ConfigError, match=reason):
        run_trials(amplitude_point(0.3, 0.0), "lis", M_max, 10, trials=2, seed=1)
    data = ExperimentData(stages=tuple((m, 10, 5) for m in range(M_max + 1)))
    with pytest.raises(ConfigError, match=reason):
        mle_grid_adaptive(data)


# The N_q and epsilon_min columns come from one Fisher pass over the M_max
# ladder, and equal per-M total_queries and cr_lower_bound bit for bit.
@pytest.mark.parametrize("kind, r", [("eis", None), ("lis", None), ("powerbase", 2.5),
                                     ("classical", None)])
@pytest.mark.parametrize("a, kappa", [(1e-6, 0.0), (0.375, 0.067), (1.0 - 1e-9, 2.0)])
def test_run_trials_bound_columns_are_the_per_M_bound(monkeypatch, kind, r, a, kappa):
    calls = []

    def spy(*args):
        calls.append(args[2][0].shape)
        return element_terms(*args)

    element_terms = survey._element_terms
    monkeypatch.setattr(survey, "_element_terms", spy)
    point = amplitude_point(a, kappa)
    batch = run_trials(point, kind, 5, 20, trials=2, seed=3, r=r)
    assert calls == [(1, 6)]  # one pass over the M = 5 ladder's six stages
    for rec in batch.records:
        schedule = make_schedule(kind, rec.M, 20, r)
        assert rec.n_queries == total_queries(schedule)
        assert rec.epsilon_min.hex() == cr_lower_bound(point, schedule).epsilon_min.hex()


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_run_trials_refuses_an_amplitude_with_no_bound_before_sampling(a, monkeypatch):
    monkeypatch.setattr(sampler, "_draw", lambda *args: pytest.fail("sampled"))
    with pytest.raises(DomainError, match=rf"^a={a} outside \(0, 1\)$"):
        run_trials(amplitude_point(a, 0.01), "eis", 3, 10, trials=2, seed=1)


def test_hit_rate_curve():
    point = amplitude_point(0.2, 0.1)
    curve = hit_rate_curve(point, [0, 1, 2, 5], 200, seed=6)
    assert [m for m, _ in curve] == [0, 1, 2, 5]
    for m, rate in curve:
        assert 0.0 <= rate <= 1.0
    again = hit_rate_curve(point, [0, 1, 2, 5], 200, seed=6)
    assert curve == again
    # the counts of one Philox stream, drawn depth after depth
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6,))))
    drawn = [(m, int(np.count_nonzero(rng.random(200) < noisy_good_prob(m, point))) / 200)
             for m in [0, 1, 2, 5]]
    assert curve == drawn
    with pytest.raises(ConfigError):
        hit_rate_curve(point, [0], 0, seed=6)


def test_hit_rate_matches_model_at_large_shots():
    point = amplitude_point(0.375, 0.02)
    curve = hit_rate_curve(point, [0, 3, 9], 50_000, seed=321)
    for m, rate in curve:
        p = noisy_good_prob(m, point)
        assert abs(rate - p) < 5.0 * math.sqrt(p * (1.0 - p) / 50_000)
