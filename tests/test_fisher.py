"""Fisher matrix, error bounds, depth limits, and anomaly measures."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aemle import (
    ANOMALY_THRESHOLD,
    ConfigError,
    DegenerateScheduleError,
    DegenerateTermError,
    DomainError,
    FisherMatrix,
    NotAchievableError,
    Schedule,
    SingularPointError,
    amplitude_point,
    anomality,
    classical_bound,
    cr_lower_bound,
    fisher_matrix,
    make_schedule,
    max_grover_depth,
    nuisance_inflation,
    required_noise_for_error,
    total_queries,
)

from aemle import estimator
from aemle.estimator import _fisher_prefix, _StageLikelihood
from aemle.fisher import (
    _DET_RTOL,
    _KAPPA_SCAN,
    _SCALAR_COLUMNS,
    _bisection_midpoints,
    _bound_rule,
    _element_sums,
    _max_grover_depths,
    _saturated_errors,
    _stage_weights,
)

from oracles import (
    beta_reference,
    errors_reference,
    fisher_enumerated,
    kappa_bar_sequential_reference,
    kappa_scan_reference,
    max_grover_depth_reference,
    saturated_error_reference,
    saturated_schedule,
)

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
    sched = Schedule(tuple(zip(depths, shots)))
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
    base = Schedule(((0, 50), (2, 40)))
    padded = Schedule(((0, 50), (1, 0), (2, 40)))
    assert fisher_matrix(point, base) == fisher_matrix(point, padded)


@given(
    a=st.floats(1e-4, 1.0 - 1e-4),
    kappa=st.floats(0.0, 1.0),
    depths=st.lists(st.integers(0, 40), min_size=1, max_size=5),
    shots=st.integers(1, 200),
)
@settings(max_examples=150, deadline=None)
def test_determinant_nonnegative(a, kappa, depths, shots):
    sched = Schedule(tuple((m, shots) for m in sorted(depths)))
    info = fisher_matrix(amplitude_point(a, kappa), sched)
    # Cauchy-Schwarz: det >= 0 up to rounding, scale-free tolerance
    assert info.det >= -1e-9 * info.i11 * max(info.i22, 1e-300)


def test_singular_endpoints_raise():
    sched = make_schedule("eis", 3, 10)
    with pytest.raises(SingularPointError):
        fisher_matrix(amplitude_point(0.0, 0.1), sched)
    with pytest.raises(SingularPointError):
        fisher_matrix(amplitude_point(1.0, 0.1), sched)
    for a in (0.0, 1.0):
        with pytest.raises(SingularPointError):
            classical_bound(a, 100)


# shots = 2**52 at a = 1e-300: the m = 0 stage alone gives i11 = N / a, past
# a double, and each of these returned 0 (1/sqrt(inf), or beta = i12^2 / inf)
OVERFLOWED = (amplitude_point(1e-300, 0.0), make_schedule("eis", 3, 2**52),
              "^the schedule's information about a overflows a double at a=1e-300$")
NO_SHOTS = (amplitude_point(0.3, 0.05), Schedule(((0, 0), (1, 0), (4, 0))),
            "^the schedule's information about a is zero at a=0.3$")


@pytest.mark.parametrize("point, sched, reason", [OVERFLOWED, NO_SHOTS],
                         ids=["overflow", "no-shots"])
@pytest.mark.parametrize("bound", [cr_lower_bound, anomality,
                                   lambda point, sched: nuisance_inflation(point, sched, 2.0)],
                         ids=["cr_lower_bound", "anomality", "nuisance_inflation"])
def test_a_bound_refuses_unusable_information(bound, point, sched, reason):
    with pytest.raises(DegenerateScheduleError, match=reason):
        bound(point, sched)


def test_a_denominator_below_the_floor_names_its_cell():
    # at m = 0 the denominator is sin^2(2 theta_a) ~ 4a, so a = 1e-305 is
    # under the 1e-300 floor at any kappa; the reason named "kappa = 0 on a
    # sine zero".  The first such cell is named, here in the second row.
    reason = "^Fisher summand denominator is below 1e-300 at a=1e-305, kappa=0.1, m=0$"
    with pytest.raises(DegenerateTermError, match=reason):
        cr_lower_bound(amplitude_point(1e-305, 0.1), make_schedule("eis", 3, 100))
    weights = _stage_weights([0, 1, 2], [10, 10, 10])
    with pytest.raises(DegenerateTermError, match=reason):
        _element_sums(np.asarray([0.3, 1e-305, 1e-306]), np.asarray([0.2, 0.1, 0.3]), weights)


def test_classical_bound_closed_form():
    for a in (0.1, 0.375, 0.9):
        for M, shots in ((4, 100), (0, 57)):
            sched = make_schedule("classical", M, shots)
            res = cr_lower_bound(amplitude_point(a, 0.0), sched)
            assert not res.identifiable
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
    # the noise floor of the bound chain: the inverse of the sum over m > 0 of
    # 4 N (2m+1)^2 / sin^2(2 theta_a) * e^{-2 kappa m} / (1 - e^{-2 kappa m}),
    # square-rooted; noise alone keeps eps_min above it at any depth
    point = amplitude_point(a, kappa)
    sched = make_schedule("eis", M, 100)
    m = np.asarray(sched.depths[1:], dtype=float)
    decay = np.exp(-2.0 * kappa * m)
    terms = 400.0 * (2.0 * m + 1.0) ** 2 / (4.0 * a * (1.0 - a)) * decay / (1.0 - decay)
    floor = 1.0 / math.sqrt(float(np.sum(terms)))
    assert cr_lower_bound(point, sched).epsilon_min >= floor * (1.0 - 1e-12)


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


# The smallest kappa whose m-bar is at most 2**52 (it is 2**52 there), and
# the next float below it, whose m-bar is 2**52 + 2.
KAPPA_FLOOR = float.fromhex("0x1.ffffffffffffep-54")
BELOW_FLOOR = float.fromhex("0x1.ffffffffffffdp-54")


def test_depth_rule_matches_scalar_reference_on_the_scan_and_its_midpoints():
    # every kappa the kappa-bar search can evaluate: the scan and each of its
    # 207 brackets' bisection trees
    mids = [m for lo, hi in zip(_KAPPA_SCAN[:-1].tolist(), _KAPPA_SCAN[1:].tolist())
            for m in _bisection_midpoints(lo, hi)]
    assert len(mids) == 207 * 31
    for kappas in (_KAPPA_SCAN.tolist(), mids):
        assert _max_grover_depths(kappas).tolist() == [
            max_grover_depth_reference(k) for k in kappas
        ]


@given(kappas=st.lists(st.floats(math.log(KAPPA_FLOOR), math.log(50.0)).map(math.exp),
                       min_size=1, max_size=40))
@example(kappas=[KAPPA_FLOOR, 2e-16, 1e-12, 0.5, 50.0])
@settings(max_examples=100, deadline=None)
def test_depth_rule_matches_scalar_reference_above_the_floor(kappas):
    kappas = [max(k, KAPPA_FLOOR) for k in kappas]
    want = [max_grover_depth_reference(k) for k in kappas]
    assert _max_grover_depths(kappas).tolist() == want
    assert [max_grover_depth(k) for k in kappas] == want


def test_depth_rule_refuses_kappa_below_the_floor():
    assert max_grover_depth(KAPPA_FLOOR) == 2**52
    for kappa in (BELOW_FLOOR, 1e-16, 1e-300, 5e-324):
        with pytest.raises(DomainError, match=f"kappa={kappa}"):
            max_grover_depth(kappa)
    with pytest.raises(DomainError, match=f"kappa={BELOW_FLOOR}"):
        _max_grover_depths([0.1, BELOW_FLOOR, KAPPA_FLOOR])
    # inf and nan were refused as "maximum depth is unbounded at kappa <= 0"
    for kappa in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError, match=f"^kappa={kappa} must be finite and > 0$"):
            max_grover_depth(kappa)
        with pytest.raises(DomainError, match=f"^kappa={kappa} must be finite and > 0$"):
            _max_grover_depths([0.1, kappa])


def _ulps_around(x: np.ndarray, n: int = 4) -> np.ndarray:
    """Each of x with its n neighbouring doubles on either side."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
        out += [lo, hi]
    return np.stack(out, axis=1).ravel()


def test_the_depth_floor_never_overshoots():
    # _max_grover_depths has no downward step: its floor((1/decay - 1) / 2)
    # never passes (2m + 1) decay <= 1.  Probed within 4 ulps of each decay
    # 1/(2m + 1), where the floor can land on m, for every m below 2e6 and
    # the 2**16 below 2**52, the deepest depth (kappa near 1.1e-16)
    for m in (*np.array_split(np.arange(1.0, 2e6), 8), 2.0**52 - np.arange(2.0**16)):
        decay = _ulps_around(1.0 / (2.0 * m + 1.0))
        cand = np.floor((1.0 / decay - 1.0) / 2.0)
        kept = cand <= 2**52  # deeper ones are refused
        assert ((2.0 * cand[kept] + 1.0) * decay[kept] <= 1.0).all()
    # and the whole rule, at the kappa of such decays, against the oracle's
    # step-down loop
    m = np.unique(np.geomspace(1.0, 2.0**52, 1000).round())
    kappas = -np.log1p(-_ulps_around(1.0 / (2.0 * m + 1.0)))
    kappas = kappas[kappas >= KAPPA_FLOOR].tolist()
    assert _max_grover_depths(kappas).tolist() == [max_grover_depth_reference(k) for k in kappas]


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


@pytest.mark.parametrize("stages", [[(1, 100)], [(2, 100), (2, 50)]], ids=["m=1", "m=2,2"])
def test_nuisance_inflation_refuses_an_untrusted_inverse(stages):
    # one distinct depth gives a rank-one matrix: its det is rounding noise,
    # whose inverse gave inflations of 1e11 to 1e13 at some amplitudes
    sched = Schedule(tuple(stages))
    refused = 0
    for a in [round(0.05 * i, 2) for i in range(1, 20)]:
        point = amplitude_point(a, 0.05)
        if not cr_lower_bound(point, sched).identifiable:
            with pytest.raises(DegenerateScheduleError):
                nuisance_inflation(point, sched, 2.0)
            refused += 1
    assert refused > 0


def test_saturated_schedule_shape():
    sched = saturated_schedule(0.005, 100)
    assert sched.depths == (0, 1, 2, 4, 8, 16, 32, 64, 99)
    assert all(n == 100 for n in sched.shots)


@pytest.mark.parametrize(
    "kappa,depths",
    # m-bar = 24, 4 (a power of two, not repeated) and 1
    [(0.02, (0, 1, 2, 4, 8, 16, 24)), (0.1, (0, 1, 2, 4)), (0.3, (0, 1))],
)
def test_saturated_schedule_depth_goldens(kappa, depths):
    assert saturated_schedule(kappa, 100).depths == depths


def test_errors_and_beta_follow_the_inverse():
    point = amplitude_point(0.3, 0.05)
    sched = make_schedule("eis", 5, 100)
    info = fisher_matrix(point, sched)
    eps_a, eps_kappa = info.errors()
    assert eps_a == cr_lower_bound(point, sched).epsilon_min
    assert eps_a == pytest.approx(math.sqrt(info.i22 / info.det), rel=1e-15)
    assert eps_kappa == pytest.approx(math.sqrt(info.i11 / info.det), rel=1e-15)
    assert info.beta == anomality(point, sched)


_SIDE = st.one_of(st.just(0.0), st.floats(1e-6, 1e12), st.floats(-1e6, -1e-6))


@st.composite
def fisher_triples(draw):
    """(i11, i12, i22) with zero and negative diagonals, and i12 free, at
    i12^2 = i11 i22, or at the determinant's trust threshold, each nudged by
    a few ulps so both sides of the edge are drawn."""
    i11, i22 = draw(_SIDE), draw(_SIDE)
    product = abs(i11 * i22)
    edges = [math.sqrt(product), math.sqrt(product * (1.0 - _DET_RTOL))]
    i12 = draw(st.one_of(st.floats(-1e12, 1e12), st.sampled_from(edges)))
    steps = draw(st.integers(-8, 8))
    for _ in range(abs(steps)):
        i12 = math.nextafter(i12, math.copysign(math.inf, steps))
    return i11, i12, i22


def _hex(value):
    return "None" if value is None or math.isnan(value) else float(value).hex()


@settings(max_examples=400, deadline=None)
@given(st.lists(fisher_triples(), min_size=1, max_size=8))
# kappa uninformative, the matrix singular, no information, beta clamped to 1
@example([(4.0, 0.0, 0.0)])
@example([(4.0, 2.0, 1.0)])
@example([(0.0, 0.0, 0.0)])
@example([(4.0, 3.0, 1.0)])
@example([(1e302, 1.1e9, 3.5e7)])  # i11 i22 overflows
def test_bound_rule_is_bit_identical_to_scalar_reference(triples):
    got = _bound_rule(*np.asarray(triples).T).T.tolist()
    for triple, (eps_a, eps_kappa, beta) in zip(triples, got):
        want = (*errors_reference(*triple), beta_reference(*triple))
        assert [_hex(x) for x in (eps_a, eps_kappa, beta)] == [_hex(x) for x in want]
        info = FisherMatrix(*triple)
        assert (*info.errors(), info.beta) == want


# zeros, subnormals, pairs whose product overflows or underflows, NaN, inf
_EXTREME = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, -1e-300, 1e300, -1e300,
    1e-160, 1e160, math.nan, -math.nan, math.inf, -math.inf, 1.0, 4.0,
])


@st.composite
def extreme_triples(draw):
    """(i11, i12, i22) from _EXTREME or any double, i12 also at the trust
    threshold i12^2 = (1 - _DET_RTOL) i11 i22 nudged by a few ulps."""
    side = st.one_of(_EXTREME, st.floats())
    i11, i22 = draw(side), draw(side)
    edge = math.sqrt(abs(i11 * i22) * (1.0 - _DET_RTOL))
    i12 = draw(st.one_of(_EXTREME, st.floats(), st.just(edge)))
    for _ in range(draw(st.integers(0, 4))):
        i12 = math.nextafter(i12, draw(st.sampled_from([math.inf, -math.inf])))
    return i11, i12, i22


@settings(max_examples=500, deadline=None)
@given(st.lists(extreme_triples(), min_size=1, max_size=_SCALAR_COLUMNS))
@example([(1e-200, 1e-150, 1e-200)])  # i11 i22 underflows to 0: beta is off / 0 = inf -> 1
@example([(1e-200, 0.0, 1e-200)])  # 0 / 0 is NaN
@example([(1e300, 1.0, 1e300)])  # i11 i22 overflows
def test_bound_rule_paths_are_bit_identical(triples):
    # the Python-float columns against the masked ufuncs on the same triples,
    # padded with copies past _SCALAR_COLUMNS
    columns = np.asarray(triples).T
    padded = np.tile(columns, _SCALAR_COLUMNS // len(triples) + 1)
    assert columns.shape[1] <= _SCALAR_COLUMNS < padded.shape[1]
    got = _bound_rule(*columns)
    want = _bound_rule(*padded)[:, :len(triples)]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_an_overflowed_information_product_is_not_trusted():
    # the m = 0 stage gives i11 = N / a = 1e302, so i11 i22 overflows; its
    # inverse read eps_a = eps_kappa = 0, with overflow warnings
    point, sched = amplitude_point(1e-300, 1e-5), make_schedule("eis", 3, 100)
    info = fisher_matrix(point, sched)
    assert info.i11 * info.i22 == math.inf
    assert info.errors() == (1.0 / math.sqrt(info.i11), None)
    bound = cr_lower_bound(point, sched)
    assert bound.epsilon_min == 1.0 / math.sqrt(info.i11) > 0.0 and not bound.identifiable


def test_eis_ladder_below_a_deep_cap():
    # m-bar(1e-8) is about 5e7, and the eis ladder up to it has 28 stages
    assert len(saturated_schedule(1e-8, 100)) == 28


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
    with pytest.raises(ConfigError, match=r"shots=0 must be an integer in \[1, 2\*\*52\]"):
        required_noise_for_error(0.375, 1e-4, 0)
    with pytest.raises(NotAchievableError):
        required_noise_for_error(0.375, 2e-11, 100)
    # 2**52 shots at a = 1e-300 overflow i11: every error read 0, a kappa-bar
    # "met without amplification"
    with pytest.raises(DegenerateScheduleError, match="overflows a double at a=1e-300$"):
        required_noise_for_error(1e-300, 1e-4, 2**52)
    # at or above the unamplified error sqrt(a(1-a)/N) = 0.0484 every noise
    # level meets the target, so no kappa-bar exists
    for eps in (0.049, 0.3, 0.45):
        with pytest.raises(DomainError, match="unbounded"):
            required_noise_for_error(0.375, eps, 100)


# "kappa-bar eps" as float.hex at target eps = 1e-2, 1e-4, 1e-6, eps being
# the scan's error at kappa-bar itself; an exception class where the call
# raises.  kappa-bar keeps the summands' bits only through the bisection's
# comparisons, and the per-point oracle calls the same summands as the scan,
# so the error column is what catches a change in _element_sums' rounding.
# The bits are numpy's AVX-512 loops': on its AVX2 loops 10 of 24 rows differ.
KAPPA_BAR_HEX = {
    (0.01, 1): (
        "0x1.943347d6f1574p-5 0x1.477b95ad1a924p-7",
        "0x1.9f2c93a2aa08ep-11 0x1.7c37bf7711f21p-14",
        "0x1.f138cc591312dp-18 0x1.cd3c97206d473p-21",
    ),
    (0.01, 7): (
        "0x1.320632ab7ef50p-3 0x1.479da66f0b8bap-7",
        "0x1.db2f0187a6083p-10 0x1.95ef17017f4a5p-14",
        "0x1.02b33b30c787ap-16 0x1.ac981dd658bc5p-21",
    ),
    (0.01, 100): (
        DomainError,
        "0x1.b33dc8463e9e3p-8 0x1.83916408a0e35p-14",
        "0x1.0f5f268facd34p-14 0x1.c169dde5bd44ap-21",
    ),
    (0.01, 12345): (
        DomainError,
        "0x1.8633f24bb5956p-4 0x1.a195d4607a222p-14",
        "0x1.c6061d6078ce2p-11 0x1.e676ff5c70c26p-21",
    ),
    (0.2, 1): (
        "0x1.ec6f45ed3a468p-7 0x1.1d9840cdd48c4p-7",
        "0x1.c15e310b5638ap-13 0x1.a3667a9c81385p-14",
        "0x1.d8a378d576abcp-20 0x1.066e0ad63e0f8p-20",
    ),
    (0.2, 7): (
        "0x1.1eba27a36c7f9p-5 0x1.fb31e1745aaeap-8",
        "0x1.8cafc4a529dadp-12 0x1.8fded457da887p-14",
        "0x1.fe9e6c36b64bdp-19 0x1.9bace041e73eep-21",
    ),
    (0.2, 100): (
        "0x1.3afbb9d48e4c6p-3 0x1.354b21aed9ae7p-7",
        "0x1.f48448f6c7930p-10 0x1.7d922d1a5f0c0p-14",
        "0x1.e163e526b1518p-17 0x1.0032ade76c8dcp-20",
    ),
    (0.2, 12345): (
        DomainError,
        "0x1.059938deea843p-6 0x1.8a52a4fe5cc18p-14",
        "0x1.cbdca8eefd32cp-13 0x1.052a13357c44fp-20",
    ),
    (0.375, 1): (
        "0x1.cf7b235383d2fp-7 0x1.3adc5fa2e4e49p-7",
        "0x1.017a3fa7dd001p-13 0x1.9232c41b89372p-14",
        "0x1.947180375d7a0p-20 0x1.dfbe84dbf533bp-21",
    ),
    (0.375, 7): (
        "0x1.da030ff7683cfp-6 0x1.0cf425d9f9131p-7",
        "0x1.278b8885669b0p-12 0x1.81500671edbacp-14",
        "0x1.88b282d5fb426p-19 0x1.cbcb50f699d4dp-21",
    ),
    (0.375, 100): (
        "0x1.e1b1f53f3d3d4p-4 0x1.33945eb23f469p-7",
        "0x1.87a68ac4bc98bp-10 0x1.a2989f3a442f5p-14",
        "0x1.d667a92ae26fep-17 0x1.ef88722285847p-21",
    ),
    (0.375, 12345): (
        DomainError,
        "0x1.cf7b235383d2fp-7 0x1.6abacac183345p-14",
        "0x1.36988c36c3ee2p-13 0x1.073196944d730p-20",
    ),
    (0.5, 1): (
        "0x1.ad01c33293e86p-8 0x1.0df58ed6f2d5dp-7",
        "0x1.59ce118139847p-14 0x1.778f3f734fbadp-14",
        "0x1.62637989a5877p-21 0x1.ea23320de3084p-21",
    ),
    (0.5, 7): (
        "0x1.2c75f0b3a5dadp-6 0x1.03f799a92d1dbp-7",
        "0x1.9061eb92ade9dp-13 0x1.89a565e77d31fp-14",
        "0x1.ed8b868011784p-20 0x1.a27f16bf5eb87p-21",
    ),
    (0.5, 100): (
        "0x1.f01a6da866ef4p-5 0x1.da16768e91718p-8",
        "0x1.adcd4c7a29346p-11 0x1.8ad11dd247360p-14",
        "0x1.88367f0251e15p-17 0x1.074a4ee42718ap-20",
    ),
    (0.5, 12345): (
        DomainError,
        "0x1.4411cff0c3660p-7 0x1.a326a48604212p-14",
        "0x1.99fc4b7d19eb3p-14 0x1.060258fe5679ap-20",
    ),
    (0.7, 1): (
        "0x1.69a0193078adep-7 0x1.ed89176b2a0cep-8",
        "0x1.1c04d87dd7ffap-13 0x1.816bc12451352p-14",
        "0x1.0bb40b0423760p-20 0x1.a3552cdc13687p-21",
    ),
    (0.7, 7): (
        "0x1.1eba27a36c7f9p-5 0x1.11890c5947c9cp-7",
        "0x1.0f09735ed84b5p-12 0x1.35951ee84904bp-14",
        "0x1.94319e7322a47p-19 0x1.823e93af261bbp-21",
    ),
    (0.7, 100): (
        "0x1.3afbb9d48e4c6p-3 0x1.34731400cbfe2p-7",
        "0x1.d5bb0204a73c0p-10 0x1.92fdd2baf720cp-14",
        "0x1.f997dc6efec17p-17 0x1.f74d17195d895p-21",
    ),
    (0.7, 12345): (
        DomainError,
        "0x1.ec6f45ed3a468p-7 0x1.9d0e11393893cp-14",
        "0x1.1c04d87dd7ffap-13 0x1.bc04610a319bep-21",
    ),
    (0.99, 1): (
        "0x1.943347d6f1574p-5 0x1.477b95ad1a92fp-7",
        "0x1.9f2c93a2aa08ep-11 0x1.7c37bf771216ep-14",
        "0x1.f138cc591312dp-18 0x1.cd3c972085253p-21",
    ),
    (0.99, 7): (
        "0x1.320632ab7ef50p-3 0x1.479da66f0b8dbp-7",
        "0x1.db2f0187a6083p-10 0x1.95ef17017f608p-14",
        "0x1.02b33b30c787ap-16 0x1.ac981dd646388p-21",
    ),
    (0.99, 100): (
        DomainError,
        "0x1.b33dc8463e9e3p-8 0x1.83916408a0eb2p-14",
        "0x1.0f5f268facd34p-14 0x1.c169dde5be2c1p-21",
    ),
    (0.99, 12345): (
        DomainError,
        "0x1.8633f24bb5956p-4 0x1.a195d4607a20cp-14",
        "0x1.c6061d6078ce2p-11 0x1.e676ff5c707f8p-21",
    ),
}


@pytest.mark.simd_golden
@pytest.mark.parametrize("a,shots", list(KAPPA_BAR_HEX))
def test_kappa_bar_hex_table(a, shots):
    for eps, want in zip((1e-2, 1e-4, 1e-6), KAPPA_BAR_HEX[a, shots]):
        if isinstance(want, str):
            kappa_bar = required_noise_for_error(a, eps, shots)
            got = _saturated_errors(a, [kappa_bar], shots)[0]
            assert f"{kappa_bar.hex()} {got.hex()}" == want
        else:
            with pytest.raises(want):
                required_noise_for_error(a, eps, shots)


@pytest.mark.parametrize("a", [0.1, 0.375, 0.9])
@pytest.mark.parametrize("shots", [10, 100, 1000])
def test_kappa_bar_equals_sequential_bisection(a, shots):
    # the bisection walks errors looked up from one pass over its whole tree
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        want = kappa_bar_sequential_reference(a, eps, shots)
        if want is None:
            with pytest.raises(NotAchievableError):
                required_noise_for_error(a, eps, shots)
        elif want == math.inf:
            with pytest.raises(DomainError, match="unbounded"):
                required_noise_for_error(a, eps, shots)
        else:
            assert required_noise_for_error(a, eps, shots).hex() == want.hex()


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.01, 0.99),
    log_eps=st.floats(-7.0, math.log10(0.45)),
    shots=st.integers(1, 20_000),
)
def test_kappa_scan_is_bit_identical_to_per_point_scan(a, log_eps, shots):
    eps = 10.0**log_eps
    grid, errors, kappa_bar = kappa_scan_reference(a, eps, shots)
    assert len(grid) == 208
    assert _saturated_errors(a, grid, shots) == errors
    if kappa_bar is None:
        with pytest.raises(NotAchievableError):
            required_noise_for_error(a, eps, shots)
    elif kappa_bar == math.inf:
        with pytest.raises(DomainError, match="unbounded"):
            required_noise_for_error(a, eps, shots)
    else:
        assert required_noise_for_error(a, eps, shots) == kappa_bar


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    a=st.floats(0.01, 0.99),
    shots=st.integers(1, 20_000),
    values=st.lists(st.floats(1e-8, 3.0), min_size=1, max_size=50),
)
def test_scan_on_any_kappa_list_matches_per_point_bounds(data, a, shots, values):
    # unsorted, with repeats, and up to kappa = 3 (m-bar = 0 above ln 1.5): one
    # length's ladders need not be adjacent, and a [0] ladder may sit anywhere
    picks = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=50))
    kappas = [values[i] for i in picks]
    want = [saturated_error_reference(a, k, shots) for k in kappas]
    assert _saturated_errors(a, kappas, shots) == want


@pytest.mark.parametrize("a", [0.1, 0.375, 0.9])
def test_saturated_runs_sum_as_lone_calls(a):
    # runs of equal-length ladders, of 1 to 8 stages (kappa 0.5 down to 0.008)
    # and of 9 to 28 (down to 1e-8), past numpy's 8-element pairwise block
    kappas = np.geomspace(0.5, 1e-8, 48).repeat(2).tolist()
    got = [e.hex() for e in _saturated_errors(a, kappas, 100)]
    assert got == [_saturated_errors(a, [k], 100)[0].hex() for k in kappas]
    assert got == [saturated_error_reference(a, k, 100).hex() for k in kappas]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 6), n_stages=st.integers(1, 40))
def test_batched_schedule_rows_equal_lone_calls(data, n_rows, n_stages):
    def rows(elements):
        return np.asarray(data.draw(st.lists(
            st.lists(elements, min_size=n_stages, max_size=n_stages),
            min_size=n_rows, max_size=n_rows)), dtype=float)

    depths = np.sort(rows(st.integers(0, 2**20)), axis=1)
    shots = rows(st.integers(0, 10_000))
    a = data.draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=n_rows, max_size=n_rows))
    kappa = data.draw(st.lists(st.floats(1e-9, 3.0), min_size=n_rows, max_size=n_rows))
    batched = _element_sums(np.asarray(a), np.asarray(kappa), _stage_weights(depths, shots))
    for k in range(n_rows):
        lone = _element_sums(np.asarray([a[k]]), kappa[k], _stage_weights(depths[k], shots[k]))
        for got, want in zip(batched, lone):
            np.testing.assert_array_equal(got[k : k + 1], want)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 6), n_stages=st.integers(1, 40))
def test_weights_prefix_equals_weights_of_the_prefix(data, n_rows, n_stages):
    # the estimator's Fisher call after stage n - 1 slices the weights it
    # built once for the whole schedule
    def draw_list(elements, size):
        return data.draw(st.lists(elements, min_size=size, max_size=size))

    depths = sorted(draw_list(st.integers(0, 2**20), n_stages))
    shots = draw_list(st.integers(0, 10_000), n_stages)
    n = data.draw(st.integers(1, n_stages))
    a = np.asarray(draw_list(st.floats(1e-6, 1.0 - 1e-6), n_rows))
    kappa = np.asarray(draw_list(st.floats(1e-9, 3.0), n_rows))
    want = _element_sums(a, kappa, _stage_weights(depths[:n], shots[:n]))
    sliced = _element_sums(a, kappa, tuple(w[:, :n] for w in _stage_weights(depths, shots)))
    lik = _StageLikelihood(depths, shots, [[0] * n_stages])
    for got in (sliced, _fisher_prefix(lik, a, kappa, n)):
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 25])
def test_fisher_prefix_at_a_repeated_point_resums_its_kept_terms(monkeypatch, n):
    # the search's Fisher calls at an estimate that holds, stage after stage:
    # each re-sums the kept terms' prefix as a fresh call sums it (numpy's
    # pairwise sum, which a running total does not reproduce), and a batch
    # in which one point moved recomputes
    schedule = make_schedule("eis", 24, 100)
    lik = _StageLikelihood(schedule.depths, schedule.shots,
                           [[s // 3 for s in schedule.shots]] * 3)
    weights = _stage_weights(schedule.depths, schedule.shots)
    a = np.asarray([0.2, 0.5, 0.7])
    kappa = np.asarray([1e-3, 1e-10, 0.3])
    computed = []

    def spy(a, kappa, weights):
        computed.append(weights[0].shape[1])
        return element_terms(a, kappa, weights)

    element_terms = estimator._element_terms
    monkeypatch.setattr(estimator, "_element_terms", spy)
    for k in range(1, n + 1):
        got = _fisher_prefix(lik, a, kappa, k)
        want = _element_sums(a, kappa, tuple(w[:, :k] for w in weights))
        assert got.tobytes() == want.tobytes()
    assert computed == [25]  # the whole schedule's terms, once
    moved = np.asarray([0.2, 0.55, 0.7])
    got = _fisher_prefix(lik, moved, kappa, n)
    want = _element_sums(moved, kappa, tuple(w[:, :n] for w in weights))
    assert got.tobytes() == want.tobytes()
    assert not np.array_equal(got[:, 1], _fisher_prefix(lik, a, kappa, n)[:, 1])
    assert computed == [25, 25, 25]
