"""Hardware-requirement calculator: closed-form rows, budgets, and times."""
import math
import random
from dataclasses import replace

import pytest
from oracles import gate_error_budget_reference

from aemle import (
    ConfigError,
    DomainError,
    HardwareAssumptions,
    TimeInterpretation,
    compute_spec,
    gate_error_gap,
    kappa_from_gate_errors,
    max_grover_depth,
    total_execution_time,
)
from aemle.hwspec import _gate_error_budget, report_rows

REFERENCE = HardwareAssumptions(epsilon_target=0.001, N_int=5, kappa_bar_override=0.005)


@pytest.fixture(scope="module")
def reference_report():
    return compute_spec(REFERENCE)


def test_register_and_gate_counts(reference_report):
    rep = reference_report
    assert rep.N_nq == 10
    assert rep.N_tnq == 99
    assert rep.N_y == 1000
    assert rep.N_s == 12687
    assert rep.N_d == 16295


def test_depth_limit_row(reference_report):
    assert reference_report.m_bar == 99
    assert reference_report.m_bar == max_grover_depth(reference_report.kappa_bar)


def test_gate_error_budget(reference_report):
    rep = reference_report
    # root of -N_s ln(1 - e/10) - N_d ln(1 - e) = 0.005, solved independently
    assert rep.eps_d == pytest.approx(2.8467801969817127e-07, rel=1e-9)
    assert rep.eps_s == pytest.approx(rep.eps_d / 10.0, rel=1e-15)
    # round trip: the budget reproduces the survival product
    product = (1.0 - rep.eps_s) ** rep.N_s * (1.0 - rep.eps_d) ** rep.N_d
    assert product == pytest.approx(math.exp(-rep.kappa_bar), rel=1e-9)


def test_gate_error_budget_beyond_the_bracket_cap_is_refused():
    # one integration variable: eps_d = 0.999999 gives kappa = 1110.7, so a
    # larger kappa-bar has no budget, and one just below it still has one
    with pytest.raises(DomainError, match=r"kappa_bar=5000\.0 exceeds kappa=1110\.70"):
        compute_spec(HardwareAssumptions(epsilon_target=1e-4, N_int=1, kappa_bar_override=5000.0))
    rep = compute_spec(HardwareAssumptions(epsilon_target=1e-4, N_int=1, kappa_bar_override=1110))
    budget = kappa_from_gate_errors([(rep.eps_s, rep.N_s), (rep.eps_d, rep.N_d)])
    assert budget == pytest.approx(1110, rel=1e-9)


def _budget_or_error(budget, *args):
    try:
        return budget(*args).hex()
    except DomainError as exc:
        return str(exc)


def _budget_inputs():
    """(kappa_bar, N_s, N_d, ratio) on a seeded log grid, ratios below 1
    included, then kappa_bar a few ulps either side of the largest kappa the
    0.999999 bracket cap reaches."""
    rng = random.Random(20261019)
    for _ in range(3000):
        yield (10.0 ** rng.uniform(-12, 5), round(10.0 ** rng.uniform(0, 6)),
               round(10.0 ** rng.uniform(0, 6)), 10.0 ** rng.uniform(-1, 3))
    for _ in range(50):
        N_s, N_d, ratio = rng.randint(1, 10**4), rng.randint(1, 10**4), 10.0 ** rng.uniform(0, 3)
        cap = kappa_from_gate_errors([(0.999999 / ratio, N_s), (0.999999, N_d)])
        for steps in (-2, 0, 1, 3):
            kappa_bar = cap
            for _ in range(abs(steps)):
                kappa_bar = math.nextafter(kappa_bar, math.copysign(math.inf, steps))
            yield kappa_bar, N_s, N_d, ratio


def test_gate_error_budget_is_bit_identical_to_fixed_step_bisection():
    outcomes = set()
    for args in _budget_inputs():
        got = _budget_or_error(_gate_error_budget, *args)
        assert got == _budget_or_error(gate_error_budget_reference, *args), args
        outcomes.add(got[:2])
    # budgets and kappa_bar past the cap; at ratio < 1 the bracket ends at
    # e = 0.999999 ratio, so the single-qubit error e / ratio stays below 1
    assert outcomes == {"0x", "ka"}


def test_execution_times(reference_report):
    rep = reference_report
    assert rep.t_AA == pytest.approx(5.4633770e-3, rel=1e-9)
    assert rep.t_AA == pytest.approx(5.4e-3, rel=0.02)
    assert rep.t_mbar == pytest.approx(0.540877823, rel=1e-9)
    assert rep.t_mbar == pytest.approx(0.54, rel=0.02)
    assert rep.t_total == pytest.approx(1358.2263222, rel=1e-9)
    assert rep.interpretation is TimeInterpretation.PER_SHOT


def test_per_mbar_interpretation(reference_report):
    rep = compute_spec(REFERENCE, TimeInterpretation.PER_MBAR)
    assert rep.t_total == pytest.approx(4450.4977, rel=1e-6)
    assert rep.interpretation is TimeInterpretation.PER_MBAR
    # only the total-time sum reads the interval rule
    assert replace(rep, t_total=reference_report.t_total,
                   interpretation=TimeInterpretation.PER_SHOT) == reference_report


def test_time_closed_form_without_intervals():
    asm = HardwareAssumptions(
        epsilon_target=0.001, N_int=5, kappa_bar_override=0.005, t_m=1e-30, interval_factor=0.0
    )
    rep = compute_spec(asm)
    ladder_sum = 1 + 2 + 4 + 8 + 16 + 32 + 64 + 99
    expected = asm.N_k * rep.t_AA * ladder_sum + asm.N_k * 8 * 1e-30
    assert rep.t_total == pytest.approx(expected, rel=1e-12)


def test_time_linear_in_shots():
    base = compute_spec(REFERENCE)
    doubled = compute_spec(
        HardwareAssumptions(epsilon_target=0.001, N_int=5, N_k=200, kappa_bar_override=0.005)
    )
    assert doubled.t_total == pytest.approx(2.0 * base.t_total, rel=1e-12)
    for interp in TimeInterpretation:
        t1 = total_execution_time(REFERENCE, base.t_AA, base.t_mbar, base.m_bar, interp)
        t2 = total_execution_time(
            HardwareAssumptions(
                epsilon_target=0.001, N_int=5, N_k=200, kappa_bar_override=0.005
            ),
            base.t_AA,
            base.t_mbar,
            base.m_bar,
            interp,
        )
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)


def test_tighter_target_never_cheapens_hardware():
    reports = [
        compute_spec(HardwareAssumptions(epsilon_target=eps, N_int=5))
        for eps in (1e-2, 1e-3, 1e-4)
    ]
    for coarse, fine in zip(reports, reports[1:]):
        assert fine.N_nq >= coarse.N_nq
        assert fine.N_s >= coarse.N_s
        assert fine.N_d >= coarse.N_d
        assert fine.t_total >= coarse.t_total


def test_scan_sourced_noise_level():
    rep = compute_spec(HardwareAssumptions(epsilon_target=0.001, N_int=5))
    assert rep.kappa_bar == pytest.approx(0.0141443, rel=1e-3)
    assert rep.m_bar == max_grover_depth(rep.kappa_bar)


def test_gate_error_gap(reference_report):
    # the defaults are the device errors 1e-3 (single-qubit) and 1e-2 (two-qubit)
    gap = gate_error_gap(reference_report)
    assert gap.gap_d == pytest.approx(1.0e-2 / reference_report.eps_d, rel=1e-12)
    assert gap.gap_s == pytest.approx(1.0e-3 / reference_report.eps_s, rel=1e-12)
    # both gaps are about 4.5 orders of magnitude
    assert 1e4 < gap.gap_s < 1e5
    with pytest.raises(DomainError):
        gate_error_gap(reference_report, device_eps_s=0.0)
    # a NaN passes a "<= 0" check and would give nan gaps
    for device in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            gate_error_gap(reference_report, device_eps_s=device)
        with pytest.raises(DomainError, match="finite"):
            gate_error_gap(reference_report, device_eps_d=device)
    # a device error is a probability: 1 or more has no meaning
    for device in (1.0, 2.0, 1e308):
        with pytest.raises(DomainError, match=r"finite and in \(0, 1\)"):
            gate_error_gap(reference_report, device_eps_s=device)
        with pytest.raises(DomainError, match=r"finite and in \(0, 1\)"):
            gate_error_gap(reference_report, device_eps_d=device)
    # a subnormal budget whose gap overflows, and a budget that underflowed to 0
    with pytest.raises(DomainError, match="gap_d=inf is not finite"):
        gate_error_gap(replace(reference_report, eps_d=5e-324))
    with pytest.raises(DomainError, match="gap_s=inf is not finite"):
        gate_error_gap(replace(reference_report, eps_s=0.0))


def test_kappa_from_gate_errors_reference_circuits():
    assert kappa_from_gate_errors([(0.00565, 5)]) == pytest.approx(0.02833, abs=1e-4)
    assert kappa_from_gate_errors([(0.00565, 5)]) == pytest.approx(0.0283301081331, rel=1e-9)
    two = kappa_from_gate_errors([(0.008923, 8), (0.01119, 8)])
    assert two == pytest.approx(0.1617, abs=1e-3)
    assert two == pytest.approx(0.161729019505, rel=1e-9)


def test_kappa_from_gate_errors_validation():
    with pytest.raises(ConfigError):
        kappa_from_gate_errors([])
    with pytest.raises(DomainError):
        kappa_from_gate_errors([(1.0, 2)])
    # a count is an integer under the ceiling: 10**400 raised OverflowError
    # and 2.5 was summed as a fraction of a gate
    for count in (-1, 2.5, 10**400):
        with pytest.raises(ConfigError, match=rf"gate count={count} must be an integer in \[0, 2\*\*52\]"):
            kappa_from_gate_errors([(0.01, count)])


def test_assumption_validation():
    with pytest.raises(ConfigError):
        HardwareAssumptions(epsilon_target=0.0, N_int=5)
    with pytest.raises(ConfigError):
        HardwareAssumptions(epsilon_target=0.001, N_int=0)
    with pytest.raises(ConfigError):
        HardwareAssumptions(epsilon_target=0.001, N_int=5, t_s=-1.0)
    with pytest.raises(ConfigError):
        HardwareAssumptions(epsilon_target=0.001, N_int=5, kappa_bar_override=-0.1)
    with pytest.raises(ConfigError, match=r"^interval_factor=-1.0 must be >= 0$"):
        HardwareAssumptions(epsilon_target=0.001, N_int=5, interval_factor=-1.0)
    for a in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigError, match=rf"^reference_amplitude={a} outside \(0, 1\)$"):
            HardwareAssumptions(epsilon_target=0.001, N_int=5, reference_amplitude=a)
    # below about 5.6e-309, 1 / eps overflows and log2 of it sizes no register
    with pytest.raises(ConfigError, match="epsilon_target=1e-320 is too small"):
        HardwareAssumptions(epsilon_target=1e-320, N_int=3)
    # below a normal double the budget bracket's e / ratio reaches 1
    for ratio in (1e-320, 1e-310):
        with pytest.raises(ConfigError, match=f"error_ratio={ratio} must be at least"):
            HardwareAssumptions(epsilon_target=0.001, N_int=3, error_ratio=ratio)
    # the counts are integers: an integral float is stored as an int, a
    # fractional one would size registers and shot totals from a fraction
    whole = HardwareAssumptions(epsilon_target=0.001, N_int=3.0, N_k=100.0)
    assert (whole.N_int, whole.N_k) == (3, 100) and type(whole.N_int) is type(whole.N_k) is int
    with pytest.raises(ConfigError, match="N_int=2.5"):
        HardwareAssumptions(epsilon_target=0.001, N_int=2.5)
    with pytest.raises(ConfigError, match="N_k=100.5"):
        HardwareAssumptions(epsilon_target=0.001, N_int=5, N_k=100.5)


FLOAT_ASSUMPTIONS = [
    "epsilon_target", "t_s", "t_d", "t_m", "interval_factor", "error_ratio",
    "reference_amplitude", "kappa_bar_override",
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", FLOAT_ASSUMPTIONS)
def test_assumptions_reject_non_finite_values(name, value):
    # a NaN passes every "<= 0" check, and an infinite ratio or time would
    # reach the report as a nan row or a ZeroDivisionError
    with pytest.raises(ConfigError, match=f"{name}={value} must be finite"):
        HardwareAssumptions(**{"epsilon_target": 0.001, "N_int": 5, name: value})


def test_report_rows_cover_every_quantity(reference_report):
    rows = report_rows(reference_report)
    names = [name for name, _, _ in rows]
    for expected in (
        "N_nq", "N_tnq", "N_y", "N_s", "N_d", "kappa_bar", "m_bar",
        "eps_s", "eps_d", "t_AA", "t_mbar", "t_total",
    ):
        assert expected in names
