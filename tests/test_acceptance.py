"""Numbered acceptance suite: one verdict line per headline guarantee.

Each test pins a user-facing behavior at a fixed tolerance and, where the
check is statistical or exhaustive, a wall-clock budget.  Verdicts are
registered through conftest.check so a full run prints one PASS/FAIL row
per criterion in the terminal summary.
"""
import math
import time

import numpy as np

from aemle import (
    HardwareAssumptions,
    Schedule,
    amplitude_point,
    anomality,
    anomaly_density,
    classical_bound,
    compute_spec,
    cr_lower_bound,
    fisher_matrix,
    kappa_from_gate_errors,
    make_schedule,
    max_grover_depth,
    mle_grid_adaptive,
    mle_profile_1d,
    noisy_good_prob,
    nuisance_inflation,
    required_noise_for_error,
    run_trials,
    sample_counts,
    total_queries,
)

from circuitsim import build_A, depolarized_good_prob
from integrate import sin2_target, target_amplitude
from conftest import check
from oracles import all_small_schedules, fisher_enumerated

SEED = 20250817


def test_01_circuit_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        spec, _ = sin2_target(n, 2.0 * math.pi / 5.0)
        A = build_A(spec)
        a = target_amplitude(spec)
        for kappa in (0.0, 0.067, 0.331):
            point = amplitude_point(a, kappa)
            p_survive = math.exp(-kappa)
            for m in range(11):
                circuit = depolarized_good_prob(A, m, p_survive)
                diff = abs(circuit - noisy_good_prob(m, point))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    check(
        1,
        "density-matrix circuit matches the closed-form hit probability to 1e-10",
        worst <= 1e-10 and elapsed < 5.0,
        f"max diff {worst:.2e}, {elapsed:.2f} s",
    )


def test_02_integration_target_values():
    _, s1 = sin2_target(1, 2.0 * math.pi / 5.0)
    _, s2 = sin2_target(2, 2.0 * math.pi / 5.0)
    _, s3 = sin2_target(1, math.pi / 20.0)
    ok = (
        abs(s1 - 0.375) <= 5e-4
        and abs(s2 - 0.381) <= 5e-4
        and abs(s3 - 0.0077) <= 5e-4
    )
    check(
        2,
        "sine-squared integration targets hit 0.375, 0.381, and 0.0077",
        ok,
        f"S = {s1:.6f}, {s2:.6f}, {s3:.6f}",
    )


def test_03_fisher_matches_exhaustive_score_covariance():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for depths, shots in all_small_schedules(max_stages=3, max_shots=3):
        sched = Schedule(tuple(zip(depths, shots)))
        for a in (0.12, 0.3, 0.5, 0.62, 0.85):
            for kappa in (0.0, 0.05, 0.31):
                info = fisher_matrix(amplitude_point(a, kappa), sched)
                o11, o12, o22 = fisher_enumerated(depths, shots, a, kappa)
                scale = max(abs(o11), abs(o12), abs(o22))
                err = max(
                    abs(info.i11 - o11), abs(info.i12 - o12), abs(info.i22 - o22)
                ) / scale
                worst = max(worst, err)
                cases += 1
    elapsed = time.perf_counter() - t0
    check(
        3,
        "closed-form Fisher matrix matches exhaustive score covariance to rel 1e-8",
        worst <= 1e-8 and elapsed < 30.0,
        f"{cases} cases, worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_04_classical_schedule_reproduces_sampling_bound():
    worst = 0.0
    for a in (0.12, 0.375, 0.85):
        for kappa in (0.0, 0.1):
            for M, shots in ((1, 50), (3, 100), (5, 40)):
                sched = make_schedule("classical", M, shots)
                nq = total_queries(sched)
                eps = cr_lower_bound(amplitude_point(a, kappa), sched).epsilon_min
                ref = math.sqrt(a * (1.0 - a) / nq)
                worst = max(worst, abs(eps - ref) / ref)
    check(
        4,
        "classical-schedule lower bound equals sqrt(a(1-a)/N_q) to 1e-12",
        worst <= 1e-12,
        f"worst rel err {worst:.2e}",
    )


def test_05_noiseless_heisenberg_slope():
    point = amplitude_point(0.375, 0.0)
    log_nq, log_eps = [], []
    for M in range(3, 15):
        sched = make_schedule("eis", M, 100)
        log_nq.append(math.log10(total_queries(sched)))
        log_eps.append(math.log10(cr_lower_bound(point, sched).epsilon_min))
    slope = float(np.polyfit(log_nq, log_eps, 1)[0])
    check(
        5,
        "noiseless exponential schedule shows Heisenberg scaling, slope in [-1.05, -0.85]",
        -1.05 <= slope <= -0.85,
        f"slope {slope:.4f}",
    )


def test_06_plateau_onset_location():
    ok = True
    details = []
    for kappa, decade in ((0.01, 1e4), (0.001, 1e5)):
        point = amplitude_point(0.375, kappa)
        mbar = max_grover_depth(kappa)
        # largest M whose deepest dyadic stage still fits under the depth limit
        m_star = int(math.floor(math.log2(mbar))) + 1
        nq_bar = total_queries(make_schedule("eis", m_star, 100))
        eps_above = cr_lower_bound(point, make_schedule("eis", m_star + 1, 100)).epsilon_min
        plateau = cr_lower_bound(point, make_schedule("eis", 24, 100)).epsilon_min
        ok = ok and 0.3 * decade <= nq_bar <= 3.0 * decade
        ok = ok and eps_above > 0.8 * plateau
        details.append(f"kappa={kappa}: N_q_bar={nq_bar}, eps/plateau={eps_above / plateau:.2f}")
    check(
        6,
        "error curve flattens at the depth-limited query count N_q_bar",
        ok,
        "; ".join(details),
    )


def test_07_depth_limit_value():
    mbar = max_grover_depth(0.005)
    check(7, "maximum useful depth at kappa = 0.005 is exactly 99", mbar == 99, f"m_bar {mbar}")


def test_08_required_noise_level():
    kbar = {eps: required_noise_for_error(0.375, eps, 100) for eps in (1e-3, 1e-4, 1e-5)}
    in_range = 3e-4 <= kbar[1e-4] <= 3e-3
    r43 = kbar[1e-4] / kbar[1e-3]
    r54 = kbar[1e-5] / kbar[1e-4]
    quasi = 0.05 <= r43 <= 0.2 and 0.05 <= r54 <= 0.2
    check(
        8,
        "tolerable noise for eps = 1e-4 lands in [3e-4, 3e-3] and scales quasi-linearly",
        in_range and quasi,
        f"kappa_bar(1e-4) = {kbar[1e-4]:.3e}, decade ratios {r43:.3f}, {r54:.3f}",
    )


def test_09_anomalous_target_and_ladder_fix():
    a_anom = math.sin(math.pi / 8.0) ** 2
    point = amplitude_point(a_anom, 1e-3)
    eis = make_schedule("eis", 8, 100)
    pb = make_schedule("powerbase", 8, 100, 2.5)
    beta_eis = anomality(point, eis)
    beta_pb = anomality(point, pb)
    gain = cr_lower_bound(point, eis).epsilon_min / cr_lower_bound(point, pb).epsilon_min
    check(
        9,
        "a = sin^2(pi/8) is anomalous under dyadic depths and cured by base 2.5",
        beta_eis > 0.9 and beta_pb < 0.9 and gain >= 3.0,
        f"beta {beta_eis:.4f} vs {beta_pb:.4f}, error ratio {gain:.1f}x",
    )


def test_10_anomalous_density_by_noise_level():
    t0 = time.perf_counter()
    samples = 10_000
    ok = True
    details = []
    zero = anomaly_density(1e-1, samples, seed=SEED)
    ok = ok and zero.density_percent == 0.0
    details.append(f"1e-1: {zero.density_percent:.2f}%")
    mid = anomaly_density(1e-2, samples, seed=SEED)
    ok = ok and (
        1.0 - 3.0 * mid.stderr_percent
        <= mid.density_percent
        <= 1.6 + 3.0 * mid.stderr_percent
    )
    details.append(f"1e-2: {mid.density_percent:.2f}%")
    for kappa in (1e-6, 1e-5, 1e-4, 1e-3):
        row = anomaly_density(kappa, samples, seed=SEED)
        ok = ok and (
            1.2 - 3.0 * row.stderr_percent
            <= row.density_percent
            <= 2.4 + 3.0 * row.stderr_percent
        )
        details.append(f"{kappa:g}: {row.density_percent:.2f}%")
    elapsed = time.perf_counter() - t0
    check(
        10,
        "anomalous-amplitude density per noise level sits in its tabulated window",
        ok and elapsed < 600.0,
        "; ".join(details) + f"; {elapsed:.1f} s",
    )


def test_11_estimator_rmse_tracks_lower_bound():
    t0 = time.perf_counter()
    tracked = run_trials(amplitude_point(0.375, 0.067), "eis", 6, 100, 256, SEED)
    ratios = [rec.rmse / rec.epsilon_min for rec in tracked.records]
    track_ok = all(0.7 <= rho <= 2.0 for rho in ratios)
    noisy = run_trials(amplitude_point(0.381, 0.331), "eis", 6, 100, 256, SEED)
    above_classical = all(
        rec.rmse > classical_bound(0.381, rec.n_queries)
        for rec in noisy.records
        if rec.M >= 2
    )
    elapsed = time.perf_counter() - t0
    check(
        11,
        "seeded RMSE stays within [0.7, 2.0]x of the bound and above classical at high noise",
        track_ok and above_classical and elapsed < 600.0,
        f"ratios {min(ratios):.3f}..{max(ratios):.3f}, {elapsed:.1f} s",
    )


def test_12_nuisance_error_inflation_formula():
    point = amplitude_point(0.695, 0.05)
    sched = make_schedule("eis", 6, 400)
    info = fisher_matrix(point, sched)
    var_a = info.i22 / info.det
    ident_ok = abs(nuisance_inflation(point, sched, 1.0) - var_a) <= 1e-12 * var_a

    # fix kappa-hat 1.5 sigma off its true value: c = 1.5^2 = 2.25
    eps_kappa = math.sqrt(info.i11 / info.det)
    predicted = nuisance_inflation(point, sched, 2.25)
    trials = 500
    ratios = []
    for sign, base in ((1.0, 3000), (-1.0, 6000)):
        kappa_fixed = 0.05 + sign * 1.5 * eps_kappa
        sq_err = 0.0
        for t in range(trials):
            data = sample_counts(point, sched, base + t)
            a_hat = mle_profile_1d(data, kappa_fixed)
            sq_err += (a_hat - 0.695) ** 2
        ratios.append(sq_err / trials / predicted)
    mc_ok = all(0.5 <= rho <= 2.0 for rho in ratios)
    check(
        12,
        "biased-nuisance mean-squared error matches the inflation formula",
        ident_ok and mc_ok,
        f"MC/formula ratios {ratios[0]:.3f}, {ratios[1]:.3f}",
    )


def test_13_hardware_requirement_table():
    report = compute_spec(
        HardwareAssumptions(epsilon_target=0.001, N_int=5, kappa_bar_override=0.005)
    )
    counts = (report.N_nq, report.N_tnq, report.N_y, report.N_s, report.N_d, report.m_bar)
    counts_ok = counts == (10, 99, 1000, 12687, 16295, 99)
    t_aa_ok = abs(report.t_AA - 5.4e-3) <= 0.02 * 5.4e-3
    t_mbar_ok = abs(report.t_mbar - 0.54) <= 0.02 * 0.54
    eps_d_ok = abs(report.eps_d - 2.8e-7) <= 0.10 * 2.8e-7
    t_total_ok = 1082.0 / 2.0 <= report.t_total <= 1082.0 * 2.0
    check(
        13,
        "reference hardware table reproduces counts exactly and times within windows",
        counts_ok and t_aa_ok and t_mbar_ok and eps_d_ok and t_total_ok,
        f"counts {counts}, t_AA {report.t_AA:.3e}, t_mbar {report.t_mbar:.3f}, "
        f"eps_d {report.eps_d:.3e}, t_total {report.t_total:.1f}",
    )


def test_14_noise_level_from_gate_errors():
    k1 = kappa_from_gate_errors([(0.00565, 5)])
    k2 = kappa_from_gate_errors([(0.008923, 8), (0.01119, 8)])
    check(
        14,
        "per-depth noise from reported gate errors gives 0.02833 and 0.1617",
        abs(k1 - 0.02833) <= 1e-4 and abs(k2 - 0.1617) <= 1e-3,
        f"kappa {k1:.5f}, {k2:.5f}",
    )


def test_15_likelihood_evaluations_linear_in_stages():
    counts = []
    bound_ok = True
    for M in range(1, 7):
        sched = make_schedule("eis", M, 100)
        data = sample_counts(amplitude_point(0.3, 0.01), sched, 11)
        result = mle_grid_adaptive(data)
        counts.append(result.likelihood_evaluations)
        bound_ok = bound_ok and result.likelihood_evaluations <= 64 * 64 * (M + 1)
    increments = {counts[i + 1] - counts[i] for i in range(len(counts) - 1)}
    check(
        15,
        "likelihood evaluations grow linearly in stage count within divisions^2 per stage",
        bound_ok and len(increments) == 1,
        f"counts {counts}",
    )
