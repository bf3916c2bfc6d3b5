"""The three workloads: seeded inputs, the user path, output checks, traced replay.

Each workload turns the benchmark seed into a pool of distinct operations
before any timing starts, so aemle only ever sees the generated argv lists
and JSON count documents.  `execute` runs one operation the way a user does;
`replay` runs the same operation through the public functions of each module
so that a tracer can put a span around every call; `check` decides from the
outputs which operations failed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from aemle import cli, estimator, fisher, hwspec, model, sampler, survey
from aemle.errors import AemleError

from spans import NullTracer

NULL = NullTracer()


@dataclass
class Op:
    """One operation: a CLI command (argv) or one recorded-count document."""

    kind: str
    argv: list[str] | None = None
    params: dict = field(default_factory=dict)
    units: int = 1  # operations it counts as in ops_per_s and attempted


@dataclass
class Outcome:
    op: Op
    latency: float
    ok: bool
    output: object


@dataclass
class Verdict:
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        self.problems.append(problem)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process `aemle <argv>`, returning the exit code and standard output."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _rows(text: str) -> list[dict]:
    doc = json.loads(text)
    return [dict(zip(doc["columns"], row)) for row in doc["rows"]]


class Workload:
    name = ""
    op_unit = ""  # what one counted operation is
    latency_unit = ""  # what one latency sample is
    uses_cli = True
    threads = 1

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.pool = self.generate()
        self.warmup = self.generate_warmup()

    def generate(self) -> list[Op]:
        raise NotImplementedError

    def generate_warmup(self) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op) -> tuple[bool, object]:
        code, out = run_cli(op.argv)
        return code == 0, out

    def replay(self, op: Op, tr) -> object:
        raise NotImplementedError

    def check(self, outcomes: list[Outcome]) -> Verdict:
        raise NotImplementedError


# ------------------------------------------------------------------ trials

TRACKED = (0.375, 0.067)  # ACCEPTANCE 11: RMSE tracks the bound
NOISY = (0.381, 0.331)  # ACCEPTANCE 11: RMSE above the classical bound
TRIALS_M = 6
TRIALS_SHOTS = 100
TRIALS_PER_COMMAND = 32
TRIALS_PAIRS = 4


class Trials(Workload):
    """`aemle trials --kind eis --M 6 --shots 100` at the two ACCEPTANCE 11 pairs."""

    name = "trials"
    op_unit = "estimate"
    latency_unit = "command"
    threads = os.cpu_count() or 1  # the CLI's --threads default

    def _command(self, a: float, kappa: float, trials: int) -> Op:
        seed = int(self.rng.integers(2**31))
        argv = ["trials", "--kind", "eis", "--M", str(TRIALS_M), "--shots", str(TRIALS_SHOTS),
                "--a", repr(a), "--kappa", repr(kappa), "--trials", str(trials),
                "--seed", str(seed), "--format", "json"]
        return Op("trials", argv, {"a": a, "kappa": kappa, "trials": trials, "seed": seed},
                  units=TRIALS_M * trials)

    def generate(self):
        return [self._command(*pair, TRIALS_PER_COMMAND)
                for _ in range(TRIALS_PAIRS) for pair in (TRACKED, NOISY)]

    def generate_warmup(self):
        return [self._command(*TRACKED, 2), self._command(*NOISY, 2)]

    def replay(self, op, tr):
        p = op.params
        point = tr.call("model", model.amplitude_point, p["a"], p["kappa"])
        for M in range(1, TRIALS_M + 1):
            schedule = tr.call("model", model.make_schedule, "eis", M, TRIALS_SHOTS)
            tr.call("fisher", fisher.cr_lower_bound, point, schedule)
            for t in range(p["trials"]):
                data = tr.call("sampler", sampler.sample_counts, point, schedule,
                               (p["seed"] * 64 + M) * 1_000_003 + t)
                tr.count("sampler.draws", sum(schedule.shots))
                try:
                    result = tr.call("estimator", estimator.mle_grid_adaptive, data)
                except AemleError:
                    tr.count("estimator.errors")
                    continue
                tr.count("estimator.likelihood_evaluations", result.likelihood_evaluations)
                tr.count("estimator.stages", len(data.stages))

    def check(self, outcomes):
        v = Verdict()
        cells: dict[tuple, list[dict]] = {}
        for o in outcomes:
            p = o.op.params
            if not o.ok:
                v.fail(o.op.units, f"trials a={p['a']} seed={p['seed']} exited non-zero")
                continue
            for row in _rows(o.output):
                good = p["trials"] - row["failed_trials"]
                v.failed += row["failed_trials"]
                cells.setdefault((p["a"], p["kappa"], row["M"]), []).append(dict(row, good=good))
        ratios = {}
        for (a, kappa, M), rows in sorted(cells.items()):
            good = sum(r["good"] for r in rows)
            if good == 0:
                continue
            # pool the runs' trials: mean square error weighted by good trials,
            # its variance from each command's jackknife standard error
            ms = sum(r["good"] * r["rmse"] ** 2 for r in rows) / good
            var_ms = sum((r["good"] / good * 2.0 * r["rmse"] * r["stderr"]) ** 2 for r in rows)
            rmse = math.sqrt(ms)
            se = math.sqrt(var_ms) / (2.0 * rmse)
            if (a, kappa) == TRACKED:
                eps = rows[0]["epsilon_min"]
                ratio, se_ratio = rmse / eps, se / eps
                ratios[M] = [round(ratio, 4), round(se_ratio, 4), good]
                if not 0.7 - 3.0 * se_ratio <= ratio <= 2.0 + 3.0 * se_ratio:
                    v.fail(good, f"rmse/epsilon_min={ratio:.3f} (se {se_ratio:.3f}) at M={M} "
                                 "outside [0.7, 2.0] by more than 3 se")
            elif M >= 2 and not rmse > math.sqrt(a * (1.0 - a) / rows[0]["N_q"]):
                v.fail(good, f"rmse {rmse:.3g} not above the classical bound at a={a} M={M}")
        v.notes["pooled_rmse_over_epsilon_min_by_M"] = ratios
        return v


# --------------------------------------------------------- estimate_stream

STREAM_KINDS = ("eis", "eis", "eis", "lis", "powerbase")  # 60% / 20% / 20%
STREAM_STAGES = range(2, 26)
POWER_BASE_R = 2.5
STREAM_REPEATS = 2
MISS_NATS = 0.1


class EstimateStream(Workload):
    """Recorded-count datasets through `data_from_json` -> `mle_grid_adaptive`."""

    name = "estimate_stream"
    op_unit = "estimate"
    latency_unit = "estimate"
    uses_cli = False

    def _dataset(self, stages: int, kind: str) -> Op:
        rng = self.rng
        shots = int(round(10 ** rng.uniform(2.0, 4.0)))
        a = float(rng.uniform(0.02, 0.98))
        kappa = float(math.exp(rng.uniform(math.log(1e-4), math.log(0.3))))
        r = POWER_BASE_R if kind == "powerbase" else None
        schedule = model.make_schedule(kind, stages - 1, shots, r)
        data = sampler.sample_counts(model.amplitude_point(a, kappa), schedule,
                                     int(rng.integers(2**31)))
        return Op("estimate", params={
            "doc": estimator.data_to_json(data), "a": a, "kappa": kappa, "kind": kind,
            "stages": stages, "ll_true": estimator.log_likelihood(data, a, kappa),
        })

    def generate(self):
        # Every stage count 2..25 once per kind slot, twice over, in a seeded
        # order: the mix is exact, so runs of different seeds differ in a,
        # kappa and shots, not in the stage mix that sets the cost.
        strata = [(s, k) for s in STREAM_STAGES for k in STREAM_KINDS] * STREAM_REPEATS
        return [self._dataset(*strata[i]) for i in self.rng.permutation(len(strata))]

    def generate_warmup(self):
        return [self._dataset(s, "eis") for s in STREAM_STAGES]

    def execute(self, op):
        result = self.replay(op, NULL)
        return result is not None, result

    def replay(self, op, tr):
        try:
            data = tr.call("estimator", estimator.data_from_json, op.params["doc"])
            result = tr.call("estimator", estimator.mle_grid_adaptive, data)
        except AemleError:
            tr.count("estimator.errors")
            return None
        tr.count("estimator.likelihood_evaluations", result.likelihood_evaluations)
        tr.count("estimator.stages", len(data.stages))
        return result.a_hat, result.kappa_hat, result.log_likelihood_at_max

    def check(self, outcomes):
        v = Verdict()
        misses = 0
        for o in outcomes:
            if not o.ok:
                v.fail(1, f"estimate raised on a {o.op.params['stages']}-stage dataset")
                continue
            a_hat, kappa_hat, ll_max = o.output
            if not (math.isfinite(a_hat) and 0.0 <= a_hat <= 1.0 and math.isfinite(kappa_hat)
                    and math.isfinite(ll_max)):
                v.fail(1, f"estimate not finite or a_hat={a_hat} outside [0, 1]")
            elif ll_max < o.op.params["ll_true"] - MISS_NATS:
                misses += 1
        estimates = sum(1 for o in outcomes if o.ok)
        v.notes["mle_misses"] = misses
        v.notes["estimates"] = estimates
        return v


# ------------------------------------------------------------------ survey

DENSITY_KAPPAS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
DENSITY_SAMPLES = 100_000
HWSPEC_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
HWSPEC_NINT = (1, 3, 5, 8)
REFERENCE_AMPLITUDE = 0.375
CRBOUND_A = 0.375
CRBOUND_M = 10
# ACCEPTANCE 10 windows on the density percentage, widened by 3 stderr
DENSITY_WINDOWS = {1e-1: (0.0, 0.0), 1e-2: (1.0, 1.6)}
DENSITY_WINDOW_DEFAULT = (1.2, 2.4)
# ACCEPTANCE 13: eps 1e-3, 5 variables, kappa-bar 0.005
HWSPEC_REFERENCE = {"N_nq": 10, "N_tnq": 99, "N_y": 1000, "N_s": 12687, "N_d": 16295, "m_bar": 99}


class Survey(Workload):
    """density, hwspec (kappa-bar scans and the reference row), crbound, contour."""

    name = "survey"
    op_unit = "command"
    latency_unit = "command"

    def generate(self):
        ops = []
        for kappa in DENSITY_KAPPAS:
            seed = int(self.rng.integers(2**31))
            ops.append(Op("density", ["density", "--kappa", repr(kappa), "--samples",
                                      str(DENSITY_SAMPLES), "--seed", str(seed), "--format", "json"],
                          {"kappa": kappa, "samples": DENSITY_SAMPLES, "seed": seed}))
        for eps in HWSPEC_EPS:
            for nint in HWSPEC_NINT:
                ops.append(Op("hwspec", ["hwspec", "--eps", repr(eps), "--nint", str(nint),
                                         "--format", "json"], {"eps": eps, "nint": nint}))
        ops.append(Op("hwspec", ["hwspec", "--eps", "0.001", "--nint", "5", "--kappa-bar", "0.005",
                                 "--format", "json"], {"eps": 0.001, "nint": 5, "kappa_bar": 0.005}))
        for _ in range(3):
            kappa = float(math.exp(self.rng.uniform(math.log(1e-4), math.log(1e-1))))
            ops.append(Op("crbound", ["crbound", "--a", repr(CRBOUND_A), "--kappa", repr(kappa),
                                      "--M", str(CRBOUND_M), "--format", "json"], {"kappa": kappa}))
        ops.append(Op("contour", ["contour", "--format", "json"], {}))
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def generate_warmup(self):
        return [
            Op("density", ["density", "--kappa", "0.001", "--samples", "1000", "--format", "json"]),
            Op("hwspec", ["hwspec", "--eps", "0.01", "--nint", "1", "--format", "json"]),
            Op("crbound", ["crbound", "--a", "0.375", "--M", "2", "--format", "json"]),
            Op("contour", ["contour", "--a-points", "4", "--kappa-points", "2", "--format", "json"]),
        ]

    def replay(self, op, tr):
        p = op.params
        if op.kind == "density":
            schedule = tr.call("survey", survey.default_density_schedule, p["kappa"], 100)
            tr.call("survey", survey.anomaly_density, p["kappa"], p["samples"], 0.9, schedule,
                    p["seed"])
            tr.count("survey.amplitude_stages", p["samples"] * len(schedule))
        elif op.kind == "hwspec":
            kappa_bar = p.get("kappa_bar")
            if kappa_bar is None:
                kappa_bar = tr.call("fisher", fisher.required_noise_for_error,
                                    REFERENCE_AMPLITUDE, p["eps"], 100)
            assumptions = tr.call("hwspec", hwspec.HardwareAssumptions, epsilon_target=p["eps"],
                                  N_int=p["nint"], kappa_bar_override=kappa_bar)
            report = tr.call("hwspec", hwspec.compute_spec, assumptions)
            tr.call("hwspec", hwspec.gate_error_gap, report)
            tr.call("hwspec", hwspec.report_rows, report)
        elif op.kind == "crbound":
            point = tr.call("model", model.amplitude_point, CRBOUND_A, p["kappa"])
            tr.call("fisher", fisher.max_grover_depth, p["kappa"])
            for M in range(1, CRBOUND_M + 1):
                schedule = tr.call("model", model.make_schedule, "eis", M, 100)
                n_queries = tr.call("model", model.total_queries, schedule)
                tr.call("fisher", fisher.cr_lower_bound, point, schedule)
                tr.call("fisher", fisher.classical_bound, CRBOUND_A, n_queries)
        else:  # contour, at the CLI defaults
            schedule = tr.call("model", model.make_schedule, "eis", 6, 100)
            a_grid, k_grid = np.linspace(0.01, 0.99, 99), np.geomspace(1e-5, 1e-1, 9)
            tr.call("survey", survey.error_vs_kappa_contour, a_grid, k_grid, schedule)
            tr.count("survey.amplitude_stages", a_grid.size * k_grid.size * len(schedule))

    def check(self, outcomes):
        v = Verdict()
        for o in outcomes:
            op = o.op
            if not o.ok:
                v.fail(1, f"{' '.join(op.argv)} exited non-zero")
                continue
            rows = _rows(o.output)
            if op.kind == "density":
                row = rows[0]
                lo, hi = DENSITY_WINDOWS.get(op.params["kappa"], DENSITY_WINDOW_DEFAULT)
                se = row["stderr_percent"]
                if not lo - 3.0 * se <= row["density_percent"] <= hi + 3.0 * se:
                    v.fail(1, f"density {row['density_percent']:.3f}% at kappa={op.params['kappa']} "
                              f"outside [{lo}, {hi}] +- 3 stderr")
            elif op.kind == "hwspec" and "kappa_bar" in op.params:
                values = {row["quantity"]: row["value"] for row in rows}
                got = {k: values.get(k) for k in HWSPEC_REFERENCE}
                if got != HWSPEC_REFERENCE:
                    v.fail(1, f"reference hwspec counts {got} != {HWSPEC_REFERENCE}")
        return v


WORKLOADS = {w.name: w for w in (Trials, EstimateStream, Survey)}
