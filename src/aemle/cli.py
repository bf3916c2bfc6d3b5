"""Command-line frontend: every capability as a subcommand with seeded runs.

Emission rules shared by all subcommands: each run prints a machine-readable
header carrying the tool version, the resolved parameters, and the seed;
reals are written with 17 significant digits so CSV round-trips losslessly;
identical flags and seed give byte-identical output.  Exit codes: 0 success,
2 bad usage or unparseable input, 3 a computation that raised or an input
too large to allocate or to size.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import shutil
import sys

import numpy as np

from . import __version__
from .errors import AemleError, ConfigError
from .estimator import MleConfig, data_from_json, mle_grid_adaptive
from .fisher import max_grover_depth
from .hwspec import (
    HardwareAssumptions,
    TimeInterpretation,
    compute_spec,
    gate_error_gap,
    report_rows,
)
from .model import (
    ScheduleKind,
    _integral,
    amplitude_point,
    make_schedule,
    noisy_good_prob,
    schedule_to_json,
    total_queries,
)
from .sampler import hit_rate_curve, run_trials, sample_counts
from .survey import (
    anomaly_density,
    default_density_schedule,
    error_vs_kappa_contour,
    error_vs_queries,
)

# Default seed: fixed so every run is reproducible out of the box.
DEFAULT_SEED = 20250817

_SEED_ENV = "AEMLE_SEED"

_KINDS = [kind.value for kind in ScheduleKind if kind is not ScheduleKind.EXPLICIT]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _resolved_seed(args: argparse.Namespace) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get(_SEED_ENV)
        if env is None:
            return DEFAULT_SEED
        source = _SEED_ENV
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"{_SEED_ENV}={env!r} is not an integer") from exc
    # numpy's SeedSequence takes only non-negative entropy, of any size
    return _integral(seed, source, 0, math.inf)


def _emit(
    args: argparse.Namespace,
    params: dict[str, object],
    columns: list[str],
    rows: list[list[object]],
) -> None:
    meta = _meta(args, params)
    if args.format == "json":
        doc = {"meta": meta, "columns": columns, "rows": rows}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        pairs = " ".join(f"{k}={_fmt(v)}" for k, v in meta["params"].items())
        header = f"# aemle {__version__} {args.command} {pairs}".rstrip()
        cells = [[_fmt(v) for v in row] for row in rows]
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(cells)
            text = header + "\n" + buf.getvalue()
        else:
            widths = [
                max(len(columns[i]), max((len(r[i]) for r in cells), default=0))
                for i in range(len(columns))
            ]
            lines = [header, "  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
            for row in cells:
                lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            text = "\n".join(lines) + "\n"
    _write(args, text)


def _meta(args: argparse.Namespace, params: dict[str, object]) -> dict:
    """The run's header: the resolved seed first, then the command's parameters."""
    return {"tool": "aemle", "version": __version__, "command": args.command,
            "params": {"seed": args.seed, **params}}


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _schedule_descriptor(schedule) -> str:
    depths = "|".join(str(m) for m in schedule.depths)
    shots = "|".join(str(n) for n in schedule.shots)
    return f"{schedule.kind.value};depths={depths};shots={shots}"


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


# ---------------------------------------------------------------- subcommands


def cmd_schedule(args: argparse.Namespace) -> None:
    schedule = make_schedule(args.kind, args.M, args.shots, args.r)
    params: dict[str, object] = {"kind": args.kind, "M": args.M, "shots": args.shots,
                                 "n_queries": total_queries(schedule)}
    if args.kind == "powerbase":  # only that ladder reads --r
        params["r"] = args.r
    if args.format == "json":
        doc = json.loads(schedule_to_json(schedule))
        doc["meta"] = _meta(args, params)
        _write(args, json.dumps(doc, indent=2) + "\n")
        return
    rows = [[k, m, n] for k, (m, n) in enumerate(schedule.stages)]
    _emit(args, params, ["stage", "m", "shots"], rows)


def cmd_crbound(args: argparse.Namespace) -> None:
    _check(0.0 < args.a < 1.0, f"--a must be strictly inside (0, 1), got {args.a}")
    _check(args.kappa >= 0.0, f"--kappa must be >= 0, got {args.kappa}")
    mbar = max_grover_depth(args.kappa) if args.kappa > 0.0 else None
    params: dict[str, object] = {"a": args.a, "kappa": args.kappa, "kind": args.kind,
                                 "shots": args.shots}
    if args.kind == "powerbase":  # only that ladder reads --r
        params["r"] = args.r
    if mbar is not None:
        params["m_bar"] = mbar
    rows = [
        [row.M, row.n_queries, row.epsilon_min, row.classical_epsilon, row.identifiable,
         row.beyond_max_depth]
        for row in error_vs_queries(args.a, [args.kappa], args.M, args.shots, args.kind, args.r)
    ]
    _emit(
        args,
        params,
        ["M", "n_queries", "epsilon_min", "classical_epsilon", "identifiable", "beyond_max_depth"],
        rows,
    )


def cmd_estimate(args: argparse.Namespace) -> None:
    config = MleConfig(divisions_per_stage=args.divisions)
    params: dict[str, object] = {"divisions": args.divisions}
    if args.data is not None:
        with open(args.data, "r", encoding="utf-8") as fh:
            data = data_from_json(fh.read())
        params["data"] = os.path.basename(args.data)
    else:
        _check(args.a is not None and args.kappa is not None,
               "--simulate requires --a and --kappa")
        _check(0.0 <= args.a <= 1.0, f"--a must be in [0, 1], got {args.a}")
        _check(args.kappa >= 0.0, f"--kappa must be >= 0, got {args.kappa}")
        schedule = make_schedule(args.kind, args.M, args.shots, args.r)
        data = sample_counts(amplitude_point(args.a, args.kappa), schedule, args.seed)
        params.update({"a": args.a, "kappa": args.kappa, "kind": args.kind,
                       "M": args.M, "shots": args.shots})
        if args.kind == "powerbase":  # only that ladder reads --r
            params["r"] = args.r
    result = mle_grid_adaptive(data, config)
    rows = [[
        result.a_hat,
        result.kappa_hat,
        result.log_likelihood_at_max,
        result.likelihood_evaluations,
        result.anomalous,
        result.anomality if result.anomality is not None else float("nan"),
        result.kappa_identifiable,
    ]]
    _emit(
        args,
        params,
        ["a_hat", "kappa_hat", "log_likelihood", "evaluations", "anomalous",
         "anomality", "kappa_identifiable"],
        rows,
    )


def cmd_trials(args: argparse.Namespace) -> None:
    _check(0.0 < args.a < 1.0, f"--a must be strictly inside (0, 1), got {args.a}")
    _check(args.kappa >= 0.0, f"--kappa must be >= 0, got {args.kappa}")
    batch = run_trials(
        amplitude_point(args.a, args.kappa),
        args.kind,
        args.M,
        args.shots,
        args.trials,
        args.seed,
        MleConfig(divisions_per_stage=args.divisions),
        args.r,
    )
    params: dict[str, object] = {"a": args.a, "kappa": args.kappa, "kind": args.kind,
                                 "shots": args.shots, "trials": args.trials,
                                 "divisions": args.divisions}
    if args.kind == "powerbase":  # only that ladder reads --r
        params["r"] = args.r
    rows = [
        [rec.M, rec.n_queries, rec.rmse, rec.stderr, rec.mean_kappa_hat,
         rec.failed_trials, rec.epsilon_min]
        for rec in batch.records
    ]
    _emit(
        args,
        params,
        ["M", "N_q", "rmse", "stderr", "mean_kappa_hat", "failed_trials", "epsilon_min"],
        rows,
    )


def cmd_density(args: argparse.Namespace) -> None:
    _check(args.kappa > 0.0, f"--kappa must be > 0, got {args.kappa}")
    if args.M is not None:
        schedule = make_schedule(ScheduleKind.EIS, args.M, args.shots)
    else:
        schedule = default_density_schedule(args.kappa, args.shots)
    result = anomaly_density(args.kappa, args.samples, args.threshold, schedule, args.seed)
    params: dict[str, object] = {"kappa": args.kappa, "samples": args.samples,
                                 "threshold": args.threshold}
    rows = [[
        result.kappa,
        result.density_percent,
        result.stderr_percent,
        result.samples,
        result.skipped,
        result.threshold,
        _schedule_descriptor(result.schedule),
    ]]
    _emit(
        args,
        params,
        ["kappa", "density_percent", "stderr_percent", "samples", "skipped",
         "threshold", "schedule"],
        rows,
    )


def cmd_contour(args: argparse.Namespace) -> None:
    _check(0.0 < args.a_min < args.a_max < 1.0,
           "--a-min/--a-max must satisfy 0 < min < max < 1")
    _check(0.0 < args.kappa_min < args.kappa_max,
           "--kappa-min/--kappa-max must satisfy 0 < min < max")
    a_points = _integral(args.a_points, "--a-points", 2)
    kappa_points = _integral(args.kappa_points, "--kappa-points", 2)
    schedule = make_schedule(args.kind, args.M, args.shots, args.r)
    a_grid = np.linspace(args.a_min, args.a_max, a_points)
    with np.errstate(all="ignore"):  # a non-finite end is the library's DomainError
        k_grid = np.geomspace(args.kappa_min, args.kappa_max, kappa_points)
    grid = error_vs_kappa_contour(a_grid, k_grid, schedule)
    params: dict[str, object] = {"kind": args.kind, "M": args.M, "shots": args.shots,
                                 "a_points": args.a_points, "kappa_points": args.kappa_points}
    if args.kind == "powerbase":  # only that ladder reads --r
        params["r"] = args.r
    columns = ["a"] + [f"kappa={_fmt(k)}" for k in grid.kappa_values]
    rows = [[a, *eps_row] for a, eps_row in zip(grid.a_values, grid.epsilon_min)]
    _emit(args, params, columns, rows)


def cmd_hwspec(args: argparse.Namespace) -> None:
    assumptions = HardwareAssumptions(
        epsilon_target=args.eps,
        N_int=args.nint,
        N_k=args.nk,
        t_s=args.ts,
        t_d=args.td,
        t_m=args.tm,
        interval_factor=args.interval_factor,
        error_ratio=args.error_ratio,
        reference_amplitude=args.ref_a,
        kappa_bar_override=args.kappa_bar,
    )
    interpretation = TimeInterpretation(args.interpretation)
    report = compute_spec(assumptions, interpretation)
    gap = gate_error_gap(report, args.device_eps_s, args.device_eps_d)
    params: dict[str, object] = {
        "eps": args.eps,
        "nint": args.nint,
        "nk": args.nk,
        "t_s": args.ts,
        "t_d": args.td,
        "t_m": args.tm,
        "interval_factor": args.interval_factor,
        "error_ratio": args.error_ratio,
        "interpretation": args.interpretation,
    }
    if args.kappa_bar is not None:
        params["kappa_bar_override"] = args.kappa_bar
    rows = [[name, desc, value] for name, desc, value in report_rows(report)]
    rows.append(["gap_s", "device eps_s over required", gap.gap_s])
    rows.append(["gap_d", "device eps_d over required", gap.gap_d])
    _emit(args, params, ["quantity", "description", "value"], rows)


def cmd_hitcurve(args: argparse.Namespace) -> None:
    _check(0.0 <= args.a <= 1.0, f"--a must be in [0, 1], got {args.a}")
    _check(args.kappa >= 0.0, f"--kappa must be >= 0, got {args.kappa}")
    if args.depths is not None:
        try:
            depths = [int(tok) for tok in args.depths.split(",") if tok.strip() != ""]
        except ValueError:
            raise ConfigError(f"--depths must be a comma-separated integer list, got {args.depths!r}")
        _check(bool(depths), f"--depths must list at least one depth, got {args.depths!r}")
    else:
        depths = range(_integral(args.max_depth, "--max-depth") + 1)
    point = amplitude_point(args.a, args.kappa)
    curve = hit_rate_curve(point, depths, args.shots, args.seed)
    params: dict[str, object] = {"a": args.a, "kappa": args.kappa, "shots": args.shots}
    rows = [[m, rate, noisy_good_prob(m, point)] for m, rate in curve]
    _emit(args, params, ["m", "hit_rate", "expected_prob"], rows)


# -------------------------------------------------------------------- parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default {DEFAULT_SEED}, env {_SEED_ENV} overrides)")
    sub.add_argument("--format", choices=["csv", "json", "table"], default="table",
                     help="output format (default table)")
    sub.add_argument("--output", default=None, help="write to this file instead of stdout")


def _add_schedule_flags(sub: argparse.ArgumentParser, default_M: int = 6) -> None:
    sub.add_argument("--kind", choices=_KINDS, default="eis", help="schedule kind (default eis)")
    sub.add_argument("--M", type=int, default=default_M, help=f"stage count parameter (default {default_M})")
    sub.add_argument("--shots", type=int, default=100, help="shots per stage (default 100)")
    sub.add_argument("--r", type=float, default=None, help="depth base for --kind powerbase")


def _crbound_flags(sub: argparse.ArgumentParser) -> None:
    _add_schedule_flags(sub, default_M=10)
    sub.add_argument("--a", type=float, required=True, help="target amplitude in (0, 1)")
    sub.add_argument("--kappa", type=float, default=0.0, help="noise level (default 0)")


def _estimate_flags(sub: argparse.ArgumentParser) -> None:
    _add_schedule_flags(sub)
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", default=None, help="experiment-data JSON file")
    src.add_argument("--simulate", action="store_true", help="sample data from --a/--kappa first")
    sub.add_argument("--a", type=float, default=None, help="true amplitude for --simulate")
    sub.add_argument("--kappa", type=float, default=None, help="true noise level for --simulate")
    sub.add_argument("--divisions", type=int, default=32,
                     help="grid points per axis at each search stage (default 32)")


def _trials_flags(sub: argparse.ArgumentParser) -> None:
    _add_schedule_flags(sub)
    sub.add_argument("--a", type=float, required=True, help="true amplitude in (0, 1)")
    sub.add_argument("--kappa", type=float, default=0.0, help="true noise level (default 0)")
    sub.add_argument("--trials", type=int, default=100, help="repetitions per M (default 100)")
    sub.add_argument("--divisions", type=int, default=32,
                     help="grid points per axis at each search stage (default 32)")


def _density_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kappa", type=float, required=True, help="noise level > 0")
    sub.add_argument("--samples", type=int, default=100_000, help="uniform samples (default 100000)")
    sub.add_argument("--threshold", type=float, default=0.9, help="beta threshold (default 0.9)")
    sub.add_argument("--M", type=int, default=None,
                     help="stage count of the probing schedule (default: depth-limit matched)")
    sub.add_argument("--shots", type=int, default=100, help="shots per stage (default 100)")


def _contour_flags(sub: argparse.ArgumentParser) -> None:
    _add_schedule_flags(sub)
    sub.add_argument("--a-min", type=float, default=0.01)
    sub.add_argument("--a-max", type=float, default=0.99)
    sub.add_argument("--a-points", type=int, default=99)
    sub.add_argument("--kappa-min", type=float, default=1e-5)
    sub.add_argument("--kappa-max", type=float, default=1e-1)
    sub.add_argument("--kappa-points", type=int, default=9)


def _hwspec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--eps", type=float, required=True, help="target estimation error")
    sub.add_argument("--nint", type=int, required=True, help="integration variable count")
    sub.add_argument("--nk", type=int, default=100, help="shots per stage (default 100)")
    sub.add_argument("--ts", type=float, default=7.1e-8, help="single-qubit gate time, s")
    sub.add_argument("--td", type=float, default=2.8e-7, help="two-qubit gate time, s")
    sub.add_argument("--tm", type=float, default=3.5e-6, help="measurement time, s")
    sub.add_argument("--interval-factor", type=float, default=10.0,
                     help="between-shot interval as a multiple of execution time (default 10)")
    sub.add_argument("--error-ratio", type=float, default=10.0,
                     help="two-qubit over single-qubit gate error (default 10)")
    sub.add_argument("--ref-a", type=float, default=0.375,
                     help="reference amplitude for the noise scan (default 0.375)")
    sub.add_argument("--kappa-bar", type=float, default=None,
                     help="override the tolerable noise level instead of scanning")
    sub.add_argument("--interpretation", choices=["per_shot", "per_mbar"], default="per_shot",
                     help="interval-time rule in the total-time sum (default per_shot)")
    sub.add_argument("--device-eps-s", type=float, default=1.0e-3,
                     help="device single-qubit error for the gap rows (default 1e-3)")
    sub.add_argument("--device-eps-d", type=float, default=1.0e-2,
                     help="device two-qubit error for the gap rows (default 1e-2)")


def _hitcurve_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=float, required=True, help="target amplitude")
    sub.add_argument("--kappa", type=float, default=0.0, help="noise level (default 0)")
    sub.add_argument("--shots", type=int, default=100, help="shots per depth (default 100)")
    sub.add_argument("--max-depth", type=int, default=30, help="sample depths 0..max (default 30)")
    sub.add_argument("--depths", default=None, help="explicit comma-separated depth list")


# Every subcommand, in help order: name -> (help, flags after the common ones, handler).
_SUBCOMMANDS = {
    "crbound": ("error lower bound versus schedule size", _crbound_flags, cmd_crbound),
    "estimate": ("maximum-likelihood estimate from data or simulation", _estimate_flags,
                 cmd_estimate),
    "trials": ("seeded repeated-estimation accuracy sweep", _trials_flags, cmd_trials),
    "density": ("fraction of anomalous target amplitudes", _density_flags, cmd_density),
    "contour": ("error bound on an (a, kappa) grid", _contour_flags, cmd_contour),
    "hwspec": ("hardware requirements for a target accuracy", _hwspec_flags, cmd_hwspec),
    "hitcurve": ("sampled hit rate versus amplification depth", _hitcurve_flags, cmd_hitcurve),
    "schedule": ("emit a measurement schedule", _add_schedule_flags, cmd_schedule),
}


def _sub_parser(*, build: bool, **kwargs) -> argparse.ArgumentParser | None:
    """build_parser's parser class: an unbuilt name keeps its choice and
    help line, with no parser behind it."""
    return argparse.ArgumentParser(**kwargs) if build else None


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The aemle parser, every subcommand's name and help line registered.

    Only `command`'s sub-parser is built, with its flags and handler, or
    every one when `command` is None: a run parses one subcommand, and
    argparse builds a parser and a formatter for each flag.  The root usage
    and its errors still list all eight names.  Each formatter gets the
    width argparse would ask the terminal for, asked once here.
    """
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="aemle",
        description="Amplitude estimation under depolarizing noise: bounds, "
                    "estimators, surveys, and hardware requirements.",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"aemle {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_sub_parser)
    for name, (help_text, add_flags, handler) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text, build=command in (None, name),
                              formatter_class=formatter)
        if sub is not None:
            _add_common(sub)
            add_flags(sub)
            sub.set_defaults(func=handler)
    return parser


# numpy's refusals of an array too large to size at all (from 2**61 elements);
# any other ValueError is a defect and keeps its traceback
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        args.seed = _resolved_seed(args)
        args.func(args)
        return 0
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        error, code = exc, 2
    except (AemleError, MemoryError, ValueError) as exc:  # an input too large to allocate or size
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        error, code = exc, 3
    # a MemoryError may carry no message; its class name is then the reason
    print(f"aemle: {str(error) or type(error).__name__}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
