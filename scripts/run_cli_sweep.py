#!/usr/bin/env python3
"""Sweep every flag of every aemle subcommand over edge values, one at a time.

Each subcommand starts from a small valid argv (BASE).  Every flag its
parser takes a value for is set in turn to each of VALUES, as `--flag=value`
so that a negative value is not read as a flag.  Each argv runs in its own
subprocess, one at a time, in a scratch directory, with a 2 GB address-space
limit and a 20 s timeout.  A case is flagged when it exits with a code other
than 0, 2 or 3, prints a traceback, prints the root usage, exits 2 or 3 with
nothing on stderr, prints inf with exit code 0, or times out.  The exit code
is 1 when any case is flagged.

    PYTHONPATH=src python scripts/run_cli_sweep.py [--commands hwspec,trials]
"""
import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from aemle import cli

SRC = Path(__file__).resolve().parent.parent / "src"

# 2**52 + 1 passes the count ceiling, 2**63 sys.maxsize and 10**400 a double
VALUES = ["0", "-0", "-1", "nan", "inf", "-inf", "1e-320", "1e-300", "1e308", "0.5", "1",
          "2", "3", str(2**52 + 1), f"1,2,{2**52 + 1}", str(2**63), "1" + "0" * 400]

# a small valid argv per subcommand; a subcommand without one fails its base run
BASE = {
    "crbound": ["--a", "0.3", "--M", "3"],
    "estimate": ["--simulate", "--a", "0.3", "--kappa", "0.01", "--M", "2"],
    "trials": ["--a", "0.3", "--M", "2", "--trials", "4"],
    "density": ["--kappa", "0.01", "--samples", "1000"],
    "contour": ["--M", "2", "--a-points", "3", "--kappa-points", "2"],
    "hwspec": ["--eps", "1e-3", "--nint", "3"],
    "hitcurve": ["--a", "0.3", "--max-depth", "3"],
    "schedule": ["--M", "3"],
}

TIMEOUT_S = 20.0
# a value refusal prints one aemle: line; argparse's own errors print the
# subcommand's usage, so the root usage means a check went to the root parser
ROOT_USAGE = "usage: aemle [-h] [--version]"
INF = re.compile(r"(?<![\w.])-?(inf|Infinity)(?!\w)")
# the child sets its own 2 GB address-space limit before it imports aemle (a
# preexec_fn would run between fork and exec, unsafe beside numpy's threads)
CHILD = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
         "from aemle.cli import main; sys.exit(main(sys.argv[1:]))")


def value_flags(command: str) -> list[str]:
    """The long option string of each flag of `command` that takes a value."""
    parser = cli.build_parser(command)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [action.option_strings[-1] for action in subparsers.choices[command]._actions
            if action.option_strings and action.nargs != 0]


def with_value(base: list[str], flag: str, value: str) -> list[str]:
    """`base` with `flag` (and the value after it) replaced by flag=value."""
    argv = list(base)
    if flag in argv:
        at = argv.index(flag)
        del argv[at:at + 2]
    return [*argv, f"{flag}={value}"]


def run(argv: list[str], cwd: str) -> tuple[int | None, str | None]:
    """The exit code of the aemle run of `argv` (None on a timeout), and
    why it is flagged, or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one BLAS thread: its per-thread buffers would count against the limit
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no exit within {TIMEOUT_S:g} s"
    code = done.returncode
    if code not in (0, 2, 3):
        return code, f"exit code {code}"
    if "Traceback (most recent call last)" in done.stderr:
        return code, "traceback"
    if ROOT_USAGE in done.stderr:
        return code, "root usage"
    if code in (2, 3) and not done.stderr.strip():
        return code, f"exit code {code} with no reason"
    if code == 0 and INF.search(done.stdout):
        return code, "inf with exit code 0"
    return code, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commands", default=",".join(cli._SUBCOMMANDS),
                    help="comma-separated subcommands to sweep (default all)")
    args = ap.parse_args()

    start = time.perf_counter()
    runs, flagged = 0, 0
    with tempfile.TemporaryDirectory() as cwd:
        for command in args.commands.split(","):
            base = [command, *BASE.get(command, [])]
            cases = [(None, base)] + [
                (flag, with_value(base, flag, value))
                for flag in value_flags(command) for value in VALUES
            ]
            for flag, argv in cases:
                runs += 1
                code, reason = run(argv, cwd)
                if flag is None and reason is None and code != 0:
                    reason = f"base argv exits {code}"
                if reason is not None:
                    flagged += 1
                    print(f"FLAGGED: {reason}: aemle {' '.join(argv)}", flush=True)
    print(f"{runs} argv in {time.perf_counter() - start:.0f} s: {flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
