#!/usr/bin/env python3
"""Sweep every flag of every aemle subcommand over edge values, one at a time.

Each subcommand starts from a small valid argv (BASE).  Every flag its
parser takes a value for is set in turn to each of VALUES, as `--flag=value`
so that a negative value is not read as a flag.  The script imports
aemle.cli once, with one BLAS thread, and checks that it runs no other
thread.  Each argv then runs in a child forked from it, one at a time, in a
scratch directory, with a 2 GB address-space limit and a 20 s timeout (the
child is killed past it).  A case is flagged when it exits with a code
other than 0, 2 or 3, prints a traceback, prints the root usage, exits 2 or
3 with nothing on stderr, prints inf with exit code 0, or times out.  The
exit code is 1 when any case is flagged.  It needs Linux (os.fork and
os.pidfd_open).

    PYTHONPATH=src python scripts/run_cli_sweep.py [--commands hwspec,trials]
"""
import argparse
import os
import re
import resource
import select
import signal
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

# one BLAS thread, set before numpy loads: the parent must run no other
# thread when it forks, and a child's per-thread buffers would count
# against its limit
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
from aemle import cli  # noqa: E402

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
MEMORY_LIMIT = 2 << 30


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


def child(argv: list[str], cwd: str, out: int, err: int) -> None:
    """Run `aemle argv` in a forked child, in cwd, with fds 0-2 on /dev/null
    and the out and err files, and leave with its exit code as the
    interpreter would (an uncaught exception prints its traceback and exits
    1).  Never returns."""
    code = 1
    try:
        os.chdir(cwd)
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
        os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
        os.dup2(out, 1)
        os.dup2(err, 2)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        if code is None:
            code = 0
        elif not isinstance(code, int):  # sys.exit("text") prints it and exits 1
            print(code, file=sys.stderr)
            code = 1
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code & 0xFF)


def run(argv: list[str], cwd: str, out, err) -> tuple[int | None, str | None]:
    """The exit code of the aemle run of `argv` (None on a timeout), and
    why it is flagged, or None; out and err are the temp files the child
    writes its stdout and stderr to."""
    for file in (out, err):
        file.seek(0)
        file.truncate()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        child(argv, cwd, out.fileno(), err.fileno())
    done = os.pidfd_open(pid)
    try:
        timed_out = not select.select([done], [], [], TIMEOUT_S)[0]
    finally:
        os.close(done)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if timed_out:
        return None, f"no exit within {TIMEOUT_S:g} s"
    out.seek(0)
    err.seek(0)
    stdout, stderr = (file.read().decode(errors="replace") for file in (out, err))
    if code not in (0, 2, 3):
        return code, f"exit code {code}"
    if "Traceback (most recent call last)" in stderr:
        return code, "traceback"
    if ROOT_USAGE in stderr:
        return code, "root usage"
    if code in (2, 3) and not stderr.strip():
        return code, f"exit code {code} with no reason"
    if code == 0 and INF.search(stdout):
        return code, "inf with exit code 0"
    return code, None


def one_thread() -> bool:
    """Whether this process runs one thread, by Python's count and the
    kernel's (a thread at fork time could hold a lock the child needs)."""
    status = Path("/proc/self/status").read_text()
    threads = int(re.search(r"^Threads:\s+(\d+)", status, re.M).group(1))
    return threading.active_count() == 1 and threads == 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commands", default=",".join(cli._SUBCOMMANDS),
                    help="comma-separated subcommands to sweep (default all)")
    args = ap.parse_args()

    if not one_thread():
        raise SystemExit("the sweep forks its cases, so it must run one thread")
    start = time.perf_counter()
    runs, flagged = 0, 0
    with (tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryFile() as out,
          tempfile.TemporaryFile() as err):
        for command in args.commands.split(","):
            base = [command, *BASE.get(command, [])]
            cases = [(None, base)] + [
                (flag, with_value(base, flag, value))
                for flag in value_flags(command) for value in VALUES
            ]
            for flag, argv in cases:
                runs += 1
                code, reason = run(argv, cwd, out, err)
                if flag is None and reason is None and code != 0:
                    reason = f"base argv exits {code}"
                if reason is not None:
                    flagged += 1
                    print(f"FLAGGED: {reason}: aemle {' '.join(argv)}", flush=True)
    print(f"{runs} argv in {time.perf_counter() - start:.0f} s: {flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
