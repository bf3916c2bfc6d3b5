"""Shared fixtures, the acceptance-criteria reporter and the run header.

Acceptance tests register a one-line verdict through `check`; the terminal
summary prints every recorded line so a full run shows one PASS/FAIL row per
criterion without -s.  The header names the SIMD loops numpy runs, which the
`simd_golden` tests' bytes depend on.
"""
from __future__ import annotations

import numpy as np

try:  # numpy 2.x
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

_RESULTS: dict[int, tuple[str, bool]] = {}


def check(number: int, description: str, passed: bool, detail: str = "") -> None:
    """Record an acceptance verdict, then assert it."""
    _RESULTS[number] = (description, bool(passed))
    assert passed, f"acceptance {number:02d} failed: {description}" + (
        f" [{detail}]" if detail else ""
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        description, ok = _RESULTS[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:02d} {verdict} - {description}")


def pytest_report_header(config):
    # __cpu_dispatch__ lists numpy's dispatch targets from lowest to highest
    enabled = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]
    target = enabled[-1] if enabled else f"{_umath.__cpu_baseline__[-1]} (baseline)"
    return f"numpy {np.__version__}, SIMD dispatch target {target}"
