"""Self-test of the benchmark; needs only numpy and the standard library.

    python3 perfbench/selftest.py

For every workload it runs one short seed twice untraced and twice traced,
and asserts that each run passes its output checks, that every metric named
in BENCHMARK.json is emitted with its unit and a sample count, and that the
exact counters repeat exactly between the two traced runs.  It also asserts
that the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = "1"


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(l[len("report "):]) for l in lines if l.startswith("report ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, report, result


def check_metrics(report: dict, result: dict, specs: list[dict], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
    assert set(result["metrics"]) == {m["name"] for m in specs}, where
    for spec in specs:
        got = report["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] == result["metrics"][spec["name"]]["unit"], (where, spec)
        assert isinstance(got["n"], int) and got["n"] >= 1, (where, spec)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        counters = []
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            for _ in range(2):
                code, report, result = run(workload, trace)
                where = f"{workload} --trace {trace}"
                assert code == 0 and report and result, where
                check_metrics(report, result, specs, where)
                if trace == 0:
                    assert "failed_fraction" in report["metrics"], where
                else:
                    exact = {k: v["value"] for k, v in result["metrics"].items()
                             if v["unit"] == "count"}
                    counters.append((report["info"]["counters"], exact))
        assert counters[0] == counters[1], f"{workload}: exact counters differ between runs"
        print(f"ok {workload}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, report, result = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and result is None, "a run without the aemle sources must fail"
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
