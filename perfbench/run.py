"""Run one aemle benchmark workload and print its metrics.

    python3 perfbench/run.py --workload trials --seed 1 --seconds 20 --trace 0

Run from the repository root; aemle is imported from `src/`.  With
`--trace 0` the run times the workload the way its users call aemle and
prints the end-to-end metrics; with `--trace 1` it replays the pool of
the workload's operations through each module's public functions and prints
per-layer counts and times.  Every metric line gives its unit and sample
count, a `report` line repeats them as JSON, and the last line is the result
object `{"correct", "attempted", "failed", "metrics"}`.  The exit code is 1
when an output check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# setup_s: fresh interpreter to `import aemle.cli` done and the parser built
SETUP_CODE = "import aemle.cli; aemle.cli.build_parser()"
SETUP_REPEATS = 15

LAYERS = ("cli", "model", "sampler", "estimator", "fisher", "survey", "hwspec")
# counters that must repeat exactly from one pass (and one run) to the next
EXACT = ("estimator.likelihood_evaluations", "estimator.stages", "estimator.errors",
         "sampler.draws", "survey.amplitude_stages")


def setup_probe():
    """Time one fresh `import aemle.cli` plus parser build, in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def once() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    return once


def warm_up(wl) -> None:
    for op in wl.warmup:
        ok, _ = wl.execute(op)
        if not ok:
            raise RuntimeError(f"warm-up operation failed: {op.argv or op.kind}")


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile (at most 99, at least 90) with ten samples beyond it."""
    q = min(99, int(100 * (1 - 10 / n))) if n else 0
    return q if q >= 90 else None


def run_untraced(wl, seconds: float):
    """Cycle over the workload's pool until `seconds` of operations have run.

    Each operation's latency and CPU time are the best of its repeats, which
    are spread over the run; see README.md for why.  Setup probes run between
    passes, outside the operations' timings.
    """
    from workloads import Outcome

    probe = setup_probe()
    probe()  # a fresh checkout has no bytecode cache yet; users run with one
    warm_up(wl)
    pool = wl.pool
    best = [float("inf")] * len(pool)
    best_cpu = [float("inf")] * len(pool)
    first: list[tuple[bool, object] | None] = [None] * len(pool)
    setup, passes, busy, changed = [], 0, 0.0, set()
    while passes == 0 or busy < seconds:
        for i, op in enumerate(pool):
            start, cpu = time.perf_counter(), time.process_time()
            ok, out = wl.execute(op)
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
            busy += wall
            best[i], best_cpu[i] = min(best[i], wall), min(best_cpu[i], cpu)
            if first[i] is None:
                first[i] = (ok, out)
            elif first[i] != (ok, out):
                changed.add(i)
        passes += 1
        if len(setup) < SETUP_REPEATS:
            setup.append(probe())
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())

    outcomes = [Outcome(op, best[i], *first[i]) for i, op in enumerate(pool)]
    verdict = wl.check(outcomes)
    verdict.failed *= passes  # outputs repeat exactly (checked here), so do failures
    for i in sorted(changed):
        verdict.fail(pool[i].units, f"repeats of operation {i} gave different output")
    units = sum(op.units for op in pool)
    attempted = units * passes
    lat = np.asarray(best) * 1e3
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (units / sum(best), "ops/s", attempted),
        "cpu_s_per_op": (sum(best_cpu) / units, "s", attempted),
        "latency_p50_ms": (float(np.median(lat)), "ms", lat.size),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    extra = {"failed_fraction": (verdict.failed / attempted, "ratio", attempted),
             "ops_per_s_all_repeats": (attempted / busy, "ops/s", attempted)}
    q = tail_percentile(lat.size)
    if q is not None:
        extra[f"latency_p{q}_ms"] = (float(np.percentile(lat, q)), "ms", lat.size)
    if "mle_misses" in verdict.notes:
        n = verdict.notes["estimates"]
        extra["mle_miss_fraction"] = (verdict.notes["mle_misses"] / n, "ratio", n)
    info = {"passes": passes, "distinct_ops": len(pool), "busy_s": busy}
    return metrics, extra, verdict, attempted, info


def run_traced(wl, seconds: float, seed: int):
    """Replay the pool in passes until `seconds` have gone by.

    Each operation runs three times in a pass: the untraced user path (its
    time is the `cli` layer's busy time on CLI workloads), the replay with a
    null tracer, and the replay with spans.  Counts come from the first pass
    and must repeat in every later one; times are means over passes.
    """
    from spans import Tracer, layer_times
    from workloads import NULL, Outcome

    warm_up(wl)
    passes = []
    origin = time.perf_counter()
    while not passes or time.perf_counter() - origin < seconds:
        tracer, outcomes, untraced, traced = Tracer(), [], 0.0, 0.0
        for i, op in enumerate(wl.pool):
            start = time.perf_counter()
            ok, out = wl.execute(op)
            outcomes.append(Outcome(op, time.perf_counter() - start, ok, out))
            # alternate which replay goes first, so drift does not bias the overhead
            for traced_run in (False, True) if (i + len(passes)) % 2 else (True, False):
                start = time.perf_counter()
                if traced_run:
                    with tracer.op(i, op.kind):
                        wl.replay(op, tracer)
                    traced += time.perf_counter() - start
                else:
                    wl.replay(op, NULL)
                    untraced += time.perf_counter() - start
        passes.append((tracer, outcomes, untraced, traced))

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{wl.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for n, (tracer, *_) in enumerate(passes):
            tracer.dump(fh, origin, **{"pass": n})

    counts, busy, own, work, overhead = [], Counter(), Counter(), Counter(), 0.0
    for tracer, outcomes, untraced, traced in passes:
        c = Counter({name: 0 for name in EXACT})
        c.update(tracer.counters)
        c.update(f"{s.layer}.calls" for s in tracer.spans if s.layer != "op")
        for layer, (b, s) in layer_times(tracer.spans).items():
            busy[layer] += b
            own[layer] += s
        for s in tracer.spans:
            work[s.name] += s.end - s.start
        if wl.uses_cli:
            c["cli.calls"] = len(outcomes)
            cli_busy = sum(o.latency for o in outcomes)
            replayed = sum(s.end - s.start for s in tracer.spans if s.layer != "op")
            busy["cli"] += cli_busy
            own["cli"] += cli_busy - replayed  # by difference, see README
        overhead += traced - untraced
        counts.append(c)

    first = counts[0]
    n = len(passes)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first[f"{layer}.calls"], "count")
        metrics[f"{layer}.busy_s"] = (busy[layer] / n, "s")
        metrics[f"{layer}.self_s"] = (own[layer] / n, "s")

    def rate(count: str, *spans: str) -> float:
        t = sum(work[s] for s in spans)
        return first[count] * n / t if t > 0 else 0.0

    mle = work["estimator.mle_grid_adaptive"]
    metrics.update({
        "estimator.likelihood_evaluations": (first["estimator.likelihood_evaluations"], "count"),
        "estimator.evals_per_s": (rate("estimator.likelihood_evaluations",
                                       "estimator.mle_grid_adaptive"), "1/s"),
        "estimator.stages": (first["estimator.stages"], "count"),
        "estimator.ms_per_stage": (1e3 * mle / (first["estimator.stages"] * n)
                                   if first["estimator.stages"] else 0.0, "ms"),
        "estimator.errors": (first["estimator.errors"], "count"),
        "sampler.draws": (first["sampler.draws"], "count"),
        "sampler.draws_per_s": (rate("sampler.draws", "sampler.sample_counts"), "1/s"),
        "survey.amplitude_stages": (first["survey.amplitude_stages"], "count"),
        "survey.amplitude_stages_per_s": (rate("survey.amplitude_stages", "survey.anomaly_density",
                                               "survey.error_vs_kappa_contour"), "1/s"),
        "survey.bytes_computed": (8 * first["survey.amplitude_stages"], "B"),
        "trace.overhead_s": (overhead / n, "s"),
    })
    metrics = {name: (value, unit, n) for name, (value, unit) in metrics.items()}

    verdict = wl.check(passes[0][1])
    verdict.failed *= n  # outputs repeat exactly (checked here), so do failures
    outputs = [[(o.ok, o.output) for o in p[1]] for p in passes]
    for k in range(1, n):
        if counts[k] != first:
            verdict.fail(0, f"exact counters of pass {k} differ from pass 0")
        if outputs[k] != outputs[0]:
            verdict.fail(0, f"outputs of pass {k} differ from pass 0")
    attempted = n * sum(op.units for op in wl.pool)
    info = {"passes": n, "ops_per_pass": len(wl.pool),
            "untraced_replay_s": sum(p[2] for p in passes) / n,
            "traced_replay_s": sum(p[3] for p in passes) / n,
            "spans": sum(len(p[0].spans) for p in passes),
            "counters": {k: first[k] for k in sorted(first)}}
    return metrics, {}, verdict, attempted, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one aemle benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aemle" / "__init__.py").is_file():
        print(f"perfbench: no aemle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, extra, verdict, attempted, info = run_traced(wl, args.seconds, args.seed)
    else:
        metrics, extra, verdict, attempted, info = run_untraced(wl, args.seconds)

    print(f"# perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1 aemle_threads={wl.threads} "
          f"op={wl.op_unit} latency_sample={wl.latency_unit}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"{name:<34} {value:>16.6g} {unit:<6} n={n}")
    for problem in verdict.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed", "clients": 1, "aemle_threads": wl.threads, "op": wl.op_unit,
        "latency_sample": wl.latency_unit,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in {**metrics, **extra}.items()},
        "problems": verdict.problems, "notes": verdict.notes, "info": info,
    }
    print("report " + json.dumps(report))
    correct = not verdict.problems and verdict.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
