#!/usr/bin/env python3
"""How often the adaptive estimate misses the likelihood's maximum.

The script draws seeded datasets the way the benchmark's estimate stream
does (2-25 stages; EIS, LIS and power-base 2.5 ladders in a 3:1:1 mix;
shots log-uniform in [1e2, 1e4]; a uniform in [0.02, 0.98]; kappa
log-uniform in [1e-4, 0.3]), estimates each one, and counts a miss when
log_likelihood_at_max lies more than a threshold below the likelihood at the
true (a, kappa), which the maximum can never be.  Misses are reported at
0.1, 1 and 5 nats, split by schedule kind and by whether the last stage's
kappa box was clipped to the grid floor.  One CSV row per dataset holds its
inputs, the estimate and the deficit in nats.
"""
import argparse
import csv
import math
import sys

import numpy as np

from aemle import (
    AemleError,
    amplitude_point,
    log_likelihood,
    make_schedule,
    mle_grid_adaptive,
    sample_counts,
)
from aemle.estimator import _KAPPA_GRID_FLOOR

KINDS = ("eis", "eis", "eis", "lis", "powerbase")
THRESHOLDS = (0.1, 1.0, 5.0)


def draw(rng: np.random.Generator) -> tuple:
    stages = int(rng.integers(2, 26))
    kind = KINDS[int(rng.integers(len(KINDS)))]
    shots = int(round(10 ** rng.uniform(2.0, 4.0)))
    a = float(rng.uniform(0.02, 0.98))
    kappa = float(math.exp(rng.uniform(math.log(1e-4), math.log(0.3))))
    schedule = make_schedule(kind, stages - 1, shots, 2.5 if kind == "powerbase" else None)
    data = sample_counts(amplitude_point(a, kappa), schedule, int(rng.integers(2**31)))
    return kind, stages, shots, a, kappa, data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--datasets", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=123)
    ap.add_argument("--output", default="mle_misses.csv")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    counts: dict[tuple, list[int]] = {}
    failed = 0
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "kind", "stages", "shots", "a", "kappa", "a_hat",
                         "kappa_hat", "deficit_nats", "kappa_box_clipped"])
        for index in range(args.datasets):
            kind, stages, shots, a, kappa, data = draw(rng)
            try:
                result = mle_grid_adaptive(data)
            except AemleError:
                failed += 1
                continue
            deficit = log_likelihood(data, a, kappa) - result.log_likelihood_at_max
            clipped = result.stage_trace[-1].kappa_lo == _KAPPA_GRID_FLOOR
            writer.writerow([index, kind, stages, shots, f"{a:.17g}", f"{kappa:.17g}",
                             f"{result.a_hat:.17g}", f"{result.kappa_hat:.17g}",
                             f"{deficit:.6g}", int(clipped)])
            row = counts.setdefault((kind, clipped), [0] * (len(THRESHOLDS) + 1))
            row[0] += 1
            for i, nats in enumerate(THRESHOLDS):
                row[i + 1] += deficit > nats

    print(f"seed {args.seed}: {args.datasets} datasets, {failed} not estimated")
    print("kind       clipped  datasets  " + "  ".join(f"> {t:g} nat" for t in THRESHOLDS))
    total = [0] * (len(THRESHOLDS) + 1)
    for (kind, clipped), row in sorted(counts.items()):
        total = [x + y for x, y in zip(total, row)]
        print(f"{kind:<10} {'yes' if clipped else 'no':<8} {row[0]:>8}  "
              + "  ".join(f"{n:>9}" for n in row[1:]))
    print(f"{'all':<10} {'':<8} {total[0]:>8}  " + "  ".join(f"{n:>9}" for n in total[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
