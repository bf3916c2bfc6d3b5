#!/usr/bin/env python3
"""Seeded estimation accuracy against the information-theoretic bound.

For each stage count M the script samples many synthetic experiments,
runs the adaptive grid estimator on each, and records the RMSE of the
amplitude estimate with a jackknife standard error next to the matching
lower bound and the classical baseline.  With the defaults the RMSE
column tracks epsilon_min within a factor of about two.
"""
import argparse
import csv
import sys

from aemle import amplitude_point, classical_bound, run_trials


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, default=0.375, help="true amplitude")
    ap.add_argument("--kappa", type=float, default=0.067, help="true noise level")
    ap.add_argument("--kind", default="eis", help="schedule kind")
    ap.add_argument("--max-M", type=int, default=6, help="largest stage count")
    ap.add_argument("--shots", type=int, default=100, help="shots per stage")
    ap.add_argument("--trials", type=int, default=256, help="repetitions per M")
    ap.add_argument("--seed", type=int, default=20250817)
    ap.add_argument("--output", default="rmse_trials.csv")
    args = ap.parse_args()

    point = amplitude_point(args.a, args.kappa)
    batch = run_trials(point, args.kind, args.max_M, args.shots, args.trials, args.seed)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "n_queries", "rmse", "stderr", "epsilon_min",
                         "classical", "mean_kappa_hat", "failed_trials"])
        for rec in batch.records:
            writer.writerow([
                rec.M, rec.n_queries, f"{rec.rmse:.17g}", f"{rec.stderr:.17g}",
                f"{rec.epsilon_min:.17g}",
                f"{classical_bound(args.a, rec.n_queries):.17g}",
                f"{rec.mean_kappa_hat:.17g}", rec.failed_trials,
            ])
    print(f"wrote {len(batch.records)} rows to {args.output} (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
