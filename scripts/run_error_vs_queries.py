#!/usr/bin/env python3
"""Lower-bound error versus total query count for several noise levels.

Writes two CSV rows per (kappa, M), from one error_vs_queries row: the
exponential schedule, with the depth-limit flag marking stages past the
useful maximum, then the classical baseline at the same query count.  The
output reproduces the plateau picture: noiseless curves fall at the
Heisenberg rate, noisy ones flatten once the deepest stage crosses m_bar.
"""
import argparse
import csv
import sys

from aemle import error_vs_queries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, default=0.375, help="target amplitude")
    ap.add_argument("--kappas", default="0,1e-4,1e-3,1e-2",
                    help="comma-separated noise levels")
    ap.add_argument("--max-M", type=int, default=16, help="largest stage count")
    ap.add_argument("--shots", type=int, default=100, help="shots per stage")
    ap.add_argument("--output", default="error_vs_queries.csv")
    args = ap.parse_args()

    kappas = [float(tok) for tok in args.kappas.split(",")]
    lines = []
    for row in error_vs_queries(args.a, kappas, args.max_M, args.shots):
        common = [f"{row.kappa:.17g}", row.M, row.n_queries]
        lines.append([row.kind, *common, f"{row.epsilon_min:.17g}", int(row.beyond_max_depth)])
        lines.append(["classical", *common, f"{row.classical_epsilon:.17g}", 0])
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "kappa", "M", "n_queries", "epsilon_min", "beyond_max_depth"])
        writer.writerows(lines)
    print(f"wrote {len(lines)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
