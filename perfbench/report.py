"""Every figure of the benchmark, for every workload, by name and unit.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Runs each workload once untraced (end-to-end metrics) and once traced
(per-layer metrics), each in fresh interpreters, and prints the tracing
overhead (traced wall_s minus untraced wall_s) and the share of traced wall
time that layer self times cover.  Exits 1 when any workload has an
error_rate above 0, 2 when a run could not be made.
"""

from __future__ import annotations

import argparse
import sys

from run import END_TO_END, RunError, measure
from spans import LAYER_METRICS
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    bad = False
    for workload in WORKLOADS:
        try:
            plain = measure(workload, args.seed, args.seconds, trace=False)
            traced = measure(workload, args.seed, args.seconds, trace=True)
        except RunError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        print(f"== {workload} (seed {args.seed}, {plain['attempted']} operations)")
        rows = [("error_rate", plain["error_rate"], "share"),
                ("capped_ops", plain["capped_ops"], "count"),
                ("repeat_share", plain["repeat_share"], "share")]
        rows += [(name, plain["end_to_end"][name], unit) for name, unit in END_TO_END]
        rows += [(name, traced["per_layer"][name], unit) for name, unit in LAYER_METRICS]
        rows.append(("trace.overhead_s",
                     traced["per_layer"]["trace.wall_s"] - plain["end_to_end"]["wall_s"], "s"))
        for name, value, unit in rows:
            print(f"  {name:<28} {value:>14.6g} {unit}")
        for problem in plain["problems"] + traced["problems"]:
            print(f"  problem: {problem}")
        if plain["failed"] or traced["failed"]:
            bad = True
        if traced["per_layer"]["trace.coverage"] < 0.9:
            print("  warning: layer self times cover under 90% of traced wall_s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
