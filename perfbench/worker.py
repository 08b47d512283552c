"""One measured pass of a workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Prints ``ready`` once
the package is imported and the inputs are generated (the parent times set-up
up to that line), then runs the timed phase and prints one JSON line with
its raw measurements.  ``treedepth.depth`` keeps one depth memo for the whole
process, so a pass is only meaningful in a process of its own; within the
pass the memo is shared across operations in order, as in one
``treedepth verify`` run.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import treedepth as td  # noqa: E402

from gate import Checker, load_expected  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import GRID_NODE_CAP, operations  # noqa: E402


def _graph(family, params):
    if family == "caterpillar":
        return td.build_caterpillar(*params)
    return td.build_lobster(*params)


def _ideal(family, params, t):
    ideal = td.edge_ideal(_graph(family, params))
    return td.ideal_power(ideal, t) if t > 1 else ideal


def _closed_form(family, params, t):
    if family == "caterpillar":
        return td.bound_caterpillar(*params, t)
    return td.bound_lobster(*params, t)


def _check_bounds(check: Checker, family, params, t, exact: dict):
    """The bound report matches its frozen values and no exact value falls
    below the new bound."""
    report = td.compare(family, params, t)
    for field, got in (("new_bound", report.new_bound),
                       ("diam_bound", report.prior_diam_bound),
                       ("nearleaf_bound", report.prior_nearleaf_bound)):
        check.same(family, params, t, field, got)
    for name, value in exact.items():
        check.holds(value >= report.new_bound,
                    f"{family}{params} t={t}: {name} {value} below bound {report.new_bound}")
    return report


def _sdepth(check: Checker, family, params, t, ideal, start, max_nodes=None):
    value, cert = td.sdepth_quotient(ideal, start=start, max_nodes=max_nodes)
    check.same(family, params, t, "sdepth", value)
    check.holds(cert.claimed_d == value and td.verify_certificate(td.char_poset(ideal), cert),
                f"{family}{params} t={t}: certificate rejected")
    return value


def run_op(op, check: Checker) -> bool:
    """Run one operation; returns False when a search hit its cap (the
    operation is then not answered)."""
    kind, family, params, t = op
    if kind == "bound":
        _check_bounds(check, family, params, t, {})
        return True
    ideal = _ideal(family, params, t)
    if kind == "sdepth":
        report = _check_bounds(check, family, params, t, {})
        _sdepth(check, family, params, t, ideal, report.new_bound)
        return True
    if kind == "betti":
        depth = td.depth_via_betti(ideal).depth
    else:
        depth = td.depth_quotient(ideal).depth
    check.same(family, params, t, "depth", depth)
    exact = {"depth": depth}
    answered = True
    if kind == "cell":
        try:
            exact["sdepth"] = _sdepth(check, family, params, t, ideal,
                                      _closed_form(family, params, t), GRID_NODE_CAP)
        except td.ResourceCapError:
            answered = False
    _check_bounds(check, family, params, t, exact)
    return answered


def timed_phase(ops, check, tracer):
    """Closed loop, one client: each operation starts when the previous one
    has finished.  The list is run once."""
    latencies, problems, seen = [], [], set()
    capped = repeats = 0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        repeats += op in seen
        seen.add(op)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            if not run_op(op, check):
                capped += 1
        except Exception:
            check.fail(f"{op}: {traceback.format_exc(limit=3)}")
        latencies.append((time.perf_counter() - t0) * 1000.0)
        found = check.take()
        if found:
            problems.append(found)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "latencies_ms": latencies,
        "attempted": len(latencies),
        "failed": len(problems),
        "problems": problems[:5],
        "capped": capped,
        "repeat_share": repeats / len(latencies),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", default=None,
                    help="trace the pass and write its spans here")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = operations(args.workload, random.Random(args.seed))
    check = Checker(load_expected(), inject_fault=args.inject_fault)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install(td)
    result = timed_phase(ops, check, tracer)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(result["wall_s"])
        tracer.write(args.trace_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
