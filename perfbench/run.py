"""treedepth benchmark: one run of one workload.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every measured pass runs the
workload's fixed operation list once in a fresh interpreter (``worker.py``);
a run makes at least two passes, and more until its measured time reaches
``--seconds`` to the nearest whole pass.
Set-up is timed from process start until the package is imported and the
inputs are made, on set-up-only interpreters before and after the passes and
on every pass, and the median is reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give every figure by name and unit.  Exit code 0 when every answer was
correct, 1 when some answer was wrong, 2 when the run could not be made
(no source tree, a worker crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_p99_ms", "ms"), ("answered_share", "share"),
    ("peak_rss_mb", "MB"),
)
SETUP_ONLY_SAMPLES = 8  # half before the passes, half after
MIN_PASSES = 2  # wall_s is a median; query-mix pools at least 1000 queries
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


class RunError(RuntimeError):
    """The run could not be measured; no result is printed."""


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: (1-q)*n samples lie beyond it."""
    rank = max(1, math.ceil(round(q * len(sorted_values), 9)))
    return sorted_values[rank - 1]


def enough(walls, seconds: float) -> bool:
    """At least MIN_PASSES passes, and measured time within half a pass of
    ``seconds`` (so a run measures ``seconds`` to the nearest whole pass)."""
    return (len(walls) >= MIN_PASSES
            and sum(walls) + statistics.fmean(walls) / 2 >= seconds)


def _spawn(args, deadline):
    """Start one worker; returns (set-up seconds, its final JSON or None)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if first.strip() != "ready":
            raise RunError(f"worker failed during set-up: {' '.join(cmd)}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            inject_fault: bool = False) -> dict:
    """Set-up samples and measured passes of one run, summarised."""
    if not (ROOT / "src" / "treedepth" / "__init__.py").is_file():
        raise RunError(f"no treedepth source tree under {ROOT}")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_only():
        return [_spawn(base + ["--setup-only"], deadline)[0]
                for _ in range(SETUP_ONLY_SAMPLES // 2)]

    setups = setup_only()
    out_dir = ROOT / ".bench_out"
    passes = []
    while not enough([p["wall_s"] for p in passes], seconds):
        extra = ["--inject-fault"] if inject_fault else []
        if trace:
            out_dir.mkdir(exist_ok=True)
            extra += ["--trace-out",
                      str(out_dir / f"trace-{workload}-seed{seed}-pass{len(passes)}.jsonl")]
        setup_s, result = _spawn(base + extra, deadline)
        if result is None:
            raise RunError("worker printed no result")
        setups.append(setup_s)
        passes.append(result)
    setups += setup_only()

    if workload == "query-mix":
        latencies = sorted(x for p in passes for x in p["latencies_ms"])
    else:
        # a sweep or batch answers when its last operation does, and the
        # seed reorders operations that share the depth memo: the pass is
        # the unit a caller waits for
        latencies = sorted(p["wall_s"] * 1000.0 for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    capped = sum(p["capped"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    total_wall = sum(p["wall_s"] for p in passes)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "problems": [x for p in passes for x in p["problems"]][:5],
        "passes": len(passes),
        "capped_ops": capped,
        "error_rate": failed / attempted,
        "repeat_share": statistics.fmean(p["repeat_share"] for p in passes),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "ops_per_s": attempted / total_wall,
            "op_p50_ms": percentile(latencies, 0.50),
            "op_p99_ms": percentile(latencies, 0.99),
            "answered_share": (attempted - capped) / attempted,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        },
    }
    if trace:
        layers = {name: statistics.fmean(p["layers"][name] for p in passes)
                  for name, _unit in LAYER_METRICS if name != "workload.repeat_share"}
        layers["workload.repeat_share"] = summary["repeat_share"]
        summary["per_layer"] = layers
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="negative control: the checker sees one answer off by one")
    args = ap.parse_args(argv)
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.inject_fault)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = LAYER_METRICS if args.trace else END_TO_END
    values = summary["per_layer"] if args.trace else summary["end_to_end"]
    print(f"# {args.workload} seed={args.seed} passes={summary['passes']} "
          f"attempted={summary['attempted']} failed={summary['failed']}")
    for name, unit in (("error_rate", "share"), ("capped_ops", "count"),
                       ("repeat_share", "share")):
        print(f"{name} {summary[name]:.6g} {unit}")
    for name, unit in metrics:
        print(f"{name} {values[name]:.6g} {unit}")
    for problem in summary["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics},
    }))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
