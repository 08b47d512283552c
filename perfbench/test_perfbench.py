"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import random
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import MIN_PASSES, enough, percentile  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import QUERY_BLOCK, operations, query_block  # noqa: E402


def _run(root, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_p99_leaves_ten_samples_beyond():
    values = list(range(MIN_PASSES * QUERY_BLOCK))  # the fewest a run pools
    p99 = percentile(values, 0.99)
    assert sum(v > p99 for v in values) >= 10
    assert percentile(values, 0.5) == len(values) // 2 - 1


def test_query_blocks_differ_only_in_order():
    a, b = query_block(random.Random(1)), query_block(random.Random(2))
    assert a != b and Counter(a) == Counter(b)
    assert operations("query-mix", random.Random(1)) == a and len(a) == QUERY_BLOCK
    assert 1 - len(set(a)) / len(a) > 0.96


def test_spans_give_self_time_and_outcome():
    class ResourceCapError(RuntimeError):
        pass

    pkg = types.ModuleType("fakepkg")
    pkg.ResourceCapError = ResourceCapError

    def graph_stats(x):
        return sum(range(20000))

    def compare(x):
        return pkg.graph_stats(x) + pkg.graph_stats(x)

    def sdepth_at_least(x):
        raise ResourceCapError("node cap")

    pkg.graph_stats, pkg.compare, pkg.sdepth_at_least = graph_stats, compare, sdepth_at_least
    for name in ("build_caterpillar", "build_lobster", "bound_caterpillar", "bound_lobster",
                 "bound_prior_forest", "edge_ideal", "ideal_power", "lcm_lattice",
                 "polarize", "depth_quotient", "betti_numbers", "depth_via_betti",
                 "char_poset", "sdepth_quotient", "verify_certificate"):
        setattr(pkg, name, lambda *a: None)
    sys.modules["fakepkg"] = pkg
    try:
        tracer = Tracer()
        tracer.install(pkg)
        pkg.compare(1)
        try:
            pkg.sdepth_at_least(1)
        except ResourceCapError:
            pass
    finally:
        del sys.modules["fakepkg"]
    root, child1, child2, capped = tracer.spans
    assert (root.parent, child1.parent, child2.parent) == (None, root.id, root.id)
    assert abs(root.self_time + child1.self_time + child2.self_time
               - (root.end - root.start)) < 1e-9
    assert capped.outcome == "capped"
    layers = tracer.layer_metrics(wall_s=capped.end - root.start)
    assert layers["sdepth.capped_share"] == 1.0
    assert layers["sdepth.search_calls"] == 1


def test_injected_fault_is_counted():
    proc = _run(HERE.parent, "--workload", "depth-powers", "--seed", "3",
                "--seconds", "1", "--trace", "0", "--inject-fault")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "error_rate 0.125 share" in proc.stdout  # one of eight operations


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "query-mix", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_length_rounds_to_whole_passes():
    assert not enough([40.0], 30)  # one pass is never enough
    assert enough([15.0, 15.0], 30)
    assert enough([12.0, 12.0], 30)  # 24 s is nearer 30 s than 36 s
    assert not enough([11.0, 11.0], 30) and enough([11.0] * 3, 30)
