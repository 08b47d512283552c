"""Recompute the frozen answers in ``expected.json``.

    python3 perfbench/freeze.py --commit <commit the values come from>

Values are computed with the package in ``src`` and checked against the
published acceptance values; the file records which fields are published
and the commit the others were computed at.  A grid cell whose Stanley depth
stays capped within ``SDEPTH_BUDGET_S`` seconds gets no frozen Stanley depth;
the gate then checks its certificate and bound only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import treedepth as td  # noqa: E402

from gate import EXPECTED_PATH, instance_key  # noqa: E402
from workloads import DEPTH_POWERS, QUERY_CATALOG, grid_cells  # noqa: E402

# wall-clock budget of each uncapped Stanley depth search; recorded in the file
SDEPTH_BUDGET_S = 240.0

# published reference values (acceptance criteria 1-4)
PUBLISHED = {
    ("caterpillar", (4, 4, 4), 1): {"depth": 8, "sdepth": 8},
    ("caterpillar", (5, 3, 3), 1): {"depth": 7, "sdepth": 7},
    ("lobster", (4, 2, 2), 1): {"depth": 4, "sdepth": 4},
    ("lobster", (5, 2, 2), 1): {"depth": 5, "sdepth": 5},
    ("caterpillar", (4, 4, 4), 2): {"depth": 5},
    ("caterpillar", (5, 3, 3), 2): {"depth": 6},
    ("lobster", (4, 2, 2), 2): {"depth": 4},
    ("lobster", (5, 2, 2), 2): {"depth": 5},
    ("caterpillar", (50, 10, 10), 15): {"new_bound": 179, "nearleaf_bound": 13},
    ("lobster", (55, 3, 3), 10): {"new_bound": 46, "nearleaf_bound": 17},
}


def _ideal(family, params, t):
    graph = (td.build_caterpillar if family == "caterpillar" else td.build_lobster)(*params)
    return td.ideal_power(td.edge_ideal(graph), t)


def needed() -> dict:
    """(family, params, t) -> the answer fields some workload checks."""
    want: dict[tuple, set] = {}

    def add(family, params, t, *fields):
        want.setdefault((family, tuple(params), t), set()).update(
            ("new_bound", "diam_bound", "nearleaf_bound") + fields)

    for _kind, family, params, t in grid_cells():
        add(family, params, t, "depth", "sdepth")
    for _kind, family, params, t in DEPTH_POWERS:
        add(family, params, t, "depth")
    for kind, fields in (("bound", ()), ("depth", ("depth",)), ("sdepth", ("sdepth",))):
        for family, params, t in QUERY_CATALOG[kind]:
            add(family, params, t, *fields)
    return want


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True)
    args = ap.parse_args(argv)

    instances = {}
    for (family, params, t), fields in sorted(needed().items()):
        report = td.compare(family, params, t)
        entry = {"new_bound": report.new_bound,
                 "diam_bound": report.prior_diam_bound,
                 "nearleaf_bound": report.prior_nearleaf_bound}
        if "depth" in fields:
            entry["depth"] = td.depth_quotient(_ideal(family, params, t)).depth
        if "sdepth" in fields:
            ideal = _ideal(family, params, t)
            try:
                value, cert = td.sdepth_quotient(ideal, start=report.new_bound,
                                                 budget_s=SDEPTH_BUDGET_S)
                if not td.verify_certificate(td.char_poset(ideal), cert):
                    raise SystemExit(f"{family}{params} t={t}: certificate rejected")
                entry["sdepth"] = value
            except td.ResourceCapError:
                entry["sdepth"] = None
        published = PUBLISHED.get((family, params, t), {})
        for field, value in published.items():
            if entry.get(field, value) != value:
                raise SystemExit(f"{family}{params} t={t}: {field} {entry[field]} "
                                 f"differs from the published {value}")
        entry["published"] = sorted(published)
        instances[instance_key(family, params, t)] = entry
        print(instance_key(family, params, t), entry, flush=True)

    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"commit": args.commit,
                   "sdepth_budget_s": SDEPTH_BUDGET_S,
                   "note": "fields listed under 'published' are the paper's "
                           "acceptance values; the rest were computed at 'commit'",
                   "instances": instances}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
