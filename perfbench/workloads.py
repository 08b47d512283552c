"""Workload definitions: the operations each workload runs, made from a seed.

An operation is a plain tuple naming what to compute; the worker turns it
into calls on the package.  Every workload is a fixed list of operations per
pass; the seed only orders it (for query-mix, shuffles one block of the
query stream).  It never changes which instances a workload covers, so every
seed does the same work.
"""

from __future__ import annotations

import random

WORKLOADS = ("grid-sweep", "depth-powers", "query-mix")

# Per-call node cap of the sdepth search in grid-sweep.  Every cell answered
# at the seed commit needs at most 250 nodes per call, and the five cells
# capped at 2000 nodes (P233, P322, P331, P332, S310 at t=2) are also capped
# at 250, 500 and 1000; 1000 keeps the same capped set at half the run time.
GRID_NODE_CAP = 1000

# query-mix: share of each query kind, and each kind's catalog in popularity
# order (Zipf with exponent 1 within a kind).  P(50,10,10) and S(55,3,3) are
# the published large-parameter bound comparisons.
QUERY_SHARES = (("bound", 0.45), ("depth", 0.45), ("sdepth", 0.10))
QUERY_CATALOG = {
    "bound": (
        ("caterpillar", (20, 5, 5), 6),
        ("lobster", (30, 3, 2), 6),
        ("lobster", (55, 3, 3), 10),
        ("caterpillar", (30, 6, 6), 9),
        ("lobster", (20, 2, 2), 4),
        ("caterpillar", (50, 10, 10), 15),
    ),
    "depth": (
        ("caterpillar", (6, 4, 4), 1),
        ("caterpillar", (5, 3, 3), 2),
        ("lobster", (7, 3, 3), 1),
        ("caterpillar", (4, 4, 4), 2),
        ("caterpillar", (8, 3, 3), 1),
        ("lobster", (5, 2, 2), 2),
        ("caterpillar", (7, 2, 2), 2),
        ("lobster", (4, 2, 2), 2),
    ),
    "sdepth": (
        ("caterpillar", (4, 3, 3), 1),
        ("lobster", (4, 2, 2), 1),
        ("caterpillar", (6, 2, 2), 1),
    ),
}
QUERY_BLOCK = 500  # queries per pass; a run pools two passes or more


def grid_cells() -> list[tuple]:
    """The t=1 verify grid, plus t=2 for n <= 3 and r <= 3: 50 cells."""
    cells = []
    for n in range(2, 5):
        for k in range(2, 4):
            for l in range(1, k + 1):
                for t in ((1, 2) if n <= 3 else (1,)):
                    cells.append(("cell", "caterpillar", (n, k, l), t))
    for r in range(2, 5):
        for p in range(1, 3):
            for q in range(0, p + 1):
                for t in ((1, 2) if r <= 3 else (1,)):
                    cells.append(("cell", "lobster", (r, p, q), t))
    return cells


# depth_quotient on larger powers, where short-exact-sequence splitting
# dominates, and one lcm-lattice Betti computation (S422, 879 lattice
# elements) so the Betti, lattice and polarize layers carry real work.
DEPTH_POWERS = (
    ("depth", "lobster", (5, 2, 2), 2),
    ("depth", "lobster", (8, 2, 2), 2),
    ("depth", "caterpillar", (6, 4, 4), 2),
    ("depth", "caterpillar", (8, 3, 3), 2),
    ("depth", "caterpillar", (10, 3, 3), 2),
    ("depth", "caterpillar", (6, 2, 2), 3),
    ("depth", "lobster", (3, 3, 3), 3),
    ("betti", "lobster", (4, 2, 2), 1),
)


def zipf_counts(items, total: int) -> list[int]:
    """Counts proportional to 1/rank summing to ``total`` (largest
    remainder), so a block holds the same multiset for every seed."""
    weights = [1.0 / (rank + 1) for rank in range(len(items))]
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def query_block(rng: random.Random) -> list[tuple]:
    """One block of QUERY_BLOCK queries: fixed Zipf counts, seeded order."""
    kind_counts = [round(share * QUERY_BLOCK) for _kind, share in QUERY_SHARES]
    block = []
    for (kind, _share), count in zip(QUERY_SHARES, kind_counts):
        catalog = QUERY_CATALOG[kind]
        for item, n in zip(catalog, zipf_counts(catalog, count)):
            block.extend([(kind,) + item] * n)
    rng.shuffle(block)
    return block


def operations(workload: str, rng: random.Random) -> list[tuple]:
    """The operation list of one pass of a workload, in seeded order."""
    if workload == "grid-sweep":
        ops = grid_cells()
        rng.shuffle(ops)
        return ops
    if workload == "depth-powers":
        ops = list(DEPTH_POWERS)
        rng.shuffle(ops)
        return ops
    if workload == "query-mix":
        return query_block(rng)
    raise ValueError(f"unknown workload {workload!r}")
