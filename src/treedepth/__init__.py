"""Exact depth and Stanley depth for powers of tree edge ideals.

Build caterpillar and lobster trees, form powers of their edge ideals,
compute exact depth (via short-exact-sequence splitting backed by
multigraded Betti numbers) and exact Stanley depth (via certified interval
partitions of the characteristic poset), and compare against proven
closed-form lower bounds.
"""

__version__ = "0.1.0"

from . import bounds, depth, sdepth
from .bounds import (BoundReport, bound_caterpillar, bound_lobster,
                     bound_prior_forest, compare)
from .depth import (BettiTable, DepthResult, betti_numbers,
                    depth_oracle_hochster, depth_quotient, depth_via_betti,
                    hochster_betti_table)
from .errors import (AmbientMismatchError, ParameterError, ResourceCapError,
                     UnknownVariableError)
from .graphs import Graph, GraphStats, build_caterpillar, build_lobster, graph_stats
from .monomials import (Monomial, MonomialIdeal, VariableSet, colon,
                        disjoint_sum, edge_ideal, extend_ambient, ideal_power,
                        lcm_lattice, minimalize, polarize, restrict,
                        sum_with_vars)
from .sdepth import (CharPoset, StanleyCertificate, char_poset,
                     sdepth_at_least, sdepth_quotient, verify_certificate)

__all__ = [
    "AmbientMismatchError", "BettiTable", "BoundReport", "CharPoset",
    "DepthResult", "Graph", "GraphStats", "Monomial", "MonomialIdeal",
    "ParameterError", "ResourceCapError",
    "StanleyCertificate", "UnknownVariableError", "VariableSet",
    "betti_numbers", "bound_caterpillar", "bound_lobster",
    "bound_prior_forest", "build_caterpillar", "build_lobster", "cache_info",
    "char_poset", "colon", "compare", "depth_oracle_hochster", "depth_quotient",
    "depth_via_betti", "disjoint_sum", "edge_ideal", "extend_ambient",
    "graph_stats", "hochster_betti_table", "ideal_power", "lcm_lattice",
    "minimalize", "polarize", "restrict", "sdepth_at_least",
    "sdepth_quotient", "sum_with_vars", "verify_certificate",
]


def cache_info() -> dict:
    """Counts of the per-process caches, each a dict of ``hits``,
    ``misses``, ``evictions`` and the ``size`` it holds: ``poset``
    (:func:`char_poset`, points held), ``sdepth`` (:func:`sdepth_quotient`
    results, certificate intervals held), ``stats`` (graph statistics in
    :func:`compare`, entries held) and ``depth`` (the depth memo, entries
    held)."""
    return {"poset": sdepth._poset_cache.info(),
            "sdepth": sdepth._result_cache.info(),
            "stats": bounds.stats_info(),
            "depth": depth.memo_info()}
