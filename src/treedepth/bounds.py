"""Closed-form lower bounds for depth and Stanley depth of S/I^t.

The new family bounds depend on the power t together with the family shape
parameters (spine length and pendant counts for caterpillars, spoke count
for lobsters); the older forest bounds depend on diameter, component count
and near-leaf count.  All arithmetic is exact integer arithmetic; every
parity-gated division is asserted exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (ParameterError, ResourceCapError, deadline_after,
                     seconds_left)
from .graphs import GraphStats, build_caterpillar, build_lobster, graph_stats


def _exact_half(value: int) -> int:
    if value % 2:
        raise AssertionError(f"parity violation: {value} is not even")
    return value // 2


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def bound_caterpillar(n: int, k: int, l: int, t: int) -> int:
    """Proven lower bound for depth and sdepth of S/I^t of the caterpillar.

    t = 1 uses the sharper single-power estimate; t >= 2 the power estimate,
    which splits on the parity of n - t and on whether the last spine vertex
    kept any pendants (l >= 2).
    """
    if n < 1 or k < 2 or not 1 <= l <= k or t < 1:
        raise ParameterError(f"bad caterpillar bound parameters: n={n}, k={k}, l={l}, t={t}")
    if n == 1:
        if l != k:
            raise ParameterError("caterpillar with n=1 requires l=k")
        return 1  # star case: every power has depth and sdepth >= 1
    if t == 1:
        if n % 2 == 0:
            return _exact_half(n - 2) * k + l
        if l >= 2:
            return _exact_half(n - 1) * k + 1
        return _exact_half(n - 1) * k
    if (n - t) % 2:  # opposite parity
        return max(1, _exact_half(n - t - 1) * k + l - 1)
    if l >= 2:
        return max(1, _exact_half(n - t) * k)
    return max(1, _exact_half(n - t) * k - 1)


def bound_lobster(r: int, p: int, q: int, t: int) -> int:
    """Proven lower bound for depth and sdepth of S/I^t of the lobster."""
    if r < 2 or p < 1 or not 0 <= q <= p or t < 1:
        raise ParameterError(f"bad lobster bound parameters: r={r}, p={p}, q={q}, t={t}")
    if q == 0:
        return max(1, r - t)
    return max(1, r - t + 1)


def bound_prior_forest(d: int, s: int, t: int, a: int | None = None) -> int:
    """Earlier diameter-based forest bound; with the near-leaf count ``a``
    present, its sharper variant.  Ceilings follow standard semantics for
    negative numerators."""
    if s < 1 or t < 1 or d < 0:
        raise ParameterError(f"bad forest bound parameters: d={d}, s={s}, t={t}")
    numer = d - t + (2 if a is None else a)
    return max(_ceil_div(numer, 3) + s - 1, s)


@dataclass
class BoundReport:
    """One family instance: its bounds and, optionally, its exact values."""

    family: str
    params: tuple
    t: int
    new_bound: int
    prior_diam_bound: int
    prior_nearleaf_bound: int
    exact_depth: int | None = None
    exact_sdepth: int | None = None
    depth_capped: bool = False
    sdepth_capped: bool = False

    @property
    def status(self) -> str:
        for exact in (self.exact_depth, self.exact_sdepth):
            if exact is not None and exact < self.new_bound:
                return "bound_violated"
        if self.depth_capped or self.sdepth_capped:
            return "capped"
        return "ok"

    def to_dict(self) -> dict:
        labels = ("n", "k", "l") if self.family == "caterpillar" else ("r", "p", "q")
        out = {"family": self.family}
        out.update(dict(zip(labels, self.params)))
        out.update({
            "t": self.t,
            "new_bound": self.new_bound,
            "diam_bound": self.prior_diam_bound,
            "nearleaf_bound": self.prior_nearleaf_bound,
            "depth": self.exact_depth,
            "sdepth": self.exact_sdepth,
            "status": self.status,
        })
        return out


def _graph(family: str, params: tuple):
    build = build_caterpillar if family == "caterpillar" else build_lobster
    return build(*params)


@lru_cache
def _family_stats(family: str, params: tuple) -> GraphStats:
    """Statistics of one family instance, cached per process (frozen, so
    safe to share); only reached with parameters a bound has accepted."""
    return graph_stats(_graph(family, params))


def stats_info() -> dict:
    """Hits, misses and evictions of the graph-statistics cache, and the
    entries it holds.  Every miss adds an entry, so the evictions are the
    misses not held."""
    info = _family_stats.cache_info()
    return {"hits": info.hits, "misses": info.misses,
            "evictions": info.misses - info.currsize, "size": info.currsize}


def compare(family: str, params: tuple, t: int, compute_exact: bool = False,
            budget_s: float | None = None, field_char: int = 32003) -> BoundReport:
    """Evaluate the new bound against the prior forest bounds for one family
    instance; optionally compute the exact depth and Stanley depth.

    Graph statistics feeding the prior bounds come from graph_stats, never
    from hand-entered values.  They are cached per process for each
    ``(family, params)`` once the new bound has accepted the parameters, so
    a repeated instance builds no graph unless ``compute_exact`` is set.
    Resource exhaustion during exact computation is recorded as a capped
    field, not raised.
    """
    params = tuple(params)
    if family == "caterpillar":
        n, k, l = params
        new_bound = bound_caterpillar(n, k, l, t)
    elif family == "lobster":
        r, p, q = params
        new_bound = bound_lobster(r, p, q, t)
    else:
        raise ParameterError(f"unknown family {family!r}")
    stats = _family_stats(family, params)
    report = BoundReport(
        family=family, params=params, t=t, new_bound=new_bound,
        prior_diam_bound=bound_prior_forest(stats.diameter, stats.components, t),
        prior_nearleaf_bound=bound_prior_forest(stats.diameter, stats.components,
                                                t, stats.near_leaves),
    )
    if not compute_exact:
        return report

    from .depth import depth_quotient
    from .monomials import edge_ideal, ideal_power
    from .sdepth import sdepth_quotient

    deadline = deadline_after(budget_s)
    try:
        ideal = ideal_power(edge_ideal(_graph(family, params)), t,
                            deadline=deadline)
    except ResourceCapError:
        report.depth_capped = True
        report.sdepth_capped = True
        return report
    try:
        report.exact_depth = depth_quotient(
            ideal, field_char, budget_s=seconds_left(deadline)).depth
    except ResourceCapError:
        report.depth_capped = True
    try:
        report.exact_sdepth = sdepth_quotient(ideal, start=new_bound,
                                              budget_s=seconds_left(deadline))[0]
    except ResourceCapError:
        report.sdepth_capped = True
    return report
