"""Exact Stanley depth of S/I via interval partitions of the characteristic
poset, with independently checkable certificates.

The poset holds every exponent vector a below the generator-exponent cap g
with x^a outside the ideal.  A partition of it into intervals [a, b] whose
tops satisfy rho(b) = #{i : b_i = g_i} >= d witnesses sdepth(S/I) >= d; the
search below is an exhaustive exact-cover backtracking, so an "infeasible"
answer is a proof of impossibility, and a certificate is returned otherwise.

Resource exhaustion (node or time caps) raises, and is never conflated with
infeasibility.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import product

from .errors import (ParameterError, ResourceCapError, deadline_after,
                     recursion_limit, seconds_left)
from .monomials import MonomialIdeal, VariableSet, _env_cap

DEFAULT_BOX_CAP = 2 ** 20

_MISS = object()


class CharPoset:
    """Characteristic poset of S/I below the cap g, componentwise order.

    ``points`` are exponent tuples sorted by (degree, lex); ``g`` is the
    componentwise maximum of the generator exponents.  The order structure
    is built once, here, and every :func:`sdepth_at_least` level only reads
    it.  For the point at position i:

    * ``index`` maps the point tuple to i;
    * ``ups[i]`` and ``downs[i]`` are the positions of its Hasse covers
      above and below (the poset is down-closed, so every nonzero
      coordinate gives a cover below);
    * ``rho[i]`` is its number of coordinates at the cap;
    * ``packed[i]`` holds each exponent e_j in a g_j-bit unary field, so
      that point i lies below point k componentwise exactly when
      ``not packed[i] & ~packed[k]``.

    :func:`verify_certificate` reads only ``points`` and ``g``.
    """

    __slots__ = ("ambient", "g", "points", "index", "ups", "downs", "rho",
                 "packed")

    def __init__(self, ambient: VariableSet, g: tuple, points):
        self.ambient = ambient
        self.g = g
        self.points = pts = tuple(sorted(points, key=lambda a: (sum(a), a)))
        self.index = index = {a: i for i, a in enumerate(pts)}
        offsets = [0]
        for gi in g:
            offsets.append(offsets[-1] + gi)
        ups: list[list[int]] = [[] for _ in pts]
        downs: list[list[int]] = [[] for _ in pts]
        packed = [0] * len(pts)
        # a point's lower covers precede it in (degree, lex) order
        for i, a in enumerate(pts):
            for j, e in enumerate(a):
                if e:
                    k = index[a[:j] + (e - 1,) + a[j + 1:]]
                    downs[i].append(k)
                    ups[k].append(i)
                    # every cover below gives the same packing
                    packed[i] = packed[k] | 1 << (offsets[j] + e - 1)
        self.ups = ups
        self.downs = downs
        self.packed = packed
        self.rho = [sum(1 for x, gi in zip(a, g) if x == gi) for a in pts]

    def __len__(self):
        return len(self.points)


def char_poset(ideal: MonomialIdeal, cap: int | None = None) -> CharPoset:
    """Enumerate the poset; aborts if the bounding box volume exceeds the
    cap (default 2^20, overridable via TREEDEPTH_CAP)."""
    if not ideal.is_proper():
        raise ParameterError("characteristic poset needs a proper ideal")
    cap = _env_cap(DEFAULT_BOX_CAP) if cap is None else cap
    n = ideal.num_vars()
    rows = ideal.exponent_rows()
    g = tuple(max((r[i] for r in rows), default=0) for i in range(n))
    volume = 1
    for e in g:
        volume *= e + 1
        if volume > cap:
            raise ResourceCapError(
                f"characteristic poset box exceeds cap ({volume} > {cap})")

    def member(a):
        return any(all(x <= y for x, y in zip(r, a)) for r in rows)

    # each point is generated once, from incrementing at or after its last
    # nonzero coordinate
    origin = (0,) * n
    points = [origin]
    stack = [(origin, 0)]
    while stack:
        a, start = stack.pop()
        for i in range(start, n):
            if a[i] < g[i]:
                b = a[:i] + (a[i] + 1,) + a[i + 1:]
                if not member(b):
                    points.append(b)
                    stack.append((b, i))
    return CharPoset(ideal.ambient, g, points)


@dataclass(frozen=True)
class StanleyCertificate:
    """An interval partition witnessing sdepth >= claimed_d."""

    ambient: VariableSet
    g: tuple
    claimed_d: int
    intervals: tuple  # of (a, b) exponent tuples

    def to_json(self) -> str:
        def sparse(t):
            return {self.ambient.names[i]: e for i, e in enumerate(t) if e}
        obj = {
            "g": sparse(self.g),
            "claimed_d": self.claimed_d,
            "intervals": [{"a": sparse(a), "b": sparse(b)}
                          for a, b in self.intervals],
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(text: str, ambient: VariableSet) -> "StanleyCertificate":
        obj = json.loads(text)

        def dense(d):
            exps = [0] * len(ambient)
            for name, e in d.items():
                exps[ambient.index(name)] = int(e)
            return tuple(exps)

        return StanleyCertificate(
            ambient, dense(obj["g"]), int(obj["claimed_d"]),
            tuple((dense(iv["a"]), dense(iv["b"])) for iv in obj["intervals"]))


def sdepth_at_least(poset: CharPoset, d: int,
                    max_nodes: int | None = None,
                    budget_s: float | None = None) -> StanleyCertificate | None:
    """Exact feasibility of an interval partition with tops of rho >= d.

    Returns a verified-shape certificate, or None for a proof of
    impossibility.  Raises ResourceCapError if the node or time cap fires
    before the search concludes.
    """
    n = len(poset.ambient)
    if not 0 <= d <= n:
        raise ParameterError(f"d must lie in [0, {n}], got {d}")
    pts = poset.points
    if d == 0:
        return StanleyCertificate(poset.ambient, poset.g, 0,
                                  tuple((p, p) for p in pts))

    index, ups, downs, rho, packed = (poset.index, poset.ups, poset.downs,
                                      poset.rho, poset.packed)

    # tops sorted by degree descending: largest interval first
    top_ids = sorted((i for i in range(len(pts)) if rho[i] >= d),
                     key=lambda i: -sum(pts[i]))
    if not top_ids:
        return None

    deadline = deadline_after(budget_s)
    nodes = 0
    tops_cache: dict[int, list[int]] = {}
    memo: dict[frozenset, tuple | None] = {}

    def tops_of(i):
        cached = tops_cache.get(i)
        if cached is None:
            ppk = packed[i]
            cached = [ti for ti in top_ids if not ppk & ~packed[ti]]
            tops_cache[i] = cached
        return cached

    def cube(a, b):
        ranges = [range(a[i], b[i] + 1) for i in range(n)]
        return [index[c] for c in product(*ranges)]

    def split_components(region: frozenset) -> list[frozenset]:
        """Connected parts of a region under the Hasse links."""
        out = []
        left = set(region)
        while left:
            seed = left.pop()
            comp = {seed}
            stack = [seed]
            while stack:
                v = stack.pop()
                for links in (ups[v], downs[v]):
                    for w in links:
                        if w in left:
                            left.discard(w)
                            comp.add(w)
                            stack.append(w)
            out.append(frozenset(comp))
        return out

    SCAN_LIMIT = 96  # minimal points examined per region for branching

    def has_saturating_matching(minimals, region):
        """Distinct intervals end at distinct tops, and every minimal point
        of the region bottoms its own interval, so the minimal points must
        match injectively into the region's top-capable points."""
        matched: dict[int, int] = {}

        def augment(p, seen):
            for t in tops_of(p):
                if t in region and t not in seen:
                    seen.add(t)
                    if t not in matched or augment(matched[t], seen):
                        matched[t] = p
                        return True
            return False

        return all(augment(p, set()) for p in minimals)

    def solve(region: frozenset):
        """Interval partition of one connected uncovered region, or None.

        An interval is order-connected, so after a placement the leftover
        region is solved component by component; memoizing per region makes
        placements commute instead of multiplying.  Branching happens at
        the most constrained minimal point of the region: such a point must
        bottom its own interval, and the fewer its live tops the faster a
        dead branch is refuted.
        """
        nonlocal nodes
        cached = memo.get(region, _MISS)
        if cached is not _MISS:
            return cached
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise ResourceCapError("interval partition search exceeded node cap")
        if deadline is not None and nodes % 64 == 0 and time.monotonic() > deadline:
            raise ResourceCapError("interval partition search exceeded time budget")
        # liveness sweep: every point needs a top-capable point above it
        # inside the region; descending degree order sees ups first
        alive: dict[int, bool] = {}
        for i in sorted(region, reverse=True):
            alive[i] = rho[i] >= d or any(alive[u] for u in ups[i] if u in region)
            if not alive[i]:
                memo[region] = None
                return None
        best = None
        minimals = []
        for i in sorted(region):
            if any(j in region for j in downs[i]):
                continue  # a cover below is still uncovered: not minimal here
            minimals.append(i)
            if len(minimals) > SCAN_LIMIT:
                continue
            live = [ti for ti in tops_of(i) if ti in region]
            if not live:
                memo[region] = None
                return None
            if best is None or len(live) < len(best[1]):
                best = (i, live)
        if not has_saturating_matching(minimals, region):
            memo[region] = None
            return None
        i, live = best
        p = pts[i]
        for ti in live:
            block = cube(p, pts[ti])
            if any(j not in region for j in block):
                continue
            rest = region.difference(block)
            pieces: list[tuple] = [(p, pts[ti])]
            ok = True
            for comp in split_components(rest):
                sub = solve(comp)
                if sub is None:
                    ok = False
                    break
                pieces.extend(sub)
            if ok:
                result = tuple(pieces)
                memo[region] = result
                return result
        memo[region] = None
        return None

    intervals: list[tuple] = []
    with recursion_limit(len(pts) + 10000):
        for comp in split_components(frozenset(range(len(pts)))):
            sub = solve(comp)
            if sub is None:
                return None
            intervals.extend(sub)
    return StanleyCertificate(poset.ambient, poset.g, d, tuple(intervals))


def sdepth_quotient(ideal: MonomialIdeal, start: int | None = None,
                    max_nodes: int | None = None,
                    budget_s: float | None = None,
                    cap: int | None = None) -> tuple[int, StanleyCertificate]:
    """Largest d admitting an interval partition, with its certificate.

    ``start`` seeds the ascending search (a known lower bound makes the
    expensive infeasibility step run only once, at d = answer + 1).
    """
    poset = char_poset(ideal, cap=cap)
    n = len(poset.ambient)
    deadline = deadline_after(budget_s)
    d = min(max(start or 0, 0), n)
    best = sdepth_at_least(poset, d, max_nodes=max_nodes,
                           budget_s=seconds_left(deadline))
    while best is None and d > 0:
        d -= 1
        best = sdepth_at_least(poset, d, max_nodes=max_nodes,
                               budget_s=seconds_left(deadline))
    if best is None:
        raise AssertionError("d = 0 must be feasible for a proper ideal")
    while d < n:
        nxt = sdepth_at_least(poset, d + 1, max_nodes=max_nodes,
                              budget_s=seconds_left(deadline))
        if nxt is None:
            break
        d += 1
        best = nxt
    return d, best


def verify_certificate(poset: CharPoset, cert: StanleyCertificate) -> bool:
    """Standalone certificate check: pairwise-disjoint intervals, exact cover
    of the poset, and every top at rho >= claimed_d.

    Shares no code with the search; any malformation returns False.
    """
    n = len(poset.g)
    point_set = set(poset.points)
    seen = set()
    for a, b in cert.intervals:
        if len(a) != n or len(b) != n:
            return False
        if any(x < 0 or x > y or y > gi for x, y, gi in zip(a, b, poset.g)):
            return False
        if sum(1 for y, gi in zip(b, poset.g) if y == gi) < cert.claimed_d:
            return False
        for c in product(*(range(a[i], b[i] + 1) for i in range(n))):
            if c not in point_set or c in seen:
                return False
            seen.add(c)
    return len(seen) == len(point_set)
