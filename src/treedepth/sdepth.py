"""Exact Stanley depth of S/I via interval partitions of the characteristic
poset, with independently checkable certificates.

The poset holds every exponent vector a below the generator-exponent cap g
with x^a outside the ideal.  A partition of it into intervals [a, b] whose
tops satisfy rho(b) = #{i : b_i = g_i} >= d witnesses sdepth(S/I) >= d; the
search below is an exhaustive exact-cover backtracking, so an "infeasible"
answer is a proof of impossibility, and a certificate is returned otherwise.

Infeasibility can also be proved on an up-set.  For a point u of the poset,
U_u = {c in the poset : c >= u} is the poset of the colon (I : x^u) shifted
by u, and an interval partition of the poset restricts to one of U_u with
the same tops: [a, b] becomes [max(a, u), b] for every b >= u.  So when U_u
has no partition at d, neither has the poset; this is the colon inequality
sdepth(S/(I : x^u)) >= sdepth(S/I) (Rauf 2010; Cimpoeas 2012), read inside
the poset already built.  :func:`sdepth_quotient` interleaves such up-set
searches with the whole-poset search and keeps the refuting u.

The search works on regions held as Python ints over box positions: the
point a sits at bit sum(a_j * stride_j) of the box [0, g], so stepping one
unit along coordinate j is a shift by stride_j.  Hasse covers, minimal
points, intervals and connected components of a region are then a few
whole-region shifts and masks per coordinate, run in C, instead of walks
over single points.

Resource exhaustion (node or time caps) raises, and is never conflated with
infeasibility.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import product
from operator import eq, mul
from types import MappingProxyType

import numpy as np

from .errors import (ParameterError, ResourceCapError, deadline_after,
                     recursion_limit, seconds_left)
from .monomials import MonomialIdeal, VariableSet, _env_cap

DEFAULT_BOX_CAP = 2 ** 20

_MISS = object()


class _RoundOver(Exception):
    """An up-set search used up its probe round's node budget."""


class _Refuted(Exception):
    """An up-set search proved the whole search infeasible; ``args[0]`` is
    the point u at the bottom of the up-set."""


def _strides(g: tuple) -> list[int]:
    """Mixed-radix place values of the box [0, g], coordinate 0 most
    significant."""
    stride = [1] * len(g)
    for j in range(len(g) - 2, -1, -1):
        stride[j] = stride[j + 1] * (g[j + 1] + 1)
    return stride


class CharPoset:
    """Characteristic poset of S/I below the cap g, componentwise order.

    ``points`` are exponent tuples sorted by (degree, lex); ``g`` is the
    componentwise maximum of the generator exponents.  The box layout is
    built once, here, and every :func:`sdepth_at_least` level only reads it.
    The box [0, g] is laid out in mixed radix, coordinate 0 most
    significant: ``stride[j]`` is the product of g_i + 1 over i > j, and
    ``volume`` the number of box positions.  Box order is lex order.

    * ``box[i]`` is the box position sum(a_j * stride[j]) of point i, and
      ``at`` maps a box position back to its point's index i;
    * ``digit[j][e]`` is the box-wide mask of the positions whose
      coordinate j equals e; ``below[j]`` is the union over e < g_j and
      ``above_zero[j]`` the union over e >= 1;
    * ``rho[i]`` is the number of coordinates of point i at the cap.

    A region is an int with a bit set at the box position of each of its
    points.  The methods below work on whole regions: one step along
    coordinate j is a shift by stride[j], masked so that it cannot wrap
    into the next coordinate.  Nothing here is a per-point mask, so memory
    stays linear in the number of points and in the box volume.
    :func:`verify_certificate` reads only ``ambient``, ``points`` and ``g``.

    :func:`char_poset` caches posets per process under a bound on the
    points held and hands the same instance to every caller, so an
    instance is read-only: every sequence field is a tuple, ``at`` is a
    read-only mapping, and assigning or deleting an attribute raises
    AttributeError.  A cache hit still passes the proper-ideal and box-cap
    checks.
    """

    __slots__ = ("ambient", "g", "points", "stride", "volume", "box", "at",
                 "digit", "below", "above_zero", "rho")

    def __init__(self, ambient: VariableSet, g: tuple, points):
        init = object.__setattr__
        init(self, "ambient", ambient)
        init(self, "g", g)
        pts = tuple(sorted(points, key=lambda a: (sum(a), a)))
        init(self, "points", pts)
        stride = tuple(_strides(g))
        init(self, "stride", stride)
        volume = stride[0] * (g[0] + 1) if g else 1
        init(self, "volume", volume)
        box = tuple(sum(map(mul, a, stride)) for a in pts)
        init(self, "box", box)
        init(self, "at", MappingProxyType({p: i for i, p in enumerate(box)}))
        # coordinate j repeats with period stride_j * (g_j + 1); within one
        # period digit e fills stride_j consecutive positions
        digit = tuple(
            tuple(int("".join("1" * s if x == e else "0" * s
                              for x in range(gj, -1, -1))
                      * (volume // (s * (gj + 1))), 2)
                  for e in range(gj + 1))
            for s, gj in zip(stride, g))
        init(self, "digit", digit)
        full = (1 << volume) - 1
        init(self, "below", tuple(full ^ dj[-1] for dj in digit))
        init(self, "above_zero", tuple(full ^ dj[0] for dj in digit))
        init(self, "rho", tuple(sum(map(eq, a, g)) for a in pts))

    def __setattr__(self, *a):
        raise AttributeError("CharPoset is read-only: char_poset shares it")

    __delattr__ = __setattr__

    def __reduce__(self):
        return CharPoset, (self.ambient, self.g, self.points)

    def __len__(self):
        return len(self.points)

    def mask(self, ids) -> int:
        """The region holding the points ``ids``."""
        buf = bytearray((self.volume + 7) // 8)
        box = self.box
        for i in ids:
            p = box[i]
            buf[p >> 3] |= 1 << (p & 7)
        return int.from_bytes(buf, "little")

    def has_up(self, region: int) -> int:
        """Box positions with an upper cover in the region."""
        out = 0
        for s, below in zip(self.stride, self.below):
            out |= region >> s & below
        return out

    def has_down(self, region: int) -> int:
        """Box positions with a lower cover in the region."""
        out = 0
        for s, above in zip(self.stride, self.above_zero):
            out |= region << s & above
        return out

    def minimal(self, region: int) -> list[int]:
        """Points of the region with no lower cover in it, by index, so in
        (degree, lex) order."""
        out = []
        rest = region & ~self.has_down(region)
        while rest:
            low = rest & -rest
            out.append(self.at[low.bit_length() - 1])
            rest ^= low
        return sorted(out)

    def cube(self, a: tuple, b: tuple) -> int:
        """Box positions c with a <= c <= b: per coordinate, the union of
        the digits a_j..b_j, intersected over the coordinates."""
        out = (1 << self.volume) - 1
        for dj, x, y in zip(self.digit, a, b):
            if y - x < len(dj) - 1:  # a full range constrains nothing
                span = 0
                for e in range(x, y + 1):
                    span |= dj[e]
                out &= span
        return out

    def components(self, region: int) -> list[int]:
        """Connected parts of a region under the Hasse links, in (degree,
        lex) order of their first points.  Every part holds a minimal point
        of the region and grows from the first one it holds, one cover step
        along each coordinate in turn, until it stops changing; what is
        left after the parts of all but the last minimal point is one
        part."""
        seeds = self.minimal(region)
        steps = [(s, below & region, above & region) for s, below, above
                 in zip(self.stride, self.below, self.above_zero)]
        out = []
        for i in seeds[:-1]:
            part = 1 << self.box[i]
            if not region & part:
                continue  # inside an earlier part
            while True:
                before = part
                for s, below, above in steps:
                    part |= part >> s & below | part << s & above
                if part == before:
                    break
            out.append(part)
            region ^= part
        if region:
            out.append(region)
        return out


# what each cache below may hold: posets by their points, Stanley-depth
# results by their certificate intervals
_POSET_CACHE_POINTS = 1 << 14


class _Lru:
    """Entries kept least recently used first, under a bound on their total
    size: ``size(value)`` measures one entry, eviction keeps the total at
    most ``_POSET_CACHE_POINTS``, and a value larger than that is never
    kept.  Every cache shares one lock; the counts feed
    :func:`treedepth.cache_info`."""

    _lock = threading.Lock()

    def __init__(self, size):
        self.size = size
        self.entries: OrderedDict = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def get(self, key):
        """The value kept under ``key``, or None."""
        with self._lock:
            value = self.entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self.entries.move_to_end(key)
        return value

    def put(self, key, value):
        """Keep ``value`` under ``key``; returns the value kept there, which
        is an equal one when another thread kept the same key meanwhile."""
        if self.size(value) > _POSET_CACHE_POINTS:
            return value
        with self._lock:
            value = self.entries.setdefault(key, value)
            self.entries.move_to_end(key)
            held = self._held()
            while held > _POSET_CACHE_POINTS:
                held -= self.size(self.entries.popitem(last=False)[1])
                self.evictions += 1
        return value

    def _held(self) -> int:
        return sum(map(self.size, self.entries.values()))

    def info(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "size": self._held()}


# keyed by (ambient, generator rows), sized by points
_poset_cache = _Lru(len)


def _box(ideal: MonomialIdeal, cap: int | None) -> tuple:
    """The poset's cap g, the componentwise maximum of the generator
    exponents, once the ideal is proper and the box [0, g] fits under
    ``cap`` (default 2^20, overridable via TREEDEPTH_CAP)."""
    if not ideal.is_proper():
        raise ParameterError("characteristic poset needs a proper ideal")
    cap = _env_cap(DEFAULT_BOX_CAP) if cap is None else cap
    rows = ideal.rows
    g = tuple(max((r[i] for r in rows), default=0)
              for i in range(ideal.num_vars()))
    volume = 1
    for e in g:
        volume *= e + 1
        if volume > cap:
            raise ResourceCapError(
                f"characteristic poset box exceeds cap ({volume} > {cap})")
    return g


def char_poset(ideal: MonomialIdeal, cap: int | None = None) -> CharPoset:
    """Enumerate the poset; aborts if the bounding box volume exceeds the
    cap (default 2^20, overridable via TREEDEPTH_CAP).

    Posets are cached per process under a bound on the points held, so
    equal ideals over equal variables get the same :class:`CharPoset`
    while it stays cached; it is shared and therefore read-only.  The
    proper-ideal and box checks run on every call, so a cached poset is
    returned only when a fresh build would have been.
    """
    g = _box(ideal, cap)
    n = len(g)
    rows = ideal.rows
    key = (ideal.ambient, rows)
    poset = _poset_cache.get(key)
    if poset is not None:
        return poset

    # Level by level: x^b lies outside I exactly when b is not a generator
    # and every lower cover of b lies outside I.  Points are tracked by box
    # position too.  Each b is generated once, from b - e_i for its last
    # nonzero coordinate i; its other lower covers b - e_j have j < i and
    # lie in the level below, which is complete.
    stride = _strides(g)
    gens = {sum(map(mul, r, stride)) for r in rows}
    origin = (0,) * n
    points = [origin]
    outside = {0}
    level = [(origin, 0, 0)]
    while level:
        nxt = []
        for a, p, start in level:
            for i in range(start, n):
                if a[i] < g[i]:
                    q = p + stride[i]
                    if q in gens:
                        continue
                    for j in range(i):
                        if a[j] and q - stride[j] not in outside:
                            break
                    else:
                        nxt.append((a[:i] + (a[i] + 1,) + a[i + 1:], q, i))
        points.extend(b for b, _, _ in nxt)
        outside.update(q for _, q, _ in nxt)
        level = nxt
    return _poset_cache.put(key, CharPoset(ideal.ambient, g, points))


@dataclass(frozen=True)
class StanleyCertificate:
    """An interval partition witnessing sdepth >= claimed_d.

    ``refuted_by``, set by :func:`sdepth_quotient` below the number of
    variables, is the point u whose up-set admits no partition at
    claimed_d + 1 (the origin: the whole poset), so sdepth(S/(I : x^u)) <=
    claimed_d.  It is not in the JSON and not read by
    :func:`verify_certificate`.
    """

    ambient: VariableSet
    g: tuple
    claimed_d: int
    intervals: tuple  # of (a, b) exponent tuples
    refuted_by: tuple | None = field(default=None, compare=False)

    def to_json(self) -> str:
        sparse = self.ambient.sparse
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
        dense = ambient.dense
        return StanleyCertificate(
            ambient, dense(obj["g"]), int(obj["claimed_d"]),
            tuple((dense(iv["a"]), dense(iv["b"])) for iv in obj["intervals"]))


def sdepth_at_least(poset: CharPoset, d: int,
                    max_nodes: int | None = None,
                    budget_s: float | None = None,
                    *, _refuted: list | None = None) -> StanleyCertificate | None:
    """Exact feasibility of an interval partition with tops of rho >= d.

    Returns a verified-shape certificate, or None for a proof of
    impossibility.  Raises ResourceCapError if the node or time cap fires
    before the search concludes.

    ``_refuted``, private to :func:`sdepth_quotient`: given a list, the
    search also runs up-set probes under the same node cap, time budget
    and memo, and appends the point u of a probe that refutes d.
    """
    n = len(poset.ambient)
    if not 0 <= d <= n:
        raise ParameterError(f"d must lie in [0, {n}], got {d}")
    pts = poset.points
    if d == 0:
        return StanleyCertificate(poset.ambient, poset.g, 0,
                                  tuple((p, p) for p in pts))

    rho = poset.rho

    # tops sorted by degree descending: largest interval first
    top_ids = sorted((i for i in range(len(pts)) if rho[i] >= d),
                     key=lambda i: -sum(pts[i]))
    if not top_ids:
        return None
    top_rank = {ti: r for r, ti in enumerate(top_ids)}
    top_mask = poset.mask(top_ids)
    nbytes = (poset.volume + 7) // 8
    point_bits = np.array(poset.box)

    deadline = deadline_after(budget_s)
    nodes = 0
    # probe schedule: in the main search, ``mark`` is the node count that
    # starts the next probe round; inside a round, the count that ends it
    mark = 2 if _refuted is not None else None
    pending: list | None = None  # probes not yet settled, built lazily
    in_round = False
    full = poset.mask(range(len(pts)))
    tops_cache: dict[int, list[int]] = {}
    memo: dict[bytes, tuple | None] = {}

    def flags(region):
        """The region read out per point: entry i is 1 when it holds point
        i.  The box can hold several times more positions than the poset
        has points, and shifting a whole region to test one bit is slow."""
        bits = np.unpackbits(np.frombuffer(region.to_bytes(nbytes, "little"),
                                           np.uint8), bitorder="little")
        return bits[point_bits]

    def key_of(region):
        """The region with one bit per point, point i at bit i & 7 of byte
        i >> 3: the memo key, and the table for single-point membership."""
        return np.packbits(flags(region), bitorder="little").tobytes()

    def tops_of(i):
        """The tops above point i, in ``top_ids`` order."""
        cached = tops_cache.get(i)
        if cached is None:
            above = flags(poset.cube(pts[i], poset.g) & top_mask)
            cached = sorted(np.flatnonzero(above).tolist(),
                            key=top_rank.__getitem__)
            tops_cache[i] = cached
        return cached

    def solve(region: int):
        """Interval partition of one connected uncovered region, or None.

        An interval is order-connected, so after a placement the leftover
        region is solved component by component; memoizing per region makes
        placements commute instead of multiplying.  Every minimal point of
        the region bottoms its own interval; branching happens at the first
        one with the fewest live tops (tops inside the region), where a
        dead branch is refuted fastest.
        """
        nonlocal nodes
        key = key_of(region)
        cached = memo.get(key, _MISS)
        if cached is not _MISS:
            return cached
        if mark is not None and nodes >= mark:
            if in_round:
                raise _RoundOver
            probe_round()
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise ResourceCapError("interval partition search exceeded node cap")
        if deadline is not None and nodes % 64 == 0 and time.monotonic() > deadline:
            raise ResourceCapError("interval partition search exceeded time budget")
        # liveness: every point needs a top-capable point above it inside
        # the region, so every point that is not one needs a cover above;
        # climbing covers from any point then ends at a live top above it
        if region & ~(top_mask | poset.has_up(region)):
            memo[key] = None
            return None
        minimals = poset.minimal(region)
        lives = [[ti for ti in tops_of(i) if key[ti >> 3] >> (ti & 7) & 1]
                 for i in minimals]
        i, live = min(zip(minimals, lives), key=lambda il: len(il[1]))
        p = pts[i]
        for ti in live:
            block = poset.cube(p, pts[ti])
            if block & ~region:
                continue
            pieces: list[tuple] = [(p, pts[ti])]
            ok = True
            for comp in poset.components(region ^ block):
                sub = solve(comp)
                if sub is None:
                    ok = False
                    break
                pieces.extend(sub)
            if ok:
                result = tuple(pieces)
                memo[key] = result
                return result
        memo[key] = None
        return None

    def probe_round():
        """Search up-sets U_u, smallest first, until one is refuted or the
        nodes used in the round match the nodes used before it.  A feasible
        U_u is dropped; one cut off by the budget waits for the next round,
        which starts when the node count has doubled again."""
        nonlocal mark, pending, in_round
        if pending is None:
            # points of degree 1 and 2 follow the origin in (degree, lex)
            # order; U_u holds the points c >= u
            ups = []
            for i in range(1, len(pts)):
                if sum(pts[i]) > 2:
                    break
                up = full & poset.cube(pts[i], poset.g)
                ups.append((up.bit_count(), i, up))
            pending = sorted(ups)
        in_round, mark = True, 2 * nodes
        while pending:
            _, i, up = pending[0]
            try:
                found = solve(up)
            except _RoundOver:
                break
            if found is None:
                raise _Refuted(pts[i])
            pending.pop(0)
        in_round = False
        mark = 2 * nodes if pending else None

    intervals: list[tuple] = []
    # a probe round runs on top of the main search's stack
    with recursion_limit(2 * len(pts) + 10000):
        try:
            for comp in poset.components(full):
                sub = solve(comp)
                if sub is None:
                    return None
                intervals.extend(sub)
        except _Refuted as refuted:
            _refuted.append(refuted.args[0])
            return None
    return StanleyCertificate(poset.ambient, poset.g, d, tuple(intervals))


# keyed by (ambient, generator rows, normalized start, max_nodes), sized by
# certificate intervals
_result_cache = _Lru(lambda hit: len(hit[1].intervals))


def sdepth_quotient(ideal: MonomialIdeal, start: int | None = None,
                    max_nodes: int | None = None,
                    budget_s: float | None = None,
                    cap: int | None = None) -> tuple[int, StanleyCertificate]:
    """Largest d admitting an interval partition, with its certificate.

    ``start`` seeds the search: from there it ascends while partitions
    exist, or descends to the first d that has one (a known lower bound
    makes the expensive infeasibility step run only once, at
    d = answer + 1).  The step at ``start`` is the plain search; every later
    step interleaves up-set probes with it, and is infeasible when either
    exhausts its region.  The certificate's ``refuted_by`` names the up-set
    that refuted d = answer + 1.  ``max_nodes`` caps each step, probes
    included; ``budget_s`` covers the whole call.

    A ``start`` above the answer makes the first step an infeasibility
    proof without probes.  At start = answer + 1 that is the step the
    probes would settle: at ``max_nodes=1000`` it caps on the squares of
    P233, P322, S310 and P331 at start 3 and of P332 at start 4, all of
    which answer from their closed-form bound.  A start two or more above
    the answer reaches answer + 1 descending, with probes.

    Answers are cached per process under a bound on the certificate
    intervals held, keyed by the variables, the generators, ``start``
    clamped to [0, n] and ``max_nodes``, since the certificate can depend
    on the first and whether a call caps on the second.  A hit returns the
    same value and certificate as a cold call with those arguments.  The
    proper-ideal check, the box check against ``cap`` and the budget check
    run on every call, so a spent budget raises on a hit too; a capped
    call keeps nothing and caps again.
    """
    n = len(_box(ideal, cap))
    deadline = deadline_after(budget_s)
    seconds_left(deadline)
    d = min(max(start or 0, 0), n)
    key = (ideal.ambient, ideal.rows, d, max_nodes)
    hit = _result_cache.get(key)
    if hit is not None:
        return hit
    found = _search(char_poset(ideal, cap=cap), d, max_nodes, deadline)
    return _result_cache.put(key, found)


def _search(poset: CharPoset, d: int, max_nodes: int | None,
            deadline: float | None) -> tuple[int, StanleyCertificate]:
    """The search of :func:`sdepth_quotient` from ``d``."""
    n = len(poset.ambient)

    def step(e, probes=True):
        """The certificate at e and None, or None and the refuting point."""
        refuted = [] if probes else None
        found = sdepth_at_least(poset, e, max_nodes=max_nodes,
                                budget_s=seconds_left(deadline),
                                _refuted=refuted)
        if found is not None:
            return found, None
        return None, refuted[0] if refuted else (0,) * n

    best, witness = step(d, probes=False)
    if best is None:
        # descend to the first feasible d (d = 0 always is); the step above
        # it has just been refuted, so there is nothing left to ascend
        while best is None:
            above = witness
            d -= 1
            best, witness = step(d)
        return d, replace(best, refuted_by=above)
    while d < n:
        nxt, witness = step(d + 1)
        if nxt is None:
            return d, replace(best, refuted_by=witness)
        d, best = d + 1, nxt
    return d, best


def verify_certificate(poset: CharPoset, cert: StanleyCertificate) -> bool:
    """Standalone certificate check: the poset's own box ``g`` and variables,
    pairwise-disjoint intervals, exact cover of the poset, and every top at
    rho >= claimed_d.

    Shares no code with the search; any malformation returns False.
    """
    if cert.g != poset.g or cert.ambient != poset.ambient:
        return False
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
