"""Exact depth of monomial quotients over a prime field.

Two independent routes are implemented:

* the production engine :func:`depth_quotient`, which peels the ideal with
  short exact sequences ``0 -> S/(I:x) -> S/I -> S/(I,x) -> 0``.  The three
  depth-lemma inequalities pin the middle depth exactly whenever the colon
  and sum depths differ by anything other than exactly one; the rare
  undetermined cores are finished off by depth = n - pd, with the
  projective dimension pd read from the lcm lattice over GF(p).
* an independent oracle :func:`depth_oracle_hochster` for squarefree ideals,
  which walks every vertex subset of the Stanley-Reisner complex and reads
  Betti numbers from reduced homology of the restrictions.

Inside the engine each generator is one int.  Field j, of 8k bits, holds
the exponent of variable j; the field's top bit is a guard bit, 0 in every
stored row, and k is the fewest bytes that leave the ideal's largest
exponent below it, chosen once per :func:`depth_quotient` call.  With H the
guard bits of all fields and A the bits below them:

* the support mask of a row r is (r + A) & H, the guards of its nonzero
  fields;
* l divides u iff ((u | H) - l) & H == H, i.e. no field of u borrows;
* the colon (I : x_i) subtracts 1 << 8ki from each row nonzero at i;
* the sum (I, x_i) keeps the rows that are zero at i and cuts field i out,
  and a component split gathers the bytes of the component's fields.

A node's rows are minimal and sorted as ints; with the number of variables
and k they are its memo key.  Int order reads the rows from the last
variable back, so the unit row 0 sorts first, and cutting out fields that
are zero on every row kept keeps the order: of the splits only the colon
sorts, by merging two sorted runs.  Only the Betti fallback unpacks rows,
to exponent tuples in canonical ``(degree, row)`` order.

Multigraded Betti numbers (:func:`betti_numbers`) are computed from the lcm
lattice: for each lattice element m, beta_{i,m}(S/I) is the rank of reduced
homology H~_{i-2} of the complex K_m of generator subsets below m whose lcm
is a proper divisor of m.  The same rank is H~_{i-2} of the upper Koszul
complex K^m of squarefree F on supp m with m / x^F in I.  Ranks are exact
eliminations mod p; no floating point is used anywhere.

The projective dimension alone (the fallback above and
:func:`depth_via_betti`) does not build that table.  K_m never holds all
atoms of m, and K^m holds all of supp m only as a full simplex, which has
no reduced homology; so beta_{i,m} != 0 forces
i <= b(m) = min(#atoms(m), |supp m|), the Taylor and the Koszul bound.
The lattice is walked in descending order of b(m), and the walk stops at
the first element with b(m) <= the best pd found so far; as b(m) <= n,
that includes pd reaching the number of variables.  Each visited element
is asked only whether some H~_j with j >= pd - 1 is nonzero: homology is
computed from the top dimension down, on faces with at least pd - 1
vertices.  K_m and K^m are the two Dowker complexes of one relation
between atoms and support positions; dominated rows and columns of that
relation are removed first (strong collapses, homotopy equivalences), and
the side with fewer vertices is the one built.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from operator import itemgetter

import numpy as np

from .errors import (ParameterError, check_deadline, deadline_after,
                     recursion_limit)
from .monomials import (Monomial, MonomialIdeal, VariableSet, lcm_lattice,
                        polarize)

_INFINITE_DEPTH = 10 ** 9  # stands in for depth of the zero module S/S


@lru_cache(maxsize=16)  # checked per call; a depth memo hit costs about as much
def _check_prime(p: int) -> int:
    if p < 2:
        raise ParameterError(f"field characteristic must be a prime, got {p}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ParameterError(f"field characteristic must be a prime, got {p}")
        d += 1
    return p


@dataclass(frozen=True)
class DepthResult:
    depth: int
    proj_dim: int
    ambient_size: int
    field_char: int
    method: str

    def __post_init__(self):
        # Auslander-Buchsbaum for S/I
        if self.depth + self.proj_dim != self.ambient_size:
            raise AssertionError("depth + proj_dim != ambient size")


class BettiTable:
    """Multigraded Betti numbers beta_{i,m} of S/I over GF(p).

    Entry (0, 1) -> 1 is the rank-one presentation of the quotient itself;
    entries at i >= 1 come from homology.
    """

    def __init__(self, ambient: VariableSet, entries: dict, field_char: int):
        self.ambient = ambient
        self.entries = dict(entries)
        self.field_char = field_char

    def proj_dim(self) -> int:
        return max((i for (i, _m), r in self.entries.items() if r), default=0)

    def nonzero(self):
        return {k: v for k, v in self.entries.items() if v}

    def to_json(self) -> str:
        import json
        rows = [{"i": i, "deg": m.to_dict(), "rank": r}
                for (i, m), r in sorted(self.entries.items(),
                                        key=lambda kv: (kv[0][0], kv[0][1].sort_key()))
                if r]
        return json.dumps(rows, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# exact rank computations mod p
# ---------------------------------------------------------------------------

def _rank_mod_p(rows, ncols: int, p: int, deadline=None) -> int:
    """Rank of a sparse +-1 integer matrix over GF(p).

    rows: list of [(col, coeff), ...].  Dense elimination in int64; p*p must
    fit in int64, which holds for any practical prime.
    """
    if not rows or ncols == 0:
        return 0
    A = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, c in row:
            A[i, j] = c % p
    rank = 0
    nrows = len(rows)
    for col in range(ncols):
        check_deadline(deadline)
        piv = None
        for i in range(rank, nrows):
            if A[i, col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, col]), p - 2, p)
        A[rank] = (A[rank] * inv) % p
        hit = np.nonzero(A[:, col])[0]
        hit = hit[hit != rank]
        if hit.size:
            A[hit] = (A[hit] - np.outer(A[hit, col], A[rank])) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def _reduced_homology(faces_by_dim: dict, p: int, deadline=None) -> dict:
    """Reduced Betti numbers over GF(p) of a complex given as
    {dimension: [frozenset vertices, ...]} including the empty face at -1."""
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in faces_by_dim.items()}
    boundary_rank = {}
    for d in sorted(faces_by_dim):
        if d - 1 not in faces_by_dim:
            boundary_rank[d] = 0
            continue
        lower = index[d - 1]
        rows = []
        for f in faces_by_dim[d]:
            verts = sorted(f)
            rows.append([(lower[f - {v}], -1 if pos & 1 else 1)
                         for pos, v in enumerate(verts)])
        boundary_rank[d] = _rank_mod_p(rows, len(faces_by_dim[d - 1]), p, deadline)
    betti = {}
    for d, fs in faces_by_dim.items():
        b = len(fs) - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
        if b:
            betti[d] = b
    return betti


# ---------------------------------------------------------------------------
# Betti numbers from the lcm lattice
# ---------------------------------------------------------------------------

def _strand_homology(atom_rows, target, p: int, deadline=None) -> dict:
    """Reduced homology of {B subset of atoms : lcm(B) proper divisor of target}.

    Subsets are grown depth-first; once a subset's lcm reaches the target all
    supersets do too, so that branch is cut.
    """
    n_atoms = len(atom_rows)
    faces_by_dim: dict[int, list] = {-1: [frozenset()]}

    def grow(chosen, current, start):
        check_deadline(deadline)
        for nxt in range(start, n_atoms):
            merged = tuple(max(a, b) for a, b in zip(current, atom_rows[nxt]))
            if merged == target:
                continue
            chosen.append(nxt)
            faces_by_dim.setdefault(len(chosen) - 1, []).append(frozenset(chosen))
            grow(chosen, merged, nxt + 1)
            chosen.pop()

    zero = tuple(0 for _ in target)
    grow([], zero, 0)
    return _reduced_homology(faces_by_dim, p, deadline)


def betti_numbers(ideal: MonomialIdeal, field_char: int = 32003,
                  cap: int | None = None,
                  deadline: float | None = None) -> BettiTable:
    """Multigraded Betti numbers of S/I via lcm-lattice strand homology.

    ``deadline`` is a ``time.monotonic()`` instant; past it the computation
    raises :class:`ResourceCapError`.
    """
    _check_prime(field_char)
    if ideal.is_zero():
        raise ParameterError("Betti numbers of the zero ideal are trivial; not supported")
    if not ideal.is_proper():
        raise ParameterError("improper ideal (contains a unit)")
    amb = ideal.ambient
    entries = {(0, Monomial.one(amb)): 1}
    gen_rows = ideal.rows
    for target in lcm_lattice(gen_rows, cap=cap, deadline=deadline):
        atoms = [r for r in gen_rows
                 if all(a <= b for a, b in zip(r, target))]
        hom = _strand_homology(atoms, target, field_char, deadline)
        for j, rank in hom.items():
            entries[(j + 2, Monomial(amb, target))] = rank
    return BettiTable(amb, entries, field_char)


def depth_via_betti(ideal: MonomialIdeal, field_char: int = 32003,
                    cap: int | None = None) -> DepthResult:
    """Depth from the polarized ideal's Betti numbers (lattice route)."""
    _check_prime(field_char)
    n = ideal.num_vars()
    if ideal.is_zero():
        return DepthResult(n, 0, n, field_char, "lcm_lattice_homology")
    if not ideal.is_proper():
        raise ParameterError("improper ideal (contains a unit)")
    squarefree, shift = polarize(ideal)
    pd = _proj_dim_rows(squarefree.rows, field_char, cap)
    return DepthResult(n - pd, pd, n, field_char, "lcm_lattice_homology")


def _proj_dim_rows(rows, p: int, cap=None, deadline=None) -> int:
    """pd(S/I) over GF(p) from the minimal generators ``rows`` of a nonzero
    proper I, in canonical ``(degree, row)`` order.

    Free variables are irrelevant to pd, so the rows are shrunk to their
    joint support first; dropping columns that are zero in every row keeps
    them minimal, distinct and canonical.  The lattice is walked in
    descending order of the bound b(m) (see the module docstring) and the
    walk stops once no element left can beat the best pd found; each
    visited element is asked only for homology above that pd.
    """
    used = sorted({i for r in rows for i, e in enumerate(r) if e})
    core = [tuple(r[i] for i in used) for r in rows]
    # fits[j][e]: the atoms whose exponent at j is at most e, as a bitset
    fits = [[sum(1 << a for a, r in enumerate(core) if r[j] <= e)
             for e in range(max(r[j] for r in core) + 1)]
            for j in range(len(used))]
    walk = []
    for target in lcm_lattice(core, cap=cap, deadline=deadline):
        check_deadline(deadline)
        below = -1
        for j, e in enumerate(target):
            below &= fits[j][e]
        bound = min(below.bit_count(), len(target) - target.count(0))
        walk.append((bound, target, below))
    walk.sort(key=lambda w: -w[0])
    pd = 1  # a generator m has beta_{1,m} = 1
    for bound, target, below in walk:
        if bound <= pd:
            break
        check_deadline(deadline)
        # one row per atom: the support positions where it stays below m
        supp = [j for j, e in enumerate(target) if e]
        relation = [sum(1 << k for k, j in enumerate(supp) if core[a][j] < target[j])
                    for a in range(below.bit_length()) if below >> a & 1]
        facets = _dowker_core(relation, len(supp), deadline)
        j = _high_homology(facets, pd - 1, p, deadline)
        if j is not None:
            pd = j + 2
    return pd


def _maximal(masks) -> list:
    """The distinct bitsets among ``masks`` that lie in no other one."""
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & o == m for o in out):
            out.append(m)
    return out


def _transpose(masks, width: int) -> list:
    return [sum(1 << i for i, m in enumerate(masks) if m >> c & 1)
            for c in range(width)]


def _dowker_core(rows, width: int, deadline=None) -> list:
    """Facets of a complex homotopy equivalent to both complexes of the
    relation given by ``rows`` (bitsets over ``width`` columns).

    Faces of the atom side K_m are atom sets under a common column, faces
    of the support side K^m support sets inside a common row; by Dowker's
    theorem the two are homotopy equivalent.  A row inside another row is
    a dominated vertex of K_m and a non-maximal facet of K^m (and the same
    for columns), so removing it is a strong collapse of one side and no
    change of the other.  Removals repeat until none is left, and the side
    with fewer vertices is returned as its facets.
    """
    while True:
        check_deadline(deadline)
        rows = _maximal(rows)
        cols = _maximal(_transpose(rows, width))
        if len(cols) == width:
            return cols if len(rows) <= width else rows
        rows, width = _transpose(cols, len(rows)), len(cols)


def _high_homology(facets, floor: int, p: int, deadline=None):
    """The largest j >= ``floor`` with reduced H_j over GF(p) nonzero for the
    complex generated by ``facets`` (vertex bitsets), or None.

    Homology is computed from the top dimension down, so only the faces
    with at least ``floor`` vertices are ever built.
    """
    size = max(map(int.bit_count, facets))
    faces = _faces(facets, size, deadline)
    rank_above = 0
    for j in range(size - 1, floor - 1, -1):
        lower = _faces(facets, j, deadline)
        rank = _boundary_rank(faces, lower, p, deadline)
        if len(faces) - rank - rank_above:
            return j
        faces, rank_above = lower, rank
    return None


def _faces(facets, size: int, deadline=None) -> list:
    """The faces with ``size`` vertices, as sorted bitsets."""
    out: set[int] = set()
    for f in facets:
        check_deadline(deadline)
        bits = [1 << v for v in range(f.bit_length()) if f >> v & 1]
        out.update(map(sum, combinations(bits, size)))
    return sorted(out)


def _boundary_rank(faces, lower, p: int, deadline=None) -> int:
    """Rank over GF(p) of the boundary map from ``faces`` to ``lower``.

    Sparse row reduction: a row is reduced by the earlier rows that share
    its leading (highest) column until it is zero or leads a new column.
    """
    index = {f: i for i, f in enumerate(lower)}
    pivots: dict[int, dict] = {}
    for f in faces:
        check_deadline(deadline)
        row, sign, rest = {}, 1, f
        while rest:
            v = rest & -rest
            row[index[f ^ v]] = sign % p
            sign, rest = -sign, rest ^ v
        while row:
            c = max(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: x * inv % p for k, x in row.items()}
                break
            k = row[c]
            for cc, x in piv.items():
                y = (row.get(cc, 0) - k * x) % p
                if y:
                    row[cc] = y
                else:
                    row.pop(cc, None)
    return len(pivots)


# ---------------------------------------------------------------------------
# production engine: short-exact-sequence splitting
# ---------------------------------------------------------------------------

# The depth memo lives for the whole process; past this many entries the
# oldest (first inserted) ones are dropped.  The benchmark's depth-powers
# pass, the largest user, leaves 2487 entries (about 1.6 MB pickled).
_SES_MEMO_CAP = 20_000
_ses_memo: dict = {}
# lookups that found an entry and that did not, and entries dropped; plain
# increments, as the memo itself takes no lock
_ses_counts = {"hits": 0, "misses": 0, "evictions": 0}


def _remember(key, d: int) -> int:
    _ses_memo[key] = d
    if len(_ses_memo) > _SES_MEMO_CAP:
        del _ses_memo[next(iter(_ses_memo))]
        _ses_counts["evictions"] += 1
    return d


def memo_info() -> dict:
    """Hits, misses and evictions of the depth memo, and the entries it
    holds."""
    return {**_ses_counts, "size": len(_ses_memo)}


class _Fields:
    """The packed layout of exponent rows (see the module docstring): field
    j, ``k`` bytes wide, holds the exponent of variable j below its guard
    bit, the field's top bit.  ``k`` is the fewest bytes that leave the
    largest exponent ``top`` below the guard bit.  One layout, built for
    the ideal's ``nvars``, serves every node of its recursion: the fields
    past a node's variables are 0 in all its rows, and the mask and
    divisibility tests hold on zero fields."""

    __slots__ = ("k", "width", "guard", "below")

    def __init__(self, nvars: int, top: int):
        self.k = k = top.bit_length() // 8 + 1
        self.width = w = 8 * k
        # H: every guard bit; A: every bit below a guard bit
        self.guard = int.from_bytes((1 << w - 1).to_bytes(k, "little") * nvars,
                                    "little")
        self.below = self.guard - (self.guard >> w - 1)

    def pack(self, rows) -> list:
        """The exponent tuples ``rows`` packed, in the order given."""
        k = self.k
        data = (rows if k == 1 else  # from_bytes reads a tuple of byte values
                (b"".join([e.to_bytes(k, "little") for e in r]) for r in rows))
        return list(map(int.from_bytes, data, repeat("little")))

    def unpack(self, r: int, nvars: int) -> tuple:
        k = self.k
        data = r.to_bytes(nvars * k, "little")
        return tuple(int.from_bytes(data[j:j + k], "little")
                     for j in range(0, nvars * k, k))

    def supports(self, rows) -> list:
        """The rows' support masks: the guard bits of their nonzero fields."""
        below, guard = self.below, self.guard
        return [(r + below) & guard for r in rows]


def _components(masks):
    """Support masks of the connected components of the generators: rows
    whose supports overlap, directly or through other rows, share one."""
    comps: list[int] = []
    for m in dict.fromkeys(masks):
        if comps and not m & ~comps[-1]:
            continue  # inside the last component grown, which no other meets
        touching = [c for c in comps if c & m]
        for c in touching:
            comps.remove(c)
            m |= c
        comps.append(m)
    return comps


def _colon_rows(rows, i, fields):
    """Minimal generators of (I : x_i), sorted, from the minimal packed
    generators ``rows`` of I.

    Lowering a row at i keeps the lowered rows an antichain, and no
    untouched row (exponent 0 at i) divides a lowered one.  A lowered row
    divides an untouched row only if it is 0 at i, i.e. its exponent there
    was 1, so only those are tested against the untouched rows.  Lowering
    subtracts one from field i of every lowered row, which keeps their
    order, so the result merges two sorted runs.
    """
    w, guard = fields.width, fields.guard
    one = 1 << i * w
    field = ((1 << w) - 1) << i * w
    lowered = [r - one for r in rows if r & field]
    # low divides u iff no field of (u | guard) - low borrows from its
    # guard bit; that needs u > low, and both lists are sorted
    kept = [r | guard for r in rows if not r & field]
    for low in (r for r in lowered if not r & field):
        j = bisect(kept, low | guard)
        kept[j:] = [u for u in kept[j:] if (u - low) & guard != guard]
    return tuple(sorted(lowered + [u ^ guard for u in kept]))


def _sum_rows(rows, i, fields):
    """Minimal generators of (I, x_i) over the other variables: the rows
    that are 0 at i, with field i cut out.  Cutting out a zero field keeps
    the order of the rows."""
    w = fields.width
    low = (1 << i * w) - 1
    field = ((1 << w) - 1) << i * w
    return tuple(r & low | r >> w & ~low for r in rows if not r & field)


def _component_rows(rows, masks, comp, nvars, fields):
    """The rows inside the component with support mask ``comp``, with every
    field outside it cut out, and the number of its variables.

    The bytes of the component's fields are gathered from each row; the
    byte past the top field is always 0 and is gathered too, so the pick
    is a tuple even for a one-byte component.  Cutting out fields that are
    0 in every row kept keeps the rows' order.
    """
    k, w = fields.k, fields.width
    cols = [j for j in range(nvars) if comp >> j * w + w - 1 & 1]
    size = nvars * k + 1
    pick = itemgetter(*[j * k + b for j in cols for b in range(k)], size - 1)
    inside = [r for r, m in zip(rows, masks) if m & comp]
    data = map(bytes, map(pick, map(int.to_bytes, inside, repeat(size),
                                    repeat("little"))))
    sub = tuple(map(int.from_bytes, data, repeat("little")))
    return sub, len(cols)


def _depth_rec(rows, nvars, fields, p, deadline) -> int:
    """depth(S/I) for the minimal generators ``rows`` of I, packed by
    ``fields`` and sorted, so that equal ideals share one memo key.

    No split re-minimalizes: the component split and the sum (I, x_i) each
    keep a subset of the rows and drop fields that are zero on it, which
    leaves a minimal set in order; the colon (I : x_i) goes through
    :func:`_colon_rows`.  A free variable is a component with no rows, and
    adds 1 to the depth.
    """
    if not rows:
        return nvars
    if not rows[0]:  # the unit row 0 sorts first
        return _INFINITE_DEPTH
    key = (rows, nvars, fields.k, p)
    hit = _ses_memo.get(key)
    if hit is not None:
        _ses_counts["hits"] += 1
        return hit
    _ses_counts["misses"] += 1
    check_deadline(deadline)

    masks = fields.supports(rows)
    comps = _components(masks)
    nfree = nvars - sum(c.bit_count() for c in comps)
    if nfree or len(comps) > 1:
        total = nfree
        for comp in comps:
            sub, n = _component_rows(rows, masks, comp, nvars, fields)
            total += _depth_rec(sub, n, fields, p, deadline)
        return _remember(key, total)

    if len(rows) == 1:
        return _remember(key, nvars - 1)

    # split on variables, most-used first: a mask's bytes are 0 but for
    # 0x80 in the top byte of each used field, so the top bytes of field i
    # across all masks, one slice, count the rows that use variable i
    k = fields.k
    step = nvars * k
    data = b"".join(map(int.to_bytes, masks, repeat(step), repeat("little")))
    freq = [data[j::step].count(0x80) for j in range(k - 1, step, k)]
    order = sorted(range(nvars), key=lambda i: (-freq[i], i))

    candidates = []
    for i in order:
        colon_rows = _colon_rows(rows, i, fields)
        sum_rows = _sum_rows(rows, i, fields)
        d_colon = _depth_rec(colon_rows, nvars, fields, p, deadline)
        d_sum = _depth_rec(sum_rows, nvars - 1, fields, p, deadline)
        if d_colon <= d_sum:
            # depth lemma forces equality with the colon depth
            return _remember(key, d_colon)
        if d_colon > d_sum + 1:
            return _remember(key, d_sum)
        candidates.append((d_sum, d_colon))  # undetermined: either value

    possible = set(candidates[0])
    for c in candidates[1:]:
        possible &= set(c)
    if len(possible) == 1:
        return _remember(key, possible.pop())
    if not possible:
        raise AssertionError("inconsistent depth constraints; this is a bug")

    # every split left the same two possibilities: resolve by resolution
    canonical = sorted((fields.unpack(r, nvars) for r in rows),
                       key=lambda r: (sum(r), r))
    return _remember(key, nvars - _proj_dim_rows(canonical, p, deadline=deadline))


def depth_quotient(ideal: MonomialIdeal, field_char: int = 32003,
                   budget_s: float | None = None) -> DepthResult:
    """Exact depth(S/I) for a monomial ideal I.

    The zero ideal has depth equal to the ambient size.  The ideal's rows
    are minimal already, so they go to the engine packed and sorted but
    otherwise as they are.  Free variables and support-disjoint components
    are split off first; the remaining cores are resolved by exact-sequence
    splitting with a Betti fallback (see module docstring).  ``budget_s``
    bounds the whole computation, the Betti fallback included.
    """
    _check_prime(field_char)
    n = ideal.num_vars()
    if ideal.is_zero():
        return DepthResult(n, 0, n, field_char, "ses_splitting")
    if not ideal.is_proper():
        raise ParameterError("improper ideal (contains a unit)")
    deadline = deadline_after(budget_s)
    rows = ideal.rows
    # the last row has the largest degree, which bounds every exponent;
    # past what a one-byte field holds, the largest exponent is read
    top = sum(rows[-1])
    fields = _Fields(n, top if top < 128 else max(map(max, rows)))
    packed = tuple(sorted(fields.pack(rows)))
    d = _ses_memo.get((packed, n, fields.k, field_char))
    if d is not None:
        _ses_counts["hits"] += 1
    else:  # a memo hit needs neither the degree sum nor the room
        with recursion_limit(20 * sum(map(sum, rows)) + 10000):
            d = _depth_rec(packed, n, fields, field_char, deadline)
    return DepthResult(d, n - d, n, field_char, "ses_splitting")


# ---------------------------------------------------------------------------
# independent oracle: Hochster's formula on the Stanley-Reisner complex
# ---------------------------------------------------------------------------

def _oracle_rank_mod_p(dense, p: int) -> int:
    """Column-major elimination, deliberately separate from _rank_mod_p."""
    A = [[c % p for c in row] for row in dense]
    if not A or not A[0]:
        return 0
    nrows, ncols = len(A), len(A[0])
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, nrows) if A[i][j]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][j], p - 2, p)
        A[rank] = [(c * inv) % p for c in A[rank]]
        prow = A[rank]
        for i in range(nrows):
            if i != rank and A[i][j]:
                f = A[i][j]
                A[i] = [(c - f * pc) % p for c, pc in zip(A[i], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


def hochster_betti_table(ideal: MonomialIdeal, field_char: int = 32003) -> BettiTable:
    """Betti table of a squarefree quotient from reduced homology of the
    restrictions of its Stanley-Reisner complex to vertex subsets."""
    _check_prime(field_char)
    n = ideal.num_vars()
    if n > 16:
        raise ParameterError(f"Hochster oracle limited to 16 variables, got {n}")
    if ideal.is_zero() or not ideal.is_proper():
        raise ParameterError("oracle needs a nonzero proper ideal")
    if not all(e <= 1 for r in ideal.rows for e in r):
        raise ParameterError("Hochster oracle requires a squarefree ideal")

    gen_masks = [sum(1 << i for i, e in enumerate(r) if e) for r in ideal.rows]
    entries = {(0, Monomial.one(ideal.ambient)): 1}
    for size in range(n + 1):
        for sigma in combinations(range(n), size):
            smask = sum(1 << v for v in sigma)
            # a vertex of sigma touched by no generator inside sigma cones
            # the restriction off, so its homology vanishes
            coned = False
            for v in sigma:
                vbit = 1 << v
                if not any((gm & vbit) and (gm & smask) == gm for gm in gen_masks):
                    coned = True
                    break
            if coned and size > 0:
                continue
            faces = _restriction_faces(gen_masks, sigma, smask)
            if not faces:
                continue
            hom = _oracle_homology(faces, field_char)
            for j, rank in hom.items():
                i = size - j - 1
                if i >= 1:
                    deg = Monomial(ideal.ambient,
                                   tuple(1 if v in sigma else 0 for v in range(n)))
                    entries[(i, deg)] = entries.get((i, deg), 0) + rank
    return BettiTable(ideal.ambient, entries, field_char)


def _restriction_faces(gen_masks, sigma, smask):
    faces = []
    sub = smask
    while True:
        if not any((gm & sub) == gm for gm in gen_masks):
            faces.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & smask
    return faces


def _oracle_homology(face_masks, p: int) -> dict:
    by_dim: dict[int, list[int]] = {}
    for f in face_masks:
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in by_dim.items()}
    brank = {}
    for d in sorted(by_dim):
        if d - 1 not in by_dim:
            brank[d] = 0
            continue
        lower = index[d - 1]
        dense = []
        for f in by_dim[d]:
            row = [0] * len(by_dim[d - 1])
            pos = 0
            m = f
            while m:
                v = m & -m
                row[lower[f ^ v]] = -1 if pos & 1 else 1
                pos += 1
                m ^= v
            dense.append(row)
        brank[d] = _oracle_rank_mod_p(dense, p)
    out = {}
    for d, fs in by_dim.items():
        b = len(fs) - brank.get(d, 0) - brank.get(d + 1, 0)
        if b:
            out[d] = b
    return out


def depth_oracle_hochster(ideal: MonomialIdeal, field_char: int = 32003) -> DepthResult:
    """Independent depth computation for squarefree ideals (<= 16 variables)."""
    table = hochster_betti_table(ideal, field_char)
    n = ideal.num_vars()
    pd = table.proj_dim()
    return DepthResult(n - pd, pd, n, field_char, "hochster_oracle")
