"""Monomial ideal kernel: edge ideals, powers, colons, restrictions,
polarization and the lcm lattice.

An ideal holds only the exponent rows of its minimal generators over an
ordered ``VariableSet``, in canonical order, so ideal equality is tuple
equality.  Its constructor minimalizes whatever rows it is given, so the
operations below pass it raw rows; ``Monomial`` is for the API edge.

Every minimal generating set, here and in the depth engine, comes from one
tuple kernel, :func:`minimal_rows`.  Its output is in canonical
``(degree, row)`` order, the order of :meth:`Monomial.sort_key`.  Distinct
rows of one degree never divide each other, so a row is only tested against
kept rows of lower degree, and a support-bitmask test rules out most of
those pairs before the exponents are compared.
"""

from __future__ import annotations

import json
import os
from itertools import combinations_with_replacement

from .errors import (AmbientMismatchError, ParameterError, ResourceCapError,
                     UnknownVariableError, check_deadline)
from .graphs import Graph

DEFAULT_LATTICE_CAP = 200_000


def _env_cap(default: int) -> int:
    raw = os.environ.get("TREEDEPTH_CAP")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ParameterError(f"TREEDEPTH_CAP must be an integer, got {raw!r}")
    return default


class VariableSet:
    """An ordered, immutable list of variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ParameterError("duplicate variable names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *a):
        raise AttributeError("VariableSet is immutable")

    def __reduce__(self):
        return VariableSet, (self.names,)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableSet({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def sparse(self, row) -> dict:
        """The exponent row as ``{name: exponent}`` over its nonzero entries."""
        return {name: e for name, e in zip(self.names, row) if e}

    def dense(self, mapping) -> tuple:
        """The exponent row of a ``{name: exponent}`` mapping."""
        row = [0] * len(self.names)
        for name, e in mapping.items():
            row[self.index(name)] = int(e)
        return tuple(row)


class Monomial:
    """A monomial x^a as a dense exponent tuple over a VariableSet."""

    __slots__ = ("ambient", "exponents")

    def __init__(self, ambient: VariableSet, exponents):
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(ambient):
            raise ParameterError("exponent vector length does not match ambient")
        if any(e < 0 for e in exponents):
            raise ParameterError("negative exponent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "exponents", exponents)

    def __setattr__(self, *a):
        raise AttributeError("Monomial is immutable")

    def __reduce__(self):
        return Monomial, (self.ambient, self.exponents)

    @staticmethod
    def one(ambient: VariableSet) -> "Monomial":
        return Monomial(ambient, (0,) * len(ambient))

    @staticmethod
    def variable(ambient: VariableSet, name: str) -> "Monomial":
        return Monomial(ambient, ambient.dense({name: 1}))

    @staticmethod
    def from_dict(ambient: VariableSet, sparse: dict) -> "Monomial":
        return Monomial(ambient, ambient.dense(sparse))

    def to_dict(self) -> dict:
        return self.ambient.sparse(self.exponents)

    def support(self) -> tuple[str, ...]:
        return tuple(self.ambient.names[i] for i, e in enumerate(self.exponents) if e)

    def is_one(self) -> bool:
        return not any(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def times(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ambient,
                        tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def _check(self, other: "Monomial"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError("monomials live in different variable sets")

    def sort_key(self):
        return (sum(self.exponents), self.exponents)

    def __eq__(self, other):
        return (isinstance(other, Monomial)
                and self.ambient == other.ambient
                and self.exponents == other.exponents)

    def __hash__(self):
        return hash((self.ambient, self.exponents))

    def __lt__(self, other):
        self._check(other)
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        if self.is_one():
            return "1"
        parts = []
        for name, e in zip(self.ambient.names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


class MonomialIdeal:
    """A monomial ideal held by the exponent rows of its minimal generators.

    The constructor takes any iterable of exponent rows over ``ambient``
    and keeps their :func:`minimal_rows`, so every instance is minimal and
    in canonical ``(degree, row)`` order, and equal ideals have equal rows.
    The zero ideal has no rows; the unit ideal has the one row of zeros.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: VariableSet, rows):
        rows = set(map(tuple, rows))
        n = len(ambient)
        if any(len(r) != n for r in rows):
            raise ParameterError("exponent vector length does not match ambient")
        rows = minimal_rows(rows)
        # a row with a negative entry is divided only by rows negative in
        # the same place, so one of them is among the minimal rows
        if rows and n and min(map(min, rows)) < 0:
            raise ParameterError("negative exponent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("MonomialIdeal is immutable")

    def __reduce__(self):
        return MonomialIdeal, (self.ambient, self.rows)

    @property
    def gens(self) -> tuple:
        """The minimal generators as monomials, built on each call."""
        return tuple(Monomial(self.ambient, r) for r in self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_proper(self) -> bool:
        # canonical order puts the unit row, of degree 0, first
        return not self.rows or any(self.rows[0])

    def num_vars(self) -> int:
        return len(self.ambient)

    def contains(self, m: Monomial) -> bool:
        """Membership: x^a is in the ideal iff some generator divides it."""
        if m.ambient != self.ambient:
            raise AmbientMismatchError("monomial not in the ideal's ambient")
        return any(all(a <= b for a, b in zip(r, m.exponents))
                   for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        inner = ", ".join(map(repr, self.gens)) if self.rows else "0"
        return f"MonomialIdeal({inner})"

    def to_json(self) -> str:
        obj = {
            "vars": list(self.ambient.names),
            "gens": [self.ambient.sparse(r) for r in self.rows],
        }
        return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(text: str) -> "MonomialIdeal":
        obj = json.loads(text)
        ambient = VariableSet(obj["vars"])
        return MonomialIdeal(ambient, [ambient.dense(d) for d in obj["gens"]])


def minimal_rows(rows) -> tuple:
    """The distinct, divisibility-minimal exponent rows, sorted by
    ``(degree, row)``.

    This is the package's one minimalization kernel.  In canonical order a
    row can only be divided by an earlier row, and distinct rows of the same
    degree never divide each other, so each row is tested only against kept
    rows of strictly lower degree; rows of a single degree (a power of an
    edge ideal, say) need no test at all.  A pair is compared exponent by
    exponent only when the kept row's support mask lies inside the row's.
    """
    ordered = sorted((sum(r), r) for r in set(rows))
    if not ordered or ordered[0][0] == ordered[-1][0]:
        return tuple(r for _d, r in ordered)
    kept = []
    lower = []    # (mask, row) of kept rows of strictly lower degree
    current = []  # (mask, row) of kept rows of the degree being scanned
    degree = ordered[0][0]
    for d, r in ordered:
        if d != degree:
            lower += current
            current = []
            degree = d
        mask = _support_mask(r)
        if not _divided(r, mask, lower):
            current.append((mask, r))
            kept.append(r)
    return tuple(kept)


def _support_mask(row) -> int:
    mask = 0
    for i, e in enumerate(row):
        if e:
            mask |= 1 << i
    return mask


def _divided(row, mask: int, masked_rows) -> bool:
    """Whether some row of ``masked_rows``, a list of (support mask, row)
    pairs, divides ``row``, whose support mask is ``mask``."""
    return any(not (km & ~mask) and all(a <= b for a, b in zip(k, row))
               for km, k in masked_rows)


def minimalize(gens, ambient: VariableSet | None = None) -> MonomialIdeal:
    """The ideal generated by the monomials ``gens``.

    All monomials must share one ambient; ``ambient`` is only needed for an
    empty generator collection (the zero ideal).
    """
    gens = list(gens)
    if not gens:
        if ambient is None:
            raise ParameterError("empty generator set needs an explicit ambient")
        return MonomialIdeal(ambient, ())
    amb = gens[0].ambient
    if ambient is not None and ambient != amb:
        raise AmbientMismatchError("generators do not match requested ambient")
    for g in gens[1:]:
        if g.ambient != amb:
            raise AmbientMismatchError("generators live in different variable sets")
    return MonomialIdeal(amb, (g.exponents for g in gens))


def edge_ideal(g: Graph) -> MonomialIdeal:
    """The ideal generated by x_i*x_j over the edges of g, with the graph's
    vertex order as the variable order."""
    ambient = VariableSet(g.vertices)
    return MonomialIdeal(ambient, [ambient.dense({a: 1, b: 1})
                                   for a, b in g.sorted_edges()])


def ideal_power(ideal: MonomialIdeal, t: int,
                deadline: float | None = None) -> MonomialIdeal:
    """The t-th power, generated by the degree-t multiset products of the
    generators.

    Past the ``time.monotonic()`` instant ``deadline`` the product loop
    raises :class:`ResourceCapError`; it checks once every 1024 products.
    """
    if t < 1:
        raise ParameterError(f"power must be >= 1, got {t}")
    if t == 1 or ideal.is_zero():
        return ideal
    combos = combinations_with_replacement(ideal.rows, t)
    if deadline is not None:
        combos = (c for k, c in enumerate(combos)
                  if k % 1024 or check_deadline(deadline) is None)
    return MonomialIdeal(ideal.ambient,
                         (tuple(map(sum, zip(*combo))) for combo in combos))


def colon(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """(I : m), generated by the rows max(g - m, 0) = g / gcd(g, m) over
    the generators g."""
    if m.ambient != ideal.ambient:
        raise AmbientMismatchError("colon monomial not in the ideal's ambient")
    return MonomialIdeal(ideal.ambient, (
        tuple(max(a - b, 0) for a, b in zip(r, m.exponents))
        for r in ideal.rows))


def sum_with_vars(ideal: MonomialIdeal, names) -> MonomialIdeal:
    """I + (the listed variables)."""
    units = tuple(ideal.ambient.dense({name: 1}) for name in names)
    return MonomialIdeal(ideal.ambient, ideal.rows + units)


def restrict(ideal: MonomialIdeal, name: str) -> MonomialIdeal:
    """The minor obtained by setting one variable to zero: drop every
    generator it divides.  The ambient keeps the variable as a free one."""
    i = ideal.ambient.index(name)
    return MonomialIdeal(ideal.ambient, (r for r in ideal.rows if not r[i]))


def polarize(ideal: MonomialIdeal) -> tuple[MonomialIdeal, int]:
    """Squarefree polarization.

    Each x^e with e >= 2 becomes x * x~1 * ... * x~(e-1); the extra copies
    are appended after the original variables in (variable, copy) order.
    Returns (polarized ideal, number of added variables); the caller owns
    the depth bookkeeping depth(S/I) = depth(S'/I') - shift.
    """
    rows = ideal.rows
    if all(e <= 1 for r in rows for e in r):
        return ideal, 0
    n = len(ideal.ambient)
    extra = [(i, copy) for i in range(n)
             for copy in range(1, max(r[i] for r in rows))]
    names = list(ideal.ambient.names) + [
        f"{ideal.ambient.names[i]}~{copy}" for i, copy in extra]
    new_ambient = VariableSet(names)
    copy_index = {pair: n + k for k, pair in enumerate(extra)}
    new_rows = []
    for r in rows:
        exps = [0] * len(new_ambient)
        for i, e in enumerate(r):
            if e >= 1:
                exps[i] = 1
            for copy in range(1, e):
                exps[copy_index[(i, copy)]] = 1
        new_rows.append(exps)
    return MonomialIdeal(new_ambient, new_rows), len(extra)


def extend_ambient(ideal: MonomialIdeal, extra_names) -> MonomialIdeal:
    """The same ideal viewed in a larger ring with fresh variables appended."""
    extra_names = tuple(extra_names)
    pad = (0,) * len(extra_names)
    return MonomialIdeal(VariableSet(ideal.ambient.names + extra_names),
                         (r + pad for r in ideal.rows))


def disjoint_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """I + J inside the tensor ring when I and J use disjoint variables."""
    if set(a.ambient.names) & set(b.ambient.names):
        raise ParameterError("disjoint_sum needs disjoint variable names")
    ambient = VariableSet(a.ambient.names + b.ambient.names)
    pad_a = (0,) * len(b.ambient)
    pad_b = (0,) * len(a.ambient)
    rows = [r + pad_a for r in a.rows] + [pad_b + r for r in b.rows]
    return MonomialIdeal(ambient, rows)


def lcm_lattice(rows, cap: int | None = None,
                deadline: float | None = None) -> tuple:
    """The lcms of all nonempty subsets of the exponent rows, as exponent
    tuples in canonical ``(degree, row)`` order.

    A worklist closes the rows under pairwise lcm.  Aborts with a resource
    error if the element count exceeds the cap (default 200000, overridable
    via TREEDEPTH_CAP) or once the ``time.monotonic()`` instant ``deadline``
    has passed.
    """
    gens = set(rows)
    if not gens:
        raise ParameterError("no rows (the zero ideal): no lcm lattice")
    cap = _env_cap(DEFAULT_LATTICE_CAP) if cap is None else cap
    elems = set(gens)
    frontier = gens
    while frontier:
        new = set()
        for f in frontier:
            check_deadline(deadline)
            for g in gens:
                m = tuple(map(max, f, g))
                if m not in elems:
                    new.add(m)
        elems |= new
        if len(elems) > cap:
            raise ResourceCapError(
                f"lcm lattice exceeded cap ({len(elems)} > {cap})")
        frontier = new
    return tuple(sorted(elems, key=lambda r: (sum(r), r)))
