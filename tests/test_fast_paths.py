"""Differential tests for the minimalization kernel, the depth engine's
fast paths, the projective-dimension walk, the characteristic poset's box
layout and its cache, the Stanley-depth search and the graph diameter.

Inputs are random ideals of mixed degree: edge ideals and their powers have
generators of a single degree, so they never reach the kernel's
lower-degree tests or the colon's pruning.  The oracles below are written
out in full and share no code with the kernel.
"""

import re
import sys
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, combinations_with_replacement, product
from operator import sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treedepth import (CharPoset, Graph, MonomialIdeal,
                       ParameterError, ResourceCapError, VariableSet,
                       betti_numbers, cache_info, char_poset, compare,
                       depth_oracle_hochster,
                       depth_quotient, depth_via_betti, graph_stats,
                       ideal_power, lcm_lattice, sdepth_at_least,
                       sdepth_quotient, verify_certificate)
from treedepth import depth as depth_mod
from treedepth import sdepth as sdepth_mod
from treedepth.monomials import minimal_rows
from conftest import family_ideal, plain_sdepth, recheck_refutation
from test_depth import RP2_TRIANGLES, rp2_ideal


def naive_minimal(rows) -> tuple:
    """All-pairs divisibility filter, sorted by (degree, row)."""
    rows = set(rows)
    kept = [r for r in rows
            if not any(s != r and all(a <= b for a, b in zip(s, r)) for s in rows)]
    return tuple(sorted(kept, key=lambda r: (sum(r), r)))


def ideal_of(rows) -> MonomialIdeal:
    amb = VariableSet(tuple(f"x{i}" for i in range(len(rows[0]))))
    return MonomialIdeal(amb, rows)


@st.composite
def row_lists(draw, max_exp=3, max_rows=8, nonzero=False, max_vars=6, exps=None):
    n = draw(st.integers(1, max_vars))
    row = st.tuples(*[st.integers(0, max_exp) if exps is None else exps] * n)
    if nonzero:
        row = row.filter(any)
    return draw(st.lists(row, min_size=1, max_size=max_rows))


@given(row_lists(max_rows=12))
@settings(max_examples=300, deadline=None)
def test_minimal_rows_matches_all_pairs(rows):
    assert minimal_rows(rows) == naive_minimal(rows)


# Exponent bounds on either side of the one- and two-byte packed fields.
FIELD_TOPS = st.sampled_from([3, 127, 128, 255, 256, 40000])


def near(top):
    """Exponents small enough to divide one another, and ``top`` or next
    to it, so that rows fill their fields."""
    return st.integers(0, 3) | st.sampled_from([top - 1, top])


def packed(rows):
    """The depth engine's layout for ``rows`` and the rows packed in it,
    sorted, with their support masks."""
    fields = depth_mod._Fields(len(rows[0]), max(map(max, rows)))
    ints = tuple(sorted(fields.pack(rows)))
    return fields, ints, fields.supports(ints)


@given(st.data(), FIELD_TOPS)
@settings(max_examples=200, deadline=None)
def test_colon_rows_matches_naive_colon(data, top):
    gens = naive_minimal(data.draw(row_lists(exps=near(top), nonzero=True, max_rows=12)))
    n = len(gens[0])
    fields, rows, masks = packed(gens)
    for i in range(n):
        lowered = [r[:i] + (r[i] - 1,) + r[i + 1:] if r[i] else r for r in gens]
        expected = tuple(sorted(fields.pack(naive_minimal(lowered))))
        assert depth_mod._colon_rows(rows, i, fields) == expected


@given(st.data(), FIELD_TOPS)
@settings(max_examples=200, deadline=None)
def test_sum_rows_match_tuple_sum(data, top):
    gens = naive_minimal(data.draw(row_lists(exps=near(top), nonzero=True, max_rows=10)))
    fields, rows, masks = packed(gens)
    for i in range(len(gens[0])):
        dropped = [r[:i] + r[i + 1:] for r in gens if not r[i]]
        assert depth_mod._sum_rows(rows, i, fields) == tuple(sorted(fields.pack(dropped)))


def naive_components(rows) -> list[list[int]]:
    """Variable sets of the connected components of the rows' supports,
    joined one shared variable at a time."""
    comps: list[set] = []
    for r in rows:
        merged = {j for j, e in enumerate(r) if e}
        for c in [c for c in comps if c & merged]:
            comps.remove(c)
            merged |= c
        comps.append(merged)
    return sorted(sorted(c) for c in comps)


@given(st.data(), FIELD_TOPS)
@settings(max_examples=200, deadline=None)
def test_component_rows_match_tuple_gather(data, top):
    gens = naive_minimal(data.draw(row_lists(exps=near(top), nonzero=True, max_rows=8,
                                             max_vars=9)))
    n = len(gens[0])
    fields, rows, masks = packed(gens)
    got = {}
    for comp in depth_mod._components(masks):
        sub, width = depth_mod._component_rows(rows, masks, comp, n, fields)
        cols = tuple(j for j in range(n) if comp >> j * fields.width + fields.width - 1 & 1)
        got[cols] = (sub, width)
    expected = {}
    for cols in naive_components(gens):
        inside = [tuple(r[j] for j in cols) for r in gens if any(r[j] for j in cols)]
        expected[tuple(cols)] = (tuple(sorted(fields.pack(inside))), len(cols))
    assert got == expected


@given(st.lists(st.integers(0, 70000), min_size=1, max_size=9), FIELD_TOPS)
@settings(max_examples=300, deadline=None)
def test_pack_unpack_round_trip(row, top):
    row = tuple(row)
    top = max(top, *row)
    fields = depth_mod._Fields(len(row), top)
    # the fewest bytes that keep the largest exponent below the guard bit
    assert top < 1 << fields.width - 1
    assert fields.k == 1 or top >= 1 << fields.width - 9
    r = fields.pack([row])[0]
    assert not r & fields.guard
    assert fields.unpack(r, len(row)) == row
    assert fields.supports([r])[0] == sum(1 << (j + 1) * fields.width - 1
                                          for j, e in enumerate(row) if e)


@given(st.data(), FIELD_TOPS)
@settings(max_examples=300, deadline=None)
def test_int_order_is_a_canonical_key(data, top):
    rows = data.draw(row_lists(exps=near(top), max_rows=6))
    # often the same set of rows, repeated or reordered
    row = st.sampled_from(rows) | st.tuples(*[near(top)] * len(rows[0]))
    other = data.draw(st.lists(row, min_size=1, max_size=8))
    fields = depth_mod._Fields(len(rows[0]), top)
    key, other_key = (tuple(sorted(set(fields.pack(rs)))) for rs in (rows, other))
    assert (key == other_key) == (set(rows) == set(other))
    # ints compare as the rows read from the last variable back
    assert key == tuple(fields.pack(sorted(set(rows), key=lambda r: r[::-1])))
    if (0,) * len(rows[0]) in rows:
        assert key[0] == 0  # the unit row sorts first


@given(row_lists(nonzero=True, max_rows=6), st.sampled_from([2, 3]))
@settings(max_examples=150, deadline=None)
def test_ideal_power_matches_naive_products(rows, t):
    gens = naive_minimal(rows)
    products = [tuple(map(sum, zip(*combo)))
                for combo in combinations_with_replacement(gens, t)]
    power = ideal_power(ideal_of(gens), t)
    assert power.rows == naive_minimal(products)


@given(row_lists(nonzero=True, max_rows=6))
@settings(max_examples=150, deadline=None)
def test_depth_quotient_matches_betti_route(rows):
    # rows may repeat or divide one another: MonomialIdeal minimalizes them
    # before depth_quotient sees them, and the Betti route gets the test's
    # own naive_minimal of them, so both routes see the same ideal
    expected = depth_via_betti(ideal_of(naive_minimal(rows))).depth
    assert depth_quotient(ideal_of(rows)).depth == expected


@given(row_lists(max_exp=1, nonzero=True, max_rows=10))
@settings(max_examples=150, deadline=None)
def test_depth_quotient_matches_hochster_on_squarefree(rows):
    ideal = ideal_of(naive_minimal(rows))
    assert depth_quotient(ideal).depth == depth_oracle_hochster(ideal).depth


@given(row_lists(max_exp=2, nonzero=True, max_rows=4, max_vars=4))
@settings(max_examples=150, deadline=None)
def test_depth_quotient_is_unchanged_by_scaling_exponents(rows):
    # x^a -> x^(ka) keeps the lcm lattice, so every Betti number and the
    # depth; k = 64, 130 and 300 put the exponents past one and two bytes
    depth = depth_quotient(ideal_of(rows)).depth
    for k in (64, 130, 300):
        scaled = [tuple(k * e for e in r) for r in rows]
        assert depth_quotient(ideal_of(scaled)).depth == depth


@pytest.mark.parametrize("e,k", [(127, 1), (128, 2), (255, 2), (256, 2)])
def test_depth_quotient_at_field_boundaries(monkeypatch, e, k):
    # for every e >= 2 these ideals have one lcm lattice, so one depth
    def ideals(e):
        return [ideal_of([(e, 0, 0), (1, 1, 0), (0, 2, 1)]),
                ideal_of([(e, e, 0), (0, 1, 1), (1, 0, 2)]),
                ideal_of([(e, 1, 0, 0), (0, e, 1, 0), (0, 0, e, 1), (1, 0, 0, e)])]
    monkeypatch.setattr(depth_mod, "_ses_memo", {})
    got = [depth_quotient(ideal).depth for ideal in ideals(e)]
    assert {key[2] for key in depth_mod._ses_memo} == {k}
    assert got == [depth_quotient(ideal).depth for ideal in ideals(2)]
    assert got == [depth_via_betti(ideal).depth for ideal in ideals(2)]


def test_depth_quotient_splits_free_variables_and_components():
    # components {x0, x1, x3}, {x4, x6} and {x7}; x2 and x5 are free
    rows = [(1, 1, 0, 0, 0, 0, 0, 0), (0, 2, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 2, 0, 0, 0), (0, 0, 0, 0, 1, 0, 1, 0),
            (0, 0, 0, 0, 0, 0, 0, 3)]
    ideal = ideal_of(rows)
    assert depth_quotient(ideal).depth == depth_via_betti(ideal).depth == 3


@given(row_lists(nonzero=True, max_rows=7),
       st.lists(st.integers(0, 8), max_size=3),
       st.sampled_from([2, 32003]))
@settings(max_examples=200, deadline=None)
def test_proj_dim_matches_full_betti_table(rows, spots, p):
    gens = naive_minimal(rows)
    expected = betti_numbers(ideal_of(gens), p).proj_dim()
    # the walk shrinks minimal rows to their joint support instead of
    # minimalizing them again; padding keeps them minimal and canonical
    padded = gens
    for spot in spots:
        j = spot % (len(padded[0]) + 1)
        padded = tuple(r[:j] + (0,) + r[j:] for r in padded)
    assert padded == naive_minimal(padded)
    assert depth_mod._proj_dim_rows(padded, p) == expected


@given(row_lists(max_exp=1, nonzero=True, max_rows=10),
       st.sampled_from([2, 32003]))
@settings(max_examples=150, deadline=None)
def test_proj_dim_matches_hochster_on_squarefree(rows, p):
    ideal = ideal_of(naive_minimal(rows))
    oracle = depth_oracle_hochster(ideal, p)
    assert depth_mod._proj_dim_rows(ideal.rows, p) == oracle.proj_dim


def relation_complex(rows, width):
    """Faces of the complex on the row indices whose members all contain one
    common column, including the empty face, by dimension."""
    faces = {}
    for size in range(len(rows) + 1):
        for face in combinations(range(len(rows)), size):
            if any(all(rows[r] >> c & 1 for r in face) for c in range(width)) \
                    or not face:
                faces.setdefault(size - 1, []).append(frozenset(face))
    return faces


@given(st.integers(1, 6).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(0, 2 ** w - 1), min_size=1, max_size=7))),
    st.integers(0, 3), st.sampled_from([2, 3]))
@settings(max_examples=300, deadline=None)
def test_high_homology_of_relation_core_matches_full_homology(relation, floor, p):
    width, rows = relation
    full = depth_mod._reduced_homology(relation_complex(rows, width), p)
    expected = max((j for j in full if j >= floor), default=None)
    facets = depth_mod._dowker_core(rows, width)
    assert depth_mod._high_homology(facets, floor, p) == expected


MOEBIUS_TRIANGLES = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2)]


@pytest.mark.parametrize("triangles,p,expected", [
    (MOEBIUS_TRIANGLES, 32003, 1),  # no vertex dominated, no H_2, H_1 = 1
    (RP2_TRIANGLES, 2, 2),
    (RP2_TRIANGLES, 3, None),
])
def test_high_homology_on_triangulated_surfaces(triangles, p, expected):
    # the relation of vertices to the triangles that hold them has no
    # dominated row or column, so the core is the surface itself (with its
    # vertices renumbered)
    rows = [sum(1 << t for t, tri in enumerate(triangles) if v in tri)
            for v in range(1, 7)]
    facets = depth_mod._dowker_core([r for r in rows if r], len(triangles))
    assert len(set(facets)) == len(triangles)
    assert {f.bit_count() for f in facets} == {3}
    assert depth_mod._high_homology(facets, 0, p) == expected


@pytest.mark.parametrize("p,pd", [(2, 4), (32003, 3)])
def test_proj_dim_keeps_characteristic_dependence(p, pd):
    assert depth_mod._proj_dim_rows(rp2_ideal().rows, p) == pd


def test_proj_dim_walk_on_s422_visits_37_of_879_elements(monkeypatch):
    # 13 variables, 12 generators; pd 9 is reached at one lattice element
    visited = []
    real = depth_mod._high_homology

    def counting(*args):
        visited.append(args[0])
        return real(*args)

    monkeypatch.setattr(depth_mod, "_high_homology", counting)
    ideal = family_ideal("lobster", (4, 2, 2))
    assert len(lcm_lattice(ideal.rows)) == 879
    assert depth_mod._proj_dim_rows(ideal.rows, 32003) == 9
    assert len(visited) == 37
    assert depth_via_betti(ideal).depth == 4


def test_memo_stays_under_cap_and_answers_survive_eviction(monkeypatch):
    ideals = [family_ideal("caterpillar", params, t)
              for params in ((3, 2, 2), (3, 3, 2), (4, 2, 1)) for t in (1, 2)]
    monkeypatch.setattr(depth_mod, "_ses_memo", {})
    expected = [depth_quotient(ideal).depth for ideal in ideals]
    assert len(depth_mod._ses_memo) > 16

    monkeypatch.setattr(depth_mod, "_ses_memo", {})
    monkeypatch.setattr(depth_mod, "_SES_MEMO_CAP", 16)
    for _ in range(2):  # the second round runs on a memo that has evicted
        for ideal, depth in zip(ideals, expected):
            assert depth_quotient(ideal).depth == depth
            assert len(depth_mod._ses_memo) <= 16


def leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def box_points(g):
    """Every exponent vector of the box [0, g], in lex order."""
    return list(product(*(range(gi + 1) for gi in g)))


def mixed_radix(a, g) -> int:
    """Position of a in the box [0, g], coordinate 0 most significant."""
    pos = 0
    for x, gi in zip(a, g):
        pos = pos * (gi + 1) + x
    return pos


def bit_set(positions) -> int:
    out = 0
    for p in positions:
        out |= 1 << p
    return out


@given(row_lists(max_exp=2, nonzero=True, max_vars=5))
@settings(max_examples=150, deadline=None)
def test_char_poset_structure_matches_brute_force(rows):
    poset = char_poset(ideal_of(naive_minimal(rows)))
    pts, g = poset.points, poset.g
    n = len(g)
    box = box_points(g)
    assert poset.volume == len(box)
    # box is the mixed-radix position, injective, and at inverts it
    assert poset.box == tuple(mixed_radix(a, g) for a in pts)
    assert len(set(poset.box)) == len(pts)
    assert poset.at == {p: i for i, p in enumerate(poset.box)}
    for j in range(n):
        assert len(poset.digit[j]) == g[j] + 1
        for e in range(g[j] + 1):
            assert poset.digit[j][e] == bit_set(
                mixed_radix(c, g) for c in box if c[j] == e)
    # below[j] and above_zero[j] keep one step along coordinate j from
    # wrapping: the step lands on the position of a -+ e_j exactly when that
    # point exists
    for j in range(n):
        assert poset.below[j] == bit_set(
            mixed_radix(c, g) for c in box if c[j] < g[j])
        assert poset.above_zero[j] == bit_set(
            mixed_radix(c, g) for c in box if c[j] > 0)
    region = bit_set(mixed_radix(a, g) for a in pts)
    for a in pts:
        single = 1 << mixed_radix(a, g)
        for j, s in enumerate(poset.stride):
            for step, shifted in ((-1, single >> s & poset.below[j]),
                                  (1, single << s & poset.above_zero[j])):
                b = a[:j] + (a[j] + step,) + a[j + 1:]
                expected = 1 << mixed_radix(b, g) if b in pts else 0
                assert shifted & region == expected
    for i, a in enumerate(pts):
        assert poset.rho[i] == sum(1 for x, gi in zip(a, g) if x == gi)


def hasse_components(region_pts) -> list[set]:
    """Connected parts of a set of points under cover links, by search."""
    left, parts = set(region_pts), []
    while left:
        part, stack = set(), [next(iter(left))]
        while stack:
            a = stack.pop()
            if a in left:
                left.discard(a)
                part.add(a)
                stack.extend(b for b in left if sum(map(abs, map(sub, a, b))) == 1)
        parts.append(part)
    return parts


@given(row_lists(max_exp=2, nonzero=True, max_vars=5), st.data())
@settings(max_examples=150, deadline=None)
def test_region_operations_match_brute_force(rows, data):
    poset = char_poset(ideal_of(naive_minimal(rows)))
    pts, g = poset.points, poset.g

    def region_of(points):
        return bit_set(mixed_radix(a, g) for a in points)

    ids = data.draw(st.sets(st.integers(0, len(pts) - 1)))
    region = poset.mask(ids)
    chosen = {pts[i] for i in ids}
    assert region == region_of(chosen)
    ups = {a for a in box_points(g)
           if any(leq(a, b) and sum(b) == sum(a) + 1 for b in chosen)}
    downs = {a for a in box_points(g)
             if any(leq(b, a) and sum(b) == sum(a) - 1 for b in chosen)}
    assert poset.has_up(region) == region_of(ups)
    assert poset.has_down(region) == region_of(downs)
    # minimal within the region: no lower cover in it
    assert poset.minimal(region) == sorted(
        i for i in ids if not region_of([pts[i]]) & region_of(downs))
    parts = poset.components(region)
    expected = hasse_components(chosen)
    # parts come in (degree, lex) order of their first points
    expected.sort(key=lambda part: min((sum(a), a) for a in part))
    assert parts == [region_of(part) for part in expected]
    a = pts[data.draw(st.integers(0, len(pts) - 1))]
    b = data.draw(st.sampled_from([c for c in box_points(g) if leq(a, c)]))
    assert poset.cube(a, b) == region_of(
        c for c in box_points(g) if leq(a, c) and leq(c, b))
    # the up-set of a in the box, which the search reads tops from
    assert poset.cube(a, g) == region_of(c for c in box_points(g) if leq(a, c))


@given(row_lists(max_exp=2, max_vars=5))
@settings(max_examples=200, deadline=None)
def test_char_poset_points_match_box_filtered_by_divisibility(rows):
    # rows may repeat, divide one another or be the unit row
    ideal = ideal_of(rows)
    if not all(any(r) for r in rows):
        with pytest.raises(ParameterError, match="needs a proper ideal"):
            char_poset(ideal)
        return
    g = tuple(map(max, zip(*naive_minimal(rows))))
    volume = len(box_points(g))
    with pytest.raises(ResourceCapError,
                       match=re.escape(f"box exceeds cap ({volume} > {volume - 1})")):
        char_poset(ideal, cap=volume - 1)
    outside = [a for a in box_points(g) if not any(leq(r, a) for r in rows)]
    poset = char_poset(ideal, cap=volume)
    assert poset.g == g
    assert poset.points == tuple(sorted(outside, key=lambda a: (sum(a), a)))


def fresh_poset_cache(monkeypatch, points=None) -> OrderedDict:
    monkeypatch.setattr(sdepth_mod, "_poset_cache", sdepth_mod._Lru(len))
    if points is not None:
        monkeypatch.setattr(sdepth_mod, "_POSET_CACHE_POINTS", points)
    return sdepth_mod._poset_cache.entries


def test_equal_ideals_share_one_cached_poset(monkeypatch):
    cache = fresh_poset_cache(monkeypatch)
    first = char_poset(family_ideal("caterpillar", (2, 2, 2), 2))
    assert char_poset(family_ideal("caterpillar", (2, 2, 2), 2)) is first
    assert len(cache) == 1
    # the same rows over other variable names are another poset
    names = VariableSet(tuple(f"y{i}" for i in range(len(first.g))))
    renamed = char_poset(MonomialIdeal(
        names, family_ideal("caterpillar", (2, 2, 2), 2).rows))
    assert renamed is not first
    assert renamed.ambient == names and renamed.points == first.points
    assert len(cache) == 2


def test_cache_hit_still_applies_the_checks(monkeypatch):
    cache = fresh_poset_cache(monkeypatch)
    ideal = family_ideal("caterpillar", (2, 2, 2), 2)
    poset = char_poset(ideal)
    volume = poset.volume
    with pytest.raises(ResourceCapError,
                       match=re.escape(f"box exceeds cap ({volume} > {volume - 1})")):
        char_poset(ideal, cap=volume - 1)
    monkeypatch.setenv("TREEDEPTH_CAP", str(volume - 1))
    with pytest.raises(ResourceCapError):
        char_poset(ideal)
    monkeypatch.delenv("TREEDEPTH_CAP")
    assert char_poset(ideal, cap=volume) is poset
    # a poset planted under an improper ideal's key is never reached
    amb = VariableSet(("x", "y"))
    unit = MonomialIdeal(amb, [(0, 0)])
    cache[(unit.ambient, unit.rows)] = poset
    with pytest.raises(ParameterError, match="needs a proper ideal"):
        char_poset(unit)


def test_poset_cache_stays_under_its_points_bound(monkeypatch):
    cache = fresh_poset_cache(monkeypatch, points=200)

    def held():
        return sum(map(len, cache.values()))

    a = char_poset(family_ideal("caterpillar", (2, 2, 2), 2))  # 50 points
    b = char_poset(family_ideal("caterpillar", (3, 2, 1), 2))  # 131 points
    assert held() == 181
    assert char_poset(family_ideal("caterpillar", (2, 2, 2), 2)) is a
    # 22 more points evict b, the least recently used, and keep a
    char_poset(family_ideal("caterpillar", (3, 2, 2), 1))
    assert held() == 72
    assert char_poset(family_ideal("caterpillar", (2, 2, 2), 2)) is a
    assert char_poset(family_ideal("caterpillar", (3, 2, 1), 2)) is not b
    for _ in range(2):
        for params in ((2, 2, 2), (3, 2, 2), (3, 2, 1), (2, 2, 1)):
            for t in (1, 2):
                poset = char_poset(family_ideal("caterpillar", params, t))
                assert held() <= 200
                # P322^2 has 288 points and is never kept
                kept = cache[next(reversed(cache))] is poset
                assert kept == (len(poset) <= 200)


def test_poset_above_the_bound_is_returned_but_not_kept(monkeypatch):
    cache = fresh_poset_cache(monkeypatch, points=100)
    small = char_poset(family_ideal("caterpillar", (2, 2, 2), 2))  # 50 points
    ideal = family_ideal("caterpillar", (3, 2, 1), 2)  # 131 points
    big = char_poset(ideal)
    assert len(big) == 131
    assert list(cache.values()) == [small]
    again = char_poset(ideal)
    assert again is not big and again.points == big.points


@given(row_lists(max_exp=2, nonzero=True, max_vars=5))
@settings(max_examples=150, deadline=None)
def test_cached_poset_equals_a_cold_build(rows):
    gens = naive_minimal(rows)
    warm = char_poset(ideal_of(gens))
    for d in range(len(warm.g) + 1):  # searches only read the shared poset
        try:
            sdepth_at_least(warm, d, max_nodes=50)
        except ResourceCapError:
            pass
    assert char_poset(ideal_of(gens)) is warm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdepth_mod, "_poset_cache", sdepth_mod._Lru(len))
        cold = char_poset(ideal_of(gens))
    assert cold is not warm
    for name in CharPoset.__slots__:
        assert getattr(warm, name) == getattr(cold, name), name


@given(row_lists(max_exp=2, nonzero=True, max_vars=4), st.integers(-1, 5),
       st.sampled_from([None, 2, 40]))
@settings(max_examples=100, deadline=None)
def test_sdepth_result_hit_equals_a_cold_call(rows, start, max_nodes):
    ideal = ideal_of(naive_minimal(rows))

    def call():
        try:
            return sdepth_quotient(ideal, start=start, max_nodes=max_nodes)
        except ResourceCapError:
            return None

    calls = [call(), call()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdepth_mod, "_result_cache",
                   sdepth_mod._Lru(sdepth_mod._result_cache.size))
        cold = call()
    if cold is None:
        assert calls == [None, None]
        return
    first, hit = calls
    assert hit is first
    assert hit[0] == cold[0]
    assert hit[1].to_json() == cold[1].to_json()
    assert hit[1].refuted_by == cold[1].refuted_by


def test_sdepth_result_key_clamps_start(fresh_result_cache):
    ideal = family_ideal("caterpillar", (2, 2, 2), 2)  # 4 variables
    first = sdepth_quotient(ideal)
    assert sdepth_quotient(ideal, start=0) is first
    assert sdepth_quotient(ideal, start=-3) is first
    top = sdepth_quotient(ideal, start=4)
    assert sdepth_quotient(ideal, start=9) is top
    assert sdepth_quotient(ideal, max_nodes=10 ** 6) is not first
    assert len(fresh_result_cache.entries) == 3


def test_capped_sdepth_keeps_nothing_and_caps_again(fresh_result_cache):
    ideal = family_ideal("caterpillar", (2, 2, 2), 2)  # sdepth 1
    for _ in range(2):
        with pytest.raises(ResourceCapError, match="node cap"):
            sdepth_quotient(ideal, start=2, max_nodes=1)
    assert not fresh_result_cache.entries
    assert fresh_result_cache.info()["misses"] == 2
    # the same start with room to finish answers, and is kept
    assert sdepth_quotient(ideal, start=2)[0] == 1
    assert len(fresh_result_cache.entries) == 1
    # and the answer kept without a cap does not answer a capped call
    with pytest.raises(ResourceCapError, match="node cap"):
        sdepth_quotient(ideal, start=2, max_nodes=1)


def test_sdepth_result_cache_stays_under_its_bound(monkeypatch, fresh_result_cache):
    monkeypatch.setattr(sdepth_mod, "_POSET_CACHE_POINTS", 12)
    cache = fresh_result_cache.entries

    def held():
        return sum(len(cert.intervals) for _, cert in cache.values())

    for _ in range(2):
        for params, t in (((2, 2, 2), 2), ((2, 2, 1), 2), ((3, 2, 2), 1),
                          ((3, 2, 1), 2), ((2, 2, 2), 1)):
            found = sdepth_quotient(family_ideal("caterpillar", params, t))
            assert held() <= 12
            # P321^2's certificate has 10 intervals and is kept
            kept = cache[next(reversed(cache))] is found
            assert kept == (len(found[1].intervals) <= 12)
    assert fresh_result_cache.info()["evictions"] > 0


def test_threads_asking_for_one_key_get_one_result(fresh_result_cache):
    ideal = family_ideal("lobster", (3, 2, 2))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(sdepth_quotient, ideal, start=1)
                       for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(r is results[0] for r in results)
    assert results[0][0] == 3
    assert len(fresh_result_cache.entries) == 1
    info = fresh_result_cache.info()
    assert info["hits"] + info["misses"] == 4


def test_cache_info_counts_a_hit_in_every_cache():
    ideal = family_ideal("caterpillar", (2, 2, 2), 2)

    def ask():
        compare("caterpillar", (2, 2, 2), 2)
        char_poset(ideal)
        sdepth_quotient(ideal)
        depth_quotient(ideal)

    ask()
    before = cache_info()
    ask()
    after = cache_info()
    for name in ("poset", "sdepth", "stats", "depth"):
        assert after[name]["hits"] > before[name]["hits"], name
        assert after[name]["misses"] == before[name]["misses"], name
        assert after[name]["size"] == before[name]["size"] > 0, name


def test_char_poset_is_read_only():
    poset = char_poset(family_ideal("caterpillar", (2, 2, 2), 2))
    for name in CharPoset.__slots__:
        with pytest.raises(AttributeError, match="read-only"):
            setattr(poset, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(poset, name)
    with pytest.raises(AttributeError):
        poset.extra = 1
    with pytest.raises(TypeError):
        poset.at[0] = 0
    for name in ("g", "points", "stride", "box", "digit", "below",
                 "above_zero", "rho"):
        assert isinstance(getattr(poset, name), tuple), name
    assert all(isinstance(dj, tuple) for dj in poset.digit)


def partition_exists(points, g, d) -> bool:
    """Exhaustive search for a partition of ``points`` into intervals whose
    tops have at least d coordinates at the cap g."""
    memo = {}

    def rec(left):
        if not left:
            return True
        if left not in memo:
            # a point of least degree is minimal, so it bottoms its interval
            p = min(left, key=lambda a: (sum(a), a))
            memo[left] = False
            for b in left:
                if leq(p, b) and sum(1 for y, gi in zip(b, g) if y == gi) >= d:
                    block = set(product(*(range(x, y + 1) for x, y in zip(p, b))))
                    if block <= left and rec(left - block):
                        memo[left] = True
                        break
        return memo[left]

    return rec(frozenset(points))


@given(row_lists(max_exp=2, nonzero=True, max_vars=5))
@settings(max_examples=300, deadline=None)
def test_sdepth_search_matches_exhaustive_partitions(rows):
    poset = char_poset(ideal_of(rows))
    assume(len(poset) <= 16)
    for d in range(len(poset.g) + 1):
        cert = sdepth_at_least(poset, d)
        assert (cert is not None) == partition_exists(poset.points, poset.g, d)
        if cert is not None:
            assert verify_certificate(poset, cert)


def check_sdepth_quotient(ideal, start) -> int:
    """sdepth_quotient against the plain ascending search and the verifier,
    and its refutation of value + 1 against the colon by the witness u,
    searched in the colon's own box and, where that poset is small, by the
    exhaustive oracle.  Returns the value.  A few squares of edge ideals
    on 5 or 6 vertices hold a search of many thousand nodes, as P233^2
    does; an example where either search caps at 2000 nodes is skipped."""
    poset = char_poset(ideal)
    try:
        value, cert = sdepth_quotient(ideal, start=min(start, len(poset.g)),
                                      max_nodes=2000)
    except ResourceCapError:
        assume(False)
    plain = plain_sdepth(ideal, 0, 2000)
    assume(plain is not None)
    assert value == plain == cert.claimed_d
    assert verify_certificate(poset, cert)
    colon_poset = recheck_refutation(ideal, value, cert)
    if colon_poset is not None and len(colon_poset) <= 16:
        assert not partition_exists(colon_poset.points, colon_poset.g, value + 1)
    return value


@given(row_lists(max_exp=2, nonzero=True, max_vars=5), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_sdepth_quotient_matches_exhaustive_partitions(rows, start):
    poset = char_poset(ideal_of(rows))
    assume(len(poset) <= 16)
    assert check_sdepth_quotient(ideal_of(rows), start) == max(
        d for d in range(len(poset.g) + 1)
        if partition_exists(poset.points, poset.g, d))


@st.composite
def edge_ideal_squares(draw):
    """Rows of I(G)^2 for a graph G on at most 6 vertices.  Up-set probes
    fire only where the whole-poset search does not settle at its root,
    which squares of edge ideals reach at a few dozen points already; on
    posets of at most 16 points they never do."""
    n = draw(st.integers(3, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, min_size=1, max_size=7))
    rows = [tuple(int(j in e) for j in range(n)) for e in edges]
    return ideal_power(ideal_of(rows), 2).rows


@given(edge_ideal_squares(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_sdepth_quotient_matches_plain_search_on_squares(rows, start):
    check_sdepth_quotient(ideal_of(rows), start)


def all_pairs_diameter(graph) -> int:
    """Largest finite distance over every pair of vertices."""
    adj = graph.adjacency()
    far = 0
    for start in graph.vertices:
        dist, frontier = {start: 0}, [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        far = max(far, max(dist.values()))
    return far


@st.composite
def graphs(draw):
    """A forest (each vertex joins an earlier one or starts a new tree),
    sometimes with extra edges that close cycles."""
    n = draw(st.integers(1, 14))
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1)))
        if parent is not None:
            edges.append((names[parent], names[i]))
    if n > 1:
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda e: e[0] != e[1]), max_size=4))
        edges += [(names[a], names[b]) for a, b in extra]
    return Graph.from_edges(names, edges)


@given(graphs())
@settings(max_examples=500, deadline=None)
def test_graph_stats_diameter_matches_all_pairs(graph):
    assert graph_stats(graph).diameter == all_pairs_diameter(graph)


def test_graph_stats_diameter_on_fixed_shapes():
    single = Graph.from_edges(["a"], [])
    isolated = Graph.from_edges(["a", "b", "c"], [])
    path_and_point = Graph.from_edges(["a", "b", "c", "d", "e"],
                                      [("a", "b"), ("b", "c"), ("c", "d")])
    cycle = Graph.from_edges(["a", "b", "c", "d", "e"],
                             [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    for graph, diameter in ((single, 0), (isolated, 0), (path_and_point, 3), (cycle, 2)):
        assert graph_stats(graph).diameter == all_pairs_diameter(graph) == diameter
