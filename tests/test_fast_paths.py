"""Differential tests for the minimalization kernel, the depth engine's
fast paths and the characteristic poset's order structure.

Inputs are random ideals of mixed degree: edge ideals and their powers have
generators of a single degree, so they never reach the kernel's
lower-degree tests or the colon's pruning.  The oracles below are written
out in full and share no code with the kernel.
"""

from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from treedepth import (Monomial, MonomialIdeal, VariableSet, char_poset,
                       depth_oracle_hochster, depth_quotient, depth_via_betti,
                       ideal_power)
from treedepth import depth as depth_mod
from treedepth.monomials import minimal_rows
from conftest import family_ideal


def naive_minimal(rows) -> tuple:
    """All-pairs divisibility filter, sorted by (degree, row)."""
    rows = set(rows)
    kept = [r for r in rows
            if not any(s != r and all(a <= b for a, b in zip(s, r)) for s in rows)]
    return tuple(sorted(kept, key=lambda r: (sum(r), r)))


def ideal_of(rows) -> MonomialIdeal:
    amb = VariableSet(tuple(f"x{i}" for i in range(len(rows[0]))))
    return MonomialIdeal(amb, [Monomial(amb, r) for r in rows])


@st.composite
def row_lists(draw, max_exp=3, max_rows=8, nonzero=False, max_vars=6):
    n = draw(st.integers(1, max_vars))
    row = st.tuples(*[st.integers(0, max_exp)] * n)
    if nonzero:
        row = row.filter(any)
    return draw(st.lists(row, min_size=1, max_size=max_rows))


@given(row_lists(max_rows=12))
@settings(max_examples=300, deadline=None)
def test_minimal_rows_matches_all_pairs(rows):
    assert minimal_rows(rows) == naive_minimal(rows)


@given(row_lists(nonzero=True, max_rows=12))
@settings(max_examples=200, deadline=None)
def test_colon_rows_matches_naive_colon(rows):
    gens = naive_minimal(rows)
    for i in range(len(gens[0])):
        lowered = [r[:i] + (r[i] - 1,) + r[i + 1:] if r[i] else r for r in gens]
        assert depth_mod._colon_rows(gens, i) == naive_minimal(lowered)


@given(row_lists(nonzero=True, max_rows=6), st.sampled_from([2, 3]))
@settings(max_examples=150, deadline=None)
def test_ideal_power_matches_naive_products(rows, t):
    gens = naive_minimal(rows)
    products = [tuple(map(sum, zip(*combo)))
                for combo in combinations_with_replacement(gens, t)]
    power = ideal_power(ideal_of(gens), t)
    assert tuple(g.exponents for g in power.gens) == naive_minimal(products)


@given(row_lists(nonzero=True, max_rows=6))
@settings(max_examples=150, deadline=None)
def test_depth_quotient_matches_betti_route(rows):
    # depth_quotient gets the raw, possibly non-minimal generators
    expected = depth_via_betti(ideal_of(naive_minimal(rows))).depth
    assert depth_quotient(ideal_of(rows)).depth == expected


@given(row_lists(max_exp=1, nonzero=True, max_rows=10))
@settings(max_examples=150, deadline=None)
def test_depth_quotient_matches_hochster_on_squarefree(rows):
    ideal = ideal_of(naive_minimal(rows))
    assert depth_quotient(ideal).depth == depth_oracle_hochster(ideal).depth


def test_depth_quotient_splits_free_variables_and_components():
    # components {x0, x1, x3}, {x4, x6} and {x7}; x2 and x5 are free
    rows = [(1, 1, 0, 0, 0, 0, 0, 0), (0, 2, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 2, 0, 0, 0), (0, 0, 0, 0, 1, 0, 1, 0),
            (0, 0, 0, 0, 0, 0, 0, 3)]
    ideal = ideal_of(rows)
    assert depth_quotient(ideal).depth == depth_via_betti(ideal).depth == 3


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


@given(row_lists(max_exp=2, nonzero=True, max_vars=5))
@settings(max_examples=150, deadline=None)
def test_char_poset_structure_matches_brute_force(rows):
    poset = char_poset(ideal_of(naive_minimal(rows)))
    pts, g = poset.points, poset.g
    assert len(poset.index) == len(pts)
    assert all(pts[poset.index[a]] == a for a in pts)
    for i, a in enumerate(pts):
        # b covers a exactly when a < b and b is one degree higher
        above = [j for j, b in enumerate(pts) if leq(a, b) and sum(b) == sum(a) + 1]
        below = [j for j, b in enumerate(pts) if leq(b, a) and sum(b) == sum(a) - 1]
        assert sorted(poset.ups[i]) == above
        assert sorted(poset.downs[i]) == below
        assert poset.rho[i] == sum(1 for x, gi in zip(a, g) if x == gi)
        for j, b in enumerate(pts):
            assert (not poset.packed[i] & ~poset.packed[j]) == leq(a, b)
