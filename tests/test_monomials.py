import copy
import json
import pickle
import time
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedepth import (AmbientMismatchError, CharPoset, Monomial,
                       MonomialIdeal, ParameterError, ResourceCapError,
                       UnknownVariableError, VariableSet, build_caterpillar,
                       build_lobster, char_poset, colon, depth_quotient,
                       edge_ideal, ideal_power, lcm_lattice, minimalize,
                       polarize, restrict, sdepth_quotient, sum_with_vars)
from conftest import family_ideal, mk_ideal
from test_fast_paths import naive_minimal


def brute_minimal(monomials):
    """Independent oracle: pairwise divisibility filter."""
    out = []
    for m in set(monomials):
        if not any(o != m and o.divides(m) for o in set(monomials)):
            out.append(m)
    return sorted(out)


# ---------------------------------------------------------------------------
# minimalize
# ---------------------------------------------------------------------------

def test_minimalize_divisibility():
    ideal = mk_ideal(("x", "y"), {"x": 1}, {"x": 1, "y": 1})
    assert [g.to_dict() for g in ideal.gens] == [{"x": 1}]


def test_minimalize_keeps_antichain():
    ideal = mk_ideal(("x", "y", "z"), {"x": 1, "y": 1}, {"y": 1, "z": 1},
                     {"x": 1, "z": 1})
    assert len(ideal.gens) == 3


def test_minimalize_pairwise_products_of_p22(p22_ideal):
    # oracle: brute-force divisibility filter over all pairwise products
    products = [a.times(b) for a, b in
                combinations_with_replacement(p22_ideal.gens, 2)]
    oracle = brute_minimal(products)
    assert len(oracle) == 6  # frozen from the oracle
    assert list(minimalize(products).gens) == oracle


def test_minimalize_rejects_mixed_ambients():
    a = Monomial.from_dict(VariableSet(("x",)), {"x": 1})
    b = Monomial.from_dict(VariableSet(("y",)), {"y": 1})
    with pytest.raises(AmbientMismatchError):
        minimalize([a, b])


@st.composite
def gen_sets(draw):
    nvars = draw(st.integers(2, 4))
    ambient = VariableSet(tuple(f"x{i}" for i in range(nvars)))
    k = draw(st.integers(1, 6))
    gens = [Monomial(ambient, draw(st.tuples(*[st.integers(0, 3)] * nvars)))
            for _ in range(k)]
    return [g for g in gens if not g.is_one()] or [Monomial(ambient, (1,) * nvars)]


@given(gen_sets())
@settings(max_examples=60, deadline=None)
def test_minimalize_idempotent_and_order_independent(gens):
    first = minimalize(gens)
    assert minimalize(first.gens) == first
    assert minimalize(list(reversed(gens))) == first
    # output is an antichain generating the same ideal
    for g in first.gens:
        assert not any(h != g and h.divides(g) for h in first.gens)
    for g in gens:
        assert first.contains(g)


@st.composite
def redundant_rows(draw):
    """Row lists with repeats, multiples of earlier rows and sometimes the
    unit row, in any order."""
    n = draw(st.integers(1, 5))
    row = st.tuples(*[st.integers(0, 2)] * n)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for r in draw(st.lists(st.sampled_from(rows), max_size=5)):
        # a repeat when the shift is zero, a proper multiple otherwise
        rows.append(tuple(map(sum, zip(r, draw(row)))))
    if draw(st.integers(0, 3)) == 0:
        rows.append((0,) * n)
    return draw(st.permutations(rows))


@given(redundant_rows())
@settings(max_examples=200, deadline=None)
def test_constructor_keeps_only_the_minimal_rows(rows):
    amb = VariableSet(tuple(f"x{i}" for i in range(len(rows[0]))))
    ideal = MonomialIdeal(amb, rows)
    minimal = naive_minimal(rows)
    assert ideal.rows == minimal
    assert ideal == minimalize([Monomial(amb, r) for r in rows], ambient=amb)
    if ideal.is_proper():
        assert char_poset(ideal) is char_poset(MonomialIdeal(amb, minimal))


@pytest.mark.parametrize("rows", [
    [(1,)], [(1, 0, 0)], [(1, -1)],
    # each bad row below is divided by a good one, so it must be refused
    # before minimalization would drop it
    [(0, 0), (1,)], [(1, 0), (1, 0, 5)], [(1, 1), (0, -1)],
])
def test_constructor_refuses_bad_rows(rows):
    with pytest.raises(ParameterError):
        MonomialIdeal(VariableSet(("x", "y")), rows)


# ---------------------------------------------------------------------------
# edge ideals
# ---------------------------------------------------------------------------

def test_edge_ideal_single_edge():
    from treedepth import Graph
    ideal = edge_ideal(Graph.from_edges(["x", "y"], [("x", "y")]))
    assert [g.to_dict() for g in ideal.gens] == [{"x": 1, "y": 1}]


def test_edge_ideal_generator_counts():
    assert len(edge_ideal(build_caterpillar(4, 7, 5)).gens) == 25
    assert len(edge_ideal(build_lobster(8, 4, 2)).gens) == 38


def test_edge_ideal_edgeless_graph_is_zero():
    from treedepth import Graph
    ideal = edge_ideal(Graph.from_edges(["x", "y"], []))
    assert ideal.is_zero()


def test_membership_primitive(p22_ideal):
    amb = p22_ideal.ambient
    assert p22_ideal.contains(Monomial.from_dict(amb, {"u1": 2, "u2": 1}))
    assert not p22_ideal.contains(Monomial.from_dict(amb, {"u1": 1, "y1_2": 5}))


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def test_power_of_principal_ideal():
    ideal = mk_ideal(("x", "y"), {"x": 1, "y": 1})
    cube = ideal_power(ideal, 3)
    assert [g.to_dict() for g in cube.gens] == [{"x": 3, "y": 3}]


def test_power_one_is_identity(p22_ideal):
    assert ideal_power(p22_ideal, 1) == p22_ideal


def test_power_two_of_p22(p22_ideal):
    square = ideal_power(p22_ideal, 2)
    assert len(square.gens) == 6
    products = brute_minimal([a.times(b) for a, b in
                              combinations_with_replacement(p22_ideal.gens, 2)])
    assert list(square.gens) == products


def test_power_raises_past_deadline(p22_ideal):
    with pytest.raises(ResourceCapError):
        ideal_power(p22_ideal, 2, deadline=time.monotonic() - 1)


def test_power_rejects_bad_exponent(p22_ideal):
    with pytest.raises(ParameterError):
        ideal_power(p22_ideal, 0)


@pytest.mark.parametrize("family,params", [("caterpillar", (2, 3, 2)),
                                           ("lobster", (2, 2, 1))])
def test_power_addition_law(family, params):
    ideal = family_ideal(family, params)
    lhs = ideal_power(ideal, 3)
    a, b = ideal_power(ideal, 1), ideal_power(ideal, 2)
    products = [x.times(y) for x in a.gens for y in b.gens]
    assert minimalize(products) == lhs


# ---------------------------------------------------------------------------
# colon, sum, restrict
# ---------------------------------------------------------------------------

def test_colon_exponent_subtraction():
    ideal = mk_ideal(("x", "y"), {"x": 2, "y": 1})
    out = colon(ideal, Monomial.from_dict(ideal.ambient, {"x": 1}))
    assert [g.to_dict() for g in out.gens] == [{"x": 1, "y": 1}]


def test_colon_by_member_is_unit(p22_ideal):
    out = colon(p22_ideal, p22_ideal.gens[0])
    assert not out.is_proper()
    assert out.gens[0].is_one()


def test_colon_pendant_edge_recovers_lower_power(p22_ideal):
    # leaf y1_1 with stem u1
    edge = Monomial.from_dict(p22_ideal.ambient, {"u1": 1, "y1_1": 1})
    assert colon(ideal_power(p22_ideal, 2), edge) == p22_ideal


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_colon_membership_characterization(data):
    gens = data.draw(gen_sets())
    ideal = minimalize(gens)
    amb = ideal.ambient
    w = Monomial(amb, data.draw(st.tuples(*[st.integers(0, 2)] * len(amb))))
    quotient = colon(ideal, w)
    m = Monomial(amb, data.draw(st.tuples(*[st.integers(0, 2)] * len(amb))))
    assert quotient.contains(m) == ideal.contains(m.times(w))


def test_sum_with_vars_absorbs():
    ideal = mk_ideal(("x", "y", "z"), {"x": 1, "y": 1}, {"y": 1, "z": 1})
    out = sum_with_vars(ideal, ["y"])
    assert [g.to_dict() for g in out.gens] == [{"y": 1}]


def test_sum_with_vars_appends():
    ideal = mk_ideal(("x", "y", "z"), {"x": 1, "y": 1})
    out = sum_with_vars(ideal, ["z"])
    assert [g.to_dict() for g in out.gens] == [{"z": 1}, {"x": 1, "y": 1}]


def test_restrict_drops_touching_generators():
    ideal = mk_ideal(("x", "y", "z"), {"x": 1, "y": 1}, {"y": 1, "z": 1},
                     {"x": 1, "z": 1})
    out = restrict(ideal, "y")
    assert [g.to_dict() for g in out.gens] == [{"x": 1, "z": 1}]
    assert out.ambient == ideal.ambient  # y stays as a free variable


def test_restrict_untouched_and_unknown():
    ideal = mk_ideal(("x", "y", "z"), {"x": 1, "y": 1})
    assert restrict(ideal, "z") == ideal
    with pytest.raises(UnknownVariableError):
        restrict(ideal, "w")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_is_setting_the_variable_to_zero(data):
    ideal = minimalize(data.draw(gen_sets()))
    amb = ideal.ambient
    i = data.draw(st.integers(0, len(amb) - 1))
    minor = restrict(ideal, amb.names[i])
    # a subset of a minimal generating set needs no minimalizing
    assert minor == minimalize([g for g in ideal.gens if not g.exponents[i]],
                               ambient=amb)
    exps = data.draw(st.tuples(*[st.integers(0, 2)] * len(amb)))
    zeroed = exps[:i] + (0,) + exps[i + 1:]
    assert minor.contains(Monomial(amb, exps)) == ideal.contains(Monomial(amb, zeroed))


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------

def test_polarize_textbook_square():
    ideal = mk_ideal(("x",), {"x": 2})
    squarefree, shift = polarize(ideal)
    assert shift == 1
    assert squarefree.ambient.names == ("x", "x~1")
    assert [g.to_dict() for g in squarefree.gens] == [{"x": 1, "x~1": 1}]


def test_polarize_squarefree_unchanged(p22_ideal):
    squarefree, shift = polarize(p22_ideal)
    assert shift == 0
    assert squarefree == p22_ideal


def test_polarize_two_variables():
    ideal = mk_ideal(("x", "y"), {"x": 2, "y": 1}, {"y": 2})
    squarefree, shift = polarize(ideal)
    assert shift == 2
    assert squarefree.ambient.names == ("x", "y", "x~1", "y~1")
    assert [g.to_dict() for g in squarefree.gens] == [
        {"y": 1, "y~1": 1}, {"x": 1, "x~1": 1, "y": 1}]


# ---------------------------------------------------------------------------
# lcm lattice
# ---------------------------------------------------------------------------

def test_lattice_two_generators():
    rows = [(1, 1, 0), (0, 1, 1)]
    assert lcm_lattice(rows) == ((0, 1, 1), (1, 1, 0), (1, 1, 1))


def test_lattice_triangle():
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert len(lcm_lattice(rows)) == 4


@given(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_lattice_matches_subset_enumeration(rows):
    # oracle: the lcm of every nonempty subset of the rows
    seen = set()
    for size in range(1, len(rows) + 1):
        for combo in combinations(rows, size):
            seen.add(tuple(max(column) for column in zip(*combo)))
    lattice = lcm_lattice(rows)
    assert set(lattice) == seen and len(lattice) == len(seen)
    assert list(lattice) == sorted(lattice, key=lambda r: (sum(r), r))


def test_lattice_of_no_rows_is_refused():
    with pytest.raises(ParameterError):
        lcm_lattice([])


def test_lattice_cap_fires():
    ideal = family_ideal("caterpillar", (3, 3, 3))
    with pytest.raises(ResourceCapError):
        lcm_lattice(ideal.rows, cap=10)


def test_lattice_cap_env_override(monkeypatch, p22_ideal):
    rows = p22_ideal.rows
    monkeypatch.setenv("TREEDEPTH_CAP", "3")
    with pytest.raises(ResourceCapError):
        lcm_lattice(rows)
    monkeypatch.setenv("TREEDEPTH_CAP", "100")
    assert len(lcm_lattice(rows)) == 6


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_ideal_json_round_trip(p22_ideal):
    square = ideal_power(p22_ideal, 2)
    text = square.to_json()
    obj = json.loads(text)
    assert obj["vars"] == list(square.ambient.names)
    degrees = [sum(d.values()) for d in obj["gens"]]
    assert degrees == sorted(degrees)  # sorted by (degree, exponents)
    back = MonomialIdeal.from_json(text)
    assert back == square
    assert back.to_json() == text


def test_values_survive_pickle_and_copy(p22_ideal):
    square = ideal_power(p22_ideal, 2)
    poset = char_poset(square)
    _value, cert = sdepth_quotient(square)
    values = [square.ambient, square.gens[0], square, cert, depth_quotient(square)]
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        for value in values:
            assert clone(value) == value
        rebuilt = clone(poset)
        assert rebuilt is not poset
        for field in CharPoset.__slots__:
            assert getattr(rebuilt, field) == getattr(poset, field), field
        with pytest.raises(AttributeError):
            rebuilt.g = ()
