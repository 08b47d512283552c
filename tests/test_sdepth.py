import sys
from dataclasses import replace

import pytest

from treedepth import (Monomial, MonomialIdeal, ParameterError,
                       ResourceCapError, StanleyCertificate, VariableSet,
                       char_poset, depth_quotient, disjoint_sum,
                       extend_ambient, ideal_power, minimalize,
                       sdepth_at_least, sdepth_quotient, verify_certificate)
from conftest import family_ideal, mk_ideal


def principal_xy():
    return mk_ideal(("x", "y"), {"x": 1, "y": 1})


# ---------------------------------------------------------------------------
# the characteristic poset
# ---------------------------------------------------------------------------

def test_poset_of_principal_edge():
    poset = char_poset(principal_xy())
    assert poset.g == (1, 1)
    assert set(poset.points) == {(0, 0), (1, 0), (0, 1)}


def test_poset_cap_is_squarefree_for_edge_ideals(p22_ideal):
    poset = char_poset(p22_ideal)
    assert poset.g == (1,) * 4


def test_poset_cap_of_square(p22_ideal):
    square = ideal_power(p22_ideal, 2)
    poset = char_poset(square)
    # every variable reaches exponent 2 among the six degree-4 generators
    assert poset.g == tuple(max(g.exponents[i] for g in square.gens)
                            for i in range(4))
    assert poset.g == (2, 2, 2, 2)


def test_poset_contains_origin_and_respects_membership(p22_ideal):
    poset = char_poset(p22_ideal)
    assert (0, 0, 0, 0) in poset.points
    for point in poset.points:
        assert not p22_ideal.contains(Monomial(p22_ideal.ambient, point))


def test_poset_box_cap():
    ideal = family_ideal("caterpillar", (3, 3, 3), t=2)  # box 3^9
    with pytest.raises(ResourceCapError):
        char_poset(ideal, cap=1000)


def test_poset_env_cap(monkeypatch, p22_ideal):
    monkeypatch.setenv("TREEDEPTH_CAP", "8")
    with pytest.raises(ResourceCapError):
        char_poset(p22_ideal)


def test_poset_rejects_unit_ideal():
    amb = VariableSet(("x",))
    with pytest.raises(ParameterError):
        char_poset(minimalize([Monomial.one(amb)]))


# ---------------------------------------------------------------------------
# feasibility decisions and certificates
# ---------------------------------------------------------------------------

def test_principal_edge_interval_partition():
    poset = char_poset(principal_xy())
    cert = sdepth_at_least(poset, 1)
    assert cert is not None
    assert verify_certificate(poset, cert)
    assert sdepth_at_least(poset, 2) is None


def test_zero_target_uses_singletons(p22_ideal):
    poset = char_poset(p22_ideal)
    cert = sdepth_at_least(poset, 0)
    assert cert.claimed_d == 0
    assert len(cert.intervals) == len(poset.points)
    assert verify_certificate(poset, cert)


def test_paper_value_s42():
    ideal = family_ideal("lobster", (4, 2, 2))
    poset = char_poset(ideal)
    cert = sdepth_at_least(poset, 4)
    assert cert is not None and verify_certificate(poset, cert)
    assert sdepth_at_least(poset, 5) is None


@pytest.mark.parametrize("family,params,start,expected", [
    ("caterpillar", (5, 3, 3), 7, 7),
    ("lobster", (4, 2, 2), 4, 4),
    ("lobster", (5, 2, 2), 5, 5),
])
def test_paper_sdepth_values(family, params, start, expected):
    ideal = family_ideal(family, params)
    value, cert = sdepth_quotient(ideal, start=start)
    assert value == expected
    assert cert.claimed_d == expected
    assert verify_certificate(char_poset(ideal), cert)


def test_sdepth_of_principal_edge_without_hint():
    value, cert = sdepth_quotient(principal_xy())
    assert value == 1
    assert verify_certificate(char_poset(principal_xy()), cert)


def test_bad_start_hint_descends():
    value, _ = sdepth_quotient(principal_xy(), start=2)
    assert value == 1


def test_search_node_counts_on_square_of_p22(p22_ideal):
    # pins the search order; both levels read one shared poset
    poset = char_poset(ideal_power(p22_ideal, 2))
    limit = sys.getrecursionlimit()
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 2, max_nodes=127)
    assert sys.getrecursionlimit() == limit  # restored on the way out
    assert sdepth_at_least(poset, 2, max_nodes=128) is None
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 1, max_nodes=6)
    cert = sdepth_at_least(poset, 1, max_nodes=7)
    assert cert is not None and verify_certificate(poset, cert)


def test_search_node_counts_on_square_of_p232():
    # pins the component order: the parts left after a placement are solved
    # in (degree, lex) order of their first points
    poset = char_poset(family_ideal("caterpillar", (2, 3, 2), 2))
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 2, max_nodes=11)
    cert = sdepth_at_least(poset, 2, max_nodes=12)
    assert cert is not None and verify_certificate(poset, cert)


def test_monotonicity_below_the_answer():
    ideal = family_ideal("lobster", (3, 2, 2))
    poset = char_poset(ideal)
    value, _ = sdepth_quotient(ideal, start=3)
    for d in range(value + 1):
        assert sdepth_at_least(poset, d) is not None
    assert sdepth_at_least(poset, value + 1) is None


def test_d_out_of_range():
    poset = char_poset(principal_xy())
    with pytest.raises(ParameterError):
        sdepth_at_least(poset, 3)
    with pytest.raises(ParameterError):
        sdepth_at_least(poset, -1)


def test_search_node_cap_distinct_from_infeasible():
    ideal = family_ideal("caterpillar", (4, 4, 4))
    poset = char_poset(ideal)
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 8, max_nodes=2)


def test_search_time_budget():
    ideal = family_ideal("caterpillar", (4, 4, 4))
    with pytest.raises(ResourceCapError):
        sdepth_quotient(ideal, start=8, budget_s=0.0)


# ---------------------------------------------------------------------------
# the independent verifier
# ---------------------------------------------------------------------------

def test_verifier_rejects_dropped_point():
    poset = char_poset(principal_xy())
    cert = sdepth_at_least(poset, 1)
    broken = StanleyCertificate(cert.ambient, cert.g, cert.claimed_d,
                                cert.intervals[:-1])
    assert not verify_certificate(poset, broken)


def test_verifier_rejects_overlap():
    poset = char_poset(principal_xy())
    overlapping = StanleyCertificate(
        poset.ambient, poset.g, 1,
        (((0, 0), (1, 0)), ((0, 0), (0, 1))))
    assert not verify_certificate(poset, overlapping)


def test_verifier_rejects_low_rho():
    poset = char_poset(principal_xy())
    weak = StanleyCertificate(
        poset.ambient, poset.g, 1,
        (((0, 0), (0, 0)), ((1, 0), (1, 0)), ((0, 1), (0, 1))))
    assert not verify_certificate(poset, weak)  # (0,0) top has rho 0


def test_verifier_rejects_points_outside_poset():
    poset = char_poset(principal_xy())
    outside = StanleyCertificate(
        poset.ambient, poset.g, 1,
        (((0, 0), (1, 1)),))
    assert not verify_certificate(poset, outside)


@pytest.mark.parametrize("mutate", [
    lambda cert: replace(cert, g=tuple(e + 1 for e in cert.g)),
    lambda cert: replace(cert, ambient=VariableSet(
        tuple(f"y{i}" for i in range(len(cert.g))))),
], ids=["raised_g", "foreign_variables"])
def test_verifier_rejects_a_certificate_of_another_box(p22_ideal, mutate):
    # the intervals still partition the poset, but the JSON names another box
    poset = char_poset(ideal_power(p22_ideal, 2))
    cert = sdepth_at_least(poset, 1)
    assert verify_certificate(poset, cert)
    assert not verify_certificate(poset, mutate(cert))


def test_certificate_json_round_trip():
    ideal = family_ideal("lobster", (3, 2, 2))
    value, cert = sdepth_quotient(ideal, start=3)
    text = cert.to_json()
    back = StanleyCertificate.from_json(text, ideal.ambient)
    assert back == cert
    assert back.to_json() == text
    assert verify_certificate(char_poset(ideal), back)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_zero_sdepth_forces_zero_depth():
    maximal = mk_ideal(("x", "y"), {"x": 1}, {"y": 1})
    value, _ = sdepth_quotient(maximal)
    assert value == 0
    assert depth_quotient(maximal).depth == 0

    cube = mk_ideal(("x", "y"), {"x": 2}, {"x": 1, "y": 1}, {"y": 2})
    value, _ = sdepth_quotient(cube)
    assert value == 0
    assert depth_quotient(cube).depth == 0


def test_zero_ideal_sdepth_is_ambient_size():
    ideal = MonomialIdeal(VariableSet(("x", "y", "z")), ())
    assert sdepth_quotient(ideal)[0] == 3


@pytest.mark.parametrize("family,params,t", [
    ("caterpillar", (2, 2, 2), 1), ("caterpillar", (2, 3, 2), 2),
    ("lobster", (2, 2, 1), 1), ("lobster", (2, 1, 1), 2),
])
def test_variable_adjunction_adds_one(family, params, t):
    ideal = family_ideal(family, params, t)
    base = sdepth_quotient(ideal)[0]
    assert sdepth_quotient(extend_ambient(ideal, ["zfresh"]))[0] == base + 1


def test_disjoint_sum_superadditive():
    a = family_ideal("caterpillar", (2, 2, 2))
    b = mk_ideal(("m1", "m2"), {"m1": 1, "m2": 1})
    combined = disjoint_sum(a, b)
    assert sdepth_quotient(combined)[0] >= \
        sdepth_quotient(a)[0] + sdepth_quotient(b)[0]


@pytest.mark.parametrize("family,params,t", [
    ("caterpillar", (3, 2, 2), 1), ("caterpillar", (2, 2, 1), 2),
    ("lobster", (3, 1, 1), 2), ("lobster", (2, 1, 1), 3),
    ("caterpillar", (4, 3, 2), 2), ("lobster", (2, 2, 2), 3),
])
def test_bipartite_sdepth_positive(family, params, t):
    # the invariant is a lower bound, so one d = 1 certificate settles it
    poset = char_poset(family_ideal(family, params, t))
    cert = sdepth_at_least(poset, 1)
    assert cert is not None
    assert verify_certificate(poset, cert)
