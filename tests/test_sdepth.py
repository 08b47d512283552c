import sys
from dataclasses import replace

import pytest

from treedepth import (Monomial, MonomialIdeal, ParameterError,
                       ResourceCapError, StanleyCertificate, VariableSet,
                       bound_caterpillar, bound_lobster, char_poset,
                       compare, depth_quotient, disjoint_sum, extend_ambient,
                       ideal_power, minimalize, sdepth_at_least,
                       sdepth_quotient, verify_certificate)
from treedepth import sdepth as sdepth_mod
from conftest import (caterpillar_grid, family_ideal, lobster_grid, mk_ideal,
                      plain_sdepth, recheck_refutation)


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
    value, cert = sdepth_quotient(principal_xy(), start=2)
    assert value == 1
    assert cert.refuted_by == (0, 0)  # the whole poset refuted d = 2


@pytest.mark.parametrize("ideal,start,searched", [
    (principal_xy(), 2, [2, 1]),
    (principal_xy(), 0, [0, 1, 2]),
    (family_ideal("lobster", (3, 2, 2)), 5, [5, 4, 3]),
])
def test_each_d_is_searched_once(monkeypatch, ideal, start, searched):
    # after a descent, d + 1 has just been refuted: no second search of it
    calls = []
    plain = sdepth_mod.sdepth_at_least

    def recording(poset, d, *args, **kwargs):
        calls.append(d)
        return plain(poset, d, *args, **kwargs)

    monkeypatch.setattr(sdepth_mod, "sdepth_at_least", recording)
    value, cert = sdepth_quotient(ideal, start=start)
    assert calls == searched
    assert cert.claimed_d == value


def test_search_node_counts_on_square_of_p22(p22_ideal):
    # pins the search order; both levels read one shared poset
    poset = char_poset(ideal_power(p22_ideal, 2))
    limit = sys.getrecursionlimit()
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 2, max_nodes=137)
    assert sys.getrecursionlimit() == limit  # restored on the way out
    assert sdepth_at_least(poset, 2, max_nodes=138) is None
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 1, max_nodes=6)
    cert = sdepth_at_least(poset, 1, max_nodes=7)
    assert cert is not None and verify_certificate(poset, cert)


def test_search_node_counts_on_square_of_p232():
    # pins the component order: the parts left after a placement are solved
    # in (degree, lex) order of their first points
    poset = char_poset(family_ideal("caterpillar", (2, 3, 2), 2))
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 2, max_nodes=13)
    cert = sdepth_at_least(poset, 2, max_nodes=14)
    assert cert is not None and verify_certificate(poset, cert)


def test_up_set_probe_nodes_count_against_the_cap():
    # on P233^2 the whole-poset search at d = 3 caps at 1000 nodes; the
    # probes refute it in 13 nodes, counted on the same node cap
    poset = char_poset(family_ideal("caterpillar", (2, 3, 3), 2))
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 3, max_nodes=1000)
    with pytest.raises(ResourceCapError):
        sdepth_at_least(poset, 3, max_nodes=12, _refuted=[])
    refuted = []
    assert sdepth_at_least(poset, 3, max_nodes=13, _refuted=refuted) is None
    assert refuted == [(1, 1, 0, 0, 0, 0)]


def grid_cells():
    """The verify grid at t = 1, plus t = 2 for n <= 3 and r <= 3, each with
    its closed-form bound as the start: 50 cells."""
    cells = []
    for family, grid, bound in (("caterpillar", caterpillar_grid(), bound_caterpillar),
                                ("lobster", lobster_grid(), bound_lobster)):
        for params in grid:
            for t in ((1, 2) if params[0] <= 3 else (1,)):
                cells.append((family, params, t, bound(*params, t)))
    return cells


@pytest.mark.parametrize("family,params,expected", [
    ("caterpillar", (2, 3, 3), 2), ("caterpillar", (3, 2, 2), 2),
    ("lobster", (3, 1, 0), 2), ("caterpillar", (3, 3, 1), 2),
    ("caterpillar", (3, 3, 2), 3),
])
def test_squares_the_whole_poset_search_caps_on(family, params, expected):
    # the whole-poset search at d = expected + 1 caps at 1000 nodes here;
    # an up-set of a degree-2 point refutes it well inside the cap
    ideal = family_ideal(family, params, 2)
    bound = bound_caterpillar if family == "caterpillar" else bound_lobster
    value, cert = sdepth_quotient(ideal, start=bound(*params, 2), max_nodes=1000)
    assert value == expected == cert.claimed_d
    assert verify_certificate(char_poset(ideal), cert)
    assert sum(cert.refuted_by) == 2
    recheck_refutation(ideal, value, cert)


def test_square_of_s410_under_a_short_budget():
    ideal = family_ideal("lobster", (4, 1, 0), 2)
    value, cert = sdepth_quotient(ideal, start=bound_lobster(4, 1, 0, 2),
                                  budget_s=5)
    assert value == 3
    assert verify_certificate(char_poset(ideal), cert)
    recheck_refutation(ideal, value, cert)


@pytest.mark.parametrize("max_nodes", [250, 1000])
def test_grid_cells_keep_the_plain_search_values(max_nodes):
    cells = grid_cells()
    assert len(cells) == 50
    for family, params, t, start in cells:
        ideal = family_ideal(family, params, t)
        expected = plain_sdepth(ideal, start, max_nodes)
        try:
            value, cert = sdepth_quotient(ideal, start=start, max_nodes=max_nodes)
        except ResourceCapError:
            assert expected is None, (family, params, t)
            continue
        assert expected in (None, value), (family, params, t)
        assert verify_certificate(char_poset(ideal), cert)
        recheck_refutation(ideal, value, cert)


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


def test_spent_budget_raises_on_a_cached_result(fresh_result_cache):
    # compare solves the key the budget test asks for: P444 from start 8
    assert compare("caterpillar", (4, 4, 4), 1, compute_exact=True).exact_sdepth == 8
    assert len(fresh_result_cache.entries) == 1
    with pytest.raises(ResourceCapError, match="time budget"):
        sdepth_quotient(family_ideal("caterpillar", (4, 4, 4)), start=8,
                        budget_s=0.0)
    assert sdepth_quotient(family_ideal("caterpillar", (4, 4, 4)), start=8,
                           budget_s=60.0)[0] == 8
    assert fresh_result_cache.info()["hits"] == 1


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
