import time

import pytest

from treedepth import (Graph, Monomial, ParameterError, ResourceCapError,
                       betti_numbers, build_caterpillar, build_lobster, colon,
                       depth_oracle_hochster, depth_quotient, depth_via_betti,
                       disjoint_sum, edge_ideal, extend_ambient,
                       hochster_betti_table, ideal_power, lcm_lattice,
                       minimalize, polarize, restrict, sum_with_vars)
from treedepth import depth as depth_mod
from conftest import caterpillar_grid, family_ideal, lobster_grid, mk_ideal

RP2_TRIANGLES = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                 (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def rp2_ideal():
    """Stanley-Reisner ideal of the 6-vertex projective plane; its quotient
    depth is characteristic-sensitive (2 over GF(2), 3 otherwise)."""
    names = tuple(f"x{i}" for i in range(1, 7))
    return mk_ideal(names, *({f"x{i}": 1 for i in tri} for tri in RP2_TRIANGLES))


def oracle_corpus():
    """Squarefree ideals with at most 12 variables."""
    corpus = []
    for params in caterpillar_grid():
        ideal = family_ideal("caterpillar", params)
        if ideal.num_vars() <= 12:
            corpus.append((f"caterpillar{params}", ideal))
    for params in lobster_grid():
        ideal = family_ideal("lobster", params)
        if ideal.num_vars() <= 12:
            corpus.append((f"lobster{params}", ideal))
    base = family_ideal("caterpillar", (4, 3, 3))
    corpus.append(("restricted P433", restrict(base, "u4")))
    corpus.append(("colon P433", colon(base, Monomial.from_dict(base.ambient,
                                                                {"u2": 1, "u4": 1}))))
    two_edges = mk_ideal(("a", "b", "c", "d"), {"a": 1, "b": 1}, {"c": 1, "d": 1})
    corpus.append(("two disjoint edges", two_edges))
    corpus.append(("projective plane", rp2_ideal()))
    return corpus


# ---------------------------------------------------------------------------
# Betti numbers via the lcm lattice
# ---------------------------------------------------------------------------

def test_betti_single_generator():
    ideal = mk_ideal(("x", "y"), {"x": 1, "y": 1})
    table = betti_numbers(ideal)
    xy = Monomial.from_dict(ideal.ambient, {"x": 1, "y": 1})
    assert table.nonzero() == {(0, Monomial.one(ideal.ambient)): 1, (1, xy): 1}
    assert table.proj_dim() == 1


def test_betti_two_edges_path():
    ideal = mk_ideal(("x", "y", "z"), {"x": 1, "y": 1}, {"y": 1, "z": 1})
    table = betti_numbers(ideal)
    amb = ideal.ambient
    expected = {
        (0, Monomial.one(amb)): 1,
        (1, Monomial.from_dict(amb, {"x": 1, "y": 1})): 1,
        (1, Monomial.from_dict(amb, {"y": 1, "z": 1})): 1,
        (2, Monomial.from_dict(amb, {"x": 1, "y": 1, "z": 1})): 1,
    }
    assert table.nonzero() == expected


@pytest.mark.parametrize("char", [2, 32003])
def test_betti_matches_hochster_table_p22(p22_ideal, char):
    lattice_table = betti_numbers(p22_ideal, char)
    oracle_table = hochster_betti_table(p22_ideal, char)
    assert lattice_table.nonzero() == oracle_table.nonzero()


@pytest.mark.parametrize("name,params", [
    ("caterpillar", (3, 2, 2)), ("caterpillar", (2, 3, 1)),
    ("lobster", (2, 2, 2)), ("lobster", (3, 1, 0)),
])
@pytest.mark.parametrize("char", [2, 32003])
def test_betti_matches_hochster_table_small_families(name, params, char):
    ideal = family_ideal(name, params)
    assert betti_numbers(ideal, char).nonzero() == \
        hochster_betti_table(ideal, char).nonzero()


@pytest.mark.parametrize("char,pd", [(2, 4), (32003, 3)])
def test_betti_characteristic_sensitivity(char, pd):
    table = betti_numbers(rp2_ideal(), char)
    assert table.proj_dim() == pd


def test_betti_json_round_trip():
    ideal = mk_ideal(("x", "y", "z"), {"x": 1, "y": 1}, {"y": 1, "z": 1})
    import json
    rows = json.loads(betti_numbers(ideal).to_json())
    assert {"i": 2, "deg": {"x": 1, "y": 1, "z": 1}, "rank": 1} in rows


def test_betti_rejects_zero_and_unit():
    from treedepth import VariableSet, MonomialIdeal
    amb = VariableSet(("x",))
    with pytest.raises(ParameterError):
        betti_numbers(MonomialIdeal(amb, ()))
    with pytest.raises(ParameterError):
        betti_numbers(minimalize([Monomial.one(amb)]))


# ---------------------------------------------------------------------------
# depth_quotient: paper values and structure
# ---------------------------------------------------------------------------

def test_depth_paper_values_first_power():
    assert depth_quotient(family_ideal("caterpillar", (4, 4, 4))).depth == 8
    assert depth_quotient(family_ideal("caterpillar", (5, 3, 3))).depth == 7
    assert depth_quotient(family_ideal("lobster", (4, 2, 2))).depth == 4
    assert depth_quotient(family_ideal("lobster", (5, 2, 2))).depth == 5


def test_depth_paper_values_squares():
    assert depth_quotient(family_ideal("caterpillar", (5, 3, 3), t=2)).depth == 6
    assert depth_quotient(family_ideal("lobster", (4, 2, 2), t=2)).depth == 4


def test_depth_star_is_one():
    for k in (2, 3, 5):
        assert depth_quotient(family_ideal("caterpillar", (1, k, k))).depth == 1


def test_depth_zero_ideal_is_ambient_size():
    from treedepth import VariableSet, MonomialIdeal
    ideal = MonomialIdeal(VariableSet(("x", "y", "z")), ())
    res = depth_quotient(ideal)
    assert (res.depth, res.proj_dim) == (3, 0)


def test_depth_rejects_unit_ideal():
    from treedepth import VariableSet
    amb = VariableSet(("x",))
    with pytest.raises(ParameterError):
        depth_quotient(minimalize([Monomial.one(amb)]))


def test_depth_rejects_composite_characteristic(p22_ideal):
    with pytest.raises(ParameterError):
        depth_quotient(p22_ideal, field_char=6)


def test_depth_budget_cap():
    ideal = family_ideal("caterpillar", (4, 4, 2), t=2)
    with pytest.raises(ResourceCapError):
        depth_quotient(ideal, budget_s=0.0)


def test_depth_budget_holds_inside_betti_fallback(monkeypatch):
    # P444 at t=4 spends most of its 3 s in the projective dimension of two
    # cores: 51 generators from about 0.4 s to 0.8 s, then 84 generators
    # from about 0.85 s on, so a 1 s budget runs out inside the fallback
    monkeypatch.setattr(depth_mod, "_ses_memo", {})
    ideal = family_ideal("caterpillar", (4, 4, 4), t=4)
    start = time.monotonic()
    with pytest.raises(ResourceCapError) as err:
        depth_quotient(ideal, budget_s=1)
    assert time.monotonic() - start < 10
    assert "_proj_dim_rows" in {entry.name for entry in err.traceback}


@pytest.mark.parametrize("ideal,depth", [
    (rp2_ideal(), 3), (family_ideal("caterpillar", (3, 3, 3), 3), 1)])
def test_betti_fallback_gets_minimal_canonical_rows(monkeypatch, ideal, depth):
    # the engine recurses on packed rows; the fallback takes exponent tuples
    sizes = []
    real_proj_dim = depth_mod._proj_dim_rows

    def checked(rows, p, cap=None, deadline=None):
        assert all(type(r) is tuple for r in rows)
        assert rows == sorted(set(rows), key=lambda r: (sum(r), r))
        assert not any(s != r and all(a <= b for a, b in zip(s, r))
                       for r in rows for s in rows)
        sizes.append(len(rows))
        return real_proj_dim(rows, p, cap, deadline)

    monkeypatch.setattr(depth_mod, "_ses_memo", {})
    monkeypatch.setattr(depth_mod, "_proj_dim_rows", checked)
    assert depth_quotient(ideal).depth == depth
    assert sizes


def test_betti_and_lattice_raise_past_deadline(p22_ideal):
    past = time.monotonic() - 1
    with pytest.raises(ResourceCapError):
        lcm_lattice(p22_ideal.rows, deadline=past)
    with pytest.raises(ResourceCapError):
        betti_numbers(p22_ideal, deadline=past)


def test_proj_dim_raises_past_deadline(p22_ideal, monkeypatch):
    past = time.monotonic() - 1
    rows = p22_ideal.rows
    with pytest.raises(ResourceCapError):
        depth_mod._proj_dim_rows(rows, 32003, deadline=past)
    with pytest.raises(ResourceCapError):
        depth_mod._high_homology([0b111, 0b1110], 0, 32003, deadline=past)
    # past the lattice, the walk itself checks the deadline
    real_lattice = depth_mod.lcm_lattice
    monkeypatch.setattr(depth_mod, "lcm_lattice",
                        lambda rows, cap, deadline: real_lattice(rows, cap))
    with pytest.raises(ResourceCapError):
        depth_mod._proj_dim_rows(rows, 32003, deadline=past)


@pytest.mark.parametrize("char,depth", [(2, 2), (32003, 3)])
def test_depth_quotient_characteristic_sensitivity(char, depth):
    assert depth_quotient(rp2_ideal(), char).depth == depth


# ---------------------------------------------------------------------------
# the Hochster oracle
# ---------------------------------------------------------------------------

def test_hochster_two_points():
    ideal = mk_ideal(("x", "y"), {"x": 1, "y": 1})
    res = depth_oracle_hochster(ideal)
    assert (res.depth, res.proj_dim, res.method) == (1, 1, "hochster_oracle")


def test_hochster_p22_path_depth(p22_ideal):
    assert depth_oracle_hochster(p22_ideal).depth == 2


def test_hochster_disjoint_edges():
    ideal = mk_ideal(("a", "b", "c", "d"), {"a": 1, "b": 1}, {"c": 1, "d": 1})
    assert depth_oracle_hochster(ideal).depth == 2


def test_hochster_domain_errors():
    wide = family_ideal("caterpillar", (5, 4, 4))  # 20 variables
    with pytest.raises(ParameterError):
        depth_oracle_hochster(wide)
    square = ideal_power(mk_ideal(("x", "y"), {"x": 1, "y": 1}), 2)
    with pytest.raises(ParameterError):
        depth_oracle_hochster(square)


# ---------------------------------------------------------------------------
# oracle equivalence (two characteristics) and engine agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,ideal", oracle_corpus())
@pytest.mark.parametrize("char", [2, 32003])
def test_oracle_equivalence(name, ideal, char):
    engine = depth_quotient(ideal, char)
    oracle = depth_oracle_hochster(ideal, char)
    assert engine.depth == oracle.depth, name
    assert engine.proj_dim == oracle.proj_dim
    assert engine.depth + engine.proj_dim == engine.ambient_size
    assert oracle.depth + oracle.proj_dim == oracle.ambient_size


@pytest.mark.parametrize("name,params,t", [
    ("caterpillar", (2, 2, 1), 2), ("caterpillar", (2, 2, 2), 2),
    ("lobster", (2, 1, 1), 2), ("lobster", (2, 1, 0), 3),
])
def test_lattice_route_agrees_on_powers(name, params, t):
    # small instances: the strand enumeration is exponential in the number
    # of generators below a lattice element
    ideal = family_ideal(name, params, t)
    assert depth_via_betti(ideal).depth == depth_quotient(ideal).depth


@pytest.mark.parametrize("name,params,t", [
    ("caterpillar", (2, 2, 1), 2), ("caterpillar", (2, 2, 2), 2),
    ("lobster", (2, 1, 1), 2), ("lobster", (2, 1, 0), 3),
])
def test_lattice_route_matches_full_betti_table(name, params, t):
    # depth_via_betti computes only pd; the full table of the polarized
    # ideal must give the same depth
    ideal = family_ideal(name, params, t)
    squarefree, _shift = polarize(ideal)
    full_pd = betti_numbers(squarefree).proj_dim()
    assert depth_via_betti(ideal).depth == ideal.num_vars() - full_pd


def test_polarization_depth_transfer():
    # derived example: depth carries over the squarefree reduction up to the
    # number of added variables, checked with the independent oracle
    ideal = mk_ideal(("x", "y"), {"x": 2, "y": 1}, {"y": 2})
    squarefree, shift = polarize(ideal)
    assert shift == 2
    direct = depth_quotient(ideal).depth
    assert direct == 0  # x*y is a nonzero socle element
    assert depth_oracle_hochster(squarefree).depth == direct + shift


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,params,t", [
    ("caterpillar", (2, 2, 2), 1), ("caterpillar", (3, 3, 2), 1),
    ("caterpillar", (2, 3, 3), 2), ("lobster", (3, 2, 0), 1),
    ("lobster", (2, 2, 2), 2),
])
def test_variable_adjunction_adds_one(family, params, t):
    ideal = family_ideal(family, params, t)
    base = depth_quotient(ideal).depth
    assert depth_quotient(extend_ambient(ideal, ["zfresh"])).depth == base + 1


def test_disjoint_sum_additivity():
    a = family_ideal("caterpillar", (2, 3, 2))
    b = edge_ideal(Graph.from_edges(["m1", "m2"], [("m1", "m2")]))
    combined = disjoint_sum(a, b)
    assert depth_quotient(combined).depth == \
        depth_quotient(a).depth + depth_quotient(b).depth


@pytest.mark.parametrize("family,params", [("caterpillar", (3, 2, 2)),
                                           ("caterpillar", (2, 3, 1)),
                                           ("lobster", (3, 2, 1))])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_bipartite_depth_positive(family, params, t):
    res = depth_quotient(family_ideal(family, params, t))
    assert res.depth >= 1


@pytest.mark.parametrize("family,params,t", [
    ("caterpillar", (3, 2, 2), 1), ("caterpillar", (3, 3, 1), 2),
    ("lobster", (3, 2, 2), 2),
])
def test_depth_lemma_on_colon_sum_triples(family, params, t):
    # depth of the middle term is at least the minimum of the outer two in
    # 0 -> S/(I^t : v) -> S/I^t -> S/(I^t, v) -> 0
    ideal = family_ideal(family, params, t)
    last = "u3" if family == "caterpillar" else "v3"
    v = Monomial.variable(ideal.ambient, last)
    middle = depth_quotient(ideal).depth
    left = depth_quotient(colon(ideal, v)).depth
    right = depth_quotient(sum_with_vars(ideal, [last])).depth
    assert middle >= min(left, right)


def test_free_variables_contribute():
    ideal = mk_ideal(("x", "y", "f1", "f2"), {"x": 1, "y": 1})
    assert depth_quotient(ideal).depth == 3  # one for the edge, two free
