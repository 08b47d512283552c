"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from treedepth import (Monomial, ResourceCapError, VariableSet,
                       build_caterpillar, build_lobster, char_poset, colon,
                       edge_ideal, ideal_power, minimalize, sdepth_at_least)
from treedepth import sdepth as sdepth_mod


@pytest.fixture(autouse=True)
def fresh_result_cache(monkeypatch):
    """An empty Stanley-depth result cache for every test, so a test that
    counts searches sees them run, whatever ran before it."""
    monkeypatch.setattr(sdepth_mod, "_result_cache",
                        sdepth_mod._Lru(sdepth_mod._result_cache.size))
    return sdepth_mod._result_cache


def mk_ideal(varnames, *gen_dicts):
    """Ideal from sparse exponent dicts over the named variables."""
    ambient = VariableSet(varnames)
    gens = [Monomial.from_dict(ambient, d) for d in gen_dicts]
    return minimalize(gens, ambient=ambient)


def family_ideal(family, params, t=1):
    if family == "caterpillar":
        graph = build_caterpillar(*params)
    else:
        graph = build_lobster(*params)
    ideal = edge_ideal(graph)
    return ideal_power(ideal, t) if t > 1 else ideal


def plain_sdepth(ideal, start, max_nodes):
    """The search without up-set probes: descend from ``start`` to the first
    feasible d, then ascend while partitions exist.  None when a step caps."""
    poset = char_poset(ideal)
    d = start
    try:
        while d > 0 and sdepth_at_least(poset, d, max_nodes=max_nodes) is None:
            d -= 1
        while (d < len(poset.g)
               and sdepth_at_least(poset, d + 1, max_nodes=max_nodes) is not None):
            d += 1
    except ResourceCapError:
        return None
    return d


def recheck_refutation(ideal, value, cert):
    """Rerun the refutation of d = value + 1 that ``sdepth_quotient`` kept
    with its certificate along another path: the colon (I : x^u), its own
    poset in its own box, and the plain search at d.  Returns the colon's
    poset, or None when value is the number of variables."""
    if value == ideal.num_vars():
        assert cert.refuted_by is None
        return None
    u = Monomial(ideal.ambient, cert.refuted_by)
    assert not ideal.contains(u)
    poset = char_poset(colon(ideal, u))
    assert sdepth_at_least(poset, value + 1) is None
    return poset


def caterpillar_grid(n_max=4, k_max=3):
    """All (n, k, l) in the standard small verification grid."""
    out = []
    for n in range(2, n_max + 1):
        for k in range(2, k_max + 1):
            for l in range(1, k + 1):
                out.append((n, k, l))
    return out


def lobster_grid(r_max=4, p_max=2):
    out = []
    for r in range(2, r_max + 1):
        for p in range(1, p_max + 1):
            for q in range(0, p + 1):
                out.append((r, p, q))
    return out


@pytest.fixture(scope="session")
def p22_ideal():
    return family_ideal("caterpillar", (2, 2, 2))
