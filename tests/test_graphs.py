import json

import pytest

from treedepth import (Graph, ParameterError, build_caterpillar, build_lobster,
                       graph_stats)


def test_caterpillar_full_vertex_count():
    g = build_caterpillar(4, 7)
    assert len(g.vertices) == 28  # n*k for the unrestricted family
    assert len(g.edges) == 27
    assert graph_stats(g).components == 1


def test_caterpillar_is_star_for_single_spine():
    g = build_caterpillar(1, 4)
    # one internal vertex and k-1 leaves
    assert len(g.vertices) == 4
    stats = graph_stats(g)
    assert stats.leaves == 3
    assert g.adjacency()["u1"] == {"y1_1", "y2_1", "y3_1"}


def test_caterpillar_smallest_restricted():
    g = build_caterpillar(2, 2, 1)
    assert len(g.vertices) == 3
    assert len(g.edges) == 2
    assert g.adjacency()["u2"] == {"u1"}


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(2, 9))
def test_caterpillar_counts_over_grid(n, k):
    for l in range(1, k + 1):
        if n == 1 and l != k:
            continue
        g = build_caterpillar(n, k, l)
        assert len(g.vertices) == (n - 1) * k + l
        assert len(g.edges) == len(g.vertices) - 1
        if l == k:
            assert g.edges == build_caterpillar(n, k).edges


def test_lobster_figure_sizes():
    g = build_lobster(8, 4)
    assert len(g.vertices) == 41  # 9 + 32
    g0 = build_lobster(8, 4, 0)
    assert g0.adjacency()["v8"] == {"vc"}  # no pendants on the short spoke
    small = build_lobster(2, 1, 1)
    assert len(small.vertices) == 5


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("p", range(1, 5))
def test_lobster_counts_over_grid(r, p):
    for q in range(0, p + 1):
        g = build_lobster(r, p, q)
        assert len(g.vertices) == r + 1 + (r - 1) * p + q
        assert len(g.edges) == len(g.vertices) - 1
        assert graph_stats(g).components == 1
        if q == p:
            assert g.edges == build_lobster(r, p).edges


@pytest.mark.parametrize("bad", [
    ("caterpillar", (0, 2, 2)), ("caterpillar", (3, 1, 1)),
    ("caterpillar", (3, 3, 0)), ("caterpillar", (3, 3, 4)),
    ("caterpillar", (1, 3, 2)),  # n=1 demands l=k
    ("lobster", (1, 1, 1)), ("lobster", (2, 0, 0)), ("lobster", (2, 2, 3)),
])
def test_family_parameter_domains(bad):
    family, params = bad
    builder = build_caterpillar if family == "caterpillar" else build_lobster
    with pytest.raises(ParameterError):
        builder(*params)


def test_stats_large_caterpillar():
    stats = graph_stats(build_caterpillar(50, 10))
    assert stats.diameter == 51
    assert stats.near_leaves == 2
    assert stats.components == 1
    assert stats.is_bipartite


def test_stats_large_lobster():
    stats = graph_stats(build_lobster(55, 3))
    assert stats.diameter == 4
    assert stats.near_leaves == 55


def test_stats_single_edge():
    g = Graph.from_edges(["a", "b"], [("a", "b")])
    stats = graph_stats(g)
    assert (stats.diameter, stats.near_leaves, stats.components, stats.leaves) \
        == (1, 0, 1, 2)
    assert stats.is_bipartite


def test_stats_forest_takes_max_diameter():
    g = Graph.from_edges(
        ["a", "b", "c", "x", "y"],
        [("a", "b"), ("b", "c"), ("x", "y")])
    stats = graph_stats(g)
    assert stats.components == 2
    assert stats.diameter == 2


@pytest.mark.parametrize("n,k", [(2, 2), (3, 5), (6, 3), (8, 8)])
def test_caterpillar_diameter_and_near_leaves(n, k):
    stats = graph_stats(build_caterpillar(n, k))
    assert stats.diameter == n + 1
    assert stats.near_leaves == 2
    assert stats.is_bipartite


@pytest.mark.parametrize("r,p", [(2, 1), (3, 2), (5, 4), (8, 2)])
def test_lobster_diameter_and_near_leaves(r, p):
    stats = graph_stats(build_lobster(r, p))
    assert stats.diameter == 4
    assert stats.near_leaves == r
    assert stats.is_bipartite


def test_rejects_malformed_graphs():
    with pytest.raises(ParameterError):
        Graph.from_edges(["a"], [("a", "a")])
    with pytest.raises(ParameterError):
        Graph.from_edges(["a"], [("a", "b")])
    with pytest.raises(ParameterError):
        Graph.from_edges(["a", "a"], [])


def test_graph_json_round_trip_and_determinism():
    g = build_caterpillar(4, 7, 5)
    text = g.to_json()
    obj = json.loads(text)
    assert obj["family"] == {"kind": "caterpillar", "n": 4, "k": 7, "l": 5}
    assert obj["vertices"][:4] == ["u1", "u2", "u3", "u4"]
    back = Graph.from_json(text)
    assert back.vertices == g.vertices
    assert back.edges == g.edges
    assert back.to_json() == text
