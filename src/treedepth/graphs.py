"""Caterpillar and lobster tree constructions and basic graph statistics.

The two families built here:

* ``build_caterpillar(n, k, l)``: a path u_1..u_n where every spine vertex
  u_i with i < n carries k-1 pendant vertices and u_n carries l-1; for
  l = k every spine vertex carries k-1 pendants and the tree has n*k
  vertices in total.
* ``build_lobster(r, p, q)``: a star with center ``vc`` and spokes
  v_1..v_r, where every spoke v_i with i < r carries p pendant vertices
  and v_r carries q.

Vertex labels are canonical strings ("u1", "y3_2", "v5", "x2_4", "vc"), and
the vertex list is ordered spine-first then pendants in (spine index,
pendant index) order, so downstream polynomial rings get a reproducible
variable order.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .errors import ParameterError


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph with ordered vertex labels.

    ``family`` optionally records how the graph was constructed, e.g.
    ``{"kind": "caterpillar", "n": 4, "k": 7, "l": 5}``.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    family: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ParameterError("duplicate vertex labels")
        for a, b in self.edges:
            if a == b:
                raise ParameterError(f"loop at {a!r}")
            if a not in seen or b not in seen:
                raise ParameterError(f"edge ({a!r}, {b!r}) uses undeclared vertex")
            if a > b:
                raise ParameterError("edges must be stored as sorted pairs")

    @staticmethod
    def from_edges(vertices, edges, family=None) -> "Graph":
        norm = frozenset(tuple(sorted(e)) for e in edges)
        return Graph(tuple(vertices), norm, family)

    def adjacency(self) -> dict[str, set[str]]:
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def sorted_edges(self) -> list[tuple[str, str]]:
        """Edges sorted by vertex-list position, for deterministic output."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        return sorted(self.edges, key=lambda e: (pos[e[0]], pos[e[1]]))

    def to_json(self) -> str:
        obj = {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.sorted_edges()],
        }
        if self.family is not None:
            obj["family"] = self.family
        return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(text: str) -> "Graph":
        obj = json.loads(text)
        return Graph.from_edges(obj["vertices"],
                                [tuple(e) for e in obj["edges"]],
                                obj.get("family"))


@dataclass(frozen=True)
class GraphStats:
    diameter: int
    components: int
    near_leaves: int
    leaves: int
    is_bipartite: bool


def build_caterpillar(n: int, k: int, l: int | None = None) -> Graph:
    """Caterpillar on (n-1)k + l vertices: spine u_1..u_n, k-1 pendants per
    spine vertex except u_n which carries l-1.

    For n = 1 only l = k is accepted (the base case is a (k-1)-star).
    """
    if l is None:
        l = k
    if n < 1 or k < 2 or not 1 <= l <= k:
        raise ParameterError(f"caterpillar parameters out of range: n={n}, k={k}, l={l}")
    if n == 1 and l != k:
        raise ParameterError("caterpillar with n=1 requires l=k")
    spine = [f"u{i}" for i in range(1, n + 1)]
    vertices = list(spine)
    edges = [(spine[i], spine[i + 1]) for i in range(n - 1)]
    for i in range(1, n + 1):
        count = (k - 1) if i < n else (l - 1)
        for j in range(1, count + 1):
            y = f"y{j}_{i}"
            vertices.append(y)
            edges.append((f"u{i}", y))
    return Graph.from_edges(vertices, edges,
                            {"kind": "caterpillar", "n": n, "k": k, "l": l})


def build_lobster(r: int, p: int, q: int | None = None) -> Graph:
    """Lobster on r + 1 + (r-1)p + q vertices: center vc, spokes v_1..v_r,
    p pendants on each spoke except v_r which carries q."""
    if q is None:
        q = p
    if r < 2 or p < 1 or not 0 <= q <= p:
        raise ParameterError(f"lobster parameters out of range: r={r}, p={p}, q={q}")
    spokes = [f"v{i}" for i in range(1, r + 1)]
    vertices = list(spokes) + ["vc"]
    edges = [(s, "vc") for s in spokes]
    for i in range(1, r + 1):
        count = p if i < r else q
        for j in range(1, count + 1):
            x = f"x{j}_{i}"
            vertices.append(x)
            edges.append((f"v{i}", x))
    return Graph.from_edges(vertices, edges,
                            {"kind": "lobster", "r": r, "p": p, "q": q})


def graph_stats(g: Graph) -> GraphStats:
    """Diameter (max over components), component count, near-leaf count,
    leaf count and bipartiteness, all by BFS.

    A tree component takes two searches for its diameter; a component with
    a cycle takes one from every vertex.
    """
    adj = g.adjacency()
    color = {}
    bipartite = True
    components = 0
    diameter = 0
    for start in g.vertices:
        if start in color:
            continue
        components += 1
        color[start] = 0
        queue = deque([start])
        comp = [start]
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in color:
                    color[w] = color[v] ^ 1
                    comp.append(w)
                    queue.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        if sum(len(adj[v]) for v in comp) == 2 * (len(comp) - 1):
            # a tree: the search above reached comp[-1] last, so it is
            # farthest from start, and in a tree a vertex farthest from any
            # vertex ends a longest path (double sweep)
            diameter = max(diameter, _eccentricity(adj, comp[-1]))
        else:
            for v in comp:
                diameter = max(diameter, _eccentricity(adj, v))
    leaves = sum(1 for v in g.vertices if len(adj[v]) == 1)
    near = 0
    for v in g.vertices:
        if len(adj[v]) <= 1:
            continue
        non_leaf_nbrs = sum(1 for w in adj[v] if len(adj[w]) > 1)
        if non_leaf_nbrs <= 1:
            near += 1
    return GraphStats(diameter=diameter, components=components,
                      near_leaves=near, leaves=leaves, is_bipartite=bipartite)


def _eccentricity(adj, start) -> int:
    dist = {start: 0}
    queue = deque([start])
    far = 0
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                far = max(far, dist[w])
                queue.append(w)
    return far
