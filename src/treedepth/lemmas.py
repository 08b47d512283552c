"""Executable identity suites over randomly sampled small family instances.

Each suite checks an exact ideal identity (equality of canonical minimal
generating sets), so the suites are their own oracle:

* leaf colon: for a pendant edge with leaf x_i and stem x_j,
  (I^t : x_i x_j) = I^(t-1) for t >= 2;
* spine truncation: adding the last caterpillar spine vertex to I^t gives
  the same ideal as adding it to the power of the one-shorter caterpillar;
* lobster truncation: same shape, dropping the short spoke;
* restriction colon: for y not dividing M and J the minor at y = 0,
  ((I^t : M), y) = ((J^t : M), y).

A structural suite exercises depth/sdepth behavior under variable
adjunction and disjoint sums.  Fault injection deliberately corrupts one
side of an identity, as a negative control for the harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .depth import depth_quotient
from .graphs import Graph, build_caterpillar, build_lobster
from .monomials import (Monomial, MonomialIdeal, VariableSet, colon,
                        disjoint_sum, edge_ideal, extend_ambient, ideal_power,
                        minimalize, restrict, sum_with_vars)
from .sdepth import sdepth_quotient


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, instance: dict):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.counterexamples.append(instance)


def _pendant_edges(g: Graph) -> list[tuple[str, str]]:
    """(leaf, stem) pairs."""
    adj = g.adjacency()
    out = []
    for v in g.vertices:
        if len(adj[v]) == 1:
            out.append((v, next(iter(adj[v]))))
    return out


def _sample_caterpillar(rng: random.Random):
    n = rng.randint(2, 4)
    k = rng.randint(2, 3)
    l = rng.randint(1, k)
    return n, k, l


def _sample_lobster(rng: random.Random):
    r = rng.randint(2, 4)
    p = rng.randint(1, 2)
    q = rng.randint(0, p)
    return r, p, q


def _sample_graph(rng: random.Random) -> Graph:
    if rng.random() < 0.5:
        return build_caterpillar(*_sample_caterpillar(rng))
    return build_lobster(*_sample_lobster(rng))


def _corrupt(ideal: MonomialIdeal) -> MonomialIdeal:
    """Return a provably different ideal: multiply the first generator by a
    variable in its support (the original generator leaves the ideal).  The
    zero and unit ideals are bumped to a single-variable ideal instead."""
    if ideal.is_zero() or not ideal.is_proper():
        return minimalize([Monomial.variable(ideal.ambient, ideal.ambient.names[0])],
                          ambient=ideal.ambient)
    g = ideal.gens[0]
    v = Monomial.variable(ideal.ambient, g.support()[0])
    return minimalize([g.times(v)] + list(ideal.gens[1:]))


def suite_leaf_colon(seed: int, cases: int, inject_fault: bool = False) -> SuiteResult:
    """(I^t : leaf*stem) = I^(t-1) on random pendant edges, t in {2, 3}."""
    rng = random.Random(seed)
    result = SuiteResult("leaf_colon")
    for _ in range(cases):
        graph = _sample_graph(rng)
        t = rng.randint(2, 3)
        ideal = edge_ideal(graph)
        leaf, stem = rng.choice(_pendant_edges(graph))
        edge = Monomial.variable(ideal.ambient, leaf).times(
            Monomial.variable(ideal.ambient, stem))
        lhs = colon(ideal_power(ideal, t), edge)
        rhs = ideal_power(ideal, t - 1)
        if inject_fault:
            rhs = _corrupt(rhs)
        result.record(lhs == rhs, {
            "family": graph.family, "t": t, "leaf": leaf, "stem": stem})
    return result


def suite_spine_truncation(seed: int, cases: int, inject_fault: bool = False) -> SuiteResult:
    """(I^t, u_n) agrees with the one-spine-shorter caterpillar power."""
    rng = random.Random(seed)
    result = SuiteResult("spine_truncation")
    for _ in range(cases):
        n, k, l = _sample_caterpillar(rng)
        t = rng.randint(1, 3)
        ideal = edge_ideal(build_caterpillar(n, k, l))
        last = f"u{n}"
        shorter = restrict(ideal, last)  # the shorter caterpillar, same ring
        lhs = sum_with_vars(ideal_power(ideal, t), [last])
        rhs = sum_with_vars(ideal_power(shorter, t), [last])
        if inject_fault:
            rhs = _corrupt(rhs)
        result.record(lhs == rhs, {"n": n, "k": k, "l": l, "t": t})
    return result


def suite_lobster_truncation(seed: int, cases: int, inject_fault: bool = False) -> SuiteResult:
    """(I^t, v_r) agrees with the one-spoke-shorter lobster power."""
    rng = random.Random(seed)
    result = SuiteResult("lobster_truncation")
    for _ in range(cases):
        r, p, q = _sample_lobster(rng)
        t = rng.randint(1, 3)
        ideal = edge_ideal(build_lobster(r, p, q))
        last = f"v{r}"
        shorter = restrict(ideal, last)
        lhs = sum_with_vars(ideal_power(ideal, t), [last])
        rhs = sum_with_vars(ideal_power(shorter, t), [last])
        if inject_fault:
            rhs = _corrupt(rhs)
        result.record(lhs == rhs, {"r": r, "p": p, "q": q, "t": t})
    return result


def suite_restriction_colon(seed: int, cases: int, inject_fault: bool = False) -> SuiteResult:
    """((I^t : M), y) = ((J^t : M), y) with J the minor at y = 0, y not
    dividing the random monomial M."""
    rng = random.Random(seed)
    result = SuiteResult("restriction_colon")
    for _ in range(cases):
        graph = _sample_graph(rng)
        t = rng.randint(1, 3)
        ideal = edge_ideal(graph)
        names = ideal.ambient.names
        y = rng.choice(names)
        others = [v for v in names if v != y]
        exps = [0] * len(names)
        for v in rng.sample(others, rng.randint(1, 3)):
            exps[ideal.ambient.index(v)] = rng.randint(1, 2)
        m = Monomial(ideal.ambient, exps)
        minor = restrict(ideal, y)
        lhs = sum_with_vars(colon(ideal_power(ideal, t), m), [y])
        rhs = sum_with_vars(colon(ideal_power(minor, t), m), [y])
        if inject_fault:
            rhs = _corrupt(rhs)
        result.record(lhs == rhs, {
            "family": graph.family, "t": t, "y": y, "M": m.to_dict()})
    return result


def suite_structural(seed: int, cases: int, field_char: int = 32003) -> SuiteResult:
    """Variable adjunction bumps depth and sdepth by one; disjoint sums add
    depth and superadd sdepth."""
    rng = random.Random(seed)
    result = SuiteResult("structural")
    for idx in range(cases):
        if rng.random() < 0.5:
            graph = build_caterpillar(rng.randint(2, 3), 2, rng.randint(1, 2))
        else:
            graph = build_lobster(2, rng.randint(1, 2))
        ideal = edge_ideal(graph)
        d0 = depth_quotient(ideal, field_char).depth
        s0 = sdepth_quotient(ideal)[0]
        bigger = extend_ambient(ideal, [f"z{idx}"])
        ok = (depth_quotient(bigger, field_char).depth == d0 + 1
              and sdepth_quotient(bigger)[0] == s0 + 1)

        other = edge_ideal(build_caterpillar(2, 2, rng.randint(1, 2)))
        tensor = disjoint_sum(ideal, _rename(other, prefix=f"w{idx}_"))
        d_other = depth_quotient(other, field_char).depth
        s_other = sdepth_quotient(other)[0]
        ok = ok and depth_quotient(tensor, field_char).depth == d0 + d_other
        ok = ok and sdepth_quotient(tensor)[0] >= s0 + s_other
        result.record(ok, {"family": graph.family, "case": idx})
    return result


def _rename(ideal: MonomialIdeal, prefix: str) -> MonomialIdeal:
    return MonomialIdeal(VariableSet(prefix + v for v in ideal.ambient.names), ideal.rows)


def run_all(seed: int, cases: int, inject_fault: bool = False,
            structural_cases: int | None = None,
            field_char: int = 32003) -> list[SuiteResult]:
    if seed <= 0 or cases <= 0:
        raise ValueError("seed and case count must be positive")
    results = [
        suite_leaf_colon(seed, cases, inject_fault),
        suite_spine_truncation(seed + 1, cases, inject_fault),
        suite_lobster_truncation(seed + 2, cases, inject_fault),
        suite_restriction_colon(seed + 3, cases, inject_fault),
        suite_structural(seed + 4, structural_cases
                         if structural_cases is not None else max(1, cases // 10),
                         field_char),
    ]
    return results
