"""Spans around the package's public functions, and the layer metrics
derived from them.

``Tracer.install`` replaces each traced function at every module attribute
of the package that holds it, so calls made inside the package are caught
too: ``sdepth_quotient`` calling ``sdepth_at_least``, ``compare`` importing
``depth_quotient`` at call time, the Betti fallback calling
``treedepth.depth.betti_numbers``.  Helpers without a layer metric of their
own (``minimalize`` and the like) stay unwrapped and count toward their
caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# function name -> layer; a layer's self time sums its functions' spans
LAYER_OF = {
    "build_caterpillar": "graphs.build",
    "build_lobster": "graphs.build",
    "graph_stats": "graphs.stats",
    "compare": "bounds.compare",
    "bound_caterpillar": "bounds.closed_form",
    "bound_lobster": "bounds.closed_form",
    "bound_prior_forest": "bounds.closed_form",
    "edge_ideal": "monomials.edge_ideal",
    "ideal_power": "monomials.power",
    "lcm_lattice": "monomials.lattice",
    "polarize": "monomials.polarize",
    "depth_quotient": "depth.quotient",
    "betti_numbers": "depth.betti",
    "depth_via_betti": "depth.betti",
    "char_poset": "sdepth.poset",
    "sdepth_at_least": "sdepth.search",
    "sdepth_quotient": "sdepth.quotient",
    "verify_certificate": "sdepth.verify",
}

# work counted at a span, from (args, result)
COUNT_OF = {
    "ideal_power": lambda args, result: len(result.gens),
    "lcm_lattice": lambda args, result: len(result),
    "char_poset": lambda args, result: len(result),
    "verify_certificate": lambda args, result: len(args[1].intervals),
}

# (metric, unit) in the order reported; every one is present on every run
LAYER_METRICS = (
    ("sdepth.poset_s", "s"), ("sdepth.poset_points", "count"),
    ("sdepth.search_feasible_s", "s"), ("sdepth.search_infeasible_s", "s"),
    ("sdepth.search_capped_s", "s"), ("sdepth.search_calls", "count"),
    ("sdepth.capped_share", "share"),
    ("sdepth.verify_s", "s"), ("sdepth.cert_intervals", "count"),
    ("depth.quotient_s", "s"), ("depth.quotient_calls", "count"),
    ("depth.betti_s", "s"), ("depth.betti_calls", "count"),
    ("monomials.lattice_s", "s"), ("monomials.lattice_elems", "count"),
    ("monomials.polarize_s", "s"),
    ("monomials.edge_ideal_s", "s"),
    ("monomials.power_s", "s"), ("monomials.power_gens", "count"),
    ("graphs.build_s", "s"), ("graphs.stats_s", "s"),
    ("bounds.compare_s", "s"), ("bounds.closed_form_s", "s"),
    ("trace.wall_s", "s"), ("trace.coverage", "share"),
    ("workload.repeat_share", "share"),
)


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "child",
                 "outcome", "count")

    def __init__(self, id_, parent, name, op, start):
        self.id = id_
        self.parent = parent
        self.name = name
        self.op = op
        self.start = start
        self.end = start
        self.child = 0.0  # time covered by direct children
        self.outcome = "ok"
        self.count = 0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "op": self.op, "start": self.start, "end": self.end,
                "self": self.self_time, "outcome": self.outcome,
                "count": self.count}


class Tracer:
    """Records one span per call of a traced function.  ``op`` is the
    identifier of the operation in progress, shared by all its spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = None

    def install(self, package) -> None:
        """Wrap every traced function wherever the package holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for name in LAYER_OF:
            original = getattr(package, name)
            wrapper = self._wrap(name, original, package.ResourceCapError)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name, fn, cap_error):
        spans, stack = self.spans, self._stack
        counter = COUNT_OF.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.id if parent else None, name,
                        self.op, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.count = counter(args, result)
                if name == "sdepth_at_least":
                    span.outcome = "infeasible" if result is None else "feasible"
                return result
            except cap_error:
                span.outcome = "capped"
                raise
            except Exception:
                span.outcome = "error"
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start

        return traced

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer self times, call counts and work counts."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        search = {"feasible": 0.0, "infeasible": 0.0, "capped": 0.0, "error": 0.0}
        for s in self.spans:
            layer = LAYER_OF[s.name]
            self_s[layer] = self_s.get(layer, 0.0) + s.self_time
            calls[layer] = calls.get(layer, 0) + 1
            counts[layer] = counts.get(layer, 0) + s.count
            if layer == "sdepth.search":
                search[s.outcome] += s.self_time
        search_total = sum(search.values())
        covered = sum(self_s.values())
        return {
            "sdepth.poset_s": self_s.get("sdepth.poset", 0.0),
            "sdepth.poset_points": counts.get("sdepth.poset", 0),
            "sdepth.search_feasible_s": search["feasible"],
            "sdepth.search_infeasible_s": search["infeasible"],
            "sdepth.search_capped_s": search["capped"],
            "sdepth.search_calls": calls.get("sdepth.search", 0),
            "sdepth.capped_share": search["capped"] / search_total if search_total else 0.0,
            "sdepth.verify_s": self_s.get("sdepth.verify", 0.0),
            "sdepth.cert_intervals": counts.get("sdepth.verify", 0),
            "depth.quotient_s": self_s.get("depth.quotient", 0.0),
            "depth.quotient_calls": calls.get("depth.quotient", 0),
            "depth.betti_s": self_s.get("depth.betti", 0.0),
            "depth.betti_calls": calls.get("depth.betti", 0),
            "monomials.lattice_s": self_s.get("monomials.lattice", 0.0),
            "monomials.lattice_elems": counts.get("monomials.lattice", 0),
            "monomials.polarize_s": self_s.get("monomials.polarize", 0.0),
            "monomials.edge_ideal_s": self_s.get("monomials.edge_ideal", 0.0),
            "monomials.power_s": self_s.get("monomials.power", 0.0),
            "monomials.power_gens": counts.get("monomials.power", 0),
            "graphs.build_s": self_s.get("graphs.build", 0.0),
            "graphs.stats_s": self_s.get("graphs.stats", 0.0),
            "bounds.compare_s": self_s.get("bounds.compare", 0.0),
            "bounds.closed_form_s": self_s.get("bounds.closed_form", 0.0),
            "trace.wall_s": wall_s,
            "trace.coverage": covered / wall_s if wall_s else 0.0,
        }

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict(), separators=(",", ":")) + "\n")
