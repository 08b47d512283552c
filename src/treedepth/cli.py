"""Command-line front end.

Subcommands: gen, ideal, depth, sdepth, bound, verify, lemmas.

Exit codes: 0 success, 1 mathematical violation (a falsified bound or
identity), 2 usage or parameter error, 3 resource cap.  Identical inputs and
flags produce byte-identical output files; the harness only formats what the
library computes.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import click

from . import __version__
from .bounds import compare
from .depth import depth_quotient
from .errors import ParameterError, ResourceCapError
from .graphs import Graph, build_caterpillar, build_lobster
from .lemmas import run_all
from .monomials import MonomialIdeal, edge_ideal, ideal_power
from .sdepth import sdepth_quotient

EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3

CSV_COLUMNS = ["family", "n", "k", "l", "r", "p", "q", "t", "new_bound",
               "diam_bound", "nearleaf_bound", "depth", "sdepth", "status"]


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
@click.version_option(__version__)
def main():
    """Depth and Stanley depth of powers of tree edge ideals.

    The environment variable TREEDEPTH_CAP overrides the lcm-lattice and
    characteristic-poset size caps."""


@main.command("gen")
@click.argument("family", type=click.Choice(["caterpillar", "lobster"]))
@click.option("--n", type=int, help="caterpillar spine length")
@click.option("--k", type=int, help="caterpillar pendants per spine vertex, plus one")
@click.option("--l", type=int, default=None, help="pendants kept at the last spine vertex, plus one (default k)")
@click.option("--r", type=int, help="lobster spoke count")
@click.option("--p", type=int, help="lobster pendants per spoke")
@click.option("--q", type=int, default=None, help="pendants kept at the last spoke (default p)")
@click.option("-o", "out_path", type=click.Path(), required=True)
def cmd_gen(family, n, k, l, r, p, q, out_path):
    """Write a family tree as a graph JSON file."""
    try:
        if family == "caterpillar":
            if n is None or k is None:
                _fail(EXIT_USAGE, "caterpillar needs --n and --k")
            graph = build_caterpillar(n, k, l)
        else:
            if r is None or p is None:
                _fail(EXIT_USAGE, "lobster needs --r and --p")
            graph = build_lobster(r, p, q)
    except ParameterError as exc:
        _fail(EXIT_USAGE, str(exc))
    with open(out_path, "w") as fh:
        fh.write(graph.to_json())


@main.command("ideal")
@click.argument("graph_path", type=click.Path(exists=True))
@click.option("--t", type=int, default=1, show_default=True, help="power of the edge ideal")
@click.option("-o", "out_path", type=click.Path(), required=True)
def cmd_ideal(graph_path, t, out_path):
    """Write the minimal generators of I(G)^t as an ideal JSON file."""
    try:
        with open(graph_path) as fh:
            graph = Graph.from_json(fh.read())
        result = ideal_power(edge_ideal(graph), t)
    except (ParameterError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_USAGE, f"bad input: {exc}")
    with open(out_path, "w") as fh:
        fh.write(result.to_json())


def _load_ideal(path) -> MonomialIdeal:
    try:
        with open(path) as fh:
            return MonomialIdeal.from_json(fh.read())
    except (ParameterError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_USAGE, f"bad ideal file: {exc}")


@main.command("depth")
@click.argument("ideal_path", type=click.Path(exists=True))
@click.option("--field-char", type=int, default=32003, show_default=True)
@click.option("--budget", type=float, default=None, help="time budget in seconds")
def cmd_depth(ideal_path, field_char, budget):
    """Exact depth of S/I; prints the value, then a JSON detail line."""
    ideal = _load_ideal(ideal_path)
    try:
        res = depth_quotient(ideal, field_char, budget_s=budget)
    except ParameterError as exc:
        _fail(EXIT_USAGE, str(exc))
    except ResourceCapError as exc:
        _fail(EXIT_CAPPED, str(exc))
    click.echo(res.depth)
    click.echo(json.dumps({
        "depth": res.depth, "proj_dim": res.proj_dim,
        "ambient_size": res.ambient_size, "field_char": res.field_char,
        "method": res.method}, separators=(",", ":")))


@main.command("sdepth")
@click.argument("ideal_path", type=click.Path(exists=True))
@click.option("--certificate", "cert_path", type=click.Path(), default=None,
              help="write the witness interval partition here")
@click.option("--start", type=int, default=None,
              help="lower-bound hint to seed the search; a hint above the "
              "answer makes the first step a whole-poset infeasibility "
              "search without up-set probes, which can run out of budget "
              "where a lower hint answers")
@click.option("--budget", type=float, default=None, help="time budget in seconds")
def cmd_sdepth(ideal_path, cert_path, start, budget):
    """Exact Stanley depth of S/I; prints the value."""
    ideal = _load_ideal(ideal_path)
    try:
        value, cert = sdepth_quotient(ideal, start=start, budget_s=budget)
    except ParameterError as exc:
        _fail(EXIT_USAGE, str(exc))
    except ResourceCapError as exc:
        _fail(EXIT_CAPPED, str(exc))
    click.echo(value)
    if cert_path:
        with open(cert_path, "w") as fh:
            fh.write(cert.to_json())


@main.command("bound")
@click.argument("family", type=click.Choice(["caterpillar", "lobster"]))
@click.option("--n", type=int)
@click.option("--k", type=int)
@click.option("--l", type=int, default=None)
@click.option("--r", type=int)
@click.option("--p", type=int)
@click.option("--q", type=int, default=None)
@click.option("--t", type=int, required=True)
def cmd_bound(family, n, k, l, r, p, q, t):
    """Evaluate the new bound and the prior forest bounds for one instance."""
    try:
        if family == "caterpillar":
            params = (n, k, l if l is not None else k)
        else:
            params = (r, p, q if q is not None else p)
        if any(v is None for v in params):
            _fail(EXIT_USAGE, f"missing parameters for {family}")
        report = compare(family, params, t)
    except ParameterError as exc:
        _fail(EXIT_USAGE, str(exc))
    click.echo(json.dumps(report.to_dict(), separators=(",", ":")))


def _parse_range(text: str) -> range:
    if ":" in text:
        a, b = text.split(":", 1)
        return range(int(a), int(b) + 1)
    v = int(text)
    return range(v, v + 1)


def _grid_cells(family, n_range, k_range, l_range, r_range, p_range, q_range, t_range):
    cells = []
    if family in ("caterpillar", "all"):
        for n in n_range:
            for k in k_range:
                ls = l_range if l_range is not None else range(1, k + 1)
                for l in ls:
                    if l > k:
                        continue
                    for t in t_range:
                        cells.append(("caterpillar", (n, k, l), t))
    if family in ("lobster", "all"):
        for r in r_range:
            for p in p_range:
                qs = q_range if q_range is not None else range(0, p + 1)
                for q in qs:
                    if q > p:
                        continue
                    for t in t_range:
                        cells.append(("lobster", (r, p, q), t))
    return cells


def _run_cell(args):
    family, params, t, exact, budget, field_char = args
    try:
        return compare(family, params, t, compute_exact=exact,
                       budget_s=budget, field_char=field_char)
    except ParameterError:
        return None


@main.command("verify")
@click.option("--family", type=click.Choice(["caterpillar", "lobster", "all"]),
              default="all", show_default=True)
@click.option("--n", "n_range", default="2:4", show_default=True, help="spine range A:B")
@click.option("--k", "k_range", default="2:3", show_default=True)
@click.option("--l", "l_range", default=None, help="default: 1..k")
@click.option("--r", "r_range", default="2:4", show_default=True)
@click.option("--p", "p_range", default="1:2", show_default=True)
@click.option("--q", "q_range", default=None, help="default: 0..p")
@click.option("--t", "t_range", default="1:2", show_default=True)
@click.option("--exact/--no-exact", default=True, show_default=True,
              help="compute exact depth and sdepth per cell")
@click.option("--budget", type=float, default=600.0, show_default=True,
              help="per-cell time budget in seconds")
@click.option("--field-char", type=int, default=32003, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("-o", "out_base", type=click.Path(), required=True,
              help="report base path; writes <base>.json and <base>.csv")
def cmd_verify(family, n_range, k_range, l_range, r_range, p_range, q_range,
               t_range, exact, budget, field_char, workers, out_base):
    """Run the bound-soundness sweep over a parameter grid.

    Exits 1 if any completed exact value falls below the proven bound."""
    try:
        cells = _grid_cells(
            family,
            _parse_range(n_range), _parse_range(k_range),
            _parse_range(l_range) if l_range else None,
            _parse_range(r_range), _parse_range(p_range),
            _parse_range(q_range) if q_range else None,
            _parse_range(t_range))
    except ValueError as exc:
        _fail(EXIT_USAGE, f"bad range: {exc}")
    if not cells:
        _fail(EXIT_USAGE, "empty parameter grid")

    jobs = [(fam, params, t, exact, budget, field_char)
            for fam, params, t in cells]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_cell, jobs))
    else:
        reports = [_run_cell(j) for j in jobs]
    reports = [r for r in reports if r is not None]
    reports.sort(key=lambda r: (r.family, r.params, r.t))

    violations = [r for r in reports if r.status == "bound_violated"]
    capped = [r for r in reports if r.status == "capped"]
    payload = {
        "tool_version": __version__,
        "field_char": field_char,
        "rows": [r.to_dict() for r in reports],
        "violations": len(violations),
        "capped": len(capped),
    }
    with open(f"{out_base}.json", "w") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
    with open(f"{out_base}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for r in reports:
            row = {c: "" for c in CSV_COLUMNS}
            row.update({k: ("" if v is None else v) for k, v in r.to_dict().items()})
            writer.writerow(row)
    click.echo(f"{len(reports)} cells, {len(capped)} capped, {len(violations)} violations")
    if violations:
        for r in violations:
            click.echo(f"VIOLATION: {r.to_dict()}", err=True)
        sys.exit(EXIT_VIOLATION)


@main.command("lemmas")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--cases", type=int, default=100, show_default=True)
@click.option("--field-char", type=int, default=32003, show_default=True)
@click.option("--inject-fault", is_flag=True, default=False,
              help="negative control: corrupt one side of each identity")
def cmd_lemmas(seed, cases, field_char, inject_fault):
    """Run the ideal-identity and structural property suites."""
    if seed <= 0 or cases <= 0:
        _fail(EXIT_USAGE, "seed and case count must be positive")
    results = run_all(seed, cases, inject_fault=inject_fault,
                      field_char=field_char)
    bad = False
    for res in results:
        click.echo(f"{res.name}: {res.passed} passed, {res.failed} failed")
        if not res.ok:
            bad = True
            for ce in res.counterexamples[:3]:
                click.echo(f"  counterexample: {json.dumps(ce, separators=(',', ':'))}",
                           err=True)
    if bad:
        sys.exit(EXIT_VIOLATION)


if __name__ == "__main__":
    main()
