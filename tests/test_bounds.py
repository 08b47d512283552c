import time

import pytest

from treedepth import (ParameterError, bound_caterpillar, bound_lobster,
                       bound_prior_forest, build_caterpillar, build_lobster,
                       compare, graph_stats)
from treedepth import bounds as bounds_mod
from conftest import caterpillar_grid, lobster_grid

# the family instances of the benchmark's query-mix catalog
QUERY_MIX_INSTANCES = (
    ("caterpillar", (20, 5, 5)), ("lobster", (30, 3, 2)),
    ("lobster", (55, 3, 3)), ("caterpillar", (30, 6, 6)),
    ("lobster", (20, 2, 2)), ("caterpillar", (50, 10, 10)),
    ("caterpillar", (6, 4, 4)), ("caterpillar", (5, 3, 3)),
    ("lobster", (7, 3, 3)), ("caterpillar", (4, 4, 4)),
    ("caterpillar", (8, 3, 3)), ("lobster", (5, 2, 2)),
    ("caterpillar", (7, 2, 2)), ("lobster", (4, 2, 2)),
    ("caterpillar", (4, 3, 3)), ("caterpillar", (6, 2, 2)),
)


def caterpillar_power_formula(n, k, l, t):
    """The power-case estimate, written out directly for cross-checking."""
    if (n - t) % 2:
        return max(1, ((n - t - 1) // 2) * k + l - 1)
    if l >= 2:
        return max(1, ((n - t) // 2) * k)
    return max(1, ((n - t) // 2) * k - 1)


# ---------------------------------------------------------------------------
# caterpillar bound
# ---------------------------------------------------------------------------

def test_caterpillar_examples_from_literature():
    assert bound_caterpillar(4, 4, 4, 1) == 8
    assert bound_caterpillar(4, 4, 4, 2) == 4
    assert bound_caterpillar(5, 3, 3, 2) == 5
    assert bound_caterpillar(50, 10, 10, 15) == 179


def test_caterpillar_single_power_cases():
    assert bound_caterpillar(4, 3, 2, 1) == 5      # n even: (n-2)/2*k + l
    assert bound_caterpillar(5, 3, 2, 1) == 7      # n odd, l >= 2
    assert bound_caterpillar(5, 3, 1, 1) == 6      # n odd, l = 1
    assert bound_caterpillar(1, 4, 4, 1) == 1      # star base case
    assert bound_caterpillar(1, 4, 4, 7) == 1


def test_caterpillar_max_floor():
    assert bound_caterpillar(2, 5, 5, 9) == 1
    assert bound_caterpillar(3, 2, 1, 3) == 1


def test_caterpillar_domain():
    for bad in [(0, 2, 2, 1), (3, 1, 1, 1), (3, 3, 0, 1), (3, 3, 4, 1),
                (3, 3, 3, 0), (1, 3, 1, 1)]:
        with pytest.raises(ParameterError):
            bound_caterpillar(*bad)


def test_single_power_dominates_power_formula():
    # the t = 1 dispatch must never report less than the general estimate
    for n in range(2, 13):
        for k in range(2, 9):
            for l in range(1, k + 1):
                assert bound_caterpillar(n, k, l, 1) >= \
                    caterpillar_power_formula(n, k, l, 1), (n, k, l)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_full_pendant_specialization(t):
    # with l = k the general formula collapses to the two-case corollary
    for n in range(2, 13):
        for k in range(2, 9):
            if (n - t) % 2:
                expected = max(1, ((n - t + 1) // 2) * k - 1)
            else:
                expected = max(1, ((n - t) // 2) * k)
            assert bound_caterpillar(n, k, k, t) == expected, (n, k, t)


def test_parity_divisions_are_exact_across_grid():
    # smoke the parity assertion over a wide grid; an inexact division
    # would raise AssertionError inside
    for n in range(1, 13):
        for k in range(2, 9):
            for l in range(1, k + 1):
                if n == 1 and l != k:
                    continue
                for t in range(1, 8):
                    assert bound_caterpillar(n, k, l, t) >= 1


# ---------------------------------------------------------------------------
# lobster bound
# ---------------------------------------------------------------------------

def test_lobster_examples_from_literature():
    assert bound_lobster(4, 2, 2, 2) == 3
    assert bound_lobster(5, 2, 2, 2) == 4
    assert bound_lobster(55, 3, 3, 10) == 46
    assert bound_lobster(2, 1, 0, 5) == 1


def test_lobster_single_power_matches_direct_formula():
    for r in range(2, 13):
        for p in range(1, 7):
            for q in range(0, p + 1):
                direct = r - 1 if q == 0 else r
                assert bound_lobster(r, p, q, 1) == direct


def test_lobster_full_pendant_specialization():
    for r in range(2, 13):
        for p in range(1, 7):
            for t in range(1, 9):
                assert bound_lobster(r, p, p, t) == max(1, r - t + 1)


def test_lobster_domain():
    for bad in [(1, 1, 1, 1), (2, 0, 0, 1), (2, 2, 3, 1), (2, 1, 1, 0)]:
        with pytest.raises(ParameterError):
            bound_lobster(*bad)


# ---------------------------------------------------------------------------
# prior forest bounds
# ---------------------------------------------------------------------------

def test_prior_examples_from_literature():
    assert bound_prior_forest(51, 1, 15, a=2) == 13
    assert bound_prior_forest(4, 1, 10, a=55) == 17
    assert bound_prior_forest(0, 3, 1) == 3


def test_prior_negative_numerator_ceiling():
    # ceil(-4/3) = -1, then the component count takes over
    assert bound_prior_forest(4, 1, 10) == 1
    assert bound_prior_forest(4, 2, 10) == 2


def test_prior_domain():
    with pytest.raises(ParameterError):
        bound_prior_forest(-1, 1, 1)
    with pytest.raises(ParameterError):
        bound_prior_forest(3, 0, 1)


# ---------------------------------------------------------------------------
# compare()
# ---------------------------------------------------------------------------

def test_compare_large_caterpillar_reproduces_gap():
    report = compare("caterpillar", (50, 10, 10), 15)
    assert report.new_bound == 179
    assert report.prior_nearleaf_bound == 13
    assert report.prior_diam_bound == 13
    assert report.exact_depth is None
    assert report.status == "ok"


def test_compare_large_lobster_reproduces_gap():
    report = compare("lobster", (55, 3, 3), 10)
    assert report.new_bound == 46
    assert report.prior_nearleaf_bound == 17
    assert report.prior_diam_bound == 1


def test_compare_exact_small_caterpillar():
    report = compare("caterpillar", (4, 4, 4), 1, compute_exact=True)
    assert (report.new_bound, report.exact_depth, report.exact_sdepth) == (8, 8, 8)
    assert report.status == "ok"
    assert report.exact_depth >= report.new_bound
    assert report.exact_sdepth >= report.new_bound


def test_compare_budget_caps_not_raises():
    report = compare("caterpillar", (6, 5, 5), 2, compute_exact=True,
                     budget_s=0.0)
    assert report.status == "capped"
    assert report.depth_capped and report.sdepth_capped


def test_compare_budget_covers_forming_the_power():
    # P(6,4,4) at t=6 has 376 740 products to form, seconds of work
    start = time.monotonic()
    report = compare("caterpillar", (6, 4, 4), 6, compute_exact=True,
                     budget_s=0.05)
    assert time.monotonic() - start < 1
    assert report.depth_capped and report.sdepth_capped


def test_compare_rejects_unknown_family():
    with pytest.raises(ParameterError):
        compare("binarytree", (3, 3, 3), 1)


def test_report_csv_dict_shape():
    report = compare("lobster", (4, 2, 1), 2)
    d = report.to_dict()
    assert d["family"] == "lobster"
    assert (d["r"], d["p"], d["q"], d["t"]) == (4, 2, 1, 2)
    assert d["new_bound"] == bound_lobster(4, 2, 1, 2)
    assert d["status"] == "ok"
    assert "n" not in d


def test_cached_graph_stats_equal_a_fresh_build():
    instances = (QUERY_MIX_INSTANCES
                 + tuple(("caterpillar", p) for p in caterpillar_grid())
                 + tuple(("lobster", p) for p in lobster_grid()))
    for family, params in instances:
        build = build_caterpillar if family == "caterpillar" else build_lobster
        fresh = graph_stats(build(*params))
        for _ in range(2):  # a miss, then a hit
            assert bounds_mod._family_stats(family, params) == fresh, params


def test_compare_builds_a_graph_only_for_exact_values(monkeypatch):
    first = compare("lobster", (6, 2, 1), 2)

    def refuse(*args):
        raise AssertionError("graph built")

    monkeypatch.setattr(bounds_mod, "build_lobster", refuse)
    assert compare("lobster", (6, 2, 1), 2) == first
    assert compare("lobster", (6, 2, 1), 3).prior_diam_bound == 1
    with pytest.raises(AssertionError, match="graph built"):
        compare("lobster", (6, 2, 1), 2, compute_exact=True)


def test_bad_parameters_are_never_cached():
    before = bounds_mod.stats_info()
    for family, params in (("caterpillar", (0, 3, 3)), ("caterpillar", (1, 3, 2)),
                           ("lobster", (1, 2, 2)), ("lobster", (3, 2, 3))):
        with pytest.raises(ParameterError):
            compare(family, params, 1)
    assert bounds_mod.stats_info() == before
