from fractions import Fraction

import numpy as np
import pytest

from arrwwid import catalog
from arrwwid.cover import QueryRange, cover_fragments, scan_raster
from arrwwid.locality import (CostModel, simulate, uniform_points, ball_queries,
                              comparison_table, auto_depth, _descend_index)


def test_whole_domain_query(hilbert):
    pts = uniform_points(500, seed=2)
    q = QueryRange("ball", (Fraction(1, 2), Fraction(1, 2)), Fraction(499, 1000))
    model = CostModel(seek_cost=5.0, scan_cost=1.0)
    rep = simulate(hilbert, pts, [q], model, depth=4)
    qc = rep.per_query[0]
    assert qc.fragments == 1
    assert qc.points_scanned == 500
    assert qc.cost == 5.0 + 500.0


def test_cost_identity(dekking):
    pts = uniform_points(2000, seed=3)
    queries = ball_queries(12, 0.06, seed=4)
    model = CostModel(seek_cost=7.0, scan_cost=0.25)
    rep = simulate(dekking, pts, queries, model)
    for qc in rep.per_query:
        assert qc.cost == 7.0 * qc.fragments + 0.25 * qc.points_scanned
        assert qc.points_inside <= qc.points_scanned


def test_scan_zero_matches_cover_fragments(kochel):
    pts = uniform_points(800, seed=5)
    queries = ball_queries(10, 0.05, seed=6)
    model = CostModel(seek_cost=1.0, scan_cost=0.0)
    rep = simulate(kochel, pts, queries, model)
    expected = sum(cover_fragments(kochel, q).fragment_count for q in queries)
    assert rep.total_cost == expected
    assert rep.total_fragments == expected


def test_cost_additivity(hilbert):
    pts = uniform_points(1000, seed=7)
    queries = ball_queries(8, 0.04, seed=8)
    model = CostModel(seek_cost=2.0, scan_cost=1.0)
    whole = simulate(hilbert, pts, queries, model)
    parts = [simulate(hilbert, pts, [q], model) for q in queries]
    assert whole.total_cost == sum(p.total_cost for p in parts)


def test_determinism(coil):
    pts = uniform_points(1500, seed=9)
    queries = ball_queries(10, 0.05, seed=10)
    model = CostModel(seek_cost=3.0, scan_cost=1.0)
    a = simulate(coil, pts, queries, model).summary()
    b = simulate(coil, pts, queries, model).summary()
    assert a == b


def test_auto_depth(hilbert, dekking, peano):
    assert auto_depth(hilbert) == 6       # 4^6 = 4096 leaves
    assert auto_depth(dekking) == 3       # 25^3 = 15625
    assert auto_depth(peano) == 4         # 9^4 = 6561


def test_comparison_table_spread(hilbert, zorder):
    pts = uniform_points(2000, seed=11)
    queries = ball_queries(10, 0.05, seed=12)
    rows = comparison_table({"hilbert": hilbert, "zorder": zorder},
                            pts, queries, ratios=[1.0, 100.0])
    assert len(rows) == 4
    for row in rows:
        assert row["total_cost"] == pytest.approx(
            row["seek_cost"] * row["fragments"] + row["scan_cost"] * row["points_scanned"])
    by_ratio = {}
    for row in rows:
        by_ratio.setdefault(row["seek_scan_ratio"], []).append(row)
    for ratio, group in by_ratio.items():
        costs = [r["total_cost"] for r in group]
        spread = (max(costs) - min(costs)) / min(costs)
        assert group[0]["spread_at_ratio"] == pytest.approx(spread)


@pytest.mark.parametrize("name", ["hilbert", "dekking", "kochel"])
def test_descent_owner_matches_raster_on_lattice_points(name):
    # half-open ownership: (i/n, j/n) belongs to cell (i, j), clipped at the
    # unit's upper faces, exactly as the raster's floor-and-clip reads it
    rs = catalog.builtin(name).ruleset
    ids, _ = scan_raster(rs, 2)
    n = ids.shape[0]
    for i in range(n + 1):
        for j in range(n + 1):
            owner = _descend_index(rs, (i / n, j / n), 2)
            assert owner == ids[min(i, n - 1), min(j, n - 1)], (i, j)
