"""Tests of the benchmark's own checks, at small sizes: each check accepts
the program's real answers and rejects a deliberately wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from arrwwid import catalog, locality  # noqa: E402
from arrwwid.certify import certify_max_degree  # noqa: E402
from arrwwid.cover import QueryRange, SamplePlan, cover_fragments, estimate_arrwwid  # noqa: E402
from arrwwid.curves import classify_connections, vertex_audit  # noqa: E402
from arrwwid.locality import comparison_table, point_indices  # noqa: E402
from arrwwid.rules import parse_ruleset, validate_ruleset  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, Geometry  # noqa: E402

DEPTH = 3


def rejects(check, *args):
    with pytest.raises(CheckError):
        check(*args)


@pytest.fixture(scope="module")
def hilbert():
    entry = catalog.builtin("hilbert")
    ipts, pts = workloads.dyadic_points(np.random.default_rng(0), 2048, 2)
    positions = point_indices(entry.ruleset, pts, DEPTH)
    order = {"rs": entry.ruleset, "kappa": entry.window_kappa, "leaves": 4 ** DEPTH,
             "positions": positions, "sorted": np.sort(positions)}
    geo = Geometry(entry.ruleset)
    grids = [None] + [checks.scan_grid(geo, level) for level in range(1, DEPTH + 1)]
    return entry, order, grids, ipts


def _answer(hilbert, spec):
    entry, order, grids, ipts = hilbert
    kind, center, size, budget = spec
    q = (QueryRange("ball", center, radius=size) if kind == "ball"
         else QueryRange("box", center, half_extents=size))
    rep, ranges, scanned = workloads.answer(order, q, budget)

    def check(rep=rep, ranges=ranges, scanned=scanned):
        checks.check_range_query(spec, 2, entry.window_kappa, entry.expected_arrwwid, grids,
                                 rep, ranges, scanned, ipts, order["positions"])
    return rep, ranges, scanned, check


# a ball on the vertex (1/2, 1/2) at level 2: four tiles in several fragments
BALL = ("ball", (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 10), None)


def test_range_query_accepts_real_answers(hilbert):
    for spec in (BALL,
                 ("ball", (Fraction(3, 10), Fraction(7, 11)), Fraction(1, 20), None),
                 ("box", (Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 20), Fraction(1, 30)), None),
                 ("ball", (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 10), 1000.0)):
        _answer(hilbert, spec)[-1]()


def test_range_query_rejects_a_dropped_tile(hilbert):
    rep, ranges, scanned, check = _answer(hilbert, BALL)
    wrong = copy.copy(rep)
    wrong.tiles = rep.tiles[:-1]
    wrong.fragments = [[a for a in f if a != rep.tiles[-1]] for f in rep.fragments]
    wrong.fragments = [f for f in wrong.fragments if f]
    rejects(check, wrong)


def test_range_query_rejects_a_fragment_count_off_by_one(hilbert):
    rep, ranges, scanned, check = _answer(hilbert, BALL)
    assert rep.fragment_count >= 2
    wrong = copy.copy(rep)
    wrong.fragments = [rep.fragments[0] + rep.fragments[1]] + rep.fragments[2:]
    rejects(check, wrong)
    long = max(rep.fragments, key=len)
    if len(long) > 1:
        wrong.fragments = [f for f in rep.fragments if f is not long] + [long[:1], long[1:]]
        rejects(check, wrong)


def test_range_query_rejects_wrong_ranges_and_counts(hilbert):
    rep, ranges, scanned, check = _answer(hilbert, BALL)
    rejects(check, rep, [(lo + 1, hi) for lo, hi in ranges], scanned)
    rejects(check, rep, ranges, scanned + 1)


def test_range_query_rejects_a_wrong_merged_area(hilbert):
    spec = ("ball", (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 10), 1000.0)
    rep, ranges, scanned, check = _answer(hilbert, spec)
    assert rep.fragment_count == 1
    wrong = copy.copy(rep)
    wrong.total_area = rep.total_area * 2
    rejects(check, wrong)


def test_point_index_check(hilbert):
    entry, order, grids, ipts = hilbert
    checks.check_point_index(grids[-1], ipts, order["positions"])
    wrong = order["positions"].copy()
    i, j = 0, int(np.nonzero(wrong != wrong[0])[0][0])
    wrong[i], wrong[j] = wrong[j], wrong[i]
    rejects(checks.check_point_index, grids[-1], ipts, wrong)


def test_estimate_check():
    rs = catalog.builtin("hilbert").ruleset
    est = estimate_arrwwid(rs, SamplePlan(depths=(3,), n_random=2, seed=1))

    def recheck(w):
        rep = cover_fragments(rs, QueryRange("ball", w.center, w.radius))
        return rep.tile_count, rep.fragment_count

    checks.check_estimate(est, 4, recheck)
    rejects(checks.check_estimate, est, 3, recheck)
    wrong = copy.copy(est)
    wrong.fragments_witness = copy.copy(est.fragments_witness)
    w = wrong.fragments_witness
    # the center of a tile at the witness level: one tile, one fragment
    w.center = tuple(c + Fraction(1, 2 ** (w.level + 1)) for c in w.center)
    rejects(checks.check_estimate, wrong, 4, recheck)


def test_connection_check():
    rs = catalog.builtin("kochel").ruleset
    stats = classify_connections(rs, 2)
    tiles = checks.leaf_count(rs, 2)
    checks.check_connections(stats, tiles, False, False)
    wrong = copy.copy(stats)
    wrong.vertical += 1
    rejects(checks.check_connections, wrong, tiles, False, False)
    wrong.vertical -= 1
    wrong.horizontal -= 1
    wrong.jump += 1
    rejects(checks.check_connections, wrong, tiles, False, False)


def test_audit_check():
    audits = vertex_audit(catalog.builtin("zorder3d").ruleset, 2)
    checks.check_audits(audits, 2, 2)
    rejects(checks.check_audits, audits[1:], 2, 2)
    wrong = copy.copy(audits[0])
    wrong.tiles_v = 7
    rejects(checks.check_audits, [wrong] + audits[1:], 2, 2)


def test_table_check(monkeypatch):
    orders = {n: catalog.builtin(n).ruleset for n in ("hilbert", "zorder")}
    ipts, pts = workloads.dyadic_points(np.random.default_rng(2), 512, 2)
    balls = [((Fraction(1, 3), Fraction(2, 5)), Fraction(1, 9)),
             ((Fraction(3, 5), Fraction(1, 2)), Fraction(1, 17))]
    queries = [QueryRange("ball", c, r) for c, r in balls]
    inside = sum(len(checks.points_inside("ball", c, r, ipts)) for c, r in balls)
    expected = {}
    for name, rs in orders.items():
        geo = Geometry(rs)
        expected[name] = (checks.table_depth(geo),) + checks.table_expectation(
            geo, ipts, balls, Fraction(2))
    rows = comparison_table(orders, pts, queries, [1.0, 10.0])
    checks.check_table(rows, expected, len(queries), inside)
    rejects(checks.check_table, rows, expected, len(queries), inside + 1)
    for field, delta in (("false_answers", 1), ("fragments", 1), ("depth", -1)):
        wrong = [dict(rows[0], **{field: rows[0][field] + delta})] + rows[1:]
        rejects(checks.check_table, wrong, expected, len(queries), inside)
    # one point fewer scanned and one fewer false answer: the count inside holds
    wrong = [dict(rows[0], points_scanned=rows[0]["points_scanned"] - 1,
                  false_answers=rows[0]["false_answers"] - 1)] + rows[1:]
    rejects(checks.check_table, wrong, expected, len(queries), inside)
    # a table made with covers that drop their last tile
    real = locality.cover_fragments

    def drop_last_tile(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.fragments = [run for run in rep.fragments[:-1] + [rep.fragments[-1][:-1]] if run]
        return rep

    monkeypatch.setattr(locality, "cover_fragments", drop_last_tile)
    rows = comparison_table(orders, pts, queries, [1.0])
    rejects(checks.check_table, rows, expected, len(queries), inside)


def test_certificate_check():
    hilbert = catalog.builtin("hilbert").ruleset
    cert = certify_max_degree(hilbert, 3)
    checks.check_certificate(cert, Geometry(hilbert), False)
    wrong = copy.copy(cert)
    # the center of a tile meets that tile alone
    wrong.vertex = tuple(v + Fraction(1, 2 ** (cert.depth + 1)) for v in cert.vertex)
    rejects(checks.check_certificate, wrong, Geometry(hilbert), False)
    rejects(checks.check_certificate, cert, Geometry(hilbert), True)
    daun = catalog.builtin("daun").ruleset
    cert = certify_max_degree(daun, 3)
    checks.check_certificate(cert, Geometry(daun), True)
    rejects(checks.check_certificate, cert, Geometry(daun), False)


def test_rect_search_check():
    daun = Geometry(catalog.builtin("daun").ruleset)
    key = checks.layout_key(daun)
    checks.check_rect_search([daun], key, depths=(1, 2))
    rejects(checks.check_rect_search, [], key)
    quadtree = Geometry(catalog.builtin("quadtree").ruleset)
    rejects(checks.check_rect_search, [quadtree], checks.layout_key(quadtree), 3, (1,))
    rejects(checks.check_rect_search, [quadtree], key, 4, (1,))
    gap = copy.copy(daun)
    gap.children = {r: kids[1:] for r, kids in daun.children.items()}
    rejects(checks.check_rect_search, [gap], key, 3, (1,))


@pytest.mark.parametrize("rot,reflect", [(3, False), (6, True)])
def test_conjugated_inputs_keep_their_properties(rot, reflect):
    text = workloads.conjugate(catalog.builtin("daun").ruleset, rot, reflect)
    rs = parse_ruleset(text, name="daun")
    assert validate_ruleset(rs).valid
    assert certify_max_degree(rs, 3).certified
    assert checks.grid_degree(Geometry(rs), 2) == 3
