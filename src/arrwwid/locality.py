"""Seek/scan cost simulation for curve-ordered point sets.

Points are assigned to depth-k tiles of a scanning order and stored in curve
order; answering a range query scans, for each covering fragment, the full
run of stored points between the fragment's first and last tile.  Cost is
seek_cost per fragment plus scan_cost per point scanned (false answers
included).  Everything is deterministic given the inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cover import cover_fragments, QueryRange
from .exact import coord
from .expand import (BudgetError, DEFAULT_TILE_BUDGET, count_tiles, prefix_table,
                     scan_raster, state_table, walk)
from .rules import RuleError
from .shapes import Box


class CostModel:
    def __init__(self, seek_cost, scan_cost):
        if seek_cost < 0 or scan_cost < 0:
            raise ValueError("costs must be nonnegative")
        self.seek_cost = seek_cost
        self.scan_cost = scan_cost

    def __repr__(self):
        return "CostModel(seek=%g, scan=%g)" % (self.seek_cost, self.scan_cost)


class QueryCost:
    __slots__ = ("fragments", "points_scanned", "points_inside", "cost")

    def __init__(self, fragments, scanned, inside, cost):
        self.fragments = fragments
        self.points_scanned = scanned
        self.points_inside = inside
        self.cost = cost

    @property
    def false_answers(self):
        return self.points_scanned - self.points_inside


class CostReport:
    def __init__(self, order_name, model, depth, per_query):
        self.order_name = order_name
        self.model = model
        self.depth = depth
        self.per_query = per_query

    @property
    def total_cost(self):
        return sum(q.cost for q in self.per_query)

    @property
    def total_fragments(self):
        return sum(q.fragments for q in self.per_query)

    @property
    def total_scanned(self):
        return sum(q.points_scanned for q in self.per_query)

    @property
    def total_false(self):
        return sum(q.false_answers for q in self.per_query)

    def summary(self):
        return {"order": self.order_name, "depth": self.depth,
                "seek_cost": self.model.seek_cost, "scan_cost": self.model.scan_cost,
                "queries": len(self.per_query), "fragments": self.total_fragments,
                "points_scanned": self.total_scanned,
                "false_answers": self.total_false,
                "total_cost": self.total_cost}


def point_indices(rs, points, depth):
    """Scan index of the depth-level tile owning each point.

    A tile owns the points p with lo <= p < hi on each axis, and also those
    on the unit tile's upper faces; lattice rule sets read the owner off the
    scan raster, others descend the rule tree.
    """
    if state_table(rs) is not None:
        ids, pitch = scan_raster(rs, depth)
        p = float(pitch)
        lo = [float(v) for v in rs.unit_rule.base.lo]
        pts = np.asarray(points, dtype=float)
        idx = []
        for ax in range(rs.dim):
            cells = np.floor((pts[:, ax] - lo[ax]) / p).astype(np.int64)
            idx.append(np.clip(cells, 0, ids.shape[ax] - 1))
        return ids[tuple(idx)]
    out = np.empty(len(points), dtype=np.int64)
    for i, pt in enumerate(points):
        out[i] = _descend_index(rs, pt, depth)
    return out


def _descend_index(rs, pt, depth):
    p = tuple(coord(Fraction(v).limit_denominator(10 ** 12)) for v in pt)
    unit = rs.unit_rule.base
    rules = rs.rules

    def misses(address, rule_name, transform, rev, lo, length):
        geom = rules[rule_name].base.transform(transform)
        if not isinstance(geom, Box):
            return not geom.contains_point(p)
        return any((v - l).sign() < 0 or (v - h).sign() > 0 or (v == h and h != u)
                   for v, l, h, u in zip(p, geom.lo, geom.hi, unit.hi))

    for _, _, _, _, lo, _ in walk(rs, depth, prune=misses):
        return lo * count_tiles(rs, depth) // prefix_table(rs)[0] ** depth
    raise RuleError("point %r escaped the unit tile" % (pt,))


def auto_depth(rs, target=6, max_leaves=20000):
    """Deepest level whose leaf count stays manageable (depth 6 for size-4)."""
    depth = 1
    while depth < target and count_tiles(rs, depth + 1) <= max_leaves:
        depth += 1
    return depth


def simulate(rs, points, queries, model, depth=None, kappa=Fraction(2),
             name=None):
    """Cost of answering each query against curve-ordered points."""
    if depth is None:
        depth = auto_depth(rs)
    n_leaves = count_tiles(rs, depth)
    idx = np.sort(point_indices(rs, points, depth))
    pts = np.asarray(points, dtype=float)
    per_query = []
    for q in queries:
        rep = cover_fragments(rs, q, kappa=kappa)
        scanned = 0
        interval = dict(zip(rep.tiles, rep.intervals))
        for run in rep.fragments:
            lo = interval[run[0]].lo * n_leaves
            hi = interval[run[-1]].hi * n_leaves
            a = int(np.searchsorted(idx, int(lo), side="left"))
            b = int(np.searchsorted(idx, int(math.ceil(hi)) - 1, side="right"))
            scanned += b - a
        inside = _count_inside(q, pts)
        cost = model.seek_cost * rep.fragment_count + model.scan_cost * scanned
        per_query.append(QueryCost(rep.fragment_count, scanned, inside, cost))
    return CostReport(name or rs.name or rs.unit, model, depth, per_query)


def _count_inside(q, pts):
    c = np.array([float(v) for v in q.center])
    if q.kind == "ball":
        r = float(q.radius)
        return int((((pts - c) ** 2).sum(axis=1) <= r * r + 1e-15).sum())
    h = np.array([float(v) for v in q.half_extents])
    return int((np.abs(pts - c) <= h + 1e-15).all(axis=1).sum())


def uniform_points(n, seed, dim=2, base=None):
    """Deterministic uniform points in the unit tile."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    if base is not None:
        lo = np.array([float(v) for v in base.lo])
        hi = np.array([float(v) for v in base.hi])
        pts = lo + pts * (hi - lo)
    return pts


def ball_queries(n, radius, seed, dim=2, base=None):
    """Deterministic ball queries fully inside the unit tile."""
    rng = np.random.default_rng(seed)
    lo = np.zeros(dim) if base is None else np.array([float(v) for v in base.lo])
    hi = np.ones(dim) if base is None else np.array([float(v) for v in base.hi])
    queries = []
    while len(queries) < n:
        c = rng.random(dim)
        c = lo + c * (hi - lo)
        if ((c - lo) >= radius).all() and ((hi - c) >= radius).all():
            center = tuple(Fraction(v).limit_denominator(10 ** 9) for v in c)
            queries.append(QueryRange("ball", center, Fraction(radius).limit_denominator(10 ** 9)))
    return queries


def comparison_table(orders, points, queries, ratios, depth=None, scan_cost=1.0):
    """Cost table across orders and seek/scan ratios; per-ratio relative spread.

    Depth defaults to the deepest level per order with a manageable leaf
    count, so different subdivision sizes line up at comparable tile sizes.
    Every order's leaf count is checked against the tile budget before any
    order is simulated.
    """
    depths = {name: depth if depth is not None else auto_depth(rs)
              for name, rs in orders.items()}
    for name, rs in orders.items():
        n = count_tiles(rs, depths[name])
        if n > DEFAULT_TILE_BUDGET:
            raise BudgetError("%s at depth %d has %d tiles (budget %d)"
                              % (name, depths[name], n, DEFAULT_TILE_BUDGET))
    rows = []
    reports = {}
    unit = CostModel(seek_cost=1.0, scan_cost=0.0)
    for name, rs in orders.items():
        reports[name] = simulate(rs, points, queries, unit, depth=depths[name], name=name)
    for ratio in ratios:
        costs = {}
        for name, base in reports.items():
            seek = ratio * scan_cost
            total = seek * base.total_fragments + scan_cost * base.total_scanned
            costs[name] = total
            rows.append(base.summary() | {
                "seek_cost": seek, "scan_cost": scan_cost,
                "seek_scan_ratio": ratio, "total_cost": total})
        lo, hi = min(costs.values()), max(costs.values())
        spread = (hi - lo) / lo if lo else 0.0
        for row in rows[-len(orders):]:
            row["spread_at_ratio"] = spread
    return rows
