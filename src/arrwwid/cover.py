"""Query covers, canonical levels, and worst-case cover estimation.

A query (ball or axis box inside the unit tile) is covered by the tiles of
the canonical level that meet it; for scanning orders the tiles group into
maximal runs of order-consecutive tiles (fragments).  The estimator sweeps
balls centered on every interior vertex of chosen expansion depths, plus
seeded pseudo-random balls, and reports the worst counts with witnesses.
These are exact lower bounds on the true worst case.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction

import numpy as np

from .exact import ZERO, ONE, Coord, coord
from .rules import RuleError
from .expand import (BudgetError, DEFAULT_TILE_BUDGET, expand, prefix_table, scan_raster,
                     state_table, table_walk, walk, _vertex_stats_grid)
from .curves import Interval


class QueryRange:
    """Ball or axis-aligned box query, exact coordinates."""

    def __init__(self, kind, center, radius=None, half_extents=None):
        if kind not in ("ball", "box"):
            raise ValueError("kind must be ball or box")
        self.kind = kind
        self.center = tuple(coord(c) for c in center)
        self.radius = coord(radius) if radius is not None else None
        self.half_extents = tuple(coord(h) for h in half_extents) if half_extents else None
        if kind == "ball" and (self.radius is None or self.radius.sign() <= 0):
            raise ValueError("ball query needs a positive radius")
        if kind == "box" and not self.half_extents:
            raise ValueError("box query needs half extents")

    @property
    def dim(self):
        return len(self.center)

    def measure(self):
        if self.kind == "box":
            m = 1.0
            for h in self.half_extents:
                m *= 2 * float(h)
            return m
        r = float(self.radius)
        if self.dim == 2:
            return math.pi * r * r
        return 4.0 / 3.0 * math.pi * r ** 3

    def bounding_halfwidths(self):
        if self.kind == "ball":
            return (self.radius,) * self.dim
        return self.half_extents

    def inside_unit(self, base):
        for c, h, lo, hi in zip(self.center, self.bounding_halfwidths(), base.lo, base.hi):
            if (c - h - lo).sign() < 0 or (hi - c - h).sign() < 0:
                return False
        return True

    def intersects_box(self, box):
        """Exact closed-closed intersection test."""
        if self.kind == "box":
            for c, h, lo, hi in zip(self.center, self.half_extents, box.lo, box.hi):
                if (lo - c - h).sign() > 0 or (c - h - hi).sign() > 0:
                    return False
            return True
        d2 = ZERO
        for c, lo, hi in zip(self.center, box.lo, box.hi):
            if (c - lo).sign() < 0:
                gap = lo - c
            elif (c - hi).sign() > 0:
                gap = c - hi
            else:
                continue
            d2 = d2 + gap * gap
        return (d2 - self.radius * self.radius).sign() <= 0

    def contains_point(self, p):
        if self.kind == "box":
            return all((abs(c - v) - h).sign() <= 0
                       for c, h, v in zip(self.center, self.half_extents, p))
        d2 = ZERO
        for c, v in zip(self.center, p):
            d = c - v
            d2 = d2 + d * d
        return (d2 - self.radius * self.radius).sign() <= 0

    def __repr__(self):
        if self.kind == "ball":
            return "QueryRange(ball, c=%s, r=%s)" % (
                tuple(map(float, self.center)), float(self.radius))
        return "QueryRange(box, c=%s, h=%s)" % (
            tuple(map(float, self.center)), tuple(map(float, self.half_extents)))


class CoverReport:
    def __init__(self, query, level, tiles, intervals, fragments, total_area, measure):
        self.query = query
        self.level = level
        self.tiles = tiles                    # addresses, in scanning order
        self.intervals = intervals            # each tile's parameter Interval
        self.fragments = fragments            # list of address runs
        self.total_area = total_area
        self._measure = measure

    @property
    def cover_ratio(self):
        if not self._measure:
            return float("inf")
        return float(self.total_area) / self._measure

    @property
    def tile_count(self):
        return len(self.tiles)

    @property
    def fragment_count(self):
        return len(self.fragments)

    def __repr__(self):
        return "CoverReport(level=%d, tiles=%d, fragments=%d, ratio=%.3f)" % (
            self.level, self.tile_count, self.fragment_count, self.cover_ratio)


def subdivision_ratio(rs):
    """Linear shrink factor per level (reciprocal of the common child scale)."""
    return (ONE / rs.child_scale())


def reference_side(rs):
    """Smallest extent of the unit base shape."""
    return min(rs.unit_rule.base.bounding_box().extent())


_LEVEL_CACHE = weakref.WeakKeyDictionary()
MAX_LEVEL = 64                  # the deepest canonical level searched


def _level_constants(rs):
    """(reference side, subdivision ratio) of the rule set, computed once;
    both as Fractions when both are rational, else both as Coords."""
    consts = _LEVEL_CACHE.get(rs)
    if consts is None:
        side, lam = reference_side(rs), subdivision_ratio(rs)
        if side.is_rational and lam.is_rational:
            side, lam = side.as_fraction(), lam.as_fraction()
        consts = _LEVEL_CACHE[rs] = (side, lam)
    return consts


def _exact(x):
    """x as a Fraction, or as a Coord when it has a sqrt(3) part."""
    if isinstance(x, Coord):
        return x.as_fraction() if x.is_rational else x
    return Fraction(x)


def canonical_level(rs, r, kappa=Fraction(2)):
    """Unique level where the tile's reference side is in (kappa*r, kappa*lam*r].

    kappa defaults to the window used for regular square tilings; catalog
    entries carry their own constants.  The comparisons run on Fractions
    when every value is rational.
    """
    r, kappa = _exact(r), _exact(kappa)
    if r <= 0:
        raise ValueError("radius must be positive")
    side, lam = _level_constants(rs)
    hi = kappa * lam * r
    if side > hi:
        k = 0
        while side > hi:                     # level k's side is side / lam**k
            hi = hi * lam
            k += 1
            if k > MAX_LEVEL:
                raise RuleError("no canonical level below %d" % MAX_LEVEL)
        return k
    if side * lam <= hi:                     # side <= hi / lam = kappa * r
        raise RuleError("radius too large: level-0 window violated")
    return 0


def cover_tiles(rs, q, level=None, kappa=Fraction(2), budget=DEFAULT_TILE_BUDGET):
    """Tiles at the canonical level whose closure meets the query.

    On a rule set with a state table and a query whose center (from the
    unit's min corner) and half-widths are rational, the descent prunes on
    integer boxes (`table_walk`); otherwise it walks exact transforms.  Both
    visit the same nodes, and more than `budget` of them raise BudgetError.
    """
    if not q.inside_unit(rs.unit_rule.base):
        raise RuleError("query is not contained in the unit tile")
    if level is None:
        if q.kind == "ball":
            level = canonical_level(rs, q.radius, kappa)
        else:
            level = canonical_level(rs, max(q.half_extents), kappa)
    base = rs.unit_rule.base
    table = state_table(rs)
    misses = None if table is None else _table_misses(rs, table, q, level)
    if misses is None:
        table, misses = None, _exact_misses(rs, q)
    visited = 0

    def counted(*node):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetError("cover descent visited %d nodes against a budget of %d "
                              "(cover level %d)" % (visited, budget, level))
        return misses(*node)

    leaves = list(_scan(rs, level, counted, table))
    den = prefix_table(rs)[0] ** level
    addresses = [leaf[0] for leaf in leaves]
    intervals = [Interval(Fraction(leaf[-2], den), Fraction(leaf[-2] + leaf[-1], den))
                 for leaf in leaves]
    # a tile's parameter length is its share of the unit's area
    total = coord(Fraction(sum(leaf[-1] for leaf in leaves), den)) * base.measure()
    return CoverReport(q, level, addresses, intervals, [addresses] if addresses else [],
                       total, q.measure())


def _scan(rs, level, prune, table):
    """The scanning-order nodes of `level` that `prune` keeps, each ending in
    its parameter numerators (lo, length): on the state table when one is
    given, else through the exact `walk`."""
    if table is None:
        return walk(rs, level, prune=prune, scan=True)
    return table_walk(rs, level, prune=prune)


def _exact_misses(rs, q):
    """`walk` pruning: the node's exact box (or bounding box) misses q."""
    rules = rs.rules

    def misses(address, rule_name, transform, rev, lo, length):
        return not q.intersects_box(rules[rule_name].base.transform(transform).bounding_box())

    return misses


def _table_misses(rs, table, q, level):
    """`table_walk` pruning: the same closed-closed test as
    `QueryRange.intersects_box`, on integers, or None unless the query's
    center offsets and half-widths are rational.

    The query is scaled once into cells of the cover level's pitch and its
    denominators cleared; a depth-d node's corner and extent then scale by
    mult[d] = scale * k**(level - d).
    """
    values = [c - o for c, o in zip(q.center, rs.unit_rule.base.lo)]
    values += q.bounding_halfwidths()
    if not all(v.is_rational for v in values):
        return None
    pitch = table.p1 * Fraction(table.k) ** (1 - level)
    values = [v.as_fraction() / pitch for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    values = [v.numerator * (scale // v.denominator) for v in values]
    center, half = values[:q.dim], values[q.dim:]
    mult = [scale * table.k ** (level - d) for d in range(level + 1)]
    extent = table.extent.tolist()
    if q.kind == "ball":
        r2 = half[0] * half[0]

        def misses(address, state, corner, lo, length):
            m = mult[len(address)]
            d2 = 0
            for c, p, e in zip(center, corner, extent[state]):
                p *= m
                if c < p:
                    d2 += (p - c) * (p - c)
                else:
                    p += e * m
                    if c > p:
                        d2 += (c - p) * (c - p)
            return d2 > r2

        return misses
    lows = [c - h for c, h in zip(center, half)]
    highs = [c + h for c, h in zip(center, half)]

    def misses(address, state, corner, lo, length):
        m = mult[len(address)]
        return any(p * m > h or l > (p + e) * m
                   for l, h, p, e in zip(lows, highs, corner, extent[state]))

    return misses


def cover_fragments(rs, q, level=None, kappa=Fraction(2), merge_budget=None,
                    budget=DEFAULT_TILE_BUDGET):
    """Cover grouped into maximal runs of order-consecutive tiles.

    merge_budget, when set, greedily merges adjacent runs (including the
    intervening tiles) while total area stays at most merge_budget times the
    query measure.
    """
    report = cover_tiles(rs, q, level=level, kappa=kappa, budget=budget)
    runs = []
    for addr, iv in zip(report.tiles, report.intervals):
        if runs and runs[-1][-1][1].hi == iv.lo:
            runs[-1].append((addr, iv))
        else:
            runs.append([(addr, iv)])
    if merge_budget is not None and len(runs) > 1:
        runs = _merge_runs(rs, runs, report, merge_budget)
    report.fragments = [[a for a, _ in run] for run in runs]
    return report


def _addresses_between(rs, lo, hi, level):
    """(address, interval) of the level tiles inside [lo, hi], in scanning order.

    lo and hi are ends of level tiles, so every level tile lies either inside
    [lo, hi] or outside it.  The pruning reads parameter intervals only.
    """
    den = prefix_table(rs)[0]

    def outside(address, *node):
        t_lo, length, scale = node[-2], node[-1], den ** len(address)
        return t_lo >= hi * scale or t_lo + length <= lo * scale

    scale = den ** level
    return [(leaf[0], Interval(Fraction(leaf[-2], scale), Fraction(leaf[-2] + leaf[-1], scale)))
            for leaf in _scan(rs, level, outside, state_table(rs))]


def _merge_runs(rs, runs, report, merge_budget):
    """Greedy smallest-gap-first merging while total area stays at most
    merge_budget times the query measure; gap tiles join the merged run."""
    measure = report.query.measure()
    unit_area = rs.unit_rule.base.measure()
    total = report.total_area
    level = report.level
    while len(runs) > 1:
        best = None
        for i in range(len(runs) - 1):
            gap = runs[i + 1][0][1].lo - runs[i][-1][1].hi
            if best is None or gap < best[0]:
                best = (gap, i)
        gap_frac, i = best
        added = coord(gap_frac) * unit_area
        if float(total + added) > merge_budget * measure:
            break
        total = total + added
        fillers = _addresses_between(rs, runs[i][-1][1].hi, runs[i + 1][0][1].lo, level)
        runs[i:i + 2] = [runs[i] + fillers + runs[i + 1]]
    report.total_area = total
    return runs


# -- estimation ---------------------------------------------------------------

class SamplePlan:
    """Deterministic sampling plan: vertex-centered balls per depth, a
    quarter of the way into the depth's canonical radius window, plus seeded
    random balls at the window's middle."""

    def __init__(self, depths=(2, 3), n_random=200, seed=0, query_kind="ball"):
        self.depths = tuple(depths)
        self.n_random = n_random
        self.seed = seed
        self.query_kind = query_kind

    def describe(self):
        return {"depths": list(self.depths), "n_random": self.n_random,
                "seed": self.seed, "query_kind": self.query_kind}


class Witness:
    def __init__(self, center, radius, level, count):
        self.center = center
        self.radius = radius
        self.level = level
        self.count = count

    def as_dict(self):
        return {"center": [float(c) for c in self.center],
                "radius": float(self.radius), "level": self.level,
                "count": self.count}

    def __repr__(self):
        return "Witness(c=%s, r=%s, level=%d, count=%d)" % (
            tuple(map(float, self.center)), float(self.radius), self.level, self.count)


class ArrwwidEstimate:
    """Empirical lower bound on the worst-case cover counts."""

    def __init__(self, max_tiles, tiles_witness, max_fragments, fragments_witness, plan):
        self.max_tiles = max_tiles
        self.tiles_witness = tiles_witness
        self.max_fragments = max_fragments
        self.fragments_witness = fragments_witness
        self.plan = plan

    def __repr__(self):
        return "ArrwwidEstimate(tiles=%s, fragments=%s)" % (
            self.max_tiles, self.max_fragments)


def window_radii(rs, depth, kappa, n):
    """n exact radii whose canonical level is `depth`."""
    lam = subdivision_ratio(rs).as_fraction()
    side = reference_side(rs).as_fraction() * (Fraction(1, 1) / lam) ** depth
    kappa = Fraction(kappa)
    lo = side / (kappa * lam)          # exclusive
    hi = side / kappa                  # inclusive
    if n == 1:
        return [coord((lo + hi) / 2)]
    out = []
    for i in range(n):
        t = Fraction(2 * i + 1, 2 * n)
        out.append(coord(lo + (hi - lo) * t))
    return out


def estimate_arrwwid(rs, plan=None, kappa=Fraction(2), is_order=True,
                     budget=DEFAULT_TILE_BUDGET):
    """Worst cover counts over the plan's queries, with witnesses.

    For tilings only max_tiles is meaningful; orders also get max_fragments.
    Vertex-centered balls on lattice rule sets use a vectorized raster (the
    window radii keep each ball inside the cells around its vertex); random
    balls always go through the exact cover path.
    """
    plan = plan or SamplePlan()
    max_tiles, tiles_w = 0, None
    max_frag, frag_w = 0, None

    def consider(count, frag_count, center, radius, level):
        nonlocal max_tiles, tiles_w, max_frag, frag_w
        if count > max_tiles:
            max_tiles = count
            tiles_w = Witness(center, radius, level, count)
        if frag_count is not None and frag_count > max_frag:
            max_frag = frag_count
            frag_w = Witness(center, radius, level, frag_count)

    grid_ok = state_table(rs) is not None
    for depth in plan.depths:
        # the first of two evenly spaced window radii
        r = window_radii(rs, depth, kappa, 2)[0]
        if grid_ok:
            ids, pitch = scan_raster(rs, depth, budget=budget)
            tiles, fragments = _vertex_stats_grid(ids)
            if len(tiles):
                ti = int(tiles.argmax())
                fi = int(fragments.argmax())
                base = rs.unit_rule.base
                for which, idx in (("t", ti), ("f", fi)):
                    vert = np.unravel_index(idx, tuple(s - 1 for s in ids.shape))
                    center = tuple(base.lo[ax] + coord(pitch) * coord(int(vert[ax]) + 1)
                                   for ax in range(rs.dim))
                    if which == "t":
                        consider(int(tiles[idx]), None, center, r, depth)
                    elif is_order:
                        consider(0, int(fragments[idx]), center, r, depth)
        else:
            # exact vertex enumeration through expansion
            ts = expand(rs, depth, budget=budget)
            unit_base = rs.unit_rule.base
            for p, incident in ts.vertex_index.items():
                if unit_base.on_boundary(p):
                    continue
                q = QueryRange("ball", p, r)
                if not q.inside_unit(unit_base):
                    continue
                rep = cover_fragments(rs, q, kappa=kappa, budget=budget)
                consider(rep.tile_count, rep.fragment_count if is_order else None,
                         p, r, rep.level)
    # seeded random interior balls
    rng = np.random.default_rng(plan.seed)
    base = rs.unit_rule.base
    lo = [float(v) for v in base.lo]
    hi = [float(v) for v in base.hi]
    depth_lo, depth_hi = min(plan.depths), max(plan.depths)
    for _ in range(plan.n_random):
        depth = int(rng.integers(depth_lo, depth_hi + 1))
        r = window_radii(rs, depth, kappa, 1)[0]
        rf = float(r)
        center = []
        ok = True
        for ax in range(rs.dim):
            span = hi[ax] - lo[ax] - 2 * rf
            if span <= 0:
                ok = False
                break
            u = rng.random()
            center.append(coord(Fraction(lo[ax] + rf + u * span).limit_denominator(10 ** 9)))
        if not ok:
            continue
        q = QueryRange(plan.query_kind, center,
                       radius=r if plan.query_kind == "ball" else None,
                       half_extents=(r,) * rs.dim if plan.query_kind == "box" else None)
        if not q.inside_unit(base):
            continue
        rep = cover_fragments(rs, q, kappa=kappa, budget=budget)
        consider(rep.tile_count, rep.fragment_count if is_order else None,
                 q.center, r, rep.level)
    return ArrwwidEstimate(max_tiles, tiles_w, max_frag if is_order else None,
                           frag_w if is_order else None, plan.describe())
