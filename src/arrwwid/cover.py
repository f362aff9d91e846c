"""Query covers, canonical levels, and worst-case cover estimation.

A query (ball or axis box inside the unit tile) is covered by the tiles of
the canonical level that meet it; for scanning orders the tiles group into
maximal runs of order-consecutive tiles (fragments).  The estimator sweeps
balls centered on every interior vertex of chosen expansion depths, plus
seeded pseudo-random balls, and reports the worst counts with witnesses.
These are exact lower bounds on the true worst case.

On a rule set with a state table, a query whose center offsets and
half-widths are rational is converted once into integers (`_TableQuery`),
and the cover runs on integers from there to its fragments: the
inside-the-unit test, the canonical level, the pruning of the `table_walk`
descent, run joining and gap merging on parameter numerators, and the total
area from the integer length sum.  Intervals and the area become exact
rationals only in the report.  Every other query descends on exact boxes
through `walk`, which stays the oracle of the integer path.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction

import numpy as np

from .exact import ZERO, ONE, Coord, coord
from .rules import RuleError
from .expand import (BudgetError, DEFAULT_TILE_BUDGET, expand, prefix_table, scan_raster,
                     state_table, table_walk, walk, _block_cells, _first_seen)
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


_CONSTANTS = weakref.WeakKeyDictionary()
MAX_LEVEL = 64                  # the deepest canonical level searched


def _constants(rs):
    """(reference side, subdivision ratio, unit measure) of the rule set,
    computed once; the first two as Fractions when both are rational, else
    both as Coords, and the measure as a Coord."""
    consts = _CONSTANTS.get(rs)
    if consts is None:
        side, lam = reference_side(rs), subdivision_ratio(rs)
        if side.is_rational and lam.is_rational:
            side, lam = side.as_fraction(), lam.as_fraction()
        consts = _CONSTANTS[rs] = (side, lam, rs.unit_rule.base.measure())
    return consts


def _exact(x):
    """x as a Fraction, or as a Coord when it has a sqrt(3) part."""
    if isinstance(x, Coord):
        return x.as_fraction() if x.is_rational else x
    return Fraction(x)


def _level(a, b, lam_n, lam_d):
    """The canonical level where side / (kappa r) = a / b and the subdivision
    ratio is lam_n / lam_d: the least level L with a / b <= lam**(L + 1),
    that is side / lam**L <= kappa lam r, and at level 0 also side > kappa r.

    One inequality per level; on integers when every value is rational,
    else on Coords with lam_d = 1.
    """
    lhs, rhs, level = a * lam_d, b * lam_n, 0
    while lhs > rhs:
        level += 1
        if level > MAX_LEVEL:
            raise RuleError("no canonical level below %d" % MAX_LEVEL)
        lhs, rhs = lhs * lam_d, rhs * lam_n
    if level == 0 and a <= b:
        raise RuleError("radius too large: level-0 window violated")
    return level


def canonical_level(rs, r, kappa=Fraction(2)):
    """Unique level where the tile's reference side is in (kappa*r, kappa*lam*r].

    kappa defaults to the window used for regular square tilings; catalog
    entries carry their own constants.  The comparisons run on integers
    when every value is rational.
    """
    r, kappa = _exact(r), _exact(kappa)
    if r <= 0:
        raise ValueError("radius must be positive")
    side, lam, _ = _constants(rs)
    if isinstance(side, Fraction) and isinstance(r, Fraction) and isinstance(kappa, Fraction):
        return _level(side.numerator * kappa.denominator * r.denominator,
                      side.denominator * kappa.numerator * r.numerator,
                      lam.numerator, lam.denominator)
    return _level(coord(side), coord(kappa) * coord(r), coord(lam), 1)


def _area(rs, length, den):
    """length / den of the unit's measure, as a Coord."""
    m = _constants(rs)[2]
    return Coord(length * m.a, length * m.b, den * m.c)


class _TableQuery:
    """A query converted once into integers on the rule set's state table.

    `center` holds the center's offsets from the unit's min corner and
    `half` the half-widths, as numerators in units of p1 / `unit`, where p1
    is the table's depth-1 pitch; a depth-d corner or extent of n cells of
    its pitch p1 * k**(1 - d) is then n * unit * k**(1 - d) of these units.
    """

    __slots__ = ("table", "ball", "unit", "center", "half")

    @classmethod
    def of(cls, table, q, origin):
        """The query on `table`, for a unit with min corner `origin`, or
        None unless its center and half-widths are rational."""
        values = q.center + q.bounding_halfwidths() + origin
        if any(v.b for v in values):
            return None
        m = math.lcm(*(v.c for v in values))
        num, den = table.p1.numerator, table.p1.denominator
        ints = [v.a * (m // v.c) * den for v in values]
        dim = q.dim
        self = cls.__new__(cls)
        self.table, self.ball, self.unit = table, q.kind == "ball", m * num
        self.center = [c - o for c, o in zip(ints[:dim], ints[2 * dim:])]
        self.half = ints[dim:2 * dim]
        return self

    def inside_unit(self):
        """`QueryRange.inside_unit` on the unit box of extent[0] cells of
        the depth-0 pitch k * p1."""
        size = self.unit * self.table.k
        return all(c >= h and c + h <= e * size
                   for c, h, e in zip(self.center, self.half, self.table.extent[0].tolist()))

    def level(self, kappa):
        """`canonical_level` for the largest half-width: the reference side is
        the unit's least extent, the subdivision ratio k."""
        r = max(self.half)
        if r <= 0:
            raise ValueError("radius must be positive")
        k, kappa = self.table.k, _exact(kappa)
        side = min(self.table.extent[0].tolist()) * k * self.unit
        if isinstance(kappa, Coord):             # a sqrt(3) part
            return _level(side, kappa * r, k, 1)
        return _level(side * kappa.denominator, kappa.numerator * r, k, 1)

    def misses(self, level):
        """`table_walk` pruning at the cover level: the same closed-closed
        test as `QueryRange.intersects_box`, on integers.  The query is
        scaled by k**level; a depth-d node's corner and extent scale by
        mult[d] = unit * k**(level + 1 - d)."""
        k = self.table.k
        scale = k ** level
        center = [c * scale for c in self.center]
        mult = [self.unit * k ** (level + 1 - d) for d in range(level + 1)]
        extent = self.table.extent.tolist()
        if self.ball:
            r = self.half[0] * scale
            r2 = r * r

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
        lows = [c - h * scale for c, h in zip(center, self.half)]
        highs = [c + h * scale for c, h in zip(center, self.half)]

        def misses(address, state, corner, lo, length):
            m = mult[len(address)]
            return any(p * m > h or l > (p + e) * m
                       for l, h, p, e in zip(lows, highs, corner, extent[state]))

        return misses


def _table_misses(rs, table, q, level):
    """`table_walk` pruning for q at `level`, or None unless q's center
    offsets and half-widths are rational."""
    tq = _TableQuery.of(table, q, rs.unit_rule.base.lo)
    return None if tq is None else tq.misses(level)


def _cover(rs, q, level, kappa, budget):
    """(level, leaves): the canonical level unless `level` is given, and the
    scanning-order nodes of that level whose closure meets q, each ending in
    its parameter numerators (lo, length) over den**level.

    On a rule set with a state table and a query whose center (from the
    unit's min corner) and half-widths are rational, the query is
    converted once into integers (`_TableQuery`) and everything after runs
    on them, the descent through `table_walk`; otherwise on exact values
    through `walk`.  Both visit the same nodes, and more than `budget` of
    them raise BudgetError.
    """
    base = rs.unit_rule.base
    table = state_table(rs)
    tq = None if table is None else _TableQuery.of(table, q, base.lo)
    if not (q.inside_unit(base) if tq is None else tq.inside_unit()):
        raise RuleError("query is not contained in the unit tile")
    if tq is None:
        table = None
        if level is None:
            level = canonical_level(rs, max(q.bounding_halfwidths()), kappa)
        misses = _exact_misses(rs, q)
    else:
        if level is None:
            level = tq.level(kappa)
        misses = tq.misses(level)
    visited = 0

    def counted(*node):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetError("cover descent visited %d nodes against a budget of %d "
                              "(cover level %d)" % (visited, budget, level))
        return misses(*node)

    return level, list(_scan(rs, level, counted, table))


def _report(rs, q, level, leaves, runs, length, measure):
    """The CoverReport of the cover `leaves`, grouped into `runs` of scan
    nodes, of total parameter length `length` over den**level: the one
    place where intervals and the area leave integers."""
    den = prefix_table(rs)[0] ** level
    addresses = [leaf[0] for leaf in leaves]
    intervals = [Interval.of(leaf[-2], leaf[-2] + leaf[-1], den) for leaf in leaves]
    # a tile's parameter length is its share of the unit's area
    return CoverReport(q, level, addresses, intervals, [[leaf[0] for leaf in run] for run in runs],
                       _area(rs, length, den), measure)


def cover_tiles(rs, q, level=None, kappa=Fraction(2), budget=DEFAULT_TILE_BUDGET):
    """Tiles at the canonical level whose closure meets the query (`_cover`)."""
    level, leaves = _cover(rs, q, level, kappa, budget)
    return _report(rs, q, level, leaves, [leaves] if leaves else [],
                   sum(leaf[-1] for leaf in leaves), q.measure())


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


def cover_fragments(rs, q, level=None, kappa=Fraction(2), merge_budget=None,
                    budget=DEFAULT_TILE_BUDGET):
    """Cover grouped into maximal runs of order-consecutive tiles.

    merge_budget, when set, greedily merges adjacent runs (including the
    intervening tiles) while total area stays at most merge_budget times the
    query measure.  Runs join and merge on parameter numerators.
    """
    level, leaves = _cover(rs, q, level, kappa, budget)
    runs, end = [], None
    for leaf in leaves:
        if leaf[-2] == end:
            runs[-1].append(leaf)
        else:
            runs.append([leaf])
        end = leaf[-2] + leaf[-1]
    length, measure = sum(leaf[-1] for leaf in leaves), q.measure()
    if merge_budget is not None and len(runs) > 1:
        length = _merge_runs(rs, runs, level, length, merge_budget * measure)
    return _report(rs, q, level, leaves, runs, length, measure)


def _addresses_between(rs, lo, hi, level):
    """The scan nodes of the level tiles inside [lo, hi], numerators over
    den**level, in scanning order.

    lo and hi are ends of level tiles, so every level tile lies either inside
    [lo, hi] or outside it.  The pruning reads parameter numerators only.
    """
    den = prefix_table(rs)[0]
    scale = [den ** (level - d) for d in range(level + 1)]

    def outside(address, *node):
        s = scale[len(address)]
        return node[-2] * s >= hi or (node[-2] + node[-1]) * s <= lo

    return list(_scan(rs, level, outside, state_table(rs)))


def _merge_runs(rs, runs, level, length, limit):
    """Greedy smallest-gap-first merging of `runs` (in place) while the area
    of parameter length `length` plus the gaps stays at most `limit`; gap
    tiles join the merged run.  Returns the merged length."""
    den = prefix_table(rs)[0] ** level
    while len(runs) > 1:
        gap, i = min((b[0][-2] - a[-1][-2] - a[-1][-1], i)
                     for i, (a, b) in enumerate(zip(runs, runs[1:])))
        if float(_area(rs, length + gap, den)) > limit:
            break
        length += gap
        lo = runs[i][-1][-2] + runs[i][-1][-1]
        runs[i:i + 2] = [runs[i] + _addresses_between(rs, lo, lo + gap, level) + runs[i + 1]]
    return length


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


def _vertex_stats_grid(ids, block=None):
    """(tiles, fragments) per block of raster cells (`expand._block_cells`),
    flattened over the anchors: tiles counts the distinct ids in the block
    and fragments the runs of consecutive scanning positions among them,
    that is the distinct ids v whose v - 1 is not in the block; both are 0
    where the block holds a -1 cell."""
    cells, inside = _block_cells(ids, block)
    tiles = np.zeros(inside.shape, dtype=np.int64)
    fragments = np.zeros(inside.shape, dtype=np.int64)
    for c, new in _first_seen(cells):
        tiles += new
        below = c - 1
        for d in cells:                   # ... and starts a run: no c - 1
            new &= d != below
        fragments += new
    return (tiles * inside).reshape(-1), (fragments * inside).reshape(-1)


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
