"""Scanning-order semantics on top of rule sets.

A scanning order is a rule set whose child list order is the traversal order;
a child's reversed flag runs its whole subtree backwards.  This module gives
the exact parameter interval of a tile, the two one-sided curve maps, exact
entry/exit gates via fixed points, connection classification between
order-consecutive tiles, and the per-vertex audit quantities used in
lower-bound arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exact import ONE, ZERO, coord
from .shapes import Box
from .transforms import Similarity, fixed_point
from .expand import (BudgetError, count_tiles, DEFAULT_TILE_BUDGET, prefix_table, state_table,
                     table_leaves, corner_incidence, on_box_boundary, on_unit_boundary,
                     rank_incidence, Ranks, _child_span, walk)
from .rules import RuleError


class Interval:
    """Closed parameter interval [lo, hi] inside [0, 1], exact rationals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError("interval out of range: [%s, %s]" % (lo, hi))

    @classmethod
    def of(cls, lo, hi, den):
        """[lo/den, hi/den] from integer numerators, checked as integers."""
        if not 0 <= lo <= hi <= den:
            raise ValueError("interval out of range: [%s/%s, %s/%s]" % (lo, den, hi, den))
        iv = cls.__new__(cls)
        iv.lo = Fraction(lo, den)
        iv.hi = Fraction(hi, den)
        return iv

    @property
    def length(self):
        return self.hi - self.lo

    def __eq__(self, other):
        return isinstance(other, Interval) and (self.lo, self.hi) == (other.lo, other.hi)

    def __repr__(self):
        return "Interval(%s, %s)" % (self.lo, self.hi)


def tile_interval(rs, address):
    """Exact [x, y] such that the tile at `address` equals fragment U[x, y]."""
    den, ends = prefix_table(rs)
    lo, length = 0, 1
    rev = False
    rule_name = rs.unit
    for i in address:
        rule = rs.rules[rule_name]
        if not 0 <= i < len(rule.children):
            raise RuleError("invalid address component %d for rule %r" % (i, rule_name))
        start, end = _child_span(den, ends[rule_name], i, rev)
        lo, length = lo * den + length * start, length * (end - start)
        ch = rule.children[i]
        rev ^= ch.reversed
        rule_name = ch.rule
    return Interval.of(lo, lo + length, den ** len(address))


def scan_leaves(rs, depth, budget=DEFAULT_TILE_BUDGET):
    """Leaves of the depth-expansion in scanning order.

    Yields (address, rule_name, transform, reversed) tuples.
    """
    if count_tiles(rs, depth) > budget:
        raise BudgetError("scan of depth %d exceeds tile budget" % depth)
    return (leaf[:4] for leaf in walk(rs, depth, scan=True))


# -- entry and exit gates -------------------------------------------------------

def _gate(rs, rule_name, rev, end, cache):
    """Exact point where scanning of `rule_name` (reversed if rev) starts/ends."""
    key = (rule_name, rev, end)
    if key in cache:
        return cache[key]
    state = key
    prefix = []          # placements applied before the cycle
    seen = {}
    transforms = []
    cur = Similarity.identity(rs.dim)
    while state not in seen:
        seen[state] = len(transforms)
        transforms.append(cur)
        rname, rv, ed = state
        children = rs.rules[rname].children
        take_last = ed ^ rv
        ch = children[-1] if take_last else children[0]
        cur = cur.compose(ch.placement)
        state = (ch.rule, rv ^ ch.reversed, ed)
    start_idx = seen[state]
    t_start = transforms[start_idx]
    cycle = t_start.inverse().compose(cur)
    if (cycle.scale - ONE).sign() >= 0:
        raise RuleError("rule %r has a non-contracting gate composition" % rule_name)
    p = fixed_point(cycle)
    result = t_start.apply(p)
    cache[key] = result
    # cache gates for every state on the chain (clipped to the visited prefix)
    for st, idx in seen.items():
        if st not in cache:
            cache[st] = transforms[idx].inverse().apply(result) if idx else result
    return result


class Gates:
    """Memoized exact entry/exit points per (rule, reversed) state."""

    def __init__(self, rs):
        self.rs = rs
        self._cache = {}

    def start(self, rule_name, rev=False):
        return _gate(self.rs, rule_name, rev, False, self._cache)

    def end(self, rule_name, rev=False):
        return _gate(self.rs, rule_name, rev, True, self._cache)

    def of_tile(self, transform, rule_name, rev):
        """(entry, exit) of a placed tile in absolute coordinates."""
        return (transform.apply(self.start(rule_name, rev)),
                transform.apply(self.end(rule_name, rev)))


def gate_table(rs):
    """Each state's entry and exit gate on the rule set's state table.

    Returns (m, gates): gates[s] holds state s's entry and exit as integer
    offsets from its min corner, in cells m times finer than the pitch of
    its level, m the least that holds every gate.  Gates of a state are
    fixed points of rational similarities, so they are rational; they are
    computed exactly by `Gates` once per table.
    """
    table = state_table(rs)
    if table.gates is None:
        gates, cell = Gates(rs), table.p1 * table.k          # cell: the pitch of depth 0
        offsets = []
        for rule_name, ortho, rev in table.states:
            # a state-s tile is s**depth * ortho(base) + t; its gates sit
            # s**depth * (ortho(gate) - min corner of ortho(base)) from its min corner
            turn = Similarity(ONE, ortho, (ZERO,) * rs.dim)
            lo = rs.rules[rule_name].base.transform(turn).lo
            for p in (gates.start(rule_name, rev), gates.end(rule_name, rev)):
                offsets.append([(v - l).as_fraction() / cell for v, l in zip(turn.apply(p), lo)])
        m = math.lcm(*(v.denominator for row in offsets for v in row))
        table.gates = m, np.array([[int(v * m) for v in row] for row in offsets],
                                  dtype=np.int64).reshape(len(table.states), 2, rs.dim)
    return table.gates


def _table_leaves(rs, depth, budget):
    """The scanning-order leaves of a rule set with a state table as
    integer boxes and gates: (lo, hi, entry, exit, m), the corners (n, d) in
    cells of the level's pitch and the gates in cells m times finer."""
    if count_tiles(rs, depth) > budget:
        raise BudgetError("scan of depth %d exceeds tile budget" % depth)
    table = state_table(rs)
    corner, state = table_leaves(table, depth)
    m, gates = gate_table(rs)
    return (corner, corner + table.extent[state], m * corner + gates[state, 0],
            m * corner + gates[state, 1], m)


def _ranked_leaves(rs, depth, budget):
    """`_table_leaves` for a rule set without a state table, from the exact
    walk, with m = 1: the leaves' corners, their gates and the unit box are
    ranked together on each axis (`expand.Ranks`), and lo, hi are the ranks
    of the leaves' bounding boxes.  Also returns (geoms, corners, ranks) for
    `rank_incidence`."""
    leaves = list(scan_leaves(rs, depth, budget))
    gates = Gates(rs)
    geoms = [rs.rules[rule_name].base.transform(tr) for _, rule_name, tr, _ in leaves]
    ends = [gates.of_tile(tr, rule_name, rev) for _, rule_name, tr, rev in leaves]
    corners = [g.corners() for g in geoms]
    unit = rs.unit_rule.base.bounding_box()
    ranks = Ranks([p for cs in corners for p in cs] + [p for e in ends for p in e]
                  + [unit.lo, unit.hi])
    boxes = [g.bounding_box() for g in geoms]
    entry, exit_ = zip(*ends)
    return (ranks.of([b.lo for b in boxes]), ranks.of([b.hi for b in boxes]),
            ranks.of(entry), ranks.of(exit_), 1, (geoms, corners, ranks))


def _leaves(rs, depth, budget):
    """The depth expansion's scanning-order leaves in integers: (lo, hi,
    entry, exit, m, ranked), from the state table when the rule set has
    one (ranked None), else by rank (`_ranked_leaves`)."""
    if state_table(rs) is not None:
        return _table_leaves(rs, depth, budget) + (None,)
    return _ranked_leaves(rs, depth, budget)


def entry_exit(rs, rule_name=None):
    """Exact (entry, exit) points of a rule (default: the unit rule)."""
    g = Gates(rs)
    rule_name = rule_name or rs.unit
    if rule_name not in rs.rules:
        raise RuleError("unknown rule %r" % rule_name)
    return g.start(rule_name), g.end(rule_name)


# -- one-sided curve maps --------------------------------------------------------

def index_to_point(rs, x, eps):
    """Approximate the one-sided limits (sigma_down(x), sigma_up(x)).

    Descends the order until fragment diameter < eps on each side of x and
    returns the tile centers; each is within eps of the true limit point.
    At x == 0 only the lower map exists, at x == 1 only the upper map.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("parameter must lie in [0, 1]")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    down = _descend(rs, x, eps, upper=False) if x < 1 else None
    up = _descend(rs, x, eps, upper=True) if x > 0 else None
    if x == 0:
        return down, down
    if x == 1:
        return up, up
    return down, up


def _descend(rs, x, eps, upper):
    den, ends = prefix_table(rs)
    rule_name = rs.unit
    transform = Similarity.identity(rs.dim)
    rev = False
    lo, length = Fraction(0), Fraction(1)
    eps_sq = coord(eps * eps)
    while True:
        bb = rs.rules[rule_name].base.transform(transform).bounding_box()
        if (bb.diameter_sq() - eps_sq).sign() < 0:
            return bb.center()
        rule = rs.rules[rule_name]
        # the child whose scanning-position interval holds x, on the side asked for
        for i in range(len(rule.children)):
            start, end = _child_span(den, ends[rule_name], i, rev)
            c_lo = lo + length * Fraction(start, den)
            c_hi = lo + length * Fraction(end, den)
            if (c_lo < x <= c_hi) if upper else (c_lo <= x < c_hi):
                break
        ch = rule.children[i]
        transform = transform.compose(ch.placement)
        lo, length = c_lo, c_hi - c_lo
        rev ^= ch.reversed
        rule_name = ch.rule


# -- connections -------------------------------------------------------------------

class ConnectionStats:
    """Counts of connection kinds between order-consecutive tiles.

    horizontal/vertical: shared vertical/horizontal edge (2D); facet: shared
    2D face (3D); diagonal: vertex- or edge-only contact with matching gates;
    jump: exit of the earlier tile differs from entry of the later one.  The
    five counts sum to (tiles - 1).  `jump_contact_dims` breaks the jumps
    down by the dimension of the shared boundary (None = no contact).
    """

    def __init__(self):
        self.horizontal = 0
        self.vertical = 0
        self.facet = 0
        self.diagonal = 0
        self.jump = 0
        self.jump_contact_dims = {}

    @property
    def total(self):
        return self.horizontal + self.vertical + self.facet + self.diagonal + self.jump

    def as_dict(self):
        return {"horizontal": self.horizontal, "vertical": self.vertical,
                "facet": self.facet, "diagonal": self.diagonal, "jump": self.jump,
                "jump_contact_dims": {str(k): v for k, v in self.jump_contact_dims.items()}}

    def __repr__(self):
        return "ConnectionStats(%r)" % self.as_dict()


def classify_connections(rs, depth, budget=DEFAULT_TILE_BUDGET):
    """Classify every order-consecutive tile pair of the depth expansion.

    All pairs are classified at once on the integer leaves and gates
    (`_leaves`): per axis the gap max(lo) - min(hi), the contact dimension
    the number of negative gaps, or None when a gap is positive.
    """
    lo, hi, entry, exit_, _, ranked = _leaves(rs, depth, budget)
    if ranked is not None and not all(isinstance(g, Box) for g in ranked[0]):
        raise RuleError("connection classification supports box tiles only")
    stats = ConnectionStats()
    gap = np.maximum(lo[:-1], lo[1:]) - np.minimum(hi[:-1], hi[1:])
    contact = (gap < 0).sum(axis=1)
    apart = (gap > 0).any(axis=1)
    # gates that differ or boxes that do not touch make a jump
    jump = apart | (exit_[:-1] != entry[1:]).any(axis=1)
    # contact dims of the jumps, -1 for none, keyed in order of first occurrence
    dims, first, counts = np.unique(np.where(apart, -1, contact)[jump], return_index=True,
                                    return_counts=True)
    for i in np.argsort(first):
        stats.jump_contact_dims[None if dims[i] < 0 else int(dims[i])] = int(counts[i])
    stats.jump = int(jump.sum())
    joined = ~jump
    if rs.dim == 2:
        # an edge is shared along y (a "horizontal" connection) when the x gap is 0
        edge = joined & (contact == 1)
        stats.horizontal = int((edge & (gap[:, 0] == 0)).sum())
        stats.vertical = int(edge.sum()) - stats.horizontal
        stats.diagonal = int(joined.sum()) - int(edge.sum())
    else:
        stats.facet = int((joined & (contact == 2)).sum())
        stats.diagonal = int(joined.sum()) - stats.facet
    return stats


# -- vertex audits --------------------------------------------------------------------

class VertexAudit:
    __slots__ = ("vertex", "tiles_v", "ends_v", "degenerate_bridges", "nondegenerate_bridges")

    def __init__(self, vertex, tiles_v, ends_v, degenerate, nondegenerate):
        self.vertex = vertex
        self.tiles_v = tiles_v
        self.ends_v = ends_v
        self.degenerate_bridges = degenerate
        self.nondegenerate_bridges = nondegenerate

    def __repr__(self):
        return ("VertexAudit(%s, tiles=%d, ends=%d, deg=%d, nondeg=%d)"
                % (tuple(map(float, self.vertex)), self.tiles_v, self.ends_v,
                   self.degenerate_bridges, self.nondegenerate_bridges))


def vertex_audit(rs, depth, budget=DEFAULT_TILE_BUDGET):
    """Per interior vertex: incident tiles, curve endpoints, bridge degeneracy.

    Bridges are counted between scan-order-consecutive incident tiles; a
    bridge is degenerate exactly when the two tiles are globally consecutive
    and connect at the vertex.  Vertices come in the scanning-order tile set's
    `vertex_index` order.  The leaves, their incidence and their gates are
    integers (`_leaves`).
    """
    lo, hi, entry, exit_, m, ranked = _leaves(rs, depth, budget)
    points, point, tiles, inner, values = _vertices(rs, depth, lo, hi, ranked)
    count = np.bincount(point, minlength=len(points))
    at = m * points[point]               # each incidence's vertex, in gate cells
    enters, exits = (entry[tiles] == at).all(axis=1), (exit_[tiles] == at).all(axis=1)
    ends = (np.bincount(point[enters], minlength=len(points))
            + np.bincount(point[exits], minlength=len(points)))
    # a bridge joins consecutive incidences of one vertex
    degenerate = ((point[:-1] == point[1:]) & (tiles[1:] == tiles[:-1] + 1)
                  & exits[:-1] & enters[1:])
    degenerate = np.bincount(point[:-1][degenerate], minlength=len(points))
    return [VertexAudit(tuple(v[c] for v, c in zip(values, p)), n, e, dg, n - 1 - dg)
            for p, n, e, dg in zip(points[inner].tolist(), count[inner].tolist(),
                                   ends[inner].tolist(), degenerate[inner].tolist())]


def _vertices(rs, depth, lo, hi, ranked):
    """The vertex incidence of `_leaves`: (points, point, tiles, inner,
    values), the points and incidence pairs of `corner_incidence`, whether
    each point is off the unit's boundary, and per axis a map from a point's
    integer coordinate to its exact value."""
    if ranked is None:
        table = state_table(rs)
        _, points, point, tiles = corner_incidence(lo, hi)
        inner = ~on_box_boundary(points, 0, table.extent[0] * table.k ** depth)
        # each coordinate value becomes a Coord once
        pitch = table.p1 * Fraction(table.k) ** (1 - depth)
        values = [{c: o + coord(pitch * c) for c in np.unique(points[:, a]).tolist()}
                  for a, o in enumerate(rs.unit_rule.base.lo)]
        return points, point, tiles, inner, values
    geoms, corners, ranks = ranked
    keys, points, point, tiles = rank_incidence(geoms, corners, ranks)
    return (points, point, tiles, ~on_unit_boundary(rs.unit_rule.base, ranks, points, keys),
            ranks.axes)
