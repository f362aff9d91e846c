"""Vertex-degree certification for rectilinear recursive tilings.

The certifier explores a finite abstraction of all expansions: edge
configurations (how two same-level tiles can abut along an axis line, with
their exact relative offset) and vertex configurations (the arrangement of
tiles around one point).  Starting from each tile type's internal adjacencies
it applies one refinement step repeatedly; if the set closes without ever
seeing a vertex with more than `bound` incident tiles, no expansion of any
depth can contain one.  Every configuration is realizable, so a violating
vertex configuration yields a concrete counterexample vertex, which is
re-verified against an actual expansion before being reported.

One integer engine runs the closure: a `Layout` holds one tile type's child
boxes on an integer lattice and `closure` refines configurations over a table
of child types.  `certify_max_degree` feeds it the layouts of a rule set,
oriented from the integer rows of `expand.type_boxes` as the state table's
are; the rectangle search feeds it the layouts of one packing under many
transform assignments.

Supports 2D rule sets with box bases, axis-aligned child placements, one
common child scale whose inverse is an integer, and rational coordinates.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exact import coord
from .transforms import Similarity
from .rules import RuleError
from .expand import integer_inverse_scale, tile_at, type_boxes, walk


class UnsupportedShapeError(RuleError):
    pass


class DegreeCertificate:
    """Outcome of certify_max_degree.

    status is "certified", "counterexample" or "inconclusive".  For
    counterexamples, `vertex` is an exact point, `degree` the measured number
    of tiles meeting there and `depth` an expansion depth exhibiting it.
    `configurations` holds the closure's configurations, with offsets as
    integers on the layout lattice.
    """

    def __init__(self, bound, status, configurations=None, vertex=None,
                 degree=None, depth=None, steps=0):
        self.bound = bound
        self.status = status
        self.configurations = configurations or []
        self.vertex = vertex
        self.degree = degree
        self.depth = depth
        self.steps = steps

    @property
    def certified(self):
        return self.status == "certified"

    def __repr__(self):
        if self.status == "counterexample":
            return ("DegreeCertificate(bound=%d, counterexample at %s, degree=%d, depth=%d)"
                    % (self.bound, tuple(map(float, self.vertex)), self.degree, self.depth))
        return "DegreeCertificate(bound=%d, %s, %d configurations, %d steps)" % (
            self.bound, self.status, len(self.configurations), self.steps)


class Layout:
    """One tile type's child boxes (x0, y0, x1, y1), min corner at (0, 0).

    `k` is the inverse child scale; every offset below is already multiplied
    by k, that is, given in the children's own units.  Precomputed once:
    - pairs: (axis, i, j, delta) for each child j abutting child i across axis;
    - corners: (point, around(point)) for each child corner strictly inside;
    - high[axis], low[axis]: (i, box) for the children on the tile's upper or
      lower side across axis.
    `around` and `across` remember their answers, so a closure that meets the
    same geometry again under other child types only relabels it.
    """

    __slots__ = ("w", "h", "boxes", "k", "pairs", "corners", "high", "low",
                 "_around", "_across")

    def __init__(self, w, h, boxes, k):
        self.w, self.h, self.k = w, h, k
        self.boxes = boxes = tuple(boxes)
        self._around, self._across = {}, {}
        pairs = []
        for i, (ax0, ay0, ax1, ay1) in enumerate(boxes):
            for j, (bx0, by0, bx1, by1) in enumerate(boxes):
                if ax1 == bx0 and min(ay1, by1) > max(ay0, by0):
                    pairs.append((0, i, j, k * (by0 - ay0)))
                elif ay1 == by0 and min(ax1, bx1) > max(ax0, bx0):
                    pairs.append((1, i, j, k * (bx0 - ax0)))
        self.pairs = tuple(pairs)
        points = {}
        for x0, y0, x1, y1 in boxes:
            for p in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)):
                if 0 < p[0] < w and 0 < p[1] < h:
                    points[p] = None
        self.corners = tuple((p, self.around(*p)) for p in points)
        on = list(enumerate(boxes))
        self.high = (tuple(c for c in on if c[1][2] == w),
                     tuple(c for c in on if c[1][3] == h))
        self.low = (tuple(c for c in on if c[1][0] == 0),
                    tuple(c for c in on if c[1][1] == 0))

    def around(self, px, py):
        """(i, dx, dy) for each child whose closed box holds (px, py), with
        the child's min corner relative to the point."""
        inc = self._around.get((px, py))
        if inc is None:
            k = self.k
            inc = self._around[px, py] = tuple(
                (i, k * (x0 - px), k * (y0 - py))
                for i, (x0, y0, x1, y1) in enumerate(self.boxes)
                if x0 <= px <= x1 and y0 <= py <= y1)
        return inc

    def across(self, axis, other, delta):
        """Children meeting where tile `other` abuts this tile's upper side
        across axis, shifted along it by delta.

        Returns (pairs, cuts): pairs (i, j, offset) of abutting children, i
        here and j in `other`; cuts (point, around here, around in `other`)
        for each child corner strictly inside the shared segment, sorted
        along it, with the point in this tile's frame.
        """
        hit = self._across.get((axis, other, delta))
        if hit is None:
            # children on the shared line, as intervals along it
            if axis == 0:
                line, seg_hi, lo, hi = self.w, min(self.h, delta + other.h), 1, 3
            else:
                line, seg_hi, lo, hi = self.h, min(self.w, delta + other.w), 0, 2
            seg_lo = max(0, delta)
            a_on = [(i, b[lo], b[hi]) for i, b in self.high[axis]]
            b_on = [(j, b[lo] + delta, b[hi] + delta) for j, b in other.low[axis]]
            pairs = tuple((i, j, self.k * (b_lo - a_lo))
                          for i, a_lo, a_hi in a_on for j, b_lo, b_hi in b_on
                          if min(a_hi, b_hi) > max(a_lo, b_lo))
            cuts = []
            for v in sorted({v for _, v0, v1 in a_on + b_on for v in (v0, v1)
                             if seg_lo < v < seg_hi}):
                if axis == 0:
                    here, there = (line, v), (0, v - delta)
                else:
                    here, there = (v, line), (v - delta, 0)
                cuts.append((here, self.around(*here), other.around(*there)))
            hit = self._across[axis, other, delta] = (pairs, tuple(cuts))
        return hit


def closure(layouts, kids, bound, budget):
    """Close the configurations of a type table, stopping at degree > bound.

    layouts[t] is tile type t's Layout and kids[t][i] the type of its child
    i; the initial configurations come from every type in `kids`, in order.
    Edge configurations are ("E", axis, ta, tb, delta): tile tb abuts tile
    ta's upper side across axis, shifted by delta.  Vertex configurations
    are ("V", sorted (type, dx, dy) entries), one per tile at the vertex.
    Configurations are popped LIFO and a vertex is checked against `bound`
    when popped.

    Returns (status, steps, seen, last).  `seen` maps each configuration to
    (parent, a, b): the child pair (a, b) or the cut point (a, b) of an edge
    parent, (None, None) after a vertex parent, and for an initial one
    (None, type, (i, j) or corner point).  `last` is the violating vertex.
    """
    seen = {}
    stack = []
    for t, ts in kids.items():
        lay = layouts[t]
        for axis, i, j, delta in lay.pairs:
            cfg = ("E", axis, ts[i], ts[j], delta)
            if cfg not in seen:
                seen[cfg] = (None, t, (i, j))
                stack.append(cfg)
        for point, inc in lay.corners:
            cfg = ("V", tuple(sorted((ts[i], dx, dy) for i, dx, dy in inc)))
            if cfg not in seen:
                seen[cfg] = (None, t, point)
                stack.append(cfg)

    steps = 0
    while stack:
        if steps >= budget:
            return "inconclusive", steps, seen, None
        cfg = stack.pop()
        steps += 1
        if cfg[0] == "V":
            if len(cfg[1]) > bound:
                return "counterexample", steps, seen, cfg
            entries = []
            for t, dx, dy in cfg[1]:
                ts = kids[t]
                # the vertex sits at (-dx, -dy) in the tile's own frame
                entries += [(ts[i], cx, cy) for i, cx, cy in layouts[t].around(-dx, -dy)]
            new = ("V", tuple(sorted(entries)))
            if new not in seen:
                seen[new] = (cfg, None, None)
                stack.append(new)
            continue
        _, axis, ta, tb, delta = cfg
        kids_a, kids_b = kids[ta], kids[tb]
        pairs, cuts = layouts[ta].across(axis, layouts[tb], delta)
        for i, j, offset in pairs:
            new = ("E", axis, kids_a[i], kids_b[j], offset)
            if new not in seen:
                seen[new] = (cfg, i, j)
                stack.append(new)
        for point, inc_a, inc_b in cuts:
            entries = [(kids_a[i], dx, dy) for i, dx, dy in inc_a]
            entries += [(kids_b[j], dx, dy) for j, dx, dy in inc_b]
            new = ("V", tuple(sorted(entries)))
            if new not in seen:
                seen[new] = (cfg,) + point
                stack.append(new)
    return "certified", steps, seen, None


def _require_supported(rs):
    if rs.dim != 2:
        raise UnsupportedShapeError("degree certification supports 2D rule sets only")
    if not rs.is_rectilinear():
        raise UnsupportedShapeError("degree certification needs rectilinear tiles")
    scales = {ch.placement.scale for r in rs.rules.values() for ch in r.children}
    if len(scales) != 1:
        raise UnsupportedShapeError("degree certification needs one common child scale")
    if integer_inverse_scale(rs) is None:
        raise UnsupportedShapeError("degree certification needs an integer inverse child scale")
    coords = [v for r in rs.rules.values() for v in r.base.lo + r.base.hi]
    coords += [t for r in rs.rules.values() for ch in r.children for t in ch.placement.trans]
    if not all(v.is_rational for v in coords):
        raise UnsupportedShapeError("degree certification needs rational coordinates")


def _ruleset_layouts(rs):
    """Layouts, child types and anchor addresses of the reachable (rule, ortho)
    types, on the lattice of step 1/den; returns (layouts, kids, anchors, den)."""
    k = integer_inverse_scale(rs)
    types = rs.reachable_types()
    den, rows = type_boxes(rs, types, k)
    layouts, kids, anchors = {}, {}, {}
    for (rule_name, ortho), (lo, hi, ext) in rows.items():
        key = (rule_name, ortho.key())
        layouts[key] = Layout(*ext.tolist(), map(tuple, np.hstack([lo, hi]).tolist()), k)
        kids[key] = tuple((ch.rule, ortho.compose(ch.placement.ortho).key())
                          for ch in rs.rules[rule_name].children)
        anchors[key] = types[rule_name, ortho]
    return layouts, kids, anchors, den


def certify_max_degree(rs, bound, budget=100000):
    """Try to prove that no expansion has a vertex of degree > bound."""
    if budget < 1:
        raise ValueError("certify budget must be at least 1, got %r" % (budget,))
    _require_supported(rs)
    if bound >= 4:
        # interior-disjoint axis-aligned boxes: at most one tile per quadrant
        return DegreeCertificate(bound, "certified", steps=0)
    layouts, kids, anchors, den = _ruleset_layouts(rs)
    status, steps, seen, last = closure(layouts, kids, bound, budget)
    if status == "counterexample":
        point, depth = _replay(rs, anchors, den, seen, last)
        degree = _tiles_at_point(rs, point, depth)
        if degree <= bound:
            raise AssertionError(
                "internal error: config promised degree > %d at %s depth %d, measured %d"
                % (bound, tuple(map(float, point)), depth, degree))
        return DegreeCertificate(bound, status, vertex=point, degree=degree,
                                 depth=depth, steps=steps)
    if status == "certified":
        return DegreeCertificate(bound, status, steps=steps,
                                 configurations=sorted(c for c in seen if c[0] == "E"))
    return DegreeCertificate(bound, status, configurations=sorted(seen), steps=steps)


def _replay(rs, anchors, den, seen, cfg):
    """Exact vertex and expansion depth of a configuration, from its parents."""
    chain = []
    while cfg is not None:
        chain.append(cfg)
        cfg = seen[cfg][0]
    root = chain.pop()
    _, t, where = seen[root]
    if root[0] == "E":
        addr = anchors[t] + (where[0],)      # the edge's first tile
    else:
        point, depth = _anchor_point(rs, anchors[t], where, den), len(anchors[t]) + 1
    for cfg in reversed(chain):
        parent, a, b = seen[cfg]
        if cfg[0] == "E":
            addr += (a,)
        elif parent[0] == "E":
            point, depth = _anchor_point(rs, addr, (a, b), den), len(addr) + 1
        else:
            depth += 1
    return point, depth


def _anchor_point(rs, anchor, local, den):
    """Exact point of `local`, on the 1/den lattice of the anchor tile's layout."""
    rule_name, transform, _rev = tile_at(rs, anchor)
    # the layout frame is the ortho'd base moved to min corner 0
    sim_o = Similarity(1, transform.ortho, (0, 0))
    img = rs.rules[rule_name].base.transform(sim_o)
    base_pt = sim_o.inverse().apply(tuple(coord(Fraction(v) / den) + lo
                                          for v, lo in zip(local, img.lo)))
    return transform.apply(base_pt)


def _tiles_at_point(rs, point, depth):
    rules = rs.rules

    def misses(address, rule_name, transform, rev, lo, length):
        return not rules[rule_name].base.transform(transform).contains_point(point)

    return sum(1 for _ in walk(rs, depth, prune=misses))
