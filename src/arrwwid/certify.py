"""Vertex-degree certification for rectilinear recursive tilings.

The certifier explores a finite abstraction of all expansions: edge
configurations (how two same-level tiles can abut along an axis line, with
their exact relative offset) and vertex configurations (the arrangement of
tiles around one point).  Starting from each rule's internal adjacencies it
applies one refinement step repeatedly; if the set closes without ever seeing
a vertex with more than `bound` incident tiles, no expansion of any depth can
contain one.  Every configuration is realizable, so a violating vertex
configuration yields a concrete counterexample vertex, which is re-verified
against an actual expansion before being reported.

Supports 2D rule sets with box bases, axis-aligned child placements and one
common child scale.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import coord
from .transforms import Similarity
from .rules import RuleError
from .expand import tile_at, walk


class UnsupportedShapeError(RuleError):
    pass


class DegreeCertificate:
    """Outcome of certify_max_degree.

    status is "certified", "counterexample" or "inconclusive".  For
    counterexamples, `vertex` is an exact point, `degree` the measured number
    of tiles meeting there and `depth` an expansion depth exhibiting it.
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


class _Layout:
    """One tile type's subdivision, normalized to min corner (0, 0)."""

    __slots__ = ("w", "h", "children", "scale", "shift", "ortho")

    def __init__(self, w, h, children, scale, shift, ortho):
        self.w = w
        self.h = h
        self.children = children   # list of (type_key, x0, y0, x1, y1) Fractions
        self.scale = scale
        self.shift = shift         # min corner of ortho(base), exact point
        self.ortho = ortho


def _require_supported(rs):
    if rs.dim != 2:
        raise UnsupportedShapeError("degree certification supports 2D rule sets only")
    if not rs.is_rectilinear():
        raise UnsupportedShapeError("degree certification needs rectilinear tiles")
    scales = {ch.placement.scale for r in rs.rules.values() for ch in r.children}
    if len(scales) != 1:
        raise UnsupportedShapeError("degree certification needs one common child scale")


def _layouts(rs):
    """Layout per reachable (rule, ortho) type."""
    reach = rs.reachable_types()
    scale = rs.child_scale().as_fraction()
    layouts = {}
    for (rule_name, ortho), _addr in reach.items():
        rule = rs.rules[rule_name]
        sim_o = Similarity(1, ortho, (0, 0))
        img = rule.base.transform(sim_o)
        shift = img.lo
        kids = []
        for ch in rule.children:
            sim = sim_o.compose(ch.placement)
            g = rs.rules[ch.rule].base.transform(sim)
            ctype = (ch.rule, ortho.compose(ch.placement.ortho).key())
            kids.append((ctype,
                         (g.lo[0] - shift[0]).as_fraction(),
                         (g.lo[1] - shift[1]).as_fraction(),
                         (g.hi[0] - shift[0]).as_fraction(),
                         (g.hi[1] - shift[1]).as_fraction()))
        ext = img.extent()
        layouts[(rule_name, ortho.key())] = _Layout(
            ext[0].as_fraction(), ext[1].as_fraction(), kids, scale, shift, ortho)
    anchors = {(rn, o.key()): addr for (rn, o), addr in reach.items()}
    return layouts, anchors


def certify_max_degree(rs, bound, budget=100000):
    """Try to prove that no expansion has a vertex of degree > bound."""
    _require_supported(rs)
    if bound >= 4:
        # interior-disjoint axis-aligned boxes: at most one tile per quadrant
        return DegreeCertificate(bound, "certified", steps=0)
    layouts, anchors = _layouts(rs)

    seen = {}
    queue = []

    def push(cfg, witness):
        if cfg not in seen:
            seen[cfg] = witness
            queue.append(cfg)

    # initial configurations from each rule's internal structure; witnesses
    # are materialized eagerly: ("ec", addrA, addrB) or ("vc", point, depth)
    for tkey, lay in layouts.items():
        anchor = anchors[tkey]
        for i, a in enumerate(lay.children):
            for j, b in enumerate(lay.children):
                if i == j:
                    continue
                ec = _make_ec(a, b, lay.scale)
                if ec is not None:
                    push(("E",) + ec, ("ec", anchor + (i,), anchor + (j,)))
        for point, incident in _interior_corner_points(lay):
            vc = _vertex_config(lay, point, incident)
            push(("V", vc),
                 ("vc", _anchor_point(rs, anchor, point), len(anchor) + 1))

    steps = 0
    while queue:
        if steps >= budget:
            return DegreeCertificate(bound, "inconclusive",
                                     configurations=sorted(seen), steps=steps)
        cfg = queue.pop()
        steps += 1
        wit = seen[cfg]
        if cfg[0] == "V":
            if len(cfg[1]) > bound:
                return _counterexample(rs, bound, wit, steps)
            push(("V", _refine_vc(layouts, cfg[1])), ("vc", wit[1], wit[2] + 1))
        else:
            addr_a, addr_b = wit[1], wit[2]
            for new_cfg, step in _refine_ec(layouts, cfg):
                if step[0] == "pair":
                    push(new_cfg, ("ec", addr_a + (step[1],), addr_b + (step[2],)))
                else:
                    push(new_cfg,
                         ("vc", _anchor_point(rs, addr_a, step[1]), len(addr_a) + 1))
    return DegreeCertificate(bound, "certified",
                             configurations=sorted(k for k in seen if k[0] == "E"),
                             steps=steps)


def _make_ec(a, b, scale):
    """Edge config for two sibling boxes, or None when not abutting.

    Offsets are stored in the pair's own units, hence the rescale.
    """
    ta, ax0, ay0, ax1, ay1 = a
    tb, bx0, by0, bx1, by1 = b
    if ax1 == bx0 and min(ay1, by1) > max(ay0, by0):
        return (0, ta, tb, (by0 - ay0) / scale)
    if ay1 == by0 and min(ax1, bx1) > max(ax0, bx0):
        return (1, ta, tb, (bx0 - ax0) / scale)
    return None


def _interior_corner_points(lay):
    """Child corner points strictly inside the layout, with incident children."""
    pts = {}
    for idx, (t, x0, y0, x1, y1) in enumerate(lay.children):
        for p in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)):
            if 0 < p[0] < lay.w and 0 < p[1] < lay.h:
                pts.setdefault(p, None)
    out = []
    for p in pts:
        incident = [k for k, (t, x0, y0, x1, y1) in enumerate(lay.children)
                    if x0 <= p[0] <= x1 and y0 <= p[1] <= y1]
        out.append((p, incident))
    return out


def _vertex_config(lay, point, incident):
    entries = []
    for k in incident:
        t, x0, y0, x1, y1 = lay.children[k]
        entries.append((t, (x0 - point[0]) / lay.scale, (y0 - point[1]) / lay.scale))
    return tuple(sorted(entries))


def _norm_vc(entries):
    return tuple(sorted(entries))


def _refine_vc(layouts, vc):
    """One subdivision step of every tile around the vertex (at the origin)."""
    new_entries = []
    for t, dx, dy in vc:
        lay = layouts[t]
        # tile occupies [dx*s? ...]: offsets are in current-level units, the
        # tile's own layout units; origin sits at (-dx, -dy) in layout frame
        px, py = -dx, -dy
        for ct, x0, y0, x1, y1 in lay.children:
            if x0 <= px <= x1 and y0 <= py <= y1:
                new_entries.append((ct, (x0 - px) / lay.scale, (y0 - py) / lay.scale))
    return _norm_vc(new_entries)


def _refine_ec(layouts, cfg):
    """Refine an edge config once: child edge configs plus interior cut vertices."""
    _, axis, ta, tb, delta = cfg
    la, lb = layouts[ta], layouts[tb]
    s = la.scale
    if axis == 0:
        line = la.w
        a_on = [(i, c) for i, c in enumerate(la.children) if c[3] == line]
        b_on = [(i, (c[0], c[1] + line, c[2] + delta, c[3] + line, c[4] + delta))
                for i, c in enumerate(lb.children) if c[1] == 0]
        lo_t, hi_t = 2, 4   # y0, y1 positions inside the child tuples
        seg_lo, seg_hi = max(Fraction(0), delta), min(la.h, delta + lb.h)
    else:
        line = la.h
        a_on = [(i, c) for i, c in enumerate(la.children) if c[4] == line]
        b_on = [(i, (c[0], c[1] + delta, c[2] + line, c[3] + delta, c[4] + line))
                for i, c in enumerate(lb.children) if c[2] == 0]
        lo_t, hi_t = 1, 3
        seg_lo, seg_hi = max(Fraction(0), delta), min(la.w, delta + lb.w)

    out = []
    for ia, a in a_on:
        for ib, b in b_on:
            lo = max(a[lo_t], b[lo_t])
            hi = min(a[hi_t], b[hi_t])
            if hi > lo:
                out.append((("E", axis, a[0], b[0], (b[lo_t] - a[lo_t]) / s),
                            ("pair", ia, ib)))
    cuts = set()
    for _, c in a_on + b_on:
        for v in (c[lo_t], c[hi_t]):
            if seg_lo < v < seg_hi:
                cuts.add(v)
    for v in sorted(cuts):
        point = (line, v) if axis == 0 else (v, line)
        entries = []
        for _, (t, x0, y0, x1, y1) in a_on + b_on:
            if x0 <= point[0] <= x1 and y0 <= point[1] <= y1:
                entries.append((t, (x0 - point[0]) / s, (y0 - point[1]) / s))
        out.append((("V", _norm_vc(entries)), ("cut", point)))
    return out


def _counterexample(rs, bound, witness, steps):
    point, depth = witness[1], witness[2]
    degree, found_depth = _measure_degree(rs, point, depth, bound)
    return DegreeCertificate(bound, "counterexample", vertex=point,
                             degree=degree, depth=found_depth, steps=steps)


def _anchor_point(rs, anchor, local):
    rule_name, transform, _rev = tile_at(rs, anchor)
    lay_ortho = transform.ortho
    # local point lives in the anchor tile's layout frame (min corner at 0)
    sim_o = Similarity(1, lay_ortho, (0, 0))
    img = rs.rules[rule_name].base.transform(sim_o)
    base_pt = sim_o.inverse().apply((coord(local[0]) + img.lo[0],
                                     coord(local[1]) + img.lo[1]))
    return transform.apply(base_pt)


def _measure_degree(rs, point, depth, bound):
    """Verify the violation against an actual expansion at the claimed depth."""
    count = _tiles_at_point(rs, point, depth)
    if count <= bound:
        raise AssertionError(
            "internal error: config promised degree > %d at %s depth %d, measured %d"
            % (bound, tuple(map(float, point)), depth, count))
    return count, depth


def _tiles_at_point(rs, point, depth):
    rules = rs.rules

    def misses(address, rule_name, transform, rev, lo, length):
        return not rules[rule_name].base.transform(transform).contains_point(point)

    return sum(1 for _ in walk(rs, depth, prune=misses))
