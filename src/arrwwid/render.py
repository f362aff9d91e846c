"""Deterministic SVG rendering of tilings, orders and labelled lattices."""

from __future__ import annotations

from fractions import Fraction

from .shapes import Polygon, _ccw_corners
from .expand import expand, TileSet
from .curves import scan_leaves
from .recursify import LabelledLattice, hex_center, shifted_square_box


STROKE_WIDTH = 1.0
MARGIN = 8


class RenderStyle:
    def __init__(self, size=640, sketch=False):
        self.size = size
        self.sketch = sketch            # overlay the tile-center polyline


def _fmt(x):
    return ("%.6f" % x).rstrip("0").rstrip(".")


def _color(i):
    h = i * 2654435761 % 360
    return "hsl(%d,62%%,72%%)" % h


def _transform(points_bbox, style):
    (x0, y0), (x1, y1) = points_bbox
    w, h = x1 - x0, y1 - y0
    scale = (style.size - 2 * MARGIN) / max(w, h)

    def to_px(p):
        # flip y so the unit tile renders with y up
        return ((float(p[0]) - x0) * scale + MARGIN, (y1 - float(p[1])) * scale + MARGIN)

    return to_px, (w * scale + 2 * MARGIN, h * scale + 2 * MARGIN)


def render_svg(subject, style=None, depth=None):
    """SVG document for a TileSet, a rule set (expanded), or a lattice."""
    style = style or RenderStyle()
    if isinstance(subject, LabelledLattice):
        return _render_lattice(subject, style)
    if isinstance(subject, TileSet):
        ts = subject
        rs = ts.ruleset
    else:
        rs = subject
        ts = expand(rs, depth if depth is not None else 2)
    if rs.dim != 2:
        raise ValueError("SVG rendering is 2D only")
    bb = rs.unit_rule.base.bounding_box()
    to_px, (w, h) = _transform(((float(bb.lo[0]), float(bb.lo[1])),
                                (float(bb.hi[0]), float(bb.hi[1]))), style)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
             'viewBox="0 0 %s %s">' % (_fmt(w), _fmt(h), _fmt(w), _fmt(h))]
    for i, tile in enumerate(ts.tiles):
        pts = tile.geometry.corners() if isinstance(tile.geometry, Polygon) \
            else _ccw_corners(tile.geometry)
        path = " ".join("%s,%s" % tuple(map(_fmt, to_px(p))) for p in pts)
        parts.append('<polygon points="%s" fill="%s" stroke="black" stroke-width="%s"/>'
                     % (path, _color(i), _fmt(STROKE_WIDTH)))
    if style.sketch:
        centers = []
        for addr, rule_name, transform, rev in scan_leaves(rs, ts.depth):
            geom = rs.rules[rule_name].base.transform(transform)
            centers.append(to_px(geom.center()))
        pl = " ".join("%s,%s" % tuple(map(_fmt, c)) for c in centers)
        parts.append('<polyline points="%s" fill="none" stroke="#202020" '
                     'stroke-width="%s"/>' % (pl, _fmt(STROKE_WIDTH * 1.5)))
    parts.append("</svg>")
    return "\n".join(parts)


def _render_lattice(ll, style):
    if ll.spec.kind == "shifted-cube":
        raise ValueError("3D lattices are not renderable as SVG")
    cells = list(ll.cells.items())
    labels = sorted({lab for _, lab in cells})
    label_ix = {lab: i for i, lab in enumerate(labels)}
    polys = []
    if ll.spec.kind == "hex":
        corners_rel = _hex_corner_offsets()
        for cell, lab in cells:
            c = hex_center(cell[0], cell[1])
            pts = [(float(c[0]) + dx, float(c[1]) + dy) for dx, dy in corners_rel]
            polys.append((pts, label_ix[lab]))
    else:
        scale = Fraction(1, 5 ** ll.level)
        for cell, lab in cells:
            x0, y0, x1, y1 = [float(v) for v in shifted_square_box(cell, scale)]
            polys.append(([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], label_ix[lab]))
    xs = [p[0] for pts, _ in polys for p in pts]
    ys = [p[1] for pts, _ in polys for p in pts]
    to_px, (w, h) = _transform(((min(xs), min(ys)), (max(xs), max(ys))), style)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
             'viewBox="0 0 %s %s">' % (_fmt(w), _fmt(h), _fmt(w), _fmt(h))]
    for pts, li in polys:
        path = " ".join("%s,%s" % tuple(map(_fmt, to_px(p))) for p in pts)
        parts.append('<polygon points="%s" fill="%s" stroke="#404040" '
                     'stroke-width="%s"/>' % (path, _color(li), _fmt(STROKE_WIDTH * 0.5)))
    parts.append("</svg>")
    return "\n".join(parts)


def _hex_corner_offsets():
    import math
    return [(math.cos(a), math.sin(a))
            for a in [math.radians(30 + 60 * k) for k in range(6)]]
