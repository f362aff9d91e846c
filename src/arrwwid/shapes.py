"""Exact geometric shapes: axis-aligned boxes and simple polygons."""

from __future__ import annotations

from .exact import ZERO, ONE, HALF, coord


class Box:
    """Axis-aligned box given by lo/hi corner points (dim 2 or 3)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = tuple(coord(v) for v in lo)
        self.hi = tuple(coord(v) for v in hi)
        if len(self.lo) != len(self.hi):
            raise ValueError("corner arity mismatch")
        for l, h in zip(self.lo, self.hi):
            if (h - l).sign() <= 0:
                raise ValueError("box must have positive extent on every axis")

    @property
    def dim(self):
        return len(self.lo)

    def measure(self):
        m = ONE
        for l, h in zip(self.lo, self.hi):
            m = m * (h - l)
        return m

    def extent(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def center(self):
        return tuple((l + h) * HALF for l, h in zip(self.lo, self.hi))

    def bounding_box(self):
        return self

    def corners(self):
        pts = [()]
        for l, h in zip(self.lo, self.hi):
            pts = [p + (v,) for p in pts for v in (l, h)]
        return pts

    def contains_point(self, p, closed=True):
        for v, l, h in zip(p, self.lo, self.hi):
            if closed:
                if (v - l).sign() < 0 or (v - h).sign() > 0:
                    return False
            else:
                if (v - l).sign() <= 0 or (v - h).sign() >= 0:
                    return False
        return True

    def on_boundary(self, p):
        return self.contains_point(p, closed=True) and not self.contains_point(p, closed=False)

    def intersection(self, other):
        lo, hi = [], []
        for (l1, h1), (l2, h2) in zip(zip(self.lo, self.hi), zip(other.lo, other.hi)):
            l, h = max(l1, l2), min(h1, h2)
            if (h - l).sign() <= 0:
                return None
            lo.append(l)
            hi.append(h)
        return Box(lo, hi)

    def transform(self, sim):
        """Image under a similarity.  Axis-aligned maps give a Box again."""
        if sim.ortho.is_axis_aligned():
            pts = [sim.apply(self.lo), sim.apply(self.hi)]
            lo = tuple(min(p[i] for p in pts) for i in range(self.dim))
            hi = tuple(max(p[i] for p in pts) for i in range(self.dim))
            return Box(lo, hi)
        if self.dim != 2:
            raise ValueError("non-axis-aligned similarity in 3D")
        return Polygon([sim.apply(p) for p in _ccw_corners(self)])

    def diameter_sq(self):
        d = ZERO
        for l, h in zip(self.lo, self.hi):
            e = h - l
            d = d + e * e
        return d

    def key(self):
        return (self.lo, self.hi)

    def __eq__(self, other):
        return isinstance(other, Box) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Box(%s, %s)" % (tuple(map(float, self.lo)), tuple(map(float, self.hi)))


def _ccw_corners(box):
    (x0, y0), (x1, y1) = box.lo, box.hi
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


class Polygon:
    """Simple 2D polygon with exact vertices, counter-clockwise orientation."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = [tuple(coord(v) for v in p) for p in vertices]
        if len(vs) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if _signed_area2(vs).sign() < 0:
            vs.reverse()
        self.vertices = tuple(vs)

    @property
    def dim(self):
        return 2

    def measure(self):
        return _signed_area2(self.vertices) * HALF

    def center(self):
        n = coord(len(self.vertices))
        sx = sum((p[0] for p in self.vertices), ZERO)
        sy = sum((p[1] for p in self.vertices), ZERO)
        return (sx / n, sy / n)

    def corners(self):
        return list(self.vertices)

    def bounding_box(self):
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return Box((min(xs), min(ys)), (max(xs), max(ys)))

    def contains_point(self, p, closed=True):
        # exact ray crossing with boundary handled explicitly
        if self.on_boundary(p):
            return closed
        x, y = p
        inside = False
        n = len(self.vertices)
        for i in range(n):
            (x1, y1), (x2, y2) = self.vertices[i], self.vertices[(i + 1) % n]
            s1, s2 = (y1 - y).sign(), (y2 - y).sign()
            if (s1 > 0) != (s2 > 0):
                # x coordinate of the edge at height y
                t = (y - y1) / (y2 - y1)
                xc = x1 + t * (x2 - x1)
                if (xc - x).sign() > 0:
                    inside = not inside
        return inside

    def on_boundary(self, p):
        n = len(self.vertices)
        for i in range(n):
            if _on_segment(self.vertices[i], self.vertices[(i + 1) % n], p):
                return True
        return False

    def transform(self, sim):
        return Polygon([sim.apply(p) for p in self.vertices])

    def key(self):
        # rotation-canonical vertex tuple
        vs = self.vertices
        best = min(range(len(vs)), key=lambda i: tuple((v.a, v.b, v.c) for p in (vs[i:] + vs[:i]) for v in p))
        return tuple(vs[best:] + vs[:best])

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Polygon(%s)" % ([tuple(map(float, p)) for p in self.vertices],)


def _signed_area2(vs):
    total = ZERO
    n = len(vs)
    for i in range(n):
        (x1, y1), (x2, y2) = vs[i], vs[(i + 1) % n]
        total = total + (x1 * y2 - x2 * y1)
    return total


def _on_segment(a, b, p):
    (ax, ay), (bx, by), (px, py) = a, b, p
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if cross.sign() != 0:
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    if dot.sign() < 0:
        return False
    len_sq = (bx - ax) * (bx - ax) + (by - ay) * (by - ay)
    return (dot - len_sq).sign() <= 0


def segments_cross(a, b, c, d):
    """True when open segments ab and cd intersect in exactly one interior point."""
    def orient(p, q, r):
        return ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])).sign()

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def solid_angles(box, p):
    """(angle, turn) at boundary point p of a 3D box, as Fractions of pi.

    angle: measure on the direction sphere of vectors pointing from p into the
    box.  turn: measure of vectors leaving the box at an angle of at least
    pi/2 with its boundary.  Both are exact multiples of pi/2 for boxes.
    """
    from fractions import Fraction

    if box.dim != 3:
        raise ValueError("solid angles are defined for 3D boxes")
    if not box.on_boundary(p):
        raise ValueError("point is not on the box boundary")
    interior_axes = 0
    for v, l, h in zip(p, box.lo, box.hi):
        at_face = (v - l).sign() == 0 or (v - h).sign() == 0
        if not at_face:
            interior_axes += 1
    # corner: 1 octant; edge point: 2 octants; facet point: 4 octants
    angle = Fraction(1, 2) * (2 ** interior_axes)
    turn = Fraction(1, 2) if interior_axes == 0 else Fraction(0)
    return angle, turn
