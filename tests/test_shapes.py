from fractions import Fraction

import pytest

from arrwwid.exact import coord, ZERO, ONE, HALF
from arrwwid.shapes import Box, Polygon, solid_angles, segments_cross


BOX = Box((0, 0, 0), (1, Fraction(1, 2), 2))


def _interior_intersects(a, b):
    """True when the open boxes a and b meet."""
    for (l1, h1), (l2, h2) in zip(zip(a.lo, a.hi), zip(b.lo, b.hi)):
        if (min(h1, h2) - max(l1, l2)).sign() <= 0:
            return False
    return True


def _shared_boundary_dim(a, b):
    """Dimension of the closed intersection of boxes a and b, or None when disjoint."""
    d = 0
    for (l1, h1), (l2, h2) in zip(zip(a.lo, a.hi), zip(b.lo, b.hi)):
        gap = (max(l1, l2) - min(h1, h2)).sign()
        if gap > 0:
            return None
        if gap < 0:
            d += 1
    return d


def test_solid_angles_corner():
    angle, turn = solid_angles(BOX, (ZERO, ZERO, ZERO))
    assert (angle, turn) == (Fraction(1, 2), Fraction(1, 2))   # (pi/2, pi/2)


def test_solid_angles_edge_midpoint():
    angle, turn = solid_angles(BOX, (HALF, ZERO, ZERO))
    assert (angle, turn) == (Fraction(1), Fraction(0))          # (pi, 0)


def test_solid_angles_facet_interior():
    angle, turn = solid_angles(BOX, (HALF, coord(Fraction(1, 4)), ZERO))
    assert (angle, turn) == (Fraction(2), Fraction(0))          # (2*pi, 0)
    assert angle + turn == 2                                    # equality case


def test_solid_angles_rejects_off_boundary():
    with pytest.raises(ValueError):
        solid_angles(BOX, (HALF, coord(Fraction(1, 4)), ONE))
    with pytest.raises(ValueError):
        solid_angles(Box((0, 0), (1, 1)), (ZERO, ZERO))


def test_box_predicates():
    b = Box((0, 0), (1, 1))
    assert b.contains_point((HALF, HALF), closed=False)
    assert b.on_boundary((ZERO, HALF))
    assert not b.on_boundary((HALF, HALF))
    b2 = Box((Fraction(1, 2), 0), (2, 1))
    assert _interior_intersects(b, b2)
    assert _shared_boundary_dim(b, Box((1, 0), (2, 1))) == 1
    assert _shared_boundary_dim(b, Box((1, 1), (2, 2))) == 0
    assert _shared_boundary_dim(b, Box((2, 2), (3, 3))) is None


def test_polygon_area_and_containment():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    assert tri.measure() == HALF
    assert tri.contains_point((coord(Fraction(1, 4)), coord(Fraction(1, 4))))
    assert not tri.contains_point((ONE, ONE))
    assert tri.on_boundary((HALF, HALF))


def test_segments_cross():
    a, b = (ZERO, ZERO), (ONE, ONE)
    c, d = (ZERO, ONE), (ONE, ZERO)
    assert segments_cross(a, b, c, d)
    assert not segments_cross(a, b, (coord(2), ZERO), (coord(3), ZERO))
