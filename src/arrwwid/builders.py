"""Helpers for building rule sets over square/box grids programmatically."""

from __future__ import annotations

from fractions import Fraction

from .exact import Coord, ZERO, ONE, coord
from .shapes import Box
from .transforms import Ortho, Similarity
from .rules import Rule, RuleSet, Child

# the eight 2D axis-aligned orthogonal maps, by short name
ORTHO2 = {
    "id": Ortho(2, 0, False),
    "r90": Ortho(2, 3, False),
    "r180": Ortho(2, 6, False),
    "r270": Ortho(2, 9, False),
    "mx": Ortho(2, 6, True),    # (x, y) -> (-x, y)
    "my": Ortho(2, 0, True),    # (x, y) -> (x, -y)
    "transpose": Ortho(2, 3, True),       # (x, y) -> (y, x)
    "antitranspose": Ortho(2, 9, True),   # (x, y) -> (-y, -x)
}


def place_in_cell(base, scale, ortho, cell_lo):
    """Similarity putting scale*ortho(base) with its min corner at cell_lo."""
    dim = base.dim
    scale = coord(scale)
    imgs = [ortho.apply(p) for p in (base.lo, base.hi)]
    min_corner = tuple(min(p[i] for p in imgs) * scale for i in range(dim))
    trans = tuple(coord(cell_lo[i]) - min_corner[i] for i in range(dim))
    return Similarity(scale, ortho, trans)


def grid_curve(name, n, cells, transforms, reversed_flags=None, rules_used=None,
               extra_rules=None, dim=2):
    """Uniform curve on an n x n (x n) unit-cube grid.

    cells: traversal order as integer grid coordinates; transforms: Ortho per
    cell; rules_used: rule name per cell (defaults to the single rule `name`).
    extra_rules maps other rule names to their own (cells, transforms, ...)
    description so composite curves can be built in one call.
    """
    specs = {name: (cells, transforms, reversed_flags, rules_used)}
    for rname, spec in (extra_rules or {}).items():
        specs[rname] = (spec + (None,) * (4 - len(spec)))[:4]
    base = Box((ZERO,) * dim, (ONE,) * dim)
    scale = Coord(1, 0, n)
    rules = {}
    for rname, (cls, trs, revs, used) in specs.items():
        if len(cls) != n ** dim:
            raise ValueError("rule %s: expected %d cells" % (rname, n ** dim))
        revs = revs or [False] * len(cls)
        used = used or [rname] * len(cls)
        children = []
        for cell, ortho, rev, child_rule in zip(cls, trs, revs, used):
            cell_lo = tuple(Fraction(c, n) for c in cell)
            children.append(Child(child_rule, place_in_cell(base, scale, ortho, cell_lo), rev))
        rules[rname] = Rule(rname, base, children)
    return RuleSet(rules, name, name=name)
