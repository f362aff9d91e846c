"""The eight 2D axis-aligned orthos, and placing a scaled, oriented box in a grid cell."""

from __future__ import annotations

from .exact import coord
from .transforms import Ortho, Similarity

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

