"""Recursified tilings on integer lattices.

A coarse tiling (hexagons, shifted squares, shifted cubes) is approximated by
cells of the same tiling at a finer scale, each given to a coarse cell by
`owner`.  A substitution step translates the prototile, the cells coarse cell
0 owns, to every coarse cell; repeating it turns the tiling recursive, with
fractal tile boundaries.  All analysis is lattice-exact: hexagons use axial
integer coordinates with exact geometry in the sqrt(3) field, the shifted
constructions use exact rational overlaps.

The degree measurement reports the vertex degree of the limit tiling.  On the
hexagonal lattice every lattice vertex touches only three cells, but a
degenerating construction can squeeze four distinct tiles onto a single
lattice edge (the edge collapses to a point in the limit), so hex lattices
are audited per edge; square/cubic lattices at the cells whose closed boxes
hold a lattice vertex or, in 3D, an edge-interior point.  Every audit reads
one integer label raster (`label_grid`, one entry per cell) through
`expand._block_tiles`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .exact import Coord, ZERO, ONE, HALF, SQRT3, coord, sqrt_compare
from .expand import BudgetError, DEFAULT_TILE_BUDGET, _max_block_degree


class LatticeError(ValueError):
    pass


class LatticeSpec:
    """Parameters of one recursification construction."""

    def __init__(self, name, kind, ratio, assignment, tiebreak=None):
        self.name = name
        self.kind = kind            # "hex" | "shifted-square" | "shifted-cube"
        self.ratio = ratio          # coarse/fine linear ratio (int), or "gosper"
        self.assignment = assignment
        self.tiebreak = tiebreak

    def __repr__(self):
        return "LatticeSpec(%r, %s, ratio=%r, %s)" % (
            self.name, self.kind, self.ratio, self.assignment)


SPECS = {
    "hex-9": LatticeSpec("hex-9", "hex", 3, "contained+alternate"),
    "gosper-7": LatticeSpec("gosper-7", "hex", "gosper", "coset"),
    "rhombus-4": LatticeSpec("rhombus-4", "hex", 2, "contained+alternate"),
    # a deliberately bad size-4 assignment: one residue class is owned from
    # two cells away, so every label's cell set is disconnected and the
    # connectivity diagnostic must fire
    "disconnected-4": LatticeSpec("disconnected-4", "hex", 2, "table",
                                  tiebreak={(0, 0): (0, 0), (1, 0): (0, 0),
                                            (0, 1): (0, 0), (1, 1): (1, 0)}),
    "shifted-square": LatticeSpec("shifted-square", "shifted-square", 5,
                                  "largest-overlap"),
    "shifted-cube": LatticeSpec("shifted-cube", "shifted-cube", 5,
                                "largest-overlap"),
}


def get_spec(name):
    if name not in SPECS:
        raise KeyError("unknown lattice spec %r (known: %s)"
                       % (name, ", ".join(sorted(SPECS))))
    return SPECS[name]


# -- hexagonal lattice geometry -------------------------------------------------

_AX_E1 = (SQRT3, ZERO)
_AX_E2 = (SQRT3 * HALF, Coord(3, 0, 2))
_HEX_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
# outward unit-ish normals of a pointy-top hexagon's three edge axes
_HEX_NORMALS = ((ONE, ZERO), (HALF, SQRT3 * HALF), (-HALF, SQRT3 * HALF))
_APOTHEM = SQRT3 * HALF   # per unit of circumradius


def hex_center(q, r, scale=1):
    s = coord(scale)
    return (s * (_AX_E1[0] * q + _AX_E2[0] * r),
            s * (_AX_E1[1] * q + _AX_E2[1] * r))


def _project_gap(c1, s1, c2, s2):
    """Max over the three hex axes of |<c1-c2, u>| - (apothem1 + apothem2) sign."""
    worst = -1
    for u in _HEX_NORMALS:
        d = (c1[0] - c2[0]) * u[0] + (c1[1] - c2[1]) * u[1]
        gap = abs(d) - _APOTHEM * (coord(s1) + coord(s2))
        worst = max(worst, gap.sign())
    return worst


def hex_cell_inside(q, r, cq, cr, m):
    """Fine hex (q, r) fully inside the closed coarse hex at (cq, cr), ratio m."""
    c1 = hex_center(q, r)
    c2 = hex_center(m * cq, m * cr)
    for u in _HEX_NORMALS:
        d = (c1[0] - c2[0]) * u[0] + (c1[1] - c2[1]) * u[1]
        if (abs(d) - _APOTHEM * (coord(m) - ONE)).sign() > 0:
            return False
    return True


def hex_cell_overlaps(q, r, cq, cr, m):
    """Open-overlap test between fine cell and coarse hex (same orientation)."""
    c1 = hex_center(q, r)
    c2 = hex_center(m * cq, m * cr)
    return _project_gap(c1, 1, c2, m) < 0


@functools.lru_cache(maxsize=None)
def _hex_residue_table(ratio, assignment):
    """Owner of each residue cell for aligned hex recursification.

    Maps residue (q mod m, r mod m) plus the base cell's quotient to a coarse
    index; stored as residue -> (owner_index_delta) for the representative
    cell at (q0, r0) = residue itself.
    """
    m = ratio
    table = {}
    for q0 in range(m):
        for r0 in range(m):
            owner = _hex_owner_geometric(q0, r0, m, assignment)
            table[(q0, r0)] = owner
    return table


def _hex_candidates(q, r, m):
    """Coarse indices whose hexagon might touch fine cell (q, r)."""
    c = hex_center(q, r)
    # nearest coarse axial estimate via floats, then a ring around it
    fx, fy = float(c[0]), float(c[1])
    rr = fy / (1.5 * m)
    qq = fx / (math.sqrt(3) * m) - rr / 2
    out = set()
    for dq in (-1, 0, 1, 2, -2):
        for dr in (-1, 0, 1, 2, -2):
            out.add((round(qq) + dq, round(rr) + dr))
    return out


def _hex_owner_geometric(q, r, m, assignment):
    cands = [c for c in _hex_candidates(q, r, m) if hex_cell_overlaps(q, r, c[0], c[1], m)]
    inside = [c for c in cands if hex_cell_inside(q, r, c[0], c[1], m)]
    if inside:
        return inside[0]
    if len(cands) == 3:
        # straddler sitting on a coarse triple point: translation-invariant
        # three-way tiebreak; assigning to the up-left/down-left participant
        # leaves every coarse seam with at most one foreign bump, so no two
        # bumps can pinch a seam from both ends
        return _triple_point_owner(cands)
    keepers = [c for c in cands if _straddler_kept(q, r, c, m, assignment)]
    if len(keepers) != 1:
        raise LatticeError(
            "assignment not total for cell (%d, %d): kept by %r" % (q, r, keepers))
    return keepers[0]


def _triple_point_owner(cands):
    s = set(cands)
    for c in cands:
        if {c, (c[0], c[1] + 1), (c[0] - 1, c[1] + 1)} == s:
            return (c[0] - 1, c[1] + 1)   # up-left of an inverted-Y junction
        if {c, (c[0], c[1] - 1), (c[0] + 1, c[1] - 1)} == s:
            return (c[0], c[1] - 1)       # down-left of a Y junction
    raise LatticeError("unrecognized triple point %r" % (cands,))


def _straddler_kept(q, r, c, m, assignment):
    """Does coarse tile c keep straddler (q, r) under the tiebreak rule?"""
    ring = _straddler_ring(c, m)
    try:
        idx = ring.index((q, r))
    except ValueError:
        return False
    if assignment == "contained+alternate":
        # clockwise from three o'clock: give, keep, give, keep, ...
        return idx % 2 == 1
    raise LatticeError("unknown assignment %r" % assignment)


@functools.lru_cache(maxsize=None)
def _straddler_ring(c, m):
    """Straddler cells around coarse tile c, clockwise from three o'clock."""
    cq, cr = c
    center = hex_center(m * cq, m * cr)
    cells = []
    # scan a box of candidate fine cells around the coarse tile
    span = 2 * m
    base_q, base_r = m * cq, m * cr
    for q in range(base_q - span, base_q + span + 1):
        for r in range(base_r - span, base_r + span + 1):
            if not hex_cell_overlaps(q, r, cq, cr, m):
                continue
            if any(hex_cell_inside(q, r, oq, or_, m)
                   for (oq, or_) in _hex_candidates(q, r, m)):
                continue
            cells.append((q, r))

    cells.sort(key=functools.cmp_to_key(
        lambda a, b: _cw_cmp(_vec(center, a), _vec(center, b))))
    return tuple(cells)


def _vec(center, cell):
    p = hex_center(cell[0], cell[1])
    return (p[0] - center[0], p[1] - center[1])


def _cw_cmp(v1, v2):
    g1, g2 = _cw_group(v1), _cw_group(v2)
    if g1 != g2:
        return -1 if g1 < g2 else 1
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    s = cross.sign()
    # clockwise within a half-plane group: earlier = greater angle
    return -s


def _cw_group(v):
    sy = v[1].sign()
    sx = v[0].sign()
    if sy == 0:
        return 0 if sx > 0 else 2
    if sy < 0:
        return 1
    return 3


# gosper coset map: coarse basis columns (2,1) and (-1,3) in axial coordinates
_GOSPER_OFFSETS = ((0, 0),) + _HEX_DIRS


def _gosper_owner(q, r):
    # solve (q, r) = M c + delta with delta among the seven flower offsets
    # M = [[2, -1], [1, 3]], det 7, M^-1 = 1/7 [[3, 1], [-1, 2]]
    for dq, dr in _GOSPER_OFFSETS:
        x, y = q - dq, r - dr
        cq, num = 3 * x + y, -x + 2 * y
        if cq % 7 == 0 and num % 7 == 0:
            return (cq // 7, num // 7)
    raise LatticeError("gosper coset decomposition failed for (%d, %d)" % (q, r))


def hex_owner(spec, cell):
    q, r = cell
    if spec.ratio == "gosper":
        return _gosper_owner(q, r)
    m = spec.ratio
    q0, r0 = q % m, r % m
    if spec.assignment == "table":
        delta = spec.tiebreak[(q0, r0)]
        return ((q - q0) // m - delta[0], (r - r0) // m - delta[1])
    table = _hex_residue_table(m, spec.assignment)
    base_owner = table[(q0, r0)]
    return (base_owner[0] + (q - q0) // m, base_owner[1] + (r - r0) // m)


# -- shifted square / cube owners ------------------------------------------------

def _shifted_row(j5, kappa_sum):
    """Largest-overlap row index for a fine interval of height 1/5 at offset
    j5/5 + kappa_sum/15 relative to the coarse stack (exact)."""
    y = Fraction(j5, 5) + Fraction(kappa_sum, 15)
    f = y - math.floor(y)
    j = math.floor(y)
    # interval [y, y+1/5] crosses j+1 iff f > 4/5; larger piece wins, no ties
    if f > Fraction(4, 5):
        upper = y + Fraction(1, 5) - (j + 1)
        lower = Fraction(1, 5) - upper
        if upper == lower:
            raise LatticeError("largest-overlap tie at offset %s" % y)
        return j + 1 if upper > lower else j
    return j


def shifted_square_owner(spec, cell):
    """Coarse cell of fine cell (i, j); columns shifted by 1/3, scale 1/5."""
    i, j = cell
    ci = i // 5 if i >= 0 else -((-i + 4) // 5)
    kappa = i - 5 * ci
    return (ci, _shifted_row(j, kappa))


def shifted_cube_owner(spec, cell):
    """Layers shift (+1/3, -1/3) in (x, y) per level; columns shift +1/3 in y."""
    i, j, k = cell
    ck = k // 5
    kz = k - 5 * ck
    ci = _shifted_row(i, kz)
    kx = i - 5 * ci
    cj = _shifted_row(j, kx - kz)
    return (ci, cj, ck)


def shifted_square_box(cell, scale=Fraction(1)):
    i, j = cell
    s = Fraction(scale)
    x0 = s * i
    y0 = s * (j + Fraction(i, 3))
    return (x0, y0, x0 + s, y0 + s)


def shifted_cube_box(cell, scale=Fraction(1)):
    i, j, k = cell
    s = Fraction(scale)
    x0 = s * (i + Fraction(k, 3))
    y0 = s * (j + Fraction(i - k, 3))
    z0 = s * k
    return (x0, y0, z0, x0 + s, y0 + s, z0 + s)


def owner(spec, cell):
    if spec.kind == "hex":
        return hex_owner(spec, cell)
    if spec.kind == "shifted-square":
        return shifted_square_owner(spec, cell)
    if spec.kind == "shifted-cube":
        return shifted_cube_owner(spec, cell)
    raise LatticeError("unknown lattice kind %r" % spec.kind)


# -- labelled lattices -------------------------------------------------------------

class LabelledLattice:
    """Window of lattice cells labelled by their level-i coarse owner."""

    def __init__(self, spec, level, cells, core_labels):
        self.spec = spec
        self.level = level
        self.cells = cells              # cell -> label
        self.core_labels = core_labels  # labels fully materialized

    def label_counts(self):
        counts = {}
        for lab in self.cells.values():
            counts[lab] = counts.get(lab, 0) + 1
        return counts

    def cells_of(self, label):
        return [c for c, lab in self.cells.items() if lab == label]

    def __repr__(self):
        return "LabelledLattice(%s, level=%d, %d cells)" % (
            self.spec.name, self.level, len(self.cells))


def _origin(spec, c):
    """M·c, the fine cell at coarse cell c's origin (M the substitution matrix)."""
    if spec.ratio == "gosper":
        return (2 * c[0] - c[1], c[0] + 3 * c[1])
    return tuple(spec.ratio * v for v in c)


@functools.lru_cache(maxsize=None)
def _prototile(spec):
    """The fine cells that coarse cell 0 owns, in lexicographic order.

    Every owner satisfies owner(M·c + x) = c + owner(x), so each coarse cell
    owns a translate of these cells, det M of them (m^d, or 7 for gosper).
    The window [-s, 2s) per axis, s = m (3 for gosper), spans the coarse
    cells next to cell 0; a short count means it missed a cell.
    """
    dim = 3 if spec.kind == "shifted-cube" else 2
    s, det = (3, 7) if spec.ratio == "gosper" else (spec.ratio, spec.ratio ** dim)
    cells = tuple(cell for cell in itertools.product(range(-s, 2 * s), repeat=dim)
                  if owner(spec, cell) == (0,) * dim)
    if len(cells) != det:
        raise LatticeError("prototile of %s holds %d cells, not det M = %d"
                           % (spec.name, len(cells), det))
    return cells


def recursify(spec, levels):
    """Labelled lattice after `levels` substitution steps.

    Fine cell M·c + p, p in the prototile, keeps coarse cell c's top label.
    The labels materialized are `default_window`'s: a core tile plus the
    ring around it, so that interior measurements are meaningful.  More
    cells than the tile budget raise BudgetError before any is built.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    window = default_window(spec)
    proto = _prototile(spec)
    n = len(window) * len(proto) ** levels
    if n > DEFAULT_TILE_BUDGET:
        raise BudgetError("%s at level %d has %d cells (budget %d)" % (
            spec.name, levels, n, DEFAULT_TILE_BUDGET))
    frontier = {c: c for c in window}
    for _ in range(levels):
        fine = {}
        for c, top in frontier.items():
            base = _origin(spec, c)
            for p in proto:
                fine[tuple(map(operator.add, base, p))] = top
        frontier = fine
    return LabelledLattice(spec, levels, frontier, set(window))


def default_window(spec):
    if spec.kind == "hex":
        return [(0, 0), *_HEX_DIRS]
    if spec.kind == "shifted-square":
        return [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    return [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]


# -- degree measurement ------------------------------------------------------------

# the four cells around each of a hex cell's three edge axes: the edge's two
# cells and the two cells at its end vertices
_HEX_EDGE_BLOCKS = (((0, 0), (1, 0), (0, 1), (1, -1)),
                    ((0, 0), (0, 1), (-1, 1), (1, 0)),
                    ((0, 0), (-1, 1), (0, 1), (-1, 0)))
# the three cells around each of a hex cell's two vertex orientations
_HEX_VERTEX_BLOCKS = (((0, 0), (0, 1), (-1, 1)),
                      ((0, 0), (0, -1), (1, -1)))


@functools.lru_cache(maxsize=None)
def _contact_blocks(kind):
    """The cell offsets whose closed boxes hold one point, one block per
    set up to translation (5 in 2D, 25 in 3D), taken at every vertex of the
    lattice of a third of the cell side in cell 0's closed box and, in 3D,
    at the midpoints of that lattice's edges, where boxes can meet without
    sharing a vertex.  Six times `shifted_*_box` has integer corners."""
    dim = 3 if kind == "shifted-cube" else 2
    box = shifted_cube_box if dim == 3 else shifted_square_box
    near = [(cell, [int(6 * v) for v in box(cell)])
            for cell in itertools.product(range(-2, 3), repeat=dim)]
    blocks = set()
    for p in itertools.product(range(7), repeat=dim):
        # in sixths: lattice vertices are even, an edge midpoint has one odd axis
        if sum(v % 2 for v in p) > dim - 2:
            continue
        cells = sorted(cell for cell, b in near
                       if all(b[a] <= p[a] <= b[dim + a] for a in range(dim)))
        blocks.add(tuple(tuple(map(operator.sub, cell, cells[0])) for cell in cells))
    return tuple(sorted(blocks))


def label_grid(ll):
    """The lattice's labels in one int32 raster, each cell at its own index.

    Labels are numbered densely and -1 marks "no cell".  Hex cells sit at
    their axial (q, r) index, shifted cells at (i, j) or (i, j, k), moved so
    that the least index per axis is 0.
    """
    dense = {}
    labels = np.array([dense.setdefault(lab, len(dense)) for lab in ll.cells.values()],
                      dtype=np.int32)
    idx = np.array(list(ll.cells), dtype=np.int64)
    idx -= idx.min(axis=0)
    grid = np.full(tuple(idx.max(axis=0) + 1), -1, dtype=np.int32)
    grid[tuple(idx.T)] = labels
    return grid


def lattice_degree(ll):
    """Maximum number of distinct labels meeting at a lattice feature.

    Read from `label_grid` by `expand._block_tiles`, where a block
    holding a -1 cell is not interior and counts 0.  hex: the four cells
    around each interior edge, which also catches tiles degenerating onto
    an edge.  shifted-square and shifted-cube: the contact blocks, the cells
    whose closed boxes meet at a point, at lattice vertices and, in 3D, at
    edge-interior points.
    """
    blocks = _HEX_EDGE_BLOCKS if ll.spec.kind == "hex" else _contact_blocks(ll.spec.kind)
    return _max_block_degree(label_grid(ll), blocks)


def hex_vertex_degree(ll):
    """Classic per-vertex audit (three cells per hexagonal lattice vertex)."""
    return _max_block_degree(label_grid(ll), _HEX_VERTEX_BLOCKS)


def coarse_degree(spec):
    """Degree of the unrecursified (level-0) tiling: where each cell is its
    own tile, the hexagonal lattice's vertex degree for a hex spec."""
    if spec.kind == "hex":
        return hex_vertex_degree(LabelledLattice(spec, 0, {c: c for c in _hex_window0()}, set()))
    cells = default_window(spec)
    return lattice_degree(LabelledLattice(spec, 0, {c: c for c in cells}, set(cells)))


def _hex_window0():
    return {(q, r) for q in range(-2, 3) for r in range(-2, 3)}


def connected(cell_set, kind="hex"):
    """BFS connectivity of a label's cell set."""
    if not cell_set:
        return True
    cells = set(cell_set)
    if kind == "hex":
        nbrs = _HEX_DIRS
    elif kind == "shifted-square":
        nbrs = ((1, 0), (-1, 0), (0, 1), (0, -1))
    else:
        nbrs = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for d in nbrs:
            nxt = tuple(c + dd for c, dd in zip(cur, d))
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(cells)


# -- displacement bounds --------------------------------------------------------------

class DisplacementBound:
    """Per-step and limiting boundary displacement of a recursification.

    Values are floats; `exact` carries (p, q, n) triples representing
    p + q*sqrt(n) for the exact comparisons the constructions admit.
    """

    def __init__(self, spec_name, d1, factor, s, exact=None):
        if factor >= 1:
            raise LatticeError("non-contracting recursification (factor %s)" % factor)
        self.spec_name = spec_name
        self.d1 = d1
        self.factor = factor
        self.d_inf = d1 / (1 - factor)
        self.s = s
        self.safe_radius = s - self.d_inf
        self.exact = exact or {}

    def __repr__(self):
        return ("DisplacementBound(%s, d1=%.6g, factor=%.6g, d_inf=%.6g, "
                "safe_radius=%.6g)" % (self.spec_name, self.d1, self.factor,
                                       self.d_inf, self.safe_radius))


def displacement_bound(spec):
    """Closed-form displacement recurrences, per unit of coarse cell size.

    gosper: one refinement replaces each boundary segment of length u by
    three of length u/sqrt(7) tilted by arctan(sqrt(3)/5), so d1 =
    sqrt(3)/14 * u and the recurrence contracts by 1/sqrt(7).  shifted
    square/cube: each step moves the boundary by at most (1/3)*sqrt(d-1)/5
    of the coarse width and contracts by 1/5.
    """
    if spec.name == "gosper-7":
        d1 = math.sqrt(3) / 14
        factor = 1 / math.sqrt(7)
        s = 0.5
        return DisplacementBound(spec.name, d1, factor, s)
    if spec.name == "shifted-cube":
        d1 = math.sqrt(2) / 15
        factor = 1 / 5
        s = 1 / 6
        exact = {
            # d_inf = (5/4) * sqrt(2)/15 = sqrt(2)/12
            "d_inf": (Fraction(0), Fraction(1, 12), 2),
            # safe radius = 1/6 - sqrt(2)/12 = (2 - sqrt(2)) / 12
            "safe_radius": (Fraction(1, 6), Fraction(-1, 12), 2),
        }
        return DisplacementBound(spec.name, d1, factor, s, exact)
    if spec.name == "shifted-square":
        d1 = Fraction(1, 15)
        factor = Fraction(1, 5)
        s = Fraction(1, 6)
        return DisplacementBound(spec.name, float(d1), float(factor), float(s))
    raise LatticeError("no geometric step data for spec %r" % spec.name)


def exact_compare(bound, field, rhs):
    """Exact sign of bound.exact[field] - rhs (rhs a Fraction)."""
    p, q, n = bound.exact[field]
    return sqrt_compare(p, q, n, Fraction(rhs))
