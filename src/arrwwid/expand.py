"""The one tile-tree traversal (`walk`) and what is built on it: expansion
into tile sets with vertex analysis, in integers on the ranks of the exact
coordinates.  Also the compiled integer state table of a uniform rectilinear
rule set, the same descent on it in integers (`table_walk`), its leaves as
integer arrays (`table_leaves`) and the scan-order lattice raster painted
from them."""

from __future__ import annotations

import itertools
import math
import weakref
from fractions import Fraction

import numpy as np

from .exact import ZERO
from .shapes import Box
from .transforms import Ortho, Similarity
from .rules import RuleError

DEFAULT_TILE_BUDGET = 10 ** 7


class BudgetError(RuntimeError):
    pass


class Tile:
    __slots__ = ("address", "rule", "transform", "geometry", "reversed")

    def __init__(self, address, rule, transform, geometry, reversed_=False):
        self.address = address
        self.rule = rule
        self.transform = transform
        self.geometry = geometry
        self.reversed = reversed_

    def __repr__(self):
        return "Tile(%r, rule=%r)" % (self.address, self.rule)


class TileSet:
    """All tiles of one expansion depth, ordered lexicographically by address."""

    def __init__(self, ruleset, depth, tiles):
        self.ruleset = ruleset
        self.depth = depth
        self.tiles = tiles
        self._vertex_index = None
        self._ranks = None       # (ranks, points): the index's points as ranks, for degrees

    def __len__(self):
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    @property
    def vertex_index(self):
        """Map corner point -> sorted list of indices of incident tiles.

        Incidence means the point lies on the tile's closed boundary, so a
        T-junction stem counts even though the point is not one of its
        corners.  Points come in order of first appearance, tile by tile.
        The index runs in integers on the ranks of the tiles' corners
        (`rank_incidence`); the unit box is ranked along for
        `vertex_degrees`.
        """
        if self._vertex_index is None:
            geoms = [t.geometry for t in self.tiles]
            corners = [g.corners() for g in geoms]
            values = [p for cs in corners for p in cs]
            if self.ruleset is not None:
                unit = self.ruleset.unit_rule.base.bounding_box()
                values += [unit.lo, unit.hi]
            ranks = Ranks(values)
            keys, points, point, incident = rank_incidence(geoms, corners, ranks)
            start = np.searchsorted(point, np.arange(len(keys) + 1)).tolist()
            incident = incident.tolist()
            self._vertex_index = {p: incident[a:b] for p, a, b in zip(keys, start, start[1:])}
            self._ranks = ranks, points
        return self._vertex_index

    def total_measure(self):
        total = ZERO
        for t in self.tiles:
            total = total + t.geometry.measure()
        return total


class Ranks:
    """Exact coordinates replaced by their ranks, one axis at a time.

    `axes[a]` lists the distinct values on axis a of the points given, in
    ascending order, and `of` replaces each coordinate of such points by its
    index there.  A comparison or an equality of two values on one axis has
    the same outcome on their ranks, which is every test the integer
    analyses make; sums and differences of ranks mean nothing.
    """

    def __init__(self, points):
        # a Coord's canonical (a, b, c) keys it faster than its hash
        self.axes, self._index = [], []
        for col in zip(*points):
            axis = sorted({(v.a, v.b, v.c): v for v in col}.values())
            self.axes.append(axis)
            self._index.append({(v.a, v.b, v.c): i for i, v in enumerate(axis)})

    def of(self, points):
        """The ranks of the given points, int64 (n, d)."""
        return np.array([[index[v.a, v.b, v.c] for v in col]
                         for index, col in zip(self._index, zip(*points))],
                        dtype=np.int64).reshape(len(self.axes), -1).T


def rank_incidence(geoms, corners, ranks):
    """`corner_incidence` on exact tile geometries, in ranks.

    corners[i] lists tile i's corners (box corners or polygon vertices),
    which `ranks` holds; a tile's bounding box is the least and the greatest
    rank of its corners on each axis.  Box tiles take the face test in
    integers; for a polygon, each corner inside its closed bounding box is a
    candidate and `Polygon.on_boundary` decides.  Returns (keys, points,
    point, tiles): the distinct corners in order of first appearance (the
    tiles' own corner tuples), their ranks (p, d), and the incidences as
    pairs point[i], tiles[i], by point and then ascending tile.
    """
    flat = [p for cs in corners for p in cs]
    ints = ranks.of(flat)
    counts = np.array([len(cs) for cs in corners])
    starts = np.cumsum(counts) - counts
    lo, hi = np.minimum.reduceat(ints, starts), np.maximum.reduceat(ints, starts)
    box = np.array([isinstance(g, Box) for g in geoms])
    first, points, point, tiles = corner_incidence(lo, hi, ints, box)
    keys = [flat[f] for f in first.tolist()]
    poly = np.flatnonzero(~box[tiles])
    if len(poly):
        keep = np.ones(len(tiles), dtype=bool)
        keep[poly] = [geoms[t].on_boundary(keys[j])
                      for j, t in zip(point[poly].tolist(), tiles[poly].tolist())]
        point, tiles = point[keep], tiles[keep]
    return keys, points, point, tiles


def on_box_boundary(p, lo, hi):
    """Whether integer points p lie on the closed boundary of the boxes with
    min and max corners lo, hi (broadcast over the last axis)."""
    return ((lo <= p) & (p <= hi)).all(axis=-1) & ((p == lo) | (p == hi)).any(axis=-1)


def on_unit_boundary(unit, ranks, points, keys):
    """Whether each point lies on the closed boundary of the unit base: in
    ranks (`points`) for a box, ranked along, and one exact point (`keys`) at
    a time for a polygon."""
    if isinstance(unit, Box):
        return on_box_boundary(points, *ranks.of([unit.lo, unit.hi]))
    return np.array([unit.on_boundary(p) for p in keys], dtype=bool)


def _ragged(counts):
    """(owner, rank) of the flattened ragged rows of the given lengths."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def corner_incidence(lo, hi, corners=None, faces=None):
    """The integer core of `TileSet.vertex_index`, for tiles with bounding
    boxes of min and max corners lo, hi (n, d), n > 0.

    corners (m, d) lists every tile's corners, tile by tile; by default each
    box's 2**d corners in `Box.corners` order.  A tile meets a point when
    its closed box holds the point and, for the tiles marked in `faces` (by
    default all), the point lies on a face.

    Returns (first, points, point, tiles).  The distinct corners come in
    order of first appearance: first holds the index in the corner list of
    each one's first appearance and points (p, d) the points themselves.
    Each incidence is a pair point[i], tiles[i], ordered by point and then
    ascending tile.
    """
    d = lo.shape[1]
    if corners is None:
        bits = np.array(list(itertools.product((False, True), repeat=d)))
        corners = np.where(bits, hi[:, None], lo[:, None]).reshape(-1, d)
    first = np.sort(np.unique(corners, axis=0, return_index=True)[1])
    points = corners[first]
    # File every tile in each bucket of side h that its closed box meets: the
    # tiles holding a point are then among those filed in the point's bucket.
    # h is the smallest box extent; buckets are numbered row-major.
    origin = lo.min(axis=0)
    h = max(int((hi - lo).min()), 1)
    blo, bhi = (lo - origin) // h, (hi - origin) // h
    span = bhi - blo + 1
    stride = np.cumprod(np.append(1, bhi.max(axis=0)[:0:-1] + 1))[::-1]
    tile, rest = _ragged(span.prod(axis=1))
    key = np.zeros(len(tile), dtype=np.int64)
    for a in reversed(range(d)):        # rest in the mixed radix of the tile's spans
        key += (blo[tile, a] + rest % span[tile, a]) * stride[a]
        rest //= span[tile, a]
    order = np.argsort(key, kind="stable")          # keeps tiles ascending per bucket
    key, tile = key[order], tile[order]
    wanted = ((points - origin) // h) @ stride
    left = np.searchsorted(key, wanted)
    point, rank = _ragged(np.searchsorted(key, wanted, side="right") - left)
    tile = tile[left[point] + rank]
    p, tlo, thi = points[point], lo[tile], hi[tile]
    keep = ((tlo <= p) & (p <= thi)).all(axis=-1)
    face = ((p == tlo) | (p == thi)).any(axis=-1)
    keep &= face if faces is None else face | ~faces[tile]
    return first, points, point[keep], tile[keep]


def count_tiles(rs, depth):
    counts = {name: 1 for name in rs.rules}
    for _ in range(depth):
        counts = {name: sum(counts[ch.rule] for ch in rule.children)
                  for name, rule in rs.rules.items()}
    return counts[rs.unit]


# -- the one tile-tree traversal ------------------------------------------------

_PREFIX_CACHE = weakref.WeakKeyDictionary()


def _relative_areas(rs, rule_name):
    """Exact child areas relative to the rule's base, in child list order."""
    rule = rs.rules[rule_name]
    base_area = rule.base.measure()
    rels = []
    for ch in rule.children:
        scale_pow = ch.placement.scale
        for _ in range(rs.dim - 1):
            scale_pow = scale_pow * ch.placement.scale
        rel = (scale_pow * rs.rules[ch.rule].base.measure()) / base_area
        rels.append(rel.as_fraction())
    return rels


def prefix_table(rs):
    """Integer parameter offsets of every rule's children, computed once.

    Returns (den, ends): den is the lcm of the denominators of all relative
    child areas, and ends[rule] lists the running sums of den times those
    areas, starting at 0, so child i of a rule covers [ends[i], ends[i + 1]]
    out of den parts of its parent's parameter interval.
    """
    cached = _PREFIX_CACHE.get(rs)
    if cached is None:
        rels = {name: _relative_areas(rs, name) for name in rs.rules}
        den = math.lcm(*(r.denominator for areas in rels.values() for r in areas))
        ends = {name: list(itertools.accumulate((int(r * den) for r in areas), initial=0))
                for name, areas in rels.items()}
        cached = _PREFIX_CACHE[rs] = (den, ends)
    return cached


def _child_span(den, ends, i, rev):
    """(start, end) of child i in den-ths of its parent's parameter interval;
    a reversed parent runs its children from the end of its interval."""
    if rev:
        return den - ends[i + 1], den - ends[i]
    return ends[i], ends[i + 1]


def walk(rs, depth, prune=None, scan=False):
    """Depth-first descent of the rule tree down to `depth`.

    Yields (address, rule, transform, reversed, lo, length) for each kept
    node at `depth`, in address order, or in scanning order when `scan` is
    set (a reversed node runs its children backwards).  [lo, lo + length] is
    the node's parameter interval as integer numerators over den**level, with
    den from `prefix_table` and level = len(address).  `prune`, when given,
    is called with the same six values on every node before it is expanded
    or yielded; a true result drops the node and its whole subtree.
    """
    den, ends = prefix_table(rs)
    rules = rs.rules
    stack = [((), rs.unit, Similarity.identity(rs.dim), False, 0, 1)]
    while stack:
        node = stack.pop()
        if prune is not None and prune(*node):
            continue
        address, rule_name, transform, rev, lo, length = node
        if len(address) == depth:
            yield node
            continue
        offsets = ends[rule_name]
        children = rules[rule_name].children
        # the stack pops last-pushed first: push in the reverse of the order wanted
        order = range(len(children)) if scan and rev else range(len(children) - 1, -1, -1)
        for i in order:
            ch = children[i]
            start, end = _child_span(den, offsets, i, rev)
            stack.append((address + (i,), ch.rule, transform.compose(ch.placement),
                          rev ^ ch.reversed, lo * den + length * start,
                          length * (end - start)))


def expand(rs, depth, budget=DEFAULT_TILE_BUDGET):
    """Expand the unit rule `depth` levels; tiles come back in address order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = count_tiles(rs, depth)
    if n > budget:
        raise BudgetError("expansion would produce %d tiles (budget %d)" % (n, budget))
    rules = rs.rules
    tiles = [Tile(address, rule_name, transform, rules[rule_name].base.transform(transform), rev)
             for address, rule_name, transform, rev, _, _ in walk(rs, depth)]
    return TileSet(rs, depth, tiles)


def tile_at(rs, address):
    """Transform, rule name and accumulated reversal for one address."""
    transform = Similarity.identity(rs.dim)
    rule_name = rs.unit
    rev = False
    for i in address:
        ch = rs.rules[rule_name].children[i]
        transform = transform.compose(ch.placement)
        rev ^= ch.reversed
        rule_name = ch.rule
    return rule_name, transform, rev


class DegreeMap:
    def __init__(self, interior, boundary):
        self.interior = interior      # point -> degree
        self.boundary = boundary
        self.max_interior = max(interior.values(), default=0)
        self.max_boundary = max(boundary.values(), default=0)


def vertex_degrees(ts):
    """Degree (number of interior-disjoint tiles meeting) at every vertex."""
    index = ts.vertex_index
    on_unit = on_unit_boundary(ts.ruleset.unit_rule.base, *ts._ranks, index).tolist()
    interior, boundary = {}, {}
    for (p, incident), edge in zip(index.items(), on_unit):
        (boundary if edge else interior)[p] = len(incident)
    return DegreeMap(interior, boundary)


# -- compiled state table and the integer scan raster ------------------------

_STATE_CACHE = weakref.WeakKeyDictionary()


class StateTable:
    """A uniform rectilinear rule set compiled to integer states.

    A state is (rule, ortho, reversed), reached from (unit, identity, False);
    `states` lists them, the start first.  For state s, `kids[s]` are its
    children's states in scanning order (a reversed state lists its children
    backwards) and `offs[s]` their min corners relative to the parent's min
    corner, in cells of the children's pitch; `extent[s]` is the state's size
    in cells of its own pitch.  Depth d has pitch `p1 / k**(d - 1)`, so a
    depth-d tile's min corner is k times its parent's plus its offset.
    """

    def __init__(self, states, kids, offs, extent, k, p1):
        self.states = states
        self.kids = kids
        self.offs = offs
        self.extent = extent
        self.k = k
        self.p1 = p1
        self.slots = None        # table_walk's per-state child lists
        self.gates = None        # curves.gate_table's (m, gates)


def state_table(rs):
    """The rule set's StateTable, compiled once, or None unless the rule set is
    uniform and rectilinear, 1/scale is an integer, and the tiles of every
    depth lie on one integer lattice, each inside its parent."""
    try:
        return _STATE_CACHE[rs]
    except KeyError:
        table = _STATE_CACHE[rs] = _compile_states(rs)
        return table


def _compile_states(rs):
    k = integer_inverse_scale(rs) if rs.is_rectilinear() and rs.is_uniform() else None
    if k is None:
        return None
    # states in discovery order; a (rule, ortho) type lists its children's
    # types once, for both of its reversal flags
    states = [(rs.unit, Ortho.identity(rs.dim), False)]
    index = {states[0]: 0}
    types, kids = {}, []
    for rule_name, ortho, rev in states:     # grows while it is read
        row = types.get((rule_name, ortho))
        if row is None:
            row = types[rule_name, ortho] = [(ch.rule, ortho.compose(ch.placement.ortho),
                                              ch.reversed) for ch in rs.rules[rule_name].children]
        kid_row = []
        for name, o, flip in reversed(row) if rev else row:
            state = (name, o, rev ^ flip)
            if state not in index:
                index[state] = len(states)
                states.append(state)
            kid_row.append(index[state])
        kids.append(kid_row)
    boxes = type_boxes(rs, types, k)
    if boxes is None:
        return None                      # a sqrt(3) part left over: irrational
    den, rows = boxes
    # reversed states reuse their type's row backwards
    offs = np.array([rows[r, o][0][::-1] if rev else rows[r, o][0] for r, o, rev in states])
    extent = np.array([rows[r, o][2] // k for r, o, _ in states])
    kids = np.array(kids, dtype=np.int32)
    # the raster's cell numbering needs every child inside its parent
    if not ((offs >= 0) & (offs + extent[kids] <= k * extent[:, None])).all():
        return None
    return StateTable(states, kids, offs, extent, k, Fraction(1, den))


def integer_inverse_scale(rs):
    """1/scale of the rule set's one child scale as an int, or None."""
    k = 1 / rs.child_scale()
    return int(k.as_fraction()) if k.is_rational and k.as_fraction().denominator == 1 else None


def type_boxes(rs, types, k):
    """`orient_boxes` on the rule set's own boxes, or None (sqrt(3) parts)."""
    boxes = _rule_boxes(rs, dict.fromkeys(name for name, _ in types), k)
    return boxes and orient_boxes(boxes[1], types, k, boxes[0])


def orient_boxes(boxes, types, k, unit=1):
    """Each (rule, ortho) type's child boxes under its axis-aligned ortho.

    boxes[rule] is (ext, lo, hi) in `_rule_boxes`' units of 1/(k unit).
    Returns (den, rows): rows[type] is the children's min and max corners
    (n, d) and the type's extent (d,), from the type's min corner, in the
    coarsest cells of side 1/den that hold every value, the unit and each
    extent scaled by 1/k (so an extent // k is the type one level down).
    """
    rows = {}
    for name, ortho in types:
        ext, lo, hi = boxes[name]
        pos, neg = _ortho_parts(ortho)
        # for a signed permutation M = pos + neg, the min corner of M(box) is
        # pos lo + neg hi, and the type's image has min corner neg (k ext)
        shift = k * ext @ neg.T
        rows[name, ortho] = (lo @ pos.T + hi @ neg.T - shift, hi @ pos.T + lo @ neg.T - shift,
                             k * ext @ (pos - neg).T)
    values = [v.ravel() for row in rows.values() for v in row]
    values += [boxes[name][0] for name in dict.fromkeys(name for name, _ in types)]
    g = int(np.gcd.reduce(np.concatenate(values + [[k * unit]])))
    return k * unit // g, {t: tuple(v // g for v in row) for t, row in rows.items()}


def _rule_boxes(rs, names, k):
    """Each named rule's base extent and its children's boxes, in the rule's
    own frame relative to its base's min corner, on one integer lattice.

    Returns (den, {rule: (ext, lo, hi)}): integer arrays in units of
    1/(k den); ext (d,) is the base's extent scaled by 1/k, lo and hi (n, d)
    the children's corners.  Returns None when a value has a sqrt(3) part.
    """
    rules = rs.rules
    coords = [v for n in names for v in rules[n].base.lo + rules[n].base.hi]
    coords += [t for n in names for ch in rules[n].children for t in ch.placement.trans]
    # a Coord is (a + b sqrt(3)) / c: one lcm of the c puts both parts on integers
    den = math.lcm(*(v.c for v in coords))

    def parts(values):
        return np.array([[v.a * (den // v.c) for v in values],
                         [v.b * (den // v.c) for v in values]], dtype=np.int64)

    base = {n: (parts(rules[n].base.lo), parts(rules[n].base.hi)) for n in names}
    boxes = {}
    for n in names:
        children = rules[n].children
        pos, neg = (np.array(m) for m in zip(*(_ortho_parts(ch.placement.ortho)
                                               for ch in children)))
        c_lo = np.array([base[ch.rule][0] for ch in children]).transpose(1, 0, 2)
        c_hi = np.array([base[ch.rule][1] for ch in children]).transpose(1, 0, 2)
        # k times a child box's corners s M(box) + t, from the base's min corner
        shift = k * (parts([t for ch in children for t in ch.placement.trans])
                     .reshape(2, len(children), -1) - base[n][0][:, None])
        lo = np.einsum("nab,pnb->pna", pos, c_lo) + np.einsum("nab,pnb->pna", neg, c_hi)
        hi = np.einsum("nab,pnb->pna", pos, c_hi) + np.einsum("nab,pnb->pna", neg, c_lo)
        boxes[n] = (base[n][1] - base[n][0], lo + shift, hi + shift)
    if any(part[1].any() for box in boxes.values() for part in box):
        return None
    return den, {n: tuple(part[0] for part in box) for n, box in boxes.items()}


def _ortho_parts(ortho):
    """(pos, neg): the positive and the negative entries of an axis-aligned
    ortho's integer matrix."""
    if ortho.dim == 3:
        m = np.zeros((3, 3), dtype=np.int64)
        m[range(3), ortho.perm] = ortho.signs
    else:
        # a rotation by a multiple of 90 degrees after the reflection y -> -y
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[ortho.rot // 3]
        f = -1 if ortho.reflect else 1
        m = np.array([[c, -s * f], [s, c * f]], dtype=np.int64)
    return np.maximum(m, 0), np.minimum(m, 0)


class LatticeRaster:
    """Tile-id grid for a rectilinear expansion whose cuts live on a lattice.

    `ids` is a numpy array indexed [ix, iy(, iz)] over unit cells of pitch
    `pitch`; entry = scanning-order position of the owning tile.
    """

    def __init__(self, ids, pitch, origin, depth):
        self.ids = ids
        self.pitch = pitch
        self.origin = origin
        self.depth = depth


def lattice_pitch(rs, depth):
    """Common lattice pitch of all tile corners at `depth`, or None."""
    table = state_table(rs)
    if table is None:
        return None
    return table.p1 / table.k ** max(depth - 1, 0)


def table_leaves(table, depth):
    """The leaves of the depth-`depth` expansion, in scanning order, from a
    state table, one numpy step per level.

    Returns (corner, state): int64 min corners (n, d) in cells of the
    level's pitch (`p1 * k**(1 - depth)`) from the unit's min corner, and
    the leaves' states (n,).  A leaf of state s spans `table.extent[s]` cells.
    """
    # axis first, so that numpy's inner loops run along the children
    offs = np.ascontiguousarray(table.offs.transpose(2, 0, 1))
    corner = np.zeros((len(offs), 1), dtype=np.int64)
    state = np.zeros(1, dtype=np.int32)
    for _ in range(depth):
        corner = (table.k * corner[:, :, None] + offs[:, state]).reshape(len(offs), -1)
        state = table.kids[state].reshape(-1)
    return corner.T, state


def scan_raster(rs, depth, budget=DEFAULT_TILE_BUDGET):
    """Scanning positions painted on the cut lattice of a rectilinear expansion.

    Returns (ids, pitch): ids[ix, iy(, iz)] is the scanning-order position
    of the tile owning the lattice cell of side `pitch` at that index,
    counted from the unit's lower corner.  The tiles come from the state
    table, one numpy step per level.
    """
    if count_tiles(rs, depth) > budget:
        raise BudgetError("raster exceeds tile budget")
    table = state_table(rs)
    if table is None:
        raise RuleError("rule set has no common cut lattice")
    shape = [int(e) * table.k ** max(depth, 1) for e in table.extent[0]]
    if math.prod(shape) > budget * 64:
        raise BudgetError("raster of %s cells exceeds budget" % shape)
    # raster cells are numbered in C order
    strides = np.array([math.prod(shape[a + 1:]) for a in range(rs.dim)], dtype=np.int64)
    corner, state = table_leaves(table, depth)
    pos = corner @ strides
    # cells[s] numbers the cells of a state-s leaf from its min corner, padded
    # by repeating the first; a depth-0 raster has the pitch of depth 1, so
    # its one tile spans k leaf extents
    grow = table.k if depth == 0 else 1
    cells = [[int(np.dot(c, strides)) for c in itertools.product(*(range(e * grow) for e in ext))]
             for ext in table.extent]
    width = max(map(len, cells))
    cells = np.array([c + c[:1] * (width - len(c)) for c in cells], dtype=np.int64)
    ids = np.full(shape, -1, dtype=np.int64)
    flat, order = ids.reshape(-1), np.arange(len(pos))
    for j in range(width):
        flat[pos + cells[state, j]] = order
    if (ids < 0).any():
        raise RuleError("raster left uncovered cells (invalid rule set?)")
    return ids, lattice_pitch(rs, depth)


def table_walk(rs, depth, prune=None):
    """`walk` on the rule set's state table, in scanning order, composing no
    transform.

    Yields (address, state, corner, lo, length) for each kept node at
    `depth`: state indexes `state_table(rs).states`, corner is the node's min
    corner as integers in cells of its level's pitch (`p1 * k**(1 - level)`)
    from the unit's min corner, and lo, length are `walk`'s parameter
    numerators.  `prune` is called with the same five values on every node.
    The rule set must have a state table.
    """
    table = state_table(rs)
    if table.slots is None:
        den, ends = prefix_table(rs)
        table.slots = []
        for s, (rule_name, _, rev) in enumerate(table.states):
            n = len(table.kids[s])
            row = []
            for j, (kid, off) in enumerate(zip(table.kids[s].tolist(), table.offs[s].tolist())):
                i = n - 1 - j if rev else j        # scan slot j holds child i
                start, end = _child_span(den, ends[rule_name], i, rev)
                row.append((i, kid, tuple(off), start, end - start))
            # the stack pops last-pushed first: push in the reverse of scan order
            table.slots.append(row[::-1])
    den, slots, k = prefix_table(rs)[0], table.slots, table.k
    stack = [((), 0, (0,) * rs.dim, 0, 1)]
    while stack:
        node = stack.pop()
        if prune is not None and prune(*node):
            continue
        address, state, corner, lo, length = node
        if len(address) == depth:
            yield node
            continue
        for i, kid, off, start, span in slots[state]:
            stack.append((address + (i,), kid, tuple(k * c + o for c, o in zip(corner, off)),
                          lo * den + length * start, length * span))


def rasterize(rs, depth, budget=DEFAULT_TILE_BUDGET):
    """The scan raster of a uniform rectilinear expansion, as a LatticeRaster."""
    ids, pitch = scan_raster(rs, depth, budget)
    return LatticeRaster(ids, pitch, rs.unit_rule.base.lo, depth)


def _block_cells(ids, block=None):
    """(cells, inside): a block of raster cells read at every anchor cell.

    A block is a tuple of cell offsets, read at every anchor cell whose
    offsets all fall inside the raster: by default the 2^d cells around one
    lattice vertex, a rectangular window is the `itertools.product` of
    ranges, and a hexagonal raster takes axial offsets.  cells holds one
    whole-raster view per offset, inside marks the anchors whose cells are
    all >= 0: a -1 cell means "no cell", so a block holding one is not
    interior.
    """
    block = block or tuple(itertools.product((0, 1), repeat=ids.ndim))
    lo, hi = np.min(block, axis=0), np.max(block, axis=0)
    n = tuple(max(s - (h - l), 0) for s, l, h in zip(ids.shape, lo, hi))
    cells = [ids[tuple(slice(o - l, o - l + k) for o, l, k in zip(off, lo, n))]
             for off in block]
    inside = np.ones(n, dtype=bool)
    for c in cells:
        inside &= c >= 0
    return cells, inside


def _first_seen(cells):
    """Each block cell with the mask of anchors where its id differs from
    every earlier cell's: the distinct ids, one pair of offsets at a time."""
    for i, c in enumerate(cells):
        new = np.ones(c.shape, dtype=bool)
        for d in cells[:i]:
            new &= c != d
        yield c, new


def _block_tiles(ids, block=None):
    """Distinct ids per block of raster cells (`_block_cells`), flattened
    over the anchors; 0 where the block holds a -1 cell."""
    cells, inside = _block_cells(ids, block)
    tiles = np.zeros(inside.shape, dtype=np.int64)
    for _, new in _first_seen(cells):
        tiles += new
    return (tiles * inside).reshape(-1)


def _max_block_degree(ids, blocks):
    """Most distinct ids in any of the blocks, read at every anchor."""
    return max(int(_block_tiles(ids, b).max(initial=0)) for b in blocks)


def max_interior_degree_fast(rs, depth, budget=DEFAULT_TILE_BUDGET):
    """Max interior vertex degree via rasterization (2D/3D rectilinear).

    Only the 2^d vertex blocks are read: a scan raster has no -1 cells and at
    least 2 cells per axis, so each 3D 1x2x2 block around a lattice edge
    midpoint lies inside a vertex block, which holds at least as many
    distinct tiles.
    """
    return int(_block_tiles(rasterize(rs, depth, budget).ids).max(initial=0))
