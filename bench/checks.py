"""Checks of the program's outputs, computed apart from the program.

Everything here is plain `Fraction` arithmetic over axis-aligned boxes.  It
reads only the stored fields of a rule set (base corners, child scales,
signed-permutation placements, reversal flags) and never calls the
program's transforms, expansion, covers or rasters, so a fault in those
layers cannot hide itself.  Each check raises `CheckError` on a wrong
answer and returns None on a right one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# points live on this dyadic grid, so every coordinate is exact in both a
# float and a Fraction
POINT_BITS = 20


class CheckError(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckError(message)


# -- exact affine maps x -> scale * M x + t, M a signed permutation ----------

def _linear(ortho):
    if ortho.dim == 2:
        require(ortho.rot % 3 == 0, "placement is not axis aligned")
        c, s = {0: (1, 0), 3: (0, 1), 6: (-1, 0), 9: (0, -1)}[ortho.rot]
        f = -1 if ortho.reflect else 1
        # the reflection (y -> -y) is applied before the rotation
        return ((c, -s * f), (s, c * f))
    return tuple(tuple(ortho.signs[i] if j == ortho.perm[i] else 0 for j in range(3))
                 for i in range(3))


def _compose(a, b):
    """a o b (apply b first)."""
    sa, ma, ta = a
    sb, mb, tb = b
    d = len(ma)
    m = tuple(tuple(sum(ma[i][k] * mb[k][j] for k in range(d)) for j in range(d))
              for i in range(d))
    t = tuple(ta[i] + sa * sum(ma[i][k] * tb[k] for k in range(d)) for i in range(d))
    return (sa * sb, m, t)


def _apply(f, p):
    s, m, t = f
    return tuple(t[i] + s * sum(m[i][k] * p[k] for k in range(len(p))) for i in range(len(p)))


class Geometry:
    """Exact boxes of a rectilinear rule set."""

    def __init__(self, rs):
        self.dim = rs.dim
        self.unit = rs.unit
        self.base = {}
        self.children = {}
        for name, rule in rs.rules.items():
            require(hasattr(rule.base, "lo"), "rule %r has no box base" % name)
            self.base[name] = (tuple(v.as_fraction() for v in rule.base.lo),
                               tuple(v.as_fraction() for v in rule.base.hi))
            self.children[name] = [
                (ch.rule,
                 (ch.placement.scale.as_fraction(), _linear(ch.placement.ortho),
                  tuple(v.as_fraction() for v in ch.placement.trans)),
                 ch.reversed)
                for ch in rule.children]
        self.identity = (Fraction(1),
                         tuple(tuple(int(i == j) for j in range(self.dim))
                               for i in range(self.dim)),
                         (Fraction(0),) * self.dim)

    def box(self, rule, f):
        lo, hi = self.base[rule]
        a, b = _apply(f, lo), _apply(f, hi)
        return tuple(map(min, a, b)), tuple(map(max, a, b))

    @property
    def unit_box(self):
        return self.base[self.unit]

    def leaves(self, depth, scan=False):
        """Boxes of the depth expansion, in address order or scanning order."""
        out = []

        def rec(rule, f, rev, level):
            if level == depth:
                out.append(self.box(rule, f))
                return
            kids = self.children[rule]
            for child, placement, child_rev in (reversed(kids) if scan and rev else kids):
                rec(child, _compose(f, placement), rev ^ child_rev, level + 1)

        rec(self.unit, self.identity, False, 0)
        return out

    def count_at(self, point, depth):
        """Number of depth-level tiles whose closed box contains the point."""
        count = 0
        stack = [(self.unit, self.identity, 0)]
        while stack:
            rule, f, level = stack.pop()
            lo, hi = self.box(rule, f)
            if not all(l <= v <= h for l, v, h in zip(lo, point, hi)):
                continue
            if level == depth:
                count += 1
                continue
            for child, placement, _ in self.children[rule]:
                stack.append((child, _compose(f, placement), level + 1))
        return count

    def grid_side(self):
        """Cells per axis per level for a uniform grid order on the unit cube."""
        lo, hi = self.unit_box
        require(all(v == 0 for v in lo) and all(v == 1 for v in hi),
                "unit tile is not the unit cube")
        scales = {f[0] for kids in self.children.values() for _, f, _ in kids}
        require(len(scales) == 1, "children do not share one scale")
        n = 1 / next(iter(scales))
        require(n.denominator == 1, "child scale is not 1/n")
        return int(n)


# -- canonical levels, grid cells and points ---------------------------------

def canonical_level(n, kappa, radius):
    """Level L of a unit-cube grid order with kappa*r < n**-L <= kappa*n*r."""
    side = Fraction(1)
    level = 0
    while side > kappa * n * radius:
        side /= n
        level += 1
    require(side > kappa * radius, "no canonical level for radius %s" % radius)
    return level


def _gap(c, lo, hi):
    return lo - c if c < lo else (c - hi if c > hi else Fraction(0))


def cells_meeting(kind, center, size, m):
    """Closed cells of the m-per-axis grid on the unit cube meeting the closed
    query (size is the radius of a ball or the half extents of a box)."""
    axes = []
    for ax, c in enumerate(center):
        h = size if kind == "ball" else size[ax]
        first = max(0, math.ceil((c - h) * m) - 1)
        last = min(m - 1, math.floor((c + h) * m))
        axes.append([i for i in range(first, last + 1)
                     if Fraction(i, m) <= c + h and Fraction(i + 1, m) >= c - h])
    cells = list(itertools.product(*axes))
    if kind == "box":
        return cells
    return [cell for cell in cells
            if sum(_gap(c, Fraction(i, m), Fraction(i + 1, m)) ** 2
                   for c, i in zip(center, cell)) <= size * size]


def points_inside(kind, center, size, ipts, margin=1e-9):
    """Indices of the integer points (units of 2**-POINT_BITS) inside the
    closed query.  Floats decide the points farther than `margin` from the
    boundary; the rest are decided exactly."""
    scale = 1 << POINT_BITS
    offset = ipts / float(scale) - np.array([float(v) for v in center])
    if kind == "ball":
        slack = (offset ** 2).sum(axis=1) - float(size) ** 2
    else:
        slack = (np.abs(offset) - np.array([float(h) for h in size])).max(axis=1)
    inside = set(np.nonzero(slack < -margin)[0].tolist())
    for i in np.nonzero(np.abs(slack) <= margin)[0].tolist():
        p = [Fraction(int(v), scale) for v in ipts[i]]
        if kind == "ball":
            ok = sum((a - b) ** 2 for a, b in zip(p, center)) <= size * size
        else:
            ok = all(abs(a - b) <= h for a, b, h in zip(p, center, size))
        if ok:
            inside.add(i)
    return sorted(inside)


def ball_measure(dim, r):
    return math.pi * r * r if dim == 2 else 4.0 / 3.0 * math.pi * r ** 3


# -- range-queries ------------------------------------------------------------

def scan_grid(geo, level):
    """Scan position of every level cell of a grid order, indexed by cell,
    from an independent scanning-order expansion."""
    m = geo.grid_side() ** level
    grid = np.full((m,) * geo.dim, -1, dtype=np.int64)
    for k, (lo, hi) in enumerate(geo.leaves(level, scan=True)):
        grid[tuple(slice(int(a * m), int(b * m)) for a, b in zip(lo, hi))] = k
    require((grid >= 0).all(), "scanning order leaves cells uncovered")
    return grid


def check_point_index(grid, ipts, positions):
    """Stored positions are the scan positions of the cells holding the points."""
    cells = (ipts * grid.shape[0]) >> POINT_BITS
    want = grid[tuple(cells[:, ax] for ax in range(grid.ndim))]
    bad = np.nonzero(want != positions)[0]
    require(not len(bad), "%d of %d points stored at the wrong position"
            % (len(bad), len(positions)))


def runs_of(positions):
    """Maximal runs of consecutive integers, as (first, last) pairs."""
    runs = []
    for p in sorted(positions):
        if runs and runs[-1][1] + 1 == p:
            runs[-1][1] = p
        else:
            runs.append([p, p])
    return [tuple(r) for r in runs]


def check_range_query(spec, n, kappa, max_fragments, grids, report, ranges, scanned,
                      ipts, positions):
    """One answered query against independent counts.

    spec: (kind, center, size, merge_budget) in Fractions; n: cells per axis
    per level; grids[level]: scan position of every level cell, the last one
    being the point index's level; report: the program's CoverReport;
    ranges: the scanned [lo, hi) position ranges; scanned: points counted.
    """
    kind, center, size, merge_budget = spec
    dim = len(center)
    level = canonical_level(n, kappa, size if kind == "ball" else max(size))
    require(report.level == level, "level %d, expected %d" % (report.level, level))
    require(level < len(grids), "level %d is deeper than the point index" % level)
    cells = cells_meeting(kind, center, size, n ** level)
    require(report.tile_count == len(cells),
            "%d tiles, but %d level-%d cells meet the query"
            % (report.tile_count, len(cells), level))
    runs = runs_of(int(grids[level][cell]) for cell in cells)
    per_cell = n ** (dim * (len(grids) - 1 - level))
    want = [(a * per_cell, (b + 1) * per_cell) for a, b in runs]
    if kind == "ball":
        require(report.tile_count <= 2 ** dim, "%d tiles > 2^d" % report.tile_count)
        require(report.fragment_count <= max_fragments,
                "%d fragments > %d" % (report.fragment_count, max_fragments))
    covered = sum(len(f) for f in report.fragments)
    if merge_budget is None:
        require(report.fragment_count == len(runs), "%d fragments, the cover has %d runs"
                % (report.fragment_count, len(runs)))
        require(list(ranges) == want, "scanned ranges %s, expected %s" % (ranges, want))
    else:
        require(report.fragment_count <= len(runs), "merging added fragments")
        require(all(any(lo <= a and b <= hi for lo, hi in ranges) for a, b in want),
                "merged ranges miss part of the cover")
        area = Fraction(covered, n ** (dim * level))
        require(report.total_area.as_fraction() == area,
                "area %s, fragments hold %s" % (report.total_area, area))
        if covered > len(cells):
            measure = (ball_measure(dim, float(size)) if kind == "ball"
                       else math.prod(2 * float(h) for h in size))
            require(float(area) <= merge_budget * measure * (1 + 1e-12),
                    "merged area %.6g > budget %g x measure %.6g"
                    % (float(area), merge_budget, measure))
    stored = sum(int(((positions >= lo) & (positions < hi)).sum()) for lo, hi in ranges)
    require(scanned == stored, "counted %d points, the ranges hold %d" % (scanned, stored))
    inside = points_inside(kind, center, size, ipts)
    for i in inside:
        p = positions[i]
        require(any(lo <= p < hi for lo, hi in ranges),
                "point %d inside the query at position %d is in no scanned range"
                % (i, p))


# -- lattice-analyses ---------------------------------------------------------

def check_estimate(est, want, recheck):
    """est: ArrwwidEstimate; want: the paper's worst fragment count;
    recheck(witness) -> (tiles, fragments) through the exact cover path."""
    require(est.max_fragments == want,
            "max_fragments %s, paper value %d" % (est.max_fragments, want))
    tiles, _ = recheck(est.tiles_witness)
    require(tiles == est.max_tiles, "tiles witness re-checks to %d, not %d"
            % (tiles, est.max_tiles))
    _, frags = recheck(est.fragments_witness)
    require(frags == est.max_fragments, "fragments witness re-checks to %d, not %d"
            % (frags, est.max_fragments))


def leaf_count(rs, depth):
    counts = {name: 1 for name in rs.rules}
    for _ in range(depth):
        counts = {name: sum(counts[ch.rule] for ch in rule.children)
                  for name, rule in rs.rules.items()}
    return counts[rs.unit]


def check_connections(stats, tiles, has_jumps, has_diagonal):
    total = stats.horizontal + stats.vertical + stats.facet + stats.diagonal + stats.jump
    require(total == tiles - 1, "%d connections for %d tiles" % (total, tiles))
    for kind, flag in (("jump", has_jumps), ("diagonal", has_diagonal)):
        value = getattr(stats, kind)
        if flag is False:
            require(value == 0, "%d %s connections, catalog says none" % (value, kind))
        if flag is True:
            require(value > 0, "no %s connections, catalog says some" % kind)


def check_audits(audits, n, depth):
    """Every interior vertex of a 3D grid order meets 8 tiles."""
    want = (n ** depth - 1) ** 3
    require(len(audits) == want, "%d interior vertices, expected %d" % (len(audits), want))
    bad = [a for a in audits if a.tiles_v != 8]
    require(not bad, "%d vertices without 8 tiles" % len(bad))


def table_depth(geo, target=6, max_leaves=20000):
    """The depth `comparison_table` picks for a grid order by default: the
    deepest level up to `target` with at most `max_leaves` cells (the
    documented defaults of `locality.auto_depth`)."""
    cells = geo.grid_side() ** geo.dim
    depth = 1
    while depth < target and cells ** (depth + 1) <= max_leaves:
        depth += 1
    return depth


def table_expectation(geo, ipts, balls, kappa):
    """Total fragments and points scanned over the balls for a grid order,
    answered as `locality.simulate` answers them: the cover at the canonical
    level for window `kappa`, one position range per run of consecutive
    scan positions.  A recursive scan order keeps the sub-cells of a tile
    contiguous, so at any storage depth a run's range holds exactly the
    points whose canonical-level cell lies in the run.  Counted from
    independent scanning-order expansions."""
    n = geo.grid_side()
    fragments = scanned = 0
    for center, r in balls:
        level = canonical_level(n, kappa, r)
        grid = scan_grid(geo, level)
        cells = (ipts * n ** level) >> POINT_BITS
        stored = grid[tuple(cells[:, ax] for ax in range(geo.dim))]
        covered = [int(grid[cell]) for cell in cells_meeting("ball", center, r, n ** level)]
        fragments += len(runs_of(covered))
        scanned += int(np.isin(stored, covered).sum())
    return fragments, scanned


def check_table(rows, expected, queries, inside):
    """Each row against independent counts.

    expected: order -> (depth, fragments, points scanned), the last two from
    `table_expectation`; inside: exact total of points inside all queries.
    """
    require(len(rows) % len(expected) == 0 and rows, "table has %d rows" % len(rows))
    for row in rows:
        name = row["order"]
        require(name in expected, "unexpected order %r" % name)
        depth, fragments, scanned = expected[name]
        require(row["queries"] == queries, "row %s has %d queries" % (name, row["queries"]))
        require(row["depth"] == depth, "%s at depth %d, expected %d" % (name, row["depth"], depth))
        require(row["fragments"] == fragments, "%s has %d fragments, the covers have %d runs"
                % (name, row["fragments"], fragments))
        require(row["points_scanned"] == scanned, "%s scanned %d points, its ranges hold %d"
                % (name, row["points_scanned"], scanned))
        counted = row["points_scanned"] - row["false_answers"]
        require(counted == inside, "%s counts %d points inside, exact count %d"
                % (name, counted, inside))
        require(row["points_scanned"] >= inside, "%s scanned fewer points than inside" % name)


# -- degree-proofs ------------------------------------------------------------

def check_certificate(cert, geo, expect_certified, bound=3):
    if expect_certified:
        require(cert.status == "certified", "status %s, expected certified" % cert.status)
        return
    require(cert.status == "counterexample",
            "status %s, expected a counterexample" % cert.status)
    point = tuple(v.as_fraction() for v in cert.vertex)
    meets = geo.count_at(point, cert.depth)
    require(meets > bound, "counterexample vertex meets %d tiles at depth %d"
            % (meets, cert.depth))


def _lattice(boxes, lo):
    """Per-axis pitch of the cut lattice of the boxes, checked to hold every cut."""
    pitch = []
    for ax in range(len(lo)):
        cuts = sorted({b[k][ax] for b in boxes for k in (0, 1)})
        p = min(b - a for a, b in zip(cuts, cuts[1:]))
        require(all(((v - lo[ax]) / p).denominator == 1 for v in cuts),
                "cuts are not on one lattice")
        pitch.append(p)
    return pitch


def grid_degree(geo, depth):
    """Max number of tiles at an interior lattice vertex of the expansion,
    after checking that the tiles cover the unit box once."""
    boxes = geo.leaves(depth)
    lo, hi = geo.unit_box
    pitch = _lattice(boxes, lo)
    shape = [int((h - l) / p) for l, h, p in zip(lo, hi, pitch)]
    ids = np.full(shape, -1, dtype=np.int64)
    painted = np.zeros(shape, dtype=np.int64)
    for k, (blo, bhi) in enumerate(boxes):
        sl = tuple(slice(int((a - l) / p), int((b - l) / p))
                   for a, b, l, p in zip(blo, bhi, lo, pitch))
        ids[sl] = k
        painted[sl] += 1
    require((painted == 1).all(), "tiles overlap or leave gaps")
    quads = [ids[tuple(slice(o, s - 1 + o) for o, s in zip(off, shape))]
             for off in itertools.product((0, 1), repeat=geo.dim)]
    rows = np.sort(np.stack(quads, axis=-1).reshape(-1, len(quads)), axis=1)
    return int(((np.diff(rows, axis=1) != 0).sum(axis=1) + 1).max())


def check_tiling(geo):
    """Children of every rule tile its base: inside it, pairwise disjoint
    interiors, volumes summing to the base volume."""
    for rule, kids in geo.children.items():
        lo, hi = geo.base[rule]
        boxes = [geo.box(child, f) for child, f, _ in kids]
        for blo, bhi in boxes:
            require(all(l <= a < b <= h for l, a, b, h in zip(lo, blo, bhi, hi)),
                    "a child of %r leaves its base" % rule)
        for (alo, ahi), (blo, bhi) in itertools.combinations(boxes, 2):
            require(any(a1 <= b0 or b1 <= a0 for a0, a1, b0, b1 in zip(alo, ahi, blo, bhi)),
                    "children of %r overlap" % rule)
        vol = sum(math.prod(b - a for a, b in zip(blo, bhi)) for blo, bhi in boxes)
        require(vol == math.prod(b - a for a, b in zip(lo, hi)),
                "children of %r do not fill it" % rule)


def layout_key(geo):
    """The unit rule's children as rectangles in units of the cut lattice,
    canonical under the mirror symmetries of the base."""
    lo, hi = geo.unit_box
    boxes = [geo.box(child, f) for child, f, _ in geo.children[geo.unit]]
    unit = min(_lattice(boxes, lo))
    cells = [tuple(int((v - l) / unit) for v, l in zip(blo + bhi, lo + lo))
             for blo, bhi in boxes]
    w, h = (int((b - a) / unit) for a, b in zip(lo, hi))
    images = []
    for mx, my in itertools.product((False, True), repeat=2):
        images.append(tuple(sorted(
            ((w - x1 if mx else x0), (h - y1 if my else y0),
             (w - x0 if mx else x1), (h - y0 if my else y1))
            for x0, y0, x1, y1 in cells)))
    return min(images)


def check_rect_search(accepted, daun_key, bound=3, depths=(1, 2, 3)):
    """accepted: Geometry of each accepted rule set."""
    require(accepted, "the search accepted nothing")
    for geo in accepted:
        check_tiling(geo)
        for depth in depths:
            deg = grid_degree(geo, depth)
            require(deg <= bound, "accepted rule set has degree %d at depth %d"
                    % (deg, depth))
    require(any(layout_key(g) == daun_key for g in accepted),
            "the catalog layout is not among the accepted ones")
