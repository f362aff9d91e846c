"""`walk`, the one tile-tree traversal, and the state table with what runs on
it (the raster, `table_walk`, integer covers) against independent slow paths.

The single-path references are `tile_at` (rule, transform, reversal) and
`tile_interval` (parameter interval); covers are checked against a filter of
the full expansion and against the exact `walk` path, `scan_raster` against
a raster painted tile by tile from exact boxes, and the state table against
a per-state exact compile.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from arrwwid import catalog, cover
from arrwwid.cover import (MAX_LEVEL, QueryRange, canonical_level, cover_fragments, cover_tiles,
                           reference_side, subdivision_ratio, window_radii, _exact_misses,
                           _table_misses, _TableQuery)
from arrwwid.curves import Interval, tile_interval
from arrwwid.exact import SQRT3, ZERO, Coord, coord
from arrwwid.expand import (BudgetError, StateTable, count_tiles, expand, lattice_pitch,
                            prefix_table, scan_raster, state_table, table_walk, tile_at, walk,
                            _compile_states)
from arrwwid.rules import Child, Rule, RuleError, RuleSet, parse_ruleset, validate_ruleset
from arrwwid.transforms import Ortho, Similarity


def _depths(entry):
    return (1, 2, 3) if entry.dim == 2 else (1, 2)


def _interval(den, depth, lo, length):
    scale = den ** depth
    return Interval(Fraction(lo, scale), Fraction(lo + length, scale))


@pytest.mark.parametrize("name", catalog.names())
def test_walk_matches_single_path_references(name):
    rs = catalog.builtin(name).ruleset
    den = prefix_table(rs)[0]
    for depth in _depths(catalog.builtin(name)):
        leaves = list(walk(rs, depth))
        assert len(leaves) == count_tiles(rs, depth)
        assert [leaf[0] for leaf in leaves] == sorted(leaf[0] for leaf in leaves)
        for address, rule_name, transform, rev, lo, length in leaves:
            assert (rule_name, transform, rev) == tile_at(rs, address)
            assert _interval(den, depth, lo, length) == tile_interval(rs, address)
        scan = list(walk(rs, depth, scan=True))
        assert sorted(scan) == sorted(leaves)
        ends = [(Fraction(lo, den ** depth), Fraction(lo + n, den ** depth))
                for _, _, _, _, lo, n in scan]
        assert ends[0][0] == 0 and ends[-1][1] == 1
        for (lo, hi), (next_lo, _) in zip(ends, ends[1:]):
            assert lo < hi == next_lo


@pytest.mark.parametrize("name", catalog.names())
def test_raster_cells_hold_scan_position_of_their_center(name):
    rs = catalog.builtin(name).ruleset
    origin = [v.as_fraction() for v in rs.unit_rule.base.lo]
    for depth in _depths(catalog.builtin(name)):
        ids, pitch = scan_raster(rs, depth)
        claimed = 0
        for pos, (_, rule_name, transform, _, _, _) in enumerate(walk(rs, depth, scan=True)):
            geom = rs.rules[rule_name].base.transform(transform)
            # cell k has its center at origin + (k + 1/2) * pitch
            block = tuple(
                slice(math.ceil((l.as_fraction() - o) / pitch - Fraction(1, 2)),
                      math.floor((h.as_fraction() - o) / pitch - Fraction(1, 2)) + 1)
                for l, h, o in zip(geom.lo, geom.hi, origin))
            assert (ids[block] == pos).all()
            claimed += ids[block].size
        assert claimed == ids.size


def _exact_scan_raster(rs, depth):
    """The slow path: every scanning-order leaf's exact box painted in turn,
    on the pitch of the finest lattice holding every leaf corner."""
    leaves = [rs.rules[rule_name].base.transform(transform)
              for _, rule_name, transform, _, _, _ in walk(rs, max(depth, 1), scan=True)]
    origin = [v.as_fraction() for v in rs.unit_rule.base.lo]
    pitch = Fraction(1, math.lcm(*((v.as_fraction() - o).denominator for box in leaves
                                   for v, o in zip(box.lo + box.hi, origin + origin))))
    if depth == 0:
        leaves = [rs.unit_rule.base]

    def cells(box):
        bounds = [((l.as_fraction() - o) / pitch, (h.as_fraction() - o) / pitch)
                  for l, h, o in zip(box.lo, box.hi, origin)]
        assert all(v.denominator == 1 for b in bounds for v in b)
        return tuple(slice(int(l), int(h)) for l, h in bounds)

    ids = np.full([s.stop for s in cells(rs.unit_rule.base)], -1, dtype=np.int64)
    for pos, box in enumerate(leaves):
        ids[cells(box)] = pos
    return ids, pitch


def _conjugate(rs, ortho):
    """The rule set seen through the linear map `ortho`: every base mapped by
    it, every placement P replaced by ortho o P o ortho^-1."""
    g = Similarity(1, ortho, (0,) * rs.dim)
    g_inv = g.inverse()
    rules = {name: Rule(name, rule.base.transform(g),
                        [Child(ch.rule, g.compose(ch.placement).compose(g_inv), ch.reversed)
                         for ch in rule.children])
             for name, rule in rs.rules.items()}
    return RuleSet(rules, rs.unit, rs.name)


def _assert_raster_matches_exact(rs, depth):
    ids, pitch = scan_raster(rs, depth)
    exact_ids, exact_pitch = _exact_scan_raster(rs, depth)
    assert pitch == exact_pitch == lattice_pitch(rs, max(depth, 1))
    assert ids.dtype == exact_ids.dtype
    assert np.array_equal(ids, exact_ids)


@pytest.mark.parametrize("name", catalog.names())
def test_scan_raster_matches_exact_painting(name):
    entry = catalog.builtin(name)
    for depth in (0,) + _depths(entry):
        _assert_raster_matches_exact(entry.ruleset, depth)


@pytest.mark.parametrize("name", ["daun", "kochel"])
@pytest.mark.parametrize("rot", [0, 3, 6, 9])
@pytest.mark.parametrize("reflect", [False, True])
def test_scan_raster_matches_exact_painting_under_square_symmetries(name, rot, reflect):
    rs = _conjugate(catalog.builtin(name).ruleset, Ortho(2, rot, reflect))
    _assert_raster_matches_exact(rs, 2)


# three hand-built rule sets on which the state table compiles to None, or
# to a table whose raster fails
OFF_LATTICE = """
unit A
rule A
base box 0 0 1 1
child rule=A scale=2/3 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=A scale=2/3 rot=0 reflect=0 reversed=0 translate=(1/3,1/3)
"""

BELOW_LEVEL_ONE = """
unit A
rule A
base box 0 0 1 1
child rule=B scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=B scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,0)
child rule=B scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,1/2)
child rule=B scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,1/2)
rule B
base box 0 0 1 1
child rule=B scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=B scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,0)
child rule=B scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,1/2)
child rule=B scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/3,1/2)
"""

CHILD_OUTSIDE = """
unit A
rule A
base box 0 0 1 1
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(3/4,0)
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,1/2)
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,1/2)
"""


def test_off_lattice_scale_has_no_lattice():
    # k = 3/2 is not an integer: depth-2 corners lie at 1/3 and 7/9, off the
    # 2/9 lattice that level-1 corners and the scale alone would give
    rs = parse_ruleset(OFF_LATTICE)
    corners = {v.as_fraction() for t in expand(rs, 2) for v in t.geometry.lo + t.geometry.hi}
    assert {Fraction(1, 3), Fraction(7, 9)} <= corners
    assert lattice_pitch(rs, 2) is None
    with pytest.raises(RuleError, match="no common cut lattice"):
        scan_raster(rs, 2)


def test_lattice_pitch_holds_corners_below_level_one():
    # B places a child at x = 1/3, which level-1 corners do not show
    rs = parse_ruleset(BELOW_LEVEL_ONE)
    corners = {v.as_fraction() for t in expand(rs, 2) for v in t.geometry.lo + t.geometry.hi}
    assert {Fraction(1, 6), Fraction(2, 3)} <= corners
    pitch = lattice_pitch(rs, 2)
    assert pitch is not None and all((v / pitch).denominator == 1 for v in corners)
    # B's children overlap and leave its upper right corner uncovered
    with pytest.raises(RuleError, match="uncovered"):
        scan_raster(rs, 2)


def test_child_outside_its_parent_has_no_lattice():
    # the second child reaches x = 5/4, past its parent's right side
    rs = parse_ruleset(CHILD_OUTSIDE)
    assert lattice_pitch(rs, 1) is None
    with pytest.raises(RuleError, match="no common cut lattice"):
        scan_raster(rs, 1)


@pytest.mark.parametrize("name,seed", [("hilbert", 1), ("dekking", 2), ("kochel", 3)])
def test_cover_tiles_matches_filtered_expansion(name, seed):
    entry = catalog.builtin(name)
    rs, kappa = entry.ruleset, entry.window_kappa
    rng = np.random.default_rng(seed)
    expansions = {}
    for _ in range(20):
        level = int(rng.integers(1, 3))
        r = window_radii(rs, level, kappa, 3)[int(rng.integers(3))]
        rf = r.as_fraction()
        center = tuple(rf + (1 - 2 * rf) * Fraction(int(rng.integers(0, 10 ** 6)), 10 ** 6)
                       for _ in range(2))
        q = QueryRange("ball", center, r)
        rep = cover_tiles(rs, q, kappa=kappa)
        assert rep.level == level
        ts = expansions.setdefault(level, expand(rs, level))
        hits = [t for t in ts if q.intersects_box(t.geometry)]
        hits.sort(key=lambda t: tile_interval(rs, t.address).lo)
        assert rep.tiles == [t.address for t in hits]
        assert rep.intervals == [tile_interval(rs, t.address) for t in hits]
        total = ZERO
        for t in hits:
            total = total + t.geometry.measure()
        assert rep.total_area == total


# -- the state table against the per-state exact compile ----------------------

def _exact_compile_states(rs):
    """The slow path: every state's base and child boxes transformed exactly
    by the state's own frame, one state at a time."""
    if not (rs.is_rectilinear() and rs.is_uniform()):
        return None
    scale = rs.child_scale()
    k = 1 / scale.as_fraction() if scale.is_rational else None
    if k is None or k.denominator != 1:
        return None
    rules, origin = rs.rules, (0,) * rs.dim
    states = [(rs.unit, Ortho.identity(rs.dim), False)]
    index = {states[0]: 0}
    kids, offs, extent = [], [], []
    for rule_name, ortho, rev in states:     # grows while it is read
        frame = Similarity(1, ortho, origin)
        img = rules[rule_name].base.transform(frame)
        children = rules[rule_name].children
        row = []
        for ch in reversed(children) if rev else children:
            state = (ch.rule, ortho.compose(ch.placement.ortho), rev ^ ch.reversed)
            if state not in index:
                index[state] = len(states)
                states.append(state)
            row.append(index[state])
            box = rules[ch.rule].base.transform(frame.compose(ch.placement))
            offs.append([c - l for c, l in zip(box.lo, img.lo)])
        kids.append(row)
        extent.append([e * scale for e in img.extent()])
    values = [v for vs in offs + extent for v in vs]
    if not all(v.is_rational for v in values):
        return None
    den = math.lcm(*(v.as_fraction().denominator for v in values))

    def in_cells(rows):
        return np.array([[int(v.as_fraction() * den) for v in row] for row in rows],
                        dtype=np.int64)

    kids, offs, extent = np.array(kids, dtype=np.int32), in_cells(offs), in_cells(extent)
    offs = offs.reshape(len(states), -1, rs.dim)
    if not ((offs >= 0) & (offs + extent[kids] <= k.numerator * extent[:, None])).all():
        return None
    return StateTable(states, kids, offs, extent, k.numerator, Fraction(1, den))


def _assert_table_matches_exact(rs):
    got, want = _compile_states(rs), _exact_compile_states(rs)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.states == want.states
        assert (got.k, got.p1) == (want.k, want.p1)
        for field in ("kids", "offs", "extent"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field


@pytest.mark.parametrize("name", catalog.names())
def test_state_table_matches_exact_compile(name):
    _assert_table_matches_exact(catalog.builtin(name).ruleset)


@pytest.mark.parametrize("name", ["daun", "kochel"])
@pytest.mark.parametrize("rot", [0, 3, 6, 9])
@pytest.mark.parametrize("reflect", [False, True])
def test_state_table_matches_exact_compile_under_square_symmetries(name, rot, reflect):
    _assert_table_matches_exact(_conjugate(catalog.builtin(name).ruleset, Ortho(2, rot, reflect)))


@pytest.mark.parametrize("text", [OFF_LATTICE, BELOW_LEVEL_ONE, CHILD_OUTSIDE])
def test_state_table_matches_exact_compile_on_hand_built_sets(text):
    _assert_table_matches_exact(parse_ruleset(text))


@pytest.mark.parametrize("name", [n for n in catalog.names()
                                  if state_table(catalog.builtin(n).ruleset) is not None])
def test_table_walk_matches_walk(name):
    entry = catalog.builtin(name)
    rs, table = entry.ruleset, state_table(entry.ruleset)
    origin = rs.unit_rule.base.lo
    for depth in (0,) + _depths(entry):
        pitch = coord(table.p1 * Fraction(table.k) ** (1 - depth))
        exact = list(walk(rs, depth, scan=True))
        fast = list(table_walk(rs, depth))
        assert len(fast) == len(exact)
        for (address, state, corner, lo, length), want in zip(fast, exact):
            address_w, rule_name, transform, rev, lo_w, length_w = want
            assert (address, lo, length) == (address_w, lo_w, length_w)
            assert table.states[state] == (rule_name, transform.ortho, rev)
            box = rs.rules[rule_name].base.transform(transform)
            assert box.lo == tuple(o + pitch * c for o, c in zip(origin, corner))
            assert box.extent() == tuple(pitch * e for e in table.extent[state].tolist())


# -- integer covers against the exact path --------------------------------------

COVER_SETS = ["hilbert", "peano", "kochel", "dekking", "zorder", "coil", "ar2w2", "daun",
              "zorder3d", "coil3d", "lifted-daun"]

# a unit box away from the origin, children turned, reflected and reversed
OFF_ORIGIN = """
unit A
rule A
base box 1 -1 3 1
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,-1/2)
child rule=A scale=1/2 rot=90 reflect=0 reversed=1 translate=(3/2,-1/2)
child rule=A scale=1/2 rot=180 reflect=0 reversed=1 translate=(7/2,1/2)
child rule=A scale=1/2 rot=0 reflect=1 reversed=0 translate=(3/2,-1/2)
"""


def _seeded_queries(rs, kappa, seed, levels=(0, 1, 2, 3)):
    """Seeded balls and boxes whose canonical level runs through `levels`,
    each inside the unit box, with the merge budgets the benchmark uses."""
    rng = np.random.default_rng(seed)
    base = rs.unit_rule.base
    lam = float(subdivision_ratio(rs))
    worst = (2 * float(kappa) * lam) ** rs.dim / QueryRange("ball", (0,) * rs.dim, 1).measure()
    out = []
    for level in levels:
        for kind in ("ball", "ball", "box", "box"):
            r = window_radii(rs, level, kappa, 5)[int(rng.integers(5))].as_fraction()
            half = [r] + [r * Fraction(int(rng.integers(500, 1001)), 1000)
                          for _ in range(rs.dim - 1)]
            half = [half[i] for i in rng.permutation(rs.dim)]
            if kind == "ball":
                half = [r] * rs.dim
            center = tuple(l.as_fraction() + h + (u - l - 2 * h).as_fraction()
                           * Fraction(int(rng.integers(0, 10 ** 6)), 10 ** 6)
                           for l, u, h in zip(base.lo, base.hi, half))
            q = (QueryRange("ball", center, r) if kind == "ball"
                 else QueryRange("box", center, half_extents=half))
            out.append((q, None))
            out.append((q, worst * float(rng.choice([0.5, 1.0, 2.0]))))
    return out


def _outcomes(rs, queries, kappa):
    """cover_tiles and cover_fragments of each query, as comparable values."""
    out = []
    for q, merge_budget in queries:
        for rep in (cover_tiles(rs, q, kappa=kappa),
                    cover_fragments(rs, q, kappa=kappa, merge_budget=merge_budget)):
            out.append((rep.level, rep.tiles, rep.intervals, rep.fragments, rep.total_area))
    return out


def _assert_covers_match_exact(monkeypatch, rs, queries, kappa):
    fast = _outcomes(rs, queries, kappa)
    with monkeypatch.context() as m:
        m.setattr(cover, "state_table", lambda rs: None)     # the exact walk only
        exact = _outcomes(rs, queries, kappa)
    assert fast == exact
    return fast


@pytest.mark.parametrize("name", COVER_SETS)
def test_integer_covers_match_exact_path(monkeypatch, name):
    entry = catalog.builtin(name)
    rs, kappa = entry.ruleset, entry.window_kappa
    assert state_table(rs) is not None
    queries = _seeded_queries(rs, kappa, seed=len(name))
    outcomes = _assert_covers_match_exact(monkeypatch, rs, queries, kappa)
    levels = [o[0] for o in outcomes]
    assert {0, 3} <= set(levels)
    # some merge budget joins runs across a gap
    assert any(len(a[3]) > len(b[3]) for a, b in zip(outcomes[1::4], outcomes[3::4]))


@pytest.mark.parametrize("name", ["daun", "kochel"])
@pytest.mark.parametrize("rot", [0, 3, 6, 9])
@pytest.mark.parametrize("reflect", [False, True])
def test_integer_covers_match_exact_path_under_square_symmetries(monkeypatch, name, rot,
                                                                  reflect):
    entry = catalog.builtin(name)
    rs = _conjugate(entry.ruleset, Ortho(2, rot, reflect))
    queries = _seeded_queries(rs, entry.window_kappa, seed=rot + reflect, levels=(0, 1, 2))
    _assert_covers_match_exact(monkeypatch, rs, queries, entry.window_kappa)


def test_integer_covers_match_exact_path_off_the_origin(monkeypatch):
    rs = parse_ruleset(OFF_ORIGIN)
    assert validate_ruleset(rs).valid
    assert state_table(rs) is not None and rs.unit_rule.base.lo == (1, -1)
    _assert_covers_match_exact(monkeypatch, rs, _seeded_queries(rs, Fraction(2), 7),
                               Fraction(2))


def _fraction_fragments(rs, report, merge_budget):
    """Runs joined and merged on the report's Fraction intervals: a tile
    joins the run whose last interval ends where its own begins; the
    smallest gap merges first while the exact area, as a float, stays at
    most merge_budget times the query measure, and the level tiles inside
    the gap, found on Fraction intervals, join the merged run.  Returns
    (fragments, total area)."""
    runs = []
    for address, iv in zip(report.tiles, report.intervals):
        if runs and runs[-1][-1][1].hi == iv.lo:
            runs[-1].append((address, iv))
        else:
            runs.append([(address, iv)])
    total, unit_area = report.total_area, rs.unit_rule.base.measure()
    den = prefix_table(rs)[0]
    while merge_budget is not None and len(runs) > 1:
        gaps = [b[0][1].lo - a[-1][1].hi for a, b in zip(runs, runs[1:])]
        i = gaps.index(min(gaps))
        added = coord(gaps[i]) * unit_area
        if float(total + added) > merge_budget * report.query.measure():
            break
        total = total + added
        lo, hi = runs[i][-1][1].hi, runs[i + 1][0][1].lo

        def outside(address, *node):
            scale = den ** len(address)
            return (Fraction(node[-2], scale) >= hi
                    or Fraction(node[-2] + node[-1], scale) <= lo)

        fillers = [(leaf[0], tile_interval(rs, leaf[0]))
                   for leaf in walk(rs, report.level, prune=outside, scan=True)]
        runs[i:i + 2] = [runs[i] + fillers + runs[i + 1]]
    return [[address for address, _ in run] for run in runs], total


@pytest.mark.parametrize("name", ["hilbert", "peano", "dekking", "coil", "zorder3d", "coil3d"])
def test_integer_runs_and_merges_match_fraction_intervals(name):
    entry = catalog.builtin(name)
    rs, kappa = entry.ruleset, entry.window_kappa
    merged = 0
    for q, merge_budget in _seeded_queries(rs, kappa, seed=len(name) + 1):
        rep = cover_fragments(rs, q, kappa=kappa, merge_budget=merge_budget)
        want = _fraction_fragments(rs, cover_tiles(rs, q, kappa=kappa), merge_budget)
        assert (rep.fragments, rep.total_area) == want
        merged += merge_budget is not None and rep.fragment_count < len(
            cover_fragments(rs, q, kappa=kappa).fragments)
    assert merged


def _filtered_expansion(rs, q, level):
    """The tiles of the whole level-`level` expansion that meet q, in
    scanning order: the cover's definition, read off directly."""
    hits = [t for t in expand(rs, level) if q.intersects_box(t.geometry)]
    hits.sort(key=lambda t: tile_interval(rs, t.address).lo)
    return [t.address for t in hits]


def test_irrational_query_takes_exact_path(monkeypatch, hilbert):
    # (1 + sqrt(3))/4 is no multiple of any lattice pitch
    for q in (QueryRange("ball", (Coord(1, 1, 4), Fraction(1, 3)), Fraction(1, 20)),
              QueryRange("ball", (Fraction(1, 3), Fraction(1, 3)), Coord(0, 1, 40)),
              QueryRange("box", (Coord(1, 1, 4), Fraction(1, 2)),
                         half_extents=(Fraction(1, 30), Fraction(1, 20)))):
        level = canonical_level(hilbert, max(q.bounding_halfwidths()))
        assert _table_misses(hilbert, state_table(hilbert), q, level) is None
        outcomes = _assert_covers_match_exact(monkeypatch, hilbert, [(q, None)], Fraction(2))
        assert outcomes[0][1] == _filtered_expansion(hilbert, q, level)


@pytest.mark.parametrize("text", [OFF_LATTICE, BELOW_LEVEL_ONE, CHILD_OUTSIDE])
def test_hand_built_sets_cover_their_filtered_expansion(text):
    rs = parse_ruleset(text)
    for center, r in (((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 9)),
                      ((Fraction(2, 7), Fraction(3, 5)), Fraction(1, 40))):
        q = QueryRange("ball", center, r)
        for level in (1, 2):
            assert cover_tiles(rs, q, level=level).tiles == _filtered_expansion(rs, q, level)


def _nodes_visited(rs, q, level):
    """How many nodes the exact cover descent tests."""
    misses, visited = _exact_misses(rs, q), []

    def counted(*node):
        visited.append(node[0])
        return misses(*node)

    list(walk(rs, level, prune=counted, scan=True))
    return len(visited)


@pytest.mark.parametrize("name", ["hilbert", "dekking", "coil3d"])
def test_budget_error_at_the_same_budget_on_both_paths(monkeypatch, name):
    entry = catalog.builtin(name)
    rs = entry.ruleset
    q = QueryRange("ball", (Fraction(1, 2),) * rs.dim, window_radii(rs, 2, entry.window_kappa, 1)[0])
    level = canonical_level(rs, q.radius, entry.window_kappa)
    n = _nodes_visited(rs, q, level)
    for table in (state_table(rs), None):
        with monkeypatch.context() as m:
            m.setattr(cover, "state_table", lambda rs, table=table: table)
            assert cover_tiles(rs, q, kappa=entry.window_kappa, budget=n).tile_count > 0
            with pytest.raises(BudgetError) as err:
                cover_tiles(rs, q, kappa=entry.window_kappa, budget=n - 1)
        assert "visited %d nodes against a budget of %d" % (n, n - 1) in str(err.value)


@pytest.mark.parametrize("name", ["hilbert", "coil3d"])
def test_touching_counts_on_both_paths(monkeypatch, name):
    # closed-closed: a ball at distance exactly r from a tile, or a box whose
    # face lies on a tile's face, meets that tile
    rs = catalog.builtin(name).ruleset
    r, half = Fraction(1, 10), Fraction(1, 2)
    # 3-4-5 and 1-2-2-3 make the distance to the vertex (1/2, ...) exactly r
    steps = (Fraction(3, 5), Fraction(4, 5)) if rs.dim == 2 else (Fraction(1, 3), Fraction(2, 3),
                                                                  Fraction(2, 3))
    queries = [QueryRange("ball", tuple(half - r * s for s in steps), r),
               QueryRange("ball", (half - r,) + (Fraction(3, 8),) * (rs.dim - 1), r),
               QueryRange("box", (half - r,) + (Fraction(3, 8),) * (rs.dim - 1),
                          half_extents=(r,) + (r / 2,) * (rs.dim - 1))]
    outcomes = _assert_covers_match_exact(monkeypatch, rs, [(q, None) for q in queries],
                                          Fraction(2))
    for q, outcome in zip(queries, outcomes[::2]):
        touched = [t for t in expand(rs, outcome[0])
                   if t.geometry.lo[0] == half and q.intersects_box(t.geometry)]
        assert touched and outcome[1] == _filtered_expansion(rs, q, outcome[0])


def _boundary_set(name):
    return parse_ruleset(OFF_ORIGIN) if name == "off-origin" else catalog.builtin(name).ruleset


@pytest.mark.parametrize("name", ["hilbert", "coil3d", "off-origin"])
def test_queries_on_the_unit_boundary(monkeypatch, name):
    # center - h = lo or center + h = hi on some axes: still inside the unit
    rs = _boundary_set(name)
    base = rs.unit_rule.base
    lo, hi = ([v.as_fraction() for v in corner] for corner in (base.lo, base.hi))
    mid = [(l + h) / 2 for l, h in zip(lo, hi)]
    r = window_radii(rs, 2, Fraction(2), 1)[0].as_fraction()
    half = (r,) + (r / 2,) * (rs.dim - 1)
    queries = []
    for axis in range(rs.dim):
        for end in (lo, hi):
            toward = 1 if end is lo else -1
            ball = list(mid)
            ball[axis] = end[axis] + toward * r
            box = list(mid)
            box[axis] = end[axis] + toward * half[axis]
            queries += [QueryRange("ball", ball, r), QueryRange("box", box, half_extents=half)]
    for end, toward in ((lo, 1), (hi, -1)):          # touching a face on every axis
        queries += [QueryRange("ball", [e + toward * r for e in end], r),
                    QueryRange("box", [e + toward * h for e, h in zip(end, half)],
                               half_extents=half)]
    outcomes = _assert_covers_match_exact(monkeypatch, rs, [(q, None) for q in queries],
                                          Fraction(2))
    for q, outcome in zip(queries, outcomes[::2]):
        assert outcome[0] == 2 and outcome[1] == _filtered_expansion(rs, q, 2)


@pytest.mark.parametrize("name", ["hilbert", "coil3d", "off-origin"])
def test_queries_just_outside_the_unit_fail_on_both_paths(monkeypatch, name):
    rs = _boundary_set(name)
    base = rs.unit_rule.base
    lo, hi = ([v.as_fraction() for v in corner] for corner in (base.lo, base.hi))
    mid = [(l + h) / 2 for l, h in zip(lo, hi)]
    r, eps = window_radii(rs, 2, Fraction(2), 1)[0].as_fraction(), Fraction(1, 10 ** 9)
    queries = []
    for axis in range(rs.dim):
        for center in (lo[axis] + r - eps, hi[axis] - r + eps):
            c = list(mid)
            c[axis] = center
            queries += [QueryRange("ball", c, r), QueryRange("box", c, half_extents=(r,) * rs.dim)]
    for table in (state_table(rs), None):
        with monkeypatch.context() as m:
            m.setattr(cover, "state_table", lambda rs, table=table: table)
            for q in queries:
                # a budget of 0 raises BudgetError at the first node visited
                for run in (cover_tiles, cover_fragments):
                    with pytest.raises(RuleError, match="not contained"):
                        run(rs, q, budget=0)


# -- canonical levels in integers against the Fraction loop ----------------------

def _fraction_canonical_level(rs, r, kappa=Fraction(2)):
    """The level found on Fractions by growing the window's top, kappa lam r,
    by lam per level until it reaches the unit's reference side."""
    r, kappa = Fraction(r), Fraction(kappa)
    if r <= 0:
        raise ValueError("radius must be positive")
    side = reference_side(rs).as_fraction()
    lam = subdivision_ratio(rs).as_fraction()
    hi = kappa * lam * r
    if side > hi:
        k = 0
        while side > hi:                     # level k's side is side / lam**k
            hi = hi * lam
            k += 1
            if k > MAX_LEVEL:
                raise RuleError("no canonical level below %d" % MAX_LEVEL)
        return k
    if side * lam <= hi:                     # side <= hi / lam = kappa * r
        raise RuleError("radius too large: level-0 window violated")
    return 0


def _level_outcome(f, *args):
    try:
        return f(*args)
    except (RuleError, ValueError) as err:
        return type(err), str(err)


TABLE_SETS = [n for n in catalog.names() if state_table(catalog.builtin(n).ruleset) is not None]


@pytest.mark.parametrize("name", TABLE_SETS)
def test_integer_level_matches_the_fraction_loop(name):
    entry = catalog.builtin(name)
    rs, table = entry.ruleset, state_table(entry.ruleset)
    base = rs.unit_rule.base
    center = tuple((l + h).as_fraction() / 2 for l, h in zip(base.lo, base.hi))
    side = reference_side(rs).as_fraction()
    lam = subdivision_ratio(rs).as_fraction()
    eps = Fraction(1, 10 ** 12)
    for kappa in sorted({Fraction(2), Fraction(entry.window_kappa)}):
        # side / (kappa lam**j) for j = k and k + 1, k = 0..6, 10^-12 off
        # either side; and past the deepest level, 10^-12 of the radius off
        radii = [side / (kappa * lam ** j) + s * eps for j in range(8) for s in (-1, 0, 1)]
        radii += [side / (kappa * lam ** j) * (1 + s * eps) for j in (64, 65) for s in (-1, 0, 1)]
        outcomes = set()
        for r in radii:
            want = _level_outcome(_fraction_canonical_level, rs, r, kappa)
            assert _level_outcome(canonical_level, rs, r, kappa) == want
            half = (r / 3, r) + (r / 2,) * (rs.dim - 2)
            for q in (QueryRange("ball", center, r), QueryRange("box", center, half_extents=half)):
                tq = _TableQuery.of(table, q, base.lo)
                assert _level_outcome(tq.level, kappa) == want
                assert _level_outcome(tq.level, coord(kappa)) == want
                # kappa with a sqrt(3) part: the Coord branch of the same loop
                assert (_level_outcome(tq.level, kappa * SQRT3)
                        == _level_outcome(canonical_level, rs, r, kappa * SQRT3))
            outcomes.add(want if isinstance(want, tuple) else "level")
        # both errors occur, besides levels 0 to 64
        assert outcomes == {"level", (RuleError, "radius too large: level-0 window violated"),
                            (RuleError, "no canonical level below %d" % MAX_LEVEL)}


# -- parameter intervals from integer numerators ---------------------------------

@pytest.mark.parametrize("name", ["dekking", "hilbert"])
def test_integer_intervals_match_fraction_intervals(name):
    rs = catalog.builtin(name).ruleset
    den = prefix_table(rs)[0]
    for depth in range(4):
        scale = den ** depth
        for address, _, _, _, lo, length in walk(rs, depth):
            want = Interval(Fraction(lo, scale), Fraction(lo + length, scale))
            for got in (Interval.of(lo, lo + length, scale), tile_interval(rs, address)):
                assert got == want
                assert type(got.lo) is type(got.hi) is Fraction


def test_integer_intervals_check_their_range():
    for lo, hi, den in ((-1, 2, 4), (0, 5, 4), (3, 2, 4), (5, 5, 4), (-1, -1, 4)):
        with pytest.raises(ValueError, match="out of range"):
            Interval.of(lo, hi, den)
        with pytest.raises(ValueError, match="out of range"):
            Interval(Fraction(lo, den), Fraction(hi, den))
    assert Interval.of(0, 4, 4) == Interval(0, 1)
    assert Interval.of(2, 2, 4) == Interval(Fraction(1, 2), Fraction(1, 2))
