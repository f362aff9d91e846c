"""Connections, vertex indexes, vertex degrees and audits in integers against
the exact per-tile paths they replaced.

A rule set with a state table is classified and audited on the integer leaf
array (`expand.table_leaves`) and gate table (`curves.gate_table`); any other
rule set on the ranks of the exact coordinates of its leaves, gates and unit
box (`expand.Ranks`).  Every tile set is indexed on the ranks of its corners
(`expand.rank_incidence`).  The oracles below are the earlier exact bodies of
`classify_connections`, `vertex_audit`, `TileSet.vertex_index` and
`vertex_degrees`, run tile by tile in `Coord` arithmetic on the exact `walk`.
"""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

from arrwwid import catalog, curves
from arrwwid.cover import canonical_level, reference_side, subdivision_ratio
from arrwwid.curves import (ConnectionStats, Gates, classify_connections, gate_table,
                            scan_leaves, vertex_audit)
from arrwwid.exact import ONE, Coord, coord
from arrwwid.expand import (BudgetError, Tile, TileSet, count_tiles, expand, state_table, table_leaves,
                            table_walk, vertex_degrees)
from arrwwid.rules import RuleError, parse_ruleset
from arrwwid.shapes import Box, Polygon
from arrwwid.transforms import Ortho, Similarity

from test_shapes import _shared_boundary_dim
from test_walk import BELOW_LEVEL_ONE, CHILD_OUTSIDE, OFF_LATTICE, OFF_ORIGIN, _conjugate


# -- the exact oracles -----------------------------------------------------------

def _bucket_tiles(tiles):
    """Hash tiles into a float grid keyed by bucket tuple; returns (dict, h)."""
    h = None
    for t in tiles[:64]:
        g = t.geometry
        bb = g if isinstance(g, Box) else g.bounding_box()
        ext = min(float(v) for v in bb.extent())
        h = ext if h is None else min(h, ext)
    h = max(h or 1.0, 1e-9)
    buckets = {}
    for i, t in enumerate(tiles):
        g = t.geometry
        bb = g if isinstance(g, Box) else g.bounding_box()
        los = [int(float(v) // h) - 1 for v in bb.lo]
        his = [int(float(v) // h) + 1 for v in bb.hi]
        for key in itertools.product(*(range(l, u + 1) for l, u in zip(los, his))):
            buckets.setdefault(key, []).append(i)
    return buckets, h


def _exact_vertex_index(tiles):
    """Corner point -> sorted indices of the tiles whose closed boundary
    holds it: candidates from a float bucket grid, membership decided exactly."""
    index = {}
    for i, t in enumerate(tiles):
        for p in t.geometry.corners():
            index.setdefault(p, set()).add(i)
    buckets, h = _bucket_tiles(tiles)
    for p, incident in index.items():
        key = tuple(int(float(v) // h) for v in p)
        seen = set()
        for off in itertools.product((-1, 0, 1), repeat=len(key)):
            for i in buckets.get(tuple(k + o for k, o in zip(key, off)), ()):
                if i in incident or i in seen:
                    continue
                seen.add(i)
                g = tiles[i].geometry
                bb = g if isinstance(g, Box) else g.bounding_box()
                if bb.contains_point(p) and g.on_boundary(p):
                    incident.add(i)
    return {p: sorted(s) for p, s in index.items()}


def _exact_degrees(rs, index):
    """(interior, boundary) degree items of an exact vertex index."""
    unit_base = rs.unit_rule.base
    interior, boundary = [], []
    for p, incident in index.items():
        (boundary if unit_base.on_boundary(p) else interior).append((p, len(incident)))
    return interior, boundary


def _classify_pair(stats, geom_a, geom_b, exit_a, entry_b):
    contact = _shared_boundary_dim(geom_a, geom_b)
    if exit_a != entry_b or contact is None:
        stats.jump += 1
        stats.jump_contact_dims[contact] = stats.jump_contact_dims.get(contact, 0) + 1
    elif geom_a.dim == 2:
        if contact == 1:
            # an x-degenerate intersection is a shared vertical edge
            if (max(geom_a.lo[0], geom_b.lo[0]) - min(geom_a.hi[0], geom_b.hi[0])).sign() == 0:
                stats.horizontal += 1
            else:
                stats.vertical += 1
        else:
            stats.diagonal += 1
    elif contact == 2:
        stats.facet += 1
    else:
        stats.diagonal += 1


class Exact:
    """The exact analyses of one scanning-order expansion, sharing its walk."""

    def __init__(self, rs, depth):
        gates = Gates(rs)
        leaves = list(scan_leaves(rs, depth))
        self.tiles = [Tile(addr, rule, tr, rs.rules[rule].base.transform(tr), rev)
                      for addr, rule, tr, rev in leaves]
        tile_gates = [gates.of_tile(tr, rule, rev) for _, rule, tr, rev in leaves]
        # the exact loop refused polygon leaves: connections None
        self.connections = None
        if all(isinstance(t.geometry, Box) for t in self.tiles):
            stats = ConnectionStats()
            for a, b, (_, exit_a), (entry_b, _) in zip(self.tiles, self.tiles[1:], tile_gates,
                                                       tile_gates[1:]):
                _classify_pair(stats, a.geometry, b.geometry, exit_a, entry_b)
            self.connections = stats.as_dict()
        index = _exact_vertex_index(self.tiles)
        self.index = list(index.items())
        self.degrees = _exact_degrees(rs, index)
        unit_base = rs.unit_rule.base
        self.audits = []
        for p, incident in index.items():
            if unit_base.on_boundary(p):
                continue
            ends = sum((tile_gates[i][0] == p) + (tile_gates[i][1] == p) for i in incident)
            degenerate = sum(b == a + 1 and tile_gates[a][1] == p and tile_gates[b][0] == p
                             for a, b in zip(incident, incident[1:]))
            self.audits.append((p, len(incident), ends, degenerate,
                                len(incident) - 1 - degenerate))


@functools.lru_cache(maxsize=None)
def exact_catalog(name, depth):
    """`Exact` of a catalog entry, computed once per test session."""
    return Exact(catalog.builtin(name).ruleset, depth)


def audit_rows(audits):
    return [(a.vertex, a.tiles_v, a.ends_v, a.degenerate_bridges, a.nondegenerate_bridges)
            for a in audits]


def _assert_matches_exact(rs, depth, want):
    if want.connections is None:
        with pytest.raises(RuleError, match="connection classification supports box tiles only"):
            classify_connections(rs, depth)
    else:
        # the JSON the CLI prints, key order included
        assert (json.dumps(classify_connections(rs, depth).as_dict())
                == json.dumps(want.connections))
    assert audit_rows(vertex_audit(rs, depth)) == want.audits
    ts = TileSet(rs, depth, list(want.tiles))
    assert list(ts.vertex_index.items()) == want.index
    dm = vertex_degrees(TileSet(rs, depth, list(want.tiles)))
    assert (list(dm.interior.items()), list(dm.boundary.items())) == want.degrees


def _assert_expansion_index_matches_exact(rs, depth):
    """The same on the address-ordered tile set `expand` builds."""
    tiles = expand(rs, depth).tiles
    index = _exact_vertex_index(tiles)
    assert list(expand(rs, depth).vertex_index.items()) == list(index.items())
    dm = vertex_degrees(expand(rs, depth))
    assert (list(dm.interior.items()), list(dm.boundary.items())) == _exact_degrees(rs, index)


# -- the integer paths against the oracles -----------------------------------

def _depths(entry):
    return range(4 if entry.dim == 2 else 3)


def _catalog_cases():
    for name in catalog.names():
        entry = catalog.builtin(name)
        for depth in _depths(entry):
            # the exact index takes seconds past a few thousand tiles
            big = count_tiles(entry.ruleset, depth) > 2000
            yield pytest.param(name, depth, marks=[pytest.mark.slow] if big else [],
                               id="%s-%d" % (name, depth))


@pytest.mark.parametrize("name,depth", _catalog_cases())
def test_analyses_match_exact_paths(name, depth):
    rs = catalog.builtin(name).ruleset
    assert state_table(rs) is not None
    _assert_matches_exact(rs, depth, exact_catalog(name, depth))
    if count_tiles(rs, depth) <= 1000:
        _assert_expansion_index_matches_exact(rs, depth)


@pytest.mark.parametrize("name", ["daun", "kochel"])
@pytest.mark.parametrize("rot", [0, 3, 6, 9])
@pytest.mark.parametrize("reflect", [False, True])
def test_analyses_match_exact_paths_under_square_symmetries(name, rot, reflect):
    rs = _conjugate(catalog.builtin(name).ruleset, Ortho(2, rot, reflect))
    assert state_table(rs) is not None
    for depth in (1, 2):
        _assert_matches_exact(rs, depth, Exact(rs, depth))


# the 2 sqrt(3) x 1 rectangle cut into four halves: sqrt(3) coordinates, so
# no state table
SQRT3_RECTANGLE = """
unit R
rule R
base box 0 0 (0+2rt3)/1 1
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(rt3,0)
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,1/2)
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(rt3,1/2)
"""


@pytest.mark.parametrize("text,table", [(OFF_LATTICE, False), (CHILD_OUTSIDE, False),
                                        (BELOW_LEVEL_ONE, True), (OFF_ORIGIN, True),
                                        (SQRT3_RECTANGLE, False)],
                         ids=["off-lattice", "child-outside", "below-level-one", "off-origin",
                              "sqrt3-rectangle"])
def test_hand_built_sets_match_exact_paths(monkeypatch, text, table):
    rs = parse_ruleset(text)
    assert (state_table(rs) is not None) == table
    if not table:
        # a set without a table never reaches the integer leaves
        def refuse(*args):
            raise AssertionError("integer leaves built for a set without a table")
        monkeypatch.setattr(curves, "_table_leaves", refuse)
    for depth in (0, 1, 2, 3):
        _assert_matches_exact(rs, depth, Exact(rs, depth))
        _assert_expansion_index_matches_exact(rs, depth)


def _ranked_points(ts):
    """The index's points read back from the ranks it ran on."""
    ranks, points = ts._ranks
    return [tuple(axis[c] for axis, c in zip(ranks.axes, p)) for p in points.tolist()]


def test_polygon_tiles_keep_the_exact_index():
    # a turn by 30 degrees makes every tile a polygon with sqrt(3) corners
    turn = Similarity(1, Ortho(2, 1, False), (0, 0))
    turned = [Tile(t.address, t.rule, t.transform, t.geometry.transform(turn), t.reversed)
              for t in expand(catalog.builtin("hilbert").ruleset, 1)]
    ts = TileSet(None, 1, turned)
    assert list(ts.vertex_index.items()) == list(_exact_vertex_index(turned).items())
    assert _ranked_points(ts) == list(ts.vertex_index)


def test_polygon_order_matches_exact_paths():
    # hilbert turned by 30 degrees: every leaf is a polygon with sqrt(3)
    # corners, so the order gets audits and an index but no connections
    rs = _conjugate(catalog.builtin("hilbert").ruleset, Ortho(2, 1, False))
    assert state_table(rs) is None
    for depth in (0, 1, 2, 3):
        want = Exact(rs, depth)
        assert want.connections is None and (depth == 0 or want.audits)
        _assert_matches_exact(rs, depth, want)
        _assert_expansion_index_matches_exact(rs, depth)


def _box_tiles(boxes):
    return [Tile((i,), "A", None, Box(lo, hi), False) for i, (lo, hi) in enumerate(boxes)]


def _brute_vertex_index(tiles):
    """Every corner, in order of first appearance, with every tile whose
    closed boundary holds it, tested one tile at a time."""
    points = dict.fromkeys(p for t in tiles for p in t.geometry.corners())
    return [(p, [i for i, t in enumerate(tiles) if t.geometry.on_boundary(p)]) for p in points]


def test_corners_past_int64_keep_the_exact_index():
    # corners near 2**62 do not fit the integer index's int64 arrays
    x = 2 ** 62
    tiles = _box_tiles((((x, 0), (x + 1, 1)), ((x + 1, 0), (x + 2, Fraction(1, 2))),
                        ((x + 1, Fraction(1, 2)), (x + 2, 1))))
    ts = TileSet(None, 1, tiles)
    assert list(ts.vertex_index.items()) == _brute_vertex_index(tiles)
    assert _ranked_points(ts) == list(ts.vertex_index)


def test_boxes_far_apart_are_indexed():
    # unit boxes 2**32 apart on each axis, ranked side by side
    far = 2 ** 32
    tiles = _box_tiles([((0, 0, 0), (1, 1, 1)), ((far, 0, 0), (far + 1, 1, 1)),
                        ((0, far, 0), (1, far + 1, 1)), ((0, 0, far), (1, 1, far + 1)),
                        ((1, 0, 0), (2, 1, 1))])
    ts = TileSet(None, 1, tiles)
    assert list(ts.vertex_index.items()) == _brute_vertex_index(tiles)
    assert _ranked_points(ts) == list(ts.vertex_index)


def test_boxes_of_very_different_sizes_are_indexed():
    # a box 2**40 wide over a row of unit boxes spans 17 ranks, not 2**40 units
    wide = 2 ** 40
    tiles = _box_tiles([((i, 0), (i + 1, 1)) for i in range(16)] + [((0, 1), (wide, wide))])
    ts = TileSet(None, 1, tiles)
    assert list(ts.vertex_index.items()) == _brute_vertex_index(tiles)
    assert ts._ranks[1].max() == 17


def test_polygon_candidates_are_decided_exactly():
    # an L-shaped polygon with a box in its notch and a triangle on top: their
    # corner (2, 2) lies in the L's bounding box and off its boundary
    ell = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    tiles = [Tile((0,), "A", None, ell, False), Tile((1,), "A", None, Box((1, 1), (2, 2)), False),
             Tile((2,), "A", None, Polygon([(0, 2), (2, 2), (1, 3)]), False)]
    ts = TileSet(None, 1, tiles)
    assert list(ts.vertex_index.items()) == _brute_vertex_index(tiles)
    assert list(ts.vertex_index.items()) == list(_exact_vertex_index(tiles).items())
    assert ts.vertex_index[coord(2), coord(2)] == [1, 2]


def test_ranks_keep_each_axis_apart():
    # four boxes under one: x takes the values 0, 1/4, 1/2, 3/4 and 1, y only
    # 0, 1/2 and 1, so 1/2 and 1 have different ranks on the two axes
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    tiles = _box_tiles([((i * quarter, 0), ((i + 1) * quarter, half)) for i in range(4)]
                       + [((0, half), (1, 1))])
    ts = TileSet(None, 1, tiles)
    assert list(ts.vertex_index.items()) == _brute_vertex_index(tiles)
    assert ts._ranks[0].axes == [[coord(i * quarter) for i in range(5)],
                                 [coord(i * half) for i in range(3)]]
    assert _ranked_points(ts) == list(ts.vertex_index)


@pytest.mark.parametrize("analysis", [classify_connections, vertex_audit])
def test_budget_is_checked_before_the_integer_leaves(hilbert, analysis):
    assert analysis(hilbert, 3, budget=64) is not None
    with pytest.raises(BudgetError, match="scan of depth 3 exceeds tile budget"):
        analysis(hilbert, 3, budget=63)


@pytest.mark.parametrize("name", catalog.names())
def test_table_leaves_match_table_walk(name):
    entry = catalog.builtin(name)
    table = state_table(entry.ruleset)
    for depth in _depths(entry):
        corner, state = table_leaves(table, depth)
        walked = list(table_walk(entry.ruleset, depth))
        assert corner.tolist() == [list(node[2]) for node in walked]
        assert state.tolist() == [node[1] for node in walked]


@pytest.mark.parametrize("name", catalog.names())
def test_gate_table_matches_exact_gates(name):
    entry = catalog.builtin(name)
    rs = entry.ruleset
    table, gates = state_table(rs), Gates(rs)
    m, offsets = gate_table(rs)
    origin = rs.unit_rule.base.lo
    for depth in range(3 if entry.dim == 2 else 2):
        pitch = table.p1 * Fraction(table.k) ** (1 - depth) / m
        corner, state = table_leaves(table, depth)
        for (_, rule, tr, rev), c, s in zip(scan_leaves(rs, depth), corner.tolist(),
                                            state.tolist()):
            got = tuple(tuple(o + coord(pitch * (m * ci + g)) for o, ci, g in zip(origin, c, gate))
                        for gate in offsets[s].tolist())
            assert got == gates.of_tile(tr, rule, rev)


# -- canonical levels against the per-level Coord loop ---------------------------

def _exact_canonical_level(rs, r, kappa=Fraction(2), max_level=64):
    """The level found by shrinking the reference side one level at a time."""
    r = coord(r)
    if r.sign() <= 0:
        raise ValueError("radius must be positive")
    lam = subdivision_ratio(rs)
    kap = coord(kappa)
    side = reference_side(rs)
    hi = kap * lam * r
    lo = kap * r
    if (side - hi).sign() > 0:
        k = 0
        while (side - hi).sign() > 0:
            side = side * (ONE / lam)
            k += 1
            if k > max_level:
                raise RuleError("no canonical level below %d" % max_level)
        return k
    if (side - lo).sign() <= 0:
        raise RuleError("radius too large: level-0 window violated")
    return 0


def _outcome(f, *args):
    try:
        return f(*args)
    except (RuleError, ValueError) as err:
        return type(err), str(err)


def _radii(rs, kappa, rng):
    """Seeded radii from far below the deepest level to past level 0, plus
    the window boundaries where the level changes, at level 0, the first
    levels and the deepest level 64, each with a radius just off each side."""
    side = reference_side(rs).as_fraction()
    lam = subdivision_ratio(rs).as_fraction()
    kap = Fraction(kappa)
    out = [Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
           * Fraction(1, 10) ** rng.randrange(0, 60) for _ in range(60)]
    edges = [side / (kap * lam ** j) for j in (-1, 0, 1, 2, 3, 4, 64, 65, 66)]
    return out + [r * (1 + Fraction(s, 10 ** 9)) for r in edges for s in (-1, 0, 1)]


@pytest.mark.parametrize("name", catalog.names())
def test_canonical_level_matches_the_level_loop(name):
    entry = catalog.builtin(name)
    rs, rng = entry.ruleset, random.Random(name)
    for kappa in sorted({Fraction(2), Fraction(entry.window_kappa)}):
        outcomes = set()
        for r in _radii(rs, kappa, rng):
            want = _outcome(_exact_canonical_level, rs, r, kappa)
            assert _outcome(canonical_level, rs, r, kappa) == want
            assert _outcome(canonical_level, rs, coord(r), coord(kappa)) == want
            outcomes.add(want if isinstance(want, tuple) else "level")
        # both errors and some levels occur
        assert len(outcomes) == 3
    for bad in (0, -Fraction(1, 3)):
        assert _outcome(canonical_level, rs, bad) == _outcome(_exact_canonical_level, rs, bad)


def test_canonical_level_with_an_irrational_radius(hilbert):
    for r, kappa in ((Coord(0, 1, 40), 2), (Coord(1, 1, 4), 2), (Coord(-1, 1, 1000), 2),
                     (Fraction(1, 30), Coord(0, 1)), (Coord(0, 1, 10 ** 30), 2)):
        want = _outcome(_exact_canonical_level, hilbert, r, kappa)
        assert _outcome(canonical_level, hilbert, r, kappa) == want


def test_canonical_level_with_an_irrational_reference_side():
    # turned by 30 degrees, the unit's reference side is (1 + sqrt(3)) / 2
    rs = _conjugate(catalog.builtin("hilbert").ruleset, Ortho(2, 1, False))
    assert not reference_side(rs).is_rational
    rng = random.Random(30)
    outcomes = set()
    for kappa in (Fraction(2), Fraction(3)):
        for r in _radii(catalog.builtin("hilbert").ruleset, kappa, rng):
            want = _outcome(_exact_canonical_level, rs, r, kappa)
            assert _outcome(canonical_level, rs, r, kappa) == want
            outcomes.add(want if isinstance(want, tuple) else "level")
    assert len(outcomes) == 3
