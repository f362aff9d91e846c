"""`walk`, the one tile-tree traversal, and the state-table raster against
independent slow paths.

The single-path references are `tile_at` (rule, transform, reversal) and
`tile_interval` (parameter interval); covers are checked against a filter of
the full expansion, and `scan_raster` against a raster painted tile by tile
from exact boxes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from arrwwid import catalog
from arrwwid.cover import QueryRange, cover_tiles, window_radii
from arrwwid.curves import Interval, tile_interval
from arrwwid.exact import ZERO
from arrwwid.expand import (count_tiles, expand, lattice_pitch, prefix_table, scan_raster,
                            tile_at, walk)
from arrwwid.rules import Child, Rule, RuleError, RuleSet, parse_ruleset
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


def test_off_lattice_scale_has_no_lattice():
    # k = 3/2 is not an integer: depth-2 corners lie at 1/3 and 7/9, off the
    # 2/9 lattice that level-1 corners and the scale alone would give
    rs = parse_ruleset("""
unit A
rule A
base box 0 0 1 1
child rule=A scale=2/3 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=A scale=2/3 rot=0 reflect=0 reversed=0 translate=(1/3,1/3)
""")
    corners = {v.as_fraction() for t in expand(rs, 2) for v in t.geometry.lo + t.geometry.hi}
    assert {Fraction(1, 3), Fraction(7, 9)} <= corners
    assert lattice_pitch(rs, 2) is None
    with pytest.raises(RuleError, match="no common cut lattice"):
        scan_raster(rs, 2)


def test_lattice_pitch_holds_corners_below_level_one():
    # B places a child at x = 1/3, which level-1 corners do not show
    rs = parse_ruleset("""
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
""")
    corners = {v.as_fraction() for t in expand(rs, 2) for v in t.geometry.lo + t.geometry.hi}
    assert {Fraction(1, 6), Fraction(2, 3)} <= corners
    pitch = lattice_pitch(rs, 2)
    assert pitch is not None and all((v / pitch).denominator == 1 for v in corners)
    # B's children overlap and leave its upper right corner uncovered
    with pytest.raises(RuleError, match="uncovered"):
        scan_raster(rs, 2)


def test_child_outside_its_parent_has_no_lattice():
    # the second child reaches x = 5/4, past its parent's right side
    rs = parse_ruleset("""
unit A
rule A
base box 0 0 1 1
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(3/4,0)
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,1/2)
child rule=A scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,1/2)
""")
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
