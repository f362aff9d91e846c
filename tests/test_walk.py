"""`walk`, the one tile-tree traversal, against independent slow paths.

The single-path references are `tile_at` (rule, transform, reversal) and
`tile_interval` (parameter interval); covers are checked against a filter of
the full expansion.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from arrwwid import catalog
from arrwwid.cover import QueryRange, cover_tiles, window_radii
from arrwwid.curves import Interval, tile_interval
from arrwwid.exact import ZERO
from arrwwid.expand import count_tiles, expand, prefix_table, scan_raster, tile_at, walk


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
