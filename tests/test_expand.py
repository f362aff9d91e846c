import itertools
from fractions import Fraction

import numpy as np
import pytest

from arrwwid import catalog
from arrwwid.exact import ONE, coord
from arrwwid.cover import _vertex_stats_grid
from arrwwid.expand import (expand, vertex_degrees, count_tiles, tile_at,
                            rasterize, max_interior_degree_fast, BudgetError,
                            scan_raster, _block_tiles, _max_block_degree)
from arrwwid.recursify import _HEX_EDGE_BLOCKS, _HEX_VERTEX_BLOCKS, _contact_blocks

from test_recursify import _box_blocks


def test_counts_and_partition(quadtree, daun, lifted_daun):
    for rs, depth, n in ((quadtree, 2, 16), (daun, 1, 16), (lifted_daun, 1, 64)):
        ts = expand(rs, depth)
        assert len(ts) == n
        assert ts.total_measure() == rs.unit_rule.base.measure()


def test_partition_exactness_deeper(daun):
    for depth in (2, 3):
        ts = expand(daun, depth)
        assert ts.total_measure() == daun.unit_rule.base.measure()


def test_lifted_daun_layers(lifted_daun):
    ts = expand(lifted_daun, 1)
    layers = {}
    for t in ts:
        layers.setdefault(t.geometry.lo[2], 0)
        layers[t.geometry.lo[2]] += 1
    assert sorted(layers.values()) == [16, 16, 16, 16]


def test_geometry_address_coherence(hilbert):
    ts = expand(hilbert, 3)
    for t in list(ts)[::17]:
        rule_name, transform, rev = tile_at(hilbert, t.address)
        assert rule_name == t.rule
        assert hilbert.rules[rule_name].base.transform(transform) == t.geometry


def test_quadtree_degrees(quadtree):
    dm = vertex_degrees(expand(quadtree, 2))
    assert dm.max_interior == 4


def test_daun_degrees_exact_and_fast(daun):
    for depth in (1, 2):
        assert vertex_degrees(expand(daun, depth)).max_interior == 3
    for depth in (1, 2, 3, 4):
        assert max_interior_degree_fast(daun, depth) == 3


def test_degree_monotone(quadtree, daun):
    for rs in (quadtree, daun):
        degs = [max_interior_degree_fast(rs, k) for k in (1, 2, 3)]
        assert degs == sorted(degs)


def test_t_junction_counts_stem(daun):
    # a vertex interior to another tile's edge must count that tile
    ts = expand(daun, 1)
    dm = vertex_degrees(ts)
    assert 3 in dm.interior.values()


def test_lifted_daun_degree(lifted_daun):
    assert max_interior_degree_fast(lifted_daun, 1) == 6
    assert vertex_degrees(expand(lifted_daun, 1)).max_interior == 6


def test_raster_matches_exact(daun):
    raster = rasterize(daun, 2)
    assert raster.ids.shape == (48, 32)
    assert int(raster.ids.max()) == 255


def test_budget(quadtree):
    with pytest.raises(BudgetError):
        expand(quadtree, 5, budget=100)


def test_address_order_deterministic(hilbert):
    a = [t.address for t in expand(hilbert, 2)]
    assert a == sorted(a)


def _window_stats_grid(ids, window=None):
    """The rectangular-window block reader the offset blocks generalize."""
    window = window or (2,) * ids.ndim
    blocks = [ids[tuple(slice(o, s - w + 1 + o) for o, w, s in zip(off, window, ids.shape))]
              for off in itertools.product(*map(range, window))]
    arr = np.sort(np.stack(blocks, axis=-1).reshape(-1, len(blocks)), axis=1)
    diffs = np.diff(arr, axis=1)
    return (diffs != 0).sum(axis=1) + 1, (diffs > 1).sum(axis=1) + 1


@pytest.mark.parametrize("name,depth", [("daun", 3), ("dekking", 3), ("hilbert", 4),
                                        ("lifted-daun", 2), ("coil3d", 2)])
def test_rectangular_blocks_match_window_reader(name, depth):
    ids, _ = scan_raster(catalog.builtin(name).ruleset, depth)
    windows = [None] + [(1, 2, 2), (2, 1, 2), (2, 2, 1)] * (ids.ndim == 3) + [(3,) * ids.ndim]
    for window in windows:
        block = window and tuple(itertools.product(*map(range, window)))
        got, want = _vertex_stats_grid(ids, block), _window_stats_grid(ids, window)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (name, window)


def test_hex_blocks_count_zero_next_to_a_missing_cell():
    # an axial raster grid[q, r]; the edge block anchored at (0, 1) holds
    # the edge's two cells (0, 1), (1, 1) and the cells at its two end
    # vertices, (0, 2) and (1, 0)
    edge = ((0, 0), (1, 0), (0, 1), (1, -1))
    triangle = ((0, 0), (0, -1), (1, -1))
    grid = np.array([[-1, 0, 2],
                     [-1, 1, -1]], dtype=np.int32)
    tiles, fragments = _vertex_stats_grid(grid, edge)
    assert tiles.tolist() == [0] and fragments.tolist() == [0]
    # the vertex of (0, 2), (0, 1), (1, 1) is whole; the one below it is not
    assert _vertex_stats_grid(grid, triangle)[0].tolist() == [0, 3]
    grid[1, 0] = 1
    tiles, fragments = _vertex_stats_grid(grid, edge)
    assert tiles.tolist() == [3] and fragments.tolist() == [1]


@pytest.mark.parametrize("name", ["cube", "zorder3d", "coil3d", "lifted-daun"])
@pytest.mark.parametrize("depth", [1, 2])
def test_vertex_blocks_alone_give_the_3d_degree(name, depth):
    # the 1x2x2 edge blocks can never raise a scan raster's maximum
    rs = catalog.builtin(name).ruleset
    ids, _ = scan_raster(rs, depth)
    assert max_interior_degree_fast(rs, depth) == _max_block_degree(ids, _box_blocks(3))


def _combined_stats_grid(ids, block=None):
    """The one-pass reader that built tile and fragment counts together,
    from whole-raster comparisons, one pair of offsets at a time."""
    block = block or tuple(itertools.product((0, 1), repeat=ids.ndim))
    lo, hi = np.min(block, axis=0), np.max(block, axis=0)
    n = tuple(max(s - (h - l), 0) for s, l, h in zip(ids.shape, lo, hi))
    cells = [ids[tuple(slice(o - l, o - l + k) for o, l, k in zip(off, lo, n))]
             for off in block]
    tiles = np.zeros(n, dtype=np.int64)
    fragments = np.zeros(n, dtype=np.int64)
    inside = np.ones(n, dtype=bool)
    for i, c in enumerate(cells):
        inside &= c >= 0
        new = np.ones(n, dtype=bool)      # c differs from every earlier cell
        for d in cells[:i]:
            new &= c != d
        tiles += new
        below = c - 1
        for d in cells:                   # ... and starts a run: no c - 1
            new &= d != below
        fragments += new
    tiles *= inside
    fragments *= inside
    return tiles.reshape(-1), fragments.reshape(-1)


@pytest.mark.parametrize("shape,blocks", [
    ((13, 11), [None] + _box_blocks(2) + list(_contact_blocks("shifted-square"))
     + list(_HEX_EDGE_BLOCKS + _HEX_VERTEX_BLOCKS)),
    ((7, 9, 6), [None] + _box_blocks(3) + list(_contact_blocks("shifted-cube")))])
@pytest.mark.parametrize("seed", [1, 2])
def test_block_readers_match_the_combined_reader(shape, blocks, seed):
    # few labels, so blocks repeat ids and hold runs; about one cell in six -1
    ids = np.random.default_rng(seed).integers(-1, 5, size=shape).astype(np.int32)
    assert (ids == -1).any()
    for block in blocks:
        want_tiles, want_fragments = _combined_stats_grid(ids, block)
        assert (want_tiles == 0).any()
        assert (want_tiles > 1).any() or len(block) == 1
        for got, want in zip((_block_tiles(ids, block),) + _vertex_stats_grid(ids, block),
                             (want_tiles, want_tiles, want_fragments)):
            assert got.dtype == want.dtype and np.array_equal(got, want), block
    assert _max_block_degree(ids, blocks[1:]) == max(
        int(_combined_stats_grid(ids, b)[0].max(initial=0)) for b in blocks[1:])
