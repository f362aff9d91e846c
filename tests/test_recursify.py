import functools
import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from arrwwid.cli import main
from arrwwid.expand import BudgetError, _max_block_degree
from arrwwid.recursify import (get_spec, recursify, lattice_degree, hex_vertex_degree,
                               coarse_degree, connected, displacement_bound,
                               exact_compare, owner, LatticeError, LabelledLattice,
                               LatticeSpec, default_window, label_grid, _contact_blocks,
                               _hex_window0, _origin, _prototile, shifted_cube_box,
                               shifted_square_box)

RECURSIFY = importlib.import_module("arrwwid.recursify")   # the package re-exports recursify()


def test_counts_per_label():
    for name, per_label in (("hex-9", 9), ("gosper-7", 7), ("rhombus-4", 4),
                            ("shifted-square", 25)):
        ll = recursify(get_spec(name), 1)
        assert set(ll.label_counts().values()) == {per_label}, name


def test_shifted_cube_125():
    ll = recursify(get_spec("shifted-cube"), 1)
    assert set(ll.label_counts().values()) == {125}


def test_count_power_law():
    for name, f in (("hex-9", 9), ("gosper-7", 7), ("rhombus-4", 4)):
        ll = recursify(get_spec(name), 2)
        assert set(ll.label_counts().values()) == {f * f}, name


def test_labels_congruent():
    # all label cell sets are translates of one another on the lattice
    for name, m in (("hex-9", 3), ("gosper-7", None), ("rhombus-4", 2)):
        spec = get_spec(name)
        ll = recursify(spec, 2)
        shapes = set()
        for lab in ll.core_labels:
            cells = ll.cells_of(lab)
            q0 = min(c[0] for c in cells)
            r0 = min(c[1] for c in cells)
            shapes.add(frozenset((c[0] - q0, c[1] - r0) for c in cells))
        assert len(shapes) == 1, name


def test_degrees_match_claims():
    for name, levels, want in (("hex-9", (1, 2, 3, 4), 3),
                               ("gosper-7", (1, 2, 3, 4), 3)):
        spec = get_spec(name)
        for lvl in levels:
            assert lattice_degree(recursify(spec, lvl)) == want, (name, lvl)


def test_rhombus_degenerates_to_four():
    spec = get_spec("rhombus-4")
    degrees = [lattice_degree(recursify(spec, lvl)) for lvl in (1, 2, 3)]
    assert max(degrees) == 4
    assert any(d == 4 for d in degrees[:3])


def test_hex_vertex_degree_is_three():
    # the raw per-vertex audit is 3 on hexagonal lattices
    ll = recursify(get_spec("hex-9"), 2)
    assert hex_vertex_degree(ll) == 3


def test_disconnection_diagnostic():
    spec = get_spec("disconnected-4")
    found = False
    for lvl in (1, 2, 3):
        ll = recursify(spec, lvl)
        if any(not connected(ll.cells_of(lab), "hex") for lab in ll.core_labels):
            found = True
            break
    assert found


def test_connected_labels_for_good_specs():
    for name in ("hex-9", "gosper-7"):
        ll = recursify(get_spec(name), 2)
        assert all(connected(ll.cells_of(lab), "hex") for lab in ll.core_labels)


def test_gosper_coset_partition():
    # the seven offsets decompose every cell uniquely
    spec = get_spec("gosper-7")
    seen = {}
    for q in range(-8, 9):
        for r in range(-8, 9):
            seen.setdefault(owner(spec, (q, r)), []).append((q, r))
    assert all(len(v) <= 7 for v in seen.values())
    full = [k for k, v in seen.items() if len(v) == 7]
    assert full


def test_shifted_cube_owner_is_largest_overlap():
    # cross-check the closed-form owner against explicit volume comparison
    spec = get_spec("shifted-cube")
    for cell in ((0, 0, 0), (3, 1, 2), (7, -2, 4), (-3, 5, -1), (4, 4, 9)):
        fine = shifted_cube_box(cell, Fraction(1, 5))
        best, best_vol = None, Fraction(-1)
        ci, cj, ck = owner(spec, cell)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for dk in (-1, 0, 1):
                    cand = (ci + di, cj + dj, ck + dk)
                    coarse = shifted_cube_box(cand, Fraction(1))
                    vol = Fraction(1)
                    for ax in range(3):
                        lo = max(fine[ax], coarse[ax])
                        hi = min(fine[3 + ax], coarse[3 + ax])
                        if hi <= lo:
                            vol = Fraction(0)
                            break
                        vol *= hi - lo
                    if vol > best_vol:
                        best, best_vol = cand, vol
        assert best == (ci, cj, ck), cell


def test_coarse_and_recursified_degrees_shifted():
    sq = get_spec("shifted-square")
    assert coarse_degree(sq) == 3
    assert lattice_degree(recursify(sq, 1)) == 3
    sc = get_spec("shifted-cube")
    assert coarse_degree(sc) == 4
    assert lattice_degree(recursify(sc, 1)) == 4


def test_displacement_gosper():
    db = displacement_bound(get_spec("gosper-7"))
    import math
    assert db.d1 == pytest.approx(math.sqrt(3) / 14)
    assert db.factor == pytest.approx(1 / math.sqrt(7))
    assert db.d_inf < 0.199 - 1e-6
    assert db.safe_radius > 0.301 + 1e-6


def test_displacement_shifted_cube_exact():
    db = displacement_bound(get_spec("shifted-cube"))
    # d_inf = sqrt(2)/12 exactly; safe radius exceeds 1/21 exactly
    assert exact_compare(db, "d_inf", Fraction(0)) > 0
    import math
    assert db.d_inf == pytest.approx(math.sqrt(2) / 12)
    assert exact_compare(db, "safe_radius", Fraction(1, 21)) > 0


def test_displacement_requires_contraction():
    from arrwwid.recursify import DisplacementBound
    with pytest.raises(LatticeError):
        DisplacementBound("degenerate", 0.1, 1.0, 0.5)
    with pytest.raises(LatticeError):
        displacement_bound(get_spec("hex-9"))


# -- slow reference: the exact owner on a hand-sized window per coarse cell -------

def _preimage(spec, coarse_cells):
    """All fine cells owned by the given coarse cells (exact, windowed scan)."""
    out = {}
    for c in coarse_cells:
        for cell in _candidate_fine_cells(spec, c):
            if owner(spec, cell) == c:
                out[cell] = c
    return out


def _candidate_fine_cells(spec, c):
    if spec.kind == "hex":
        if spec.ratio == "gosper":
            base = (2 * c[0] - c[1], c[0] + 3 * c[1])
            span = 3
        else:
            m = spec.ratio
            base = (m * c[0], m * c[1])
            span = 2 * m
        for q in range(base[0] - span, base[0] + span + 1):
            for r in range(base[1] - span, base[1] + span + 1):
                yield (q, r)
    elif spec.kind == "shifted-square":
        for i in range(5 * c[0] - 2, 5 * c[0] + 7):
            for j in range(5 * c[1] - 4, 5 * c[1] + 9):
                yield (i, j)
    else:
        for i in range(5 * c[0] - 4, 5 * c[0] + 9):
            for j in range(5 * c[1] - 6, 5 * c[1] + 11):
                for k in range(5 * c[2] - 2, 5 * c[2] + 7):
                    yield (i, j, k)


def _slow_recursify(spec, levels):
    window = default_window(spec)
    frontier = {c: c for c in window}
    for _ in range(levels):
        frontier = {cell: frontier[top]
                    for cell, top in _preimage(spec, list(frontier)).items()}
    return LabelledLattice(spec, levels, frontier, set(window))


@pytest.mark.parametrize("name,levels", [("hex-9", 3), ("gosper-7", 3), ("rhombus-4", 3),
                                         ("disconnected-4", 3), ("shifted-square", 2),
                                         ("shifted-cube", 1)])
def test_recursify_matches_window_search(name, levels):
    spec = get_spec(name)
    for level in range(1, levels + 1):
        ll, want = recursify(spec, level), _slow_recursify(spec, level)
        assert list(ll.cells.items()) == list(want.cells.items()), (name, level)
        assert ll.core_labels == want.core_labels
        assert ll.level == want.level == level


@pytest.mark.parametrize("name,size", [("hex-9", 9), ("gosper-7", 7), ("rhombus-4", 4),
                                       ("disconnected-4", 4), ("shifted-square", 25),
                                       ("shifted-cube", 125)])
def test_owner_commutes_with_substitution(name, size):
    # owner(M·c + p) == c for every prototile cell p, negative c included
    spec = get_spec(name)
    proto = _prototile(spec)
    assert len(proto) == size
    assert list(proto) == sorted(proto)
    rng = random.Random(20)
    dim = len(proto[0])
    coarse = [(0,) * dim, (-1,) * dim, (-7,) * dim]
    coarse += [tuple(rng.randint(-60, 60) for _ in range(dim)) for _ in range(30)]
    for c in coarse:
        base = _origin(spec, c)
        for p in proto:
            assert owner(spec, tuple(b + v for b, v in zip(base, p))) == c, (c, p)


def test_prototile_outside_the_window_is_refused():
    # residue (1, 1) owned from three coarse cells away: coarse cell 0's
    # fourth cell (7, 1) lies outside the prototile window
    far = LatticeSpec("far-4", "hex", 2, "table",
                      tiebreak={(0, 0): (0, 0), (1, 0): (0, 0),
                                (0, 1): (0, 0), (1, 1): (3, 0)})
    assert owner(far, (7, 1)) == (0, 0)
    with pytest.raises(LatticeError, match="3 cells"):
        recursify(far, 1)


# -- slow reference: the degree scans, one cell or one point at a time -----------

def _slow_hex_groups(ll, groups_of):
    """Most distinct labels over the cell groups around each cell, counting
    only groups whose cells are all present."""
    cells = ll.cells
    best = 0
    for (q, r) in cells:
        for group in groups_of(q, r):
            if all(cell in cells for cell in group):
                best = max(best, len({cells[cell] for cell in group}))
    return best


def _slow_hex_edge_degree(ll):
    return _slow_hex_groups(ll, lambda q, r: (
        ((q, r), (q + 1, r), (q, r + 1), (q + 1, r - 1)),
        ((q, r), (q, r + 1), (q - 1, r + 1), (q + 1, r)),
        ((q, r), (q - 1, r + 1), (q, r + 1), (q - 1, r))))


def _slow_hex_vertex_degree(ll):
    return _slow_hex_groups(ll, lambda q, r: (
        ((q, r), (q, r + 1), (q - 1, r + 1)),
        ((q, r), (q, r - 1), (q + 1, r - 1))))


def _slow_box_degree(ll):
    """Max distinct labels at any interior box corner or, in 3D, box edge
    midpoint, with the boxes as exact integers on the 6 * 5**level grid; a
    point is interior when the probes one unit off it into every orthant
    lie in some closed box."""
    dim = 2 if ll.spec.kind == "shifted-square" else 3
    box = shifted_square_box if dim == 2 else shifted_cube_box
    mul = 6 * 5 ** ll.level
    boxes = []
    for cell, lab in ll.cells.items():
        b = [v * mul for v in box(cell, Fraction(1, 5 ** ll.level))]
        assert all(v.denominator == 1 for v in b)
        boxes.append((tuple(int(v) for v in b), lab))
    buckets = {}
    for idx, (ib, _) in enumerate(boxes):
        for key in itertools.product(*(range(ib[ax] // 6, ib[dim + ax] // 6 + 1)
                                       for ax in range(dim))):
            buckets.setdefault(key, []).append(idx)

    def incident(p):
        found = set()
        for off in itertools.product((-1, 0), repeat=dim):
            key = tuple(v // 6 + o for v, o in zip(p, off))
            for idx in buckets.get(key, ()):
                ib = boxes[idx][0]
                if all(ib[ax] <= p[ax] <= ib[dim + ax] for ax in range(dim)):
                    found.add(idx)
        return found

    pts = set()
    for ib, _ in boxes:
        pts.update(itertools.product(*((ib[ax], ib[dim + ax]) for ax in range(dim))))
        if dim == 3:
            for ax in range(3):
                mid = (ib[ax] + ib[3 + ax]) // 2
                for p in itertools.product(*((ib[a], ib[3 + a]) for a in range(3))):
                    pts.add(p[:ax] + (mid,) + p[ax + 1:])
    best = 0
    for p in pts:
        found = incident(p)
        labs = {boxes[idx][1] for idx in found}
        if len(labs) <= best or len(found) < 3:
            continue
        if all(incident(tuple(v + d for v, d in zip(p, delta)))
               for delta in itertools.product((-1, 1), repeat=dim)):
            best = len(labs)
    return best


@functools.lru_cache(maxsize=None)
def _lattice(name, level):
    spec = get_spec(name)
    if level == 0:
        cells = default_window(spec)
        return LabelledLattice(spec, 0, {c: c for c in cells}, set(cells))
    return recursify(spec, level)


@pytest.mark.parametrize("name", ["hex-9", "gosper-7", "rhombus-4", "disconnected-4"])
def test_hex_degrees_match_slow_scan(name):
    for level in (1, 2, 3):
        ll = _lattice(name, level)
        assert lattice_degree(ll) == _slow_hex_edge_degree(ll), (name, level)
        assert hex_vertex_degree(ll) == _slow_hex_vertex_degree(ll), (name, level)
    ll0 = LabelledLattice(get_spec(name), 0, {c: c for c in _hex_window0()}, set())
    assert coarse_degree(get_spec(name)) == _slow_hex_vertex_degree(ll0)


@pytest.mark.parametrize("name,levels", [("shifted-square", (1, 2)),
                                         ("shifted-cube", (1,))])
def test_box_degrees_match_slow_scan(name, levels):
    assert coarse_degree(get_spec(name)) == _slow_box_degree(_lattice(name, 0))
    for level in levels:
        ll = _lattice(name, level)
        assert lattice_degree(ll) == _slow_box_degree(ll), (name, level)


# -- reference: the third-pitch raster, each shifted cell a 3^d block ------------

# 3 times the lower corner of `shifted_square_box` / `shifted_cube_box`, an
# integer linear map of the cell: (3i, 3j + i) and (3i + k, 3j + i - k, 3k)
_THIRDS = {"shifted-square": np.array([[3, 1], [0, 3]]),
           "shifted-cube": np.array([[3, 1, 0], [0, 3, 0], [1, -1, 3]])}


def _third_pitch_grid(ll):
    """The labels painted into an int32 raster of a third of the cell side,
    where every box has integer corners: each cell a 3x3 (3x3x3) block, -1
    for "no cell", labels numbered densely as `label_grid` numbers them."""
    dense = {}
    labels = np.array([dense.setdefault(lab, len(dense)) for lab in ll.cells.values()],
                      dtype=np.int32)
    lo = np.array(list(ll.cells), dtype=np.int64) @ _THIRDS[ll.spec.kind]
    lo -= lo.min(axis=0)
    grid = np.full(tuple(lo.max(axis=0) + 3), -1, dtype=np.int32)
    for off in itertools.product(range(3), repeat=lo.shape[1]):
        grid[tuple((lo + off).T)] = labels
    return grid


def _box_blocks(dim):
    """The blocks where boxes on a raster meet: the 2^d cells around a
    lattice vertex and, in 3D, the 1x2x2 cells around a lattice edge
    midpoint, where boxes can meet without sharing a lattice vertex."""
    windows = [(2,) * dim]
    if dim == 3:
        windows += [tuple(1 if a == axis else 2 for a in range(3)) for axis in range(3)]
    return [tuple(itertools.product(*map(range, w))) for w in windows]


def _third_pitch_degree(ll):
    grid = _third_pitch_grid(ll)
    return _max_block_degree(grid, _box_blocks(grid.ndim))


@pytest.mark.parametrize("name,levels", [("shifted-square", (0, 1, 2, 3)),
                                         ("shifted-cube", (0, 1))])
def test_contact_blocks_match_third_pitch_raster(name, levels):
    for level in levels:
        ll = _lattice(name, level)
        assert lattice_degree(ll) == _third_pitch_degree(ll), (name, level)


@pytest.mark.parametrize("name", ["shifted-square", "shifted-cube"])
def test_contact_blocks_match_third_pitch_raster_on_random_windows(name):
    # boxes of cells anywhere on the lattice, with holes and few labels, so
    # that blocks holding a missing cell decide many maxima; the corner cell
    # is kept, so a degree is at least 1
    spec = get_spec(name)
    dim = 3 if name == "shifted-cube" else 2
    rng = random.Random(23)
    degrees = Counter()
    for _ in range(600):
        lo = [rng.randint(-9, 9) for _ in range(dim)]
        sides = [rng.randint(1, 5) for _ in range(dim)]
        holes, n_labels = rng.choice((0, 0.1, 0.3, 0.6)), rng.randint(1, 5)
        cells = {cell: rng.randrange(n_labels)
                 for cell in itertools.product(*(range(a, a + n) for a, n in zip(lo, sides)))
                 if cell == tuple(lo) or rng.random() >= holes}
        ll = LabelledLattice(spec, 1, cells, set())
        degree = lattice_degree(ll)
        assert degree == _third_pitch_degree(ll), (name, cells)
        degrees[degree] += 1
    assert set(degrees) == set(range(1, dim + 2)), degrees


@pytest.mark.parametrize("name,box,count", [("shifted-square", shifted_square_box, 5),
                                            ("shifted-cube", shifted_cube_box, 25)])
def test_contact_blocks_are_the_exact_box_contacts(name, box, count):
    # every third-pitch point of cell 0's closed box (and, in 3D, every
    # midpoint between two of them along an axis), in exact fractions: the
    # cells whose closed box holds it, moved so that the least is cell 0,
    # are one of the blocks, and every block is met
    blocks = _contact_blocks(name)
    assert len(blocks) == len(set(blocks)) == count
    dim = len(blocks[0][0])
    assert all(list(block) == sorted(block) and block[0] == (0,) * dim for block in blocks)
    boxes = {cell: box(cell) for cell in itertools.product(range(-2, 3), repeat=dim)}
    points = set(itertools.product([Fraction(v, 3) for v in range(4)], repeat=dim))
    if dim == 3:
        points |= {p[:ax] + (p[ax] + Fraction(1, 6),) + p[ax + 1:]
                   for p in points for ax in range(3) if p[ax] < 1}
    met = set()
    for p in points:
        cells = sorted(cell for cell, b in boxes.items()
                       if all(b[a] <= p[a] <= b[dim + a] for a in range(dim)))
        assert (0,) * dim in cells and len(cells) <= dim + 1, p
        met.add(tuple(tuple(u - v for u, v in zip(cell, cells[0])) for cell in cells))
    assert met == set(blocks)


def test_recursify_refuses_past_the_tile_budget(monkeypatch, capsys):
    # shifted-square level 1 has 9 * 25 = 225 cells
    spec = get_spec("shifted-square")
    monkeypatch.setattr(RECURSIFY, "DEFAULT_TILE_BUDGET", 225)
    assert len(recursify(spec, 1).cells) == 225
    monkeypatch.setattr(RECURSIFY, "DEFAULT_TILE_BUDGET", 224)

    def no_substitution(*args):
        raise AssertionError("a substitution step ran before the budget check")

    monkeypatch.setattr(RECURSIFY, "_origin", no_substitution)
    with pytest.raises(BudgetError, match="225 cells"):
        recursify(spec, 1)
    for argv in (["recursify", "--spec", "shifted-square", "--levels", "1"],
                 ["render", "--spec", "shifted-square", "--levels", "1"]):
        assert main(argv) == 2, argv
        assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("name,box", [("shifted-square", shifted_square_box),
                                      ("shifted-cube", shifted_cube_box)])
def test_label_grid_corners_are_the_boxes(name, box):
    # the reference raster's corner map is 3 times each cell's exact box corner
    for level in (0, 1):
        cells = list(_lattice(name, level).cells)
        got = np.array(cells) @ _THIRDS[name]
        want = [[3 * v for v in box(cell)[:len(cell)]] for cell in cells]
        assert got.tolist() == want, (name, level)


def test_label_grid_paints_every_cell_once():
    # dense ids follow first appearance; each cell's id sits at the cell's
    # index less the least index per axis, and nothing else is painted
    for name, level in (("hex-9", 2), ("shifted-square", 1), ("shifted-cube", 1)):
        ll = _lattice(name, level)
        grid = label_grid(ll)
        assert grid.dtype == np.int32
        dense = {}
        least = np.array(list(ll.cells)).min(axis=0)
        for cell, lab in ll.cells.items():
            assert grid[tuple(np.array(cell) - least)] == dense.setdefault(lab, len(dense))
        assert np.count_nonzero(grid >= 0) == len(ll.cells)
