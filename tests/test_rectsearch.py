from fractions import Fraction
from math import isqrt

import pytest

from arrwwid.rectsearch import (eligible_ratios, enumerate_packings, Packing,
                                packing_ruleset, assignment_solutions,
                                _PackingClosure, search_min_rect_tiling,
                                _ortho_layouts, _UPRIGHT, _ROTATED)
from arrwwid.rectsearch import _assignment_domains
from arrwwid.expand import expand
from arrwwid.rules import validate_ruleset
from arrwwid.certify import certify_max_degree


def _oracle_ratios(t):
    """Brute-force eligible ratios straight from the filling equations."""
    from math import isqrt
    s = isqrt(t)
    if s * s != t:
        return []
    out = set()
    for n_wh in range(1, s):
        for n_hh in range(1, s):
            alpha = Fraction(s - n_hh, n_wh)
            if alpha <= 1 or alpha.numerator > s or alpha.denominator >= s:
                continue
            p, q = alpha.numerator, alpha.denominator

            def flexible(rhs):
                sols = [(x, (rhs - p * x) // q) for x in range(rhs // p + 1)
                        if (rhs - p * x) % q == 0]
                return any(x >= 1 for x, _ in sols) and any(y >= 1 for _, y in sols)

            if flexible(p * s) and flexible(q * s):
                out.add(alpha)
    return sorted(out)


def test_eligible_ratios_examples():
    assert eligible_ratios(4) == []
    assert eligible_ratios(9) == [Fraction(2)]
    assert Fraction(3, 2) in eligible_ratios(16)
    assert eligible_ratios(5) == []      # not a perfect square


def test_eligible_ratios_against_oracle():
    for t in (4, 9, 16, 25, 36):
        assert eligible_ratios(t) == _oracle_ratios(t), t


def test_packing_counts_against_oracle():
    # 41 domino tilings of the 6x3 grid; 33 brick tilings of 12x8 by 3x2
    pk9 = enumerate_packings(9, Fraction(2))
    assert sum(len(set(p.symmetry_images())) for p in pk9) == 41
    pk16 = enumerate_packings(16, Fraction(3, 2))
    assert sum(len(set(p.symmetry_images())) for p in pk16) == 33


def test_packings_canonical_and_exact():
    pks = enumerate_packings(16, Fraction(3, 2))
    keys = [p.canonical_key() for p in pks]
    assert len(keys) == len(set(keys))
    for p in pks[:3]:
        rs = packing_ruleset(p, ["id" if w == 3 else "r90" for _, _, w, _ in p.pieces])
        assert validate_ruleset(rs).valid


def test_regular_grid_flag():
    pks = enumerate_packings(9, Fraction(2))
    assert any(p.is_regular_grid for p in pks)


def test_cut_lattice_claim():
    # all cut coordinates are integers on the 1/(q*sqrt(t)) lattice by
    # construction; re-verify on emitted packings
    for pk in enumerate_packings(16, Fraction(3, 2)):
        W, H = pk.grid
        for x, y, w, h in pk.pieces:
            assert 0 <= x and x + w <= W and 0 <= y and y + h <= H
            assert isinstance(x, int) and isinstance(y, int)


def test_packing_closure_agrees_with_ruleset_closure():
    # the packing path (lattice layouts per ortho) against the rule-set path
    # (layouts from packing_ruleset) of the same closure engine
    pk = [p for p in enumerate_packings(16, Fraction(3, 2))
          if p.max_vertex_degree() <= 3][0]
    sols = assignment_solutions(pk)
    lattice = _PackingClosure(pk)
    import random
    rng = random.Random(13)
    sample = sols[:24] + rng.sample(sols, 24)
    known_good = ('id', 'r90', 'r270', 'id', 'id', 'id', 'r180', 'r270', 'r90',
                  'id', 'r180', 'r180', 'r180', 'r180', 'r90', 'r270')
    sample.append(known_good)
    for orthos in sample:
        exact = certify_max_degree(packing_ruleset(pk, orthos), 3).certified
        assert lattice.certified(orthos) == exact, orthos


def test_edge_cuts_match_level2_expansion():
    # oracle: the corners of a piece's level-2 tiles on its boundary, the
    # piece's own corners excluded, read off an exact expansion
    packings = [p for p in enumerate_packings(16, Fraction(3, 2))
                if p.max_vertex_degree() <= 3]
    assert len(packings) == 2
    for pk in packings:
        k = isqrt(pk.t)
        layouts = _ortho_layouts(pk)
        p, q = pk.alpha.numerator, pk.alpha.denominator
        for m in range(4):
            orthos = [_UPRIGHT[m] if (w, h) == (p, q) else _ROTATED[m]
                      for _, _, w, h in pk.pieces]
            tiles = expand(packing_ruleset(pk, orthos), 2).tiles
            for i, (x, y, w, h) in enumerate(pk.pieces):
                want = set()
                for t in tiles:
                    if t.address[0] != i:
                        continue
                    for c in t.geometry.corners():
                        cx, cy = (v.as_fraction() for v in c)
                        if (cx in (x, x + w)) != (cy in (y, y + h)):
                            want.add((int(k * cx), int(k * cy)))
                got = _edge_cuts(layouts[orthos[i]], pk.pieces[i])
                assert want and got == want, (m, i)


def test_search_small_sizes_refute_everything():
    report = search_min_rect_tiling(9)
    assert report.accepted == []
    assert report.total_inconclusive == 0
    by_t = {(r["t"], r["alpha"]): r for r in report.per_ratio}
    assert by_t[(9, "2")]["packings"] == 14
    assert by_t[(9, "2")]["certified"] == 0


# -- the packing layouts against the exact corner map ----------------------------

def _exact_ortho_layouts(packing):
    """The slow path: every piece corner mapped by the exact ortho, each box
    moved to the image's min corner."""
    from arrwwid.builders import ORTHO2
    from arrwwid.certify import Layout
    from arrwwid.exact import coord
    W, H = packing.grid
    k = isqrt(packing.t)
    layouts = {}
    for name, o in ORTHO2.items():
        def img(x, y):
            return tuple(int(c.as_fraction()) for c in o.apply((coord(x), coord(y))))

        def box(x0, y0, x1, y1):
            (ax, ay), (bx, by) = img(x0, y0), img(x1, y1)
            return (min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
        minx, miny, maxx, maxy = box(0, 0, W, H)
        boxes = []
        for x, y, w, h in packing.pieces:
            x0, y0, x1, y1 = box(x, y, x + w, y + h)
            boxes.append((x0 - minx, y0 - miny, x1 - minx, y1 - miny))
        layouts[name] = Layout(maxx - minx, maxy - miny, boxes, k)
    return layouts


def _exact_max_vertex_degree(packing):
    """Most pieces whose closed boxes hold one piece corner strictly inside."""
    W, H = packing.grid
    corners = {(vx, vy) for x, y, w, h in packing.pieces
               for vx in (x, x + w) for vy in (y, y + h) if 0 < vx < W and 0 < vy < H}
    return max((sum(1 for x, y, w, h in packing.pieces
                    if x <= vx <= x + w and y <= vy <= y + h) for vx, vy in corners),
               default=0)


@pytest.mark.parametrize("t,alpha", [(9, Fraction(2)), (16, Fraction(3, 2))])
def test_ortho_layouts_match_exact_corner_map(t, alpha):
    for pk in enumerate_packings(t, alpha):
        got, want = _ortho_layouts(pk), _exact_ortho_layouts(pk)
        assert list(got) == list(want)
        for name in want:
            a, b = got[name], want[name]
            assert (a.w, a.h, a.boxes, a.k) == (b.w, b.h, b.boxes, b.k), (pk.pieces, name)
        assert pk.max_vertex_degree() == _exact_max_vertex_degree(pk)


# -- the closure's nogoods against the cut-point geometry ------------------------
#
# The oracle: level-2 cut points on each piece's boundary, as integer points in
# 1/k lattice units, and the unary (T-junction) and binary (shared segment)
# constraints read off them.

def _edge_cuts(lay, piece):
    """Level-2 corners on the boundary of `piece` under the ortho of `lay`,
    the piece's own corners excluded, as integer points in 1/k lattice units."""
    x, y = lay.k * piece[0], lay.k * piece[1]
    pts = set()
    for x0, y0, x1, y1 in lay.boxes:
        for cx, cy in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)):
            if (cx in (0, lay.w)) != (cy in (0, lay.h)):
                pts.add((x + cx, y + cy))
    return pts


def _assignment_candidates(packing, cuts):
    """Per-piece ortho values filtered by the T-junction (unary) constraint."""
    corners = packing.layouts["id"].corners
    p = packing.alpha.numerator
    q = packing.alpha.denominator
    k = isqrt(packing.t)
    cand = []
    for i, piece in enumerate(packing.pieces):
        x, y, w, h = piece
        stems = [(k * vx, k * vy) for (vx, vy), inc in corners
                 if any(j == i for j, _, _ in inc)
                 and not (vx in (x, x + w) and vy in (y, y + h))]
        cand.append([o for o in (_UPRIGHT if (w, h) == (p, q) else _ROTATED)
                     if not any(sv in cuts[i][o] for sv in stems)])
    return cand


def _binary_conflicts(packing, cand, cuts):
    """Forbidden ortho pairs for pieces abutting along a positive segment."""
    conflicts = {}
    pieces = packing.pieces
    k = isqrt(packing.t)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            seg = _shared_segment(pieces[i], pieces[j], k)
            if seg is None:
                continue
            bad = set()
            for oa in cand[i]:
                ca = {pt for pt in cuts[i][oa] if _strictly_inside(pt, seg)}
                if not ca:
                    continue
                for ob in cand[j]:
                    if ca & cuts[j][ob]:
                        bad.add((oa, ob))
            if bad:
                conflicts[(i, j)] = bad
    return conflicts


def _shared_segment(a, b, k):
    """The segment two pieces share, in 1/k lattice units, or None."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    if ax + aw == bx or bx + bw == ax:
        lo, hi = max(ay, by), min(ay + ah, by + bh)
        if hi > lo:
            x = ax + aw if ax + aw == bx else bx + bw
            return ("v", k * x, k * lo, k * hi)
    if ay + ah == by or by + bh == ay:
        lo, hi = max(ax, bx), min(ax + aw, bx + bw)
        if hi > lo:
            y = ay + ah if ay + ah == by else by + bh
            return ("h", k * y, k * lo, k * hi)
    return None


def _strictly_inside(pt, seg):
    kind, line, lo, hi = seg
    if kind == "v":
        return pt[0] == line and lo < pt[1] < hi
    return pt[1] == line and lo < pt[0] < hi


_NON_CROSSING = [(9, Fraction(2)), (16, Fraction(3, 2)), (16, Fraction(2)), (16, Fraction(3))]


@pytest.mark.parametrize("t,alpha", _NON_CROSSING)
def test_assignment_domains_match_cut_point_oracle(t, alpha):
    packings = [p for p in enumerate_packings(t, alpha) if p.max_vertex_degree() <= 3]
    assert packings
    for pk in packings:
        cuts = [{o: _edge_cuts(lay, piece) for o, lay in pk.layouts.items()}
                for piece in pk.pieces]
        want_cand = _assignment_candidates(pk, cuts)
        cand, conflicts = _assignment_domains(pk)
        assert cand == want_cand, pk.pieces
        assert conflicts == _binary_conflicts(pk, want_cand, cuts), pk.pieces


@pytest.mark.parametrize("t,alpha,counts", [
    (9, Fraction(2), [0, 0]),
    (16, Fraction(3, 2), [131072, 0]),
    (16, Fraction(2), [0, 0, 0]),
    (16, Fraction(3), [0] * 8),
])
def test_uncapped_assignment_counts(t, alpha, counts):
    packings = [p for p in enumerate_packings(t, alpha) if p.max_vertex_degree() <= 3]
    assert [len(assignment_solutions(pk, cap=10 ** 6)) for pk in packings] == counts
