import random
from fractions import Fraction
from math import inf, isqrt

import pytest

from arrwwid.rectsearch import (eligible_ratios, enumerate_packings, count_packings, Packing,
                                packing_ruleset, assignment_solutions,
                                _PackingClosure, search_min_rect_tiling,
                                _ortho_layouts, _UPRIGHT, _ROTATED)
from arrwwid.rectsearch import (_assignments, _fixed_packings, _pair_conflicts,
                                _piece_domains, _piece_shapes)
from arrwwid.builders import ORTHO2
from arrwwid.expand import expand, max_interior_degree_fast
from arrwwid.rules import validate_ruleset
from arrwwid.certify import Layout, certify_max_degree, closure


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
    pk9 = _all_packings(9, Fraction(2))
    assert sum(len(set(p.symmetry_images())) for p in pk9) == 41
    pk16 = _all_packings(16, Fraction(3, 2))
    assert sum(len(set(p.symmetry_images())) for p in pk16) == 33
    # the identity fixes every packing: Burnside's first term is the orbit-size sum
    for t, alpha, total in ((9, Fraction(2), 41), (16, Fraction(3, 2), 33)):
        assert _fixed_packings(t, alpha, _piece_shapes(alpha), "id") == total


def test_packings_canonical_and_exact():
    pks = _all_packings(16, Fraction(3, 2))
    keys = [p.canonical_key() for p in pks]
    assert len(keys) == len(set(keys))
    for p in pks[:3]:
        rs = packing_ruleset(p, ["id" if w == 3 else "r90" for _, _, w, _ in p.pieces])
        assert validate_ruleset(rs).valid


def test_regular_grid_flag():
    pks = _all_packings(9, Fraction(2))
    assert any(_is_regular_grid(p) for p in pks)


def test_cut_lattice_claim():
    # all cut coordinates are integers on the 1/(q*sqrt(t)) lattice by
    # construction; re-verify on emitted packings
    for pk in _all_packings(16, Fraction(3, 2)):
        W, H = pk.grid
        for x, y, w, h in pk.pieces:
            assert 0 <= x and x + w <= W and 0 <= y and y + h <= H
            assert isinstance(x, int) and isinstance(y, int)


def test_packing_closure_agrees_with_ruleset_closure():
    # the packing path (lattice layouts per ortho) against the rule-set path
    # (layouts from packing_ruleset) of the same closure engine
    pk = enumerate_packings(16, Fraction(3, 2))[0]
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
    packings = enumerate_packings(16, Fraction(3, 2))
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
    for pk in _all_packings(t, alpha):
        got, want = _ortho_layouts(pk), _exact_ortho_layouts(pk)
        assert list(got) == list(want)
        for name in want:
            a, b = got[name], want[name]
            assert (a.w, a.h, a.boxes, a.k) == (b.w, b.h, b.boxes, b.k), (pk.pieces, name)
        assert _max_vertex_degree(pk) == _exact_max_vertex_degree(pk)


# -- every packing, crossing or not: the oracle of the pruned enumeration ---------

def _all_packings(t, alpha, budget=10 ** 6):
    """All packings for (t, alpha), canonical under the rectangle symmetries,
    crossing ones included: the enumeration without the crossing cut."""
    s = isqrt(t)
    p, q = alpha.numerator, alpha.denominator
    W, H = p * s, q * s
    grid = [[False] * H for _ in range(W)]
    pieces = []
    found = {}
    nodes = [0]

    def first_empty():
        for x in range(W):
            col = grid[x]
            for y in range(H):
                if not col[y]:
                    return x, y
        return None

    def place(x, y, w, h, val):
        for dx in range(w):
            col = grid[x + dx]
            for dy in range(h):
                col[y + dy] = val

    def fits(x, y, w, h):
        if x + w > W or y + h > H:
            return False
        for dx in range(w):
            col = grid[x + dx]
            for dy in range(h):
                if col[y + dy]:
                    return False
        return True

    def rec():
        nodes[0] += 1
        if nodes[0] > budget:
            raise RuntimeError("packing enumeration exceeded budget of %d nodes" % budget)
        spot = first_empty()
        if spot is None:
            pk = Packing(t, alpha, (W, H), pieces)
            found.setdefault(pk.canonical_key(), pk)
            return
        x, y = spot
        for w, h in ((p, q), (q, p)) if p != q else ((p, q),):
            if fits(x, y, w, h):
                pieces.append((x, y, w, h))
                place(x, y, w, h, True)
                rec()
                place(x, y, w, h, False)
                pieces.pop()

    rec()
    return [found[k] for k in sorted(found)]


def _is_regular_grid(packing):
    """True when every piece has the same shape."""
    return len({(w, h) for _, _, w, h in packing.pieces}) == 1


def _max_vertex_degree(packing):
    """Most pieces whose closed boxes hold one interior lattice vertex, read
    off the identity-ortho layout."""
    lay = Layout(*packing.grid, [(x, y, x + w, y + h) for x, y, w, h in packing.pieces], 1)
    return max((len(inc) for _, inc in lay.corners), default=0)


@pytest.mark.parametrize("t,alpha", [
    pytest.param(t, alpha, marks=[pytest.mark.slow] if (t, alpha) == (25, 2) else [])
    for t in (9, 16, 25) for alpha in eligible_ratios(t)])
def test_enumeration_is_the_oracle_without_crossings(t, alpha):
    every = _all_packings(t, alpha)
    flat = [pk for pk in every if _exact_max_vertex_degree(pk) <= 3]
    assert [pk.pieces for pk in enumerate_packings(t, alpha)] == [pk.pieces for pk in flat]
    shapes = _piece_shapes(alpha)
    assert count_packings(t, alpha, shapes) == len(every)
    assert (sum(count_packings(t, alpha, (shape,)) for shape in shapes)
            == sum(_is_regular_grid(pk) for pk in every))


def test_search_rows_at_25():
    rep = search_min_rect_tiling(25)
    rows = [r for r in rep.per_ratio if r["t"] == 25]
    zero = {"assignments": 0, "certified": 0, "inconclusive": 0, "regular_grid_packings": 1}
    assert rows == [dict(t=25, alpha=alpha, packings=n, crossing_packings=c, refuted=c, **zero)
                    for alpha, n, c in (("4/3", 12, 12), ("3/2", 78, 78), ("2", 46878, 46877),
                                        ("3", 996, 995), ("4", 478, 441))]
    assert [t for t, *_ in rep.accepted] == [16, 16]
    assert rep.total_inconclusive == 0


# (packings, crossing packings, regular-grid packings, non-crossing packings),
# beyond the oracle's reach
_COUNTS_36_49 = {
    36: {"5/4": (17, 17, 1, 0), "4/3": (78, 77, 1, 1), "3/2": (3124, 3123, 2, 1),
         "5/3": (37, 37, 1, 0), "2": (26782279, 26782277, 2, 2), "5/2": (184, 182, 1, 2),
         "3": (400688, 400688, 2, 0), "4": (9262, 9261, 1, 1), "5": (3955, 3732, 1, 223)},
    49: {"6/5": (21, 21, 1, 0), "5/4": (71, 71, 1, 0), "4/3": (531, 531, 1, 0),
         "3/2": (143842, 143841, 1, 1), "5/3": (292, 290, 1, 2),
         "2": (22531428713, 22531428712, 1, 1), "5/2": (1991, 1991, 1, 0),
         "3": (82291974, 82291900, 1, 74), "4": (185823, 185822, 1, 1),
         "5": (99380, 99379, 1, 1), "6": (37732, 36171, 1, 1561)},
}


@pytest.mark.parametrize("t", [36, pytest.param(49, marks=pytest.mark.slow)])
def test_packing_counts_past_the_oracle(t):
    got = {}
    for alpha in eligible_ratios(t):
        shapes = _piece_shapes(alpha)
        n, flat = count_packings(t, alpha, shapes), len(enumerate_packings(t, alpha))
        got[str(alpha)] = (n, n - flat, sum(count_packings(t, alpha, (s,)) for s in shapes), flat)
    assert got == _COUNTS_36_49[t]


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
    packings = enumerate_packings(t, alpha)
    assert packings
    for pk in packings:
        cuts = [{o: _edge_cuts(lay, piece) for o, lay in pk.layouts.items()}
                for piece in pk.pieces]
        want_cand = _assignment_candidates(pk, cuts)
        cand = _piece_domains(pk)
        conflicts = _pair_conflicts(pk, cand)
        assert cand == want_cand, pk.pieces
        assert conflicts == _binary_conflicts(pk, want_cand, cuts), pk.pieces


@pytest.mark.parametrize("t,alpha,counts", [
    (9, Fraction(2), [0, 0]),
    (16, Fraction(3, 2), [131072, 0]),
    (16, Fraction(2), [0, 0, 0]),
    (16, Fraction(3), [0] * 8),
])
def test_uncapped_assignment_counts(t, alpha, counts):
    packings = enumerate_packings(t, alpha)
    assert [len(assignment_solutions(pk, cap=10 ** 6)) for pk in packings] == counts


# -- nogoods learned from refutations ----------------------------------------------

# the one (16, 3/2) packing with assignments, and the 4 of its 131,072
# assignments that the full closure certifies, in backtracking order (found
# by `_PackingClosure.certified` on every one of them)
_PIECES_16 = ((0, 0, 3, 2), (0, 2, 2, 3), (0, 5, 2, 3), (2, 2, 3, 2), (2, 4, 3, 2),
              (2, 6, 3, 2), (3, 0, 3, 2), (5, 2, 2, 3), (5, 5, 2, 3), (6, 0, 3, 2),
              (7, 2, 3, 2), (7, 4, 3, 2), (7, 6, 3, 2), (9, 0, 3, 2), (10, 2, 2, 3),
              (10, 5, 2, 3))
_CERTIFIED_16 = [
    ("id", "r90", "r270", "id", "id", "id", "r180", "r270", "r90", "id",
     "r180", "r180", "r180", "r180", "r90", "r270"),
    ("r180", "r270", "r90", "r180", "r180", "r180", "id", "r90", "r270", "r180",
     "id", "id", "id", "id", "r270", "r90"),
    ("mx", "antitranspose", "transpose", "mx", "mx", "mx", "my", "transpose",
     "antitranspose", "mx", "my", "my", "my", "my", "antitranspose", "transpose"),
    ("my", "transpose", "antitranspose", "my", "my", "my", "mx", "antitranspose",
     "transpose", "my", "mx", "mx", "mx", "mx", "transpose", "antitranspose"),
]


def _non_crossing_packings():
    return [pk for t, alpha in _NON_CROSSING for pk in enumerate_packings(t, alpha)]


def _closure_status(pk, known):
    """certify.closure run in full on the pieces of `known` (piece -> ortho),
    its type table composed from the exact orthos rather than read off the
    search's table.  Every other piece gets a type "?" with no extent and no
    children, whose configurations refine to nothing; so each configuration
    reached is part of one in the closure of every completion, and a
    counterexample here refutes all of them."""
    by_key = {o.key(): n for n, o in ORTHO2.items()}
    layouts = dict(pk.layouts, **{"?": Layout(0, 0, [], isqrt(pk.t))})
    reach, kids = ["id"], {"?": ()}
    for o in reach:
        kids[o] = ts = tuple(by_key[ORTHO2[o].compose(ORTHO2[known[i]]).key()]
                             if i in known else "?" for i in range(len(pk.pieces)))
        reach += [t for t in dict.fromkeys(ts) if t != "?" and t not in reach]
    return closure(layouts, kids, 3, inf)[0]


def _full_status(pk, orthos):
    return _closure_status(pk, dict(enumerate(orthos)))


@pytest.fixture(scope="module")
def nogood_runs():
    """The uncapped nogood search on every non-crossing packing with t <= 16:
    per packing the certified assignments and the nogoods learned, and a
    seeded sample of 200 assignments that a nogood covered."""
    rng = random.Random(1994)
    runs, pruned, covered = [], [], 0
    for pk in _non_crossing_packings():
        run = {"packing": pk, "certified": [], "nogoods": []}
        for orthos, nogood, ran in _assignments(pk, 10 ** 6, _PackingClosure(pk).refute):
            if nogood is None:
                run["certified"].append(orthos)
            elif ran:
                run["nogoods"].append(nogood)
            else:
                covered += 1        # reservoir sample
                if len(pruned) < 200:
                    pruned.append((pk, orthos))
                elif (m := rng.randrange(covered)) < 200:
                    pruned[m] = (pk, orthos)
        runs.append(run)
    return runs, pruned


@pytest.fixture(scope="module")
def uncapped_search():
    return search_min_rect_tiling(16)


def test_nogood_search_certifies_the_pinned_assignments(nogood_runs):
    runs, _ = nogood_runs
    assert len(runs) == 15
    assert [r["packing"].pieces for r in runs].count(_PIECES_16) == 1
    for run in runs:
        want = _CERTIFIED_16 if run["packing"].pieces == _PIECES_16 else []
        assert run["certified"] == want, run["packing"].pieces


def test_nogood_pruned_assignments_are_refuted_in_full(nogood_runs):
    _, pruned = nogood_runs
    assert len(pruned) == 200
    for pk, orthos in pruned:
        assert _full_status(pk, orthos) == "counterexample", orthos


def test_learned_nogoods_refute_every_completion(nogood_runs):
    runs, _ = nogood_runs
    learned = [(r["packing"], ng) for r in runs for ng in r["nogoods"]]
    assert len(learned) >= 20
    for pk, ng in learned:
        assert _closure_status(pk, dict(ng)) == "counterexample", ng
    rng = random.Random(94)
    for pk, ng in rng.sample(learned, 20):
        for orthos in _completions(pk, ng, rng):
            assert _full_status(pk, orthos) == "counterexample", ng


def _completions(pk, nogood, rng):
    """The nogood completed at random over all 8 orthos, and with "id"."""
    for fill in ([rng.choice(list(ORTHO2)) for _ in pk.pieces], ["id"] * len(pk.pieces)):
        for i, o in nogood:
            fill[i] = o
        yield tuple(fill)


def test_nogoods_of_any_assignment_refute_every_completion():
    # assignments over all 8 orthos, outside the candidate domains, also
    # meet vertex roots and vertex steps in their counterexample chains
    rng = random.Random(8)
    refuted = 0
    for pk in _non_crossing_packings():
        lattice = _PackingClosure(pk)
        for _ in range(40):
            orthos = tuple(rng.choice(list(ORTHO2)) for _ in pk.pieces)
            nogood = lattice.refute(orthos)
            assert (nogood is None) == (_full_status(pk, orthos) == "certified")
            if nogood is not None:
                refuted += 1
                assert all(orthos[i] == o for i, o in nogood)
                assert _closure_status(pk, dict(nogood)) == "counterexample", nogood
                for fill in _completions(pk, nogood, rng):
                    assert _full_status(pk, fill) == "counterexample", nogood
    assert refuted > 400


@pytest.mark.parametrize("orthos", [
    ("transpose", "antitranspose", "r270", "my", "transpose", "antitranspose", "mx",
     "transpose", "antitranspose", "id", "transpose", "transpose", "transpose", "mx",
     "mx", "antitranspose"),
    ("transpose", "antitranspose", "r180", "r90", "r270", "r90", "r270", "mx", "mx",
     "r180", "r180", "antitranspose", "r270", "my", "mx", "transpose"),
])
def test_nogood_of_a_cut_point_then_vertex_chain(orthos):
    # (16, 3) assignments whose counterexample chains go from an edge's cut
    # point to the same vertex one level down: the first needs the pieces on
    # the cut's upper side, the second those on its lower side
    pk = [p for p in enumerate_packings(16, Fraction(3)) if p.pieces == (
        (0, 0, 3, 1), (0, 1, 1, 3), (1, 1, 3, 1), (1, 2, 3, 1), (1, 3, 3, 1), (3, 0, 3, 1),
        (4, 1, 1, 3), (5, 1, 1, 3), (6, 0, 1, 3), (6, 3, 3, 1), (7, 0, 3, 1), (7, 1, 3, 1),
        (7, 2, 3, 1), (9, 3, 3, 1), (10, 0, 1, 3), (11, 0, 1, 3))][0]
    nogood = _PackingClosure(pk).refute(orthos)
    assert _closure_status(pk, dict(nogood)) == "counterexample", nogood


def test_nogood_search_keeps_the_backtracking_order():
    pk = [p for p in enumerate_packings(16, Fraction(3, 2)) if p.pieces == _PIECES_16][0]
    for cap in (1, 1000):
        got = [orthos for orthos, _, _ in _assignments(pk, cap, _PackingClosure(pk).refute)]
        assert got == assignment_solutions(pk, cap=cap)
        assert len(got) == cap


def test_no_closure_runs_on_a_covered_assignment():
    pk = [p for p in enumerate_packings(16, Fraction(3, 2)) if p.pieces == _PIECES_16][0]
    learned = []
    for orthos, nogood, ran in _assignments(pk, 3000, _PackingClosure(pk).refute):
        covering = [ng for ng in learned if all(orthos[i] == o for i, o in ng)]
        assert ran != bool(covering), orthos
        if ran and nogood is not None:
            learned.append(nogood)
        assert not covering or nogood in covering
    assert 10 < len(learned) < 100


def test_packings_without_candidates_build_no_cuts():
    # a piece that keeps no ortho ends the search before any edge cut is built
    empty = [pk for pk in _non_crossing_packings() if not all(_piece_domains(pk))]
    assert empty
    for pk in empty:
        assert assignment_solutions(pk) == []
        assert all(not lay._across for lay in pk.layouts.values()), pk.pieces


def test_uncapped_search_counts_and_closures(uncapped_search):
    rep = uncapped_search
    entry = [r for r in rep.per_ratio if (r["t"], r["alpha"]) == (16, "3/2")][0]
    assert (entry["assignments"], entry["certified"], entry["inconclusive"]) == (131072, 4, 0)
    assert sum(rep.closures.values()) <= 1200
    # every closure either certifies or teaches one nogood
    assert rep.closures[16, Fraction(3, 2)] == rep.nogoods[16, Fraction(3, 2)] + 4
    assert set(rep.closures) == {(r["t"], Fraction(r["alpha"])) for r in rep.per_ratio}
    assert "closures" not in str(rep.as_dict())


def test_capped_search_runs_few_closures():
    rep = search_min_rect_tiling(16, assignment_cap=1000)
    assert rep.budget_exceeded
    assert 0 < sum(rep.closures.values()) <= 100


def test_accepted_candidates_have_raster_degree_three(uncapped_search):
    assert uncapped_search.accepted
    for _, _, pk, orthos, _ in uncapped_search.accepted:
        rs = packing_ruleset(pk, orthos)
        for d in (1, 2, 3, 4):
            assert max_interior_degree_fast(rs, d) <= 3, (orthos, d)
