"""Exhaustive search for uniform rectangular tilings with vertex degree three.

Size/ratio candidates follow two structural facts: the size t must be a
perfect square, and the aspect ratio alpha must be rational with numerator at
most sqrt(t) and denominator below sqrt(t), with the width/height filling
equations admitting solutions in which each orientation count is positive.
Packings are enumerated by exact backtracking on the cut lattice (all cuts
are multiples of 1/(q*sqrt(t)) of the unit height), in bit masks of the
filled cells.  A packing with a crossing, a point where four pieces meet, has
vertex degree four, so the enumeration cuts the branch that would place a
crossing's fourth piece and lists only the packings without one.  The search
still reports how many packings there are: `count_packings` counts them up to
symmetry by Burnside's lemma, from the number of packings each symmetry of
the rectangle fixes, each counted over the filled cells and memoised.
Per-tile transform assignments are pruned by the nogoods of size one and two
that the closure engine of `certify` finds in its first refinement of the
packing's own vertex and edge configurations.  The survivors go through that
closure, except those a learned nogood covers: the counterexample chain of a
refuted assignment names every (piece, ortho) its closure read, and any
assignment agreeing on those is refuted by the same chain, so it is counted
as refuted without a closure.  The packing's 8 per-ortho layouts are built
once, by the orientation `certify` uses too (`expand.orient_boxes`), and
shared by the pruning and all its assignments.  Every accepted assignment is
certified again from its rule set's own placements, with any counterexample
replayed on an exact expansion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import inf, isqrt

import numpy as np

from .builders import ORTHO2, place_in_cell
from .exact import ZERO, coord
from .expand import orient_boxes
from .shapes import Box
from .rules import Rule, RuleSet, Child
from .certify import Layout, certify_max_degree, closure

_UPRIGHT = ["id", "r180", "mx", "my"]
_ROTATED = ["r90", "r270", "transpose", "antitranspose"]
# the symmetries of a rectangle, which map the packing's grid onto itself
_MIRRORS = ("id", "mx", "my", "r180")
CERTIFY_BUDGET = 200000         # closure steps per re-certified acceptance


def _mirror(grid, box, sym):
    """Piece box (x, y, w, h) of a W x H grid under the symmetry `sym`."""
    x, y, w, h = box
    if sym in ("mx", "r180"):
        x = grid[0] - x - w
    if sym in ("my", "r180"):
        y = grid[1] - y - h
    return (x, y, w, h)


def eligible_ratios(t):
    """Aspect ratios a uniform size-t rectangular tiling of degree 3 may have."""
    if t < 2:
        return []
    s = isqrt(t)
    if s * s != t:
        return []
    ratios = set()
    for n_wh in range(1, s + 1):
        for n_hh in range(1, s):
            alpha = Fraction(s - n_hh, n_wh)
            if alpha > 1:
                ratios.add(alpha)
    keep = []
    for alpha in sorted(ratios):
        p, q = alpha.numerator, alpha.denominator
        if p > s or q >= s:
            continue
        if _each_var_positive(p, q, p * s) and _each_var_positive(p, q, q * s):
            keep.append(alpha)
    return keep


def _each_var_positive(a, b, rhs):
    """a*x + b*y = rhs has nonneg solutions with x >= 1 and (some) with y >= 1."""
    xs = [(x, (rhs - a * x) // b) for x in range(rhs // a + 1)
          if (rhs - a * x) % b == 0]
    return any(x >= 1 for x, _ in xs) and any(y >= 1 for _, y in xs)


class Packing:
    """t axis-aligned rectangles tiling the alpha-rectangle on the cut lattice.

    pieces: tuple of (x, y, w, h) lattice boxes.  W x H is the lattice grid;
    a piece is upright when (w, h) == (p, q).
    """

    def __init__(self, t, alpha, grid, pieces):
        self.t = t
        self.alpha = alpha
        self.grid = grid
        self.pieces = tuple(sorted(pieces))

    def symmetry_images(self):
        for sym in _MIRRORS:
            yield tuple(sorted(_mirror(self.grid, b, sym) for b in self.pieces))

    def canonical_key(self):
        return min(self.symmetry_images())

    @cached_property
    def layouts(self):
        """The packing's closure Layout under each ortho, built on first use."""
        return _ortho_layouts(self)


def _piece_shapes(alpha):
    """The piece shapes (w, h) of ratio alpha on the cut lattice, upright first."""
    p, q = alpha.numerator, alpha.denominator
    return ((p, q), (q, p)) if p != q else ((p, q),)


def _cut_lattice(t, alpha, shapes):
    """The lattice grid (W, H), the cell bits of a box, and per cell bit
    x*H + y the boxes of `shapes` with their lower-left corner in that cell
    that fit in the grid."""
    s = isqrt(t)
    W, H = alpha.numerator * s, alpha.denominator * s

    def bits(x, y, w, h):
        return sum(((1 << h) - 1) << (H * (x + dx) + y) for dx in range(w))

    boxes = [[(x, y, w, h) for w, h in shapes if x + w <= W and y + h <= H]
             for x in range(W) for y in range(H)]
    return (W, H), bits, boxes


def _first_empty(filled):
    """The lowest empty cell bit: the first empty cell in column-major order."""
    return (~filled & (filled + 1)).bit_length() - 1


def enumerate_packings(t, alpha):
    """The packings for (t, alpha) without a crossing, canonical under the
    rectangle symmetries, in canonical-key order.

    A crossing is an interior point where four pieces meet.  Each piece is
    placed with its lower-left corner in the first empty cell in
    column-major order, so a crossing's fourth piece is placed when that
    cell is the first empty one and the other three are in place.  A branch
    ends there: when three placed pieces have a corner at the first empty
    cell's lower-left point.  Crossing packings are counted by
    `count_packings`, never listed.  Deterministic order.
    """
    (W, H), bits, boxes = _cut_lattice(t, alpha, _piece_shapes(alpha))
    P = H + 1       # lattice point (x, y) at x*P + y

    def move(x, y, w, h):
        # the box, its cells, and its upper-left, lower-right and upper-right corners
        return ((x, y, w, h), bits(x, y, w, h),
                (x * P + y + h, (x + w) * P + y, (x + w) * P + y + h))

    moves = [[move(*box) for box in at] for at in boxes]
    full = (1 << W * H) - 1
    corners = [0] * ((W + 1) * P)   # placed pieces with a corner at each point
    pieces = []
    found = {}

    def rec(filled):
        if filled == full:
            pk = Packing(t, alpha, (W, H), pieces)
            found.setdefault(pk.canonical_key(), pk)
            return
        cell = _first_empty(filled)
        x, y = divmod(cell, H)
        if corners[x * P + y] == 3:
            return
        for box, cells, pts in moves[cell]:
            if not filled & cells:
                for pt in pts:
                    corners[pt] += 1
                pieces.append(box)
                rec(filled | cells)
                pieces.pop()
                for pt in pts:
                    corners[pt] -= 1

    rec(0)
    return [found[k] for k in sorted(found)]


def count_packings(t, alpha, shapes):
    """The number of packings for (t, alpha) by pieces of `shapes`, crossing
    or not, up to the rectangle symmetries.

    By Burnside's lemma it is the mean, over `_MIRRORS`, of the number of
    packings each symmetry maps onto themselves.
    """
    return sum(_fixed_packings(t, alpha, shapes, sym) for sym in _MIRRORS) // len(_MIRRORS)


def _fixed_packings(t, alpha, shapes, sym):
    """The number of packings by pieces of `shapes` that `sym` maps onto
    themselves, memoised over the filled cells.

    The piece at the first empty cell is placed together with its image,
    which must be the piece itself or disjoint from it.  The filled cells
    stay symmetric, so the image never meets them.
    """
    grid, bits, boxes = _cut_lattice(t, alpha, shapes)

    def move(box):
        cells, image = bits(*box), bits(*_mirror(grid, box, sym))
        return cells | image if image == cells or not image & cells else 0

    moves = [[m for m in map(move, at) if m] for at in boxes]
    memo = {(1 << grid[0] * grid[1]) - 1: 1}

    def count(filled):
        n = memo.get(filled)
        if n is None:
            n = memo[filled] = sum(count(filled | m) for m in moves[_first_empty(filled)]
                                   if not filled & m)
        return n

    return count(0)


def packing_ruleset(packing, orthos, name="rect"):
    """Rule set for a packing plus per-piece transform assignment."""
    s = isqrt(packing.t)
    W, H = packing.grid
    base = Box((ZERO, ZERO), (coord(W), coord(H)))
    children = []
    for (x, y, w, h), oname in zip(packing.pieces, orthos):
        sim = place_in_cell(base, Fraction(1, s), ORTHO2[oname], (Fraction(x), Fraction(y)))
        children.append(Child(name, sim))
    return RuleSet({name: Rule(name, base, children)}, name, name=name)


# -- transform assignment search ------------------------------------------------
#
# Pieces and layouts live on the integer cut lattice.  Each ortho gives the
# packing one integer Layout (its child boxes in lattice units, min corner 0);
# a piece of the packing is that layout shrunk by k = sqrt(t), so its level-2
# corners are integers in 1/k lattice units.

def _ortho_layouts(packing):
    """The packing's closure Layout under each of the 8 orthos of ORTHO2."""
    k = isqrt(packing.t)
    pieces = np.array(packing.pieces)
    lo, hi = pieces[:, :2], pieces[:, :2] + pieces[:, 2:]
    # the grid scaled by 1/k is (p, q), coprime, so the rows keep lattice units
    _, rows = orient_boxes({None: (np.array(packing.grid) // k, lo, hi)},
                           [(None, o) for o in ORTHO2.values()], k)
    layouts = {}
    for name, o in ORTHO2.items():
        lo, hi, ext = rows[None, o]
        layouts[name] = Layout(*ext.tolist(), map(tuple, np.hstack([lo, hi]).tolist()), k)
    return layouts


def _piece_domains(packing):
    """Per-piece ortho candidates: the nogoods of size 1 that the closure's
    first refinement of the packing's own configurations finds, read off the
    same layouts.  A piece keeps ortho o only when each packing vertex on
    its boundary lies in one of its children, else more than three tiles
    meet there one level down."""
    lays = packing.layouts
    p, q = packing.alpha.numerator, packing.alpha.denominator
    # each packing vertex in the frame of every piece that holds it
    at = [[] for _ in packing.pieces]
    for _, inc in lays["id"].corners:
        for i, dx, dy in inc:
            at[i].append((-dx, -dy))
    return [[o for o in (_UPRIGHT if (w, h) == (p, q) else _ROTATED)
             if all(len(lays[o].around(*v)) == 1 for v in at[i])]
            for i, (_, _, w, h) in enumerate(packing.pieces)]


def _pair_conflicts(packing, cand):
    """Forbidden ortho pairs, the nogoods of size 2, keyed (i, j) with
    i < j: abutting pieces forbid (oi, oj) when a cut of their edge
    configuration has more than three tiles."""
    lays = packing.layouts
    conflicts = {}
    for axis, i, j, delta in lays["id"].pairs:
        bad = {(oa, ob) for oa in cand[i] for ob in cand[j]
               if any(len(inc_a) + len(inc_b) > 3
                      for _, inc_a, inc_b in lays[oa].across(axis, lays[ob], delta)[1])}
        if bad:
            conflicts[min(i, j), max(i, j)] = bad if i < j else {(b, a) for a, b in bad}
    return conflicts


def _assignments(packing, cap, refute=None):
    """The first `cap` transform assignments satisfying every nogood of
    `_piece_domains` and `_pair_conflicts`, in backtracking order, as (orthos, nogood, ran).

    Without `refute`, nogood is None and ran False.  With it, a nogood that
    refute(orthos) returns is learned, indexed by its last piece in the
    search order and that piece's ortho, and checked whenever that piece is
    assigned.  An assignment under a matched prefix comes with the nogood
    and ran False; any other with refute(orthos) and ran True.  The
    assignments a nogood covers still come out one by one, so their order
    and number do not depend on `refute`.
    """
    cand = _piece_domains(packing)
    if cap < 1 or not all(cand):
        return      # before any edge configuration's cuts are built
    conflicts = _pair_conflicts(packing, cand)
    n = len(cand)
    order = sorted(range(n), key=lambda i: len(cand[i]))
    depth = [0] * n
    for k, i in enumerate(order):
        depth[i] = k
    # an assignment's (piece, ortho) pairs, as the bits of one integer
    bit = [{o: 1 << (8 * i + m) for m, o in enumerate(ORTHO2)} for i in range(n)]
    # each forbidden pair, as a bit under the later of its pieces and its ortho
    bans = [dict.fromkeys(c, 0) for c in cand]
    for (i, j), bad in conflicts.items():
        for oi, oj in bad:
            if depth[i] < depth[j]:
                bans[j][oj] |= bit[i][oi]
            else:
                bans[i][oi] |= bit[j][oj]
    learned = {}            # (piece, ortho) -> (bits, nogood) ending there
    chosen = [None] * n
    held = [0] * (n + 1)    # the bits of the pieces before each depth
    values = [iter(cand[order[0]])]
    # the shallowest depth whose prefix a learned nogood covers, n for none
    doom, cover = n, None
    count = 0
    while values:
        k = len(values) - 1
        i = order[k]
        for o in values[k]:
            if not held[k] & bans[i][o]:
                break
        else:
            values.pop()
            continue
        chosen[i] = o
        held[k + 1] = now = held[k] | bit[i][o]
        if doom >= k:
            doom = n
            for bits, ng in learned.get((i, o), ()):
                if now & bits == bits:
                    doom, cover = k, ng
                    break
        if k + 1 < n:
            values.append(iter(cand[order[k + 1]]))
            continue
        orthos = tuple(chosen)
        if doom < n:
            yield orthos, cover, False
        elif refute is None:
            yield orthos, None, False
        else:
            ng = refute(orthos)
            if ng is not None:
                last = max(ng, key=lambda e: depth[e[0]])
                learned.setdefault(last, []).append((sum(bit[j][oj] for j, oj in ng), ng))
                doom, cover = depth[last[0]], ng
            yield orthos, ng, True
        count += 1
        if count == cap:
            return


def assignment_solutions(packing, cap=50000):
    """Transform assignments satisfying every nogood of `_piece_domains` and
    `_pair_conflicts`, up to `cap`."""
    return [orthos for orthos, _, _ in _assignments(packing, cap)]


# -- one packing, many assignments ----------------------------------------------
#
# The packing's 8 ortho layouts are built once and the ortho compose table at
# import; each assignment only adds its type table (the child orthos of every
# ortho reachable from "id").  Accepted candidates are re-certified from the
# child placements of `packing_ruleset`: its boxes come from the placements
# and its type table from composing the placements' orthos, not from the
# pieces and the compose table used here.

def _compose_table():
    by_key = {o.key(): n for n, o in ORTHO2.items()}
    return {(a, b): by_key[ORTHO2[a].compose(ORTHO2[b]).key()]
            for a in ORTHO2 for b in ORTHO2}


_COMP = _compose_table()


class _PackingClosure:
    """certify_max_degree's closure, on one packing's integer cut lattice."""

    def __init__(self, packing):
        self.layouts = packing.layouts

    def refute(self, orthos):
        """None when the closure closes without a vertex of degree > 3, else
        the nogood its counterexample chain read, as sorted (piece, ortho).

        The closure reads an assignment only as kids[t][i], the compose of
        type t and orthos[i].  The nogood holds the pieces whose children
        the chain's steps read, from the initial configuration up to the
        violating vertex's parent, and the pieces on the path from "id" to
        the initial configuration's type.  Every assignment agreeing on
        those reaches that parent, and so a vertex of the same size.
        """
        lays = self.layouts
        reach, path, kids = ["id"], {"id": ()}, {}
        for o in reach:
            kids[o] = ts = tuple(_COMP[o, c] for c in orthos)
            for i, t in enumerate(ts):
                if t not in path:
                    path[t] = path[o] + (i,)
                    reach.append(t)
        status, _, seen, cfg = closure(lays, kids, 3, inf)
        if status == "certified":
            return None
        # a vertex's size is fixed by the configuration it comes from, so
        # the types of the violating vertex's own entries are not read
        read = set()
        parent, a, b = seen[cfg]
        while parent is not None:
            cfg = parent
            parent, a, b = seen[cfg]
            if parent is None:       # initial, in type a: a child pair or a corner
                read.update(b if cfg[0] == "E" else (i for i, _, _ in lays[a].around(*b)))
            elif cfg[0] == "E":      # the child pair (a, b) of an edge
                read.update((a, b))
            elif parent[0] == "E":   # the cut point (a, b) of an edge
                _, axis, ta, tb, delta = parent
                there = (0, b - delta) if axis == 0 else (a - delta, 0)
                read.update(i for i, _, _ in lays[ta].around(a, b))
                read.update(j for j, _, _ in lays[tb].around(*there))
            else:                    # the same vertex one level down
                for t, dx, dy in parent[1]:
                    read.update(i for i, _, _ in lays[t].around(-dx, -dy))
        read.update(path[a])         # a is the initial configuration's type
        return tuple((i, orthos[i]) for i in sorted(read))

    def certified(self, orthos):
        """True when the closure closes without a vertex of degree > 3."""
        return self.refute(orthos) is None


class SearchReport:
    def __init__(self):
        self.per_ratio = []       # dicts with t, alpha, stats
        self.accepted = []        # (t, alpha, packing, orthos, certificate)
        self.budget_exceeded = False
        # per (t, alpha): closures run and nogoods learned, kept out of as_dict
        self.closures = {}
        self.nogoods = {}

    @property
    def total_inconclusive(self):
        return sum(r["inconclusive"] for r in self.per_ratio)

    def as_dict(self):
        return {
            "budget_exceeded": self.budget_exceeded,
            "per_ratio": self.per_ratio,
            "accepted": [
                {"t": t, "alpha": str(alpha), "pieces": list(pk.pieces),
                 "orthos": list(orthos)}
                for t, alpha, pk, orthos, _ in self.accepted
            ],
        }


def search_min_rect_tiling(t_max, assignment_cap=10 ** 6):
    """Search all square sizes t <= t_max for degree-3 rectangular tilings."""
    report = SearchReport()
    for t in range(4, t_max + 1):
        for alpha in eligible_ratios(t):
            packings = enumerate_packings(t, alpha)
            shapes = _piece_shapes(alpha)
            n = count_packings(t, alpha, shapes)
            entry = {"t": t, "alpha": str(alpha), "packings": n,
                     "crossing_packings": n - len(packings), "assignments": 0,
                     "certified": 0, "refuted": n - len(packings), "inconclusive": 0,
                     "regular_grid_packings": sum(count_packings(t, alpha, (shape,))
                                                  for shape in shapes)}
            closures = nogoods = 0
            for pk in packings:
                count = 0
                for orthos, nogood, ran in _assignments(pk, assignment_cap,
                                                        _PackingClosure(pk).refute):
                    count += 1
                    closures += ran
                    if nogood is not None:
                        nogoods += ran
                        entry["refuted"] += 1
                        continue
                    # re-certify every acceptance from its rule set
                    rs = packing_ruleset(pk, orthos)
                    cert = certify_max_degree(rs, 3, budget=CERTIFY_BUDGET)
                    if cert.certified:
                        entry["certified"] += 1
                        report.accepted.append((t, alpha, pk, list(orthos), cert))
                    elif cert.status == "counterexample":
                        raise AssertionError(
                            "packing closure and rule-set certificate disagree on %r"
                            % (orthos,))
                    else:
                        entry["inconclusive"] += 1
                if count >= assignment_cap:
                    entry["assignment_cap_hit"] = True
                    report.budget_exceeded = True
                entry["assignments"] += count
            report.per_ratio.append(entry)
            report.closures[t, alpha] = closures
            report.nogoods[t, alpha] = nogoods
    report.accepted = _dedupe_accepted(report.accepted)
    return report


def _dedupe_accepted(accepted):
    """Drop accepted candidates equal to an earlier one up to symmetry."""
    seen = set()
    out = []
    for t, alpha, pk, orthos, cert in accepted:
        key = _candidate_key(pk, orthos)
        if key not in seen:
            seen.add(key)
            out.append((t, alpha, pk, orthos, cert))
    return out


def _conjugation_table():
    by_key = {o.key(): name for name, o in ORTHO2.items()}
    table = {}
    for sym in _MIRRORS:
        g = ORTHO2[sym]
        table[sym] = {name: by_key[g.compose(o).compose(g.inverse()).key()]
                      for name, o in ORTHO2.items()}
    return table


_CONJ = _conjugation_table()


def _candidate_key(pk, orthos):
    return min(tuple(sorted((_mirror(pk.grid, b, sym), _CONJ[sym][o])
                            for b, o in zip(pk.pieces, orthos)))
               for sym in _MIRRORS)
