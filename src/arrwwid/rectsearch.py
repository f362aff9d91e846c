"""Exhaustive search for uniform rectangular tilings with vertex degree three.

Size/ratio candidates follow two structural facts: the size t must be a
perfect square, and the aspect ratio alpha must be rational with numerator at
most sqrt(t) and denominator below sqrt(t), with the width/height filling
equations admitting solutions in which each orientation count is positive.
Packings are enumerated by exact backtracking on the cut lattice (all cuts
are multiples of 1/(q*sqrt(t)) of the unit height); per-tile transform
assignments are searched with local corner-compatibility pruning, read off
integer layouts of the packing, and each survivor goes through the closure
engine of `certify`.  The packing's 8 per-ortho layouts are built once, by the
orientation `certify` uses too (`expand.orient_boxes`), and shared by all its
assignments.  Every accepted assignment is certified again from its rule
set's own placements, with any counterexample replayed on an exact expansion.
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

    @property
    def is_regular_grid(self):
        ws = {(w, h) for _, _, w, h in self.pieces}
        return len(ws) == 1

    def symmetry_images(self):
        W, H = self.grid
        def mx(b):
            x, y, w, h = b
            return (W - x - w, y, w, h)
        def my(b):
            x, y, w, h = b
            return (x, H - y - h, w, h)
        yield self.pieces
        yield tuple(sorted(mx(b) for b in self.pieces))
        yield tuple(sorted(my(b) for b in self.pieces))
        yield tuple(sorted(mx(my(b)) for b in self.pieces))

    def canonical_key(self):
        return min(self.symmetry_images())

    def max_vertex_degree(self):
        """Most pieces whose closed boxes hold one interior lattice vertex, read
        off the identity-ortho layout."""
        lay = Layout(*self.grid, [(x, y, x + w, y + h) for x, y, w, h in self.pieces], 1)
        return max((len(inc) for _, inc in lay.corners), default=0)

    @cached_property
    def layouts(self):
        """The packing's closure Layout under each ortho, built on first use."""
        return _ortho_layouts(self)


def enumerate_packings(t, alpha, budget=10 ** 6):
    """All packings for (t, alpha), canonical under the rectangle symmetries.

    Deterministic order; raises BudgetError-style RuntimeError past budget.
    """
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


def assignment_solutions(packing, cap=50000):
    """Transform assignments surviving the local pruning, up to `cap`."""
    cuts = [{o: _edge_cuts(lay, piece) for o, lay in packing.layouts.items()}
            for piece in packing.pieces]
    cand = _assignment_candidates(packing, cuts)
    if any(not c for c in cand):
        return []
    conflicts = _binary_conflicts(packing, cand, cuts)
    n = len(cand)
    order = sorted(range(n), key=lambda i: len(cand[i]))
    sols = []
    chosen = [None] * n

    def rec(k):
        if len(sols) >= cap:
            return
        if k == n:
            sols.append(tuple(chosen))
            return
        i = order[k]
        for val in cand[i]:
            ok = True
            for (a, b), bad in conflicts.items():
                if a == i and chosen[b] is not None and (val, chosen[b]) in bad:
                    ok = False
                    break
                if b == i and chosen[a] is not None and (chosen[a], val) in bad:
                    ok = False
                    break
            if ok:
                chosen[i] = val
                rec(k + 1)
                chosen[i] = None

    rec(0)
    return sols


# -- one packing, many assignments ----------------------------------------------
#
# The packing's 8 ortho layouts and the ortho compose table are built once;
# each assignment only adds its type table (the child orthos of every ortho
# reachable from "id").  Accepted candidates are re-certified from the child
# placements of `packing_ruleset`: its boxes come from the placements and its
# type table from composing the placements' orthos, not from the pieces and
# the compose table used here.

class _PackingClosure:
    """certify_max_degree's closure, on one packing's integer cut lattice."""

    def __init__(self, packing):
        self.layouts = packing.layouts
        by_key = {o.key(): n for n, o in ORTHO2.items()}
        self.comp = {(a, b): by_key[ORTHO2[a].compose(ORTHO2[b]).key()]
                     for a in ORTHO2 for b in ORTHO2}

    def certified(self, orthos):
        """True when the closure closes without a vertex of degree > 3."""
        comp = self.comp
        reach = ["id"]
        kids = {}
        for o in reach:
            kids[o] = ts = tuple(comp[o, c] for c in orthos)
            for t in ts:
                if t not in reach:
                    reach.append(t)
        return closure(self.layouts, kids, 3, inf)[0] == "certified"


class SearchReport:
    def __init__(self):
        self.per_ratio = []       # dicts with t, alpha, stats
        self.accepted = []        # (t, alpha, packing, orthos, certificate)
        self.budget_exceeded = False

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


def search_min_rect_tiling(t_max, packing_budget=10 ** 6, certify_budget=200000,
                           assignment_cap=10 ** 6):
    """Search all square sizes t <= t_max for degree-3 rectangular tilings."""
    report = SearchReport()
    for t in range(4, t_max + 1):
        for alpha in eligible_ratios(t):
            entry = {"t": t, "alpha": str(alpha), "packings": 0,
                     "crossing_packings": 0, "assignments": 0,
                     "certified": 0, "refuted": 0, "inconclusive": 0,
                     "regular_grid_packings": 0}
            packings = enumerate_packings(t, alpha, budget=packing_budget)
            entry["packings"] = len(packings)
            for pk in packings:
                if pk.is_regular_grid:
                    entry["regular_grid_packings"] += 1
                if pk.max_vertex_degree() > 3:
                    entry["crossing_packings"] += 1
                    entry["refuted"] += 1
                    continue
                sols = assignment_solutions(pk, cap=assignment_cap)
                if len(sols) >= assignment_cap:
                    entry["assignment_cap_hit"] = True
                    report.budget_exceeded = True
                entry["assignments"] += len(sols)
                lattice = _PackingClosure(pk) if sols else None
                for orthos in sols:
                    if not lattice.certified(orthos):
                        entry["refuted"] += 1
                        continue
                    # re-certify every acceptance from its rule set
                    rs = packing_ruleset(pk, orthos)
                    cert = certify_max_degree(rs, 3, budget=certify_budget)
                    if cert.certified:
                        entry["certified"] += 1
                        report.accepted.append((t, alpha, pk, list(orthos), cert))
                    elif cert.status == "counterexample":
                        raise AssertionError(
                            "packing closure and rule-set certificate disagree on %r"
                            % (orthos,))
                    else:
                        entry["inconclusive"] += 1
            report.per_ratio.append(entry)
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
    for sym in ("mx", "my", "r180"):
        g = ORTHO2[sym]
        table[sym] = {name: by_key[g.compose(o).compose(g.inverse()).key()]
                      for name, o in ORTHO2.items()}
    return table


_CONJ = _conjugation_table()


def _candidate_key(pk, orthos):
    W, H = pk.grid
    variants = []
    labelled = list(zip(pk.pieces, orthos))

    def img(sym):
        out = []
        for (x, y, w, h), o in labelled:
            if sym in ("mx", "r180"):
                x = W - x - w
            if sym in ("my", "r180"):
                y = H - y - h
            o2 = o if sym == "id" else _CONJ[sym][o]
            out.append(((x, y, w, h), o2))
        return tuple(sorted(out))

    for sym in ("id", "mx", "my", "r180"):
        variants.append(img(sym))
    return min(variants)
