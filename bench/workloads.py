"""The benchmark's three workloads.

Each workload makes plain inputs from the seed (`make_inputs`, untimed),
turns them into the program's own objects in a timed set-up (`setup`), and
hands back a fixed list of operations.  One round runs every operation once,
in list order; every operation's output is checked by `checks`, apart from
the program.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from arrwwid import catalog
from arrwwid.certify import certify_max_degree
from arrwwid.cover import QueryRange, SamplePlan, cover_fragments, estimate_arrwwid
from arrwwid.curves import classify_connections, tile_interval, vertex_audit
from arrwwid.expand import expand, max_interior_degree_fast, vertex_degrees
from arrwwid.locality import comparison_table, point_indices
from arrwwid.recursify import get_spec, lattice_degree, recursify
from arrwwid.rectsearch import packing_ruleset, search_min_rect_tiling
from arrwwid.rules import (Child, Rule, RuleSet, parse_ruleset, serialize_ruleset,
                           validate_ruleset)
from arrwwid.transforms import Ortho, Similarity

import checks
from checks import POINT_BITS, Geometry


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run        # () -> output
        self.check = check    # output -> None, raises checks.CheckError


class State:
    """What one set-up builds: the operations plus operands for the traced
    run's micro-timings."""

    def __init__(self, ops, rulesets, queries=(), built=None):
        self.ops = ops
        self.rulesets = rulesets
        self.queries = queries
        self.built = built    # what check_setup inspects

    def operands(self):
        """Coords and child placements of the workload's queries and rule sets."""
        coords = [c for q in self.queries for c in q.center]
        sims = []
        for rs in self.rulesets:
            for rule in rs.rules.values():
                coords.extend(rule.base.lo + rule.base.hi)
                for ch in rule.children:
                    coords.append(ch.placement.scale)
                    coords.extend(ch.placement.trans)
                    sims.append(ch.placement)
        return coords, sims


def read_ruleset(name, text=None):
    """Read (unless given), parse and validate one rule set."""
    if text is None:
        with open(os.path.join(catalog.data_dir(), name + ".rules"), encoding="utf-8") as f:
            text = f.read()
    rs = parse_ruleset(text, name=name)
    report = validate_ruleset(rs)
    if not report.valid:
        raise checks.CheckError("rule set %s does not validate: %r" % (name, report.issues))
    return rs


def warm_ball(geo, kappa):
    """(center, radius) of a ball at the unit's center, at canonical level 1."""
    lo, hi = geo.unit_box
    lam = 1 / next(iter({f[0] for kids in geo.children.values() for _, f, _ in kids}))
    side = min(h - l for l, h in zip(lo, hi)) / lam
    return tuple((l + h) / 2 for l, h in zip(lo, hi)), side / kappa * Fraction(3, 4)


def warm_up(rs, ball, kappa):
    """One exact ball cover: fills the per-rule-set caches."""
    cover_fragments(rs, QueryRange("ball", ball[0], ball[1]), kappa=kappa)


def dyadic_points(rng, n, dim):
    """n uniform points of the unit cube on the 2**-POINT_BITS grid:
    integer coordinates and the same points as exact floats."""
    ipts = rng.integers(0, 1 << POINT_BITS, size=(n, dim))
    return ipts, ipts / float(1 << POINT_BITS)


def _fraction(rng, denominator):
    return Fraction(int(rng.integers(0, denominator)), denominator)


# -- range-queries ------------------------------------------------------------

def answer(order, q, merge_budget):
    """Answer one range query the way `locality.simulate` does: cover
    fragments, one position range per fragment, points counted in it."""
    rs, n_leaves, stored = order["rs"], order["leaves"], order["sorted"]
    rep = cover_fragments(rs, q, kappa=order["kappa"], merge_budget=merge_budget)
    ranges = []
    scanned = 0
    for run in rep.fragments:
        lo = int(tile_interval(rs, run[0]).lo * n_leaves)
        hi = int(math.ceil(tile_interval(rs, run[-1]).hi * n_leaves))
        a = int(np.searchsorted(stored, lo, side="left"))
        b = int(np.searchsorted(stored, hi - 1, side="right"))
        ranges.append((lo, hi))
        scanned += b - a
    return rep, ranges, scanned


class Workload:
    name = None

    def make_inputs(self, seed):
        """Plain seeded inputs; not timed."""
        raise NotImplementedError

    def setup(self, inputs):
        """The timed set-up: program objects and the list of operations."""
        raise NotImplementedError

    def check_setup(self, inputs, state):
        """Check what the set-up built (raises checks.CheckError)."""


class RangeQueries(Workload):
    """Seeded exact queries against curve-ordered point storage."""

    name = "range-queries"
    # (order, depth of the point index); queries use levels 1..depth
    ORDERS = (("hilbert", 5), ("peano", 3), ("kochel", 3), ("dekking", 2), ("zorder3d", 3))
    POINTS = 16384
    # per order and level: plain balls, balls with a merge budget, boxes
    MIX = (("ball", False, 40), ("ball", True, 12), ("box", False, 12))

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        orders = []
        stream = []
        for k, (name, depth) in enumerate(self.ORDERS):
            entry = catalog.builtin(name)
            geo = Geometry(entry.ruleset)
            n, dim, kappa = geo.grid_side(), entry.dim, entry.window_kappa
            ipts, pts = dyadic_points(rng, self.POINTS, dim)
            orders.append({"name": name, "depth": depth, "n": n,
                           "grids": [None] + [checks.scan_grid(geo, level)
                                              for level in range(1, depth + 1)],
                           "leaves": n ** (dim * depth), "kappa": kappa,
                           "max_fragments": entry.expected_arrwwid,
                           "warm": warm_ball(geo, kappa), "ipts": ipts, "pts": pts})
            # worst unmerged cover area over the ball measure at this window
            worst = 2 ** dim * float(kappa * n) ** dim / checks.ball_measure(dim, 1.0)
            for level in range(1, depth + 1):
                side = Fraction(1, n ** level)
                r_lo, r_hi = side / (kappa * n), side / kappa
                for kind, merged, count in self.MIX:
                    for _ in range(count):
                        r = r_lo + (r_hi - r_lo) * _fraction(rng, 1000)
                        if kind == "ball":
                            size, half = r, (r,) * dim
                        else:
                            half = [r] + [r * Fraction(int(rng.integers(500, 1001)), 1000)
                                          for _ in range(dim - 1)]
                            half = size = tuple(half[i] for i in rng.permutation(dim))
                        center = tuple(h + (1 - 2 * h) * _fraction(rng, 10 ** 6) for h in half)
                        budget = worst * float(rng.choice([0.5, 1.0, 2.0])) if merged else None
                        stream.append((k, (kind, center, size, budget)))
        order = rng.permutation(len(stream))
        return {"orders": orders, "stream": [stream[i] for i in order]}

    def setup(self, inputs):
        orders = []
        for o in inputs["orders"]:
            rs = read_ruleset(o["name"])
            positions = point_indices(rs, o["pts"], o["depth"])
            warm_up(rs, o["warm"], o["kappa"])
            orders.append({"rs": rs, "kappa": o["kappa"], "leaves": o["leaves"],
                           "positions": positions, "sorted": np.sort(positions)})
        ops = []
        queries = []
        for k, spec in inputs["stream"]:
            kind, center, size, budget = spec
            if kind == "ball":
                q = QueryRange("ball", center, radius=size)
            else:
                q = QueryRange("box", center, half_extents=size)
            queries.append(q)
            o, st = inputs["orders"][k], orders[k]
            ops.append(Op(
                o["name"],
                lambda st=st, q=q, budget=budget: answer(st, q, budget),
                lambda out, spec=spec, o=o, st=st: checks.check_range_query(
                    spec, o["n"], o["kappa"], o["max_fragments"], o["grids"], out[0],
                    out[1], out[2], o["ipts"], st["positions"])))
        return State(ops, [st["rs"] for st in orders], queries, built=orders)

    def check_setup(self, inputs, state):
        for o, st in zip(inputs["orders"], state.built):
            checks.check_point_index(o["grids"][-1], o["ipts"], st["positions"])


# -- lattice-analyses ---------------------------------------------------------

class LatticeAnalyses(Workload):
    """The bulk analyses of the README and the acceptance suite."""

    name = "lattice-analyses"
    # (order, raster depths, the paper's worst fragment count)
    ESTIMATES = (("hilbert", (4, 5), 4), ("zorder", (4, 5), 4), ("peano", (3,), 4),
                 ("kochel", (3,), 3), ("dekking", (2,), 3))
    RANDOM_BALLS = 8
    # (tiling, raster depth, exact depth, the paper's vertex degree)
    DEGREES = (("daun", 3, 2, 3), ("lifted-daun", 2, 1, 6))
    CONNECTIONS = (("hilbert", 3), ("peano", 3), ("kochel", 3), ("zorder", 3),
                   ("coil", 3), ("ar2w2", 3), ("dekking", 2))
    AUDITS = (("zorder3d", 2), ("coil3d", 2))
    TABLE = ("coil", "hilbert", "zorder", "dekking")
    TABLE_POINTS = 16384
    TABLE_QUERIES = 16
    TABLE_KAPPA = Fraction(2)      # the window `locality.simulate` covers with
    RATIOS = (1.0, 10.0, 100.0, 1000.0, 10000.0)

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        names = sorted({n for n, *_ in self.ESTIMATES + self.DEGREES + self.CONNECTIONS
                        + self.AUDITS} | set(self.TABLE))
        entries = {n: catalog.builtin(n) for n in names}
        geos = {n: Geometry(e.ruleset) for n, e in entries.items()}
        ipts, pts = dyadic_points(rng, self.TABLE_POINTS, 2)
        queries = []
        for _ in range(self.TABLE_QUERIES):
            r = Fraction(1, 50) + Fraction(3, 50) * _fraction(rng, 1000)
            queries.append((tuple(r + (1 - 2 * r) * _fraction(rng, 10 ** 6) for _ in range(2)), r))
        inside = sum(len(checks.points_inside("ball", c, r, ipts)) for c, r in queries)
        table = {}
        for name in self.TABLE:
            table[name] = (checks.table_depth(geos[name]),) + checks.table_expectation(
                geos[name], ipts, queries, self.TABLE_KAPPA)
        return {"entries": entries, "geos": geos, "table": table,
                "warm": {n: warm_ball(g, entries[n].window_kappa) for n, g in geos.items()},
                "leaves": {(n, d): checks.leaf_count(entries[n].ruleset, d)
                           for n, d in self.CONNECTIONS},
                "plan_seeds": [int(v) for v in rng.integers(0, 2 ** 31, len(self.ESTIMATES))],
                "pts": pts, "queries": queries, "inside": inside}

    def setup(self, inputs):
        entries = inputs["entries"]
        rsets = {}
        for name in sorted(entries):
            rsets[name] = read_ruleset(name)
            warm_up(rsets[name], inputs["warm"][name], entries[name].window_kappa)
        queries = [QueryRange("ball", c, r) for c, r in inputs["queries"]]
        ops = []
        for (name, depths, want), seed in zip(self.ESTIMATES, inputs["plan_seeds"]):
            rs, kappa = rsets[name], entries[name].window_kappa
            plan = SamplePlan(depths=depths, n_random=self.RANDOM_BALLS, seed=seed)

            def recheck(w, rs=rs, kappa=kappa):
                rep = cover_fragments(rs, QueryRange("ball", w.center, w.radius), kappa=kappa)
                return rep.tile_count, rep.fragment_count

            ops.append(Op("estimate_arrwwid:" + name,
                          lambda rs=rs, plan=plan, kappa=kappa:
                          estimate_arrwwid(rs, plan, kappa=kappa),
                          lambda est, want=want, recheck=recheck:
                          checks.check_estimate(est, want, recheck)))
        for name, fast_depth, exact_depth, want in self.DEGREES:
            rs = rsets[name]
            ops.append(Op("max_interior_degree_fast:" + name,
                          lambda rs=rs, d=fast_depth: max_interior_degree_fast(rs, d),
                          lambda deg, want=want: checks.require(
                              deg == want, "raster degree %d, paper value %d" % (deg, want))))
            ops.append(Op("vertex_degrees:" + name,
                          lambda rs=rs, d=exact_depth: vertex_degrees(expand(rs, d)),
                          lambda dm, want=want: checks.require(
                              dm.max_interior == want,
                              "exact degree %d, paper value %d" % (dm.max_interior, want))))
        for name, depth in self.CONNECTIONS:
            rs, e = rsets[name], entries[name]
            ops.append(Op("classify_connections:" + name,
                          lambda rs=rs, d=depth: classify_connections(rs, d),
                          lambda st, t=inputs["leaves"][name, depth], e=e:
                          checks.check_connections(st, t, e.has_jumps, e.has_diagonal)))
        for name, depth in self.AUDITS:
            rs, n = rsets[name], inputs["geos"][name].grid_side()
            ops.append(Op("vertex_audit:" + name,
                          lambda rs=rs, d=depth: vertex_audit(rs, d),
                          lambda audits, n=n, d=depth: checks.check_audits(audits, n, d)))
        table = {name: rsets[name] for name in self.TABLE}
        pts, ratios = inputs["pts"], list(self.RATIOS)
        ops.append(Op("comparison_table",
                      lambda: comparison_table(table, pts, queries, ratios),
                      lambda rows: checks.check_table(rows, inputs["table"], len(queries),
                                                      inputs["inside"])))
        return State(ops, list(rsets.values()), queries)


# -- degree-proofs ------------------------------------------------------------

# the eight symmetries of the square, as (rotation in steps of 30 degrees, reflect)
SQUARE_SYMMETRIES = tuple((rot, reflect) for rot in (0, 3, 6, 9) for reflect in (False, True))


def conjugate(rs, rot, reflect):
    """The same tiling seen through a symmetry g of the plane, as rule text:
    every base becomes g(base) and every placement g P g^-1, with g chosen
    so that the unit's image keeps its lower corner at the origin."""
    g = Similarity(1, Ortho(2, rot, reflect), (0, 0))
    g = Similarity(1, g.ortho, tuple(-v for v in rs.unit_rule.base.transform(g).lo))
    g_inv = g.inverse()
    rules = {name: Rule(name, rule.base.transform(g),
                        [Child(ch.rule, g.compose(ch.placement).compose(g_inv), ch.reversed)
                         for ch in rule.children])
             for name, rule in rs.rules.items()}
    return serialize_ruleset(RuleSet(rules, rs.unit, name=rs.name))


class DegreeProofs(Workload):
    """Vertex-degree proofs: closure certificates, the rectangle search and
    recursified lattices."""

    name = "degree-proofs"
    BOUND = 3
    RECT_T = 16
    RECT_CAP = 1000
    # (construction, level, the paper's limit degree)
    LATTICES = (("hex-9", 3, 3), ("gosper-7", 3, 3), ("rhombus-4", 3, 4),
                ("shifted-square", 2, 3))

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        tilings = []
        for name in catalog.names():
            entry = catalog.builtin(name)
            if entry.dim == 2 and entry.ruleset.is_rectilinear():
                rot, reflect = SQUARE_SYMMETRIES[int(rng.integers(len(SQUARE_SYMMETRIES)))]
                text = conjugate(entry.ruleset, rot, reflect)
                tilings.append((name, text, Geometry(parse_ruleset(text)),
                                entry.expected_degree <= self.BOUND))
        return {"tilings": tilings,
                "daun_key": checks.layout_key(Geometry(catalog.builtin("daun").ruleset))}

    def setup(self, inputs):
        ops = []
        rsets = []
        for name, text, geo, certified in inputs["tilings"]:
            rs = read_ruleset(name, text)
            rsets.append(rs)
            ops.append(Op("certify_max_degree:" + name,
                          lambda rs=rs: certify_max_degree(rs, self.BOUND),
                          lambda cert, geo=geo, ok=certified:
                          checks.check_certificate(cert, geo, ok, self.BOUND)))
        ops.append(Op("search_min_rect_tiling",
                      lambda: search_min_rect_tiling(self.RECT_T, assignment_cap=self.RECT_CAP),
                      lambda rep: checks.check_rect_search(
                          [Geometry(packing_ruleset(pk, orthos))
                           for _, _, pk, orthos, _ in rep.accepted],
                          inputs["daun_key"], self.BOUND)))
        for name, level, want in self.LATTICES:
            spec = get_spec(name)
            recursify(spec, 1)    # warm-up: fills the recursification caches
            ops.append(Op("lattice_degree:" + name,
                          lambda spec=spec, level=level: lattice_degree(recursify(spec, level)),
                          lambda deg, want=want: checks.require(
                              deg == want, "lattice degree %d, paper value %d" % (deg, want))))
        return State(ops, rsets)


WORKLOADS = {w.name: w for w in (RangeQueries(), LatticeAnalyses(), DegreeProofs())}
