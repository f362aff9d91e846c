"""Command-line front end.

Exit status: 0 on success, 1 when an analysis finds a refutation (a failed
validation, a refuted certificate), 2 on usage or input errors.  Output is
machine-readable JSON unless a subcommand emits CSV or SVG.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog
from .exact import parse_coord
from .rules import serialize_ruleset, validate_ruleset, RuleError
from .expand import expand, vertex_degrees, BudgetError
from .certify import certify_max_degree
from .curves import entry_exit, classify_connections, vertex_audit
from .cover import QueryRange, cover_fragments, estimate_arrwwid, SamplePlan
from .recursify import (get_spec, recursify, lattice_degree, connected,
                        displacement_bound, LatticeError)
from .rectsearch import search_min_rect_tiling, packing_ruleset
from .locality import uniform_points, ball_queries, comparison_table
from .render import render_svg, RenderStyle

SIG_DIGITS = 12


def _num(x):
    if isinstance(x, float):
        return float("%.*g" % (SIG_DIGITS, x))
    return x


def _emit(args, payload):
    """Write JSON, or a CSV or SVG text as it is, to --out or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2,
                                                                default=_json_default)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "as_dict"):
        return obj.as_dict()
    if hasattr(obj, "__float__"):
        return _num(float(obj))
    return repr(obj)


def _load(args, attr="tiling"):
    name = getattr(args, attr, None) or getattr(args, "order", None)
    if name is None:
        raise RuleError("missing --tiling/--order")
    return catalog.load(name)


def _kappa_for(args):
    name = getattr(args, "tiling", None) or getattr(args, "order", None)
    try:
        return catalog.builtin(name).window_kappa
    except Exception:
        return Fraction(2)


def _query_from(args, rs):
    center = tuple(parse_coord(v) for v in args.center.split(","))
    if args.box:
        return QueryRange("box", center, half_extents=(parse_coord(args.radius),) * rs.dim)
    return QueryRange("ball", center, radius=parse_coord(args.radius))


def _depths(spec):
    if ".." in spec:
        a, b = spec.split("..")
        return tuple(range(int(a), int(b) + 1))
    return tuple(int(v) for v in spec.split(","))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="arrwwid",
                                     description="recursive tilings, scanning "
                                                 "orders and their fragmentation")
    sub = parser.add_subparsers(dest="command")

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", default=None)
        return p

    p = add("catalog", help="list built-in rule sets")

    p = add("validate", help="structural and geometric rule set checks")
    p.add_argument("--tiling", required=True)

    p = add("expand", help="expand a rule set and report bulk statistics")
    p.add_argument("--tiling", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--budget", type=int, default=10 ** 7)

    p = add("degrees", help="vertex degrees of an expansion")
    p.add_argument("--tiling", required=True)
    p.add_argument("--depth", type=int, default=2)

    p = add("certify", help="prove or refute a vertex degree bound")
    p.add_argument("--tiling", required=True)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--budget", type=int, default=200000)

    p = add("cover", help="cover one query range")
    p.add_argument("--order", required=True)
    p.add_argument("--center", required=True, help="comma-separated exact coords")
    p.add_argument("--radius", required=True)
    p.add_argument("--box", action="store_true", help="axis box instead of ball")
    p.add_argument("--merge-budget", type=float, default=None)

    p = add("arrwwid", help="estimate worst-case tiles/fragments")
    p.add_argument("--order", required=True)
    p.add_argument("--depths", default="2..3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tiles-only", action="store_true")

    p = add("entryexit", help="exact gates of a rule")
    p.add_argument("--order", required=True)
    p.add_argument("--rule", default=None)

    p = add("connections", help="classify order-consecutive tile connections")
    p.add_argument("--order", required=True)
    p.add_argument("--depth", type=int, default=3)

    p = add("audit", help="per-vertex curve audit (tiles, ends, bridges)")
    p.add_argument("--order", required=True)
    p.add_argument("--depth", type=int, default=2)

    p = add("recursify", help="recursified lattice constructions")
    p.add_argument("--spec", required=True)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--dump", action="store_true", help="CSV cell dump")

    p = add("search-rect", help="search uniform rectangular tilings of degree 3")
    p.add_argument("--t-max", type=int, default=16)
    p.add_argument("--emit-accepted", default=None,
                   help="directory for accepted rule files")

    p = add("simulate", help="seek/scan cost simulation")
    p.add_argument("--order", action="append", required=True)
    p.add_argument("--points", type=int, default=10 ** 4)
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--depth", type=int, default=None,
                   help="expansion depth for every order (default: per-order automatic)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", default="1,10,100,1000,10000")
    p.add_argument("--format", default="json", choices=["json", "csv"])

    p = add("render", help="SVG rendering")
    p.add_argument("--tiling", default=None)
    p.add_argument("--order", default=None)
    p.add_argument("--spec", default=None, help="lattice spec instead of a rule set")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--sketch", action="store_true")
    p.add_argument("--size", type=int, default=640)
    p.add_argument("--format", default="svg", choices=["svg"])

    p = add("predict", help="closed-form worst-case cover sizes per family")
    p.add_argument("--family", required=True)
    p.add_argument("--dim", type=int, required=True)

    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    try:
        return _dispatch(args)
    except (RuleError, LatticeError, BudgetError, KeyError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def _dispatch(args):
    cmd = args.command
    if cmd == "catalog":
        rows = []
        for name in catalog.names():
            e = catalog.builtin(name)
            rows.append({"name": name, "kind": e.kind, "dim": e.dim,
                         "size": e.ruleset.size,
                         "expected_degree": e.expected_degree,
                         "expected_arrwwid": e.expected_arrwwid})
        _emit(args, rows)
        return 0

    if cmd == "validate":
        rs = _load(args)
        rep = validate_ruleset(rs)
        _emit(args, {"valid": rep.valid, "confidence": rep.confidence,
                     "issues": [repr(i) for i in rep.issues]})
        return 0 if rep.valid else 1

    if cmd == "expand":
        rs = _load(args)
        ts = expand(rs, args.depth, budget=args.budget)
        _emit(args, {"tiles": len(ts), "depth": ts.depth,
                     "total_measure": str(ts.total_measure().as_fraction()
                                          if ts.total_measure().is_rational
                                          else float(ts.total_measure()))})
        return 0

    if cmd == "degrees":
        rs = _load(args)
        dm = vertex_degrees(expand(rs, args.depth))
        _emit(args, {"max_interior_degree": dm.max_interior,
                     "max_boundary_degree": dm.max_boundary,
                     "interior_vertices": len(dm.interior)})
        return 0

    if cmd == "certify":
        rs = _load(args)
        cert = certify_max_degree(rs, args.bound, budget=args.budget)
        payload = {"bound": cert.bound, "status": cert.status,
                   "steps": cert.steps,
                   "configurations": len(cert.configurations)}
        if cert.status == "counterexample":
            payload["vertex"] = [_num(float(v)) for v in cert.vertex]
            payload["degree"] = cert.degree
            payload["depth"] = cert.depth
        _emit(args, payload)
        return 0 if cert.certified else 1

    if cmd == "cover":
        rs = _load(args, "order")
        q = _query_from(args, rs)
        rep = cover_fragments(rs, q, kappa=_kappa_for(args),
                              merge_budget=args.merge_budget)
        _emit(args, {"level": rep.level, "tiles": rep.tile_count,
                     "fragments": rep.fragment_count,
                     "cover_ratio": _num(rep.cover_ratio),
                     "addresses": [list(a) for a in rep.tiles]})
        return 0

    if cmd == "arrwwid":
        rs = _load(args, "order")
        plan = SamplePlan(depths=_depths(args.depths), n_random=args.samples,
                          seed=args.seed)
        est = estimate_arrwwid(rs, plan, kappa=_kappa_for(args),
                               is_order=not args.tiles_only)
        payload = {"max_tiles": est.max_tiles, "plan": est.plan}
        if est.tiles_witness:
            payload["tiles_witness"] = est.tiles_witness.as_dict()
        if est.max_fragments is not None:
            payload["max_fragments"] = est.max_fragments
            if est.fragments_witness:
                payload["fragments_witness"] = est.fragments_witness.as_dict()
        _emit(args, payload)
        return 0

    if cmd == "entryexit":
        rs = _load(args, "order")
        e, x = entry_exit(rs, args.rule)
        _emit(args, {"entry": [_num(float(v)) for v in e],
                     "exit": [_num(float(v)) for v in x],
                     "entry_exact": [v.text() for v in e],
                     "exit_exact": [v.text() for v in x]})
        return 0

    if cmd == "connections":
        rs = _load(args, "order")
        stats = classify_connections(rs, args.depth)
        _emit(args, stats.as_dict())
        return 0

    if cmd == "audit":
        rs = _load(args, "order")
        audits = vertex_audit(rs, args.depth)
        _emit(args, {
            "vertices": len(audits),
            "max_tiles_v": max((a.tiles_v for a in audits), default=0),
            "min_ends_v": min((a.ends_v for a in audits), default=0),
            "vertices_with_degenerate_bridge":
                sum(1 for a in audits if a.degenerate_bridges > 0),
        })
        return 0

    if cmd == "recursify":
        spec = get_spec(args.spec)
        ll = recursify(spec, args.levels)
        if args.dump:
            lines = ["cell,label"]
            for cell in sorted(ll.cells):
                lines.append("%s,%s" % (" ".join(map(str, cell)),
                                        " ".join(map(str, ll.cells[cell]))))
            _emit(args, "\n".join(lines))
            return 0
        counts = ll.label_counts()
        payload = {"spec": spec.name, "levels": ll.level,
                   "cells": len(ll.cells),
                   "cells_per_label": sorted(set(counts.values())),
                   "degree": lattice_degree(ll),
                   "disconnected_labels":
                       sum(1 for lab in ll.core_labels
                           if not connected(ll.cells_of(lab), spec.kind))}
        try:
            db = displacement_bound(spec)
            payload["displacement"] = {"d1": _num(db.d1), "factor": _num(db.factor),
                                       "d_inf": _num(db.d_inf),
                                       "safe_radius": _num(db.safe_radius)}
        except LatticeError:
            pass
        _emit(args, payload)
        return 0

    if cmd == "search-rect":
        report = search_min_rect_tiling(args.t_max)
        payload = report.as_dict()
        if args.emit_accepted:
            import os
            os.makedirs(args.emit_accepted, exist_ok=True)
            for i, (t, alpha, pk, orthos, _) in enumerate(report.accepted):
                rs = packing_ruleset(pk, orthos, name="accepted%d" % i)
                path = os.path.join(args.emit_accepted, "accepted%d.rules" % i)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(serialize_ruleset(rs))
            payload["emitted"] = len(report.accepted)
        _emit(args, payload)
        return 0

    if cmd == "simulate":
        orders = {}
        for name in args.order:
            orders[name] = catalog.load(name)
        first = next(iter(orders.values()))
        pts = uniform_points(args.points, args.seed, dim=first.dim,
                             base=first.unit_rule.base)
        queries = ball_queries(args.queries, args.radius, args.seed + 1,
                               dim=first.dim, base=first.unit_rule.base)
        ratios = [float(v) for v in args.ratios.split(",")]
        rows = comparison_table(orders, pts, queries, ratios, depth=args.depth)
        if args.format == "csv":
            cols = sorted(rows[0]) if rows else []
            lines = [",".join(cols)]
            for row in rows:
                lines.append(",".join(str(_num(row[c])) for c in cols))
            _emit(args, "\n".join(lines))
        else:
            _emit(args, rows)
        return 0

    if cmd == "render":
        style = RenderStyle(size=args.size, sketch=args.sketch)
        if args.spec:
            ll = recursify(get_spec(args.spec), args.levels)
            svg = render_svg(ll, style)
        else:
            rs = _load(args)
            svg = render_svg(rs, style, depth=args.depth)
        _emit(args, svg)
        return 0

    if cmd == "predict":
        value = catalog.predicted_arrwwid(args.family, args.dim)
        _emit(args, {"family": args.family, "dim": args.dim, "arrwwid": value})
        return 0

    raise RuleError("unknown subcommand %r" % cmd)


if __name__ == "__main__":
    sys.exit(main())
