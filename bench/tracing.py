"""Per-layer tracing for the benchmark's traced run (`--trace 1`).

`Tracer.install` wraps the program's layer entry points, in the traced run
only, wherever callers look them up: the defining module's attribute, every
`from module import name` binding in the other program and benchmark
modules, and the class attribute for the two traced methods.  Each wrapped
call is a span (name, start, end, parent, operation id); a span's self time
is its duration minus the time of the spans it opened.  `Similarity.compose`
is counted, not timed, since a span would cost a good share of the call.
Hot leaf helpers (`exact.coord`, the lattice owner maps, `count_tiles`) are
left unwrapped for the same reason; their time lands in the caller's self
time.  Generator functions (`curves.scan_leaves`) are left unwrapped too,
since a call returns before any work is done.

Counts and times are reported per pass: one set-up (the run's own; the
set-ups timed for `setup_s` run in child processes) plus one round, the
round figures averaged over the run's rounds.  A layer a workload does not
touch reads 0.
"""

from __future__ import annotations

import functools
import json
import operator
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np

SPANS = {
    "rules": ("parse_ruleset", "validate_ruleset", "serialize_ruleset"),
    "expand": ("expand", "tile_at", "vertex_degrees", "lattice_pitch", "rasterize",
               "max_interior_degree_fast"),
    "cover": ("canonical_level", "cover_tiles", "cover_fragments", "window_radii",
              "scan_raster", "estimate_arrwwid"),
    "curves": ("tile_interval", "classify_connections", "vertex_audit", "entry_exit",
               "index_to_point"),
    "locality": ("point_indices", "auto_depth", "simulate", "comparison_table"),
    "certify": ("certify_max_degree",),
    "rectsearch": ("eligible_ratios", "enumerate_packings", "assignment_solutions",
                   "packing_ruleset", "search_min_rect_tiling"),
    "recursify": ("recursify", "lattice_degree", "coarse_degree", "displacement_bound"),
}

# work done, read off each call's arguments and result
OBSERVE = {
    "cover.cover_fragments": lambda a, r: {"cover.tiles": r.tile_count},
    "cover.scan_raster": lambda a, r: {"cover.raster_tiles": int(r[0].max()) + 1},
    "locality.point_indices": lambda a, r: {"locality.points": len(r)},
    "expand.expand": lambda a, r: {"expand.tiles": len(r)},
    "expand.rasterize": lambda a, r: {"expand.raster_tiles": int(r.ids.max()) + 1},
    "expand.vertex_index": lambda a, r: {"expand.index_tiles": len(a[0].tiles)},
    "curves.classify_connections": lambda a, r: {"curves.classified": r.total + 1},
    "certify.certify_max_degree": lambda a, r: {"certify.steps": r.steps},
    "rectsearch.search_min_rect_tiling": lambda a, r: {
        "rectsearch.assignments": sum(e["assignments"] for e in r.per_ratio),
        "rectsearch.certified": sum(e["certified"] for e in r.per_ratio)},
    "recursify.recursify": lambda a, r: {"recursify.cells": len(r.cells)},
}

# spans kept for the spans file; later ones are counted as dropped
MAX_SPANS = 300000


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.request = None        # index of the operation being run
        self.paused = 0            # checks run untraced
        self.stack = []            # open spans: [id, child time]
        self.open = Counter()
        self.totals = {}           # (phase, name) -> [calls, total s, self s, composes]
        self.counts = Counter()    # (phase, key) -> amount
        self.composes = 0
        self.spans = []
        self.dropped = 0
        self._ids = 0
        self._undo = []

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap the layer entry points in the program's modules and in the
        benchmark's `workloads`, and time `workloads.answer` as `bench.answer`."""
        expand, transforms = sys.modules["arrwwid.expand"], sys.modules["arrwwid.transforms"]
        bench = sys.modules["workloads"]
        targets = [(sys.modules["arrwwid." + mod], fn, "%s.%s" % (mod, fn))
                   for mod, names in SPANS.items() for fn in names]
        targets.append((bench, "answer", "bench.answer"))
        holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "arrwwid"]
        holders.append(bench)
        for module, attr, name in targets:
            original = getattr(module, attr)
            wrapped = self._span(name, original, OBSERVE.get(name))
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._set(holder, attr, wrapped)
        compose = transforms.Similarity.compose
        tracer = self

        def counted_compose(sim, other):
            if not tracer.paused:
                tracer.composes += 1
            return compose(sim, other)

        self._set(transforms.Similarity, "compose", counted_compose)
        self.original_compose = compose
        index = expand.TileSet.vertex_index
        build = self._span("expand.vertex_index", index.fget, OBSERVE["expand.vertex_index"])
        # only a call that builds the index is a span; later reads hit its cache
        self._set(expand.TileSet, "vertex_index", property(
            lambda ts: build(ts) if ts._vertex_index is None else index.fget(ts)))

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer._ids += 1
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [tracer._ids, 0.0]
            composes = tracer.composes
            tracer.stack.append(frame)
            tracer.open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.open[name] -= 1
                tracer._close(name, frame, parent, start, end, tracer.composes - composes)
            if observe is not None:
                for key, amount in observe(args, result).items():
                    tracer.counts[tracer.phase, key] += amount
            return result

        return traced

    def _close(self, name, frame, parent, start, end, composes):
        duration = end - start
        if parent is not None:
            parent[1] += duration
        total = self.totals.setdefault((self.phase, name), [0, 0.0, 0.0, 0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        total[3] += composes
        if name == "curves.tile_interval" and self.open["cover.cover_fragments"]:
            self.counts[self.phase, "cover.tile_intervals"] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.phase, self.request, frame[0],
                               parent[0] if parent is not None else None,
                               name, start, end))
        else:
            self.dropped += 1

    def set_phase(self, phase):
        self.counts[self.phase, "transforms.compose"] += self.composes
        self.composes = 0
        self.phase = phase

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for phase, request, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"phase": phase, "op": request, "id": sid,
                                    "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")


# -- micro-timings ------------------------------------------------------------

def _per_call(fn, pairs, repeats=9):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for a, b in pairs:
            fn(a, b)
        times.append((perf_counter() - start) / len(pairs))
    return statistics.median(times)


def micro_timings(coords, sims, compose, seed, n=400):
    """exact and transforms per-call times on operands drawn from the
    workload: Coord pairs from its inputs and rule sets, and compositions of
    a two-level transform with a child placement, as a descent makes them."""
    rng = np.random.default_rng(seed)
    pairs = [(coords[i], coords[j]) for i, j in rng.integers(0, len(coords), (n, 2))]
    out = {"exact.coord_mul_ns": _per_call(operator.mul, pairs) * 1e9,
           "exact.coord_cmp_ns": _per_call(operator.lt, pairs) * 1e9}
    by_dim = {}
    for s in sims:
        by_dim.setdefault(s.dim, []).append(s)
    group = max(by_dim.values(), key=len)
    picks = rng.integers(0, len(group), (n, 3))
    steps = [(compose(group[i], group[j]), group[k]) for i, j, k in picks]
    out["transforms.compose_us"] = _per_call(compose, steps) * 1e6
    return out


# -- per-layer metrics ----------------------------------------------------------

LAYER_METRICS = (
    ("rules.parse_validate_s", "s"),
    ("exact.coord_mul_ns", "ns"),
    ("exact.coord_cmp_ns", "ns"),
    ("transforms.compose_us", "us"),
    ("transforms.compose_calls", "count"),
    ("cover.cover_fragments_calls", "count"),
    ("cover.cover_fragments_self_s", "s"),
    ("cover.cover_tiles_self_s", "s"),
    ("cover.compose_per_query", "calls/query"),
    ("cover.tiles_per_compose", "tiles/call"),
    ("curves.tile_interval_calls", "count"),
    ("curves.tile_interval_self_s", "s"),
    ("curves.tile_interval_per_tile", "calls/tile"),
    ("bench.answer_self_s", "s"),
    ("cover.scan_raster_self_s", "s"),
    ("cover.scan_raster_tiles_per_s", "tiles/s"),
    ("locality.point_indices_self_s", "s"),
    ("locality.point_indices_points_per_s", "points/s"),
    ("cover.estimate_arrwwid_self_s", "s"),
    ("expand.expand_tiles_per_s", "tiles/s"),
    ("expand.rasterize_tiles_per_s", "tiles/s"),
    ("expand.vertex_index_self_s", "s"),
    ("expand.vertex_index_tiles_per_s", "tiles/s"),
    ("curves.classify_connections_tiles_per_s", "tiles/s"),
    ("curves.vertex_audit_self_s", "s"),
    ("locality.simulate_self_s", "s"),
    ("certify.certify_max_degree_calls", "count"),
    ("certify.certify_max_degree_self_s", "s"),
    ("certify.steps_per_s", "steps/s"),
    ("rectsearch.enumerate_packings_self_s", "s"),
    ("rectsearch.assignment_solutions_self_s", "s"),
    ("rectsearch.search_self_s", "s"),
    ("rectsearch.assignments_per_s", "assignments/s"),
    ("rectsearch.certified_per_assignment", "ratio"),
    ("recursify.recursify_self_s", "s"),
    ("recursify.lattice_degree_self_s", "s"),
    ("recursify.cells_per_s", "cells/s"),
)


def layer_metrics(tracer, setups, rounds, micro):
    """Every per-layer metric, per pass (one set-up plus one round)."""
    passes = (("setup", setups), ("round", rounds))

    def span(name, field):     # field: 0 calls, 1 total s, 2 self s, 3 composes
        return sum(tracer.totals.get((phase, name), (0, 0.0, 0.0, 0))[field] / n
                   for phase, n in passes)

    def count(key):
        return sum(tracer.counts[phase, key] / n for phase, n in passes)

    def rate(num, den):
        return num / den if den else 0.0

    cf = "cover.cover_fragments"
    values = {
        "rules.parse_validate_s": span("rules.parse_ruleset", 1)
        + span("rules.validate_ruleset", 1),
        "transforms.compose_calls": count("transforms.compose"),
        "cover.cover_fragments_calls": span(cf, 0),
        "cover.cover_fragments_self_s": span(cf, 2),
        "cover.cover_tiles_self_s": span("cover.cover_tiles", 2),
        "cover.compose_per_query": rate(span(cf, 3), span(cf, 0)),
        "cover.tiles_per_compose": rate(count("cover.tiles"), span(cf, 3)),
        "curves.tile_interval_calls": span("curves.tile_interval", 0),
        "curves.tile_interval_self_s": span("curves.tile_interval", 2),
        "curves.tile_interval_per_tile": rate(count("cover.tile_intervals"),
                                              count("cover.tiles")),
        "bench.answer_self_s": span("bench.answer", 2),
        "cover.scan_raster_self_s": span("cover.scan_raster", 2),
        "cover.scan_raster_tiles_per_s": rate(count("cover.raster_tiles"),
                                              span("cover.scan_raster", 1)),
        "locality.point_indices_self_s": span("locality.point_indices", 2),
        "locality.point_indices_points_per_s": rate(count("locality.points"),
                                                    span("locality.point_indices", 1)),
        "cover.estimate_arrwwid_self_s": span("cover.estimate_arrwwid", 2),
        "expand.expand_tiles_per_s": rate(count("expand.tiles"), span("expand.expand", 1)),
        "expand.rasterize_tiles_per_s": rate(count("expand.raster_tiles"),
                                             span("expand.rasterize", 1)),
        "expand.vertex_index_self_s": span("expand.vertex_index", 2),
        "expand.vertex_index_tiles_per_s": rate(count("expand.index_tiles"),
                                                span("expand.vertex_index", 1)),
        "curves.classify_connections_tiles_per_s": rate(
            count("curves.classified"), span("curves.classify_connections", 1)),
        "curves.vertex_audit_self_s": span("curves.vertex_audit", 2),
        "locality.simulate_self_s": span("locality.simulate", 2),
        "certify.certify_max_degree_calls": span("certify.certify_max_degree", 0),
        "certify.certify_max_degree_self_s": span("certify.certify_max_degree", 2),
        "certify.steps_per_s": rate(count("certify.steps"),
                                    span("certify.certify_max_degree", 1)),
        "rectsearch.enumerate_packings_self_s": span("rectsearch.enumerate_packings", 2),
        "rectsearch.assignment_solutions_self_s": span("rectsearch.assignment_solutions", 2),
        "rectsearch.search_self_s": span("rectsearch.search_min_rect_tiling", 2),
        "rectsearch.assignments_per_s": rate(count("rectsearch.assignments"),
                                             span("rectsearch.search_min_rect_tiling", 1)),
        "rectsearch.certified_per_assignment": rate(count("rectsearch.certified"),
                                                    count("rectsearch.assignments")),
        "recursify.recursify_self_s": span("recursify.recursify", 2),
        "recursify.lattice_degree_self_s": span("recursify.lattice_degree", 2),
        "recursify.cells_per_s": rate(count("recursify.cells"), span("recursify.recursify", 1)),
    }
    values.update(micro)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
