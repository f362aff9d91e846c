"""Recursive tiling rule sets: model, text/JSON parsing, validation.

A rule subdivides its base shape into placed children; a rule set names a unit
rule and closes over every referenced rule id.  The child list order doubles
as the scanning order when the rule set is used as a curve, and each child may
carry a reversed flag.

Rule file format (UTF-8 text)::

    unit R
    rule R
    base box 0 0 1 1
    child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
    ...

`base box` takes lo/hi corners (4 numbers in 2D, 6 in 3D); `base poly` takes
`x,y` vertex pairs.  2D `rot` is in degrees (multiple of 30); 3D `rot` is a
signed axis triple such as `-y,x,z`.  A JSON document with the same fields is
accepted anywhere a rule file is.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exact import ZERO, parse_coord
from .shapes import Box, Polygon, _ccw_corners, segments_cross
from .transforms import Ortho, Similarity, parse_rot, format_rot


class RuleError(ValueError):
    """Problem in a rule file or rule structure; carries line info if known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class Child:
    __slots__ = ("rule", "placement", "reversed")

    def __init__(self, rule, placement, reversed=False):
        self.rule = rule
        self.placement = placement
        self.reversed = bool(reversed)

    def key(self):
        return (self.rule, self.placement.key(), self.reversed)

    def __repr__(self):
        return "Child(%r, %r, reversed=%r)" % (self.rule, self.placement, self.reversed)


class Rule:
    __slots__ = ("name", "base", "children")

    def __init__(self, name, base, children):
        self.name = name
        self.base = base
        self.children = list(children)

    def key(self):
        return (self.name, self.base.key(), tuple(c.key() for c in self.children))


class RuleSet:
    """Finite system of recursive subdivision rules with a designated unit."""

    def __init__(self, rules, unit, name=None):
        self.rules = dict(rules)
        self.unit = unit
        self.name = name
        self._validate_structure()

    def _validate_structure(self):
        if self.unit not in self.rules:
            raise RuleError("unknown unit rule %r" % self.unit)
        dims = {r.base.dim for r in self.rules.values()}
        if len(dims) != 1:
            raise RuleError("mixed dimensions in rule set")
        (self.dim,) = dims
        for r in self.rules.values():
            if len(r.children) < 2:
                raise RuleError("rule %r has fewer than 2 children" % r.name)
            for ch in r.children:
                if ch.rule not in self.rules:
                    raise RuleError("rule %r references unknown rule %r" % (r.name, ch.rule))
                if ch.placement.scale.sign() <= 0:
                    raise RuleError("rule %r has a non-positive scale" % r.name)

    @property
    def unit_rule(self):
        return self.rules[self.unit]

    def is_uniform(self):
        """All rules share one child count and one child scale."""
        counts = {len(r.children) for r in self.rules.values()}
        scales = {ch.placement.scale for r in self.rules.values() for ch in r.children}
        return len(counts) == 1 and len(scales) == 1

    @property
    def size(self):
        return len(self.unit_rule.children)

    def child_scale(self):
        scales = {ch.placement.scale for r in self.rules.values() for ch in r.children}
        if len(scales) != 1:
            raise RuleError("rule set is not uniform in scale")
        return next(iter(scales))

    def is_rectilinear(self):
        return all(isinstance(r.base, Box) and
                   all(ch.placement.ortho.is_axis_aligned() for ch in r.children)
                   for r in self.rules.values())

    def reachable_types(self):
        """(rule, ortho) pairs reachable from the unit, with example addresses."""
        start = (self.unit, Ortho.identity(self.dim))
        seen = {start: ()}
        frontier = [start]
        while frontier:
            rule_name, o = frontier.pop()
            addr = seen[(rule_name, o)]
            for i, ch in enumerate(self.rules[rule_name].children):
                t = (ch.rule, o.compose(ch.placement.ortho))
                if t not in seen:
                    seen[t] = addr + (i,)
                    frontier.append(t)
        return seen

    def key(self):
        return (self.unit, tuple(sorted((n, r.key()) for n, r in self.rules.items())))

    def __eq__(self, other):
        return self is other or (isinstance(other, RuleSet) and self.key() == other.key())

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = hash(self.key())
        return h


# -- parsing -----------------------------------------------------------------

def parse_ruleset(text, name=None):
    """Parse a rule file (text format or its JSON mirror)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(json.loads(text), name)
    unit = None
    rules = {}
    current = None  # [name, base, children, line]
    dim = None

    def finish():
        nonlocal current
        if current is None:
            return
        rname, base, children, line = current
        if base is None:
            raise RuleError("rule %r has no base shape" % rname, line)
        if rname in rules:
            raise RuleError("duplicate rule %r" % rname, line)
        rules[rname] = Rule(rname, base, children)
        current = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        head = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if head == "unit":
            unit = rest.strip()
        elif head == "rule":
            finish()
            current = [rest.strip(), None, [], lineno]
        elif head == "base":
            if current is None:
                raise RuleError("base outside of rule block", lineno)
            current[1] = _parse_base(rest, lineno)
            dim = current[1].dim
        elif head == "child":
            if current is None or current[1] is None:
                raise RuleError("child before base", lineno)
            current[2].append(_parse_child(rest, dim, lineno))
        else:
            raise RuleError("unknown directive %r" % head, lineno,
                            column=raw.index(head) + 1)
    finish()
    if unit is None:
        raise RuleError("missing unit header")
    return RuleSet(rules, unit, name=name)


def _parse_base(rest, lineno):
    parts = rest.split()
    if not parts:
        raise RuleError("empty base", lineno)
    kind, args = parts[0], parts[1:]
    if kind == "box":
        if len(args) == 4:
            vals = [parse_coord(a) for a in args]
            return Box(vals[:2], vals[2:])
        if len(args) == 6:
            vals = [parse_coord(a) for a in args]
            return Box(vals[:3], vals[3:])
        raise RuleError("base box takes 4 (2D) or 6 (3D) coordinates", lineno)
    if kind == "poly":
        pts = []
        for a in args:
            xy = a.split(",")
            if len(xy) != 2:
                raise RuleError("poly vertices are x,y pairs", lineno)
            pts.append((parse_coord(xy[0]), parse_coord(xy[1])))
        return Polygon(pts)
    raise RuleError("unknown base kind %r" % kind, lineno)


def _parse_child(rest, dim, lineno):
    fields = {}
    for tok in rest.split():
        if "=" not in tok:
            raise RuleError("bad child field %r" % tok, lineno)
        k, v = tok.split("=", 1)
        fields[k] = v
    try:
        rule = fields.pop("rule")
        scale = parse_coord(fields.pop("scale"))
        rot = fields.pop("rot", "0" if dim == 2 else "x,y,z")
        reflect = fields.pop("reflect", "0") == "1"
        reverse = fields.pop("reversed", "0") == "1"
        trans = fields.pop("translate")
    except KeyError as exc:
        raise RuleError("child missing field %s" % exc, lineno)
    if fields:
        raise RuleError("unknown child fields %s" % sorted(fields), lineno)
    if not (trans.startswith("(") and trans.endswith(")")):
        raise RuleError("translate must be parenthesised", lineno)
    coords = [parse_coord(t) for t in _split_translate(trans[1:-1])]
    if len(coords) != dim:
        raise RuleError("translate arity %d does not match dimension %d"
                        % (len(coords), dim), lineno)
    if scale.sign() <= 0:
        raise RuleError("non-positive scale", lineno)
    return Child(rule, Similarity(scale, _child_ortho(dim, rot, reflect), coords), reverse)


def _child_ortho(dim, rot, reflect):
    """A child's Ortho from its `rot` field and reflect flag; in 3D the
    reflection negates the third sign."""
    if dim == 2:
        return Ortho(2, parse_rot(str(rot), 2), reflect)
    perm, signs = parse_rot(rot, 3)
    if reflect:
        signs = (signs[0], signs[1], -signs[2])
    return Ortho(3, perm=perm, signs=signs)


def _split_translate(body):
    # split on commas that are not inside a parenthesised coordinate
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _from_json(doc, name):
    rules = {}
    for rname, rdoc in doc["rules"].items():
        base_doc = rdoc["base"]
        if base_doc["kind"] == "box":
            base = Box([parse_coord(v) for v in base_doc["lo"]],
                       [parse_coord(v) for v in base_doc["hi"]])
        else:
            base = Polygon([(parse_coord(x), parse_coord(y))
                            for x, y in base_doc["vertices"]])
        children = []
        for c in rdoc["children"]:
            ortho = _child_ortho(base.dim, c.get("rot", 0 if base.dim == 2 else "x,y,z"),
                                 bool(c.get("reflect", False)))
            placement = Similarity(parse_coord(str(c["scale"])), ortho,
                                   [parse_coord(str(v)) for v in c["translate"]])
            children.append(Child(c["rule"], placement, bool(c.get("reversed", False))))
        rules[rname] = Rule(rname, base, children)
    return RuleSet(rules, doc["unit"], name=name)


# -- serialization -------------------------------------------------------------

def serialize_ruleset(rs):
    """Canonical deterministic text form (stable under parse/serialize)."""
    out = ["unit %s" % rs.unit]
    for rname in sorted(rs.rules):
        r = rs.rules[rname]
        out.append("rule %s" % rname)
        if isinstance(r.base, Box):
            coords = list(r.base.lo) + list(r.base.hi)
            out.append("base box " + " ".join(v.text() for v in coords))
        else:
            out.append("base poly " + " ".join(
                "%s,%s" % (p[0].text(), p[1].text()) for p in r.base.vertices))
        for ch in r.children:
            p = ch.placement
            reflect = 0
            if p.ortho.dim == 2:
                reflect = 1 if p.ortho.reflect else 0
            out.append("child rule=%s scale=%s rot=%s reflect=%d reversed=%d translate=(%s)"
                       % (ch.rule, p.scale.text(), format_rot(p.ortho), reflect,
                          1 if ch.reversed else 0,
                          ",".join(v.text() for v in p.trans)))
    return "\n".join(out) + "\n"


def ruleset_to_json(rs):
    doc = {"unit": rs.unit, "rules": {}}
    for rname in sorted(rs.rules):
        r = rs.rules[rname]
        if isinstance(r.base, Box):
            base = {"kind": "box",
                    "lo": [v.text() for v in r.base.lo],
                    "hi": [v.text() for v in r.base.hi]}
        else:
            base = {"kind": "poly",
                    "vertices": [[p[0].text(), p[1].text()] for p in r.base.vertices]}
        children = []
        for ch in r.children:
            p = ch.placement
            entry = {"rule": ch.rule,
                     "scale": p.scale.text(),
                     "rot": format_rot(p.ortho),
                     "reversed": ch.reversed,
                     "translate": [v.text() for v in p.trans]}
            if p.ortho.dim == 2:
                entry["reflect"] = p.ortho.reflect
            children.append(entry)
        doc["rules"][rname] = {"base": base, "children": children}
    return doc


# -- validation -----------------------------------------------------------------

class ValidationIssue:
    def __init__(self, kind, rule, detail, witness=None):
        self.kind = kind          # "overlap" | "gap"
        self.rule = rule
        self.detail = detail
        self.witness = witness    # exact point, when available

    def __repr__(self):
        return "ValidationIssue(%s, rule=%r, %s, witness=%r)" % (
            self.kind, self.rule, self.detail, self.witness)


class ValidationReport:
    def __init__(self, valid, issues, confidence):
        self.valid = valid
        self.issues = issues
        self.confidence = confidence  # "exact" | "sampled"

    def __bool__(self):
        return self.valid


def validate_ruleset(rs):
    """Check per rule that the children tile the base shape.

    Boxes get an exact check (area sum plus pairwise interior disjointness
    plus coverage on the cut grid); polygon bases get exact disjointness via
    boundary crossings and a sampled coverage witness search.
    """
    issues = []
    confidence = "exact"
    for rname in sorted(rs.rules):
        rule = rs.rules[rname]
        placed = []
        for ch in rule.children:
            geom = rs.rules[ch.rule].base.transform(ch.placement)
            placed.append(geom)
        base_area = rule.base.measure()
        total = ZERO
        for g in placed:
            total = total + g.measure()
        if total != base_area:
            issues.append(ValidationIssue(
                "gap", rname,
                "child areas sum to %s, base has %s (missing %s)" % (
                    float(total), float(base_area), float(base_area - total))))
        for i in range(len(placed)):
            for j in range(i + 1, len(placed)):
                w = _interior_overlap_witness(placed[i], placed[j])
                if w is not None:
                    issues.append(ValidationIssue(
                        "overlap", rname, "children %d and %d overlap" % (i, j), w))
        if all(isinstance(g, Box) for g in placed) and isinstance(rule.base, Box):
            w = _coverage_gap_witness(rule.base, placed)
            if w is not None:
                issues.append(ValidationIssue("gap", rname, "uncovered point", w))
        else:
            confidence = "sampled"
            w = _sampled_gap_witness(rule.base, placed)
            if w is not None:
                issues.append(ValidationIssue("gap", rname, "uncovered sample point", w))
    return ValidationReport(not issues, issues, confidence)


def _interior_overlap_witness(a, b):
    if isinstance(a, Box) and isinstance(b, Box):
        inter = a.intersection(b)
        return None if inter is None else inter.center()
    # polygon case: exact but conservative -- boundary crossings or containment
    pa = a if isinstance(a, Polygon) else Polygon(_ccw_corners(a))
    pb = b if isinstance(b, Polygon) else Polygon(_ccw_corners(b))
    na, nb = len(pa.vertices), len(pb.vertices)
    for i in range(na):
        for j in range(nb):
            if segments_cross(pa.vertices[i], pa.vertices[(i + 1) % na],
                              pb.vertices[j], pb.vertices[(j + 1) % nb]):
                # crossing boundaries of simple polygons means interior overlap
                return _midpoint(pa.vertices[i], pa.vertices[(i + 1) % na])
    for p in pa.vertices:
        if pb.contains_point(p, closed=False):
            return p
    for p in pb.vertices:
        if pa.contains_point(p, closed=False):
            return p
    ca = pa.center()
    if pb.contains_point(ca, closed=False) and pa.contains_point(ca, closed=False):
        return ca
    return None


def _midpoint(p, q):
    from .exact import HALF
    return tuple((a + b) * HALF for a, b in zip(p, q))


def _coverage_gap_witness(base, boxes):
    """Exact gap finder for box children: check every cell of the cut grid."""
    from .exact import HALF
    dim = base.dim
    cuts = []
    for axis in range(dim):
        vals = {base.lo[axis], base.hi[axis]}
        for b in boxes:
            vals.add(b.lo[axis])
            vals.add(b.hi[axis])
        vals = sorted(v for v in vals
                      if (v - base.lo[axis]).sign() >= 0 and (base.hi[axis] - v).sign() >= 0)
        cuts.append(vals)
    import itertools
    for idx in itertools.product(*(range(len(c) - 1) for c in cuts)):
        center = tuple((cuts[ax][i] + cuts[ax][i + 1]) * HALF for ax, i in enumerate(idx))
        if not any(b.contains_point(center) for b in boxes):
            return center
    return None


def _sampled_gap_witness(base, shapes, n=12):
    from .exact import coord as _c
    bb = base.bounding_box()
    for i in range(1, n):
        for j in range(1, n):
            p = (bb.lo[0] + (bb.hi[0] - bb.lo[0]) * _c(Fraction(i, n)),
                 bb.lo[1] + (bb.hi[1] - bb.lo[1]) * _c(Fraction(j, n)))
            if base.contains_point(p, closed=False):
                if not any(s.contains_point(p) for s in shapes):
                    return p
    return None
