import json

import pytest

from arrwwid import catalog
from arrwwid.rules import (parse_ruleset, serialize_ruleset, ruleset_to_json,
                           validate_ruleset, RuleError)

QUAD = """
unit Q
rule Q
base box 0 0 1 1
child rule=Q scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=Q scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,1/2)
child rule=Q scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,0)
child rule=Q scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,1/2)
"""


def test_parse_quadtree():
    rs = parse_ruleset(QUAD)
    assert rs.size == 4
    assert rs.is_uniform() and rs.is_rectilinear()
    assert rs.dim == 2


def test_round_trip_byte_identical():
    rs = parse_ruleset(QUAD)
    canon = serialize_ruleset(rs)
    assert serialize_ruleset(parse_ruleset(canon)) == canon
    assert parse_ruleset(canon) == rs


def test_every_catalog_file_round_trips():
    for name in catalog.names():
        rs = catalog.builtin(name).ruleset
        canon = serialize_ruleset(rs)
        again = parse_ruleset(canon)
        assert again == rs, name
        assert serialize_ruleset(again) == canon, name


def test_json_mirror():
    rs = parse_ruleset(QUAD)
    doc = json.dumps(ruleset_to_json(rs))
    rs2 = parse_ruleset(doc)
    assert rs2 == rs


def test_every_catalog_entry_round_trips_through_json():
    for name in catalog.names():
        rs = catalog.builtin(name).ruleset
        assert parse_ruleset(json.dumps(ruleset_to_json(rs))) == rs, name


def test_unknown_rule_error_names_it():
    bad = QUAD.replace("child rule=Q scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,1/2)",
                       "child rule=X scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,1/2)")
    with pytest.raises(RuleError, match="'X'"):
        parse_ruleset(bad)


def test_syntax_error_carries_line():
    bad = QUAD.replace("base box 0 0 1 1", "base box 0 0 1")
    with pytest.raises(RuleError, match="line 4"):
        parse_ruleset(bad)


def test_non_positive_scale_rejected():
    bad = QUAD.replace("scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)",
                       "scale=0 rot=0 reflect=0 reversed=0 translate=(0,0)")
    with pytest.raises(RuleError, match="scale"):
        parse_ruleset(bad)


def test_validate_quadtree_exact():
    rep = validate_ruleset(parse_ruleset(QUAD))
    assert rep.valid and rep.confidence == "exact"


def test_validate_daun_exact(daun):
    rep = validate_ruleset(daun)
    assert rep.valid and rep.confidence == "exact"
    # 16 children, each 6 cells of the 96-cell cut grid
    from fractions import Fraction
    areas = {ch.placement.scale for ch in daun.unit_rule.children}
    assert areas == {daun.child_scale()}
    base_area = daun.unit_rule.base.measure().as_fraction()
    child_area = base_area * Fraction(1, 16)
    assert child_area == Fraction(3, 32)   # 6 cells of size (1/8)^2 * ... exactly
    assert base_area / child_area == 16


def test_validate_overlap_witness():
    bad = QUAD.replace("translate=(1/2,1/2)", "translate=(1/4,0)")
    rep = validate_ruleset(parse_ruleset(bad))
    assert not rep.valid
    kinds = {i.kind for i in rep.issues}
    assert "overlap" in kinds
    overlap = next(i for i in rep.issues if i.kind == "overlap")
    assert overlap.witness is not None
    # the witness point sits in both children's interiors
    from arrwwid.expand import expand
    rs = parse_ruleset(bad)
    inside = [t for t in expand(rs, 1)
              if t.geometry.contains_point(overlap.witness, closed=False)]
    assert len(inside) >= 2


def test_validate_gap_detected():
    bad = "\n".join(line for line in QUAD.splitlines()
                    if "translate=(1/2,1/2)" not in line)
    rep = validate_ruleset(parse_ruleset(bad))
    assert not rep.valid
    assert any(i.kind == "gap" for i in rep.issues)
