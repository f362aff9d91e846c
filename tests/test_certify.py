from fractions import Fraction

import pytest

from arrwwid import catalog
from arrwwid.certify import certify_max_degree, UnsupportedShapeError
from arrwwid.expand import expand, vertex_degrees, max_interior_degree_fast
from arrwwid.rules import Child, Rule, RuleSet, parse_ruleset, validate_ruleset
from arrwwid.transforms import Ortho, Similarity


def test_daun_certified(daun):
    cert = certify_max_degree(daun, 3)
    assert cert.certified
    assert cert.configurations   # closed set of edge configurations


def test_certificate_soundness_cross_check(daun):
    # certified bound must hold in actual expansions up to depth 5
    for k in (1, 2, 3, 4, 5):
        assert max_interior_degree_fast(daun, k) <= 3


def test_quadtree_bound3_counterexample(quadtree):
    cert = certify_max_degree(quadtree, 3)
    assert cert.status == "counterexample"
    assert cert.degree == 4
    assert tuple(float(v) for v in cert.vertex) == (0.5, 0.5)
    assert cert.depth == 1


def test_quadtree_bound4_certified(quadtree):
    assert certify_max_degree(quadtree, 4).certified


def test_daun_bound2_counterexample(daun):
    # oracle: a degree-3 vertex read off the depth-2 expansion
    dm = vertex_degrees(expand(daun, 2))
    oracle_vertices = {p for p, d in dm.interior.items() if d == 3}
    assert oracle_vertices
    cert = certify_max_degree(daun, 2)
    assert cert.status == "counterexample"
    assert cert.degree >= 3


def test_counterexample_vertex_is_real(quadtree):
    cert = certify_max_degree(quadtree, 3)
    dm = vertex_degrees(expand(quadtree, cert.depth))
    assert dm.interior[cert.vertex] == cert.degree


def test_budget_below_one_rejected(daun):
    for budget in (0, -5):
        with pytest.raises(ValueError):
            certify_max_degree(daun, 3, budget=budget)


def test_3d_unsupported(lifted_daun):
    with pytest.raises(UnsupportedShapeError):
        certify_max_degree(lifted_daun, 6)


def test_non_uniform_scale_unsupported():
    rs = parse_ruleset("""
unit R
rule R
base box 0 0 1 1
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(1/2,0)
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,1/2)
child rule=R scale=1/4 rot=0 reflect=0 reversed=0 translate=(1/2,1/2)
child rule=R scale=1/4 rot=0 reflect=0 reversed=0 translate=(3/4,1/2)
child rule=R scale=1/4 rot=0 reflect=0 reversed=0 translate=(1/2,3/4)
child rule=R scale=1/4 rot=0 reflect=0 reversed=0 translate=(3/4,3/4)
""")
    with pytest.raises(UnsupportedShapeError):
        certify_max_degree(rs, 3)


def _rejected_before_closure(text, tmp_path, monkeypatch, capsys):
    """certify_max_degree raises UnsupportedShapeError without running the
    closure, and the CLI exits 2 on the same rule file."""
    import arrwwid.certify
    from arrwwid.cli import main

    def no_closure(*args, **kwargs):
        raise AssertionError("the closure ran on an unsupported rule set")

    monkeypatch.setattr(arrwwid.certify, "closure", no_closure)
    rs = parse_ruleset(text)
    with pytest.raises(UnsupportedShapeError) as exc:
        certify_max_degree(rs, 3)
    path = tmp_path / "unsupported.rules"
    path.write_text(text)
    assert main(["certify", "--tiling", str(path), "--bound", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(exc.value) in captured.err


def test_non_integer_inverse_scale_unsupported(tmp_path, monkeypatch, capsys):
    # 1/s = 3/2: a valid tiling has an integer 1/s, the Perron eigenvalue of
    # its integer child-count matrix, so this set only overlaps itself
    _rejected_before_closure("""
unit A
rule A
base box 0 0 1 1
child rule=A scale=2/3 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=A scale=2/3 rot=0 reflect=0 reversed=0 translate=(1/3,1/3)
""", tmp_path, monkeypatch, capsys)


def test_sqrt3_coordinates_unsupported(tmp_path, monkeypatch, capsys):
    # a valid tiling: the 2 sqrt(3) x 1 rectangle cut into four halves
    text = """
unit R
rule R
base box 0 0 (0+2rt3)/1 1
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,0)
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(rt3,0)
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(0,1/2)
child rule=R scale=1/2 rot=0 reflect=0 reversed=0 translate=(rt3,1/2)
"""
    assert validate_ruleset(parse_ruleset(text)).valid
    _rejected_before_closure(text, tmp_path, monkeypatch, capsys)


def test_bound4_shortcut_rejects_non_tiling():
    # the quadrant argument behind bound >= 4 holds only for a valid tiling
    from test_walk import CHILD_OUTSIDE
    rs = parse_ruleset(CHILD_OUTSIDE)
    assert not validate_ruleset(rs).valid
    with pytest.raises(UnsupportedShapeError, match="valid tiling"):
        certify_max_degree(rs, 4)


# (status, steps, len(configurations), vertex, degree, depth): the closure's
# exact outputs, which a change to the engine's order or witnesses would move
_PINNED_CATALOG = [
    ('ar2w2', 2, 'counterexample', 1, 0, ('7/8', '5/8'), 4, 3),
    ('ar2w2', 3, 'counterexample', 1, 0, ('7/8', '5/8'), 4, 3),
    ('coil', 2, 'counterexample', 1, 0, ('5/9', '4/9'), 4, 2),
    ('coil', 3, 'counterexample', 1, 0, ('5/9', '4/9'), 4, 2),
    ('daun', 2, 'counterexample', 1, 0, ('7/16', '3/16'), 3, 2),
    ('daun', 3, 'certified', 144, 64, None, None, None),
    ('dekking', 2, 'counterexample', 1, 0, ('1/25', '12/25'), 4, 2),
    ('dekking', 3, 'counterexample', 1, 0, ('1/25', '12/25'), 4, 2),
    ('hilbert', 2, 'counterexample', 1, 0, ('7/8', '3/8'), 4, 3),
    ('hilbert', 3, 'counterexample', 1, 0, ('7/8', '3/8'), 4, 3),
    ('kochel', 2, 'counterexample', 1, 0, ('31/81', '64/81'), 4, 4),
    ('kochel', 3, 'counterexample', 1, 0, ('31/81', '64/81'), 4, 4),
    ('peano', 2, 'counterexample', 1, 0, ('2/3', '1/3'), 4, 1),
    ('peano', 3, 'counterexample', 1, 0, ('2/3', '1/3'), 4, 1),
    ('quadtree', 2, 'counterexample', 1, 0, ('1/2', '1/2'), 4, 1),
    ('quadtree', 3, 'counterexample', 1, 0, ('1/2', '1/2'), 4, 1),
    ('zorder', 2, 'counterexample', 1, 0, ('1/2', '1/2'), 4, 1),
    ('zorder', 3, 'counterexample', 1, 0, ('1/2', '1/2'), 4, 1),
]

# the first 24 assignment solutions of the first non-crossing (16, 3/2)
# packing: deep counterexamples that exercise the edge -> cut -> vertex replay
_PINNED_PACKING = [
    (0, 'certified', 144, 64, None, None, None),
    (1, 'counterexample', 44, 0, ('163/16', '2967/512'), 4, 6),
    (2, 'counterexample', 38, 0, ('189/16', '531/128'), 4, 5),
    (3, 'counterexample', 43, 0, ('91/8', '699/128'), 4, 5),
    (4, 'counterexample', 29, 0, ('1253/128', '13/8'), 4, 5),
    (5, 'counterexample', 39, 0, ('1297/128', '47/8'), 4, 5),
    (6, 'counterexample', 38, 0, ('93/8', '527/128'), 4, 5),
    (7, 'counterexample', 46, 0, ('91/8', '699/128'), 4, 5),
    (8, 'counterexample', 48, 0, ('63/8', '2021/256'), 4, 5),
    (9, 'counterexample', 69, 0, ('163/16', '2967/512'), 4, 6),
    (10, 'counterexample', 62, 0, ('189/16', '531/128'), 4, 5),
    (11, 'counterexample', 66, 0, ('91/8', '687/128'), 4, 5),
    (12, 'counterexample', 62, 0, ('63/8', '2021/256'), 4, 5),
    (13, 'counterexample', 49, 0, ('1297/128', '47/8'), 4, 5),
    (14, 'counterexample', 64, 0, ('93/8', '527/128'), 4, 5),
    (15, 'counterexample', 61, 0, ('91/8', '687/128'), 4, 5),
    (16, 'counterexample', 44, 0, ('63/8', '1493/256'), 4, 5),
    (17, 'counterexample', 60, 0, ('163/16', '2967/512'), 4, 6),
    (18, 'counterexample', 53, 0, ('189/16', '531/128'), 4, 5),
    (19, 'counterexample', 55, 0, ('91/8', '699/128'), 4, 5),
    (20, 'counterexample', 61, 0, ('63/8', '1493/256'), 4, 5),
    (21, 'counterexample', 58, 0, ('1307/128', '47/8'), 4, 5),
    (22, 'counterexample', 57, 0, ('93/8', '527/128'), 4, 5),
    (23, 'counterexample', 61, 0, ('91/8', '699/128'), 4, 5),
]


def _pinned_row(cert):
    vertex = (None if cert.vertex is None
              else tuple(str(c.as_fraction()) for c in cert.vertex))
    return (cert.status, cert.steps, len(cert.configurations), vertex,
            cert.degree, cert.depth)


@pytest.mark.parametrize("row", _PINNED_CATALOG, ids=lambda r: "%s-%d" % r[:2])
def test_pinned_catalog_certificates(row):
    from arrwwid import catalog
    name, bound = row[:2]
    cert = certify_max_degree(catalog.builtin(name).ruleset, bound)
    assert _pinned_row(cert) == row[2:]


def test_pinned_packing_certificates():
    from arrwwid.rectsearch import enumerate_packings, assignment_solutions, packing_ruleset
    pk = [p for p in enumerate_packings(16, Fraction(3, 2))
          if p.max_vertex_degree() <= 3][0]
    sols = assignment_solutions(pk)[:24]
    got = [(i,) + _pinned_row(certify_max_degree(packing_ruleset(pk, o), 3))
           for i, o in enumerate(sols)]
    assert got == _PINNED_PACKING


# the same ortho for every upright piece and for every rotated piece, outside
# the assignment search's pruning: counterexamples at vertices that only
# become crossings after further refinement (vertex -> vertex replay)
_PINNED_UNIFORM = [
    (0, 0, 'counterexample', 36, 0, ('45/32', '565/256'), 4, 5),
    (0, 1, 'counterexample', 57, 0, ('3/8', '317/64'), 4, 4),
    (0, 2, 'counterexample', 74, 0, ('351/2048', '22999831/8388608'), 4, 13),
    (0, 3, 'counterexample', 53, 0, ('3699/2048', '160207/32768'), 4, 9),
    (1, 0, 'counterexample', 3, 0, ('153/32', '71/64'), 4, 6),
    (1, 1, 'counterexample', 3, 0, ('25/8', '45/16'), 4, 5),
    (1, 2, 'counterexample', 3, 0, ('3107/1024', '2301/4096'), 4, 8),
    (1, 3, 'counterexample', 3, 0, ('4781/1024', '11097/4096'), 4, 8),
]


def test_pinned_uniform_assignment_certificates():
    from arrwwid.rectsearch import enumerate_packings, packing_ruleset, _UPRIGHT, _ROTATED
    packings = [p for p in enumerate_packings(16, Fraction(3, 2))
                if p.max_vertex_degree() <= 3]
    got = []
    for i, pk in enumerate(packings):
        upright = (pk.alpha.numerator, pk.alpha.denominator)
        for m in range(4):
            orthos = [_UPRIGHT[m] if (w, h) == upright else _ROTATED[m]
                      for _, _, w, h in pk.pieces]
            got.append((i, m) + _pinned_row(certify_max_degree(packing_ruleset(pk, orthos), 3)))
    assert got == _PINNED_UNIFORM


# -- the rule-set layouts against the exact frame build ------------------------

def _exact_ruleset_layouts(rs):
    """The slow path: every type's child boxes transformed exactly by the
    type's ortho frame, moved to its min corner and put on the lattice of the
    lcm of their denominators."""
    from math import lcm
    from arrwwid.certify import Layout
    k = 1 / rs.child_scale().as_fraction()
    k = k.numerator if k.denominator == 1 else k
    frames, kids, anchors = {}, {}, {}
    for (rule_name, ortho), addr in rs.reachable_types().items():
        rule = rs.rules[rule_name]
        sim_o = Similarity(1, ortho, (0, 0))
        img = rule.base.transform(sim_o)
        x, y = img.lo
        boxes = []
        for ch in rule.children:
            g = rs.rules[ch.rule].base.transform(sim_o.compose(ch.placement))
            boxes.append(tuple((c - s).as_fraction() for c, s in
                               zip(g.lo + g.hi, (x, y, x, y))))
        key = (rule_name, ortho.key())
        frames[key] = ([e.as_fraction() for e in img.extent()], boxes)
        kids[key] = tuple((ch.rule, ortho.compose(ch.placement.ortho).key())
                          for ch in rule.children)
        anchors[key] = addr
    den = lcm(*(v.denominator for (w, h), boxes in frames.values()
                for v in (w, h, *(c for b in boxes for c in b))))
    layouts = {key: Layout(int(w * den), int(h * den),
                           [tuple(int(c * den) for c in b) for b in boxes], k)
               for key, ((w, h), boxes) in frames.items()}
    return layouts, kids, anchors, den


def _conjugate(rs, ortho):
    """The rule set seen through the linear map `ortho`."""
    g = Similarity(1, ortho, (0,) * rs.dim)
    g_inv = g.inverse()
    rules = {name: Rule(name, rule.base.transform(g),
                        [Child(ch.rule, g.compose(ch.placement).compose(g_inv), ch.reversed)
                         for ch in rule.children])
             for name, rule in rs.rules.items()}
    return RuleSet(rules, rs.unit, rs.name)


def _layout_fields(layouts):
    return [(key, lay.w, lay.h, lay.boxes, lay.k) for key, lay in layouts.items()]


@pytest.mark.parametrize("name", [n for n in catalog.names() if catalog.builtin(n).dim == 2])
def test_ruleset_layouts_match_exact_frames_under_square_symmetries(name):
    from arrwwid.certify import _ruleset_layouts
    for rot in (0, 3, 6, 9):
        for reflect in (False, True):
            rs = _conjugate(catalog.builtin(name).ruleset, Ortho(2, rot, reflect))
            layouts, kids, anchors, den = _ruleset_layouts(rs)
            want_layouts, want_kids, want_anchors, want_den = _exact_ruleset_layouts(rs)
            assert _layout_fields(layouts) == _layout_fields(want_layouts), (rot, reflect)
            assert list(kids.items()) == list(want_kids.items())
            assert list(anchors.items()) == list(want_anchors.items())
            assert den == want_den
