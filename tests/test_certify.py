from fractions import Fraction

import pytest

from arrwwid.certify import certify_max_degree, UnsupportedShapeError
from arrwwid.expand import expand, vertex_degrees, max_interior_degree_fast
from arrwwid.rules import parse_ruleset


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
