import pytest

from arrwwid import catalog
from arrwwid.rules import validate_ruleset
from arrwwid.expand import max_interior_degree_fast, expand, vertex_degrees
from arrwwid.curves import entry_exit, classify_connections
from arrwwid.exact import coord


def test_all_entries_load_and_validate():
    for name in catalog.names():
        entry = catalog.builtin(name)
        rep = validate_ruleset(entry.ruleset)
        assert rep.valid, (name, rep.issues)


def test_expected_degrees():
    for name in catalog.names():
        entry = catalog.builtin(name)
        depths = (1, 2, 3) if entry.dim == 2 else (1, 2)
        for depth in depths:
            got = max_interior_degree_fast(entry.ruleset, depth)
            assert got == entry.expected_degree, (name, depth, got)


def test_entry_exit_and_edge_connected_metadata():
    # entry_exit where set is the unit rule's gates; edge_connected=True means
    # no diagonal and no jump connection at depths 1-3 (1-2 in 3D), False
    # means some
    checked = 0
    for name in catalog.names():
        entry = catalog.builtin(name)
        if entry.entry_exit is not None:
            assert entry_exit(entry.ruleset) == tuple(
                tuple(coord(v) for v in point) for point in entry.entry_exit), name
            checked += 1
        if entry.edge_connected is None:
            continue
        depths = (1, 2, 3) if entry.dim == 2 else (1, 2)
        stats = [classify_connections(entry.ruleset, depth) for depth in depths]
        loose = sum(st.diagonal + st.jump for st in stats)
        assert (loose == 0) == entry.edge_connected, (name, loose)
        checked += 1
    assert checked == 11


def test_dekking_gate_guard():
    entry = catalog.builtin("dekking")
    e, x = entry_exit(entry.ruleset)
    assert tuple(map(float, e)) == (0.0, 0.0)
    assert tuple(map(float, x)) == (1.0, 0.0)


def test_kochel_edge_guard():
    rs = catalog.builtin("kochel").ruleset
    assert len(rs.rules) == 2
    for depth in (1, 2, 3):
        st = classify_connections(rs, depth)
        assert st.diagonal == 0 and st.jump == 0


def test_ar2w2_diagonal_guard():
    rs = catalog.builtin("ar2w2").ruleset
    assert len(rs.rules) == 2
    assert classify_connections(rs, 2).diagonal > 0


def test_zorder_jump_guard():
    assert classify_connections(catalog.builtin("zorder").ruleset, 2).jump > 0


def test_unknown_entry():
    with pytest.raises(KeyError):
        catalog.builtin("sierpinski")


def test_load_accepts_paths(tmp_path):
    from arrwwid.rules import serialize_ruleset
    rs = catalog.builtin("quadtree").ruleset
    p = tmp_path / "q.rules"
    p.write_text(serialize_ruleset(rs))
    assert catalog.load(str(p)) == rs


def test_data_dir_override(tmp_path, monkeypatch):
    from arrwwid.rules import serialize_ruleset
    import arrwwid.catalog as cat
    rs = cat.builtin("quadtree").ruleset
    (tmp_path / "quadtree.rules").write_text(serialize_ruleset(rs))
    monkeypatch.setenv("ARRWWID_DATA", str(tmp_path))
    assert cat.data_dir() == str(tmp_path)


def test_predicted_arrwwid_formulas():
    assert catalog.predicted_arrwwid("hypercube", 2) == 4
    assert catalog.predicted_arrwwid("hypercube", 3) == 8
    assert catalog.predicted_arrwwid("lifted-daun", 2) == 3
    assert catalog.predicted_arrwwid("lifted-daun", 3) == 6
    assert catalog.predicted_arrwwid("recursified-shifted", 2) == 3
    assert catalog.predicted_arrwwid("recursified-shifted", 3) == 4
    assert catalog.predicted_arrwwid("lower-bound-tiling", 5) == 6
    with pytest.raises(ValueError):
        catalog.predicted_arrwwid("hypercube", 1)
    with pytest.raises(KeyError):
        catalog.predicted_arrwwid("moore", 2)


def test_daun_matches_certified_bound(daun):
    from arrwwid.certify import certify_max_degree
    # the 2D table value for the lifted family equals the certified bound
    assert catalog.predicted_arrwwid("lifted-daun", 2) == 3
    assert certify_max_degree(daun, 3).certified


def test_hypercube_prediction_matches_quadtree_estimate(quadtree):
    from arrwwid.cover import estimate_arrwwid, SamplePlan
    est = estimate_arrwwid(quadtree, SamplePlan(depths=(2, 3), n_random=50, seed=2),
                           is_order=False)
    assert catalog.predicted_arrwwid("hypercube", 2) == 4 == est.max_tiles
