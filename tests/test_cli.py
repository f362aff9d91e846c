import json
import xml.etree.ElementTree as ET

import pytest

from arrwwid.cli import main
from arrwwid import catalog


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_lists_builtins(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    names = {row["name"] for row in json.loads(out)}
    assert names == set(catalog.names())


def test_validate_ok_and_exit_codes(capsys):
    code, out = run(capsys, "validate", "--tiling", "daun")
    assert code == 0 and json.loads(out)["valid"]


def test_certify_matches_operation(capsys, daun):
    from arrwwid.certify import certify_max_degree
    code, out = run(capsys, "certify", "--tiling", "daun", "--bound", "3")
    assert code == 0
    payload = json.loads(out)
    cert = certify_max_degree(daun, 3)
    assert payload["status"] == cert.status == "certified"
    assert payload["steps"] == cert.steps


def test_certify_refuted_exit_one(capsys):
    code, out = run(capsys, "certify", "--tiling", "quadtree", "--bound", "3")
    assert code == 1
    assert json.loads(out)["status"] == "counterexample"


def test_certify_bad_budget_exit_two(capsys):
    code = main(["certify", "--tiling", "daun", "--budget", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget" in captured.err


def test_certify_bound4_non_tiling_exit_two(capsys, tmp_path):
    from test_walk import CHILD_OUTSIDE
    path = tmp_path / "outside.rules"
    path.write_text(CHILD_OUTSIDE)
    code = main(["certify", "--tiling", str(path), "--bound", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "valid tiling" in captured.err


def test_unknown_input_exit_two(capsys):
    code, _ = run(capsys, "validate", "--tiling", "nonexistent-thing")
    assert code == 2


def test_unknown_flag_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--no-such-flag"])
    assert exc.value.code == 2


def test_arrwwid_command_dekking(capsys):
    code, out = run(capsys, "arrwwid", "--order", "dekking",
                    "--depths", "2..3", "--seed", "7", "--samples", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_fragments"] == 3


def test_connections_json_equals_operation(capsys, kochel):
    from arrwwid.curves import classify_connections
    code, out = run(capsys, "connections", "--order", "kochel", "--depth", "2")
    assert code == 0
    assert json.loads(out) == classify_connections(kochel, 2).as_dict()


def test_entryexit(capsys):
    code, out = run(capsys, "entryexit", "--order", "hilbert")
    payload = json.loads(out)
    assert payload["entry"] == [0.0, 0.0] and payload["exit"] == [1.0, 0.0]


def test_render_svg_well_formed(capsys):
    code, out = run(capsys, "render", "--tiling", "daun", "--depth", "1",
                    "--format", "svg")
    assert code == 0
    ET.fromstring(out)


def test_recursify_cmd(capsys):
    code, out = run(capsys, "recursify", "--spec", "hex-9", "--levels", "2")
    payload = json.loads(out)
    assert payload["degree"] == 3 and payload["cells_per_label"] == [81]


@pytest.mark.parametrize("spec,levels,want", [
    ("shifted-square", 2,
     {"spec": "shifted-square", "levels": 2, "cells": 5625, "cells_per_label": [625],
      "degree": 3, "disconnected_labels": 0,
      "displacement": {"d1": 0.0666666666667, "factor": 0.2,
                       "d_inf": 0.0833333333333, "safe_radius": 0.0833333333333}}),
    ("shifted-cube", 1,
     {"spec": "shifted-cube", "levels": 1, "cells": 3375, "cells_per_label": [125],
      "degree": 4, "disconnected_labels": 0,
      "displacement": {"d1": 0.0942809041582, "factor": 0.2,
                       "d_inf": 0.117851130198, "safe_radius": 0.0488155364689}}),
])
def test_recursify_cmd_shifted(capsys, spec, levels, want):
    code, out = run(capsys, "recursify", "--spec", spec, "--levels", str(levels))
    assert code == 0 and json.loads(out) == want


def test_predict_cmd(capsys):
    code, out = run(capsys, "predict", "--family", "hypercube", "--dim", "3")
    assert json.loads(out)["arrwwid"] == 8


def test_out_file(tmp_path, capsys):
    path = tmp_path / "o.json"
    code, _ = run(capsys, "degrees", "--tiling", "daun", "--depth", "2",
                  "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["max_interior_degree"] == 3


def test_simulate_csv(capsys):
    code, out = run(capsys, "simulate", "--order", "hilbert", "--order", "zorder",
                    "--points", "500", "--queries", "5", "--ratios", "1,10",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4
    assert "total_cost" in lines[0]


def test_simulate_readme_example_uses_auto_depth(capsys):
    code, out = run(capsys, "simulate", "--order", "coil", "--order", "hilbert",
                    "--order", "zorder", "--order", "dekking",
                    "--points", "300", "--queries", "2")
    assert code == 0
    depths = {row["order"]: row["depth"] for row in json.loads(out)}
    assert depths == {"coil": 4, "hilbert": 6, "zorder": 6, "dekking": 3}


def test_simulate_over_budget_exits_before_any_raster(capsys, monkeypatch):
    import arrwwid.locality

    def no_raster(*args, **kwargs):
        raise AssertionError("a raster was built before the budget check")

    monkeypatch.setattr(arrwwid.locality, "scan_raster", no_raster)
    code = main(["simulate", "--order", "hilbert", "--order", "dekking", "--depth", "6",
                 "--points", "300", "--queries", "2"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("extra,fragments,ratio", [((), 3, 45.8366236105),
                                                   (("--merge-budget", "1000"), 1, 194.805650344)])
def test_cover_cmd_readme_example(capsys, extra, fragments, ratio):
    # stdout of the README `cover` example, as the exact cover path printed it
    code, out = run(capsys, "cover", "--order", "dekking", "--center", "2/5,2/5",
                    "--radius", "1/30", *extra)
    assert code == 0
    want = {"level": 1, "tiles": 4, "fragments": fragments, "cover_ratio": ratio,
            "addresses": [[3], [5], [6], [19]]}
    assert out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("argv", [("catalog",), ("expand", "--tiling", "daun"),
                                  ("certify", "--tiling", "daun"),
                                  ("connections", "--order", "kochel", "--depth", "1"),
                                  ("search-rect", "--t-max", "4")])
def test_format_rejected_where_it_is_not_read(capsys, argv):
    # only simulate (json, csv) and render (svg) read --format
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "--format" in captured.err


def _connections_json(name, depth):
    from test_lattice_analyses import exact_catalog
    return exact_catalog(name, depth).connections


def _degrees_json(name, depth):
    from test_lattice_analyses import _exact_degrees, _exact_vertex_index
    from arrwwid.expand import expand
    rs = catalog.builtin(name).ruleset
    interior, boundary = _exact_degrees(rs, _exact_vertex_index(expand(rs, depth).tiles))
    return {"max_interior_degree": max((d for _, d in interior), default=0),
            "max_boundary_degree": max((d for _, d in boundary), default=0),
            "interior_vertices": len(interior)}


def _audit_json(name, depth):
    from test_lattice_analyses import exact_catalog
    rows = exact_catalog(name, depth).audits
    return {"vertices": len(rows),
            "max_tiles_v": max((tiles for _, tiles, _, _, _ in rows), default=0),
            "min_ends_v": min((ends for _, _, ends, _, _ in rows), default=0),
            "vertices_with_degenerate_bridge": sum(1 for row in rows if row[3] > 0)}


def _cli_case(cmd, flag, name, depth, want, *marks):
    return pytest.param(cmd, flag, name, depth, want, marks=marks,
                        id="%s-%s-%d" % (cmd, name, depth))


@pytest.mark.parametrize("cmd,flag,name,depth,want", [
    _cli_case("connections", "--order", "kochel", 2, _connections_json),
    _cli_case("connections", "--order", "dekking", 2, _connections_json),
    _cli_case("degrees", "--tiling", "daun", 2, _degrees_json),
    _cli_case("degrees", "--tiling", "lifted-daun", 1, _degrees_json),
    _cli_case("audit", "--order", "coil3d", 2, _audit_json),
    # the exact audit of 15,625 tiles takes seconds
    _cli_case("audit", "--order", "dekking", 3, _audit_json, pytest.mark.slow),
])
def test_analysis_stdout_is_the_json_of_the_exact_paths(capsys, cmd, flag, name, depth, want):
    code, out = run(capsys, cmd, flag, name, "--depth", str(depth))
    assert code == 0
    assert out == json.dumps(want(name, depth), indent=2) + "\n"
