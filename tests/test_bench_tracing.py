"""The traced benchmark run wraps program functions by module and name.

`bench/tracing.py` looks each of them up when it installs its wrappers, so a
renamed or deleted function breaks `bench/run.py --trace 1`; this test fails
first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.SPANS.items():
        mod = importlib.import_module("arrwwid." + module)
        for name in names:
            assert callable(getattr(mod, name, None)), "arrwwid.%s.%s" % (module, name)
    # the two class attributes the tracer also replaces
    from arrwwid.expand import TileSet
    from arrwwid.transforms import Similarity
    assert isinstance(TileSet.__dict__["vertex_index"], property)
    assert callable(Similarity.compose)
