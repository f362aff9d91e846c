"""Built-in rule sets with expected-property metadata.

Entries load from rule files in the package data directory (override with the
ARRWWID_DATA environment variable).  Expected values record what the analysis
modules should measure for each entry; the test suite checks them.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .rules import parse_ruleset, RuleError


class CatalogEntry:
    """A named rule set plus the properties the suite verifies for it.

    window_kappa is the canonical-level constant: the level for a query of
    radius r is the one where the tile's reference side length lies in
    (kappa*r, kappa*lambda*r], lambda being the per-level subdivision ratio.
    expected_arrwwid counts tiles for tilings and fragments for orders.
    """

    def __init__(self, name, dim, kind, expected_degree, expected_arrwwid,
                 window_kappa=Fraction(2),
                 edge_connected=None, has_diagonal=None, has_jumps=None,
                 entry_exit=None, notes=""):
        self.name = name
        self.dim = dim
        self.kind = kind                    # "tiling" | "order"
        self.expected_degree = expected_degree
        self.expected_arrwwid = expected_arrwwid
        self.window_kappa = window_kappa
        self.edge_connected = edge_connected
        self.has_diagonal = has_diagonal
        self.has_jumps = has_jumps
        self.entry_exit = entry_exit
        self.notes = notes
        self._ruleset = None

    @property
    def ruleset(self):
        if self._ruleset is None:
            path = os.path.join(data_dir(), self.name + ".rules")
            with open(path, "r", encoding="utf-8") as f:
                self._ruleset = parse_ruleset(f.read(), name=self.name)
        return self._ruleset

    def __repr__(self):
        return "CatalogEntry(%r, %s, dim=%d)" % (self.name, self.kind, self.dim)


def data_dir():
    env = os.environ.get("ARRWWID_DATA")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data")


_F = Fraction

_ENTRIES = {
    "quadtree": CatalogEntry(
        "quadtree", 2, "tiling", expected_degree=4, expected_arrwwid=4,
        window_kappa=_F(2)),
    "daun": CatalogEntry(
        "daun", 2, "tiling", expected_degree=3, expected_arrwwid=3,
        window_kappa=_F(4),
        notes="16 rectangles of aspect ratio 3/2; degree bound is certified"),
    "hilbert": CatalogEntry(
        "hilbert", 2, "order", expected_degree=4, expected_arrwwid=4,
        window_kappa=_F(2),
        edge_connected=True, has_diagonal=False, has_jumps=False,
        entry_exit=((0, 0), (1, 0))),
    "zorder": CatalogEntry(
        "zorder", 2, "order", expected_degree=4, expected_arrwwid=4,
        window_kappa=_F(2),
        edge_connected=False, has_jumps=True,
        entry_exit=((0, 0), (1, 1))),
    "peano": CatalogEntry(
        "peano", 2, "order", expected_degree=4, expected_arrwwid=4,
        window_kappa=_F(2),
        edge_connected=True, has_diagonal=False, has_jumps=False,
        entry_exit=((0, 0), (1, 1))),
    "dekking": CatalogEntry(
        "dekking", 2, "order", expected_degree=4, expected_arrwwid=3,
        window_kappa=_F(2),
        has_jumps=False, has_diagonal=True,
        entry_exit=((0, 0), (1, 0)),
        notes="25-square order; every interior vertex keeps two consecutive "
              "tiles meeting there, hence three fragments suffice"),
    "kochel": CatalogEntry(
        "kochel", 2, "order", expected_degree=4, expected_arrwwid=3,
        window_kappa=_F(2),
        edge_connected=True, has_diagonal=False, has_jumps=False,
        notes="two-rule 9-square order; consecutive tiles always share an edge"),
    "ar2w2": CatalogEntry(
        "ar2w2", 2, "order", expected_degree=4, expected_arrwwid=4,
        window_kappa=_F(2),
        edge_connected=False, has_diagonal=True, has_jumps=False,
        notes="composite 4-square order with diagonal connections; this "
              "reconstruction keeps the diagonal-connection behaviour but "
              "measures worst-case 4 fragments"),
    "coil": CatalogEntry(
        "coil", 2, "order", expected_degree=4, expected_arrwwid=4,
        window_kappa=_F(2),
        edge_connected=True, has_diagonal=False, has_jumps=False),
    "cube": CatalogEntry(
        "cube", 3, "tiling", expected_degree=8, expected_arrwwid=8,
        window_kappa=_F(2)),
    "lifted-daun": CatalogEntry(
        "lifted-daun", 3, "tiling", expected_degree=6, expected_arrwwid=6,
        window_kappa=_F(4),
        notes="four layers of sixteen boxes; each layer is the 16-rectangle "
              "degree-3 layout"),
    "zorder3d": CatalogEntry(
        "zorder3d", 3, "order", expected_degree=8, expected_arrwwid=8,
        window_kappa=_F(2), has_jumps=True),
    "coil3d": CatalogEntry(
        "coil3d", 3, "order", expected_degree=8, expected_arrwwid=None,
        window_kappa=_F(2),
        edge_connected=True, has_jumps=False,
        notes="facet-connected boustrophedon over octants"),
}


def names():
    return sorted(_ENTRIES)


def builtin(name):
    """Load and validate a built-in catalog entry."""
    if name not in _ENTRIES:
        raise KeyError("unknown catalog entry %r (known: %s)"
                       % (name, ", ".join(names())))
    entry = _ENTRIES[name]
    entry.ruleset  # force load; raises RuleError on a broken data file
    return entry


def load(name_or_path):
    """Catalog name, or a path to a rule file."""
    if name_or_path in _ENTRIES:
        return builtin(name_or_path).ruleset
    if os.path.exists(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as f:
            return parse_ruleset(f.read(), name=os.path.basename(name_or_path))
    raise RuleError("no catalog entry or file named %r" % name_or_path)


_FAMILIES = ("hypercube", "lifted-daun", "recursified-shifted", "lower-bound-tiling")


def predicted_arrwwid(family, d):
    """Closed-form worst-case cover sizes per construction family."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if family == "hypercube":
        return 2 ** d
    if family == "lifted-daun":
        return 3 * 2 ** (d - 2)
    if family in ("recursified-shifted", "lower-bound-tiling"):
        return d + 1
    raise KeyError("unknown family %r (known: %s)" % (family, ", ".join(_FAMILIES)))
