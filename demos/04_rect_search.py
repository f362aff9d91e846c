"""Exhaustive search for the smallest degree-3 uniform rectangular tiling.

Run from the repository root:  python demos/04_rect_search.py
Takes about a second: size 16 with aspect ratio 3/2 has 131072 locally
consistent transform assignments, and a closure runs only on those that no
nogood learned from an earlier refutation covers.
"""

import json
import time

from arrwwid.rectsearch import (count_packings, eligible_ratios, enumerate_packings,
                                search_min_rect_tiling)


def main():
    for t in (4, 9, 16, 25):
        print("size %d: eligible aspect ratios %s"
              % (t, [str(a) for a in eligible_ratios(t)]))
    print()
    from fractions import Fraction
    flat = enumerate_packings(16, Fraction(3, 2))
    every = count_packings(16, Fraction(3, 2), ((3, 2), (2, 3)))
    print("12x8 lattice packings by 3x2 bricks: %d up to symmetry, "
          "%d without a degree-4 crossing" % (every, len(flat)))
    print()

    t0 = time.time()
    report = search_min_rect_tiling(16)
    print("full search through size 16 in %.0fs" % (time.time() - t0))
    print(json.dumps(report.as_dict()["per_ratio"], indent=2))
    for (t, alpha), n in report.closures.items():
        print("t=%d alpha=%s: %d closures run, %d nogoods learned"
              % (t, alpha, n, report.nogoods[t, alpha]))
    print("accepted candidates (up to symmetry):", len(report.accepted))
    for t, alpha, pk, orthos, cert in report.accepted:
        print("  t=%d alpha=%s orthos=%s" % (t, alpha, orthos))


if __name__ == "__main__":
    main()
