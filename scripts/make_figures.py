"""Render the standard gallery of gasket figures.

One SVG per (ratio, depth) pair: the golden gasket with and without the
hole/overlap overlays, the index-3 and index-4 ratios, a ratio past the
golden one where only radial holes survive, and the classical half case.
"""

import argparse
import dataclasses
import os
import sys

from goldengasket.attractor import RenderOptions, render_svg
from goldengasket.exact import multinacci
from fractions import Fraction


GALLERY = [
    ("golden_level6", lambda: multinacci(2), 6, RenderOptions()),
    (
        "golden_overlays",
        lambda: multinacci(2),
        5,
        RenderOptions(radial_holes=True, overlap_regions=True),
    ),
    ("index3_level6", lambda: multinacci(3), 6, RenderOptions()),
    ("index4_level5", lambda: multinacci(4), 5, RenderOptions()),
    (
        "radial_065_level6",
        lambda: Fraction(13, 20),
        6,
        RenderOptions(radial_holes=True),
    ),
    ("half_level6", lambda: Fraction(1, 2), 6, RenderOptions()),
]


def run(outdir, size):
    os.makedirs(outdir, exist_ok=True)
    for name, lam, depth, options in GALLERY:
        options = dataclasses.replace(options, size=size)
        target = os.path.join(outdir, name + ".svg")
        render_svg(lam(), n=depth, path=target, options=options)
        print(target)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--size", type=int, default=640)
    args = ap.parse_args()
    return run(args.outdir, args.size)


if __name__ == "__main__":
    sys.exit(main())
