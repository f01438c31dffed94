#!/usr/bin/env python3
"""Show the unavoidable planner discontinuity at rule boundaries.

Two families of queries approach the antipodal boundary of the shortest-arc
rule from opposite sides; the emitted paths stay a half-turn apart no matter
how small the offset, which is exactly why a single continuous rule cannot
cover these spaces.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tcplan.planner_core import circle_planner, sphere_planner
from tcplan.verifier import (
    circle_antipodal_families,
    demonstrate_discontinuity,
    sphere_antipodal_families,
)


def show(name, planner, families):
    report = demonstrate_discontinuity(planner, 1, *families)
    print(f"{name}: rule 1 path gap by boundary offset")
    for eps, gap in zip(report.offsets, report.gaps):
        print(f"    offset {eps:7.1e}  ->  sup path distance {gap:.6f}")
    print(f"    minimum gap {report.min_gap:.6f} (stays far from zero)\n")


def main():
    circle = circle_planner()
    show("circle", circle, circle_antipodal_families(circle))
    sphere = sphere_planner(2)
    show("sphere:2", sphere, sphere_antipodal_families(sphere))


if __name__ == "__main__":
    main()
