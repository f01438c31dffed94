#!/usr/bin/env python3
"""Print the complexity-bound table for the whole space catalog."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tcplan.catalog import catalog_space, tc_bounds

SPECS = [
    "convex:3",
    "circle",
    "sphere:2", "sphere:3", "sphere:4", "sphere:5", "sphere:6",
    "torus:2", "torus:3", "torus:4", "torus:5", "torus:6",
    "surface:0", "surface:1", "surface:2", "surface:3",
    "cpn:1", "cpn:2", "cpn:3",
    "product(sphere:2,sphere:2)",
    "product(sphere:2,sphere:2,sphere:2)",
    "product(sphere:3,sphere:3)",
    "product(circle,sphere:2)",
]


def main():
    header = f"{'space':38s} {'dim':>3s} {'rules':>5s} {'lower':>5s} {'upper':>5s} {'exact':>5s}  provenance"
    print(header)
    print("-" * len(header))
    for spec in SPECS:
        descriptor = catalog_space(spec)
        report = tc_bounds(descriptor)
        rules = str(descriptor.rules) if descriptor.rules is not None else "-"
        print(
            f"{spec:38s} {descriptor.geometry_dim:3d} {rules:>5s} "
            f"{report.lower:5d} {report.upper:5d} {str(report.exact):>5s}  "
            f"{report.lower_provenance} / {report.upper_provenance}"
        )


if __name__ == "__main__":
    main()
