#!/usr/bin/env python3
"""Run the full verification harness over every planner-backed catalog space."""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tcplan.catalog import catalog_space
from tcplan.planner_core import build_planner
from tcplan.verifier import VerifyConfig, reconcile, verify_planner

SPECS = [
    "convex:3",
    "circle",
    "sphere:2",
    "sphere:3",
    "torus:2",
    "torus:3",
    "torus:4",
    "product(sphere:2,sphere:2)",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=VerifyConfig.pairs)
    parser.add_argument("--seed", type=int, default=VerifyConfig.seed)
    args = parser.parse_args()
    try:
        cfg = VerifyConfig(seed=args.seed, pairs=args.pairs)
    except ValueError as err:  # a bad argument: exit 2 with one line, as argparse does
        parser.exit(2, f"{parser.prog}: error: {err}\n")

    all_ok = True
    for spec in SPECS:
        planner = build_planner(spec)
        start = time.monotonic()
        report = verify_planner(planner, cfg)
        elapsed = time.monotonic() - start
        descriptor = catalog_space(spec)
        recon = ""
        if descriptor.known_tc is not None:
            reconcile(planner, descriptor)
            recon = f" rules={len(planner.rules)}==tc"
        usage = ",".join(str(report.rule_usage[k]) for k in sorted(report.rule_usage))
        print(
            f"{spec:30s} {'PASS' if report.passed else 'FAIL'}  "
            f"end={report.max_endpoint_error:.1e} K={report.max_continuity_ratio:6.1f} "
            f"norm={report.max_norm_error:.1e} usage=[{usage}]{recon} ({elapsed:.1f}s)"
        )
        all_ok &= report.passed
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
