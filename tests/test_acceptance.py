"""Acceptance suite: each test pins one release criterion at its stated
tolerance and prints a one-line verdict.  Run with `pytest -s` to see the
lines; every numeric expectation here is exact arithmetic or a frozen
closed-form value, never a tuned constant."""

import json
import math
import time
from pathlib import Path

import numpy as np

from tcplan.catalog import catalog_space, tc_bounds
from tcplan.geometry import ConfigPoint, config_distance
from tcplan.graded_algebra import canonical_divisor, tensor_product, zdcl
from tcplan.planner_core import build_planner, plan, punctured_plane_planner
from tcplan.verifier import (
    DELTA,
    MARGIN_ETA,
    TOLERANCE,
    VerifyConfig,
    circle_antipodal_families,
    demonstrate_discontinuity,
    reconcile,
    sphere_antipodal_families,
    verify_planner,
)


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_algebraic_identities():
    """Canonical-divisor products match their closed forms, exactly and fast."""
    checks = []

    def timed(check):
        start = time.monotonic()
        ok = check()
        checks.append(ok and time.monotonic() - start < 1.0)

    def square_of_divisor_on_sphere(n, coeff):
        algebra = catalog_space(f"sphere:{n}").algebra
        square = tensor_product(algebra, algebra)
        a = canonical_divisor(square, "u")
        expected = square.simple("u", "u").scale(coeff)
        return a * a == expected

    timed(lambda: square_of_divisor_on_sphere(2, -2))
    timed(lambda: square_of_divisor_on_sphere(3, 0))

    def projective_power(n):
        algebra = catalog_space(f"cpn:{n}").algebra
        square = tensor_product(algebra, algebra)
        a = canonical_divisor(square, "u")
        power = square.one
        for _ in range(2 * n):
            power = power * a
        top = "u" if n == 1 else f"u^{n}"
        coeff = (-1) ** n * math.comb(2 * n, n)
        return power == square.simple(top, top).scale(coeff)

    for n in range(1, 5):
        timed(lambda n=n: projective_power(n))

    def genus2_witness():
        sigma = catalog_space("surface:2").algebra
        square = tensor_product(sigma, sigma)
        product = square.one
        for g in ("u1", "v1", "u2", "v2"):
            product = product * canonical_divisor(square, g)
        return product == square.simple("A", "A").scale(2)

    timed(genus2_witness)
    report(1, all(checks),
           f"{len(checks)} exact divisor identities, each under 1s")


def test_criterion_2_cup_length_values():
    """Exact cup-length table: spheres by parity, tori, sphere products."""
    start = time.monotonic()
    ok = True
    for n in (1, 3, 5, 7):
        ok &= zdcl(catalog_space(f"sphere:{n}").algebra).length == 1
    for n in (2, 4, 6):
        ok &= zdcl(catalog_space(f"sphere:{n}").algebra).length == 2
    for n in range(1, 5):
        algebra = catalog_space(f"torus:{n}").algebra
        ok &= zdcl(algebra).length == n
    for n in range(1, 4):
        spec = "sphere:2" if n == 1 else "product(" + ",".join(["sphere:2"] * n) + ")"
        algebra = catalog_space(spec).algebra
        ok &= zdcl(algebra).length == 2 * n
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 30.0, f"cup-length table exact ({elapsed:.2f}s, budget 30s)")


def test_criterion_3_bounds_exactness():
    """Lower and upper bounds close on the known value across the catalog."""
    expectations = {}
    for n in range(1, 7):
        expectations[f"sphere:{n}"] = 2 if n % 2 else 3
    for n in range(1, 7):
        expectations[f"torus:{n}"] = n + 1
    for n in range(1, 4):
        spec = "sphere:2" if n == 1 else "product(" + ",".join(["sphere:2"] * n) + ")"
        expectations[spec] = 2 * n + 1
    expectations.update({"surface:0": 3, "surface:1": 3, "surface:2": 5, "surface:3": 5})

    failures = []
    for spec, value in expectations.items():
        bounds = tc_bounds(catalog_space(spec))
        if not (bounds.exact and bounds.lower == value):
            failures.append(f"{spec}: ({bounds.lower}, {bounds.upper}) != {value}")
    report(3, not failures, f"{len(expectations)} exact values" + ("; " + "; ".join(failures) if failures else ""))


# One line per criterion-4 planner, in order: its report's as_dict() JSON
# (written by tests/test_scripts.py).
CRITERION_4_GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_seed42_pairs10000.jsonl"


def test_criterion_4_planner_contracts():
    """Default-config verification and reconciliation across all planners,
    each report byte-identical to its golden line."""
    specs = ["convex:3", "circle", "sphere:2", "sphere:3", "torus:2", "torus:3",
             "torus:4", "product(sphere:2,sphere:2)"]
    cfg = VerifyConfig(seed=42, pairs=10_000)
    assert (DELTA, MARGIN_ETA, TOLERANCE) == (1e-4, 0.1, 1e-9)
    golden = CRITERION_4_GOLDEN.read_text().splitlines()
    assert len(golden) == len(specs)
    start = time.monotonic()
    failures = []
    times = []  # each planner's verify time
    for spec, line in zip(specs, golden):
        planner = build_planner(spec)
        verify_start = time.monotonic()
        rep = verify_planner(planner, cfg)
        times.append(f"{spec} {time.monotonic() - verify_start:.1f}s")
        if json.dumps(rep.as_dict()) != line:
            failures.append(f"{spec}: report differs from {CRITERION_4_GOLDEN.name}")
        if not rep.passed:
            failures.append(f"{spec}: checks failed {rep.as_dict()}")
            continue
        reconcile(planner, catalog_space(spec))
    elapsed = time.monotonic() - start
    report(4, not failures and elapsed < 120.0,
           f"{len(specs)} planners verified and reconciled ({elapsed:.1f}s, budget 120s: "
           + ", ".join(times) + ")"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_5_oracle_equivalence():
    """Exhaustive kernel-basis search agrees with the canonical search."""
    start = time.monotonic()
    cases = ["sphere:1", "sphere:2", "sphere:3", "torus:2", "cpn:1"]
    ok = True
    for spec in cases:
        algebra = catalog_space(spec).algebra
        canonical = zdcl(algebra, mode="canonical", max_len=4)
        exhaustive = zdcl(algebra, mode="exhaustive", max_len=4)
        ok &= canonical.length == exhaustive.length
    elapsed = time.monotonic() - start
    report(5, ok and elapsed < 60.0,
           f"canonical == exhaustive on {', '.join(cases)} ({elapsed:.2f}s, budget 60s)")


def test_criterion_6_discontinuity_gaps():
    """Boundary approach families keep a path gap >= 1 over three decades."""
    circle = build_planner("circle")
    fam_a, fam_b = circle_antipodal_families(circle)
    circle_report = demonstrate_discontinuity(circle, 1, fam_a, fam_b)

    sphere = build_planner("sphere:2")
    fam_a, fam_b = sphere_antipodal_families(sphere)
    sphere_report = demonstrate_discontinuity(sphere, 1, fam_a, fam_b)

    circle_at_milli = dict(zip(circle_report.offsets, circle_report.gaps))[1e-3]
    sphere_at_milli = dict(zip(sphere_report.offsets, sphere_report.gaps))[1e-3]
    ok = (
        circle_at_milli >= 1.0
        and sphere_at_milli >= 1.0
        and circle_report.min_gap >= 1.0
        and sphere_report.min_gap >= 1.0
    )
    report(6, ok,
           f"gaps at 1e-3: circle {circle_at_milli:.3f}, sphere {sphere_at_milli:.3f}; "
           f"minima over 1e-1..1e-4: {circle_report.min_gap:.3f}, {sphere_report.min_gap:.3f}")


def test_criterion_7_transfer_planner_end_to_end():
    """Homotopy-transferred planner on the punctured plane: full contract."""
    planner = punctured_plane_planner()
    ok = len(planner.rules) == 2
    (rows,) = planner.point_sampler(np.random.default_rng(42), 20_000)
    points = [ConfigPoint(planner.geometry, (row,)) for row in rows]
    worst_end = 0.0
    min_radius = math.inf
    for a, b in zip(points[0::2], points[1::2]):
        result = plan(planner, a, b)
        worst_end = max(
            worst_end,
            config_distance(result.path(0.0), a),
            config_distance(result.path(1.0), b),
        )
        for t in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9):
            min_radius = min(min_radius, float(np.linalg.norm(result.path(t).parts[0])))
    ok = ok and worst_end <= 1e-9 and min_radius > 1e-6
    report(7, ok,
           f"2 rules, worst endpoint error {worst_end:.2e}, min radius {min_radius:.3f}")
