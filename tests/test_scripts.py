import contextlib
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bounds_table_matches_golden():
    """The catalog bounds table is part of the output contract: byte-identical."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bounds_table.py")],
        capture_output=True,
        check=True,
    ).stdout
    assert out == (ROOT / "tests" / "golden" / "bounds_table.txt").read_bytes()


# The acceptance planners of scripts/verify_catalog.py; each line of the golden
# file is `tcplan verify <spec> --seed 42 --pairs 200` stdout.
VERIFY_SPECS = [
    "convex:3",
    "circle",
    "sphere:2",
    "sphere:3",
    "torus:2",
    "torus:3",
    "torus:4",
    "product(sphere:2,sphere:2)",
]


@pytest.mark.parametrize("line", range(len(VERIFY_SPECS)), ids=VERIFY_SPECS)
def test_verify_matches_golden(line):
    """Verify reports are part of the output contract: byte-identical."""
    out = subprocess.run(
        [sys.executable, "-m", "tcplan.cli", "verify", VERIFY_SPECS[line],
         "--seed", "42", "--pairs", "200"],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    golden = (ROOT / "tests" / "golden" / "verify_seed42_pairs200.jsonl").read_bytes()
    assert out == golden.splitlines(keepends=True)[line]


# The product planners of the plan-products benchmark workload; each query of
# `plan_products_lines()` is one line of tests/golden/plan_products.txt.
PLAN_SPECS = [
    "torus:2",
    "torus:4",
    "torus:6",
    "torus:8",
    "product(sphere:2,sphere:2)",
    "product(sphere:2,sphere:2,sphere:2)",
    "product(sphere:2,sphere:2,sphere:2,sphere:2)",
    "product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)",
    "product(circle,sphere:3,sphere:2,convex:2)",
]
PLAN_QUERIES = 40
PLAN_GOLDEN = ROOT / "tests" / "golden" / "plan_products.txt"


def plan_products_lines(spec):
    """Seeded `plan` queries on one product planner, one text line each.

    Every fourth query sets some goal factors equal to (or, on spheres,
    antipodal to) the start's, so ties reach deep into the product.  A line
    holds the rule index, the decision's weights as `float.hex`, the tie
    cell and the `repr` of the 17 path samples.
    """
    import numpy as np

    from tcplan.geometry import make_point
    from tcplan.planner_core import build_planner, sample_path

    planner = build_planner(spec)
    factors = planner.geometry.factors
    rng = np.random.default_rng(PLAN_SPECS.index(spec))

    def part(factor):
        if factor.kind == "sphere":
            v = rng.standard_normal(factor.ambient)
            return v / np.linalg.norm(v)
        return rng.uniform(-1.0, 1.0, factor.ambient)

    lines = []
    for query in range(PLAN_QUERIES):
        a = [part(f) for f in factors]
        b = [part(f) for f in factors]
        if query % 4 == 0:
            count = int(rng.integers(1, len(factors) + 1))
            for i in sorted(rng.choice(len(factors), size=count, replace=False)):
                antipodal = factors[i].kind == "sphere" and rng.random() < 0.5
                b[i] = -a[i] if antipodal else a[i].copy()
        a, b = make_point(planner.geometry, a), make_point(planner.geometry, b)
        decision = planner.decide(a, b)
        index, weights, cell = decision.index, decision.weights, decision.cell
        samples = sample_path(planner.path(decision, index), 17)
        coords = [(t, p.flat.tolist()) for t, p in samples]
        hexed = [w.hex() for w in weights]
        lines.append(f"{spec} {query} {index} {hexed} {cell} {coords!r}\n")
    return lines


@pytest.mark.parametrize("spec", PLAN_SPECS)
def test_plan_products_match_golden(spec):
    """Deep-product decisions and paths are part of the output contract."""
    golden = [line for line in PLAN_GOLDEN.read_text().splitlines(keepends=True)
              if line.startswith(spec + " ")]
    assert plan_products_lines(spec) == golden


# The bounds-mixed benchmark grammar: its 28 leaves, every ordered pair of
# total Betti rank <= 32 (<= 16 with a convex factor), and a few alias
# spellings.  Each line of tests/golden/bounds_grammar.jsonl is the
# `tcplan bounds <spec>` stdout of one spec.
BOUNDS_LEAVES = (
    [("circle", None)]
    + [("sphere", n) for n in range(1, 7)]
    + [("torus", n) for n in range(2, 7)]
    + [("surface", g) for g in range(8)]
    + [("cpn", n) for n in range(1, 6)]
    + [("convex", n) for n in range(1, 4)]
)
BOUNDS_ALIASES = [
    "torus:1",
    "surface:0",
    "surface:1",
    "product(surface:1,torus:1,convex:2)",
    "product(product(circle,circle),torus:3)",
]
BOUNDS_GOLDEN = ROOT / "tests" / "golden" / "bounds_grammar.jsonl"


def bounds_grammar_specs():
    betti = {"circle": 2, "sphere": 2, "convex": 1}

    def rank(leaf):
        kind, p = leaf
        return betti.get(kind) or {"torus": 2**p, "surface": 2 * p + 2, "cpn": p + 1}[kind]

    def text(leaf):
        kind, p = leaf
        return kind if p is None else f"{kind}:{p}"

    specs = [text(leaf) for leaf in BOUNDS_LEAVES]
    for a, b in itertools.product(BOUNDS_LEAVES, repeat=2):
        cap = 16 if "convex" in (a[0], b[0]) else 32
        if rank(a) * rank(b) <= cap:
            specs.append(f"product({text(a)},{text(b)})")
    return specs + [s for s in BOUNDS_ALIASES if s not in specs]


def bounds_grammar_output():
    from tcplan.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for spec in bounds_grammar_specs():
            assert main(["bounds", spec]) == 0, spec
    return out.getvalue().encode()


def test_bounds_grammar_matches_golden():
    """Bounds over the benchmark grammar are part of the output contract."""
    assert len(bounds_grammar_specs()) == 574
    assert bounds_grammar_output() == BOUNDS_GOLDEN.read_bytes()


if __name__ == "__main__":
    # Rewrite the plan-products and bounds-grammar golden files (only at a
    # commit whose output is known good):  PYTHONPATH=src python tests/test_scripts.py
    PLAN_GOLDEN.write_text("".join(line for spec in PLAN_SPECS
                                   for line in plan_products_lines(spec)))
    BOUNDS_GOLDEN.write_bytes(bounds_grammar_output())
