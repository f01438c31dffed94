import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
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


DEMO_GOLDEN = ROOT / "tests" / "golden" / "discontinuity_demo.txt"


def discontinuity_demo_output():
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "discontinuity_demo.py")],
        capture_output=True,
        check=True,
    ).stdout


def test_discontinuity_demo_matches_golden():
    """The boundary gaps the demo prints are part of the output contract."""
    assert discontinuity_demo_output() == DEMO_GOLDEN.read_bytes()


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


VERIFY_GOLDEN = ROOT / "tests" / "golden" / "verify_seed42_pairs200.jsonl"


def verify_output(spec, pairs, seed=42):
    """`tcplan verify <spec> --seed <seed> --pairs <pairs>` stdout."""
    return subprocess.run(
        [sys.executable, "-m", "tcplan.cli", "verify", spec, "--seed", str(seed), "--pairs", str(pairs)],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout


@pytest.mark.parametrize("line", range(len(VERIFY_SPECS)), ids=VERIFY_SPECS)
def test_verify_matches_golden(line):
    """Verify reports are part of the output contract: byte-identical."""
    golden = VERIFY_GOLDEN.read_bytes()
    assert verify_output(VERIFY_SPECS[line], 200) == golden.splitlines(keepends=True)[line]


# Runs long enough to span several verifier blocks (VERIFY_BATCH queries
# each): 600 random pairs plus the adversarial injection, 627 queries on
# torus:3 and 649 on the product of two 2-spheres.  Each line of the golden
# file is the `tcplan verify <spec> --seed 42 --pairs 600` stdout.
BLOCK_SPECS = ["torus:3", "product(sphere:2,sphere:2)"]
BLOCK_PAIRS = 600
BLOCK_GOLDEN = ROOT / "tests" / "golden" / "verify_seed42_pairs600.jsonl"


@pytest.mark.parametrize("line", range(len(BLOCK_SPECS)), ids=BLOCK_SPECS)
def test_verify_across_blocks_matches_golden(line):
    from tcplan.verifier import VERIFY_BATCH

    golden = BLOCK_GOLDEN.read_bytes().splitlines(keepends=True)[line]
    assert json.loads(golden)["pairs_checked"] > 2 * VERIFY_BATCH
    assert verify_output(BLOCK_SPECS[line], BLOCK_PAIRS) == golden


# A deep and a mixed product, where a full leaf-rule tuple is shared by
# fewest queries, and a left-deep chain over one shared leaf: each line of
# the golden file is the `tcplan verify <spec> --seed <seed> --pairs 2000`
# stdout, for each spec and then each seed.
DEEP_SPECS = [
    "product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)",
    "product(circle,sphere:3,sphere:2,convex:2)",
    "torus:8",
]
DEEP_SEEDS = (1, 42)
DEEP_PAIRS = 2000
DEEP_GOLDEN = ROOT / "tests" / "golden" / "verify_deep_pairs2000.jsonl"
DEEP_RUNS = list(itertools.product(DEEP_SPECS, DEEP_SEEDS))


@pytest.mark.parametrize("line", range(len(DEEP_RUNS)), ids=[f"{s}-{n}" for s, n in DEEP_RUNS])
def test_verify_deep_products_match_golden(line):
    spec, seed = DEEP_RUNS[line]
    golden = DEEP_GOLDEN.read_bytes().splitlines(keepends=True)[line]
    assert verify_output(spec, DEEP_PAIRS, seed) == golden


# Criterion 4 of tests/test_acceptance.py: each line of the golden file is the
# `as_dict()` JSON of `verify_planner` at seed 42 and 10^4 pairs on one of
# VERIFY_SPECS, in order.
ACCEPTANCE_PAIRS = 10_000
ACCEPTANCE_GOLDEN = ROOT / "tests" / "golden" / "verify_seed42_pairs10000.jsonl"


def acceptance_reports():
    """The lines of ACCEPTANCE_GOLDEN, computed in this process."""
    from tcplan.planner_core import build_planner
    from tcplan.verifier import VerifyConfig, verify_planner

    cfg = VerifyConfig(seed=42, pairs=ACCEPTANCE_PAIRS)
    return "".join(
        json.dumps(verify_planner(build_planner(spec), cfg).as_dict()) + "\n" for spec in VERIFY_SPECS
    )


def test_verify_catalog_script_passes():
    """Every acceptance planner passes and reconciles (timings vary, unchecked)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_catalog.py"), "--pairs", "50"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == VERIFY_SPECS
    assert all(" PASS " in line and "==tc" in line for line in lines)


@pytest.mark.parametrize("argv", [["--pairs", "0"], ["--seed", "-5"]], ids=["pairs", "seed"])
def test_verify_catalog_script_rejects_bad_arguments(argv):
    """A bad argument exits 2 (not 1, "verification failed") with one line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_catalog.py"), *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert "bad verify config" in proc.stderr


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


# `tcplan algebra --file` over the presentations of the bounds-mixed algebra
# requests (each written by `algebra_to_presentation`) and one presentation
# with non-integral structure constants.  Each line of
# tests/golden/algebra_file.jsonl is the stdout of one file in canonical, then
# --exhaustive, mode at --max-len 4: the witness and product coefficients.
ALGEBRA_SPECS = [
    "sphere:2",
    "sphere:3",
    "torus:2",
    "surface:2",
    "cpn:2",
    "cpn:3",
    "cpn:5",
    "product(sphere:2,sphere:3)",
]
RATIONAL_PRESENTATION = {
    "name": "rational",
    "basis": [
        {"name": "1", "degree": 0},
        {"name": "x", "degree": 1},
        {"name": "y", "degree": 1},
        {"name": "a", "degree": 2},
        {"name": "b", "degree": 4},
        {"name": "c", "degree": 6},
        {"name": "A", "degree": 2},
    ],
    "unit": "1",
    "products": [
        {"left": "x", "right": "y", "result": [{"name": "A", "coeff": "3/2"}]},
        {"left": "a", "right": "a", "result": [{"name": "b", "coeff": "2"}]},
        {"left": "a", "right": "b", "result": [{"name": "c", "coeff": "1/3"}]},
    ],
}
ALGEBRA_GOLDEN = ROOT / "tests" / "golden" / "algebra_file.jsonl"


def algebra_file_output(tmp_dir):
    from tcplan.catalog import catalog_space
    from tcplan.cli import main
    from tcplan.graded_algebra import algebra_to_presentation

    presentations = [algebra_to_presentation(catalog_space(s).algebra) for s in ALGEBRA_SPECS]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for i, data in enumerate(presentations + [RATIONAL_PRESENTATION]):
            path = Path(tmp_dir) / f"algebra-{i}.json"
            path.write_text(json.dumps(data))
            for mode in ([], ["--exhaustive"]):
                argv = ["algebra", "--file", str(path), "--max-len", "4", *mode]
                assert main(argv) == 0, argv
    return out.getvalue().encode()


def test_algebra_file_matches_golden(tmp_path):
    """Cup-length witnesses and their exact coefficients are part of the output contract."""
    assert algebra_file_output(tmp_path) == ALGEBRA_GOLDEN.read_bytes()


if __name__ == "__main__":
    # Rewrite the verify, acceptance, plan-products, bounds-grammar, algebra-file
    # and discontinuity-demo golden files (only at a commit whose output is known good):
    #     PYTHONPATH=src python tests/test_scripts.py
    VERIFY_GOLDEN.write_bytes(b"".join(verify_output(spec, 200) for spec in VERIFY_SPECS))
    BLOCK_GOLDEN.write_bytes(b"".join(verify_output(spec, BLOCK_PAIRS) for spec in BLOCK_SPECS))
    DEEP_GOLDEN.write_bytes(b"".join(verify_output(s, DEEP_PAIRS, n) for s, n in DEEP_RUNS))
    ACCEPTANCE_GOLDEN.write_text(acceptance_reports())
    PLAN_GOLDEN.write_text("".join(line for spec in PLAN_SPECS
                                   for line in plan_products_lines(spec)))
    BOUNDS_GOLDEN.write_bytes(bounds_grammar_output())
    with tempfile.TemporaryDirectory() as tmp:
        ALGEBRA_GOLDEN.write_bytes(algebra_file_output(tmp))
    DEMO_GOLDEN.write_bytes(discontinuity_demo_output())
