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
