import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bounds_table_matches_golden():
    """The catalog bounds table is part of the output contract: byte-identical."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bounds_table.py")],
        capture_output=True,
        check=True,
    ).stdout
    assert out == (ROOT / "tests" / "golden" / "bounds_table.txt").read_bytes()
