"""Point-by-point forms of verifier helpers, kept for the tests.

``verify_planner`` works on row blocks; these give its adversarial queries
as ``ConfigPoint`` pairs and one path's speed spread, so tests can compare
the block code with per-point and per-path references.
"""

import numpy as np

from tcplan.geometry import ConfigPoint
from tcplan.planner_core import Planner
from tcplan.verifier import _speed_probes, _speed_spreads, adversarial_rows


def adversarial_pairs(
    planner: Planner, rng: np.random.Generator, cap: int = 512
) -> list[tuple[ConfigPoint, ConfigPoint]]:
    """``adversarial_rows`` as (start, goal) points."""
    starts, goals = adversarial_rows(planner, rng, cap)
    point = lambda row: ConfigPoint(planner.geometry, row)
    return [(point(a), point(b)) for a, b in zip(zip(*starts), zip(*goals))]


def speed_variation(path) -> float:
    """Worst relative speed spread over one path's constant-speed pieces:
    ``_speed_spreads`` of a one-path bundle."""
    probes, steps = _speed_probes(path.pieces)
    if not steps:
        return 0.0
    rows = path.sample(probes)
    return _speed_spreads(path.geometry, tuple(r[None] for r in rows), steps)[0]
