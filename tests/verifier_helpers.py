"""Point-by-point forms of verifier helpers, kept for the tests.

``verify_planner`` works on row blocks; these give its adversarial queries
as ``ConfigPoint`` pairs and one path's speed spread, so tests can compare
the block code with per-point and per-path references.  The menu digits of
one adversarial index are the per-index form the verifier's own replaced,
and ``packed_tie_cell_rows``, which builds every cell's members, is the
eager form of ``planner_core._tie_cell_rows``.  ``max_tie_cells`` is one
query's tie-cell analysis as it was written with ``max`` and a product per
cell, the oracle of ``planner_core._tie_cells``.
"""

import numpy as np

from tcplan.geometry import ConfigPoint
from tcplan.planner_core import Planner
from tcplan.verifier import _speed_probes, _speed_spreads, adversarial_rows


def menu_digits(menus: list[list], index: int) -> list[int]:
    """The position in each menu of entry ``index`` of
    ``itertools.product(*menus)`` (last menu fastest), without building
    the product."""
    digits = []
    for menu in reversed(menus):
        index, digit = divmod(index, len(menu))
        digits.append(digit)
    return digits[::-1]


def max_threshold_sets(values: tuple[float, ...]):
    """``planner_core._threshold_sets`` as it was written: a stable
    descending sort, then (size, least index + 1, theta, the value below
    or None) per distinct value."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    theta, least, sets = values[order[0]], order[0], []
    for size in range(1, len(order)):
        i = order[size]
        if values[i] != theta:
            sets.append((size, least + 1, theta, values[i]))
            theta = values[i]
        if i < least:
            least = i
    sets.append((len(order), least + 1, theta, None))
    return sets


def max_tie_cells(f: tuple[float, ...], g: tuple[float, ...]):
    """``planner_core._tie_cells`` as it was written: each cell's outside
    through ``max`` calls, with fmax * out_g taken once per cell."""
    f_sets, g_sets = max_threshold_sets(f), max_threshold_sets(g)
    fmax, gmax = f_sets[0][2], g_sets[0][2]
    levels = [0.0] * (len(f) + len(g) + 1)
    ties = {}
    for size_s, rule_s, min_f, out_f in f_sets:
        outside_f = 0.0 if out_f is None else max(0.0, out_f * gmax)
        for size_t, rule_t, min_g, out_g in g_sets:
            outside = outside_f if out_g is None else max(outside_f, fmax * out_g)
            margin = min_f * min_g - outside
            if margin > 0.0:
                level = size_s + size_t
                levels[level], ties[level] = margin, (rule_s, rule_t, size_s)
    return levels, ties


def packed_tie_cell_rows(f: np.ndarray, g: np.ndarray):
    """``planner_core._tie_cell_rows`` in the eager form it replaced, which
    laid its margins out as (row, p, q) and packed every cell's members
    into keys: the (N, n + m + 1) raw level weights and the (N, n + m + 1,
    2) factor rules (min S + 1, min T + 1), read from each cell's members
    (all zero where a level has no cell)."""
    count, n, m = f.shape[0], f.shape[1], g.shape[1]
    f_order = np.argsort(-f, axis=1)
    g_order = np.argsort(-g, axis=1)
    fs = np.take_along_axis(f, f_order, axis=1)
    gs = np.take_along_axis(g, g_order, axis=1)
    fmax, gmax = fs[:, :1], gs[:, :1]
    outside_f = np.zeros((count, n, 1))
    below_f = fs[:, 1:, None] * gmax[:, :, None]
    outside_f[:, :-1] = np.where(below_f > 0.0, below_f, 0.0)
    outside = np.repeat(outside_f, m, axis=2)
    below_g = (fmax * gs[:, 1:])[:, None, :]
    outside[:, :, :-1] = np.where(below_g > outside_f, below_g, outside_f)
    margin = fs[:, :, None] * gs[:, None, :] - outside

    rows, ps, qs = np.nonzero(margin > 0.0)
    cell_levels = ps + qs + 2
    levels = np.zeros((count, n + m + 1))
    levels[rows, cell_levels] = margin[rows, ps, qs]
    # S holds the indices whose sorted position is at most p, T likewise
    f_rank = np.argsort(f_order, axis=1)[rows]
    g_rank = np.argsort(g_order, axis=1)[rows]
    factor_rules = np.zeros((count, n + m + 1, 2), dtype=np.int64)
    factor_rules[rows, cell_levels, 0] = (f_rank <= ps[:, None]).argmax(axis=1) + 1
    factor_rules[rows, cell_levels, 1] = (g_rank <= qs[:, None]).argmax(axis=1) + 1
    return levels, factor_rules


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
