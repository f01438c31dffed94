"""Executable piecewise motion planners.

A planner is an ordered list of rules.  Each rule owns an open subset of
(start, goal) pairs, a section producing a path from start to goal on that
subset, and a continuous weight in [0, 1] that is positive exactly on the
subset; the normalized weights form a partition of unity.  ``decide`` takes
the first rule whose weight is positive and ``path`` evaluates its section,
so the number of rules is an upper bound for the complexity of the
space and the constructions below realize the known minimal counts:

* convex pieces: 1 rule (straight segments);
* the circle: 2 rules (shortest arc; fixed-orientation arc);
* spheres: 2 rules for odd dimension, 3 for even, using a tangent field
  that is nowhere zero (odd) or vanishes at a single pole (even), plus a
  stereographic-chart rule for the even-dimensional leftover pair;
* products: the two factor planners combine into n + m - 1 rules indexed
  by tie level, giving n + 1 rules for the planar n-bar arm (a torus) and
  2n + 1 for the spatial arm (a product of 2-spheres);
* any planner transfers along a homotopy equivalence (three-stage paths),
  e.g. from the circle to the punctured plane.

``decide`` answers one query with a ``Decision``; ``decide_many`` answers
N queries at once over (N, ambient) row blocks with a ``Decisions`` block,
whose columns give, row for row, what ``decide`` gives (index 0 where it
raises CoverageGap) and which builds no per-query object.  A single query
is cheaper through ``decide``, so ``plan`` uses it and only bulk callers
such as the verifier use ``decide_many``.

Sections are built over rows: an elementary rule's section maps the
(N, ambient) starts and goals of N queries to one bundle of N paths (see
``geometry``).  The rules the leaf planners run in a section, one per
leaf, are its leaf rules, and ``bundle`` builds the sections of all
queries that share them as one bundle.  ``leaf_rules`` names them for a
``Decision`` and ``leaf_keys`` for rows of a ``Decisions`` block;
``path`` is the one-row ``bundle`` of a decision.

Below ``decide`` everything takes row blocks: rule weights (``weight_rows``),
sections, a transfer planner's maps f, g and h, and a planner's own
``point_sampler``, which draws N points as (N, ambient) blocks the way
``geometry.random_points`` does.

Planners are immutable once built and planning is pure, so a planner may be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .catalog import SpaceSpec, canonical, fold, parse_spec
from .geometry import (
    Blocks,
    ConfigPoint,
    Geometry,
    InvalidPoint,
    ParityError,
    PathFn,
    chart_segment_path,
    concat_geometry,
    concat_paths,
    config_distances,
    convex_geometry,
    even_vector_field,
    factor_distance,
    factor_distances,
    geodesic_path,
    mapped_path,
    odd_vector_field,
    pair_paths,
    polar_arc_path,
    row_norms,
    sphere_geometry,
    stack_points,
)

__all__ = [
    "CoverageGap",
    "Decision",
    "Decisions",
    "DomainMiss",
    "HomotopyEndpointMismatch",
    "LengthMismatch",
    "MAX_SAMPLES",
    "ParityError",
    "Planner",
    "PlannerRule",
    "PlanResult",
    "arm_planner",
    "build_planner",
    "circle_planner",
    "even_vector_field",
    "forward_kinematics",
    "odd_vector_field",
    "plan",
    "product_planner",
    "punctured_plane_planner",
    "sample_path",
    "sample_times",
    "sphere_planner",
    "straight_line_planner",
    "transfer_planner",
]


class DomainMiss(RuntimeError):
    """A rule's path was requested for a pair outside the rule's domain."""


class CoverageGap(RuntimeError):
    """No rule matched a query pair; the rule domains failed to cover."""


class HomotopyEndpointMismatch(ValueError):
    """The supplied homotopy does not start at the identity or end at g o f."""


class LengthMismatch(ValueError):
    """Bar lengths do not match the arm's factor count."""


@dataclass(frozen=True)
class PlannerRule:
    """One motion-planning rule: name, partition-of-unity weight, section.

    An elementary rule's ``weight`` maps a pair to [0, 1] and is positive
    exactly where the rule applies; ``decide`` calls it.  ``weight_rows``
    is the same weight over the (N, ambient) blocks of N queries' starts
    and goals, row for row the float ``weight`` gives; ``decide_many``
    calls it.  The ``section`` maps such blocks to one bundle of N paths,
    path n from start n to goal n; only ``Planner.bundle`` evaluates it,
    for queries the rule covers.  Composite rules are names only.
    """

    name: str
    weight: Callable[[ConfigPoint, ConfigPoint], float] | None = None
    section: Callable[[Blocks, Blocks], PathFn] | None = None
    weight_rows: Callable[[Blocks, Blocks], np.ndarray] | None = None


@dataclass(frozen=True)
class PlanResult:
    rule_index: int  # 1-based, first applicable rule
    path: PathFn


@dataclass(slots=True)
class Decision:
    """A planner's decision for one query (a, b): the first applicable 1-based
    rule, the normalized weights and the rule's tie cell (None outside
    products), which a verifier perturbs within.  Composite planners keep
    the cells of every level and the factor or source decisions, from which
    their sections are built."""

    a: ConfigPoint
    b: ConfigPoint
    index: int
    weights: tuple[float, ...]
    cell: object = None
    cells: dict | None = None
    factors: tuple["Decision", ...] | None = None


@dataclass(slots=True)
class Decisions:
    """A planner's decisions for N queries, as columns: ``decide`` of query
    (a[n], b[n]) in row n.

    ``a`` and ``b`` are the queries' (N, ambient) row blocks, ``index`` the
    (N,) 1-based first applicable rules (0 where no rule applies) and
    ``weights`` the (N, rules) normalized weights (meaningless in an
    uncovered row).  A product node adds its left and right factor blocks
    in ``factors`` and, for each row and level, the tie cell (S, T) of that
    level: ``cells[n, level]`` holds the membership bits of S, then those
    of T, packed into bytes (all zero where the level has no cell), so
    equal keys on one level are equal cells however many rules there are;
    ``factor_rules[n, level]`` is (min S + 1, min T + 1), the factor rules
    the level's section pairs (0 where there is no cell).  A transfer node
    adds its source block in ``factors`` and passes the source's cells on.
    """

    a: Blocks
    b: Blocks
    index: np.ndarray
    weights: np.ndarray
    factors: tuple["Decisions", ...] = ()
    cells: np.ndarray | None = None
    factor_rules: np.ndarray | None = None


@dataclass
class Planner:
    """An ordered rule system over a product geometry.

    ``decide`` computes a query's rule, weights and cell in one pass
    (``decide_many`` does so for many queries over arrays) and ``bundle``
    builds sections of queries that share leaf rules as one bundle; they
    are the only way a rule is used.  ``point_sampler(rng, count)`` lets
    spaces with excluded loci (e.g. the punctured plane) provide their own
    random points to verifiers, as (count, ambient) blocks.
    """

    space: str
    geometry: Geometry
    rules: tuple[PlannerRule, ...]
    point_sampler: Callable[[np.random.Generator, int], Blocks] | None = None

    def decide(self, a: ConfigPoint, b: ConfigPoint) -> Decision:
        raw = tuple(r.weight(a, b) for r in self.rules)
        index = next((i + 1 for i, w in enumerate(raw) if w > 0.0), 0)
        if index == 0:
            raise CoverageGap(f"{self.space}: no rule applies at ({a}, {b})")
        total = sum(raw)
        return Decision(a, b, index, tuple(w / total for w in raw))

    def decide_many(self, a: Blocks, b: Blocks) -> Decisions:
        """``decide`` of each query (a[n], b[n]) of two (N, ambient) row
        blocks, bit for bit, with index 0 where it would raise CoverageGap.

        The arithmetic is ``decide``'s, elementwise: the rules'
        ``weight_rows`` as columns, their sum as column adds from left to
        right."""
        columns = [rule.weight_rows(a, b) for rule in self.rules]
        total = columns[0]
        for column in columns[1:]:
            total = total + column
        raw = np.stack(columns, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            weights = raw / total[:, None]
        applies = raw > 0.0
        index = np.where(applies.any(axis=1), applies.argmax(axis=1) + 1, 0)
        return Decisions(a, b, index, weights)

    @property
    def leaf_count(self) -> int:
        """The number of leaf planners, the length of a leaf-rule tuple."""
        return 1

    def leaf_rules(self, decision: Decision, index: int) -> tuple[int, ...]:
        """The 1-based rule each leaf planner runs in rule ``index``'s section
        at the decided query, leaves in factor order; raises DomainMiss
        where the decision does not cover that rule."""
        if decision.weights[index - 1] <= 0.0:
            raise DomainMiss(f"{self.rules[index - 1].name} rule does not cover this pair")
        return (index,)

    def leaf_keys(self, decisions: Decisions, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``leaf_rules`` of the given rows of a block at their rules
        ``index``, as a (len(rows), leaf_count) int array; each rule must
        cover its row."""
        return index[:, None]

    def bundle(self, a: Blocks, b: Blocks, leaves: Sequence[int]) -> PathFn:
        """The sections of N queries whose leaf planners run the 1-based
        rules ``leaves``, from their (N, ambient) starts and goals, as one
        bundle (path n from a[n] to b[n]).  The rules must cover every
        query: ``path`` checks that for one query."""
        return self.rules[leaves[0] - 1].section(a, b)

    def path(self, decision: Decision, index: int) -> PathFn:
        """Section of the 1-based rule ``index`` at the decided query, the
        one-row ``bundle`` of its leaf rules; raises DomainMiss where the
        decision does not cover that rule."""
        leaves = self.leaf_rules(decision, index)
        return self.bundle(stack_points([decision.a]), stack_points([decision.b]), leaves)

    def weights(self, a: ConfigPoint, b: ConfigPoint) -> tuple[float, ...]:
        """View of ``decide``, unused in tcplan; goes when ROADMAP item 7 drops its span."""
        return self.decide(a, b).weights

    def plan_info(self, a: ConfigPoint, b: ConfigPoint) -> tuple[int, tuple[float, ...], object]:
        """(index, weights, cell) view of ``decide``, unused in tcplan; goes
        when ROADMAP item 7 drops its span."""
        decision = self.decide(a, b)
        return decision.index, decision.weights, decision.cell


def plan(planner: Planner, a: ConfigPoint, b: ConfigPoint) -> PlanResult:
    """Answer a query with the first rule that covers it."""
    decision = planner.decide(a, b)
    return PlanResult(decision.index, planner.path(decision, decision.index))


MAX_SAMPLES = 100_000  # as verifier.MAX_PAIRS: a path is sampled at all its times at once


def sample_times(n: int) -> list[float]:
    """n uniformly spaced times in [0, 1], both ends included; 2 <= n <= MAX_SAMPLES."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    if n > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples, got {n}")
    return [i / (n - 1) for i in range(n)]


def sample_path(path: PathFn, n: int) -> list[tuple[float, ConfigPoint]]:
    """The path at ``sample_times(n)``, evaluated at once, one point per time."""
    ts = sample_times(n)
    blocks = path.sample(ts)
    return [(t, ConfigPoint(path.geometry, tuple(b[k] for b in blocks))) for k, t in enumerate(ts)]


# -- elementary planners --------------------------------------------------------


def straight_line_planner(dim: int) -> Planner:
    """One-rule planner on a convex piece: constant-velocity segments."""
    geometry = convex_geometry(dim)
    rule = PlannerRule(
        name="segment",
        weight=lambda a, b: 1.0,
        section=lambda a, b: geodesic_path(geometry, a, b),
        weight_rows=lambda a, b: np.ones(len(a[0])),
    )
    return Planner(space=f"convex:{dim}", geometry=geometry, rules=(rule,))


def _smaller(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Python's ``min(first, second)`` elementwise: ``second`` only where it
    is strictly smaller, so NaN and signed zeros come out as they would."""
    return np.where(second < first, second, first)


def _shortest_arc_rule(geometry) -> PlannerRule:
    """The first rule on circles and spheres: the shortest arc, for a != -b."""
    factor = geometry.factors[0]

    def weight(a, b):
        return factor_distance(factor, a.parts[0], -b.parts[0]) / math.pi

    def weight_rows(a, b):
        return factor_distances(factor, a[0], -b[0]) / math.pi

    def section(a, b):
        return geodesic_path(geometry, a, b)

    return PlannerRule("shortest-arc", weight, section, weight_rows)


def _distance_rule(factor, name, section) -> PlannerRule:
    """A rule weighted by the factor distance from start to goal over pi."""

    def weight(a, b):
        return factor_distance(factor, a.parts[0], b.parts[0]) / math.pi

    def weight_rows(a, b):
        return factor_distances(factor, a[0], b[0]) / math.pi

    return PlannerRule(name, weight, section, weight_rows)


def circle_planner() -> Planner:
    """Two rules on the circle: shortest arc, else positively oriented arc."""
    geometry = sphere_geometry(1)
    factor = geometry.factors[0]

    def s_positive(a, b):
        # math.atan2 and % per query: numpy's forms may differ in the last bit
        starts, sweeps = [], []
        for xa, xb in zip(a[0].tolist(), b[0].tolist()):
            start = math.atan2(xa[1], xa[0])
            starts.append(start)
            sweeps.append((math.atan2(xb[1], xb[0]) - start) % (2.0 * math.pi))
        start, sweep = np.array(starts)[:, None], np.array(sweeps)[:, None]

        def sample(ts):
            angle = (start + ts * sweep).reshape(-1, 1)
            return (np.concatenate((np.cos(angle), np.sin(angle)), axis=1),)

        return PathFn(geometry, sample, ((0.0, 1.0, True),), "positive-arc")

    return Planner(
        space="circle",
        geometry=geometry,
        rules=(
            _shortest_arc_rule(geometry),
            _distance_rule(factor, "positive-arc", s_positive),
        ),
    )


def sphere_planner(n: int) -> Planner:
    """Minimal-rule planner on the n-sphere: 2 rules for odd n, 3 for even.

    Rule 1 rides the unique shortest arc where start and goal are not
    antipodal.  Rule 2 first moves the start to the goal's antipode, then
    sweeps the half great circle  -cos(pi t) B + sin(pi t) v(B)  through a
    unit tangent direction v(B); for even n the tangent field necessarily
    dies somewhere, so its zero B_0 (the last coordinate pole) is excluded
    and rule 3 handles the remainder inside the stereographic chart based
    at C (the first coordinate pole, distinct from both B_0 and -B_0).
    """
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    geometry = sphere_geometry(n)
    factor = geometry.factors[0]
    odd = n % 2 == 1
    pole = np.zeros(n + 1)
    pole[n] = 1.0  # B_0, zero of the even tangent field
    chart_axis = 0  # C = e_1, base point of the rule-3 chart

    def tangent_at(rows: np.ndarray) -> np.ndarray:
        v = odd_vector_field(rows, n) if odd else even_vector_field(rows, n)
        return v / row_norms(v)[:, None]

    def s_two_stage(a, b):
        (goals,) = b
        to_antipode = geodesic_path(geometry, a, (-goals,))
        sweep = polar_arc_path(geometry, goals, tangent_at(goals))
        return concat_paths([(0.0, 0.5, to_antipode), (0.5, 1.0, sweep)], "two-stage")

    if odd:
        rules = [_shortest_arc_rule(geometry), _distance_rule(factor, "two-stage", s_two_stage)]
    else:
        def w_two_stage(a, b):
            d_ab = factor_distance(factor, a.parts[0], b.parts[0])
            d_pole = factor_distance(factor, b.parts[0], pole)
            return min(d_ab, d_pole) / math.pi

        def w_two_stage_rows(a, b):
            d_ab = factor_distances(factor, a[0], b[0])
            return _smaller(d_ab, factor_distances(factor, b[0], pole)) / math.pi

        chart_pole = np.zeros(n + 1)
        chart_pole[chart_axis] = 1.0

        def w_chart(a, b):
            d_a = factor_distance(factor, a.parts[0], chart_pole)
            d_b = factor_distance(factor, b.parts[0], chart_pole)
            return min(d_a, d_b) / math.pi

        def w_chart_rows(a, b):
            d_a = factor_distances(factor, a[0], chart_pole)
            return _smaller(d_a, factor_distances(factor, b[0], chart_pole)) / math.pi

        def s_chart(a, b):
            return chart_segment_path(geometry, a[0], b[0], chart_axis)

        rules = [
            _shortest_arc_rule(geometry),
            PlannerRule("two-stage", w_two_stage, s_two_stage, w_two_stage_rows),
            PlannerRule("chart-segment", w_chart, s_chart, w_chart_rows),
        ]

    return Planner(space=f"sphere:{n}", geometry=geometry, rules=tuple(rules))


# -- product combination ---------------------------------------------------------


def _threshold_sets(values: tuple[float, ...]):
    """{i : values[i] >= theta} for each distinct value theta, from the
    largest down, as (ascending indices, theta, the next value below theta
    or None)."""
    sets, theta = [], max(values)
    while theta is not None:
        below = max((v for v in values if v < theta), default=None)
        sets.append((tuple(i for i, v in enumerate(values) if v >= theta), theta, below))
        theta = below
    return sets


def _tie_cells(f: tuple[float, ...], g: tuple[float, ...]):
    """Tie-cell analysis of one query against two weight vectors.

    A cell is a pair (S, T) of index sets; a query is in the cell when every
    product f_i * g_j over S x T strictly exceeds every product outside.
    Only supersets of the argmax sets can contain the query, and of those
    only upward-closed ones can have a positive margin: if i is in S and
    f_i' >= f_i for some i' outside S, then min_f * min_g <= out_f * gmax
    (float products of non-negative numbers are monotone, so this holds
    exactly) and the margin is <= 0; likewise for T.  The candidates are
    therefore the threshold sets S = {i : f_i >= theta} and T = {j : g_j >=
    phi}, one per distinct value, O(n * m) cells in all.

    A level holds at most one positive cell.  Threshold sets are nested, so
    two cells (S, T) != (S', T') on one level have, say, S a proper subset
    of S' and T' a proper subset of T.  Take i' in S' - S, j in T', i in S
    and j' in T - T': the first cell needs f_i g_j' > f_i' g_j and the
    second f_i' g_j > f_i g_j', which cannot both hold.  So each level is
    set once, to its one cell's margin, and the cells come in the order of
    the exhaustive enumeration over bitmasks of the non-max indices (S
    outer, T inner), since nested sets grow with their bitmasks.

    Returns the raw per-level weights (the clamped cell margins, with an
    empty outside treated as comparing against zero), the containing cell
    per level, and the argmax cell.
    """
    f_sets, g_sets = _threshold_sets(f), _threshold_sets(g)
    fmax, gmax = f_sets[0][1], g_sets[0][1]
    levels = [0.0] * (len(f) + len(g) + 1)
    cells: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for s, min_f, out_f in f_sets:
        outside_f = 0.0 if out_f is None else max(0.0, out_f * gmax)
        for t, min_g, out_g in g_sets:
            outside = outside_f if out_g is None else max(outside_f, fmax * out_g)
            margin = min_f * min_g - outside
            if margin > 0.0:
                level = len(s) + len(t)
                levels[level], cells[level] = margin, (s, t)
    return levels, cells, (f_sets[0][0], g_sets[0][0])


def _tie_cell_rows(f: np.ndarray, g: np.ndarray):
    """``_tie_cells`` of every row pair of two (N, n) and (N, m) weight arrays.

    Sort each row in descending order into fs and gs.  At sorted positions
    (p, q) the margin is fs[p] gs[q] - max(max(0, fs[p+1] gmax), fmax
    gs[q+1]), a term dropped where its position does not exist.  At the
    last position of a tie group fs[p] and fs[p+1] are a threshold set's
    theta and the next value below it, so the margin is the one
    ``_tie_cells`` computes.  Inside a tie group fs[p] = fs[p+1] (or gs[q] =
    gs[q+1]) and the margin is <= 0 exactly, since float products are
    monotone.  So the positive margins are exactly the threshold-set cells,
    at most one per level p + q + 2.  A cell's index sets are the top p + 1
    and q + 1 sorted positions, which end a tie group, so the order in
    which the sort puts tied indices does not matter.

    Returns the (N, n + m + 1) raw level weights; the (N, n + m + 1, bytes)
    cell keys and (N, n + m + 1, 2) factor rules of ``Decisions``; and each
    row's argmax-cell level.
    """
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
    keys = np.concatenate(
        (np.packbits(f_rank <= ps[:, None], axis=1), np.packbits(g_rank <= qs[:, None], axis=1)),
        axis=1,
    )
    cells = np.zeros((count, n + m + 1, keys.shape[1]), dtype=np.uint8)
    cells[rows, cell_levels] = keys
    factor_rules = np.zeros((count, n + m + 1, 2), dtype=np.int64)
    factor_rules[rows, cell_levels, 0] = np.minimum.accumulate(f_order, axis=1)[rows, ps] + 1
    factor_rules[rows, cell_levels, 1] = np.minimum.accumulate(g_order, axis=1)[rows, qs] + 1
    tops = (fs == fmax).sum(axis=1) + (gs == gmax).sum(axis=1)
    return levels, cells, factor_rules, tops


class ProductPlanner(Planner):
    """Combine planners on X and Y into n + m - 1 rules on X x Y.

    For a query, the factor decisions give normalized weights on each side,
    and their argmax sets S, T (grouped at exact equality) select the tie
    cell W(S, T) at level |S| + |T|.  Rules are the levels k = 2, ..., n + m;
    the section on a cell pairs the factor sections with the smallest
    indices in S and T, and a level's weight, the sum of clamped cell
    margins, is positive exactly on that level's cells.  One decision per
    query builds the sections at every nesting level; queries whose cells
    pick the same factor rules, down to the leaves, share one bundle.
    """

    def __init__(self, left: Planner, right: Planner):
        self.left, self.right = left, right
        self.split = len(left.geometry.factors)
        levels = range(2, len(left.rules) + len(right.rules) + 1)
        rules = tuple(PlannerRule(f"level-{k}") for k in levels)
        geometry = concat_geometry(left.geometry, right.geometry)
        super().__init__(f"product({left.space},{right.space})", geometry, rules)

    def decide(self, a: ConfigPoint, b: ConfigPoint) -> Decision:
        k, x, y = self.split, self.left.geometry, self.right.geometry
        left = self.left.decide(ConfigPoint(x, a.parts[:k]), ConfigPoint(x, b.parts[:k]))
        right = self.right.decide(ConfigPoint(y, a.parts[k:]), ConfigPoint(y, b.parts[k:]))
        levels, cells, (s0, t0) = _tie_cells(left.weights, right.weights)
        level, total = len(s0) + len(t0), sum(levels[2:])
        weights = tuple(w / total for w in levels[2:])
        return Decision(a, b, level - 1, weights, cells[level], cells, (left, right))

    def decide_many(self, a: Blocks, b: Blocks) -> Decisions:
        """``decide`` over rows: the factors' weight arrays go through
        ``_tie_cell_rows``, and a row is uncovered where a factor's is."""
        k = self.split
        left = self.left.decide_many(a[:k], b[:k])
        right = self.right.decide_many(a[k:], b[k:])
        levels, cells, factor_rules, tops = _tie_cell_rows(left.weights, right.weights)
        total = levels[:, 2]
        for column in levels[:, 3:].T:
            total = total + column
        with np.errstate(invalid="ignore", divide="ignore"):
            weights = levels[:, 2:] / total[:, None]
        index = np.where((left.index > 0) & (right.index > 0), tops - 1, 0)
        return Decisions(a, b, index, weights, (left, right), cells, factor_rules)

    @property
    def leaf_count(self) -> int:
        return self.left.leaf_count + self.right.leaf_count

    def leaf_rules(self, decision: Decision, index: int) -> tuple[int, ...]:
        cell = decision.cells.get(index + 1)
        if cell is None:
            raise DomainMiss(f"level-{index + 1} rule does not cover this pair")
        (s, t), (left, right) = cell, decision.factors
        return self.left.leaf_rules(left, min(s) + 1) + self.right.leaf_rules(right, min(t) + 1)

    def leaf_keys(self, decisions: Decisions, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        pairs = decisions.factor_rules[rows, index + 1]
        left, right = decisions.factors
        return np.concatenate(
            (
                self.left.leaf_keys(left, rows, pairs[:, 0]),
                self.right.leaf_keys(right, rows, pairs[:, 1]),
            ),
            axis=1,
        )

    def bundle(self, a: Blocks, b: Blocks, leaves: Sequence[int]) -> PathFn:
        k, split = self.split, self.left.leaf_count
        return pair_paths(
            self.geometry,
            self.left.bundle(a[:k], b[:k], leaves[:split]),
            self.right.bundle(a[k:], b[k:], leaves[split:]),
        )


product_planner = ProductPlanner


def arm_planner(kind: str, n: int) -> Planner:
    """Planner for an n-bar arm: joint factors folded with product_planner.

    planar arms live on the n-torus (n + 1 rules), spatial arms on the
    product of n two-spheres (2n + 1 rules).
    """
    if n < 1:
        raise ValueError("arm needs at least one bar")
    if kind == "planar":
        spec = SpaceSpec("torus", n) if n > 1 else SpaceSpec("circle")
    elif kind == "spatial":
        joint = SpaceSpec("sphere", 2)
        spec = SpaceSpec("product", factors=(joint,) * n) if n > 1 else joint
    else:
        raise ValueError(f"unknown arm kind {kind!r}")
    return build_planner(spec)


# -- transfer along a homotopy equivalence ----------------------------------------

_HOMOTOPY_TOL = 1e-6


class TransferPlanner(Planner):
    """Pull a planner on Y back to X along f: X -> Y, g: Y -> X.

    ``h`` is a homotopy on X with h(0, .) the identity and h(1, .) = g o f
    (checked on the rows of ``check_points`` within ``_HOMOTOPY_TOL``).
    The source planner decides each query at (f(a), f(b)), so rule domains
    and weights pull back through f x f; a section runs in three stages:
    slide the start along the homotopy, traverse the Y-path pushed through
    g, then slide back to the goal along the reversed homotopy.  Rule count
    is preserved.

    The maps take row blocks: ``f`` and ``g`` map (N, ambient) blocks to
    blocks of N rows, row for row, and ``h(t, rows)`` moves row n to time
    t[n] of an (N, 1) column.  A bundle maps its starts and goals through
    ``f`` once, pushes the source bundle's rows through ``g``, and slides
    all its queries at all times in one ``h`` call.
    """

    def __init__(
        self,
        planner: Planner,
        f: Callable[[Blocks], Blocks],
        g: Callable[[Blocks], Blocks],
        h: Callable[[np.ndarray, Blocks], Blocks],
        geometry: Geometry,
        space: str = "transfer",
        check_points: Blocks | None = None,
        point_sampler=None,
    ):
        if check_points is not None:
            count = len(check_points[0])
            for time, end, fault in (
                (0.0, check_points, "h(0, .) is not the identity"),
                (1.0, g(f(check_points)), "h(1, .) differs from g(f(.))"),
            ):
                moved = config_distances(geometry, h(np.full((count, 1), time), check_points), end)
                bad = np.flatnonzero(~(moved <= _HOMOTOPY_TOL))  # NaN fails
                if len(bad):
                    point = ConfigPoint(geometry, tuple(x[bad[0]] for x in check_points))
                    raise HomotopyEndpointMismatch(f"{fault} at {point}")
        self.source, self.f, self.g, self.h = planner, f, g, h
        rules = tuple(PlannerRule(f"transfer({rule.name})") for rule in planner.rules)
        super().__init__(space, geometry, rules, point_sampler)

    def decide(self, a: ConfigPoint, b: ConfigPoint) -> Decision:
        rows = self.f(stack_points([a, b]))  # one f call: the query as a two-row block
        fa, fb = (ConfigPoint(self.source.geometry, tuple(x[k] for x in rows)) for k in (0, 1))
        source = self.source.decide(fa, fb)
        return Decision(a, b, source.index, source.weights, source.cell, factors=(source,))

    def decide_many(self, a: Blocks, b: Blocks) -> Decisions:
        source = self.source.decide_many(self.f(a), self.f(b))
        return Decisions(a, b, source.index, source.weights, (source,), source.cells)

    @property
    def leaf_count(self) -> int:
        return self.source.leaf_count

    def leaf_rules(self, decision: Decision, index: int) -> tuple[int, ...]:
        return self.source.leaf_rules(decision.factors[0], index)

    def leaf_keys(self, decisions: Decisions, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        return self.source.leaf_keys(decisions.factors[0], rows, index)

    def bundle(self, a: Blocks, b: Blocks, leaves: Sequence[int]) -> PathFn:
        h, geometry = self.h, self.geometry
        source = self.source.bundle(self.f(a), self.f(b), leaves)
        mid = mapped_path(source, self.g, geometry, "pushed")

        def slide(rows, backwards, label):
            def sample(ts):  # query-major: row n * T + k is query n at ts[k]
                t = (1.0 - ts if backwards else ts)[:, None]
                repeated = tuple(np.repeat(x, len(ts), axis=0) for x in rows)
                return h(np.tile(t, (len(rows[0]), 1)), repeated)

            return PathFn(geometry, sample, ((0.0, 1.0, False),), label)

        head = slide(a, False, "homotopy-in")
        tail = slide(b, True, "homotopy-out")
        return concat_paths(
            [(0.0, 1.0 / 3.0, head), (1.0 / 3.0, 2.0 / 3.0, mid), (2.0 / 3.0, 1.0, tail)],
            "transfer",
        )


transfer_planner = TransferPlanner


def punctured_plane_planner() -> Planner:
    """Circle planner transferred to the plane minus the origin.

    The radial retraction x -> x / |x| dominates the circle; the straight-line
    homotopy (1 - t) x + t x / |x| never crosses the origin, so transferred
    paths stay at positive radius.
    """
    circle = circle_planner()
    geometry = convex_geometry(2)

    def to_circle(rows: Blocks) -> Blocks:
        (v,) = rows
        return (v / row_norms(v)[:, None],)

    def from_circle(rows: Blocks) -> Blocks:
        return rows

    def radial_homotopy(t: np.ndarray, rows: Blocks) -> Blocks:
        (v,) = rows
        return ((1.0 - t) * v + t * v / row_norms(v)[:, None],)

    def sampler(rng: np.random.Generator, count: int) -> Blocks:
        # one draw holds each point's radius and angle in turn, as per-point
        # draws would; math.cos and math.sin per point, since numpy's
        # vectorized forms are not guaranteed to match them bit for bit
        draws = rng.uniform((0.2, 0.0), (2.0, 2.0 * math.pi), (count, 2))
        points = [(r * math.cos(angle), r * math.sin(angle)) for r, angle in draws.tolist()]
        return (np.array(points).reshape(count, 2),)

    checks = (np.array([(1.0, 0.0), (0.5, 0.5), (-2.0, 0.25), (0.0, -0.3)]),)
    return transfer_planner(
        circle,
        to_circle,
        from_circle,
        radial_homotopy,
        geometry,
        space="punctured-plane",
        check_points=checks,
        point_sampler=sampler,
    )


# -- catalog wiring and kinematics -------------------------------------------------


# Explicit planners of the canonical leaf kinds; other leaves have none.
_LEAF_PLANNERS = {
    "convex": straight_line_planner,
    "circle": lambda _: circle_planner(),
    "sphere": sphere_planner,
}


def build_planner(spec) -> Planner | None:
    """Planner for a catalog space expression, or None where none exists
    (higher-genus surfaces, complex projective spaces).  Factor planners
    are folded with product_planner in the nesting of the canonical form;
    the planner's ``space`` is the expression as spelled."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    planner = fold(
        canonical(spec),
        lambda leaf: _LEAF_PLANNERS.get(leaf.kind, lambda _: None)(leaf.param),
        lambda parts: None if any(p is None for p in parts) else reduce(product_planner, parts),
    )
    if planner is not None:
        planner.space = str(spec)
    return planner


def forward_kinematics(config: ConfigPoint, bar_lengths: Sequence[float]) -> list[np.ndarray]:
    """Joint positions of an arm configuration: the base at the origin, then
    one bar per factor along that factor's unit direction."""
    factors = config.geometry.factors
    if len(bar_lengths) != len(factors):
        raise LengthMismatch(
            f"{len(bar_lengths)} bar lengths for {len(factors)} joints"
        )
    dims = {f.dim for f in factors}
    if any(f.kind != "sphere" for f in factors) or not dims <= {1, 2} or len(dims) != 1:
        raise InvalidPoint("kinematics needs all-circle or all-2-sphere configurations")
    for length in bar_lengths:
        if length <= 0:
            raise ValueError(f"bar lengths must be positive, got {length}")
    joints = [np.zeros(factors[0].ambient)]
    for direction, length in zip(config.parts, bar_lengths):
        joints.append(joints[-1] + length * direction)
    return joints
