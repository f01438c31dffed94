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
  by tie level (a query's rule is its lowest level with a positive cell,
  the argmax cell's unless that cell's margin rounds to 0), giving n + 1
  rules for the planar n-bar arm (a torus), 2n + 1 for the spatial arm;
* any planner transfers along a homotopy equivalence (three-stage paths),
  e.g. from the circle to the punctured plane.

``decide`` answers one query with a ``Decision``; ``decide_many`` answers
N queries at once over (N, ambient) row blocks with a ``Decisions`` block,
whose columns give, row for row, what ``decide`` gives (index 0 where it
raises CoverageGap) and which builds no per-query object.  A single query
is cheaper through ``decide``, so ``plan`` uses it and only bulk callers
such as the verifier use ``decide_many``.  ``decide`` unwraps the query's
points to their ``parts`` once, and every node below decides on parts
tuples; a product node keeps, per level, only what its section reads (the
factor rules the level's cell pairs), and a decision's tie cells are
decoded from its factor weights when they are read.  A product's
``decide_many`` runs each distinct leaf planner once, over the stacked rows
of every leaf that shares it, and combines its nodes bottom-up.

Sections are built over rows: an elementary rule's section maps the
(N, ambient) starts and goals of N queries to one bundle of N paths (see
``geometry``).  The rules the leaf planners run in a section, one per
leaf, are its leaf rules, and ``bundle`` builds the sections of all
queries that share them as one bundle.  ``leaf_rules`` names them for a
``Decision`` and ``leaf_keys`` for rows of a ``Decisions`` block;
``path`` is the one-row ``bundle`` of a decision.  A product section runs
its factors at equal times, so it is built from the bundles of its
``leaf_units``, the elementary and transfer planners of the tree, with no
bundle per product node: a product's ``bundle`` builds one per distinct
unit and leaf rules, over the stacked rows of every unit that shares them
(``build_planner`` shares a tree's equal leaves), and the verifier one per
unit and leaf rules.

An elementary rule's weight is one function of per-factor blocks: a
point's 1-D ``parts`` give a float, for ``decide``, and the (N, ambient) row
blocks of N queries an (N,) array, for ``decide_many``.  Below ``decide``
everything else takes row blocks: sections, a transfer planner's maps f, g
and h, and a planner's own ``point_sampler``, which draws N points as (N,
ambient) blocks the way ``geometry.random_points`` does.

Planners are immutable once built and planning is pure, so a planner may be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .catalog import SpaceSpec, UnsupportedParameter, canonical, fold, parse_spec
from .geometry import (
    Blocks,
    ConfigPoint,
    Geometry,
    InvalidPoint,
    ParityError,
    PathFn,
    chart_segment_path,
    chord_distance,
    concat_geometry,
    concat_paths,
    config_distances,
    convex_geometry,
    even_vector_field,
    geodesic_path,
    mapped_path,
    merge_pieces,
    odd_vector_field,
    polar_arc_path,
    row_norms,
    sphere_geometry,
)

__all__ = [
    "CoverageGap",
    "Decision",
    "Decisions",
    "DomainMiss",
    "HomotopyEndpointMismatch",
    "LengthMismatch",
    "MAX_AMBIENT",
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
    exactly where the rule applies.  It takes the start's and goal's
    per-factor blocks: a point's 1-D ``parts`` give a float (``decide``
    calls it so), and the (N, ambient) blocks of N queries an (N,) array,
    row for row that float (``decide_many`` calls it so).  The ``section``
    maps such row blocks to one bundle of N paths, path n from start n to
    goal n; only ``Planner.bundle`` evaluates it, for queries the rule
    covers.  Composite rules are names only.
    """

    name: str
    weight: Callable[[Blocks, Blocks], float | np.ndarray] | None = None
    section: Callable[[Blocks, Blocks], PathFn] | None = None


@dataclass(frozen=True)
class PlanResult:
    rule_index: int  # 1-based, first applicable rule
    path: PathFn


Parts = tuple[np.ndarray, ...]  # a point's 1-D blocks, one per factor


@dataclass(slots=True)
class Decision:
    """A planner's decision for one query, whose start and goal ``a`` and
    ``b`` are the points' ``parts``: the first applicable 1-based rule (on a
    product, the lowest level with a positive cell: the argmax cell's level
    unless that cell's margin rounds to 0) and the normalized weights.
    Composite planners keep the factor or source decisions, from which
    their sections are built, and a product the ``ties`` of ``_tie_cells``:
    (min S + 1, min T + 1, |S|) for the cell (S, T) of each level that has
    one, the factor rules its section pairs and the size that fixes S.

    ``cells``, every level's cell (None outside products), and ``cell``, the
    rule's cell (a transfer's is its source's; None on an elementary
    planner), are decoded from the factor decisions' weights when read."""

    a: Parts
    b: Parts
    index: int
    weights: tuple[float, ...]
    factors: tuple["Decision", ...] | None = None
    ties: dict[int, tuple[int, int, int]] | None = None

    @property
    def cells(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]] | None:
        if self.ties is None:
            return None
        left, right = self.factors
        return _tie_cell_sets(left.weights, right.weights, self.ties)

    @property
    def cell(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        if self.ties is not None:
            return self.cells[self.index + 1]
        return self.factors[0].cell if self.factors else None


@dataclass(slots=True)
class Decisions:
    """A planner's decisions for N queries, as columns: ``decide`` of query
    (a[n], b[n]) in row n.

    ``a`` and ``b`` are the queries' (N, ambient) row blocks, ``index`` the
    (N,) 1-based first applicable rules (0 where no rule applies) and
    ``weights`` the (N, rules) normalized weights (meaningless in an
    uncovered row).  A product node adds its left and right factor blocks
    in ``factors`` and what a section reads of each row's tie cells:
    ``ties[n, level]`` is (min S + 1, min T + 1) for the cell (S, T) of
    that level, the factor rules the level's section pairs (both 0 where
    the level has no cell), from which ``leaf_keys`` reads a row's leaf
    rules.  No cell's members are kept.  A transfer node adds its source
    block in ``factors``.
    """

    a: Blocks
    b: Blocks
    index: np.ndarray
    weights: np.ndarray
    factors: tuple["Decisions", ...] = ()
    ties: np.ndarray | None = None

    def rows(self, span: slice) -> "Decisions":
        """The decisions of the rows ``span``, down every factor block."""
        return Decisions(
            tuple(x[span] for x in self.a),
            tuple(x[span] for x in self.b),
            self.index[span],
            self.weights[span],
            tuple(f.rows(span) for f in self.factors),
            None if self.ties is None else self.ties[span],
        )


@dataclass
class Planner:
    """An ordered rule system over a product geometry.

    ``decide`` computes a query's rule, weights and, on a product, the
    factor rules of each tie cell in one pass (``decide_many`` does so for
    many queries over arrays) and ``bundle`` builds sections of queries
    that share leaf rules as one bundle; they are the only way a rule is
    used.  ``point_sampler(rng, count)`` lets
    spaces with excluded loci (e.g. the punctured plane) provide their own
    random points to verifiers, as (count, ambient) blocks.
    """

    space: str
    geometry: Geometry
    rules: tuple[PlannerRule, ...]
    point_sampler: Callable[[np.random.Generator, int], Blocks] | None = None

    def decide(self, a: ConfigPoint, b: ConfigPoint) -> Decision:
        """The decision for one query; its points are unwrapped here, once,
        and every node decides on their ``parts``."""
        return self._decide(a.parts, b.parts)

    def _decide(self, a: Parts, b: Parts) -> Decision:
        raw = [r.weight(a, b) for r in self.rules]
        return Decision(a, b, *self._first_positive(a, b, raw))

    def decide_many(self, a: Blocks, b: Blocks) -> Decisions:
        """``decide`` of each query (a[n], b[n]) of two (N, ambient) row
        blocks, bit for bit, with index 0 where it would raise CoverageGap."""
        raw = np.stack([rule.weight(a, b) for rule in self.rules], axis=1)
        return Decisions(a, b, *self._first_positive_rows(raw))

    def _combine(self, a: Blocks, b: Blocks, units) -> Decisions:
        """This node's decisions on the row blocks ``a`` and ``b`` of its
        factors, from the decisions of its leaf units, which ``units``
        yields in ``leaf_units`` order: a unit takes its own."""
        return next(units)

    def _first_positive(self, a: Parts, b: Parts, raw: Sequence[float]):
        """How every node decides from raw rule weights: the 1-based index of
        the first positive one (else CoverageGap, naming the node's own
        points) and the weights over their sum."""
        for index, w in enumerate(raw, 1):
            if w > 0.0:
                break
        else:
            a, b = (ConfigPoint(self.geometry, parts) for parts in (a, b))
            raise CoverageGap(f"{self.space}: no rule applies at ({a}, {b})")
        total = sum(raw)
        return index, tuple([w / total for w in raw])

    @staticmethod
    def _first_positive_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_first_positive`` of each row of an (N, rules) array, summing its
        columns from left to right; index 0 where that raises."""
        total = reduce(np.add, raw.T)
        with np.errstate(invalid="ignore", divide="ignore"):
            weights = raw / total[:, None]
        applies = raw > 0.0
        return np.where(applies.any(axis=1), applies.argmax(axis=1) + 1, 0), weights

    @cached_property
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

    @cached_property
    def leaf_units(self) -> tuple[tuple["Planner", slice, slice], ...]:
        """The non-product nodes of the planner tree in factor order, each
        with its slice of the geometry's factors and of the ``leaf_keys``
        columns: an elementary planner, or a transfer planner with the
        columns of its source.  The factors of a product section run at
        equal times, so its rows are, unit by unit, the rows of the unit's
        ``bundle`` on its factor blocks and key columns.  Computed once per
        planner, as is ``leaf_count``."""
        return ((self, slice(0, len(self.geometry.factors)), slice(0, self.leaf_count)),)

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
        one_row = lambda parts: tuple(part[None] for part in parts)
        return self.bundle(one_row(decision.a), one_row(decision.b), leaves)

    def weights(self, a: ConfigPoint, b: ConfigPoint) -> tuple[float, ...]:
        """View of ``decide``, unused in tcplan; goes when ROADMAP item 9 drops its span."""
        return self.decide(a, b).weights

    def plan_info(self, a: ConfigPoint, b: ConfigPoint) -> tuple[int, tuple[float, ...], object]:
        """(index, weights, cell) view of ``decide``, unused in tcplan; goes
        when ROADMAP item 9 drops its span."""
        decision = self.decide(a, b)
        return decision.index, decision.weights, decision.cell


def plan(planner: Planner, a: ConfigPoint, b: ConfigPoint) -> PlanResult:
    """Answer a query with the first rule that covers it."""
    decision = planner.decide(a, b)
    return PlanResult(decision.index, planner.path(decision, decision.index))


MAX_SAMPLES = 100_000  # as verifier.MAX_PAIRS: a path is sampled at all its times at once


def sample_times(n: int) -> list[float]:
    """n uniformly spaced times in [0, 1], both ends included; 2 <= n <= MAX_SAMPLES."""
    return list(_sample_grid(n)[0])


@lru_cache(maxsize=8, typed=True)
def _sample_grid(n: int) -> tuple[tuple[float, ...], np.ndarray]:
    """``sample_times(n)`` as a tuple and as a read-only array, made once per
    n: every caller shares them, so neither can be changed in place.  Few
    distinct n occur (the CLI's ``--samples``), and 8 grids of at most
    MAX_SAMPLES times bound the cache."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    if n > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples, got {n}")
    times = tuple([i / (n - 1) for i in range(n)])
    grid = np.array(times)
    grid.setflags(write=False)
    return times, grid


def sample_path(path: PathFn, n: int) -> list[tuple[float, ConfigPoint]]:
    """The path at ``sample_times(n)``, evaluated at once, one point per
    time: each block is split into its rows once, and a time's point takes
    its row of every block."""
    times, grid = _sample_grid(n)
    points = map(ConfigPoint, repeat(path.geometry), zip(*map(list, path.sample(grid))))
    return list(zip(times, points))


# -- elementary planners --------------------------------------------------------


def straight_line_planner(dim: int) -> Planner:
    """One-rule planner on a convex piece: constant-velocity segments."""
    geometry = convex_geometry(dim)
    rule = PlannerRule(
        name="segment",
        weight=lambda a, b: 1.0 if a[0].ndim == 1 else np.ones(len(a[0])),
        section=lambda a, b: geodesic_path(geometry, a, b),
    )
    return Planner(space=f"convex:{dim}", geometry=geometry, rules=(rule,))


def _smaller(first: float | np.ndarray, second: float | np.ndarray) -> float | np.ndarray:
    """``min(first, second)`` of two floats, and elementwise of two arrays:
    ``second`` only where it is strictly smaller, so NaN and signed zeros
    come out as Python's ``min`` gives them."""
    if isinstance(first, float):
        return min(first, second)
    return np.where(second < first, second, first)


def _shortest_arc_rule(geometry) -> PlannerRule:
    """The first rule on circles and spheres: the shortest arc, for a != -b."""
    factor = geometry.factors[0]

    def weight(a, b):
        return chord_distance(factor, a[0] + b[0]) / math.pi  # the chord from a to -b

    def section(a, b):
        return geodesic_path(geometry, a, b)

    return PlannerRule("shortest-arc", weight, section)


def _distance_rule(factor, name, section) -> PlannerRule:
    """A rule weighted by the factor distance from start to goal over pi."""

    def weight(a, b):
        return chord_distance(factor, a[0] - b[0]) / math.pi

    return PlannerRule(name, weight, section)


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
            d_ab = chord_distance(factor, a[0] - b[0])
            return _smaller(d_ab, chord_distance(factor, b[0] - pole)) / math.pi

        chart_pole = np.zeros(n + 1)
        chart_pole[chart_axis] = 1.0

        def w_chart(a, b):
            d_a = chord_distance(factor, a[0] - chart_pole)
            return _smaller(d_a, chord_distance(factor, b[0] - chart_pole)) / math.pi

        def s_chart(a, b):
            return chart_segment_path(geometry, a[0], b[0], chart_axis)

        rules = [
            _shortest_arc_rule(geometry),
            PlannerRule("two-stage", w_two_stage, s_two_stage),
            PlannerRule("chart-segment", w_chart, s_chart),
        ]

    return Planner(space=f"sphere:{n}", geometry=geometry, rules=tuple(rules))


# -- product combination ---------------------------------------------------------


def _descending(values: tuple[float, ...]) -> list[int]:
    """The indices of ``values`` in one stable descending sort."""
    return sorted(range(len(values)), key=values.__getitem__, reverse=True)


def _threshold_sets(values: tuple[float, ...]):
    """{i : values[i] >= theta} for each distinct value theta, from the
    largest down, as (its size, its least index + 1, theta, the next value
    below theta or None).  The set itself is the first ``size`` indices of
    ``_descending(values)``.

    The sort's tie groups are the distinct values, each led by its first
    index in input order, the one ``max`` would pick (so 0.0 and -0.0 come
    out as ``max`` gives them); a running minimum over the sorted indices
    gives each set's least index."""
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

    A cell's outside is max(max(0, out_f * gmax), fmax * out_g), a term
    dropped where there is no value below; each ``max`` is written as the
    comparison it makes (the second argument only where it is strictly
    greater), so NaN and signed zeros give what ``max`` gives, and the
    products fmax * out_g are taken once per T, not once per cell.

    Returns the raw per-level weights (the clamped cell margins, with an
    empty outside treated as comparing against zero) and, for each level
    with a cell (S, T), what a section reads of it: (min S + 1, min T + 1),
    the factor rules it pairs, then |S|, from which ``_tie_cell_sets``
    decodes the cell.  The rule is the lowest level with a positive cell:
    the argmax cell's level unless that cell's margin rounds to 0.
    """
    f_sets, g_sets = _threshold_sets(f), _threshold_sets(g)
    fmax, gmax = f_sets[0][2], g_sets[0][2]
    # fmax * out_g per T, and -inf for the T with no value below: outside_f
    # is 0.0 or a positive product, never NaN, so -inf never exceeds it
    g_cells = [
        (size_t, rule_t, min_g, -math.inf if out_g is None else fmax * out_g)
        for size_t, rule_t, min_g, out_g in g_sets
    ]
    levels = [0.0] * (len(f) + len(g) + 1)
    ties: dict[int, tuple[int, int, int]] = {}
    for size_s, rule_s, min_f, out_f in f_sets:
        outside_f = 0.0
        if out_f is not None:
            below_f = out_f * gmax
            if below_f > 0.0:
                outside_f = below_f
        for size_t, rule_t, min_g, below_g in g_cells:
            margin = min_f * min_g - (below_g if below_g > outside_f else outside_f)
            if margin > 0.0:
                level = size_s + size_t
                levels[level], ties[level] = margin, (rule_s, rule_t, size_s)
    return levels, ties


def _tie_cell_sets(f: tuple[float, ...], g: tuple[float, ...], ties: dict):
    """The cells (S, T), by level, of ``ties`` from ``_tie_cells(f, g)``, as
    ascending index tuples: S is the first |S| indices of f's descending
    sort and T the first level - |S| of g's.  A cell's sets end tie groups,
    so the order of tied indices does not matter."""
    f_order, g_order = _descending(f), _descending(g)
    return {
        level: (tuple(sorted(f_order[:size])), tuple(sorted(g_order[: level - size])))
        for level, (_, _, size) in ties.items()
    }


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

    Returns the (N, n + m + 1) raw level weights and the (N, n + m + 1, 2)
    ``ties`` of ``Decisions``: per level with a cell, its factor rules (the
    least index of each of the top p + 1 and q + 1 sorted positions, plus
    1).  No cell's members are built.  A row's rule is its lowest level
    with a positive cell, the argmax cell's level unless that cell's margin
    rounds to 0.
    """
    count, n, m = f.shape[0], f.shape[1], g.shape[1]
    f_order = np.argsort(-f, axis=1)
    g_order = np.argsort(-g, axis=1)
    fs = np.take_along_axis(f, f_order, axis=1)
    gs = np.take_along_axis(g, g_order, axis=1)
    fmax, gmax = fs[:, :1], gs[:, :1]
    # margins as (row, q, p): on a left-deep chain the left side is long
    outside_f = np.zeros((count, 1, n))
    below_f = (fs[:, 1:] * gmax)[:, None, :]
    outside_f[:, :, :-1] = np.where(below_f > 0.0, below_f, 0.0)
    below_g = (fmax * gs[:, 1:])[:, :, None]
    outside = np.empty((count, m, n))
    outside[:, :-1] = np.where(below_g > outside_f, below_g, outside_f)
    outside[:, -1:] = outside_f
    margin = fs[:, None, :] * gs[:, :, None] - outside

    cells = np.flatnonzero(margin > 0.0)
    rows, rest = np.divmod(cells, m * n)
    qs, ps = np.divmod(rest, n)
    width = n + m + 1
    at = rows * width + ps + qs + 2  # (row, level) as a flat position
    levels = np.zeros(count * width)
    levels[at] = margin.ravel()[cells]
    ties = np.zeros((count * width, 2), dtype=np.int64)
    ties[at, 0] = np.minimum.accumulate(f_order, axis=1).ravel()[rows * n + ps] + 1
    ties[at, 1] = np.minimum.accumulate(g_order, axis=1).ravel()[rows * m + qs] + 1
    return levels.reshape(count, width), ties.reshape(count, width, 2)


def _stacked(blocks: Blocks, spans: Sequence[slice]) -> Blocks:
    """The factor blocks of ``spans``, each span's rows after the last's: a
    span's own blocks where there is one."""
    if len(spans) == 1:
        return blocks[spans[0]]
    return tuple(np.concatenate(rows) for rows in zip(*(blocks[s] for s in spans)))


def _stacked_parts(parts: Parts, spans: Sequence[slice]) -> Blocks:
    """``_stacked`` of one query's one-row blocks, from its 1-D ``parts``:
    a span's one-row views where there is one, else ``np.array`` stacks
    each factor's parts into the rows that concatenating their one-row
    views gives, without making the views."""
    if len(spans) == 1:
        return tuple(part[None] for part in parts[spans[0]])
    return tuple(map(np.array, zip(*map(parts.__getitem__, spans))))


class ProductPlanner(Planner):
    """Combine planners on X and Y into n + m - 1 rules on X x Y.

    For a query, the factor decisions give normalized weights on each side.
    Rules are the levels k = 2, ..., n + m, a level's weight the clamped
    margin of its one tie cell W(S, T), |S| + |T| = k, whose section runs
    the factor sections with the smallest indices in S and T in parallel.
    As at every node, the rule is the first with positive weight: the
    lowest level with a positive cell, the argmax cell's level unless that
    cell's margin rounds to 0.  One decision per query picks the factor
    rules at every nesting level, down to the leaf rules; queries sharing
    those share one bundle, built flat over ``leaf_units``, not by node.
    """

    def __init__(self, left: Planner, right: Planner):
        self.left, self.right = left, right
        self.split = len(left.geometry.factors)
        levels = range(2, len(left.rules) + len(right.rules) + 1)
        rules = tuple(PlannerRule(f"level-{k}") for k in levels)
        geometry = concat_geometry(left.geometry, right.geometry)
        super().__init__(f"product({left.space},{right.space})", geometry, rules)

    def _decide(self, a: Parts, b: Parts) -> Decision:
        k = self.split
        left = self.left._decide(a[:k], b[:k])
        right = self.right._decide(a[k:], b[k:])
        levels, ties = _tie_cells(left.weights, right.weights)
        index, weights = self._first_positive(a, b, levels[2:])
        return Decision(a, b, index, weights, (left, right), ties)

    def decide_many(self, a: Blocks, b: Blocks) -> Decisions:
        """``decide`` over rows; an uncovered factor row's NaN weights give no
        positive level.  Each distinct leaf unit planner decides once, over
        the factor rows of every unit that runs it stacked unit after unit
        (``unit_spans``), and each unit takes back its rows as a slice: a
        leaf decides row by row, so they are its own decisions bit for bit.
        The product nodes then combine those slices bottom-up."""
        count, decided = len(a[0]), {}
        for unit, spans in self.unit_spans:
            factors = [f for f, _ in spans]
            block = unit.decide_many(_stacked(a, factors), _stacked(b, factors))
            for g, f in enumerate(factors):
                decided[f.start] = block.rows(slice(g * count, (g + 1) * count))
        return self._combine(a, b, (decided[f.start] for _, f, _ in self.leaf_units))

    def _combine(self, a: Blocks, b: Blocks, units) -> Decisions:
        k = self.split
        left = self.left._combine(a[:k], b[:k], units)
        right = self.right._combine(a[k:], b[k:], units)
        levels, ties = _tie_cell_rows(left.weights, right.weights)
        index, weights = self._first_positive_rows(levels[:, 2:])
        return Decisions(a, b, index, weights, (left, right), ties)

    @cached_property
    def leaf_count(self) -> int:
        return self.left.leaf_count + self.right.leaf_count

    def leaf_rules(self, decision: Decision, index: int) -> tuple[int, ...]:
        tie = decision.ties.get(index + 1)
        if tie is None:
            raise DomainMiss(f"level-{index + 1} rule does not cover this pair")
        (rule_s, rule_t, _), (left, right) = tie, decision.factors
        return self.left.leaf_rules(left, rule_s) + self.right.leaf_rules(right, rule_t)

    def leaf_keys(self, decisions: Decisions, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        pairs = decisions.ties[rows, index + 1]
        left, right = decisions.factors
        return np.concatenate(
            (
                self.left.leaf_keys(left, rows, pairs[:, 0]),
                self.right.leaf_keys(right, rows, pairs[:, 1]),
            ),
            axis=1,
        )

    @cached_property
    def leaf_units(self) -> tuple[tuple[Planner, slice, slice], ...]:
        k, split = self.split, self.left.leaf_count
        shift = lambda s, by: slice(s.start + by, s.stop + by)
        return self.left.leaf_units + tuple(
            (unit, shift(factors, k), shift(columns, split))
            for unit, factors, columns in self.right.leaf_units
        )

    @cached_property
    def unit_spans(self) -> tuple[tuple[Planner, tuple[tuple[slice, slice], ...]], ...]:
        """``leaf_units`` grouped by their planner, in order of first
        appearance: each distinct unit planner with the factor and column
        slices of every unit it runs.  Computed once per planner."""
        groups: dict[int, tuple[Planner, list[tuple[slice, slice]]]] = {}
        for unit, factors, columns in self.leaf_units:
            groups.setdefault(id(unit), (unit, []))[1].append((factors, columns))
        return tuple((unit, tuple(spans)) for unit, spans in groups.values())

    def bundle(self, a: Blocks, b: Blocks, leaves: Sequence[int]) -> PathFn:
        return self._unit_bundles(a, b, leaves, len(a[0]), _stacked)

    def path(self, decision: Decision, index: int) -> PathFn:
        """``Planner.path``: the one-row bundle of the leaf rules, its unit
        bundles' rows stacked straight from the decision's parts."""
        leaves = self.leaf_rules(decision, index)
        return self._unit_bundles(decision.a, decision.b, leaves, 1, _stacked_parts)

    def _unit_bundles(self, a, b, leaves: Sequence[int], count: int, stack) -> PathFn:
        """``bundle`` of ``count`` queries, whose starts and goals ``a`` and
        ``b`` give the rows of the units ``spans`` through ``stack(a,
        spans)``: ``_stacked`` of row blocks, or ``_stacked_parts`` of one
        query's parts.

        The leaf units' bundles run in parallel, built flat: one unit
        bundle per distinct (leaf unit, its leaf rules), over the factor
        rows of every unit that shares them stacked unit after unit; the
        units come grouped by planner (``unit_spans``), so a call only
        splits each planner's units by their leaf rules.  With
        G units of N queries stacked, unit g's rows at T times are rows g N
        T .. (g + 1) N T - 1 of that bundle's samples, bit for bit its own
        bundle's, since a bundle's rows do not depend on N; each factor
        gets its rows as a view.  The pieces are the one-step merge of the
        unit bundles' pieces.  Only ``path``, and a transfer planner over a
        product, build a product bundle: the verifier builds sections leaf
        unit by leaf unit."""
        parts = []
        for unit, slices in self.unit_spans:
            groups: dict[tuple[int, ...], list[slice]] = {}
            for factors, columns in slices:
                groups.setdefault(tuple(leaves[columns]), []).append(factors)
            parts += [
                (unit.bundle(stack(a, spans), stack(b, spans), rules), spans)
                for rules, spans in groups.items()
            ]
        width = len(self.geometry.factors)

        def sample(ts):
            out, span = [None] * width, count * len(ts)
            for bundle, spans in parts:
                # unit g's rows of each block, as views of its (G, span, ambient) form
                units = zip(*(r.reshape(len(spans), span, r.shape[1]) for r in bundle.sample(ts)))
                for factors, rows in zip(spans, units):
                    out[factors] = rows
            return tuple(out)

        pieces = merge_pieces(tuple(bundle.pieces for bundle, _ in parts))
        return PathFn(self.geometry, sample, pieces, "product")


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

    def _decide(self, a: Parts, b: Parts) -> Decision:
        rows = self.f(tuple(map(np.array, zip(a, b))))  # one f call: the query as a two-row block
        source = self.source._decide(*(tuple(x[k] for x in rows) for k in (0, 1)))
        return Decision(a, b, source.index, source.weights, (source,))

    def decide_many(self, a: Blocks, b: Blocks) -> Decisions:
        source = self.source.decide_many(self.f(a), self.f(b))
        return Decisions(a, b, source.index, source.weights, (source,))

    @cached_property
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
# Cap on a planner's coordinates, 4 * catalog.MAX_LEAVES; the verifier's
# adversarial menus build (ambient, ambient) arrays.
MAX_AMBIENT = 256


def _leaf_ambient(leaf: SpaceSpec) -> int:
    """Coordinates of a point of the leaf's planner (0 where it has none)."""
    if leaf.kind == "circle":
        return 2
    if leaf.kind == "sphere":
        return leaf.param + 1
    return leaf.param if leaf.kind == "convex" else 0


def build_planner(spec) -> Planner | None:
    """Planner for a catalog space expression, or None where none exists
    (higher-genus surfaces, complex projective spaces).  Factor planners
    are folded with product_planner in the nesting of the canonical form;
    the planner's ``space`` is the expression as spelled.  Each distinct
    canonical leaf is built once per call and shared by every factor that
    names it (planners are immutable), so torus:8's eight circles are one
    planner and a product bundle stacks them into one unit bundle; the
    returned planner itself is always a new object.  A space whose points
    would have more than ``MAX_AMBIENT`` coordinates raises
    UnsupportedParameter before any planner is built."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    form = canonical(spec)
    ambient = fold(form, _leaf_ambient, lambda _, parts: sum(parts))
    if ambient > MAX_AMBIENT:
        raise UnsupportedParameter(
            f"{spec} has {ambient} coordinates; planners take at most {MAX_AMBIENT}"
        )
    planner = fold(
        form,
        cache(lambda leaf: _LEAF_PLANNERS.get(leaf.kind, lambda _: None)(leaf.param)),
        lambda _, parts: None if any(p is None for p in parts) else reduce(product_planner, parts),
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
