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
    ConfigPoint,
    Geometry,
    InvalidPoint,
    ParityError,
    PathFn,
    antipode,
    chart_segment_path,
    concat_geometry,
    concat_paths,
    config_distance,
    convex_geometry,
    even_vector_field,
    factor_distance,
    geodesic_path,
    mapped_path,
    odd_vector_field,
    pair_paths,
    polar_arc_path,
    sphere_geometry,
)

__all__ = [
    "CoverageGap",
    "Decision",
    "DomainMiss",
    "HomotopyEndpointMismatch",
    "LengthMismatch",
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
    exactly where the rule applies; only ``Planner.path`` evaluates its
    ``section``, after checking that weight.  Composite rules are names only.
    """

    name: str
    weight: Callable[[ConfigPoint, ConfigPoint], float] | None = None
    section: Callable[[ConfigPoint, ConfigPoint], PathFn] | None = None


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


@dataclass
class Planner:
    """An ordered rule system over a product geometry.

    ``decide`` computes a query's rule, weights and cell in one pass and
    ``path`` builds a rule's section from that decision; they are the only
    way a rule is used.  ``point_sampler`` lets spaces with excluded loci
    (e.g. the punctured plane) provide their own random points to verifiers.
    """

    space: str
    geometry: Geometry
    rules: tuple[PlannerRule, ...]
    point_sampler: Callable[[np.random.Generator], ConfigPoint] | None = None

    def decide(self, a: ConfigPoint, b: ConfigPoint) -> Decision:
        raw = tuple(r.weight(a, b) for r in self.rules)
        index = next((i + 1 for i, w in enumerate(raw) if w > 0.0), 0)
        if index == 0:
            raise CoverageGap(f"{self.space}: no rule applies at ({a}, {b})")
        total = sum(raw)
        return Decision(a, b, index, tuple(w / total for w in raw))

    def path(self, decision: Decision, index: int) -> PathFn:
        """Section of the 1-based rule ``index`` at the decided query; raises
        DomainMiss where the decision gives that rule weight 0."""
        rule = self.rules[index - 1]
        if decision.weights[index - 1] <= 0.0:
            raise DomainMiss(f"{rule.name} rule does not cover this pair")
        return rule.section(decision.a, decision.b)

    def weights(self, a: ConfigPoint, b: ConfigPoint) -> tuple[float, ...]:
        """View of ``decide``, unused in tcplan; goes when ROADMAP item 5 drops its span."""
        return self.decide(a, b).weights

    def plan_info(self, a: ConfigPoint, b: ConfigPoint) -> tuple[int, tuple[float, ...], object]:
        """(index, weights, cell) view of ``decide``, unused in tcplan; goes
        when ROADMAP item 5 drops its span."""
        decision = self.decide(a, b)
        return decision.index, decision.weights, decision.cell


def plan(planner: Planner, a: ConfigPoint, b: ConfigPoint) -> PlanResult:
    """Answer a query with the first rule that covers it."""
    decision = planner.decide(a, b)
    return PlanResult(decision.index, planner.path(decision, decision.index))


def sample_path(path: PathFn, n: int) -> list[tuple[float, ConfigPoint]]:
    """n uniformly spaced samples including both endpoints."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    return [(i / (n - 1), path(i / (n - 1))) for i in range(n)]


# -- elementary planners --------------------------------------------------------


def straight_line_planner(dim: int) -> Planner:
    """One-rule planner on a convex piece: constant-velocity segments."""
    geometry = convex_geometry(dim)
    rule = PlannerRule(
        name="segment",
        weight=lambda a, b: 1.0,
        section=lambda a, b: geodesic_path(a, b),
    )
    return Planner(space=f"convex:{dim}", geometry=geometry, rules=(rule,))


def _shortest_arc_rule(factor) -> PlannerRule:
    """The first rule on circles and spheres: the shortest arc, for a != -b."""

    def weight(a, b):
        return factor_distance(factor, a.parts[0], -b.parts[0]) / math.pi

    return PlannerRule("shortest-arc", weight, geodesic_path)


def circle_planner() -> Planner:
    """Two rules on the circle: shortest arc, else positively oriented arc."""
    geometry = sphere_geometry(1)
    factor = geometry.factors[0]

    def w_positive(a, b):
        return factor_distance(factor, a.parts[0], b.parts[0]) / math.pi

    def s_positive(a, b):
        xa, xb = a.parts[0], b.parts[0]
        start = math.atan2(xa[1], xa[0])
        sweep = (math.atan2(xb[1], xb[0]) - start) % (2.0 * math.pi)

        def fn(t):
            angle = start + t * sweep
            return ConfigPoint(geometry, (np.array([math.cos(angle), math.sin(angle)]),))

        return PathFn(fn, ((0.0, 1.0, True),), "positive-arc")

    return Planner(
        space="circle",
        geometry=geometry,
        rules=(
            _shortest_arc_rule(factor),
            PlannerRule("positive-arc", w_positive, s_positive),
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

    def tangent_at(vec: np.ndarray) -> np.ndarray:
        v = odd_vector_field(vec, n) if odd else even_vector_field(vec, n)
        return v / np.linalg.norm(v)

    if odd:
        def w_two_stage(a, b):
            return factor_distance(factor, a.parts[0], b.parts[0]) / math.pi
    else:
        def w_two_stage(a, b):
            d_ab = factor_distance(factor, a.parts[0], b.parts[0])
            d_pole = factor_distance(factor, b.parts[0], pole)
            return min(d_ab, d_pole) / math.pi

    def s_two_stage(a, b):
        to_antipode = geodesic_path(a, antipode(b))
        sweep = polar_arc_path(geometry, b.parts[0], tangent_at(b.parts[0]))
        return concat_paths([(0.0, 0.5, to_antipode), (0.5, 1.0, sweep)], "two-stage")

    rules = [
        _shortest_arc_rule(factor),
        PlannerRule("two-stage", w_two_stage, s_two_stage),
    ]

    if not odd:
        chart_pole = np.zeros(n + 1)
        chart_pole[chart_axis] = 1.0

        def w_chart(a, b):
            d_a = factor_distance(factor, a.parts[0], chart_pole)
            d_b = factor_distance(factor, b.parts[0], chart_pole)
            return min(d_a, d_b) / math.pi

        def s_chart(a, b):
            return chart_segment_path(geometry, a.parts[0], b.parts[0], chart_axis)

        rules.append(PlannerRule("chart-segment", w_chart, s_chart))

    return Planner(space=f"sphere:{n}", geometry=geometry, rules=tuple(rules))


# -- product combination ---------------------------------------------------------


def _upward_closed(values: tuple[float, ...], top: float, rest: list[int]):
    """The upward-closed extensions of an argmax set by indices in ``rest``
    (whose values lie below ``top``): the empty one and {i : values[i] >=
    theta} for each distinct value theta in ``rest``.  Each comes as (its
    indices, the smallest value of the extended set, the largest value left
    outside or None).  The sets are nested and built in growing order, each
    adding at least one index, so they already come in ascending order of
    their bitmasks over ``rest``."""
    below = sorted({values[i] for i in rest}, reverse=True)
    sets = [([], top, below[0] if below else None)]
    for theta, out in zip(below, below[1:] + [None]):
        sets.append(([i for i in rest if values[i] >= theta], theta, out))
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
    therefore S = {i : f_i >= theta} for the argmax value and each distinct
    value below it, O(n * m) cells in all.

    They are visited in the order of the exhaustive enumeration over
    bitmasks of the non-max indices (S outer, T inner, ascending), so the
    float sums per level and the first cell seen per level are bitwise the
    same as visiting every superset.  (Upward-closed sets are nested, and
    two positive cells on one level would each need a product above the
    other's, so a level has at most one positive cell; the kept order makes
    the equality plain without resting on that argument.)

    Returns the raw per-level weights (the sums of clamped cell margins,
    with an empty outside treated as comparing against zero), the
    containing cell per level, and the argmax cell.
    """
    n, m = len(f), len(g)
    fmax, gmax = max(f), max(g)
    s0 = [i for i in range(n) if f[i] == fmax]
    t0 = [j for j in range(m) if g[j] == gmax]
    rest_s = [i for i in range(n) if f[i] != fmax]
    rest_t = [j for j in range(m) if g[j] != gmax]
    t_sets = [
        (t0 + t_extra, min_g, None if out_g is None else fmax * out_g)
        for t_extra, min_g, out_g in _upward_closed(g, gmax, rest_t)
    ]

    levels = [0.0] * (n + m + 1)
    cells: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    for s_extra, min_f, out_f in _upward_closed(f, fmax, rest_s):
        s = s0 + s_extra
        outside_f = 0.0 if out_f is None else max(0.0, out_f * gmax)
        for t, min_g, outside_g in t_sets:
            outside = outside_f if outside_g is None else max(outside_f, outside_g)
            margin = min_f * min_g - outside
            if margin > 0.0:
                level = len(s) + len(t)
                levels[level] += margin
                if level not in cells:
                    cells[level] = (tuple(sorted(s)), tuple(sorted(t)))

    return levels, cells, (tuple(sorted(s0)), tuple(sorted(t0)))


class ProductPlanner(Planner):
    """Combine planners on X and Y into n + m - 1 rules on X x Y.

    For a query, the factor decisions give normalized weights on each side,
    and their argmax sets S, T (grouped at exact equality) select the tie
    cell W(S, T) at level |S| + |T|.  Rules are the levels k = 2, ..., n + m;
    the section on a cell pairs the factor sections with the smallest
    indices in S and T, and a level's weight, the sum of clamped cell
    margins, is positive exactly on that level's cells.  One decision per
    query builds the sections at every nesting level.
    """

    def __init__(self, left: Planner, right: Planner):
        self.left, self.right = left, right
        self.split = len(left.geometry.factors)
        levels = range(2, len(left.rules) + len(right.rules) + 1)
        rules = tuple(PlannerRule(f"level-{k}") for k in levels)
        geometry = concat_geometry(left.geometry, right.geometry)
        super().__init__(f"product({left.space},{right.space})", geometry, rules)

    def decide(self, a: ConfigPoint, b: ConfigPoint) -> Decision:
        ax, ay = a.geometry.split_point(a, self.split)
        bx, by = b.geometry.split_point(b, self.split)
        left, right = self.left.decide(ax, bx), self.right.decide(ay, by)
        levels, cells, (s0, t0) = _tie_cells(left.weights, right.weights)
        level, total = len(s0) + len(t0), sum(levels[2:])
        weights = tuple(w / total for w in levels[2:])
        return Decision(a, b, level - 1, weights, cells[level], cells, (left, right))

    def path(self, decision: Decision, index: int) -> PathFn:
        cell = decision.cells.get(index + 1)
        if cell is None:
            raise DomainMiss(f"level-{index + 1} rule does not cover this pair")
        (s, t), (left, right) = cell, decision.factors
        return pair_paths(
            self.geometry, self.left.path(left, min(s) + 1), self.right.path(right, min(t) + 1)
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
    (checked on ``check_points`` within ``_HOMOTOPY_TOL``).  The source planner
    decides each query at (f(a), f(b)), so rule domains and weights pull
    back through f x f; a section runs in three stages: slide the start
    along the homotopy, traverse the Y-path pushed through g, then slide
    back to the goal along the reversed homotopy.  Rule count is preserved.
    """

    def __init__(
        self,
        planner: Planner,
        f: Callable[[ConfigPoint], ConfigPoint],
        g: Callable[[ConfigPoint], ConfigPoint],
        h: Callable[[float, ConfigPoint], ConfigPoint],
        geometry: Geometry,
        space: str = "transfer",
        check_points: Sequence[ConfigPoint] = (),
        point_sampler=None,
    ):
        for x in check_points:
            if config_distance(h(0.0, x), x) > _HOMOTOPY_TOL:
                raise HomotopyEndpointMismatch(f"h(0, .) is not the identity at {x}")
            if config_distance(h(1.0, x), g(f(x))) > _HOMOTOPY_TOL:
                raise HomotopyEndpointMismatch(f"h(1, .) differs from g(f(.)) at {x}")
        self.source, self.f, self.g, self.h = planner, f, g, h
        rules = tuple(PlannerRule(f"transfer({rule.name})") for rule in planner.rules)
        super().__init__(space, geometry, rules, point_sampler)

    def decide(self, a: ConfigPoint, b: ConfigPoint) -> Decision:
        source = self.source.decide(self.f(a), self.f(b))
        return Decision(a, b, source.index, source.weights, source.cell, factors=(source,))

    def path(self, decision: Decision, index: int) -> PathFn:
        a, b, h = decision.a, decision.b, self.h
        source_path = self.source.path(decision.factors[0], index)
        mid = mapped_path(source_path, self.g, self.geometry, "pushed")
        head = PathFn(lambda t: h(t, a), ((0.0, 1.0, False),), "homotopy-in")
        tail = PathFn(lambda t: h(1.0 - t, b), ((0.0, 1.0, False),), "homotopy-out")
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

    def to_circle(p: ConfigPoint) -> ConfigPoint:
        v = p.parts[0]
        return ConfigPoint(circle.geometry, (v / np.linalg.norm(v),))

    def from_circle(p: ConfigPoint) -> ConfigPoint:
        return ConfigPoint(geometry, (np.asarray(p.parts[0], dtype=float),))

    def radial_homotopy(t: float, p: ConfigPoint) -> ConfigPoint:
        v = p.parts[0]
        return ConfigPoint(geometry, ((1.0 - t) * v + t * v / np.linalg.norm(v),))

    def sampler(rng: np.random.Generator) -> ConfigPoint:
        radius = rng.uniform(0.2, 2.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return ConfigPoint(
            geometry, (np.array([radius * math.cos(angle), radius * math.sin(angle)]),)
        )

    checks = [
        ConfigPoint(geometry, (np.array([x, y]),))
        for x, y in [(1.0, 0.0), (0.5, 0.5), (-2.0, 0.25), (0.0, -0.3)]
    ]
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
