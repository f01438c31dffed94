"""Seeded statistical verification of planner contracts.

Four checks run over a deterministic sample of query pairs (random pairs
plus an adversarial injection of boundary configurations: equal pairs,
per-factor antipodal pairs, exact weight ties, and the tangent-field zero
pair on even spheres):

section      path(0) = start and path(1) = goal within TOLERANCE;
coverage     some rule applies to every sampled pair;
continuity   inside each rule's weight interior (weight >= MARGIN_ETA),
             perturbing both endpoints tangentially by DELTA moves the
             whole path by at most MAX_RATIO * DELTA, provided the
             perturbed query stays in the same rule and tie cell;
geometry     sampled path points stay on their spheres within TOLERANCE,
             and segments declared constant-speed have sampled speed
             variation < 1%.

The continuity bound is an empirical regression guard, not a theorem: the
modulus of any rule blows up at its domain boundary, which is exactly why
several rules are needed in the first place; restricting to the weight
interior is what makes a finite bound meaningful.

``demonstrate_discontinuity`` exhibits that blow-up: two families of
queries converging to the same boundary pair from inside a rule's domain
whose paths stay far apart, certifying that the rule's section cannot
extend continuously.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import BoundsReport, SpaceDescriptor, tc_bounds
from .geometry import (
    Blocks,
    ConfigPoint,
    Geometry,
    config_distances,
    random_point,
    row_norms,
    stack_points,
    tangent_perturb_rows,
)
from .planner_core import CoverageGap, DomainMiss, Planner

DEFAULT_SPEED_TOL = 0.01
MAX_PAIRS = 100_000
SAMPLES_PER_PATH = 9
MAX_RATIO = 200.0
DELTA = 1e-4  # tangent step of the continuity twins
MARGIN_ETA = 0.1  # least rule weight at which continuity is checked
TOLERANCE = 1e-9  # endpoint and sphere-norm error allowed
SPEED_CHECKS = 200
VERIFY_BATCH = 256  # queries decided, perturbed and checked together
DEMO_OFFSETS = (1e-1, 1e-2, 1e-3, 1e-4)
DEMO_SAMPLES = 33
_INT64_MAX = 2**63 - 1


class FamilyLeavesDomain(ValueError):
    """A discontinuity-demo family stepped outside the rule's domain."""


class Mismatch(ValueError):
    """Planner rule count disagrees with the catalog's planner or exact complexity."""


@dataclass(frozen=True)
class VerifyConfig:
    """The seed and size of one verification run; defaults match the
    acceptance runs.  The thresholds are the constants ``DELTA``,
    ``MARGIN_ETA``, ``TOLERANCE`` and ``MAX_RATIO``."""

    seed: int = 42
    pairs: int = 10_000

    def __post_init__(self):
        if not 1 <= self.pairs <= MAX_PAIRS:
            # every query pair is built before checking starts
            raise ValueError(f"bad verify config: pairs must be positive and at most {MAX_PAIRS}")


@dataclass(frozen=True)
class VerifyReport:
    """Worst-case values and pass flags for the four planner checks."""

    space: str
    seed: int
    pairs_checked: int
    max_endpoint_error: float
    uncovered_pairs: int
    max_continuity_ratio: float
    continuity_checked: int
    max_norm_error: float
    max_speed_variation: float
    speed_checked: int
    rule_usage: dict[int, int]
    section_pass: bool
    coverage_pass: bool
    continuity_pass: bool
    geometry_pass: bool

    @property
    def passed(self) -> bool:
        return (
            self.section_pass
            and self.coverage_pass
            and self.continuity_pass
            and self.geometry_pass
        )

    def as_dict(self) -> dict:
        """The report as JSON values; a NaN or infinite worst value is None."""
        finite = lambda x: x if math.isfinite(x) else None
        return {
            "space": self.space,
            "seed": self.seed,
            "pairs_checked": self.pairs_checked,
            "passed": self.passed,
            "section": {
                "pass": self.section_pass,
                "max_endpoint_error": finite(self.max_endpoint_error),
            },
            "coverage": {"pass": self.coverage_pass, "uncovered_pairs": self.uncovered_pairs},
            "continuity": {
                "pass": self.continuity_pass,
                "max_ratio": finite(self.max_continuity_ratio),
                "checked": self.continuity_checked,
            },
            "geometry": {
                "pass": self.geometry_pass,
                "max_norm_error": finite(self.max_norm_error),
                "max_speed_variation": finite(self.max_speed_variation),
                "speed_checked": self.speed_checked,
            },
            "rule_usage": {str(k): v for k, v in sorted(self.rule_usage.items())},
        }


# -- adversarial injection -------------------------------------------------------


def _sphere_tie_pair(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A factor pair whose rule weights tie at exact float equality.

    Coordinate-axis points make the relevant chord lengths bitwise equal:
    on odd spheres, the circle included, (e1, e2); on even spheres,
    (e2, -pole) ties all three weights.
    """
    ambient = dim + 1
    e = lambda i: np.eye(ambient)[i]
    if dim % 2 == 0:
        return e(1), -e(ambient - 1)
    return e(0), e(1)


def _factor_pair_menu(factor, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Adversarial (start, goal) choices for one factor, fixed per space kind."""
    if factor.kind == "sphere":
        a = rng.standard_normal(factor.ambient)
        a /= np.linalg.norm(a)
        menu = [(a, a.copy()), (a, -a), _sphere_tie_pair(factor.dim)]
        if factor.dim % 2 == 0:
            pole = np.eye(factor.ambient)[factor.ambient - 1]
            chart_pole = np.eye(factor.ambient)[0]
            e2 = np.eye(factor.ambient)[1]
            b = rng.standard_normal(factor.ambient)
            b /= np.linalg.norm(b)
            # (e2, pole) ties exactly two weights, the menu's tie pair all three
            menu += [(-pole, pole), (e2, pole.copy()), (b, pole.copy()), (chart_pole, b.copy())]
        return menu
    v = rng.uniform(-1.0, 1.0, factor.ambient)
    w = rng.uniform(-1.0, 1.0, factor.ambient)
    return [(v, v.copy()), (v, w)]


def _menu_combo(menus: list[list], index: int) -> tuple:
    """Entry ``index`` of ``itertools.product(*menus)`` (last menu fastest),
    without building the product."""
    combo = []
    for menu in reversed(menus):
        index, digit = divmod(index, len(menu))
        combo.append(menu[digit])
    return tuple(reversed(combo))


def adversarial_pairs(
    planner: Planner, rng: np.random.Generator, cap: int = 512
) -> list[tuple[ConfigPoint, ConfigPoint]]:
    """Deterministic boundary-case queries injected ahead of random sampling."""
    geometry = planner.geometry
    if planner.point_sampler is not None:
        pts = [planner.point_sampler(rng) for _ in range(8)]
        return [(p, p) for p in pts] + list(zip(pts, reversed(pts)))
    menus = [_factor_pair_menu(f, rng) for f in geometry.factors]
    total = math.prod(len(menu) for menu in menus)
    keep = range(total)
    if total > _INT64_MAX:
        # past a C long for rng.choice: exact Python ints from a seeded stream
        draw = random.Random(int(rng.integers(_INT64_MAX)))
        picked: set[int] = set()
        while len(picked) < min(cap, total):
            picked.add(draw.randrange(total))
        keep = sorted(picked)
    elif total > cap:
        keep = sorted(int(i) for i in rng.choice(total, size=cap, replace=False))
    out = []
    for i in keep:
        combo = _menu_combo(menus, i)
        a = ConfigPoint(geometry, tuple(x for x, _ in combo))
        b = ConfigPoint(geometry, tuple(y for _, y in combo))
        out.append((a, b))
    return out


# -- the four checks --------------------------------------------------------------


def _worst(current: float, values: list[float]) -> float:
    """The largest of ``current`` and ``values``, or NaN once any is NaN:
    Python's max keeps a NaN only in first place, and a NaN fails every
    ``<=`` check."""
    if any(map(math.isnan, values)):
        return math.nan
    return max(current, *values)


def _speed_variation(path) -> float:
    """Worst relative speed spread over the path's constant-speed pieces:
    4 probes of step h = width / 64 per piece, all evaluated at once."""
    steps, starts = [], []
    for t0, t1, const in path.pieces:
        if not const or t1 - t0 < 1e-6:
            continue
        width = t1 - t0
        steps.append(width / 64.0)
        starts += [t0 + width * k / 5.0 for k in range(1, 5)]
    if not steps:
        return 0.0
    probes = np.array(starts)
    ends = np.repeat(steps, 4) + probes
    rows = path.sample(np.concatenate((probes, ends)))
    n = len(starts)
    moved = config_distances(path.geometry, [r[:n] for r in rows], [r[n:] for r in rows]).tolist()
    if not all(map(math.isfinite, moved)):
        return math.nan
    worst = 0.0
    for i, h in enumerate(steps):
        speeds = [d / h for d in moved[4 * i : 4 * i + 4]]
        top = max(speeds)
        if top < 1e-9:
            continue  # constant piece
        worst = max(worst, (top - min(speeds)) / top)
    return worst


def _stacked(samples: list[Blocks]) -> Blocks:
    """Sampled paths of one geometry, their rows stacked factor by factor."""
    return tuple(map(np.concatenate, zip(*samples)))


def _perturbed(
    geometry: Geometry, points: list[ConfigPoint], normals: np.ndarray
) -> list[ConfigPoint]:
    """Each point moved by DELTA as tangent_perturb moves it with these normals."""
    moved = tangent_perturb_rows(geometry, stack_points(points), DELTA, normals)
    return [ConfigPoint(geometry, row) for row in zip(*moved)]


def verify_planner(planner: Planner, cfg: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the four checks over cfg.pairs random queries plus the adversarial
    injection; fully deterministic for a given (planner, cfg).

    The queries go through in blocks of ``VERIFY_BATCH``: each block is
    decided at once, its eligible queries' twins are drawn with one
    generator call (which draws what one tangent_perturb call per point
    would, in query order) and decided at once, and each check runs once
    over the block's stacked rows.  Paths are built and sampled per query.
    """
    rng = np.random.default_rng(cfg.seed)
    sampler = planner.point_sampler or (lambda r: random_point(planner.geometry, r))
    queries = adversarial_pairs(planner, rng)
    for _ in range(cfg.pairs):
        queries.append((sampler(rng), sampler(rng)))

    geometry = planner.geometry
    ts = np.array([i / (SAMPLES_PER_PATH - 1) for i in range(SAMPLES_PER_PATH)])
    sphere_slots = [i for i, f in enumerate(geometry.factors) if f.kind == "sphere"]

    max_end = 0.0
    uncovered = 0
    max_ratio = 0.0
    continuity_checked = 0
    max_norm = 0.0
    max_speed = 0.0
    speed_checked = 0
    usage: dict[int, int] = {i + 1: 0 for i in range(len(planner.rules))}

    for first in range(0, len(queries), VERIFY_BATCH):
        block = queries[first : first + VERIFY_BATCH]
        starts, goals, sampled = [], [], []
        eligible = []  # (position in sampled, rule, cell) of each query whose twins are drawn
        for (a, b), decision in zip(block, planner.decide_many(*zip(*block))):
            if decision is None:
                uncovered += 1
                continue
            index = decision.index
            usage[index] += 1
            path = planner.path(decision, index)
            if speed_checked < SPEED_CHECKS:
                max_speed = _worst(max_speed, [_speed_variation(path)])
                speed_checked += 1
            if decision.weights[index - 1] >= MARGIN_ETA:
                eligible.append((len(sampled), index, decision.cell))
            starts.append(a)
            goals.append(b)
            sampled.append(path.sample(ts))
        if not sampled:
            continue

        # every path's first rows, then its last rows, against starts + goals
        points = _stacked(sampled)
        last = SAMPLES_PER_PATH - 1
        first_last = tuple(
            np.concatenate((rows[::SAMPLES_PER_PATH], rows[last::SAMPLES_PER_PATH])) for rows in points
        )
        ends = stack_points(starts + goals)
        max_end = _worst(max_end, config_distances(geometry, first_last, ends).tolist())
        for slot in sphere_slots:
            max_norm = _worst(max_norm, np.abs(row_norms(points[slot]) - 1.0).tolist())

        if not eligible:
            continue
        normals = rng.standard_normal((len(eligible), 2, geometry.ambient_dim))
        twins = planner.decide_many(
            _perturbed(geometry, [starts[k] for k, *_ in eligible], normals[:, 0]),
            _perturbed(geometry, [goals[k] for k, *_ in eligible], normals[:, 1]),
        )
        compared, twin_samples = [], []
        for (k, index, cell), twin in zip(eligible, twins):
            if twin is None:
                uncovered += 1
            elif twin.index == index and twin.cell == cell:
                compared.append(sampled[k])
                twin_samples.append(planner.path(twin, index).sample(ts))
        if compared:
            gaps = config_distances(geometry, _stacked(compared), _stacked(twin_samples))
            sups = gaps.reshape(len(compared), SAMPLES_PER_PATH).max(axis=1)
            max_ratio = _worst(max_ratio, (sups / DELTA).tolist())
            continuity_checked += len(compared)

    return VerifyReport(
        space=planner.space,
        seed=cfg.seed,
        pairs_checked=len(queries),
        max_endpoint_error=max_end,
        uncovered_pairs=uncovered,
        max_continuity_ratio=max_ratio,
        continuity_checked=continuity_checked,
        max_norm_error=max_norm,
        max_speed_variation=max_speed,
        speed_checked=speed_checked,
        rule_usage=usage,
        section_pass=max_end <= TOLERANCE,
        coverage_pass=uncovered == 0,
        continuity_pass=math.isfinite(max_ratio) and max_ratio <= MAX_RATIO,
        geometry_pass=max_norm <= TOLERANCE and max_speed < DEFAULT_SPEED_TOL,
    )


# -- boundary discontinuity demonstrations ------------------------------------------


@dataclass(frozen=True)
class DivergenceReport:
    """Path gaps between two families approaching a common boundary pair."""

    rule_index: int
    offsets: tuple[float, ...]
    gaps: tuple[float, ...]

    @property
    def min_gap(self) -> float:
        """The smallest gap, or NaN once any gap is NaN (see ``_worst``)."""
        if any(map(math.isnan, self.gaps)):
            return math.nan
        return min(self.gaps)


def demonstrate_discontinuity(
    planner: Planner,
    rule_index: int,
    family_a: Callable[[float], tuple[ConfigPoint, ConfigPoint]],
    family_b: Callable[[float], tuple[ConfigPoint, ConfigPoint]],
) -> DivergenceReport:
    """Sup-distance between the rule's paths along two approach families,
    at each of ``DEMO_OFFSETS`` over ``DEMO_SAMPLES`` times.

    Both families must stay inside the rule's domain while converging to a
    shared boundary pair; a gap bounded away from zero as the offset
    shrinks certifies numerically that no continuous extension exists.  A
    NaN path gives a NaN gap, which certifies nothing.
    """
    ts = [i / (DEMO_SAMPLES - 1) for i in range(DEMO_SAMPLES)]
    geometry = planner.geometry
    gaps = []
    for eps in DEMO_OFFSETS:
        paths = []
        for a, b in (family_a(eps), family_b(eps)):
            try:
                paths.append(planner.path(planner.decide(a, b), rule_index))
            except (CoverageGap, DomainMiss):
                raise FamilyLeavesDomain(
                    f"rule {rule_index} does not cover the offset-{eps} pair ({a}, {b})"
                ) from None
        path_a, path_b = paths
        gap = config_distances(geometry, path_a.sample(ts), path_b.sample(ts))
        gaps.append(_worst(0.0, gap.tolist()))
    return DivergenceReport(rule_index, DEMO_OFFSETS, tuple(gaps))


def circle_antipodal_families(planner: Planner):
    """Approach the antipodal boundary of the circle's shortest-arc rule
    from either side: goals just below and just above half a turn."""
    geometry = planner.geometry

    def pair_at(angle: float):
        a = ConfigPoint(geometry, (np.array([1.0, 0.0]),))
        b = ConfigPoint(geometry, (np.array([math.cos(angle), math.sin(angle)]),))
        return a, b

    return (lambda eps: pair_at(math.pi - eps)), (lambda eps: pair_at(math.pi + eps))


def sphere_antipodal_families(planner: Planner):
    """Approach the antipodal boundary of the 2-sphere's shortest-arc rule
    along two different great circles."""
    geometry = planner.geometry

    def pair_via(axis: int):
        def family(eps: float):
            a = ConfigPoint(geometry, (np.array([1.0, 0.0, 0.0]),))
            goal = np.zeros(3)
            goal[0] = -math.cos(eps)
            goal[axis] = math.sin(eps)
            b = ConfigPoint(geometry, (goal,))
            return a, b

        return family

    return pair_via(1), pair_via(2)


# -- reconciliation -----------------------------------------------------------------


@dataclass(frozen=True)
class ReconcileReport:
    space: str
    rule_count: int
    known_tc: int
    bounds: BoundsReport

    def as_dict(self) -> dict:
        return {
            "space": self.space,
            "rule_count": self.rule_count,
            "known_tc": self.known_tc,
            "bounds": self.bounds.as_dict(),
        }


def reconcile(planner: Planner, descriptor: SpaceDescriptor) -> ReconcileReport:
    """Check the built planner against the catalog's exact complexity value:
    its rule count must equal that value and the descriptor's planner rule
    count, which ``tc_bounds`` cites, and the bound bracket must close on it."""
    if descriptor.known_tc is None:
        raise ValueError(f"{descriptor.spec} has no exact complexity on record")
    count = len(planner.rules)
    if count != descriptor.known_tc:
        raise Mismatch(
            f"{descriptor.spec}: planner has {count} rules but the exact complexity is "
            f"{descriptor.known_tc}"
        )
    if count != descriptor.rules:
        raise Mismatch(
            f"{descriptor.spec}: planner has {count} rules but the catalog's planner rule "
            f"count is {descriptor.rules}"
        )
    bounds = tc_bounds(descriptor)
    if not bounds.exact or bounds.lower != descriptor.known_tc:
        raise Mismatch(
            f"{descriptor.spec}: bounds ({bounds.lower}, {bounds.upper}) do not close on "
            f"{descriptor.known_tc}"
        )
    return ReconcileReport(str(descriptor.spec), count, descriptor.known_tc, bounds)
