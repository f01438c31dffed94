"""Seeded statistical verification of planner contracts.

Four checks run over a deterministic sample of query pairs (random pairs
plus an adversarial injection of boundary configurations: equal pairs,
per-factor antipodal pairs, exact weight ties, and the tangent-field zero
pair on even spheres):

section      path(0) = start and path(1) = goal within tolerance;
coverage     some rule applies to every sampled pair;
continuity   inside each rule's weight interior (weight >= margin_eta),
             perturbing both endpoints tangentially by delta moves the
             whole path by at most MAX_RATIO * delta, provided the
             perturbed query stays in the same rule and tie cell;
geometry     sampled path points stay on their spheres, and segments
             declared constant-speed have sampled speed variation < 1%.

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
from typing import Callable, Sequence

import numpy as np

from .catalog import BoundsReport, SpaceDescriptor, tc_bounds
from .geometry import ConfigPoint, config_distance, random_point, tangent_perturb, vector_norm
from .planner_core import CoverageGap, DomainMiss, Planner

DEFAULT_SPEED_TOL = 0.01
MAX_PAIRS = 100_000
SAMPLES_PER_PATH = 9
MAX_RATIO = 200.0
SPEED_CHECKS = 200
_INT64_MAX = 2**63 - 1


class FamilyLeavesDomain(ValueError):
    """A discontinuity-demo family stepped outside the rule's domain."""


class Mismatch(ValueError):
    """Planner rule count disagrees with the catalog's exact complexity."""


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for one verification run; defaults match the acceptance runs."""

    seed: int = 42
    pairs: int = 10_000
    delta: float = 1e-4
    margin_eta: float = 0.1
    tolerance: float = 1e-9

    def __post_init__(self):
        for name in ("delta", "margin_eta", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"bad verify config: {name} must be finite")
        if self.pairs > MAX_PAIRS:
            # every query pair is built before checking starts
            raise ValueError(f"bad verify config: pairs must be at most {MAX_PAIRS}")
        if self.pairs < 1 or self.delta <= 0 or not (0 <= self.margin_eta < 1):
            raise ValueError("bad verify config")
        if self.tolerance <= 0:
            raise ValueError("bad verify config")


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
        return {
            "space": self.space,
            "seed": self.seed,
            "pairs_checked": self.pairs_checked,
            "passed": self.passed,
            "section": {"pass": self.section_pass, "max_endpoint_error": self.max_endpoint_error},
            "coverage": {"pass": self.coverage_pass, "uncovered_pairs": self.uncovered_pairs},
            "continuity": {
                "pass": self.continuity_pass,
                "max_ratio": self.max_continuity_ratio,
                "checked": self.continuity_checked,
            },
            "geometry": {
                "pass": self.geometry_pass,
                "max_norm_error": self.max_norm_error,
                "max_speed_variation": self.max_speed_variation,
                "speed_checked": self.speed_checked,
            },
            "rule_usage": {str(k): v for k, v in sorted(self.rule_usage.items())},
        }


# -- adversarial injection -------------------------------------------------------


def _sphere_tie_pair(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A factor pair whose rule weights tie at exact float equality.

    Coordinate-axis points make the relevant chord lengths bitwise equal:
    on the circle, (e1, e2); on even spheres, (e2, -pole) ties all three
    weights; on odd spheres of dimension >= 3, (e1, e2).
    """
    ambient = dim + 1
    e = lambda i: np.eye(ambient)[i]
    if dim == 1:
        return e(0), e(1)
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


def _speed_variation(path, cfg: VerifyConfig) -> float:
    """Worst relative speed spread over the path's constant-speed pieces."""
    worst = 0.0
    for t0, t1, const in path.pieces:
        if not const or t1 - t0 < 1e-6:
            continue
        width = t1 - t0
        h = width / 64.0
        speeds = []
        for k in range(1, 5):
            t = t0 + width * k / 5.0
            speeds.append(config_distance(path(t), path(t + h)) / h)
        top = max(speeds)
        if top < 1e-9:
            continue  # constant piece
        worst = max(worst, (top - min(speeds)) / top)
    return worst


def verify_planner(planner: Planner, cfg: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the four checks over cfg.pairs random queries plus the adversarial
    injection; fully deterministic for a given (planner, cfg)."""
    rng = np.random.default_rng(cfg.seed)
    sampler = planner.point_sampler or (lambda r: random_point(planner.geometry, r))
    queries = adversarial_pairs(planner, rng)
    for _ in range(cfg.pairs):
        queries.append((sampler(rng), sampler(rng)))

    ts = [i / (SAMPLES_PER_PATH - 1) for i in range(SAMPLES_PER_PATH)]
    sphere_slots = [i for i, f in enumerate(planner.geometry.factors) if f.kind == "sphere"]

    max_end = 0.0
    uncovered = 0
    max_ratio = 0.0
    continuity_checked = 0
    max_norm = 0.0
    max_speed = 0.0
    speed_checked = 0
    usage: dict[int, int] = {i + 1: 0 for i in range(len(planner.rules))}

    for a, b in queries:
        try:
            decision = planner.decide(a, b)
        except CoverageGap:
            uncovered += 1
            continue
        index = decision.index
        usage[index] += 1
        path = planner.path(decision, index)
        points = [path(t) for t in ts]

        max_end = max(
            max_end, config_distance(points[0], a), config_distance(points[-1], b)
        )
        for p in points:
            for slot in sphere_slots:
                max_norm = max(max_norm, abs(vector_norm(p.parts[slot]) - 1.0))

        if speed_checked < SPEED_CHECKS:
            max_speed = max(max_speed, _speed_variation(path, cfg))
            speed_checked += 1

        if decision.weights[index - 1] >= cfg.margin_eta:
            a2 = tangent_perturb(a, cfg.delta, rng)
            b2 = tangent_perturb(b, cfg.delta, rng)
            try:
                twin = planner.decide(a2, b2)
            except CoverageGap:
                uncovered += 1
                continue
            if twin.index == index and twin.cell == decision.cell:
                path2 = planner.path(twin, index)
                sup = max(config_distance(p, path2(t)) for t, p in zip(ts, points))
                max_ratio = max(max_ratio, sup / cfg.delta)
                continuity_checked += 1

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
        section_pass=max_end <= cfg.tolerance,
        coverage_pass=uncovered == 0,
        continuity_pass=math.isfinite(max_ratio) and max_ratio <= MAX_RATIO,
        geometry_pass=max_norm <= cfg.tolerance and max_speed < DEFAULT_SPEED_TOL,
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
        return min(self.gaps)

    def as_dict(self) -> dict:
        return {
            "rule_index": self.rule_index,
            "offsets": list(self.offsets),
            "gaps": list(self.gaps),
            "min_gap": self.min_gap,
        }


def demonstrate_discontinuity(
    planner: Planner,
    rule_index: int,
    family_a: Callable[[float], tuple[ConfigPoint, ConfigPoint]],
    family_b: Callable[[float], tuple[ConfigPoint, ConfigPoint]],
    offsets: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
    samples: int = 33,
) -> DivergenceReport:
    """Sup-distance between the rule's paths along two approach families.

    Both families must stay inside the rule's domain while converging to a
    shared boundary pair; a gap bounded away from zero as the offset
    shrinks certifies numerically that no continuous extension exists.
    """
    ts = [i / (samples - 1) for i in range(samples)]
    gaps = []
    for eps in offsets:
        paths = []
        for a, b in (family_a(eps), family_b(eps)):
            try:
                paths.append(planner.path(planner.decide(a, b), rule_index))
            except (CoverageGap, DomainMiss):
                raise FamilyLeavesDomain(
                    f"rule {rule_index} does not cover the offset-{eps} pair ({a}, {b})"
                ) from None
        path_a, path_b = paths
        gaps.append(max(config_distance(path_a(t), path_b(t)) for t in ts))
    return DivergenceReport(rule_index, tuple(offsets), tuple(gaps))


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
    rule count must equal it, and the bound bracket must close on it."""
    if descriptor.known_tc is None:
        raise ValueError(f"{descriptor.spec} has no exact complexity on record")
    count = len(planner.rules)
    if count != descriptor.known_tc:
        raise Mismatch(
            f"{descriptor.spec}: planner has {count} rules but the exact complexity is "
            f"{descriptor.known_tc}"
        )
    bounds = tc_bounds(descriptor, planner_rule_count=count)
    if not bounds.exact or bounds.lower != descriptor.known_tc:
        raise Mismatch(
            f"{descriptor.spec}: bounds ({bounds.lower}, {bounds.upper}) do not close on "
            f"{descriptor.known_tc}"
        )
    return ReconcileReport(str(descriptor.spec), count, descriptor.known_tc, bounds)
