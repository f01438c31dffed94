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

The checks run over arrays.  The queries are stacked once into (N,
ambient) row blocks and go through in blocks of ``VERIFY_BATCH`` rows: a
block is decided at once into a ``Decisions`` block, its rows are grouped
by rule and leaf rules (``Planner.leaf_keys``), and each group's sections
are built and sampled as one bundle (``Planner.bundle``).  No per-query
object is built: a planner's own ``point_sampler`` draws row blocks too.

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
    random_points,
    row_norms,
    tangent_perturb_rows,
)
from .planner_core import CoverageGap, Decisions, DomainMiss, Planner

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
        if self.seed < 0:
            raise ValueError("bad verify config: seed must be non-negative")
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


def _menu_digits(menus: list[list], index: int) -> list[int]:
    """The position in each menu of entry ``index`` of
    ``itertools.product(*menus)`` (last menu fastest), without building
    the product."""
    digits = []
    for menu in reversed(menus):
        index, digit = divmod(index, len(menu))
        digits.append(digit)
    return digits[::-1]


def adversarial_rows(
    planner: Planner, rng: np.random.Generator, cap: int = 512
) -> tuple[Blocks, Blocks]:
    """Deterministic boundary-case queries injected ahead of random
    sampling, as the row blocks of their starts and of their goals."""
    geometry = planner.geometry
    if planner.point_sampler is not None:
        points = planner.point_sampler(rng, 8)
        return (
            tuple(np.concatenate((x, x)) for x in points),
            tuple(np.concatenate((x, x[::-1])) for x in points),
        )
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
    digits = np.array([_menu_digits(menus, i) for i in keep])
    return tuple(
        tuple(np.array([pair[side] for pair in menu])[digits[:, k]] for k, menu in enumerate(menus))
        for side in (0, 1)
    )


def adversarial_pairs(
    planner: Planner, rng: np.random.Generator, cap: int = 512
) -> list[tuple[ConfigPoint, ConfigPoint]]:
    """``adversarial_rows`` as (start, goal) points."""
    starts, goals = adversarial_rows(planner, rng, cap)
    point = lambda row: ConfigPoint(planner.geometry, row)
    return [(point(a), point(b)) for a, b in zip(zip(*starts), zip(*goals))]


# -- the four checks --------------------------------------------------------------


def _worst(current: float, values: list[float]) -> float:
    """The largest of ``current`` and ``values``, or NaN once any is NaN:
    Python's max keeps a NaN only in first place, and a NaN fails every
    ``<=`` check."""
    if any(map(math.isnan, values)):
        return math.nan
    return max((current, *values))


def _speed_probes(pieces) -> tuple[np.ndarray, list[float]]:
    """The speed probes of a piece structure: 4 times per constant-speed
    piece, then each one's step h = width / 64 later; and each piece's h."""
    steps, starts = [], []
    for t0, t1, const in pieces:
        if not const or t1 - t0 < 1e-6:
            continue
        width = t1 - t0
        steps.append(width / 64.0)
        starts += [t0 + width * k / 5.0 for k in range(1, 5)]
    probes = np.array(starts)
    return np.concatenate((probes, np.repeat(steps, 4) + probes)), steps


def _speed_spreads(geometry: Geometry, rows: Blocks, steps: list[float]) -> list[float]:
    """Worst relative speed spread over the constant-speed pieces of each of
    M paths, from their (M, probes, ambient) rows at ``_speed_probes``'
    times; NaN for a path with a non-finite probe distance."""
    count = len(rows[0])
    if not steps:
        return [0.0] * count
    n = 4 * len(steps)
    starts = [r[:, :n].reshape(-1, r.shape[2]) for r in rows]
    ends = [r[:, n:].reshape(-1, r.shape[2]) for r in rows]
    moved = config_distances(geometry, starts, ends).reshape(count, len(steps), 4)
    speeds = moved / np.array(steps)[:, None]
    top, low = speeds.max(axis=2), speeds.min(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        spread = np.where(top < 1e-9, 0.0, (top - low) / top)  # a constant piece counts 0
    finite = np.isfinite(moved).all(axis=(1, 2))
    return np.where(finite, spread.max(axis=1), math.nan).tolist()


def _speed_variation(path) -> float:
    """Worst relative speed spread over one path's constant-speed pieces:
    ``_speed_spreads`` of a one-path bundle."""
    probes, steps = _speed_probes(path.pieces)
    if not steps:
        return 0.0
    rows = path.sample(probes)
    return _speed_spreads(path.geometry, tuple(r[None] for r in rows), steps)[0]


def _sample_sections(
    planner: Planner, decisions: Decisions, rows: np.ndarray, ts: np.ndarray, probed: int = 0
) -> tuple[Blocks, list[float]]:
    """The section of each given row's own rule sampled at ``ts``, as
    (len(rows) * T, ambient) blocks in the order of ``rows``, and the speed
    spreads of the first ``probed`` rows' sections.

    Rows are grouped by (rule, leaf rules) in first-seen order, and each
    group's bundle is built and sampled once: at ``ts``, and also at its
    speed probes where the group holds a probed row.
    """
    index = decisions.index[rows]
    keys = np.concatenate((index[:, None], planner.leaf_keys(decisions, rows, index)), axis=1)
    _, firsts, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    geometry = planner.geometry
    count = len(ts)
    out = tuple(np.empty((len(rows), count, f.ambient)) for f in geometry.factors)
    spreads = []
    for group in np.argsort(firsts):
        members = np.flatnonzero(inverse == group)
        picked = rows[members]
        bundle = planner.bundle(
            tuple(x[picked] for x in decisions.a),
            tuple(x[picked] for x in decisions.b),
            keys[firsts[group], 1:].tolist(),
        )
        checked = int(np.count_nonzero(members < probed))  # a prefix: members ascend
        times, steps = ts, []
        if checked:
            probes, steps = _speed_probes(bundle.pieces)
            times = np.concatenate((ts, probes))
        sampled = [r.reshape(len(members), len(times), -1) for r in bundle.sample(times)]
        for block, r in zip(out, sampled):
            block[members] = r[:, :count]
        if checked:
            spreads += _speed_spreads(geometry, [r[:checked, count:] for r in sampled], steps)
    return tuple(block.reshape(-1, block.shape[2]) for block in out), spreads


def _same_cells(decisions: Decisions, rows: np.ndarray, twins: Decisions) -> np.ndarray:
    """Whether each twin (row k of ``twins``, the twin of row rows[k]) has
    the tie cell its query has at the query's decided level; true where
    the planner has no cells."""
    if decisions.cells is None:
        return np.ones(len(rows), dtype=bool)
    level = decisions.index[rows] + 1
    mine = decisions.cells[rows, level]
    theirs = twins.cells[np.arange(len(rows)), level]
    return (mine == theirs).all(axis=1)


def _query_rows(planner: Planner, rng: np.random.Generator, pairs: int) -> tuple[Blocks, Blocks]:
    """The adversarial queries, then ``pairs`` random ones, as the row
    blocks of their starts and of their goals."""
    starts, goals = adversarial_rows(planner, rng)
    sampler = planner.point_sampler or (lambda r, count: random_points(planner.geometry, r, count))
    points = sampler(rng, 2 * pairs)
    return (
        tuple(np.concatenate((x, p[0::2])) for x, p in zip(starts, points)),
        tuple(np.concatenate((y, p[1::2])) for y, p in zip(goals, points)),
    )


def verify_planner(planner: Planner, cfg: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the four checks over cfg.pairs random queries plus the adversarial
    injection; fully deterministic for a given (planner, cfg).

    The queries are stacked once into row blocks (the random ones from one
    ``random_points`` or ``point_sampler`` call) and go through in blocks
    of ``VERIFY_BATCH`` rows.  Each block is decided at once into a ``Decisions`` block, and
    its covered rows' sections are built and sampled as one bundle per
    (rule, leaf rules) group.  The twins of its eligible rows are drawn
    with one generator call (which draws what one tangent_perturb call per
    point would, in query order), decided at once, and sampled in bundles
    grouped by their own decisions.  Each check runs once over the block's
    stacked rows.
    """
    rng = np.random.default_rng(cfg.seed)
    starts, goals = _query_rows(planner, rng, cfg.pairs)
    total = len(starts[0])

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
    usage = np.zeros(len(planner.rules) + 1, dtype=np.int64)  # slot 0 counts uncovered rows

    for first in range(0, total, VERIFY_BATCH):
        block = slice(first, first + VERIFY_BATCH)
        decisions = planner.decide_many(
            tuple(x[block] for x in starts), tuple(x[block] for x in goals)
        )
        index = decisions.index
        usage += np.bincount(index, minlength=len(usage))
        covered = np.flatnonzero(index)
        uncovered += len(index) - len(covered)
        if not len(covered):
            continue
        probed = min(len(covered), SPEED_CHECKS - speed_checked)
        sampled, spreads = _sample_sections(planner, decisions, covered, ts, probed)
        max_speed = _worst(max_speed, spreads)
        speed_checked += probed

        # every path's first rows, then its last rows, against starts + goals
        last = SAMPLES_PER_PATH - 1
        first_last = tuple(
            np.concatenate((rows[::SAMPLES_PER_PATH], rows[last::SAMPLES_PER_PATH])) for rows in sampled
        )
        ends = tuple(
            np.concatenate((a[covered], b[covered])) for a, b in zip(decisions.a, decisions.b)
        )
        max_end = _worst(max_end, config_distances(geometry, first_last, ends).tolist())
        for slot in sphere_slots:
            max_norm = _worst(max_norm, np.abs(row_norms(sampled[slot]) - 1.0).tolist())

        # positions in ``covered`` of the rows whose twins are drawn
        eligible = np.flatnonzero(decisions.weights[covered, index[covered] - 1] >= MARGIN_ETA)
        if not len(eligible):
            continue
        rows = covered[eligible]
        normals = rng.standard_normal((len(rows), 2, geometry.ambient_dim))
        twins = planner.decide_many(*(
            tangent_perturb_rows(geometry, tuple(x[rows] for x in side), DELTA, normals[:, k])
            for k, side in enumerate((decisions.a, decisions.b))
        ))
        uncovered += int(np.count_nonzero(twins.index == 0))
        matched = np.flatnonzero((twins.index == index[rows]) & _same_cells(decisions, rows, twins))
        if len(matched):
            # the rows of the compared queries' paths, path by path
            compared = eligible[matched]
            path_rows = (compared[:, None] * SAMPLES_PER_PATH + np.arange(SAMPLES_PER_PATH)).ravel()
            twin_sampled, _ = _sample_sections(planner, twins, matched, ts)
            gaps = config_distances(geometry, [p[path_rows] for p in sampled], twin_sampled)
            sups = gaps.reshape(len(matched), SAMPLES_PER_PATH).max(axis=1)
            max_ratio = _worst(max_ratio, (sups / DELTA).tolist())
            continuity_checked += len(matched)

    return VerifyReport(
        space=planner.space,
        seed=cfg.seed,
        pairs_checked=total,
        max_endpoint_error=max_end,
        uncovered_pairs=uncovered,
        max_continuity_ratio=max_ratio,
        continuity_checked=continuity_checked,
        max_norm_error=max_norm,
        max_speed_variation=max_speed,
        speed_checked=speed_checked,
        rule_usage=dict(enumerate(usage[1:].tolist(), 1)),
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
