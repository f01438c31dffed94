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
             perturbed query runs the same rule on the same leaf rules;
geometry     sampled path points stay on their spheres within TOLERANCE,
             and segments declared constant-speed have sampled speed
             variation < 1%.

The checks run over arrays.  The queries are stacked once into (N,
ambient) row blocks and go through in blocks of ``VERIFY_BATCH`` rows: a
block is decided at once into a ``Decisions`` block, and every planner's
sections are built leaf unit by leaf unit (``Planner.leaf_units``).  The
factors of a product section run at equal times, so a unit's rows depend
only on its own leaf rules (``Planner.leaf_keys``): the rows that share
them are built and sampled, speed probes included, as one unit bundle
(``Planner.bundle``), and no product bundle is built.  A twin is compared
with its query where both decide the same rule and have equal
``leaf_keys`` rows, the key the sections are grouped by: a product
section is the product of its leaf sections, so the two then run one
continuous formula at nearby inputs.  No per-query object is built: a
planner's own ``point_sampler`` draws row blocks too.

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
    PathFn,
    config_distances,
    merge_pieces,
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


def _menu_digit_columns(menus: list[list], keep: np.ndarray) -> np.ndarray:
    """The position in each menu of each entry ``keep`` of
    ``itertools.product(*menus)`` (last menu fastest), without building the
    product: one floor division and one remainder per menu over all of
    ``keep`` at once, as a (len(keep), len(menus)) int array.  ``keep``
    holds int64, or Python ints (object dtype) past a C long."""
    digits = np.empty((len(keep), len(menus)), dtype=np.int64)
    for k in range(len(menus) - 1, -1, -1):
        size = len(menus[k])
        digits[:, k] = keep % size
        keep = keep // size
    return digits


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
    if total > _INT64_MAX:
        # past a C long for rng.choice: exact Python ints from a seeded stream
        draw = random.Random(int(rng.integers(_INT64_MAX)))
        picked: set[int] = set()
        while len(picked) < min(cap, total):
            picked.add(draw.randrange(total))
        keep = np.array(sorted(picked), dtype=object)
    elif total > cap:
        keep = np.sort(rng.choice(total, size=cap, replace=False).astype(np.int64))
    else:
        keep = np.arange(total, dtype=np.int64)
    digits = _menu_digit_columns(menus, keep)
    return tuple(
        tuple(np.array([pair[side] for pair in menu])[digits[:, k]] for k, menu in enumerate(menus))
        for side in (0, 1)
    )


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


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, axis=0, return_inverse=True)`` of an (R, C) array
    of non-negative ints, numbered one column at a time: each row's number
    so far times (the column's largest value + 1), plus its value, ranked
    among the codes that occur.  Codes stay below R * (largest value + 1),
    so no count of columns overflows int64."""
    inverse = np.zeros(len(keys), dtype=np.int64)
    for column in keys.T:
        codes = inverse * (int(column.max()) + 1) + column
        present = np.flatnonzero(np.bincount(codes))
        inverse = np.searchsorted(present, codes)
    member = np.empty(len(present), dtype=np.int64)
    member[inverse] = np.arange(len(keys))  # some row of each: the rows of one are equal
    return keys[member], inverse


def _unit_groups(
    unit: Planner, decisions: Decisions, rows: np.ndarray, factors: slice, keys: np.ndarray
) -> tuple[list[tuple[np.ndarray, PathFn]], np.ndarray]:
    """The given rows of a block grouped by one leaf unit's ``keys`` (its
    columns of ``leaf_keys``, numbered by ``_distinct_rows``): each group's
    positions in ``rows``, ascending, with the unit bundle of their
    sections on the unit's ``factors``; and the group of each row."""
    values, inverse = _distinct_rows(keys)
    a, b = decisions.a[factors], decisions.b[factors]
    groups = []
    for group, leaves in enumerate(values.tolist()):
        members = np.flatnonzero(inverse == group)
        picked = rows[members]
        bundle = unit.bundle(tuple(x[picked] for x in a), tuple(x[picked] for x in b), leaves)
        groups.append((members, bundle))
    return groups, inverse


def _piece_classes(units: list[tuple], probed: int) -> list[tuple[np.ndarray, tuple]]:
    """The first ``probed`` rows of a block grouped by the piece structure
    of their sections, the merge of their units' bundles' pieces: each
    class's rows and pieces.  ``units`` holds each leaf unit's factors,
    groups and row groups (``_unit_groups``)."""
    structures, ids = [], []
    for _, groups, inverse in units:
        seen: dict[tuple, int] = {}
        numbered = [seen.setdefault(bundle.pieces, len(seen)) for _, bundle in groups]
        structures.append(list(seen))
        ids.append(np.array(numbered)[inverse[:probed]])
    combos, inverse = _distinct_rows(np.stack(ids, axis=1))
    classes: dict[tuple, int] = {}
    numbers = []
    for combo in combos.tolist():
        merged = merge_pieces(tuple(structures[u][i] for u, i in enumerate(combo)))
        numbers.append(classes.setdefault(merged, len(classes)))
    row_class = np.array(numbers)[inverse]
    return [(np.flatnonzero(row_class == c), pieces) for c, pieces in enumerate(classes)]


def _sample_sections(
    planner: Planner, decisions: Decisions, rows: np.ndarray, ts: np.ndarray, probed: int = 0
) -> tuple[Blocks, list[float]]:
    """The section of each given row's own rule sampled at ``ts``, as
    (len(rows) * T, ambient) blocks in the order of ``rows``, and the speed
    spreads of the first ``probed`` rows' sections, one per row in an order
    of their own.

    Sections are built leaf unit by leaf unit (``Planner.leaf_units``): a
    unit's rows of a section depend only on the unit's own leaf rules.  The
    rows are grouped by each unit's key columns of ``leaf_keys``, and each
    group's unit bundle is built and sampled once.  The probed rows fall
    into classes by the merge of their units' pieces (``merge_pieces``); a
    unit bundle holding a probed row is sampled at ``ts`` and at the probes
    of every class, and each class's spreads are read from those samples.
    """
    keys = planner.leaf_keys(decisions, rows, decisions.index[rows])
    units = [
        (factors, *_unit_groups(unit, decisions, rows, factors, keys[:, columns]))
        for unit, factors, columns in planner.leaf_units
    ]
    times, checks = ts, []  # all sample times; each class's rows, probe columns and steps
    for members, pieces in _piece_classes(units, probed) if probed else ():
        probes, steps = _speed_probes(pieces)
        if steps:  # a class without constant-speed pieces reads 0
            checks.append((members, slice(len(times), len(times) + len(probes)), steps))
            times = np.concatenate((times, probes))
    geometry = planner.geometry
    out = tuple(np.empty((len(rows), len(times), f.ambient)) for f in geometry.factors)
    for factors, groups, _ in units:
        for members, bundle in groups:
            at = times if checks and members[0] < probed else ts  # members ascend
            for block, r in zip(out[factors], bundle.sample(at)):
                block[members, : len(at)] = r.reshape(len(members), len(at), -1)
    spreads = np.zeros(probed)
    for members, columns, steps in checks:
        spreads[members] = _speed_spreads(geometry, [b[members, columns] for b in out], steps)
    return tuple(b[:, : len(ts)].reshape(-1, b.shape[2]) for b in out), spreads.tolist()


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
    of ``VERIFY_BATCH`` rows.  Each block is decided at once into a
    ``Decisions`` block, and its covered rows' sections are built and
    sampled by ``_sample_sections``: one bundle per leaf unit and leaf
    rule, speed-probed rows included.  The twins of its eligible rows are
    drawn with one generator call (which draws what one tangent_perturb
    call per point would, in query order) and decided at once.  A twin is
    compared with its query where it decides the query's rule on the same
    leaf rules (equal ``leaf_keys`` rows), and is sampled in bundles
    grouped by its own decision.  Each check runs once over the block's
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
        # compared where both run one formula: the same rule on the same leaf rules
        kept = np.flatnonzero(twins.index == index[rows])
        rules = twins.index[kept]
        mine = planner.leaf_keys(decisions, rows[kept], rules)
        matched = kept[(mine == planner.leaf_keys(twins, kept, rules)).all(axis=1)]
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
