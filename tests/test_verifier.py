import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from tcplan import verifier
from tcplan.catalog import catalog_space
from tcplan.geometry import (
    ConfigPoint,
    PathFn,
    config_distances,
    geodesic_path,
    make_point,
    row_norms,
    stack_points,
    tangent_perturb_rows,
)
from tcplan.planner_core import (
    Decision,
    Planner,
    PlannerRule,
    arm_planner,
    build_planner,
    circle_planner,
    punctured_plane_planner,
    sphere_planner,
    straight_line_planner,
)
from tcplan.verifier import (
    TOLERANCE,
    FamilyLeavesDomain,
    Mismatch,
    VerifyConfig,
    adversarial_pairs,
    circle_antipodal_families,
    demonstrate_discontinuity,
    reconcile,
    sphere_antipodal_families,
    verify_planner,
)

# a Decisions row read as the Decision decide gives, and one random point per call
from test_planner_core import one_point_sampler, row_decision

FAST = VerifyConfig(pairs=400)


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(pairs=0)
    with pytest.raises(ValueError, match="^bad verify config: seed must be non-negative$"):
        VerifyConfig(seed=-5)
    assert VerifyConfig(seed=0).seed == 0
    with pytest.raises(ValueError):
        VerifyConfig(pairs=100_001)
    assert VerifyConfig(pairs=100_000).pairs == 100_000


def test_circle_passes_and_uses_second_rule():
    report = verify_planner(circle_planner(), FAST)
    assert report.passed
    assert report.rule_usage[2] > 0  # adversarial antipodal pairs reach rule 2
    assert report.max_endpoint_error <= TOLERANCE
    assert report.uncovered_pairs == 0


def test_sphere2_passes_and_field_zero_pair_hits_chart_rule():
    planner = sphere_planner(2)
    report = verify_planner(planner, FAST)
    assert report.passed
    assert all(report.rule_usage[i] > 0 for i in (1, 2, 3))
    south = make_point(planner.geometry, [0, 0, -1])
    north = make_point(planner.geometry, [0, 0, 1])
    assert planner.decide(south, north).index == 3


def test_straight_line_passes():
    assert verify_planner(straight_line_planner(3), FAST).passed


def test_torus2_all_levels_exercised():
    report = verify_planner(arm_planner("planar", 2), FAST)
    assert report.passed
    assert all(report.rule_usage[i] > 0 for i in (1, 2, 3))


def test_sphere_product_passes_with_every_level():
    report = verify_planner(arm_planner("spatial", 2), FAST)
    assert report.passed
    assert all(report.rule_usage[i] > 0 for i in (1, 2, 3, 4, 5))


def test_punctured_plane_passes():
    report = verify_planner(punctured_plane_planner(), FAST)
    assert report.passed


def test_reports_reproducible():
    first = verify_planner(circle_planner(), FAST)
    second = verify_planner(circle_planner(), FAST)
    assert first == second
    assert first.as_dict() == second.as_dict()


def test_continuity_ratio_within_empirical_bound():
    for planner in (circle_planner(), sphere_planner(2), arm_planner("planar", 2)):
        report = verify_planner(planner, FAST)
        assert math.isfinite(report.max_continuity_ratio)
        assert report.max_continuity_ratio <= 200.0


def _spoiled_segment_planner(spoil):
    """One-rule convex:2 planner whose straight segments pass their sampled
    rows through ``spoil(ts, rows)``, ``ts`` holding each row's time."""
    geometry = straight_line_planner(2).geometry

    def section(a, b):
        segment = geodesic_path(geometry, a, b)
        count = len(a[0])  # a bundle's rows run path by path
        return PathFn(
            geometry, lambda ts: (spoil(np.tile(ts, count), segment.sample(ts)[0]),), segment.pieces
        )

    rule = PlannerRule("segment", lambda a, b: 1.0, section, lambda a, b: np.ones(len(a[0])))
    return Planner("convex:2", geometry, (rule,))


def test_nan_paths_fail_section_and_geometry():
    report = verify_planner(
        _spoiled_segment_planner(lambda ts, rows: np.full_like(rows, np.nan)), VerifyConfig(pairs=50)
    )
    assert not report.section_pass and not report.geometry_pass and not report.passed
    assert math.isnan(report.max_endpoint_error) and math.isnan(report.max_speed_variation)

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    # `tcplan verify` prints json.dumps of this dict: null, never NaN
    payload = json.loads(json.dumps(report.as_dict()), parse_constant=reject)
    assert payload["section"] == {"pass": False, "max_endpoint_error": None}
    assert payload["geometry"]["max_speed_variation"] is None


def test_nan_at_one_time_fails_continuity():
    def spoil(ts, rows):
        rows[ts == 0.5] = np.nan
        return rows

    report = verify_planner(_spoiled_segment_planner(spoil), VerifyConfig(pairs=50))
    assert report.section_pass and report.geometry_pass and report.coverage_pass
    assert not report.continuity_pass and not report.passed
    assert math.isnan(report.max_continuity_ratio)


# -- the per-query loop as the oracle of the bundled one ------------------------


def _per_query_speed_variation(path) -> float:
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


def _per_query_verify(planner, cfg):
    """verify_planner as it ran before sections were built in bundles: the
    points drawn one at a time, and one path built, sampled and
    speed-checked per query and per twin, from each row's decision."""
    stacked = lambda samples: tuple(map(np.concatenate, zip(*samples)))
    samples_per_path = verifier.SAMPLES_PER_PATH
    rng = np.random.default_rng(cfg.seed)
    sampler = one_point_sampler(planner)
    queries = adversarial_pairs(planner, rng)
    for _ in range(cfg.pairs):
        queries.append((sampler(rng), sampler(rng)))

    geometry = planner.geometry
    ts = np.array([i / (samples_per_path - 1) for i in range(samples_per_path)])
    sphere_slots = [i for i, f in enumerate(geometry.factors) if f.kind == "sphere"]

    def decide_rows(starts, goals):
        block = planner.decide_many(starts, goals)
        return [row_decision(planner, block, row) for row in range(len(block.index))]

    max_end = 0.0
    uncovered = 0
    max_ratio = 0.0
    continuity_checked = 0
    max_norm = 0.0
    max_speed = 0.0
    speed_checked = 0
    usage = {i + 1: 0 for i in range(len(planner.rules))}

    for first in range(0, len(queries), verifier.VERIFY_BATCH):
        block = queries[first : first + verifier.VERIFY_BATCH]
        starts, goals, sampled = [], [], []
        eligible = []  # (position in sampled, rule, cell) of each query whose twins are drawn
        for (a, b), decision in zip(block, decide_rows(*(stack_points(side) for side in zip(*block)))):
            if decision is None:
                uncovered += 1
                continue
            index = decision.index
            usage[index] += 1
            path = planner.path(decision, index)
            if speed_checked < verifier.SPEED_CHECKS:
                max_speed = verifier._worst(max_speed, [_per_query_speed_variation(path)])
                speed_checked += 1
            if decision.weights[index - 1] >= verifier.MARGIN_ETA:
                eligible.append((len(sampled), index, decision.cell))
            starts.append(a)
            goals.append(b)
            sampled.append(path.sample(ts))
        if not sampled:
            continue

        points = stacked(sampled)
        last = samples_per_path - 1
        first_last = tuple(
            np.concatenate((rows[::samples_per_path], rows[last::samples_per_path])) for rows in points
        )
        ends = stack_points(starts + goals)
        max_end = verifier._worst(max_end, config_distances(geometry, first_last, ends).tolist())
        for slot in sphere_slots:
            max_norm = verifier._worst(max_norm, np.abs(row_norms(points[slot]) - 1.0).tolist())

        if not eligible:
            continue
        normals = rng.standard_normal((len(eligible), 2, geometry.ambient_dim))
        twins = decide_rows(*(
            tangent_perturb_rows(geometry, stack_points([ends[k] for k, *_ in eligible]), verifier.DELTA,
                                 normals[:, side])
            for side, ends in enumerate((starts, goals))
        ))
        compared, twin_samples = [], []
        for (k, index, cell), twin in zip(eligible, twins):
            if twin is None:
                uncovered += 1
            elif twin.index == index and twin.cell == cell:
                compared.append(sampled[k])
                twin_samples.append(planner.path(twin, index).sample(ts))
        if compared:
            gaps = config_distances(geometry, stacked(compared), stacked(twin_samples))
            sups = gaps.reshape(len(compared), samples_per_path).max(axis=1)
            max_ratio = verifier._worst(max_ratio, (sups / verifier.DELTA).tolist())
            continuity_checked += len(compared)

    return verifier.VerifyReport(
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
        continuity_pass=math.isfinite(max_ratio) and max_ratio <= verifier.MAX_RATIO,
        geometry_pass=max_norm <= TOLERANCE and max_speed < verifier.DEFAULT_SPEED_TOL,
    )


ORACLE_SPECS = [
    "convex:3",
    "circle",
    "sphere:2",
    "sphere:3",
    "torus:2",
    "torus:3",
    "torus:4",
    "product(sphere:2,sphere:2)",
    "product(sphere:2,sphere:2,sphere:2)",
    "product(circle,sphere:3,sphere:2,convex:2)",
    "punctured-plane",
]


def _oracle_planner(spec):
    return punctured_plane_planner() if spec == "punctured-plane" else build_planner(spec)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_verify_matches_the_per_query_loop(spec):
    """Bundled sections give the per-query loop's report, byte for byte;
    700 pairs span at least 3 blocks."""
    planner = _oracle_planner(spec)
    for seed in (1, 7, 42):
        for pairs in (50, 700):
            cfg = VerifyConfig(seed=seed, pairs=pairs)
            got = json.dumps(verify_planner(planner, cfg).as_dict())
            assert got == json.dumps(_per_query_verify(planner, cfg).as_dict()), (seed, pairs)
    assert pairs + len(adversarial_pairs(planner, np.random.default_rng(seed))) > 2 * verifier.VERIFY_BATCH


@pytest.mark.parametrize(
    "spec",
    ["convex:3", "circle", "sphere:2", "sphere:3", "torus:2", "torus:3", "torus:4",
     "product(sphere:2,sphere:2)", "punctured-plane"],
)
def test_verify_builds_no_per_query_points(monkeypatch, spec):
    """The acceptance planners and the punctured plane verify over row
    blocks only: no ConfigPoint and no Decision is built inside
    verify_planner, over more than one block of queries."""
    planner = _oracle_planner(spec)
    built = []

    def counted(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            built.append(cls)
            init(self, *args, **kwargs)

        return __init__

    for cls in (ConfigPoint, Decision):
        monkeypatch.setattr(cls, "__init__", counted(cls))
    report = verify_planner(planner, VerifyConfig(pairs=300))
    assert report.pairs_checked > verifier.VERIFY_BATCH and report.continuity_checked
    assert built == []


def test_twins_are_built_from_their_own_leaf_rules():
    """At seed 42 and 1000 pairs, two torus:10 twins keep their query's rule
    and top cell but switch a nested factor rule (ROADMAP item 1, defect A):
    their sections must follow their own leaf rules, as per query."""
    planner = build_planner("torus:10")
    cfg = VerifyConfig(seed=42, pairs=1000)
    report = verify_planner(planner, cfg)
    assert json.dumps(report.as_dict()) == json.dumps(_per_query_verify(planner, cfg).as_dict())
    assert round(report.max_continuity_ratio, 2) == 31415.93  # pi / DELTA


# -- discontinuity demonstrations ----------------------------------------------

def test_circle_boundary_gap():
    planner = circle_planner()
    fam_a, fam_b = circle_antipodal_families(planner)
    report = demonstrate_discontinuity(planner, 1, fam_a, fam_b)
    by_offset = dict(zip(report.offsets, report.gaps))
    assert by_offset[1e-3] >= 1.9
    assert report.min_gap >= 1.0  # non-vanishing across three decades


def test_sphere_boundary_gap():
    planner = sphere_planner(2)
    fam_a, fam_b = sphere_antipodal_families(planner)
    report = demonstrate_discontinuity(planner, 1, fam_a, fam_b)
    assert min(report.gaps) >= 1.0


def test_identical_families_have_zero_gap():
    planner = circle_planner()
    fam_a, _ = circle_antipodal_families(planner)
    report = demonstrate_discontinuity(planner, 1, fam_a, fam_a)
    assert report.min_gap == 0.0


def test_nan_paths_give_nan_gaps():
    # A circle planner whose shortest-arc section returns NaN rows on every
    # other call: the demo must not read those rows as a half turn away.
    planner = circle_planner()
    shortest = planner.rules[0]
    calls = itertools.count()

    def section(a, b):
        path = shortest.section(a, b)
        if next(calls) % 2 == 0:
            return path
        return PathFn(path.geometry, lambda ts: (np.full((len(ts), 2), np.nan),), path.pieces)

    rules = (PlannerRule(shortest.name, shortest.weight, section),) + planner.rules[1:]
    spoiled = Planner(planner.space, planner.geometry, rules)
    report = demonstrate_discontinuity(spoiled, 1, *circle_antipodal_families(spoiled))
    assert len(report.gaps) == 4 and all(map(math.isnan, report.gaps))
    assert math.isnan(report.min_gap)


def test_min_gap_is_nan_when_any_gap_is():
    report = verifier.DivergenceReport(1, (1e-1, 1e-2), (3.0, math.nan))
    assert math.isnan(report.min_gap)


def test_family_leaving_domain_rejected():
    planner = circle_planner()

    def bad_family(eps):
        a = make_point(planner.geometry, [1, 0])
        return a, make_point(planner.geometry, [-1, 0])  # antipodal: outside rule 1

    fam_a, _ = circle_antipodal_families(planner)
    with pytest.raises(FamilyLeavesDomain):
        demonstrate_discontinuity(planner, 1, bad_family, fam_a)


# -- reconciliation ---------------------------------------------------------------

@pytest.mark.parametrize(
    "spec,builder,expected",
    [
        ("torus:3", lambda: arm_planner("planar", 3), 4),
        ("product(sphere:2,sphere:2,sphere:2)", lambda: arm_planner("spatial", 3), 7),
        ("sphere:3", lambda: sphere_planner(3), 2),
    ],
)
def test_reconcile_rule_counts(spec, builder, expected):
    report = reconcile(builder(), catalog_space(spec))
    assert report.rule_count == report.known_tc == expected
    assert report.bounds.exact


def test_reconcile_mismatch_names_both_numbers():
    wrong = circle_planner()  # 2 rules against torus:3's exact value 4
    with pytest.raises(Mismatch) as err:
        reconcile(wrong, catalog_space("torus:3"))
    assert "2" in str(err.value) and "4" in str(err.value)


def test_reconcile_rejects_a_planner_for_another_space():
    # 5 rules meets surface:2's exact value, but surface:2 has no planner.
    with pytest.raises(Mismatch) as err:
        reconcile(build_planner("torus:4"), catalog_space("surface:2"))
    assert "planner rule count is None" in str(err.value)


def test_reconcile_requires_known_value():
    with pytest.raises(ValueError):
        reconcile(sphere_planner(2), catalog_space("cpn:2"))


# -- adversarial pairs -------------------------------------------------------------


def _materialized_adversarial_pairs(planner, rng, cap=512):
    """Reference: build every menu combination, then keep a seeded sample."""
    geometry = planner.geometry
    menus = [verifier._factor_pair_menu(f, rng) for f in geometry.factors]
    combos = list(itertools.product(*menus))
    if len(combos) > cap:
        keep = rng.choice(len(combos), size=cap, replace=False)
        combos = [combos[i] for i in sorted(keep)]
    return [
        (ConfigPoint(geometry, tuple(x for x, _ in combo)),
         ConfigPoint(geometry, tuple(y for _, y in combo)))
        for combo in combos
    ]


@pytest.mark.parametrize(
    "spec",
    [f"torus:{n}" for n in range(2, 8)]
    + ["product(" + ",".join(["sphere:2"] * n) + ")" for n in (2, 3, 4)]
    + ["product(circle,sphere:3,sphere:2,convex:2)"],
)
def test_adversarial_pairs_match_materialized_product(spec):
    planner = build_planner(spec)
    for seed in (0, 1, 42):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = adversarial_pairs(planner, rng)
        expected = _materialized_adversarial_pairs(planner, ref_rng)
        assert len(pairs) == len(expected) <= 512
        for (a, b), (ra, rb) in zip(pairs, expected):
            assert a.flat.tobytes() == ra.flat.tobytes()
            assert b.flat.tobytes() == rb.flat.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_adversarial_pairs_do_not_build_the_product():
    """torus:16 has 3^16 menu combinations; only the 512 kept ones are built."""
    planner = build_planner("torus:16")
    tracemalloc.start()
    try:
        pairs = adversarial_pairs(planner, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 512
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "planner",
    [build_planner("torus:41"), arm_planner("spatial", 64)],
    ids=["torus:41", "(S^2)^64"],
)
def test_adversarial_pairs_beyond_int64(planner):
    """3^41 and 7^64 menu combinations exceed a C long; still 512 distinct pairs,
    the same ones on a re-run."""
    def keys(seed):
        pairs = adversarial_pairs(planner, np.random.default_rng(seed))
        return [a.flat.tobytes() + b.flat.tobytes() for a, b in pairs]

    first = keys(5)
    assert len(first) == len(set(first)) == 512
    assert keys(5) == first
