import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from tcplan import planner_core, verifier
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
    ProductPlanner,
    TransferPlanner,
    arm_planner,
    build_planner,
    circle_planner,
    product_planner,
    punctured_plane_planner,
    sphere_planner,
    straight_line_planner,
    transfer_planner,
)
from tcplan.verifier import (
    TOLERANCE,
    FamilyLeavesDomain,
    Mismatch,
    VerifyConfig,
    circle_antipodal_families,
    demonstrate_discontinuity,
    reconcile,
    sphere_antipodal_families,
    verify_planner,
)

# a Decisions row read as the Decision decide gives, and one random point per call
from test_planner_core import DECIDE_MANY_PLANNERS, one_point_sampler, row_decision
from verifier_helpers import adversarial_pairs, menu_digits, packed_tie_cell_rows

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
    line = straight_line_planner(2)
    geometry = line.geometry

    def section(a, b):
        segment = geodesic_path(geometry, a, b)
        count = len(a[0])  # a bundle's rows run path by path
        return PathFn(
            geometry, lambda ts: (spoil(np.tile(ts, count), segment.sample(ts)[0]),), segment.pieces
        )

    rule = PlannerRule("segment", line.rules[0].weight, section)
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
        eligible = []  # (position in sampled, rule, leaf rules) of each query whose twins are drawn
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
                eligible.append((len(sampled), index, planner.leaf_rules(decision, index)))
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
        for (k, index, leaves), twin in zip(eligible, twins):
            if twin is None:
                uncovered += 1
            elif twin.index == index and planner.leaf_rules(twin, index) == leaves:
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
    and top tie cell but switch a nested factor rule, and their paths move
    by pi (ROADMAP item 1, defect A).  They are not compared, as the
    per-query loop, which matches each twin by its own leaf rules, does
    not compare them: the reports are equal and pass at ratio sqrt(10)."""
    planner = build_planner("torus:10")
    cfg = VerifyConfig(seed=42, pairs=1000)
    report = verify_planner(planner, cfg)
    assert json.dumps(report.as_dict()) == json.dumps(_per_query_verify(planner, cfg).as_dict())
    assert report.passed
    assert round(report.max_continuity_ratio, 9) == round(math.sqrt(10), 9)


@pytest.mark.parametrize("n, pairs", [(12, 2000), (20, 10_000)])
def test_twins_are_matched_by_their_leaf_rules(n, pairs):
    """At seed 42, some torus:n twins switch a nested factor rule too (as
    on torus:10 above).  A twin is compared only where its leaf rules
    equal its query's, so each run passes at ratio sqrt(n), as torus:4
    does at 2."""
    planner = build_planner(f"torus:{n}")
    report = verify_planner(planner, VerifyConfig(seed=42, pairs=pairs))
    assert report.passed
    assert round(report.max_continuity_ratio, 9) == round(math.sqrt(n), 9)


# -- leaf-unit sampling against full-tuple bundles --------------------------------


def _full_tuple_sample_sections(planner, decisions, rows, ts, probed=0):
    """``verifier._sample_sections`` as it ran before sections were built
    leaf unit by leaf unit: one full product bundle per (rule, leaf rules)
    group, sampled at its own speed probes where it holds a probed row."""
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
            probes, steps = verifier._speed_probes(bundle.pieces)
            times = np.concatenate((ts, probes))
        sampled = [r.reshape(len(members), len(times), -1) for r in bundle.sample(times)]
        for block, r in zip(out, sampled):
            block[members] = r[:, :count]
        if checked and not steps:  # no constant-speed piece: nothing varies
            spreads += [0.0] * checked
        elif checked:
            spreads += verifier._speed_spreads(geometry, [r[:checked, count:] for r in sampled], steps)
    return tuple(block.reshape(-1, block.shape[2]) for block in out), spreads


def _identity_transfer(planner):
    """``planner`` pulled back along identity maps: a transfer unit whose
    key has a column per leaf of its source."""
    same = lambda rows: rows
    return transfer_planner(planner, same, same, lambda t, rows: rows, planner.geometry, "identity")


def _nan_after_half(ts, rows):
    rows[ts > 0.5] = np.nan  # every piece structure probes a later time
    return rows


SAMPLING_PLANNERS = {
    **DECIDE_MANY_PLANNERS,
    "product(punctured-plane,sphere:2)": lambda: product_planner(
        punctured_plane_planner(), sphere_planner(2)
    ),
    "product(identity(torus:2),sphere:3)": lambda: product_planner(
        _identity_transfer(build_planner("torus:2")), sphere_planner(3)
    ),
    "product(sphere:2,nan-segment)": lambda: product_planner(
        sphere_planner(2), _spoiled_segment_planner(_nan_after_half)
    ),
}


def _sampling_blocks(planner, seed):
    """Covered query rows of one block and the covered rows of their
    twins' block, as verify_planner draws them."""
    rng = np.random.default_rng(seed)
    decisions = planner.decide_many(*verifier._query_rows(planner, rng, 250))
    covered = np.flatnonzero(decisions.index)
    eligible = covered[decisions.weights[covered, decisions.index[covered] - 1] >= verifier.MARGIN_ETA]
    normals = rng.standard_normal((len(eligible), 2, planner.geometry.ambient_dim))
    twins = planner.decide_many(*(
        tangent_perturb_rows(planner.geometry, tuple(x[eligible] for x in side), verifier.DELTA,
                             normals[:, k])
        for k, side in enumerate((decisions.a, decisions.b))
    ))
    return (decisions, covered), (twins, np.flatnonzero(twins.index))


@pytest.mark.parametrize("name", SAMPLING_PLANNERS)
def test_leaf_unit_sampling_matches_full_tuple_bundles(name):
    """Every row block and every speed spread of the leaf-unit sampling
    equals the full-tuple bundles' bit for bit, on blocks that are probed,
    unprobed and partly probed, and on twin blocks."""
    planner = SAMPLING_PLANNERS[name]()
    ts = np.array([i / (verifier.SAMPLES_PER_PATH - 1) for i in range(verifier.SAMPLES_PER_PATH)])
    hexed = lambda spreads: sorted(map(float.hex, spreads))  # classes come in their own order
    (decisions, covered), (twins, twin_rows) = _sampling_blocks(planner, seed=5)
    assert len(covered) > 2 * len(planner.rules) and len(twin_rows)
    for block, rows, probed in [
        (decisions, covered, 0),
        (decisions, covered, len(covered) // 3),
        (decisions, covered, len(covered)),
        (decisions, covered[::-1], 17),
        (twins, twin_rows, 0),
        (twins, twin_rows, len(twin_rows)),
    ]:
        got, got_spreads = verifier._sample_sections(planner, block, rows, ts, probed)
        want, want_spreads = _full_tuple_sample_sections(planner, block, rows, ts, probed)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (name, probed)
        assert len(got_spreads) == probed
        assert hexed(got_spreads) == hexed(want_spreads), (name, probed)
    if name.startswith("product(sphere:2,nan"):
        assert "nan" in hexed(got_spreads)


def _unique_rows(keys):
    """``np.unique`` over whole rows, as rows were grouped before they were
    numbered one column at a time."""
    values, inverse = np.unique(keys, axis=0, return_inverse=True)
    return values, inverse.ravel()


def test_distinct_rows_match_unique_rows():
    """Numbering one column at a time gives np.unique's distinct rows and
    row numbers, on random 1-8 column keys with many repeated rows."""
    rng = np.random.default_rng(28)
    for _ in range(300):
        keys = rng.integers(0, 4, size=(int(rng.integers(1, 257)), int(rng.integers(1, 9))))
        values, inverse = verifier._distinct_rows(keys)
        want_values, want_inverse = _unique_rows(keys)
        assert values.tolist() == want_values.tolist()
        assert inverse.tolist() == want_inverse.tolist()


def test_distinct_rows_past_a_mixed_radix_code():
    """64 columns of values 0-2, whose one mixed-radix code (3**64 > 2**63)
    would overflow int64, still number as np.unique does."""
    assert 3**64 > 2**63
    rng = np.random.default_rng(64)
    keys = rng.integers(0, 3, size=(200, 64))
    keys[100:150] = keys[:50]  # repeated rows
    keys[150:, :60] = 2  # rows that differ only in the last columns
    values, inverse = verifier._distinct_rows(keys)
    want_values, want_inverse = _unique_rows(keys)
    assert len(values) == len(want_values) < len(keys)
    assert values.tolist() == want_values.tolist()
    assert inverse.tolist() == want_inverse.tolist()


# -- tie cells and twin matching, against packed keys -----------------------------


def _tie_heavy_weights(rng, count, size):
    """(count, size) normalized weight rows drawn mostly from a small pool,
    so that rows tie often, a fifth of them with a second maximum one float
    below the first."""
    raw = rng.choice([0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 0.5], size=(count, size))
    raw[:, 0] += raw.sum(axis=1) == 0.0  # a positive maximum
    weights = raw / raw.sum(axis=1, keepdims=True)
    if size > 1:
        near = np.flatnonzero(rng.random(count) < 0.2)
        top = weights[near].argmax(axis=1)
        other = (top + rng.integers(1, size, len(near))) % size
        weights[near, other] = np.nextafter(weights[near, top], 0.0)
    return weights


@pytest.mark.parametrize("n, m", [(1, 2), (3, 2), (9, 5), (41, 2), (70, 3), (66, 66)])
def test_same_cells_match_packed_keys_on_tie_heavy_rows(n, m):
    """The row form's tie cells are the packed form's: ``_tie_cell_rows``
    gives its level weights, bit for bit, and the factor rules read from
    its packed cell members, on tie-heavy weight rows, past 64 rules and
    with NaN rows."""
    rng = np.random.default_rng(n * 100 + m)
    f, g = _tie_heavy_weights(rng, 600, n), _tie_heavy_weights(rng, 600, m)
    f[::37] = np.nan  # uncovered queries
    levels, ties = planner_core._tie_cell_rows(f, g)
    packed_levels, factor_rules = packed_tie_cell_rows(f, g)
    assert levels.tobytes() == packed_levels.tobytes()
    assert ties.tolist() == factor_rules.tolist()
    covered = (levels > 0.0).any(axis=1)
    assert covered.any() and not covered.all()


@pytest.mark.parametrize(
    "name",
    ["torus:4", "product(sphere:2,sphere:2,sphere:2)", "product(circle,sphere:3,sphere:2,convex:2)",
     "identity(torus:3)", "product(identity(torus:2),sphere:3)", "punctured-plane"],
)
def test_same_cells_match_packed_keys_through_planners(name):
    """On queries and on twins drawn as verify_planner draws them and moved
    much further, the first product node's ties are the packed form's
    factor rules, and the twins verify_planner compares (the same rule on
    equal ``leaf_keys`` rows) are those whose per-query ``leaf_rules``
    equal their query's, through a transfer planner over a product too."""
    identity = {"identity(torus:3)": lambda: _identity_transfer(build_planner("torus:3"))}
    planner = {**SAMPLING_PLANNERS, **identity}[name]()
    rng = np.random.default_rng(11)
    geometry = planner.geometry

    def check_packed(block):
        while block.ties is None and block.factors:
            block = block.factors[0]
        if block.ties is not None:
            left, right = block.factors
            assert block.ties.tolist() == packed_tie_cell_rows(left.weights, right.weights)[1].tolist()

    decisions = planner.decide_many(*verifier._query_rows(planner, rng, 400))
    check_packed(decisions)
    rows = np.flatnonzero(decisions.index)
    for step in (verifier.DELTA, 0.3):
        normals = rng.standard_normal((len(rows), 2, geometry.ambient_dim))
        twins = planner.decide_many(*(
            tangent_perturb_rows(geometry, tuple(x[rows] for x in side), step, normals[:, k])
            for k, side in enumerate((decisions.a, decisions.b))
        ))
        check_packed(twins)
        kept = np.flatnonzero(twins.index == decisions.index[rows])
        rules = twins.index[kept]
        mine = planner.leaf_keys(decisions, rows[kept], rules)
        same = (mine == planner.leaf_keys(twins, kept, rules)).all(axis=1)
        want = [
            planner.leaf_rules(row_decision(planner, decisions, rows[k]), int(rule))
            == planner.leaf_rules(row_decision(planner, twins, k), int(rule))
            for k, rule in zip(kept.tolist(), rules.tolist())
        ]
        assert same.tolist() == want, step
        assert same.any(), step
        if step > verifier.DELTA and name != "punctured-plane":
            assert not same.all(), step


def _unit_rules(planner):
    return sum(len(unit.rules) for unit, _, _ in planner.leaf_units)


@pytest.mark.parametrize("spec", ["torus:10", "product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)"])
def test_verify_builds_one_bundle_per_unit_rule(monkeypatch, spec):
    """A block's sections, speed-probed rows included, take at most one
    bundle per rule of each leaf unit, and no product bundle is built
    inside verify_planner."""
    planner = build_planner(spec)
    bundles, per_call = [], []

    def counted(cls):
        bundle = cls.bundle

        def wrapper(self, *args):
            bundles.append(cls)
            return bundle(self, *args)

        return wrapper

    for cls in (Planner, ProductPlanner, TransferPlanner):
        monkeypatch.setattr(cls, "bundle", counted(cls))
    sample_sections = verifier._sample_sections

    def sampled(*args):
        bundles.clear()
        out = sample_sections(*args)
        per_call.append(len(bundles))
        return out

    monkeypatch.setattr(verifier, "_sample_sections", sampled)
    report = verify_planner(planner, VerifyConfig(seed=42, pairs=1000))
    assert report.speed_checked == verifier.SPEED_CHECKS and len(per_call) > 8
    assert max(per_call) <= _unit_rules(planner) == {"torus:10": 20}.get(spec, 15)
    assert set(bundles) == {Planner}


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


@pytest.mark.parametrize(
    "spec",
    ["torus:4", "product(sphere:2,sphere:2)", "product(circle,sphere:3,sphere:2,convex:2)", "torus:41"],
)
def test_menu_digit_columns_match_per_index_digits(spec):
    """One division and one remainder per menu over every kept index give
    each index's own digits: all indices of the small products, and past
    a C long on torus:41 (3^41 combinations), its ends and a seeded sample."""
    planner = build_planner(spec)
    menus = [verifier._factor_pair_menu(f, np.random.default_rng(0)) for f in planner.geometry.factors]
    total = math.prod(len(menu) for menu in menus)
    if total > verifier._INT64_MAX:
        draw = random.Random(4)
        picked = sorted({0, total - 1, *(draw.randrange(total) for _ in range(300))})
        keep = np.array(picked, dtype=object)
    else:
        keep = np.arange(total, dtype=np.int64)
    got = verifier._menu_digit_columns(menus, keep)
    assert got.tolist() == [menu_digits(menus, int(i)) for i in keep]


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
