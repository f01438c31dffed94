"""Array path evaluators against the per-time formulas they replaced.

Each ``ref_*`` function below is the scalar evaluator a path kind had
before paths were evaluated over arrays of times, kept here as the
reference (as ``_exhaustive_tie_cells`` is kept for the tie cells).  Every
row of ``PathFn.sample(ts)`` must equal it bit for bit, compared by
``float.hex``, and ``path(t)`` must be the row ``sample([t])[0]``.

A bundle of N paths must give each path's rows exactly as that path's
own one-path bundle gives them, whatever N is and whichever queries share
the bundle.

The last tests pin the facts the verifier's blocks rest on: ``np.vecdot``
rows equal ``np.dot``, one generator draw of a block equals the draws made
one at a time (``random_points`` and the punctured plane's sampler
included), the block perturbation equals ``tangent_perturb``, and the row
forms of the sphere distance and of the even-sphere tangent field equal
their per-point formulas.
"""

import math
import random

import numpy as np
import pytest

from tcplan.geometry import (
    ConfigPoint,
    Factor,
    chord_distance,
    config_distance,
    config_distances,
    even_vector_field,
    geodesic_path,
    factor_distance,
    make_point,
    merge_pieces,
    odd_vector_field,
    random_point,
    random_points,
    row_norms,
    stack_points,
    stereo_project,
    stereo_push,
    tangent_perturb,
    tangent_perturb_rows,
    vector_norm,
)
from tcplan.planner_core import (
    DomainMiss,
    ProductPlanner,
    TransferPlanner,
    build_planner,
    punctured_plane_planner,
    sample_path,
)
from tcplan.verifier import DELTA, SAMPLES_PER_PATH

# the planners of test_decide_many_matches_decide, its reading of a block's
# rows, and its one-point sampler
from test_planner_core import DECIDE_MANY_PLANNERS, one_point_sampler, row_decision
from verifier_helpers import adversarial_pairs, speed_variation

# -- the per-time formulas ---------------------------------------------------------


ANGLES = []  # every arc angle a reference geodesic was built for


def ref_slerp(a, b):
    dot = float(np.dot(a, b))
    sin_theta = float(np.linalg.norm(a - dot * b))
    theta = math.atan2(sin_theta, dot)
    ANGLES.append(theta)
    if theta < 1e-9:
        def nearly(t):
            v = (1.0 - t) * a + t * b
            return v / math.sqrt(v.dot(v))
        return nearly
    return lambda t: (math.sin((1.0 - t) * theta) * a + math.sin(t * theta) * b) / sin_theta


def ref_geodesic(a, b):
    movers = [
        ref_slerp(x, y) if f.kind == "sphere" else (lambda t, x=x, y=y: (1.0 - t) * x + t * y)
        for f, x, y in zip(a.geometry.factors, a.parts, b.parts)
    ]
    return lambda t: tuple(m(t) for m in movers)


def ref_polar_arc(b, w):
    return lambda t: (-math.cos(math.pi * t) * b + math.sin(math.pi * t) * w,)


def ref_chart_segment(a, b, axis):
    ya, yb = stereo_project(a, axis), stereo_project(b, axis)

    def fn(t):
        y = (1.0 - t) * ya + t * yb
        r2 = float(np.dot(y, y))
        return (np.insert(2.0 * y, axis, r2 - 1.0) / (r2 + 1.0),)

    return fn


def ref_even_vector_field(x, n):
    """The even-sphere tangent field at one point, as it was evaluated
    before it took rows."""
    if x[n] >= 1.0:
        return np.zeros_like(x)
    y = stereo_project(x, n)
    e = np.zeros(n)
    e[0] = 1.0
    r2 = float(np.dot(y, y))
    ye = float(np.dot(y, e))
    term1 = np.insert(2.0 * e, n, 2.0 * ye) / (1.0 + r2)
    term2 = np.insert(2.0 * y, n, r2 - 1.0) * (2.0 * ye) / (1.0 + r2) ** 2
    return term1 - term2


def ref_concat(segments):
    def fn(t):
        for t0, t1, path in segments:
            if t < t1 or t1 >= 1.0:
                return path((t - t0) / (t1 - t0))
        return segments[-1][2](1.0)

    return fn


def ref_pair(left, right):
    return lambda t: left(t) + right(t)


def ref_positive_arc(xa, xb):
    start = math.atan2(xa[1], xa[0])
    sweep = (math.atan2(xb[1], xb[0]) - start) % (2.0 * math.pi)

    def fn(t):
        angle = start + t * sweep
        return (np.array([math.cos(angle), math.sin(angle)]),)

    return fn


def ref_transfer(planner, decision, index):
    """The punctured plane's transferred section, point by point: the
    circle path between the retracted ends x / |x|, pushed back by the
    inclusion, between radial slides (1 - t) x + t x / |x|."""
    assert planner.space == "punctured-plane"
    (a,), (b,) = decision.a, decision.b
    slide = lambda t, v: ((1.0 - t) * v + t * v / vector_norm(v),)
    circle = planner.source
    retracted = (ConfigPoint(circle.geometry, (v / vector_norm(v),)) for v in (a, b))
    source = reference_path(circle, circle.decide(*retracted), index)
    return ref_concat([
        (0.0, 1.0 / 3.0, lambda t: slide(t, a)),
        (1.0 / 3.0, 2.0 / 3.0, source),
        (2.0 / 3.0, 1.0, lambda t: slide(1.0 - t, b)),
    ])


def reference_path(planner, decision, index):
    """The per-time evaluator of rule ``index``'s section at ``decision``."""
    if isinstance(planner, ProductPlanner):
        s, t = decision.cells[index + 1]
        left, right = decision.factors
        return ref_pair(
            reference_path(planner.left, left, min(s) + 1),
            reference_path(planner.right, right, min(t) + 1),
        )
    if isinstance(planner, TransferPlanner):
        return ref_transfer(planner, decision, index)
    a, b = (ConfigPoint(planner.geometry, parts) for parts in (decision.a, decision.b))
    x, y = a.parts[0], b.parts[0]
    name = planner.rules[index - 1].name
    if name in ("segment", "shortest-arc"):
        return ref_geodesic(a, b)
    if name == "positive-arc":
        return ref_positive_arc(x, y)
    if name == "two-stage":
        n = planner.geometry.factors[0].dim
        field = odd_vector_field(y, n) if n % 2 else ref_even_vector_field(y, n)
        sweep = ref_polar_arc(y, field / np.linalg.norm(field))
        to_antipode = ref_geodesic(a, ConfigPoint(b.geometry, (-y,)))
        return ref_concat([(0.0, 0.5, to_antipode), (0.5, 1.0, sweep)])
    assert name == "chart-segment"
    return ref_chart_segment(x, y, 0)


def ref_config_distance(a, b):
    total = 0.0
    for factor, x, y in zip(a.geometry.factors, a.parts, b.parts):
        d = factor_distance(factor, x, y)
        total += d * d
    return math.sqrt(total)


def ref_speed_variation(path, evaluate):
    worst = 0.0
    for t0, t1, const in path.pieces:
        if not const or t1 - t0 < 1e-6:
            continue
        width = t1 - t0
        h = width / 64.0
        speeds = []
        for k in range(1, 5):
            t = t0 + width * k / 5.0
            speeds.append(ref_config_distance(evaluate(t), evaluate(t + h)) / h)
        top = max(speeds)
        if top < 1e-9:
            continue
        worst = max(worst, (top - min(speeds)) / top)
    return worst


# -- queries ---------------------------------------------------------------------------

PLANNER_SPECS = [
    "convex:3",
    "circle",
    "sphere:2",
    "sphere:3",
    "sphere:4",
    "torus:3",
    "product(sphere:2,sphere:2)",
    "product(circle,sphere:3,sphere:2,convex:2)",
]
VERIFY_TS = [i / (SAMPLES_PER_PATH - 1) for i in range(SAMPLES_PER_PATH)]
CLI_TS = [i / 16 for i in range(17)]
CUT_TS = [0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0]


def probe_times(path):
    """The verifier's speed-probe times: 4 per constant-speed piece, and
    each one's step of width / 64."""
    out = []
    for t0, t1, const in path.pieces:
        if const and t1 - t0 >= 1e-6:
            width = t1 - t0
            starts = [t0 + width * k / 5.0 for k in range(1, 5)]
            out += starts + [t + width / 64.0 for t in starts]
    return out


def _unit(v):
    return v / np.linalg.norm(v)


def near_pairs(planner, rng, count):
    """Pairs whose sphere factors are almost equal (theta < 1e-9, the
    near-equal branch) or almost antipodal."""
    out = []
    for k in range(count):
        a = random_point(planner.geometry, rng)
        parts = []
        for f, x in zip(a.geometry.factors, a.parts):
            if f.kind == "sphere":
                nudge = rng.standard_normal(f.ambient)
                y = _unit(x + (1e-12 if k % 2 else 1e-7) * nudge)
                parts.append(y if k % 2 else -y)
            else:
                parts.append(x + 1e-12 * rng.standard_normal(f.ambient))
        out.append((a, ConfigPoint(a.geometry, tuple(parts))))
    return out


def queries(planner, seed):
    rng = np.random.default_rng(seed)
    sampler = one_point_sampler(planner)
    pairs = adversarial_pairs(planner, rng, cap=64)
    pairs += [(sampler(rng), sampler(rng)) for _ in range(30)]
    if planner.point_sampler is None:
        pairs += near_pairs(planner, rng, 10)
    return pairs


def every_section(planner, seed):
    """(rule index, path, per-time reference) for every rule covering each query."""
    for a, b in queries(planner, seed):
        decision = planner.decide(a, b)
        for index in range(1, len(planner.rules) + 1):
            try:
                path = planner.path(decision, index)
            except DomainMiss:
                continue
            yield index, path, reference_path(planner, decision, index)


def hexed(parts):
    return [[v.hex() for v in np.asarray(part).tolist()] for part in parts]


def _planners():
    return [(spec, build_planner(spec)) for spec in PLANNER_SPECS] + [
        ("punctured-plane", punctured_plane_planner())
    ]


@pytest.mark.parametrize("spec, planner", _planners(), ids=PLANNER_SPECS + ["punctured-plane"])
def test_sample_rows_equal_the_per_time_formulas(spec, planner):
    kinds = set()
    for index, path, reference in every_section(planner, seed=len(spec)):
        kinds.add(path.label)
        ts = VERIFY_TS + CLI_TS + CUT_TS + probe_times(path)
        rows = path.sample(ts)
        assert all(r.shape == (len(ts), f.ambient) for r, f in zip(rows, path.geometry.factors))
        for k, t in enumerate(ts):
            expected = hexed(reference(t))
            assert hexed(r[k] for r in rows) == expected, (spec, index, path.label, t)
        for t in CUT_TS + VERIFY_TS[1:2]:
            assert hexed(path(t).parts) == hexed(r[0] for r in path.sample([t]))
            assert hexed(path(t).parts) == hexed(reference(t))
        assert speed_variation(path).hex() == ref_speed_variation(path, path).hex()
    assert kinds  # every planner has at least one covered rule


def test_every_path_kind_is_compared():
    ANGLES.clear()
    labels = {
        path.label
        for _, planner in _planners()
        for _, path, _ in every_section(planner, seed=0)
    }
    assert labels >= {
        "geodesic", "two-stage", "chart-segment", "positive-arc", "product", "transfer"
    }
    assert min(ANGLES) < 1e-9  # the near-equal branch
    assert max(ANGLES) > math.pi - 1e-6  # near-antipodal arcs


# -- bundles against one-path bundles ----------------------------------------------


def hexed_rows(parts):
    return [[v.hex() for v in np.ravel(part).tolist()] for part in parts]


def covering_groups(planner, decisions, index):
    """The decisions whose rule ``index`` applies, each with its one-path
    bundle, grouped by leaf rules in first-seen order."""
    groups = {}
    for d in decisions:
        try:
            single = planner.path(d, index)
        except DomainMiss:
            continue
        groups.setdefault(planner.leaf_rules(d, index), []).append((d, single))
    return groups


@pytest.mark.parametrize("name", DECIDE_MANY_PLANNERS)
def test_bundle_rows_equal_each_paths_own_rows(name):
    """Every rule's bundle over all the queries it covers (adversarial,
    random and near pairs, grouped by leaf rules) gives each query the
    rows and pieces of its own one-path bundle, bit for bit."""
    planner = DECIDE_MANY_PLANNERS[name]()
    rng = np.random.default_rng(17)
    sampler = one_point_sampler(planner)
    pairs = adversarial_pairs(planner, rng) + [(sampler(rng), sampler(rng)) for _ in range(60)]
    if planner.point_sampler is None:
        pairs += near_pairs(planner, rng, 20)
    block = planner.decide_many(*(stack_points(side) for side in zip(*pairs)))
    decisions = [row_decision(planner, block, row) for row in range(len(pairs))]
    decisions = [d for d in decisions if d is not None]
    shared = 0
    for index in range(1, len(planner.rules) + 1):
        for leaves, members in covering_groups(planner, decisions, index).items():
            starts, goals = (
                tuple(map(np.array, zip(*side))) for side in zip(*((d.a, d.b) for d, _ in members))
            )
            bundle = planner.bundle(starts, goals, leaves)
            ts = VERIFY_TS + CLI_TS + CUT_TS + probe_times(bundle)
            rows = bundle.sample(ts)
            assert [r.shape for r in rows] == [
                (len(members) * len(ts), f.ambient) for f in planner.geometry.factors
            ]
            for n, (_, single) in enumerate(members):
                assert single.pieces == bundle.pieces
                got = hexed_rows(r[n * len(ts) : (n + 1) * len(ts)] for r in rows)
                assert got == hexed_rows(single.sample(ts)), (name, index, n)
            shared += len(members) > 1
    assert shared  # some bundle holds several queries


def test_product_path_stacks_parts_as_its_bundle_stacks_rows():
    """A product's one-query ``path`` stacks each unit's rows straight from
    the decision's parts; it gives the rows and pieces of the ``bundle`` of
    the query's one-row blocks, bit for bit, for units of one factor and
    for a transfer unit over a product (several factors), alone or shared."""
    same = lambda rows: rows
    inner = build_planner("product(circle,sphere:2)")
    wide = TransferPlanner(inner, same, same, lambda t, rows: rows, inner.geometry, "identity")
    planners = [
        build_planner("product(circle,sphere:3,sphere:2,convex:2)"),
        ProductPlanner(wide, build_planner("circle")),
        ProductPlanner(build_planner("sphere:2"), ProductPlanner(wide, wide)),
    ]
    rng = np.random.default_rng(31)
    one_row = lambda parts: tuple(part[None] for part in parts)
    for planner in planners:
        checked = 0
        for _ in range(40):
            a, b = (random_point(planner.geometry, rng) for _ in range(2))
            decision = planner.decide(a, b)
            for index in range(1, len(planner.rules) + 1):
                try:
                    path = planner.path(decision, index)
                except DomainMiss:
                    continue
                leaves = planner.leaf_rules(decision, index)
                bundle = planner.bundle(one_row(decision.a), one_row(decision.b), leaves)
                assert path.pieces == bundle.pieces
                assert hexed_rows(path.sample(CLI_TS)) == hexed_rows(bundle.sample(CLI_TS))
                checked += 1
        assert checked > 40


def test_geodesic_bundle_mixes_near_equal_far_and_near_antipodal_rows():
    """The near-equal chord is chosen row by row: a bundle mixing angles
    below 1e-9, ordinary ones and ones within 1e-6 of pi gives every row
    as its own one-row bundle and the per-time formula do."""
    geometry = build_planner("product(sphere:2,circle,convex:2)").geometry
    rng = np.random.default_rng(8)
    starts = [ConfigPoint(geometry, row) for row in zip(*random_points(geometry, rng, 60))]
    goals = []
    for k, a in enumerate(starts):
        if k % 3 == 0:
            goals.append(random_point(geometry, rng))
            continue
        parts = []  # a moved by 1e-12, its spheres flipped on every third query
        for f, x in zip(geometry.factors, a.parts):
            y = x + 1e-12 * rng.standard_normal(f.ambient)
            parts.append(y if f.kind != "sphere" else _unit(-y if k % 3 == 2 else y))
        goals.append(ConfigPoint(geometry, tuple(parts)))
    angles = [angle for a, b in zip(starts, goals) for angle in ref_geodesic_angles(a, b)]
    assert min(angles) < 1e-9 and max(angles) > math.pi - 1e-6
    assert any(1e-9 < angle < 3.0 for angle in angles)
    ts = np.array(VERIFY_TS + CLI_TS)
    rows = geodesic_path(geometry, stack_points(starts), stack_points(goals)).sample(ts)
    for n, (a, b) in enumerate(zip(starts, goals)):
        single = geodesic_path(geometry, stack_points([a]), stack_points([b])).sample(ts)
        reference = [np.array(block) for block in zip(*(ref_geodesic(a, b)(t) for t in ts))]
        got = hexed_rows(r[n * len(ts) : (n + 1) * len(ts)] for r in rows)
        assert got == hexed_rows(single) == hexed_rows(reference), n


def ref_geodesic_angles(a, b):
    """The arc angle ``ref_slerp`` takes on each sphere factor."""
    angles = []
    for f, x, y in zip(a.geometry.factors, a.parts, b.parts):
        if f.kind == "sphere":
            dot = float(np.dot(x, y))
            angles.append(math.atan2(float(np.linalg.norm(x - dot * y)), dot))
    return angles


def test_leaf_keys_split_mixed_leaf_rules_and_path_rejects_uncovered_decisions():
    """Rows of one rule whose leaves run different rules get different leaf
    keys, each its decision's leaf rules, so they never share a bundle;
    and ``path`` rejects a rule that does not cover the decision."""
    planner = build_planner("torus:3")
    pairs = adversarial_pairs(planner, np.random.default_rng(4))
    block = planner.decide_many(*(stack_points(side) for side in zip(*pairs)))
    rows = np.arange(len(pairs))
    keys = planner.leaf_keys(block, rows, block.index)
    decisions = [row_decision(planner, block, row) for row in rows]
    assert [tuple(k) for k in keys.tolist()] == [planner.leaf_rules(d, d.index) for d in decisions]
    seen = {}
    for d, key in zip(decisions, keys.tolist()):
        seen.setdefault(d.index, set()).add(tuple(key))
    assert any(len(keys) > 1 for keys in seen.values())
    covered = next(d for d in decisions if d.weights[1] > 0.0)
    uncovered = next(d for d in decisions if d.weights[1] == 0.0)
    planner.path(covered, 2)
    with pytest.raises(DomainMiss, match="does not cover"):
        planner.path(uncovered, 2)
    circle = build_planner("circle")
    apart = circle.decide(make_point(circle.geometry, [1, 0]), make_point(circle.geometry, [0, 1]))
    equal = circle.decide(*[make_point(circle.geometry, [0.6, 0.8])] * 2)
    circle.path(apart, 2)
    with pytest.raises(DomainMiss, match="does not cover"):
        circle.path(equal, 2)


def test_sample_path_rows_are_the_cli_samples():
    planner = build_planner("product(circle,sphere:3,sphere:2,convex:2)")
    for index, path, reference in every_section(planner, seed=3):
        samples = sample_path(path, 17)
        assert [t for t, _ in samples] == CLI_TS
        for t, point in samples:
            assert hexed(point.parts) == hexed(reference(t))


def test_config_distances_equal_the_scalar_formula_row_by_row():
    planner = build_planner("product(circle,sphere:3,sphere:2,convex:2)")
    geometry = planner.geometry
    rng = np.random.default_rng(7)
    xs = [random_point(geometry, rng) for _ in range(400)]
    ys = [random_point(geometry, rng) for _ in range(300)]
    for x in xs[:100]:  # sphere chords at 2 and just past it, where asin clamps
        scale = 1.0 + 1e-12 * rng.random()
        ys.append(ConfigPoint(geometry, tuple(
            -scale * p if f.kind == "sphere" else p for f, p in zip(geometry.factors, x.parts)
        )))
    rows = lambda points: [np.stack(block) for block in zip(*(p.parts for p in points))]
    got = config_distances(geometry, rows(xs), rows(ys)).tolist()
    expected = [ref_config_distance(x, y).hex() for x, y in zip(xs, ys)]
    assert [d.hex() for d in got] == expected
    assert [config_distance(x, y).hex() for x, y in zip(xs, ys)] == expected


@pytest.mark.parametrize("ambient", [2, 3, 4, 5, 9])
def test_row_norms_equal_vector_norm(ambient):
    rows = np.random.default_rng(ambient).standard_normal((2000, ambient))
    assert [n.hex() for n in row_norms(rows).tolist()] == [vector_norm(r).hex() for r in rows]


# -- the facts the verifier's blocks rest on ----------------------------------------


@pytest.mark.parametrize("ambient", [1, 2, 3, 4, 5, 7, 9, 16])
def test_vecdot_rows_equal_dot(ambient):
    rng = np.random.default_rng(100 + ambient)
    vs, xs = rng.standard_normal((2, 2000, ambient))
    xs[:500] /= row_norms(xs[:500])[:, None]
    expected = [float(np.dot(v, x)).hex() for v, x in zip(vs, xs)]
    assert [d.hex() for d in np.vecdot(vs, xs).tolist()] == expected


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (2, 4, 3, 2)])
def test_one_block_draw_equals_the_sequential_draws(sizes):
    """A (N, 2, sum(sizes)) standard-normal draw holds, in C order, what
    2N draws per size give one after another, and leaves the generator in
    the same state."""
    sequential, block = np.random.default_rng(5), np.random.default_rng(5)
    draws = [sequential.standard_normal(k) for _ in range(2 * 50) for k in sizes]
    drawn = block.standard_normal((50, 2, sum(sizes)))
    hexed_draws = [v.hex() for v in np.concatenate(draws).tolist()]
    assert hexed_draws == [v.hex() for v in drawn.ravel().tolist()]
    assert sequential.bit_generator.state == block.bit_generator.state
    assert sequential.standard_normal(3).tolist() == block.standard_normal(3).tolist()


@pytest.mark.parametrize(
    "spec",
    ["sphere:2", "torus:4", "convex:3", "product(sphere:2,sphere:2)", "product(circle,convex:2)"],
)
def test_random_points_equal_the_sequential_draws(spec):
    geometry = build_planner(spec).geometry
    sequential, block = np.random.default_rng(3), np.random.default_rng(3)
    expected = [random_point(geometry, sequential) for _ in range(301)]
    got = random_points(geometry, block, 301)
    assert [hexed(row) for row in zip(*got)] == [hexed(p.parts) for p in expected]
    assert all(not part.flags.writeable for p in expected for part in p.parts)
    assert sequential.bit_generator.state == block.bit_generator.state
    assert [r.shape for r in random_points(geometry, block, 0)] == [
        (0, f.ambient) for f in geometry.factors
    ]


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_punctured_plane_sampler_equals_the_per_point_draws(seed):
    """The punctured plane's point_sampler gives, in one call, the points
    that drawing a radius and then an angle per point gives, bit for bit,
    and leaves the generator in the same state."""
    sequential, block = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = []
    for _ in range(2000):
        radius = sequential.uniform(0.2, 2.0)
        angle = sequential.uniform(0.0, 2.0 * math.pi)
        expected.append([radius * math.cos(angle), radius * math.sin(angle)])
    sampler = punctured_plane_planner().point_sampler
    (rows,) = sampler(block, 2000)
    assert hexed(rows) == hexed(expected)
    assert sequential.bit_generator.state == block.bit_generator.state
    assert sampler(block, 0)[0].shape == (0, 2)


class _Normals:
    """A stand-in generator whose standard_normal hands out given values."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, size):
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


@pytest.mark.parametrize("spec", ["sphere:2", "sphere:3", "convex:3", "product(circle,convex:2)"])
def test_block_perturbation_equals_tangent_perturb(spec):
    """The verifier's twins: one (M, 2, ambient_dim) draw and
    tangent_perturb_rows on the starts and the goals give, bit for bit,
    the points that tangent_perturb gives drawing start, goal, start, goal,
    ... in turn."""
    geometry = build_planner(spec).geometry
    rng = np.random.default_rng(31)
    starts = [random_point(geometry, rng) for _ in range(300)]
    goals = [random_point(geometry, rng) for _ in range(300)]
    sequential, block = np.random.default_rng(9), np.random.default_rng(9)
    expected = [tangent_perturb(p, DELTA, sequential) for pair in zip(starts, goals) for p in pair]
    normals = block.standard_normal((300, 2, geometry.ambient_dim))
    moved = [tangent_perturb_rows(geometry, stack_points(points), DELTA, normals[:, side])
             for side, points in enumerate((starts, goals))]
    got = [row for pair in zip(*(zip(*rows) for rows in moved)) for row in pair]
    assert [hexed(row) for row in got] == [hexed(p.parts) for p in expected]
    assert sequential.bit_generator.state == block.bit_generator.state


def test_block_perturbation_degenerate_draws():
    """Normals along a sphere point (no tangent part) and zero normals on a
    convex factor leave the point where tangent_perturb leaves it."""
    geometry = build_planner("product(sphere:2,convex:2)").geometry
    point = make_point(geometry, [0.6, 0.0, 0.8, 0.5, -1.0])
    draws = [[0.6, 0.0, 0.8, 0.0, 0.0], [1.2, 0.0, 1.6, 0.0, 0.0], [0.0, 1.0, 0.0, 3.0, 4.0]]
    expected = [tangent_perturb(point, DELTA, _Normals(d)) for d in draws]
    moved = tangent_perturb_rows(geometry, stack_points([point] * 3), DELTA, np.array(draws))
    assert [hexed(row) for row in zip(*moved)] == [hexed(p.parts) for p in expected]
    assert hexed(expected[0].parts) == hexed(point.parts)


def chord_arc(chord):
    """The sphere distance of a chord length, as ``factor_distance`` took it
    before its point form was written inline: 2 asin(chord / 2), the half
    chord clamped to 1 but a NaN kept (``min(1.0, nan)`` would give 1)."""
    return 2.0 * math.asin(1.0 if chord >= 2.0 else chord / 2.0)


def test_sphere_distances_equal_chord_arc():
    """factor_distance of sphere rows gives, element for element, what
    chord_arc gives its chord: at 0, below 2, exactly 2 (where asin
    clamps), past 2 and at NaN."""
    rng = np.random.default_rng(21)
    xs = rng.standard_normal((400, 3))
    xs /= row_norms(xs)[:, None]
    ys = rng.standard_normal((400, 3))
    ys /= row_norms(ys)[:, None]
    ys[:50] = xs[:50]  # chord 0
    ys[50:100] = -xs[50:100] * (1.0 + 1e-12 * rng.random((50, 1)))  # chords at and past 2
    ys[100] = np.nan
    ys[101] = [0.0, 0.0, 1.0]
    xs[101] = [0.0, 0.0, -1.0]  # chord exactly 2
    chords = row_norms(xs - ys).tolist()
    assert 0.0 in chords and 2.0 in chords and any(c > 2.0 for c in chords)
    assert any(0.0 < c < 2.0 for c in chords) and any(math.isnan(c) for c in chords)
    got = factor_distance(Factor("sphere", 2), xs, ys).tolist()
    assert [d.hex() for d in got] == [chord_arc(c).hex() for c in chords]


def _distance_pairs(factor, rng):
    """(N, ambient) starts and goals on one factor: random pairs, then
    equal, antipodal and just-past-antipodal ones (chords at and past 2),
    signed zeros, and NaN coordinates."""
    k = factor.ambient
    xs, ys = rng.standard_normal((80, k)), rng.standard_normal((80, k))
    if factor.kind == "sphere":
        xs /= row_norms(xs)[:, None]
        ys /= row_norms(ys)[:, None]
    ys[:10] = xs[:10]
    ys[10:20] = -xs[10:20]
    ys[20:30] = -xs[20:30] * (1.0 + 1e-12 * rng.random((10, 1)))
    xs[30], ys[30] = 0.0, -0.0
    xs[31], ys[31] = -0.0, -0.0
    first, last = np.arange(k) == 0, np.arange(k) == k - 1
    xs[32] = ys[32] = np.where(first, 1.0, -0.0)
    xs[33], ys[33] = np.where(last, -1.0, 0.0), np.where(last, 1.0, -0.0)  # chord exactly 2
    xs[34, 0] = np.nan
    ys[35] = np.nan
    return xs, ys


@pytest.mark.parametrize(
    "factor", [Factor("sphere", 1), Factor("sphere", 2), Factor("sphere", 3), Factor("convex", 3)],
    ids=["circle", "sphere:2", "sphere:3", "convex:3"],
)
def test_factor_distance_points_rows_and_antipode_chords_agree(factor):
    """A pair's factor distance has the same bits in point form, in row form
    and as the chord formula it replaced, and the chord x + y that the
    shortest-arc weight measures gives what x - (-y) gave, in both forms."""
    xs, ys = _distance_pairs(factor, np.random.default_rng(23))
    hexes = lambda values: [float(v).hex() for v in values]
    length = lambda x, y: vector_norm(x - y)
    ref = (lambda x, y: chord_arc(length(x, y))) if factor.kind == "sphere" else length
    points = [factor_distance(factor, x, y) for x, y in zip(xs, ys)]
    assert all(type(d) is float for d in points)
    assert hexes(points) == hexes(factor_distance(factor, xs, ys))
    assert hexes(points) == hexes(ref(x, y) for x, y in zip(xs, ys))
    one_side = [factor_distance(factor, xs[0], y) for y in ys]
    assert hexes(one_side) == hexes(factor_distance(factor, xs[0], ys))
    antipodes = [factor_distance(factor, x, -y) for x, y in zip(xs, ys)]
    assert hexes(chord_distance(factor, x + y) for x, y in zip(xs, ys)) == hexes(antipodes)
    assert hexes(chord_distance(factor, xs + ys)) == hexes(antipodes)
    chords = row_norms(xs - ys).tolist()
    assert 0.0 in chords and any(math.isnan(c) for c in chords)
    if factor.kind == "sphere":
        assert 2.0 in chords and any(c > 2.0 for c in chords)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_even_field_rows_equal_the_per_point_formula(n):
    """The even-sphere tangent field over rows gives, bit for bit, each
    row's per-point field, at random points and at both poles; so does
    stereo_push at chart points."""
    rng = np.random.default_rng(n)
    xs = rng.standard_normal((3000, n + 1))
    xs /= row_norms(xs)[:, None]
    xs[0], xs[1] = np.eye(n + 1)[n], -np.eye(n + 1)[n]  # the field's zero and the opposite pole
    with np.errstate(invalid="ignore", divide="ignore"):
        rows = even_vector_field(xs, n)
    expected = [hexed([ref_even_vector_field(x, n)]) for x in xs]
    assert [hexed([row]) for row in rows] == expected
    assert [hexed([even_vector_field(x, n)]) for x in xs[:300]] == expected[:300]
    assert not rows[0].any() and rows[1].any()
    ys = stereo_project(xs[2:], n)
    e = np.eye(n)[0]
    assert hexed(stereo_push(ys, e, n)) == hexed([stereo_push(y, e, n) for y in ys])


def _random_pieces(rng):
    """A random piece structure of [0, 1]: cuts from a small grid, each
    piece constant-speed or not."""
    grid = [k / 12 for k in range(1, 12)] + [1 / 64, 1 / 3 + 1 / 64]
    cuts = [0.0, *sorted(rng.sample(grid, rng.randint(0, 4))), 1.0]
    return tuple((t0, t1, rng.random() < 0.5) for t0, t1 in zip(cuts, cuts[1:]))


def test_merge_pieces_memo_equals_an_uncached_merge_and_stays_bounded():
    """The memoized merge gives the uncached merge's structure on random
    structures, repeats included, and holds no more than its bound."""
    rng = random.Random(6)
    bound = merge_pieces.cache_parameters()["maxsize"]
    merge_pieces.cache_clear()
    seen = []
    for _ in range(2 * bound):
        structures = tuple(_random_pieces(rng) for _ in range(rng.randint(1, 4)))
        if seen and rng.random() < 0.3:
            structures = rng.choice(seen)
        seen.append(structures)
        assert repr(merge_pieces(structures)) == repr(merge_pieces.__wrapped__(structures))
    info = merge_pieces.cache_info()
    assert info.hits and info.misses > bound
    assert info.currsize == bound
