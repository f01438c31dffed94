import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcplan import planner_core
from tcplan.geometry import (
    ConfigPoint,
    InvalidPoint,
    ParityError,
    config_distance,
    convex_geometry,
    even_vector_field,
    make_point,
    odd_vector_field,
    pair_paths,
    random_point,
    row_norms,
    stack_points,
)
from tcplan.planner_core import (
    Decision,
    DomainMiss,
    HomotopyEndpointMismatch,
    LengthMismatch,
    arm_planner,
    build_planner,
    circle_planner,
    forward_kinematics,
    plan,
    ProductPlanner,
    product_planner,
    punctured_plane_planner,
    sample_path,
    sphere_planner,
    straight_line_planner,
    TransferPlanner,
    transfer_planner,
)
from tcplan.verifier import adversarial_pairs

EPS = 1e-9


def pt(planner, *coords):
    return make_point(planner.geometry, list(coords))


def one_point_sampler(planner):
    """One random point per call: the planner's own ``point_sampler`` one
    row at a time, else ``random_point``."""
    if planner.point_sampler is None:
        return lambda rng: random_point(planner.geometry, rng)
    return lambda rng: ConfigPoint(
        planner.geometry, tuple(x[0] for x in planner.point_sampler(rng, 1))
    )


def angle_of(point, factor=0):
    v = point.parts[factor]
    return math.atan2(v[1], v[0])


unit_vectors = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: np.random.default_rng(seed)
)


# -- straight line -----------------------------------------------------------

def test_straight_line_midpoint():
    planner = straight_line_planner(2)
    result = plan(planner, pt(planner, 0, 0), pt(planner, 2, 0))
    assert result.rule_index == 1
    assert np.allclose(result.path(0.5).flat, [1, 0])


def test_straight_line_constant():
    planner = straight_line_planner(2)
    result = plan(planner, pt(planner, 1, 1), pt(planner, 1, 1))
    assert np.allclose(result.path(0.3).flat, [1, 1])


def test_straight_line_single_rule():
    assert len(straight_line_planner(3).rules) == 1


# -- circle --------------------------------------------------------------------

def test_circle_quarter_arc_uses_shortest_rule():
    planner = circle_planner()
    result = plan(planner, pt(planner, 1, 0), pt(planner, 0, 1))
    assert result.rule_index == 1
    assert abs(angle_of(result.path(0.5)) - math.pi / 4) < EPS


def test_circle_antipodal_goes_positive():
    planner = circle_planner()
    result = plan(planner, pt(planner, 1, 0), pt(planner, -1, 0))
    assert result.rule_index == 2
    assert abs(angle_of(result.path(0.5)) - math.pi / 2) < EPS  # counterclockwise


def test_circle_equal_pair_constant():
    planner = circle_planner()
    result = plan(planner, pt(planner, 1, 0), pt(planner, 1, 0))
    assert result.rule_index == 1
    assert config_distance(result.path(0.7), pt(planner, 1, 0)) < EPS


def test_circle_rule_count_is_two():
    assert len(circle_planner().rules) == 2


# -- tangent fields ---------------------------------------------------------------

def test_odd_field_swaps_coordinates():
    assert np.allclose(odd_vector_field(np.array([1.0, 0, 0, 0]), 3), [0, 1, 0, 0])


def test_odd_field_tangent_and_unit_on_1000_samples():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        v = odd_vector_field(x, 3)
        assert abs(np.dot(v, x)) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_odd_field_parity_error():
    with pytest.raises(ParityError):
        odd_vector_field(np.array([0.0, 0, 1]), 2)
    with pytest.raises(ParityError):
        even_vector_field(np.array([0.0, 1, 0, 0]), 3)


def test_even_field_zero_only_at_pole():
    pole = np.array([0.0, 0, 1])
    assert np.allclose(even_vector_field(pole, 2), 0)
    # at the antipode the chart differential is 2 * e1
    assert np.allclose(even_vector_field(-pole, 2), [2, 0, 0])


def test_even_field_quadratic_decay_near_pole():
    for delta in (1e-1, 1e-2):
        x = np.array([math.sin(delta), 0.0, math.cos(delta)])
        norm = np.linalg.norm(even_vector_field(x, 2))
        assert norm < delta**2  # ~ delta^2 / 2
    x = np.array([math.sin(1e-2), 0.0, math.cos(1e-2)])
    assert np.linalg.norm(even_vector_field(x, 2)) < 1e-3


@settings(max_examples=100, deadline=None)
@given(rng=unit_vectors)
def test_even_field_tangency(rng):
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    v = even_vector_field(x, 2)
    assert abs(np.dot(v, x)) < 1e-12


# -- sphere planners -----------------------------------------------------------------

def test_sphere_rule_counts_by_parity():
    assert len(sphere_planner(1).rules) == 2
    assert len(sphere_planner(2).rules) == 3
    assert len(sphere_planner(3).rules) == 2
    assert len(sphere_planner(4).rules) == 3


def test_sphere3_geodesic_midpoint():
    planner = sphere_planner(3)
    result = plan(planner, pt(planner, 1, 0, 0, 0), pt(planner, 0, 1, 0, 0))
    assert result.rule_index == 1
    assert np.allclose(result.path(0.5).flat, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])


def test_sphere3_antipodal_two_stage():
    planner = sphere_planner(3)
    a = pt(planner, 1, 0, 0, 0)
    b = pt(planner, -1, 0, 0, 0)
    result = plan(planner, a, b)
    assert result.rule_index == 2
    # first stage is constant (start already antipodal to goal); at t = 0.75
    # the polar arc sits at the tangent direction of the coordinate-swap field
    assert np.allclose(result.path(0.75).flat, [0, -1, 0, 0], atol=1e-12)
    assert config_distance(result.path(0.0), a) < EPS
    assert config_distance(result.path(1.0), b) < EPS


def test_sphere2_field_zero_pair_uses_chart_rule():
    planner = sphere_planner(2)
    result = plan(planner, pt(planner, 0, 0, -1), pt(planner, 0, 0, 1))
    assert result.rule_index == 3
    assert config_distance(result.path(1.0), pt(planner, 0, 0, 1)) < EPS


def test_sphere2_equal_pair_constant():
    planner = sphere_planner(2)
    a = pt(planner, 0.6, 0.8, 0)
    result = plan(planner, a, a)
    assert result.rule_index == 1
    assert config_distance(result.path(0.4), a) < EPS


@settings(max_examples=50, deadline=None)
@given(rng=unit_vectors)
def test_sphere_sections_hit_endpoints(rng):
    planner = sphere_planner(2)
    a = random_point(planner.geometry, rng)
    b = random_point(planner.geometry, rng)
    result = plan(planner, a, b)
    assert config_distance(result.path(0.0), a) < EPS
    assert config_distance(result.path(1.0), b) < EPS
    for t in (0.25, 0.5, 0.75):
        assert abs(np.linalg.norm(result.path(t).parts[0]) - 1.0) < EPS


# -- products ---------------------------------------------------------------------

def test_product_rule_count():
    assert len(product_planner(circle_planner(), circle_planner()).rules) == 3


def test_torus_level_two_for_generic_pair():
    planner = arm_planner("planar", 2)
    a = pt(planner, 1, 0, 1, 0)
    deg10 = math.radians(10)
    deg20 = math.radians(20)
    b = make_point(
        planner.geometry,
        [math.cos(deg10), math.sin(deg10), math.cos(deg20), math.sin(deg20)],
    )
    decision = planner.decide(a, b)
    assert decision.index == 1  # level 2
    assert decision.cell == ((0,), (0,))
    result = plan(planner, a, b)
    mid = result.path(0.5)
    assert abs(angle_of(mid, 0) - deg10 / 2) < EPS
    assert abs(angle_of(mid, 1) - deg20 / 2) < EPS


def test_torus_exact_tie_hits_top_level():
    planner = arm_planner("planar", 2)
    a = pt(planner, 1, 0, 1, 0)
    b = pt(planner, 0, 1, 0, 1)  # exactly a quarter turn per factor
    decision = planner.decide(a, b)
    assert decision.index == 3  # level 4
    assert decision.cell == ((0, 1), (0, 1))


def test_product_weights_are_partition_of_unity():
    planner = arm_planner("spatial", 2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = random_point(planner.geometry, rng)
        b = random_point(planner.geometry, rng)
        decision = planner.decide(a, b)
        weights = decision.weights
        assert abs(sum(weights) - 1.0) < 1e-12
        assert all(0.0 <= w <= 1.0 for w in weights)
        assert weights[decision.index - 1] > 0.0


def _split(planner, point):
    """A product planner's query point as its left and right factor points."""
    k = planner.split
    return (ConfigPoint(planner.left.geometry, point.parts[:k]),
            ConfigPoint(planner.right.geometry, point.parts[k:]))


def test_product_cell_inequalities_hold():
    """The derived argmax cell satisfies the defining strict inequalities."""
    left = circle_planner()
    right = sphere_planner(2)
    planner = product_planner(left, right)
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_point(planner.geometry, rng)
        b = random_point(planner.geometry, rng)
        s, t = planner.decide(a, b).cell
        (ax, ay), (bx, by) = _split(planner, a), _split(planner, b)
        f = left.decide(ax, bx).weights
        g = right.decide(ay, by).weights
        inside = min(f[i] * g[j] for i in s for j in t)
        for i in range(len(f)):
            for j in range(len(g)):
                if i not in s or j not in t:
                    assert inside > f[i] * g[j]
        # the chosen factor rules cover the factor pairs
        assert f[min(s)] > 0 and g[min(t)] > 0


# An independent tie-cell reference: every superset of the argmax sets, by
# ascending bitmask over the non-max indices (S outer, T inner).


def _exhaustive_tie_cells(f, g):
    n, m = len(f), len(g)
    fmax, gmax = max(f), max(g)
    s0 = [i for i in range(n) if f[i] == fmax]
    t0 = [j for j in range(m) if g[j] == gmax]
    rest_s = [i for i in range(n) if f[i] != fmax]
    rest_t = [j for j in range(m) if g[j] != gmax]

    t_sets = []
    for t_bits in range(1 << len(rest_t)):
        t_extra = [rest_t[k] for k in range(len(rest_t)) if t_bits >> k & 1]
        min_g = min(gmax, min((g[j] for j in t_extra), default=gmax))
        out_g = max((g[j] for j in rest_t if j not in t_extra), default=None)
        t_sets.append((t0 + t_extra, min_g, out_g))

    levels = [0.0] * (n + m + 1)
    cells = {}

    for s_bits in range(1 << len(rest_s)):
        s_extra = [rest_s[k] for k in range(len(rest_s)) if s_bits >> k & 1]
        s = s0 + s_extra
        min_f = min(fmax, min((f[i] for i in s_extra), default=fmax))
        out_f = max((f[i] for i in rest_s if i not in s_extra), default=None)
        for t, min_g, out_g in t_sets:
            outside = 0.0
            if out_f is not None:
                outside = max(outside, out_f * gmax)
            if out_g is not None:
                outside = max(outside, fmax * out_g)
            margin = min_f * min_g - outside
            if margin > 0.0:
                level = len(s) + len(t)
                levels[level] += margin
                if level not in cells:
                    cells[level] = (tuple(sorted(s)), tuple(sorted(t)))

    return levels, cells, (tuple(sorted(s0)), tuple(sorted(t0)))


def _random_weights(rng, size):
    """Normalized weights with a positive maximum, often tied or zero."""
    while True:
        if rng.random() < 0.75:
            raw = rng.choice([0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 0.5], size=size)
        else:
            raw = rng.random(size) * (rng.random(size) < 0.8)
        if raw.max() > 0.0:
            total = float(sum(raw.tolist()))
            return tuple(w / total for w in raw.tolist())


def test_tie_cells_match_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(20_000):
        f = _random_weights(rng, int(rng.integers(1, 10)))
        g = _random_weights(rng, int(rng.integers(1, 6)))
        levels, cells, argmax = planner_core._tie_cells(f, g)
        ref_levels, ref_cells, ref_argmax = _exhaustive_tie_cells(f, g)
        assert [w.hex() for w in levels] == [w.hex() for w in ref_levels], (f, g)
        assert list(cells.items()) == list(ref_cells.items()), (f, g)
        assert argmax == ref_argmax
        # the row form ``decide_many`` uses, on a one-row block
        row_levels, keys, factor_rules, tops = planner_core._tie_cell_rows(
            np.array([f]), np.array([g])
        )
        assert [w.hex() for w in row_levels[0].tolist()] == [w.hex() for w in ref_levels], (f, g)
        assert decode_cells(keys[0], len(f), len(g)) == ref_cells, (f, g)
        assert factor_rules[0].tolist() == [
            [min(ref_cells[k][0]) + 1, min(ref_cells[k][1]) + 1] if k in ref_cells else [0, 0]
            for k in range(len(f) + len(g) + 1)
        ], (f, g)
        assert tops.tolist() == [len(ref_argmax[0]) + len(ref_argmax[1])]


def decode_cells(keys, n, m):
    """The tie cells {level: (S, T)} of one row's (levels, bytes) cell keys
    for factors of n and m rules: S's membership bits, then T's."""
    split = (n + 7) // 8
    cells = {}
    for level, key in enumerate(keys):
        if key.any():
            s = np.flatnonzero(np.unpackbits(key[:split], count=n))
            t = np.flatnonzero(np.unpackbits(key[split:], count=m))
            cells[level] = (tuple(s.tolist()), tuple(t.tolist()))
    return cells


def test_cell_keys_tell_apart_cells_past_64_rules():
    """A factor of 70 rules: two rows whose cells differ only in index 65
    against 66 get different keys, as do their twins in any later index,
    and the keys decode to the exact cells."""
    f = np.full((3, 70), 1.0 / 72.0)
    f[:, 0] = f[0, 65] = f[1, 66] = f[2, 69] = 2.0 / 72.0
    g = np.array([[0.75, 0.25]] * 3)
    levels, keys, factor_rules, tops = planner_core._tie_cell_rows(f, g)
    assert tops.tolist() == [3, 3, 3]
    cells = [decode_cells(k, 70, 2) for k in keys]
    assert [c[3] for c in cells] == [((0, 65), (0,)), ((0, 66), (0,)), ((0, 69), (0,))]
    assert not (keys[0, 3] == keys[1, 3]).all() and not (keys[1, 3] == keys[2, 3]).all()
    assert factor_rules[:, 3].tolist() == [[1, 1]] * 3
    for c, row in zip(cells, f.tolist()):
        assert c == planner_core._tie_cells(tuple(row), (0.75, 0.25))[1]


def test_tie_cells_polynomial_on_long_vectors():
    """40 + 40 distinct weights: 2^78 supersets, a few hundred upward-closed ones."""
    rng = np.random.default_rng(40)
    f, g = (tuple(rng.permutation(np.arange(1, 41) / 820.0).tolist()) for _ in range(2))
    levels, cells, (s0, t0) = planner_core._tie_cells(f, g)
    assert (s0, t0) == ((f.index(max(f)),), (g.index(max(g)),))
    assert cells and sum(levels) > 0.0
    for level, (s, t) in cells.items():
        assert len(s) + len(t) == level
        assert min(f[i] for i in s) > max((f[i] for i in range(40) if i not in s), default=0.0)
        assert min(g[j] for j in t) > max((g[j] for j in range(40) if j not in t), default=0.0)


# The decision path against a reference built from the factor rules alone,
# which runs the exhaustive tie-cell analysis afresh at every nesting level
# and for every section.


def _reference_cells(planner, a, b):
    (ax, ay), (bx, by) = _split(planner, a), _split(planner, b)
    f = _reference_weights(planner.left, ax, bx)
    g = _reference_weights(planner.right, ay, by)
    levels, cells, _ = _exhaustive_tie_cells(f, g)
    return (ax, bx), (ay, by), levels, cells


def _reference_weights(planner, a, b):
    if isinstance(planner, ProductPlanner):
        raw = tuple(_reference_cells(planner, a, b)[2][2:])
    else:
        raw = tuple(rule.weight(a, b) for rule in planner.rules)
    total = sum(raw)
    return tuple(w / total for w in raw)


def _reference_section(planner, index, a, b):
    if not isinstance(planner, ProductPlanner):
        return planner.path(planner.decide(a, b), index)
    (ax, bx), (ay, by), _, cells = _reference_cells(planner, a, b)
    s, t = cells[index + 1]
    return pair_paths(
        planner.geometry,
        _reference_section(planner.left, min(s) + 1, ax, bx),
        _reference_section(planner.right, min(t) + 1, ay, by),
    )


def _sample_bytes(path):
    return [(t, p.flat.tobytes()) for t, p in sample_path(path, 17)]


def _covers(planner, decision, index):
    try:
        planner.path(decision, index)
    except DomainMiss:
        return False
    return True


@pytest.mark.parametrize(
    "spec",
    [
        "torus:4",
        "product(sphere:2,sphere:2,sphere:2)",
        "product(circle,sphere:3,sphere:2,convex:2)",
    ],
)
def test_decision_path_matches_reanalysis(spec):
    planner = build_planner(spec)
    rng = np.random.default_rng(29)
    pairs = adversarial_pairs(planner, rng)
    pairs += [(random_point(planner.geometry, rng), random_point(planner.geometry, rng))
              for _ in range(100)]
    for a, b in pairs:
        decision = planner.decide(a, b)
        weights = _reference_weights(planner, a, b)
        index = next(i + 1 for i, w in enumerate(weights) if w > 0.0)
        assert decision.index == index
        assert decision.weights == weights
        assert decision.cell == _reference_cells(planner, a, b)[3][index + 1]
        applies = [_covers(planner, decision, i) for i in range(1, index + 1)]
        assert applies == [False] * (index - 1) + [True]
        again = planner.decide(a, b)
        assert (again.index, again.weights, again.cell) == (index, weights, decision.cell)
        expected = _sample_bytes(_reference_section(planner, index, a, b))
        assert _sample_bytes(plan(planner, a, b).path) == expected
        assert _sample_bytes(planner.path(again, index)) == expected


# decide_many against decide, row by row, down every nesting level.


def row_decision(planner, decisions, row):
    """Row ``row`` of a ``Decisions`` block as a ``Decision``, its cells
    decoded from their keys and its factor decisions from their blocks, or
    None where the row is uncovered."""
    if decisions.index[row] == 0:
        return None
    a, b = (ConfigPoint(planner.geometry, tuple(x[row] for x in blocks))
            for blocks in (decisions.a, decisions.b))
    index, weights = int(decisions.index[row]), tuple(decisions.weights[row].tolist())
    if isinstance(planner, ProductPlanner):
        n, m = len(planner.left.rules), len(planner.right.rules)
        cells = decode_cells(decisions.cells[row], n, m)
        assert decisions.factor_rules[row].tolist() == [
            [min(cells[k][0]) + 1, min(cells[k][1]) + 1] if k in cells else [0, 0]
            for k in range(n + m + 1)
        ]
        left, right = decisions.factors
        factors = (row_decision(planner.left, left, row), row_decision(planner.right, right, row))
        return Decision(a, b, index, weights, cells[index + 1], cells, factors)
    if isinstance(planner, TransferPlanner):
        source = row_decision(planner.source, decisions.factors[0], row)
        return Decision(a, b, index, weights, source.cell, factors=(source,))
    return Decision(a, b, index, weights)


def _assert_same_decision(got, want):
    assert got.a.flat.tobytes() == want.a.flat.tobytes()
    assert got.b.flat.tobytes() == want.b.flat.tobytes()
    assert (got.index, got.cell) == (want.index, want.cell)
    assert [w.hex() for w in got.weights] == [w.hex() for w in want.weights]
    assert (got.cells or {}) == (want.cells or {})
    assert len(got.factors or ()) == len(want.factors or ())
    for g, w in zip(got.factors or (), want.factors or ()):
        _assert_same_decision(g, w)


def _decide_or_none(planner, a, b):
    try:
        return planner.decide(a, b)
    except planner_core.CoverageGap:
        return None


def _shortest_arc_only():
    """A circle planner missing its second rule: antipodal pairs are uncovered."""
    circle = circle_planner()
    return planner_core.Planner("circle", circle.geometry, circle.rules[:1])


DECIDE_MANY_PLANNERS = {
    **{spec: (lambda spec=spec: build_planner(spec)) for spec in [
        "convex:3", "circle", "sphere:2", "sphere:3", "torus:2", "torus:3", "torus:4",
        "product(sphere:2,sphere:2)", "torus:6", "product(sphere:2,sphere:2,sphere:2)",
    ]},
    "punctured-plane": punctured_plane_planner,
    "gap": _shortest_arc_only,
    "product(gap,circle)": lambda: product_planner(_shortest_arc_only(), circle_planner()),
}


@pytest.mark.parametrize("name", DECIDE_MANY_PLANNERS)
def test_decide_many_matches_decide(name):
    planner = DECIDE_MANY_PLANNERS[name]()
    rng = np.random.default_rng(12)
    sampler = one_point_sampler(planner)
    pairs = adversarial_pairs(planner, rng) + [(sampler(rng), sampler(rng)) for _ in range(300)]
    starts, goals = stack_points([a for a, _ in pairs]), stack_points([b for _, b in pairs])
    want = [_decide_or_none(planner, a, b) for a, b in pairs]
    block = planner.decide_many(starts, goals)
    got = [row_decision(planner, block, row) for row in range(len(pairs))]
    assert [d is None for d in got] == [d is None for d in want]
    for g, w in zip(got, want):
        if w is not None:
            _assert_same_decision(g, w)
    empty = tuple(x[:0] for x in starts)
    assert planner.decide_many(empty, empty).index.shape == (0,)
    if name.startswith(("torus", "product(sphere")):
        # the adversarial ties reach tie cells beyond the lowest level
        assert any(d.index > 1 for d in got)
        assert any(len(d.cell[0]) > 1 or len(d.cell[1]) > 1 for d in got)
    if "gap" in name:
        assert any(d is None for d in got) and any(d is not None for d in got)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_plan_analyzes_each_product_node_once(monkeypatch, n):
    planner = build_planner(f"torus:{n}")
    rng = np.random.default_rng(n)
    a = random_point(planner.geometry, rng)
    b = random_point(planner.geometry, rng)
    calls = []
    tie_cells = planner_core._tie_cells
    monkeypatch.setattr(planner_core, "_tie_cells", lambda f, g: calls.append(1) or tie_cells(f, g))
    sample_path(plan(planner, a, b).path, 17)
    assert len(calls) == n - 1


def test_arm_rule_counts():
    assert len(arm_planner("planar", 3).rules) == 4
    assert len(arm_planner("spatial", 2).rules) == 5
    assert len(arm_planner("planar", 1).rules) == 2


def test_componentwise_section():
    planner = arm_planner("planar", 2)
    result = plan(planner, pt(planner, 1, 0, 0, 1), pt(planner, 0, 1, 0, 1))
    mid = result.path(0.5)
    assert abs(angle_of(mid, 0) - math.pi / 4) < EPS  # moving factor
    assert abs(angle_of(mid, 1) - math.pi / 2) < EPS  # parked factor


# -- transfer --------------------------------------------------------------------

def test_punctured_plane_planner_has_two_rules():
    assert len(punctured_plane_planner().rules) == 2


def test_punctured_plane_sections_avoid_origin():
    planner = punctured_plane_planner()
    rng = np.random.default_rng(5)
    sampler = one_point_sampler(planner)
    for _ in range(100):
        a = sampler(rng)
        b = sampler(rng)
        result = plan(planner, a, b)
        assert config_distance(result.path(0.0), a) < EPS
        assert config_distance(result.path(1.0), b) < EPS
        radii = [np.linalg.norm(result.path(t).parts[0]) for t in np.linspace(0, 1, 21)]
        assert min(radii) > 1e-6


def test_transfer_identity_homotopy_reproduces_source():
    circle = circle_planner()
    identity = lambda p: p
    planner = transfer_planner(
        circle,
        identity,
        identity,
        lambda t, p: p,
        circle.geometry,
        space="circle-again",
    )
    assert len(planner.rules) == len(circle.rules)
    a = pt(circle, 1, 0)
    b = pt(circle, 0, 1)
    source = plan(circle, a, b)
    transferred = plan(planner, a, b)
    assert transferred.rule_index == source.rule_index
    for tau in np.linspace(0, 1, 9):
        expected = source.path(min(1.0, max(0.0, 3 * tau - 1)))
        assert config_distance(transferred.path(tau), expected) < EPS


@pytest.mark.parametrize(
    "f, h, geometry, check, fault",
    [
        # h(0, .) flips the point
        (lambda rows: rows, lambda t, rows: (-rows[0],), circle_planner().geometry, (1.0, 0.0),
         r"h\(0, \.\) is not the identity at \(1, 0\)"),
        # h is the identity at both ends, but g o f moves radius 2 to radius 1
        (lambda rows: (rows[0] / row_norms(rows[0])[:, None],), lambda t, rows: rows,
         convex_geometry(2), (2.0, 0.0), r"h\(1, \.\) differs from g\(f\(\.\)\) at \(2, 0\)"),
        # a NaN distance is no proof of closeness
        (lambda rows: rows, lambda t, rows: (np.full_like(rows[0], np.nan),),
         circle_planner().geometry, (0.0, 1.0), r"h\(0, \.\) is not the identity at \(0, 1\)"),
    ],
    ids=["h0-not-identity", "h1-not-g-f", "h-nan"],
)
def test_transfer_rejects_bad_homotopy(f, h, geometry, check, fault):
    with pytest.raises(HomotopyEndpointMismatch, match=fault):
        transfer_planner(
            circle_planner(), f, lambda rows: rows, h, geometry, check_points=(np.array([check]),)
        )


# -- plan / sample_path -------------------------------------------------------------

def test_plan_is_deterministic():
    planner = sphere_planner(2)
    rng = np.random.default_rng(9)
    a = random_point(planner.geometry, rng)
    b = random_point(planner.geometry, rng)
    first = plan(planner, a, b)
    second = plan(planner, a, b)
    assert first.rule_index == second.rule_index
    for t in np.linspace(0, 1, 7):
        assert first.path(t).flat.tobytes() == second.path(t).flat.tobytes()


def test_sample_path_endpoints_and_spacing():
    planner = circle_planner()
    eighth = math.pi / 4
    goal = make_point(planner.geometry, [math.cos(eighth), math.sin(eighth)])
    result = plan(planner, pt(planner, 1, 0), goal)
    two = sample_path(result.path, 2)
    assert [t for t, _ in two] == [0.0, 1.0]
    three = sample_path(result.path, 3)
    assert abs(angle_of(three[1][1]) - math.pi / 8) < EPS
    for _, point in sample_path(result.path, 9):
        assert abs(np.linalg.norm(point.parts[0]) - 1.0) < EPS


@pytest.mark.parametrize(
    "space, index, a, b",
    [
        ("circle", 1, (0.6, 0.8), (-0.6, -0.8)),  # shortest arc needs a != -b
        ("circle", 2, (0.6, 0.8), (0.6, 0.8)),  # positive arc needs a != b
        ("sphere:2", 1, (0.6, 0, 0.8), (-0.6, 0, -0.8)),  # antipodal pair
        ("sphere:2", 2, (0.6, 0.8, 0), (0, 0, 1)),  # b at the field zero e3
        ("sphere:2", 3, (1, 0, 0), (0, 0.6, 0.8)),  # a at the chart pole e1
    ],
    ids=["circle-rule1", "circle-rule2", "sphere2-rule1", "sphere2-rule2", "sphere2-rule3"],
)
def test_path_outside_domain_raises(space, index, a, b):
    planner = build_planner(space)
    decision = planner.decide(pt(planner, *a), pt(planner, *b))
    assert decision.weights[index - 1] == 0.0
    with pytest.raises(DomainMiss, match="does not cover"):
        planner.path(decision, index)


# -- kinematics ----------------------------------------------------------------------

def test_planar_kinematics():
    planner = arm_planner("planar", 2)
    config = pt(planner, 1, 0, 0, 1)  # angles 0 and pi/2
    joints = forward_kinematics(config, [1.0, 1.0])
    assert np.allclose(joints, [[0, 0], [1, 0], [1, 1]])


def test_spatial_kinematics():
    planner = arm_planner("spatial", 2)
    config = pt(planner, 1, 0, 0, 0, 0, 1)
    joints = forward_kinematics(config, [2.0, 1.0])
    assert np.allclose(joints, [[0, 0, 0], [2, 0, 0], [2, 0, 1]])


def test_kinematics_length_mismatch():
    planner = arm_planner("planar", 2)
    with pytest.raises(LengthMismatch):
        forward_kinematics(pt(planner, 1, 0, 1, 0), [1.0])


def test_reach_bounded_by_total_length_on_1000_samples():
    planner = arm_planner("planar", 3)
    rng = np.random.default_rng(23)
    lengths = [0.5, 1.0, 2.0]
    for _ in range(1000):
        config = random_point(planner.geometry, rng)
        joints = forward_kinematics(config, lengths)
        assert np.linalg.norm(joints[-1]) <= sum(lengths) + 1e-12


# -- wiring --------------------------------------------------------------------------

def test_build_planner_matches_catalog_counts():
    from tcplan.catalog import catalog_space

    for spec in ["circle", "sphere:2", "sphere:3", "torus:2", "torus:4", "convex:3",
                 "surface:0", "surface:1", "product(sphere:2,sphere:2)",
                 "product(circle,sphere:2)"]:
        planner = build_planner(spec)
        assert planner is not None
        assert len(planner.rules) == catalog_space(spec).rules


def test_build_planner_none_for_unplannable():
    assert build_planner("surface:2") is None
    assert build_planner("cpn:2") is None


def test_point_validation():
    planner = circle_planner()
    with pytest.raises(InvalidPoint):
        make_point(planner.geometry, [1.0, 1.0])
    ok = make_point(planner.geometry, [1.0 + 5e-7, 0.0], renormalize=True)
    assert abs(np.linalg.norm(ok.parts[0]) - 1.0) < 1e-12
