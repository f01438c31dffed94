import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcplan import planner_core, verifier
from tcplan.geometry import (
    ConfigPoint,
    InvalidPoint,
    ParityError,
    PathFn,
    config_distance,
    convex_geometry,
    even_vector_field,
    make_point,
    merge_pieces,
    odd_vector_field,
    random_point,
    row_norms,
    stack_points,
)
from tcplan.planner_core import (
    Decision,
    Decisions,
    DomainMiss,
    HomotopyEndpointMismatch,
    LengthMismatch,
    Planner,
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

from verifier_helpers import adversarial_pairs, max_threshold_sets, max_tie_cells

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
    """Normalized weights with a positive maximum, often tied or zero, and
    now and then with a second maximum one float below the first."""
    while True:
        if rng.random() < 0.75:
            raw = rng.choice([0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 0.5], size=size)
        else:
            raw = rng.random(size) * (rng.random(size) < 0.8)
        if raw.max() > 0.0:
            total = float(sum(raw.tolist()))
            weights = [w / total for w in raw.tolist()]
            if size > 1 and rng.random() < 0.2:
                top = int(np.argmax(weights))
                other = int(rng.choice([i for i in range(size) if i != top]))
                weights[other] = math.nextafter(weights[top], 0.0)
            return tuple(weights)


# Weights of a product(sphere:2,sphere:2) query whose left factor has its
# top two weights one float apart: the argmax cell ((0,), (2,)) has level
# 2, and its margin rounds to 0.
NEAR_TIE_F = (0.4619083838369422, 0.46190838383694216, 0.07618323232611578)
NEAR_TIE_G = (0.40723127714826884, 0.13611547588622874, 0.45665324696550247)

# Planners' shared decision rule, called on raw level weights directly.
DECIDER = Planner("tie cells", convex_geometry(1), ())


def _first_positive_level(levels):
    """The lowest level of positive weight."""
    return next(k for k, w in enumerate(levels) if w > 0.0)


def _decided_level(levels):
    """The level a product decides from its raw level weights."""
    return DECIDER._first_positive(None, None, levels[2:])[0] + 1


def _decided_row_levels(levels):
    """``_decided_level`` of each row of an (N, levels) array."""
    return (Planner._first_positive_rows(levels[:, 2:])[0] + 1).tolist()


def _ties(cells):
    """The ``ties`` of tie cells {level: (S, T)}: (min S + 1, min T + 1, |S|)."""
    return {level: (min(s) + 1, min(t) + 1, len(s)) for level, (s, t) in cells.items()}


def _check_tie_cells(f, g):
    """``_tie_cells`` and its cells as ``_tie_cell_sets`` decodes them, of
    one query, against the exhaustive reference; returns the reference
    levels and cells."""
    levels, ties = planner_core._tie_cells(f, g)
    cells = planner_core._tie_cell_sets(f, g, ties)
    ref_levels, ref_cells, _ = _exhaustive_tie_cells(f, g)
    assert [w.hex() for w in levels] == [w.hex() for w in ref_levels], (f, g)
    assert list(ties.items()) == list(_ties(ref_cells).items()), (f, g)
    assert list(cells.items()) == list(ref_cells.items()), (f, g)
    level = _first_positive_level(ref_levels)
    assert _decided_level(levels) == level, (f, g)
    assert level in cells, (f, g)
    return ref_levels, ref_cells


def _check_tie_cell_rows(cases):
    """``_tie_cell_rows``, the row form ``decide_many`` uses, on one block
    of the queries of ``cases``, each (f, g, reference levels, reference
    cells) with f and g of one shape: every row against its query's
    exhaustive reference."""
    row_levels, block = tie_block(*(np.array([case[k] for case in cases]) for k in (0, 1)))
    decided, levels, ties = _decided_row_levels(row_levels), row_levels.tolist(), block.ties.tolist()
    for row, (f, g, ref_levels, ref_cells) in enumerate(cases):
        assert [w.hex() for w in levels[row]] == [w.hex() for w in ref_levels], (f, g)
        assert ties[row] == _row_ties(ref_cells, len(f) + len(g) + 1), (f, g)
        assert decided[row] == _first_positive_level(ref_levels), (f, g)


def test_tie_cells_match_exhaustive_enumeration():
    ref_levels, ref_cells = _check_tie_cells(NEAR_TIE_F, NEAR_TIE_G)
    assert ref_levels[2] == 0.0 and _first_positive_level(ref_levels) == 3
    _check_tie_cell_rows([(NEAR_TIE_F, NEAR_TIE_G, ref_levels, ref_cells)])  # a one-row block
    rng = np.random.default_rng(2024)
    shapes = {}
    for _ in range(20_000):
        f = _random_weights(rng, int(rng.integers(1, 10)))
        g = _random_weights(rng, int(rng.integers(1, 6)))
        shapes.setdefault((len(f), len(g)), []).append((f, g, *_check_tie_cells(f, g)))
    for cases in shapes.values():  # the row form once per shape, over all its cases
        _check_tie_cell_rows(cases)


def _threshold_sets_by_max(values):
    """``planner_core._threshold_sets`` in its two-pass form, each set as
    its ascending indices: ``max`` for each threshold and for the value
    below it."""
    sets, theta = [], max(values)
    while theta is not None:
        below = max((v for v in values if v < theta), default=None)
        sets.append((tuple(i for i, v in enumerate(values) if v >= theta), theta, below))
        theta = below
    return sets


def test_threshold_sets_match_max_form():
    """The one-sort threshold sets equal the two-pass form on tie-heavy
    vectors, each theta and value below it down to the sign of a zero."""
    rng = random.Random(19)
    pool = [0.0, -0.0, 0.25, 0.5, 1.0]
    for _ in range(10_000):
        values = tuple(
            rng.choice(pool) if rng.random() < 0.8 else rng.random()
            for _ in range(rng.randint(1, 9))
        )
        sets = planner_core._threshold_sets(values)
        order = planner_core._descending(values)
        got = [(tuple(sorted(order[:size])), theta, below) for size, _, theta, below in sets]
        want = _threshold_sets_by_max(values)
        assert repr(got) == repr(want)
        assert [least for _, least, _, _ in sets] == [min(s) + 1 for s, _, _ in want]


# Entries of tie-heavy weight tuples: zeros of both signs, subnormals, the
# least normal, repeated fractions and NaN.
TIE_POOL = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.25, 0.5, 1.0, 1.0 / 3.0, math.nan]


def test_tie_cells_equal_the_max_form_on_tie_heavy_tuples():
    """``_tie_cells``, with fmax * out_g taken once per T and its ``max``
    calls written as comparisons, gives the levels (down to the sign of a
    zero), the ties in insertion order and the threshold sets of the form
    written with ``max``, on tuples of 1-12 tie-heavy entries."""
    rng = random.Random(29)
    entry = lambda: rng.choice(TIE_POOL) if rng.random() < 0.75 else rng.random()
    hexes = lambda values: [w.hex() for w in values]
    for _ in range(20_000):
        f = tuple(entry() for _ in range(rng.randint(1, 12)))
        g = tuple(entry() for _ in range(rng.randint(1, 12)))
        levels, ties = planner_core._tie_cells(f, g)
        want_levels, want_ties = max_tie_cells(f, g)
        assert hexes(levels) == hexes(want_levels), (f, g)
        assert list(ties.items()) == list(want_ties.items()), (f, g)
        assert repr(planner_core._threshold_sets(f)) == repr(max_threshold_sets(f)), f


def tie_block(f, g):
    """The raw level weights and a product node's ``Decisions`` over (N, n)
    and (N, m) factor weight arrays, combined as ``decide_many`` combines
    them (its factor blocks hold weights only)."""
    levels, ties = planner_core._tie_cell_rows(f, g)
    factor = lambda w: Decisions((), (), np.ones(len(w), dtype=np.int64), w)
    index, weights = Planner._first_positive_rows(levels[:, 2:])
    return levels, Decisions((), (), index, weights, (factor(f), factor(g)), ties)


def _row_ties(cells, width):
    """The ``ties`` row of ``Decisions`` for tie cells {level: (S, T)}:
    (min S + 1, min T + 1) at each level with a cell, else (0, 0)."""
    return [[min(cells[k][0]) + 1, min(cells[k][1]) + 1] if k in cells else [0, 0] for k in range(width)]


def test_cell_keys_tell_apart_cells_past_64_rules():
    """A factor of 70 rules: three rows whose cells differ only in index
    65, 66 or 69 decode to those exact cells, and the row form gives them
    those cells' factor rules at every level and the same decided level."""
    f = np.full((3, 70), 1.0 / 72.0)
    f[:, 0] = f[0, 65] = f[1, 66] = f[2, 69] = 2.0 / 72.0
    g = np.array([[0.75, 0.25]] * 3)
    levels, block = tie_block(f, g)
    ref = [planner_core._tie_cells(tuple(row), (0.75, 0.25)) for row in f.tolist()]
    cells = [
        planner_core._tie_cell_sets(tuple(row), (0.75, 0.25), ties)
        for row, (_, ties) in zip(f.tolist(), ref)
    ]
    assert [c[3] for c in cells] == [((0, 65), (0,)), ((0, 66), (0,)), ((0, 69), (0,))]
    assert block.ties.tolist() == [_row_ties(c, 73) for c in cells]
    assert _decided_row_levels(levels) == [_first_positive_level(lv) for lv, _ in ref] == [3] * 3


def test_tie_cells_polynomial_on_long_vectors():
    """40 + 40 distinct weights: 2^78 supersets, a few hundred upward-closed ones."""
    rng = np.random.default_rng(40)
    f, g = (tuple(rng.permutation(np.arange(1, 41) / 820.0).tolist()) for _ in range(2))
    levels, ties = planner_core._tie_cells(f, g)
    cells = planner_core._tie_cell_sets(f, g, ties)
    assert ties == _ties(cells)
    assert _decided_level(levels) == _first_positive_level(levels) == 2
    assert cells[2] == ((f.index(max(f)),), (g.index(max(g)),))
    assert sum(levels) > 0.0
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


def pair_paths(geometry, left, right):
    """Two bundles of N paths run in parallel on a product geometry, path
    n of each side together: a product node's bundle as it was built node
    by node, the oracle of the flat ``ProductPlanner.bundle``."""
    pieces = merge_pieces((left.pieces, right.pieces))
    return PathFn(geometry, lambda ts: left.sample(ts) + right.sample(ts), pieces, "pair")


def _reference_weights(planner, a, b):
    if isinstance(planner, ProductPlanner):
        raw = tuple(_reference_cells(planner, a, b)[2][2:])
    else:
        raw = tuple(rule.weight(a.parts, b.parts) for rule in planner.rules)
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
        "torus:8",
        "product(sphere:2,sphere:2,sphere:2)",
        "product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)",
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
    """Row ``row`` of a ``Decisions`` block as a ``Decision``, its factor
    decisions from their blocks and its ties from the scalar
    ``_tie_cells`` of its factor weights, or None where the row is
    uncovered; the block's ties must be the factor rules of those cells."""
    if decisions.index[row] == 0:
        return None
    a, b = (tuple(x[row] for x in blocks) for blocks in (decisions.a, decisions.b))
    index, weights = int(decisions.index[row]), tuple(decisions.weights[row].tolist())
    if isinstance(planner, ProductPlanner):
        left, right = decisions.factors
        factors = (row_decision(planner.left, left, row), row_decision(planner.right, right, row))
        ties = planner_core._tie_cells(factors[0].weights, factors[1].weights)[1]
        decision = Decision(a, b, index, weights, factors, ties)
        assert decisions.ties[row].tolist() == _row_ties(decision.cells, decisions.ties.shape[1])
        return decision
    if isinstance(planner, TransferPlanner):
        source = row_decision(planner.source, decisions.factors[0], row)
        return Decision(a, b, index, weights, (source,))
    return Decision(a, b, index, weights)


def _assert_same_decision(got, want):
    assert np.concatenate(got.a).tobytes() == np.concatenate(want.a).tobytes()
    assert np.concatenate(got.b).tobytes() == np.concatenate(want.b).tobytes()
    assert (got.index, got.cell) == (want.index, want.cell)
    assert [w.hex() for w in got.weights] == [w.hex() for w in want.weights]
    assert (got.cells or {}) == (want.cells or {})
    assert (got.ties or {}) == (want.ties or {})
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
        "sphere:4", "product(circle,sphere:3,sphere:2,convex:2)",
        # the deepest trees plan-products times
        "torus:8", "product(sphere:2,sphere:2,sphere:2,sphere:2)",
        "product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)",
    ]},
    "punctured-plane": punctured_plane_planner,
    "gap": _shortest_arc_only,
    "product(gap,circle)": lambda: product_planner(_shortest_arc_only(), circle_planner()),
}


# (start, goal) coordinates of queries whose left factor has its top two
# weights one float apart and whose argmax tie cell's margin rounds to 0:
# the ``tcplan plan`` replay of test_cli, then three found by random search.
NEAR_TIE_QUERIES = {
    "product(sphere:2,sphere:2)": [
        (
            [-0.003473771544450412, -0.6326747964650465, 0.7744097977357782,
             -0.8984244256428054, -0.16002731640923568, 0.408931301579194],
            [0.9700579107124438, 0.2281599743512405, 0.08325068148820043,
             -0.8769798336371238, -0.34437803708436854, -0.3351270489944372],
        ),
        (
            [-0.5970282195741988, -0.7782126466512592, -0.19478804281604303,
             -0.24106819782639366, -0.347306137195445, -0.9062364873823574],
            [0.7977309645557336, -0.601571985731748, -0.04167078319086794,
             -0.32488195376728574, 0.8705316658781843, 0.36962999718597583],
        ),
        (
            [0.6469022703533384, 0.7350775566302071, 0.20292471103899776,
             -0.9460009020560223, 0.3136765935311036, 0.08178806746656135],
            [0.3770691890626945, -0.07704280561229909, -0.9229752070142444,
             -0.4448358179960248, -0.21564529702597132, 0.8692630217019404],
        ),
        (
            [-0.6784471618815797, 0.687443390429296, -0.2590965717447914,
             -0.269583632169087, 0.3401533905869935, 0.9008997370066743],
            [0.5300775970447941, 0.21388349993872757, -0.8205312849399327,
             0.44863192441431726, -0.8370745276863313, 0.31310642199579974],
        ),
    ],
}


@pytest.mark.parametrize("name", DECIDE_MANY_PLANNERS)
def test_decide_many_matches_decide(name):
    planner = DECIDE_MANY_PLANNERS[name]()
    rng = np.random.default_rng(12)
    sampler = one_point_sampler(planner)
    pairs = adversarial_pairs(planner, rng) + [(sampler(rng), sampler(rng)) for _ in range(300)]
    pairs += [
        (make_point(planner.geometry, a), make_point(planner.geometry, b))
        for a, b in NEAR_TIE_QUERIES.get(name, [])
    ]
    starts, goals = stack_points([a for a, _ in pairs]), stack_points([b for _, b in pairs])
    want = [_decide_or_none(planner, a, b) for a, b in pairs]
    block = planner.decide_many(starts, goals)
    got = [row_decision(planner, block, row) for row in range(len(pairs))]
    assert [d is None for d in got] == [d is None for d in want]
    for g, w in zip(got, want):
        if w is not None:
            _assert_same_decision(g, w)
    # a covered row's rule has positive weight and, on a product, a tie cell
    for row in np.flatnonzero(block.index):
        index = block.index[row]
        assert block.weights[row, index - 1] > 0.0
        if block.ties is not None:
            assert block.ties[row, index + 1].all()
    empty = tuple(x[:0] for x in starts)
    assert planner.decide_many(empty, empty).index.shape == (0,)
    if name.startswith(("torus", "product(sphere")):
        # the adversarial ties reach tie cells beyond the lowest level
        assert any(d.index > 1 for d in got)
        assert any(len(d.cell[0]) > 1 or len(d.cell[1]) > 1 for d in got)
    if "gap" in name:
        assert any(d is None for d in got) and any(d is not None for d in got)


@pytest.mark.parametrize(
    "spec, leaves",
    [
        ("torus:10", 1),
        ("product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)", 1),
        ("product(circle,sphere:3,sphere:2,convex:2)", 4),
    ],
)
def test_product_decides_each_shared_leaf_planner_once(monkeypatch, spec, leaves):
    """Each top-level product ``decide_many`` of a verify run, queries and
    twins, makes one leaf ``decide_many`` call per distinct leaf planner,
    over the rows of every leaf that shares it, and calls no nested
    product's ``decide_many``."""
    planner = build_planner(spec)
    calls = []

    def counted(cls):
        decide_many = cls.decide_many

        def wrapper(self, a, b):
            calls.append((cls, self, len(a[0])))
            return decide_many(self, a, b)

        return wrapper

    for cls in (Planner, ProductPlanner):
        monkeypatch.setattr(cls, "decide_many", counted(cls))
    verifier.verify_planner(planner, verifier.VerifyConfig(seed=42, pairs=600))
    tops = [k for k, (cls, _, _) in enumerate(calls) if cls is ProductPlanner]
    assert len(tops) > 4 and all(calls[k][1] is planner for k in tops)
    shares = {id(unit): len(spans) for unit, spans in planner.unit_spans}
    for start, stop in zip(tops, tops[1:] + [len(calls)]):
        rows = calls[start][2]
        leaf_calls = calls[start + 1 : stop]
        assert len(leaf_calls) == len({id(unit) for _, unit, _ in leaf_calls}) == leaves
        assert [count for _, unit, count in leaf_calls] == [
            shares[id(unit)] * rows for _, unit, _ in leaf_calls
        ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_plan_analyzes_each_product_node_once(monkeypatch, n):
    planner = build_planner(f"torus:{n}")
    rng = np.random.default_rng(n)
    a = random_point(planner.geometry, rng)
    b = random_point(planner.geometry, rng)
    calls, decoded = [], []
    tie_cells, tie_cell_sets = planner_core._tie_cells, planner_core._tie_cell_sets
    monkeypatch.setattr(planner_core, "_tie_cells", lambda f, g: calls.append(1) or tie_cells(f, g))
    monkeypatch.setattr(
        planner_core, "_tie_cell_sets", lambda *args: decoded.append(1) or tie_cell_sets(*args)
    )
    sample_path(plan(planner, a, b).path, 17)
    assert len(calls) == n - 1
    assert decoded == []  # no cell is decoded unless it is read


@pytest.mark.parametrize(
    "spec",
    [
        "torus:8",
        "product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)",
        "product(circle,sphere:3,sphere:2,convex:2)",
        "punctured-plane",
    ],
)
def test_decide_builds_no_points(monkeypatch, spec):
    """``decide`` unwraps the query's points once: no node below the top,
    product or transfer, builds a ConfigPoint, on random queries and on
    queries with equal or antipodal factors."""
    planner = punctured_plane_planner() if spec == "punctured-plane" else build_planner(spec)
    rng = np.random.default_rng(8)
    sampler = one_point_sampler(planner)
    pairs = [(sampler(rng), sampler(rng)) for _ in range(20)]
    pairs += [(a, make_point(planner.geometry, [-x for x in a.parts])) for a, _ in pairs[:5]]
    pairs += [(a, a) for a, _ in pairs[:5]]
    built = []
    init = ConfigPoint.__init__
    monkeypatch.setattr(
        ConfigPoint, "__init__", lambda self, *args: built.append(1) or init(self, *args)
    )
    for a, b in pairs:
        planner.decide(a, b)
    assert built == []


def test_nested_coverage_gap_names_the_factor_and_its_points():
    """A gap in a factor planner raises CoverageGap naming the factor's own
    space and its halves of the query."""
    planner = product_planner(_shortest_arc_only(), circle_planner())
    a, b = pt(planner, 1, 0, 0, 1), pt(planner, -1, 0, 0.6, 0.8)
    for call in (planner.decide, lambda a, b: plan(planner, a, b)):
        with pytest.raises(planner_core.CoverageGap) as raised:
            call(a, b)
        assert str(raised.value) == "circle: no rule applies at ((1, 0), (-1, 0))"


def _nested_bundle(self, a, b, leaves):
    """``ProductPlanner.bundle`` node by node: each factor's bundle on its
    rows and leaf rules, the two paired."""
    k, split = self.split, self.left.leaf_count
    return pair_paths(
        self.geometry,
        self.left.bundle(a[:k], b[:k], leaves[:split]),
        self.right.bundle(a[k:], b[k:], leaves[split:]),
    )


def _identity_transfer(planner):
    same = lambda rows: rows
    return transfer_planner(planner, same, same, lambda t, rows: rows, planner.geometry, "identity")


BUNDLE_PLANNERS = {
    **{
        name: make
        for name, make in DECIDE_MANY_PLANNERS.items()
        if name.startswith(("torus", "product"))
    },
    "product(torus:2,product(sphere:2,circle))": lambda: build_planner(
        "product(torus:2,product(sphere:2,circle))"
    ),
    "product(punctured-plane,torus:2)": lambda: product_planner(
        punctured_plane_planner(), build_planner("torus:2")
    ),
    "identity(torus:2)": lambda: _identity_transfer(build_planner("torus:2")),
}


@pytest.mark.parametrize("name", BUNDLE_PLANNERS)
def test_product_bundle_matches_nested_pairs(monkeypatch, name):
    """The flat product bundle of every leaf-rule group, over 1, 5 and 40
    of its queries, has the pieces and, bit for bit, the rows of the
    bundle paired node by node."""
    planner = BUNDLE_PLANNERS[name]()
    decisions = planner.decide_many(*verifier._query_rows(planner, np.random.default_rng(23), 200))
    rows = np.flatnonzero(decisions.index)
    keys = planner.leaf_keys(decisions, rows, decisions.index[rows])
    groups = {}
    for row, leaves in zip(rows, keys.tolist()):
        groups.setdefault(tuple(leaves), []).append(row)
    ts = np.concatenate((np.linspace(0.0, 1.0, 17), [1.0 / 3.0, 2.0 / 3.0]))

    def sampled(bundle):
        samples = bundle.sample(ts)
        return bundle.pieces, [r.shape for r in samples], [r.tobytes() for r in samples]

    for leaves, members in groups.items():
        for count in (1, 5, 40):
            picked = np.array(members)[np.arange(count) % len(members)]
            a, b = (tuple(x[picked] for x in side) for side in (decisions.a, decisions.b))
            flat = sampled(planner.bundle(a, b, leaves))
            with monkeypatch.context() as patched:
                patched.setattr(ProductPlanner, "bundle", _nested_bundle)
                assert flat == sampled(planner.bundle(a, b, leaves)), (leaves, count)
    assert len(groups) > 1


@pytest.mark.parametrize(
    "spec, most",
    [("torus:8", 2), ("product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)", 3)],
)
def test_plan_builds_one_bundle_per_leaf_rule(monkeypatch, spec, most):
    """``build_planner`` shares equal leaves, so a product section takes
    one leaf bundle per distinct leaf rule, not one per leaf."""
    assert len({id(unit) for unit, _, _ in build_planner("torus:3").leaf_units}) == 1
    planner = build_planner(spec)
    (leaf,) = {id(unit) for unit, _, _ in planner.leaf_units}
    built, counts = [], []
    bundle = Planner.bundle
    monkeypatch.setattr(
        Planner, "bundle", lambda self, *args: built.append(id(self)) or bundle(self, *args)
    )
    starts, goals = verifier._query_rows(planner, np.random.default_rng(31), 100)
    for row in range(len(starts[0])):
        a, b = (
            ConfigPoint(planner.geometry, tuple(x[row] for x in side)) for side in (starts, goals)
        )
        built.clear()
        sample_path(plan(planner, a, b).path, 17)
        assert set(built) == {leaf}
        counts.append(len(built))
    assert max(counts) == most


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


def test_sample_grid_is_shared_read_only_and_bounded():
    """``sample_path`` reads its times from a bounded cache of one tuple and
    one read-only array per n; ``sample_times`` hands out a fresh list."""
    grid_of = planner_core._sample_grid
    bound = grid_of.cache_parameters()["maxsize"]
    grid_of.cache_clear()
    for n in range(2, 3 * bound):
        times, grid = grid_of(n)
        assert grid_of(n)[1] is grid
        assert list(times) == grid.tolist() == [i / (n - 1) for i in range(n)]
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 1.0
        assert grid_of.cache_info().currsize <= bound
    assert grid_of.cache_info().currsize == bound
    mine = planner_core.sample_times(5)
    mine[0] = 9.0
    assert planner_core.sample_times(5) == [0.0, 0.25, 0.5, 0.75, 1.0]
    for n in (1, planner_core.MAX_SAMPLES + 1):
        with pytest.raises(ValueError):
            planner_core.sample_times(n)


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
    for renormalize in (False, True):
        with pytest.raises(InvalidPoint):
            make_point(planner.geometry, [math.nan, 0.0], renormalize=renormalize)
    ok = make_point(planner.geometry, [1.0 + 5e-7, 0.0], renormalize=True)
    assert abs(np.linalg.norm(ok.parts[0]) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "spec,coords",
    [
        ("convex:2", [math.nan, 0.0]),
        ("convex:2", [math.inf, 0.0]),
        ("convex:2", [0.0, -math.inf]),
        ("circle", [math.inf, 0.0]),
        ("product(circle,convex:2)", [1.0, 0.0, 0.0, math.nan]),
        ("product(convex:1,sphere:2)", [math.inf, 0.0, 0.0, 1.0]),
    ],
)
def test_point_validation_rejects_non_finite_coordinates(spec, coords):
    geometry = build_planner(spec).geometry
    parts = np.split(np.asarray(coords), np.cumsum([f.ambient for f in geometry.factors])[:-1])
    for given in (coords, parts):
        for renormalize in (False, True):
            with pytest.raises(InvalidPoint, match="finite"):
                make_point(geometry, given, renormalize=renormalize)
