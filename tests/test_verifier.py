import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tcplan import verifier
from tcplan.catalog import catalog_space
from tcplan.geometry import ConfigPoint, make_point
from tcplan.planner_core import (
    arm_planner,
    build_planner,
    circle_planner,
    punctured_plane_planner,
    sphere_planner,
    straight_line_planner,
)
from tcplan.verifier import (
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

FAST = VerifyConfig(pairs=400)


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(pairs=0)
    with pytest.raises(ValueError):
        VerifyConfig(margin_eta=1.0)
    with pytest.raises(ValueError):
        VerifyConfig(delta=0.0)
    with pytest.raises(ValueError):
        VerifyConfig(pairs=100_001)
    assert VerifyConfig(pairs=100_000).pairs == 100_000


def test_circle_passes_and_uses_second_rule():
    report = verify_planner(circle_planner(), FAST)
    assert report.passed
    assert report.rule_usage[2] > 0  # adversarial antipodal pairs reach rule 2
    assert report.max_endpoint_error <= FAST.tolerance
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
