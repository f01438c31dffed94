import gc
import itertools
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from tcplan import catalog
from tcplan.catalog import (
    BadSpec,
    UnsupportedParameter,
    catalog_space,
    cpn_algebra,
    parse_spec,
    point_algebra,
    sphere_algebra,
    surface_algebra,
    tc_bounds,
)
from tcplan.graded_algebra import GradedAlgebra, TensorProductAlgebra, tensor_product, zdcl

from catalog_helpers import candidate_tc_bounds, open_cpn


# -- parser -----------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expect",
    [
        ("circle", "circle"),
        ("sphere:3", "sphere:3"),
        (" torus : 4 ", "torus:4"),
        ("product( sphere:2 , sphere:2 )", "product(sphere:2,sphere:2)"),
        ("product(circle,product(circle,circle))", "product(circle,product(circle,circle))"),
        ("convex:7", "convex:7"),
        ("surface:0", "surface:0"),
    ],
)
def test_parse_roundtrip(text, expect):
    assert str(parse_spec(text)) == expect


@pytest.mark.parametrize("bad", ["sphere", "sphere:", "blob:2", "product(circle)", "circle extra", "product(circle,)"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(BadSpec) as err:
        parse_spec(bad)
    assert "position" in str(err.value)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("sphere", "expected ':' (at position 6)"),
        ("sphere:-", "expected an integer (at position 7)"),
        ("blob:2", "unknown space name 'blob' (at position 0)"),
        ("product(circle)", "product needs at least two factors (at position 0)"),
        ("  ", "expected a space name (at position 2)"),
        ("product(circle sphere:2)", "expected ')' (at position 15)"),
        ("product)", "expected '(' (at position 7)"),
        ("convex : 2 ,", "trailing input (at position 11)"),
        # parameters are ASCII digits: other characters that str.isdigit()
        # accepts are neither passed to int() nor printed back in ASCII
        ("sphere:\u00b2", "expected an integer (at position 7)"),  # superscript two
        ("torus:\u2460", "expected an integer (at position 6)"),  # circled digit one
        ("sphere:\u0663", "expected an integer (at position 7)"),  # Arabic-Indic three
        ("sphere:\uff13", "expected an integer (at position 7)"),  # fullwidth three
    ],
)
def test_parse_error_messages(bad, message):
    with pytest.raises(BadSpec) as err:
        parse_spec(bad)
    assert str(err.value) == message
    assert err.value.position == int(message.rsplit(" ", 1)[1][:-1])


def test_parse_leaves_no_reference_cycle():
    """A parse frees everything it builds by reference counting alone, so
    a bounds request leaves nothing for the cycle collector."""
    specs = ["product(product(circle, sphere:2), torus:3)", "product(circle,product(cpn:2,convex:1))"]
    gc.collect()
    gc.disable()
    try:
        for k in range(100):
            parse_spec(specs[k % 2])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_out_of_range_parameters():
    with pytest.raises(UnsupportedParameter):
        parse_spec("sphere:0")
    with pytest.raises(UnsupportedParameter):
        parse_spec("convex:0")
    parse_spec("surface:0")  # genus 0 is fine
    # a leaf may have at most 32 cohomology classes: 2g + 2 and n + 1
    parse_spec("surface:15")
    parse_spec("cpn:31")
    for text in ("surface:16", "cpn:32", "product(circle,cpn:40)"):
        with pytest.raises(UnsupportedParameter):
            parse_spec(text)


# -- descriptors -------------------------------------------------------------

@pytest.mark.parametrize(
    "spec,dim,tc",
    [
        ("circle", 1, 2),
        ("sphere:2", 2, 3),
        ("sphere:3", 3, 2),
        ("torus:3", 3, 4),
        ("surface:0", 2, 3),
        ("surface:1", 2, 3),
        ("surface:2", 2, 5),
        ("convex:4", 4, 1),
        ("product(sphere:2,sphere:2)", 4, 5),
        ("product(sphere:3,sphere:3)", 6, 3),
        ("product(circle,circle,circle)", 3, 4),
    ],
)
def test_catalog_dimensions_and_known_values(spec, dim, tc):
    d = catalog_space(spec)
    assert d.geometry_dim == dim
    assert d.known_tc == tc


def test_cpn_has_an_exact_value():
    # cat(CP^n) = n + 1 and TC(CP^n) = 2n + 1 (Farber-Tabachnikov-Yuzvinsky)
    d = catalog_space("cpn:2")
    assert d.geometry_dim == 4
    assert (d.cat, d.known_tc, d.rules) == (3, 5, None)
    assert catalog_space("product(cpn:2,cpn:3)").known_tc == 11


def test_mixed_product_has_exact_value():
    # 1 + #odd + 2 * #even: the cup-length bound meets the product inequality
    assert catalog_space("product(circle,sphere:2)").known_tc == 4
    assert catalog_space("product(circle,sphere:2,convex:1)").known_tc == 4
    assert catalog_space("product(sphere:3,sphere:2,sphere:4)").known_tc == 6


@pytest.mark.parametrize(
    "spec, tc",
    [
        ("product(circle,convex:2)", 2),
        ("product(sphere:2,convex:1)", 3),
        ("product(torus:2,convex:3)", 3),
    ],
)
def test_contractible_factors_do_not_change_known_tc(spec, tc):
    """TC is a homotopy invariant: X x (convex piece) has TC(X)."""
    d = catalog_space(spec)
    assert d.known_tc == tc
    report = tc_bounds(d)
    assert (report.lower, report.upper, report.exact) == (tc, tc, True)
    assert d.rules == tc


def test_closed_manifold_top_degree_matches_dimension():
    for spec in ["circle", "sphere:4", "torus:3", "surface:2", "cpn:3",
                 "product(sphere:2,sphere:2)"]:
        d = catalog_space(spec)
        assert d.algebra.top_degree == d.geometry_dim


def test_catalog_algebras_satisfy_all_ring_laws():
    """Unit, grading, sign rule and associativity hold on every basis
    pair/triple of each (desk-scale) catalog algebra."""
    for spec in ["circle", "sphere:4", "cpn:2", "surface:2", "torus:3",
                 "product(circle,sphere:2)", "convex:2"]:
        catalog_space(spec).algebra.validate()


def test_category_bracket_consistent_with_known_tc():
    for spec in ["circle", "sphere:2", "sphere:5", "torus:4", "surface:2", "convex:2"]:
        d = catalog_space(spec)
        if d.cat is not None and d.known_tc is not None:
            assert d.cat <= d.known_tc <= 2 * d.cat - 1


# -- kunneth -----------------------------------------------------------------

def test_kunneth_of_circles_is_torus_algebra():
    t2 = tensor_product(sphere_algebra(1), sphere_algebra(1))
    t2.validate()
    a1, a2 = (t2.basis_element(g) for g in t2.generators)
    assert a1 * a2 == (a2 * a1).scale(-1)
    assert not (a1 * a2).is_zero


def test_kunneth_with_point_is_isomorphic():
    s2 = sphere_algebra(2)
    product = tensor_product(s2, point_algebra())
    assert product.dim == s2.dim
    assert sorted(product.degree.values()) == sorted(s2.degree.values())
    # structure constants transported through the pairing with the unit
    u = product.basis_element(product.pair_label("u", "1"))
    assert (u * u).is_zero


def test_iterated_kunneth_sphere_cube():
    s2 = sphere_algebra(2)
    cube = tensor_product(tensor_product(s2, s2), s2)
    assert cube.dim == 8
    assert cube.top_degree == 6


# -- bounds -------------------------------------------------------------------

def test_bounds_sphere2_with_planner_count():
    report = tc_bounds(catalog_space("sphere:2"))
    assert (report.lower, report.upper, report.exact) == (3, 3, True)
    assert report.lower_provenance == "cup-length lower bound"
    assert report.upper_provenance == "planner rule count"


def test_bounds_torus6_product_inequality():
    # The 7-rule planner and the product inequality tie; the planner is named.
    report = tc_bounds(catalog_space("torus:6"))
    assert (report.lower, report.upper, report.exact) == (7, 7, True)
    assert report.upper_provenance == "planner rule count"


def test_bounds_planless_product_inequality():
    report = tc_bounds(catalog_space("product(surface:2,circle)"))
    assert (report.lower, report.upper, report.exact) == (6, 6, True)
    assert report.upper_provenance == "product inequality"


def test_bounds_cpn2_exact_via_category():
    report = tc_bounds(catalog_space("cpn:2"))
    assert (report.lower, report.upper, report.exact) == (5, 5, True)
    assert report.upper_provenance == "category bound"


def test_bounds_surface2_exact_via_dimension():
    report = tc_bounds(catalog_space("surface:2"))
    assert (report.lower, report.upper, report.exact) == (5, 5, True)
    assert report.upper_provenance == "dimension bound"


def test_bounds_convex():
    report = tc_bounds(catalog_space("convex:5"))
    assert (report.lower, report.upper) == (1, 1)
    assert report.lower_provenance == "contractible"


def test_lower_is_one_only_for_contractible():
    for spec in ["circle", "sphere:2", "torus:2", "surface:3", "cpn:1"]:
        assert tc_bounds(catalog_space(spec)).lower >= 2
    assert tc_bounds(catalog_space("convex:1")).lower == 1
    assert tc_bounds(catalog_space("product(convex:1,convex:2)")).lower == 1


def test_known_tc_inside_bounds_for_whole_catalog():
    specs = ["circle", "sphere:2", "sphere:3", "sphere:4", "torus:2", "torus:4",
             "surface:0", "surface:1", "surface:2", "convex:3", "cpn:1", "cpn:4",
             "product(sphere:2,sphere:2)", "product(sphere:3,sphere:3)",
             "product(cpn:2,sphere:2)"]
    for spec in specs:
        d = catalog_space(spec)
        report = tc_bounds(d)
        assert report.lower <= report.upper
        if d.known_tc is not None:
            assert report.lower <= d.known_tc <= report.upper
        if d.rules is not None and d.known_tc is not None:
            assert d.rules == d.known_tc


def test_product_upper_monotone():
    pairs = [("circle", "sphere:2"), ("torus:2", "circle"), ("sphere:2", "sphere:3")]
    for left, right in pairs:
        combined = tc_bounds(catalog_space(f"product({left},{right})"))
        a = tc_bounds(catalog_space(left))
        b = tc_bounds(catalog_space(right))
        assert combined.upper <= a.upper + b.upper - 1


def test_reports_deterministic():
    d = catalog_space("torus:3")
    assert tc_bounds(d) == tc_bounds(d)


def test_rule_count_formulae():
    assert catalog_space("circle").rules == 2
    assert catalog_space("sphere:5").rules == 2
    assert catalog_space("sphere:6").rules == 3
    assert catalog_space("torus:4").rules == 5
    assert catalog_space("product(sphere:2,sphere:2,sphere:2)").rules == 7
    assert catalog_space("surface:2").rules is None
    assert catalog_space("cpn:3").rules is None


# -- factor-wise cup-length and shared presets -------------------------------

LEAVES = (
    ["circle"]
    + [f"sphere:{n}" for n in range(1, 7)]
    + [f"torus:{n}" for n in range(2, 7)]
    + [f"surface:{g}" for g in range(8)]
    + [f"cpn:{n}" for n in range(1, 6)]
    + [f"convex:{n}" for n in range(1, 4)]
)


def small_specs(max_rank=8):
    """Every leaf and every ordered pair of leaves of total Betti rank <= max_rank."""
    rank = {leaf: catalog_space(leaf).algebra.dim for leaf in LEAVES}
    small = [leaf for leaf in LEAVES if rank[leaf] <= max_rank]
    pairs = [
        f"product({a},{b})"
        for a, b in itertools.product(small, repeat=2)
        if rank[a] * rank[b] <= max_rank
    ]
    return small + pairs


def test_factor_sum_shortcut_matches_full_search():
    # The report is a function of the upper candidates and the cup-length, so
    # equal cup-lengths give the report of the full product search.
    specs = small_specs()
    assert len(specs) > 200
    for spec in specs:
        descriptor = catalog_space(spec)
        _, fast_length = catalog._tc_bounds(descriptor)
        assert fast_length == zdcl(descriptor.algebra).length, spec


def _tie_leaves():
    """Leaves with zcl 0, 1 and 2, each contractible or not, with every
    category in None, 1, 2, 3, rule count in None, 3, 5 and dimension bound
    in 3, 5: the lower candidates 1, zcl + 1, cat and 2 and the upper
    candidates rules, 2 * dim + 1 and 2 * cat - 1 meet in every pair and all
    at once."""
    return [
        replace(catalog_space(spec), contractible=contractible, cat=cat, rules=rules,
                geometry_dim=dim)
        for spec, contractible, cat, rules, dim in itertools.product(
            ("convex:1", "circle", "sphere:2"), (True, False), (None, 1, 2, 3),
            (None, 3, 5), (1, 2),
        )
    ]


def _tie_products():
    """Products as ``open_cpn`` builds them.  Over circle x circle (product
    inequality 3), circle x sphere:2 (4) and convex:1 x circle (2), the
    node's rule count is None, 3 or 4, its dimension bound 3 or 5 and its
    category bound None, 3 or 5, so every pair of the four upper candidates
    ties, and all four at once at 3; a category of 3 also meets the
    cup-length bound of circle x circle.  Then products of tie leaves,
    whose factor brackets carry their ties upwards."""
    nodes = []
    for a, b in (("circle", "circle"), ("circle", "sphere:2"), ("convex:1", "circle")):
        form = parse_spec(f"product({a},{b})")
        base = catalog._product(form, [catalog_space(a), catalog_space(b)])
        for rules, cat, dim in itertools.product((None, 3, 4), (None, 2, 3), (1, 2)):
            nodes.append(replace(base, rules=rules, cat=cat, geometry_dim=dim))
    leaves = _tie_leaves()[::11]
    for a, b in itertools.product(leaves, repeat=2):
        nodes.append(catalog._product(parse_spec(f"product({a.form},{b.form})"), [a, b]))
    return nodes


def test_one_report_recursion_keeps_the_candidate_order():
    """``_tc_bounds`` picks the winners of the candidate lists, first of
    equals, on every small spec and on hand-built descriptors whose
    candidates tie in every combination."""
    descriptors = [catalog_space(spec) for spec in small_specs()]
    descriptors += _tie_leaves() + _tie_products()
    provenances = set()
    for descriptor in descriptors:
        expected = candidate_tc_bounds(descriptor)
        assert catalog._tc_bounds(descriptor) == expected, descriptor
        provenances.add((expected[0].lower_provenance, expected[0].upper_provenance))
    lowers, uppers = map(set, zip(*provenances))
    assert lowers == {"contractible", "cup-length lower bound", "category lower bound",
                      "non-contractible"}
    assert uppers == {"planner rule count", "product inequality", "dimension bound",
                      "category bound"}


def test_presets_built_and_validated_once(monkeypatch):
    for preset in (point_algebra, sphere_algebra, cpn_algebra, surface_algebra):
        preset.cache_clear()
    validated = []
    validate = GradedAlgebra.validate

    def counting_validate(self):
        validated.append(self.name)
        return validate(self)

    monkeypatch.setattr(GradedAlgebra, "validate", counting_validate)
    specs = ["convex:2", "convex:3", "circle", "sphere:1", "sphere:4", "surface:0",
             "surface:1", "surface:3", "cpn:2", "torus:3"]
    first = [catalog_space(spec).algebra for spec in specs]
    for spec in ["product(sphere:4,cpn:2)", "product(torus:3,convex:2)", "surface:3"]:
        tc_bounds(catalog_space(spec))
    second = [catalog_space(spec).algebra for spec in specs]
    # product algebras (surface:1, torus:3) are built per descriptor, not shared
    leaves = [i for i, spec in enumerate(specs) if spec not in ("surface:1", "torus:3")]
    assert all(first[i] is second[i] for i in leaves)
    assert sorted(validated) == sorted(
        ["H(point)", "H(S^1)", "H(S^2)", "H(S^4)", "H(Sigma_3)", "H(CP^2)"]
    )


def test_contractible_factor_adds_no_generators(monkeypatch):
    searched = []
    zdcl = catalog.zdcl

    def recording_zdcl(algebra, *args, **kwargs):
        searched.append((algebra, algebra.generators))
        return zdcl(algebra, *args, **kwargs)

    monkeypatch.setattr(catalog, "zdcl", recording_zdcl)
    descriptor = catalog_space("product(torus:2,convex:1)")
    assert len(descriptor.algebra.generators) == 2

    torus = catalog_space("torus:2")
    assert catalog.zdcl(descriptor.algebra).length == catalog.zdcl(torus.algebra).length == 2
    algebra, generators = searched[0]
    assert algebra is descriptor.algebra
    assert len(generators) == 2

    searched.clear()
    report = tc_bounds(descriptor)
    assert all(algebra is not descriptor.algebra for algebra, _ in searched)
    torus_report = tc_bounds(torus)
    assert (report.lower, report.upper) == (torus_report.lower, torus_report.upper)


# -- searched cup-lengths -----------------------------------------------------

@pytest.fixture
def searched(monkeypatch):
    """The algebras that ``tc_bounds`` hands to the cup-length search."""
    algebras = []
    zdcl = catalog.zdcl

    def recording_zdcl(algebra, *args, **kwargs):
        algebras.append(algebra)
        return zdcl(algebra, *args, **kwargs)

    monkeypatch.setattr(catalog, "zdcl", recording_zdcl)
    return algebras


def leaf_algebras(descriptor):
    if not descriptor.factors:
        return [descriptor.algebra]
    return [a for factor in descriptor.factors for a in leaf_algebras(factor)]


def test_grammar_specs_search_only_leaf_presets_once(searched):
    """Every catalog bracket closes at zcl + 1, so no product algebra is
    searched, and each leaf preset is searched at most once per process.  A
    leaf added with an open bracket fails this test: its products would be
    searched on every request."""
    for preset in (point_algebra, sphere_algebra, cpn_algebra, surface_algebra):
        preset.cache_clear()
    golden = Path(__file__).parent / "golden" / "bounds_grammar.jsonl"
    specs = [json.loads(line)["space"] for line in golden.read_text().splitlines()]
    assert len(specs) == 574
    leaves = {}
    for spec in specs:
        descriptor = catalog_space(spec)
        tc_bounds(descriptor)
        leaves.update((id(a), a) for a in leaf_algebras(descriptor))
    assert searched
    assert all(not isinstance(a, TensorProductAlgebra) for a in searched)
    assert all(leaves.get(id(a)) is a for a in searched)
    assert len({id(a) for a in searched}) == len(searched)


def test_deep_cpn_product_closes_without_a_product_search(searched):
    report = tc_bounds(catalog_space("product(cpn:31,cpn:31,cpn:31)"))
    assert (report.lower, report.upper, report.exact) == (187, 187, True)
    assert searched == [cpn_algebra(31)]


def test_open_bracket_still_searches_the_product(searched):
    """A hand-built descriptor whose bracket stays open reaches the product
    search: it runs in the product's own algebra and is not kept, while the
    leaves' cup-lengths are."""
    descriptor = open_cpn(catalog_space("product(cpn:1,convex:1)"))
    report = tc_bounds(descriptor)
    assert (report.lower, report.upper, report.exact) == (3, 5, False)
    assert searched == [cpn_algebra(1), point_algebra(), descriptor.algebra]
    searched.clear()
    again = open_cpn(catalog_space("product(cpn:1,convex:1)"))
    assert tc_bounds(again) == report
    assert searched == [again.algebra]
    assert again.algebra is not descriptor.algebra


def test_descriptor_tree_serves_the_factor_reports(monkeypatch):
    descriptor = open_cpn(catalog_space("product(torus:2,product(sphere:2,cpn:1))"))
    calls = []
    build = catalog.catalog_space
    monkeypatch.setattr(catalog, "catalog_space", lambda spec: calls.append(spec) or build(spec))
    report = tc_bounds(descriptor)
    assert calls == []
    assert report == catalog.BoundsReport(
        "product(torus:2,product(sphere:2,cpn:1))", 7, 9, "cup-length lower bound",
        "product inequality", False,
    )

    def check(node):
        assert [f.form for f in node.factors] == list(node.form.factors)
        for factor in node.factors:
            check(factor)

    check(descriptor)
    assert [len(f.factors) for f in descriptor.factors] == [2, 2]


def test_product_algebra_reuses_the_factor_algebras(monkeypatch):
    """A nested product factor's algebra is built once: the parent tensors
    the factor's cached algebra instead of rebuilding it from the leaves."""
    calls = []
    counted = lambda a, b: calls.append(1) or tensor_product(a, b)
    monkeypatch.setattr(catalog, "tensor_product", counted)
    descriptor = open_cpn(catalog_space("product(product(cpn:1,cpn:2),cpn:3)"))
    report = tc_bounds(descriptor)
    assert len(calls) == 2
    assert report == catalog.BoundsReport(
        "product(product(cpn:1,cpn:2),cpn:3)", 13, 25, "cup-length lower bound",
        "product inequality", False,
    )


def test_spellings_of_one_form_share_the_searched_cup_length(searched):
    first = tc_bounds(catalog_space("torus:2"))
    assert searched == [sphere_algebra(1)]  # the circle leaf; the product meets its rule count
    searched.clear()
    for spec in ("product(circle,circle)", "surface:1"):
        assert tc_bounds(catalog_space(spec)) == replace(first, space=spec)
    assert searched == []


def test_cache_clear_empties_the_memo(searched):
    tc_bounds(catalog_space("product(cpn:1,convex:1)"))
    assert catalog._cup_length.cache_info().currsize == 2
    catalog._cup_length.cache_clear()
    assert catalog._cup_length.cache_info().currsize == 0
    searched.clear()
    tc_bounds(catalog_space("product(cpn:1,convex:1)"))
    assert searched == [cpn_algebra(1), point_algebra()]  # both leaves, no product


def test_threads_share_the_memo_under_its_cap():
    """Threads that hit, fill and evict the leaf caches at once get the
    single-threaded reports and leave the cup-length cache within its cap."""
    cap = catalog._cup_length.cache_parameters()["maxsize"]
    # more spheres than either cache holds, so both evict while threads read
    specs = [f"sphere:{n}" for n in range(1, cap + 33)] + [f"cpn:{n}" for n in range(1, 5)]
    expected = {spec: tc_bounds(catalog_space(spec)) for spec in specs}
    catalog._cup_length.cache_clear()
    results, errors = [], []

    def worker(offset):
        try:
            for k in range(300):
                spec = specs[(offset * 23 + k) % len(specs)]
                results.append(tc_bounds(catalog_space(spec)) == expected[spec])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8 * 300 and all(results)
    assert catalog._cup_length.cache_info().currsize <= cap
