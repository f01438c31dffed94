"""Property and fuzz tests over the space grammar and its canonical form."""

import math

from hypothesis import assume, given, settings, strategies as st

from tcplan import catalog
from tcplan.catalog import (
    SpaceSpec,
    canonical,
    catalog_space,
    parse_spec,
    tc_bounds,
)
from tcplan.planner_core import build_planner

# Small leaves, including every alias spelling (torus:n, surface:0, surface:1).
LEAF = st.one_of(
    st.just(SpaceSpec("circle")),
    st.builds(SpaceSpec, st.just("sphere"), st.integers(1, 4)),
    st.builds(SpaceSpec, st.just("torus"), st.integers(1, 3)),
    st.builds(SpaceSpec, st.just("surface"), st.integers(0, 3)),
    st.builds(SpaceSpec, st.just("cpn"), st.integers(1, 2)),
    st.builds(SpaceSpec, st.just("convex"), st.integers(1, 3)),
)
SPECS = st.recursive(
    LEAF,
    lambda children: st.lists(children, min_size=2, max_size=3).map(
        lambda factors: SpaceSpec("product", factors=tuple(factors))
    ),
    max_leaves=5,
)


def betti_rank(spec: SpaceSpec) -> int:
    """Total rational Betti rank, from the textbook values of the leaves."""
    if spec.kind == "product":
        return math.prod(betti_rank(f) for f in spec.factors)
    p = spec.param
    return {
        "circle": 2,
        "sphere": 2,
        "torus": 2 ** (p or 0),
        "surface": 2 * (p or 0) + 2,
        "cpn": (p or 0) + 1,
        "convex": 1,
    }[spec.kind]


@settings(max_examples=200, deadline=None)
@given(SPECS)
def test_spelling_round_trips_and_canonical_is_idempotent(spec):
    assert str(parse_spec(str(spec))) == str(spec)
    assert parse_spec(str(spec)) == spec
    form = canonical(spec)
    assert canonical(form) == form
    assert parse_spec(str(form)) == form


@settings(max_examples=100, deadline=None)
@given(SPECS)
def test_rule_count_is_read_off_the_planner(spec):
    planner = build_planner(spec)
    count = catalog_space(spec).rules
    assert (count is None) == (planner is None)
    if planner is not None:
        assert count == len(planner.rules)
        assert planner.space == str(spec)
        dims = sum(f.dim for f in planner.geometry.factors)
        assert catalog_space(spec).geometry_dim == dims


@settings(max_examples=60, deadline=None)
@given(SPECS)
def test_alias_and_canonical_spelling_give_the_same_bounds(spec):
    assume(betti_rank(spec) <= 16)
    spelled = str(canonical(spec))

    def report(s):
        out = tc_bounds(catalog_space(s)).as_dict()
        return out.pop("space"), out

    assert report(spec) == (str(spec), report(spelled)[1])


@settings(max_examples=60, deadline=None)
@given(SPECS)
def test_known_value_is_where_the_bounds_close(spec):
    assume(betti_rank(spec) <= 16)
    known = catalog_space(spec).known_tc
    if known is not None:
        report = tc_bounds(catalog_space(spec))
        assert (report.lower, report.upper, report.exact) == (known, known, True)


GRAMMAR_TEXT = st.text(alphabet="product(),: \tcirlesphtouafcnvx0123456789-_", max_size=48)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=48), GRAMMAR_TEXT))
def test_parse_spec_raises_only_value_errors(text):
    try:
        spec = parse_spec(text)
    except ValueError:
        return
    assert parse_spec(str(spec)) == spec


def test_canonical_forms():
    circle = SpaceSpec("circle")
    cases = {
        "torus:1": circle,
        "torus:3": SpaceSpec("product", factors=(circle,) * 3),
        "surface:0": SpaceSpec("sphere", 2),
        "surface:1": SpaceSpec("product", factors=(circle, circle)),
        "surface:2": SpaceSpec("surface", 2),
        "product(torus:2,convex:1)": parse_spec("product(product(circle,circle),convex:1)"),
    }
    for text, form in cases.items():
        assert canonical(parse_spec(text)) == form
        assert catalog_space(text).form == form
        assert str(catalog_space(text).spec) == text


def test_algebra_built_only_when_the_factor_sum_leaves_the_bracket_open(monkeypatch):
    def no_product(*args):
        raise AssertionError("product algebra built")

    monkeypatch.setattr(catalog, "tensor_product", no_product)
    report = tc_bounds(catalog_space("torus:64"))
    assert (report.lower, report.upper, report.exact) == (65, 65, True)
