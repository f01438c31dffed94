"""Fuzz the algebra presentation loader through the CLI.

Every file, however malformed, must give exit 0 with JSON on stdout, or
exit 2 with an empty stdout and a one-line message on stderr.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tcplan.cli import main
from tcplan.graded_algebra import AlgebraError, algebra_to_presentation, validate_algebra

SCALARS = st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
# JSON-shaped values that use the presentation's keys, so the loader gets past its first check.
KEYED = st.fixed_dictionaries(
    {}, optional={key: JSON for key in ("name", "basis", "unit", "products", "dim")}
)
COEFF = st.one_of(
    st.integers(-2, 2),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)),
)


def sign(p, q):
    """The graded sign (-1)^(pq), written here apart from ``koszul_sign``."""
    return -1 if p * q % 2 else 1


@st.composite
def presentations(draw):
    """The unit and 2-4 labels in degrees 1-3, with degree-correct products given on
    one side, on both sides with the sign rule, or on both sides at random,
    and a few unit rows that mostly keep the unit law."""
    degrees = [0] + draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    labels = ["1"] + [f"x{i}" for i in range(1, len(degrees))]
    degree = dict(zip(labels, degrees))
    products = []
    targets = {
        (a, b): [t for t in labels if degree[t] == degree[a] + degree[b]]
        for a in labels[1:] for b in labels[1:]
    }
    pairs = [key for key, found in targets.items() if found] or list(targets)
    for a, b in draw(st.lists(st.sampled_from(pairs), unique_by=frozenset, min_size=1, max_size=6)):
        terms = draw(st.lists(st.tuples(st.sampled_from(targets[a, b]), COEFF),
                              unique_by=lambda t: t[0], min_size=1, max_size=2)) if targets[a, b] else []
        result = [{"name": t, "coeff": c} for t, c in terms]
        products.append({"left": a, "right": b, "result": result})
        side = draw(st.sampled_from(["one", "signed", "random"]))
        if a != b and side == "signed":
            s = sign(degree[a], degree[b])
            flipped = [{"name": t, "coeff": str(s * Fraction(c))} for t, c in terms]
            products.append({"left": b, "right": a, "result": flipped})
        elif a != b and side == "random":
            products.append({"left": b, "right": a, "result": draw(st.sampled_from([result, []]))})
    for b in draw(st.lists(st.sampled_from(labels), unique=True, max_size=2)):
        coeff = draw(st.sampled_from(["1", "1", "1", "2"]))
        products.append({"left": "1", "right": b, "result": [{"name": b, "coeff": coeff}]})
    return {
        "name": draw(st.text(max_size=3) | st.sampled_from(["two\nlines", float("nan")]) | JSON),
        "basis": [{"name": l, "degree": d} for l, d in degree.items()],
        "unit": "1",
        "products": products,
    }


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "algebra.json"


def reject_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_file(path, data):
    path.write_text(json.dumps(data))
    for argv in (["algebra", "--file", str(path), "--max-len", "3"], ["bounds", "--file", str(path)]):
        code, out, err = run_cli(argv)
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("tcplan: ")
        else:
            json.loads(out, parse_constant=reject_constant)


@settings(max_examples=150, deadline=None)
@given(st.one_of(JSON, KEYED))
def test_arbitrary_json_exits_0_or_2(path, data):
    check_file(path, data)


@settings(max_examples=150, deadline=None)
@given(presentations())
def test_near_valid_presentations_exit_0_or_2_and_round_trip(path, data):
    check_file(path, data)
    try:
        algebra = validate_algebra(data)
    except AlgebraError:
        return
    exported = algebra_to_presentation(algebra)
    index = {label: i for i, label in enumerate(algebra.labels)}
    one_sided = {
        **exported,
        "products": [p for p in exported["products"] if index[p["left"]] <= index[p["right"]]],
    }
    for presentation in (exported, one_sided):
        again = validate_algebra(presentation)
        for a in algebra.labels:
            for b in algebra.labels:
                assert again.basis_product(a, b) == algebra.basis_product(a, b)
