import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tcplan import cli
from tcplan.cli import main
from tcplan.planner_core import MAX_AMBIENT, MAX_SAMPLES
from tcplan.verifier import MAX_PAIRS, VerifyConfig
from tcplan.catalog import catalog_space
from tcplan.graded_algebra import algebra_to_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_even_sphere(capsys):
    code, out, _ = run(capsys, "bounds", "sphere:4")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lower"], payload["upper"], payload["exact"]) == (3, 3, True)


def test_bounds_cpn3(capsys):
    code, out, _ = run(capsys, "bounds", "cpn:3")
    payload = json.loads(out)
    assert code == 0
    assert (payload["lower"], payload["upper"], payload["exact"]) == (7, 7, True)


def test_bounds_convex(capsys):
    code, out, _ = run(capsys, "bounds", "convex:5")
    payload = json.loads(out)
    assert (payload["lower"], payload["upper"]) == (1, 1)


def test_bounds_parse_error_is_exit_2(capsys):
    code, out, err = run(capsys, "bounds", "blob:3")
    assert code == 2
    assert out == ""
    assert "position" in err


def test_bounds_needs_exactly_one_source(capsys):
    assert run(capsys, "bounds")[0] == 2
    assert run(capsys, "bounds", "circle", "--file", "x.json")[0] == 2


def test_plan_circle_positive_arc(capsys):
    code, out, _ = run(capsys, "plan", "circle", "--from", "1,0", "--to", "-1,0",
                       "--samples", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["rule_index"] == 2
    angles = [math.atan2(c2, c1) % (2 * math.pi) for _, c1, c2 in payload["samples"]]
    expected = [0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    assert all(abs(a - e) < 1e-9 for a, e in zip(angles, expected))


def test_plan_torus_constant(capsys):
    code, out, _ = run(capsys, "plan", "torus:2", "--from", "1,0,1,0", "--to", "1,0,1,0")
    payload = json.loads(out)
    assert code == 0
    assert payload["rule_index"] == 1  # tie level 2
    assert all(row[1:] == [1.0, 0.0, 1.0, 0.0] for row in payload["samples"])


def test_plan_sphere_pole_pair(capsys):
    code, out, _ = run(capsys, "plan", "sphere:2", "--from", "0,0,-1", "--to", "0,0,1")
    payload = json.loads(out)
    assert payload["rule_index"] == 3


def test_plan_near_tie_takes_first_positive_level(capsys):
    # The left factor's top two weights are one float apart, so the argmax
    # tie cell's margin rounds to 0 and level 3 is the first positive one.
    start = [-0.003473771544450412, -0.6326747964650465, 0.7744097977357782,
             -0.8984244256428054, -0.16002731640923568, 0.408931301579194]
    goal = [0.9700579107124438, 0.2281599743512405, 0.08325068148820043,
            -0.8769798336371238, -0.34437803708436854, -0.3351270489944372]
    code, out, _ = run(capsys, "plan", "product(sphere:2,sphere:2)",
                       "--from", ",".join(map(repr, start)), "--to", ",".join(map(repr, goal)))
    assert code == 0
    payload = json.loads(out)
    assert payload["rule_index"] == 2
    samples = payload["samples"]
    assert max(abs(x - y) for x, y in zip(samples[0][1:], start)) < 1e-9
    assert max(abs(x - y) for x, y in zip(samples[-1][1:], goal)) < 1e-9


def test_plan_rejects_bad_point(capsys):
    code, _, err = run(capsys, "plan", "circle", "--from", "1,1", "--to", "0,1")
    assert code == 2
    assert "norm" in err
    # the squared norm overflows: rejected without a numpy warning
    code, _, err = run(capsys, "plan", "circle", "--from", "1e308,1e308", "--to", "0,1")
    assert code == 2
    assert "norm" in err and len(err.strip().splitlines()) == 1


def test_plan_rejects_wrong_dimension(capsys):
    assert run(capsys, "plan", "circle", "--from", "1,0,0", "--to", "0,1")[0] == 2


def test_plan_csv_format(capsys):
    code, out, _ = run(capsys, "plan", "circle", "--from", "1,0", "--to", "0,1",
                       "--samples", "3", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "t,c1,c2"
    assert len(lines) == 4
    assert lines[1].startswith("0,")


def test_plan_kinematics_join_positions(capsys):
    code, out, _ = run(capsys, "plan", "torus:2", "--from", "1,0,0,1", "--to", "1,0,0,1",
                       "--samples", "2", "--kinematics", "1,1")
    payload = json.loads(out)
    assert code == 0
    joints = payload["joints"][0]
    assert joints == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]


def test_plan_kinematics_csv_columns(capsys):
    code, out, _ = run(capsys, "plan", "torus:2", "--from", "1,0,0,1", "--to", "1,0,0,1",
                       "--samples", "2", "--kinematics", "1,1", "--format", "csv")
    header = out.splitlines()[0]
    assert header == "t,c1,c2,c3,c4,j0x,j0y,j1x,j1y,j2x,j2y"


def test_verify_small_run_passes(capsys):
    code, out, _ = run(capsys, "verify", "circle", "--pairs", "300", "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["reconcile"]["rule_count"] == 2


def test_verify_defaults_are_the_config_defaults():
    args = cli._parser().parse_args(["verify", "circle"])
    assert VerifyConfig(seed=args.seed, pairs=args.pairs) == VerifyConfig()


def test_verify_torus3_reconciles_four_rules(capsys):
    code, out, _ = run(capsys, "verify", "torus:3", "--pairs", "300")
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["reconcile"]["rule_count"] == 4
    assert payload["reconcile"]["known_tc"] == 4
    assert payload["reconcile"]["bounds"]["exact"] is True


def test_verify_product_with_convex_factor_reconciles(capsys):
    code, out, _ = run(capsys, "verify", "product(circle,convex:2)", "--pairs", "200")
    payload = json.loads(out)
    assert code == 0
    assert payload["reconcile"]["rule_count"] == payload["reconcile"]["known_tc"] == 2
    assert payload["reconcile"]["bounds"]["exact"] is True


def test_verify_unplannable_is_exit_2(capsys):
    code, _, err = run(capsys, "verify", "surface:2")
    assert code == 2
    assert "no explicit planner" in err


def test_verify_byte_identical_reruns(capsys):
    args = ("verify", "torus:2", "--pairs", "200", "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_plan_byte_identical_reruns(capsys):
    args = ("plan", "sphere:2", "--from", "0.6,0.8,0", "--to", "0,0,1", "--samples", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.fixture
def algebra_file(tmp_path):
    def write(algebra, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(algebra_to_presentation(algebra)))
        return str(path)

    return write


def test_algebra_sphere6(capsys, algebra_file):
    path = algebra_file(catalog_space("sphere:6").algebra, "s6")
    code, out, _ = run(capsys, "algebra", "--file", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["length"] == 2
    assert payload["tc_lower_bound"] == 3
    assert len(payload["witness"]) == 2
    assert payload["product_value"]


def test_algebra_surface3(capsys, algebra_file):
    path = algebra_file(catalog_space("surface:3").algebra, "sigma3")
    code, out, _ = run(capsys, "algebra", "--file", path, "--max-len", "4")
    payload = json.loads(out)
    assert payload["length"] >= 4
    assert payload["tc_lower_bound"] >= 5


def test_algebra_point(capsys, algebra_file):
    path = algebra_file(catalog_space("convex:2").algebra, "pt")
    code, out, _ = run(capsys, "algebra", "--file", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["length"] == 0
    assert payload["tc_lower_bound"] == 1
    assert payload["witness"] == []


def test_algebra_exhaustive_mode(capsys, algebra_file):
    path = algebra_file(catalog_space("sphere:2").algebra, "s2")
    code, out, _ = run(capsys, "algebra", "--file", path, "--exhaustive", "--max-len", "3")
    payload = json.loads(out)
    assert payload["mode"] == "exhaustive"
    assert payload["length"] == 2


def test_algebra_invalid_file_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1},
                  {"name": "v", "degree": 1}, {"name": "A", "degree": 2}],
        "unit": "1",
        "products": [
            {"left": "u", "right": "v", "result": [{"name": "A", "coeff": "1"}]},
            {"left": "v", "right": "u", "result": [{"name": "A", "coeff": "1"}]},
        ],
    }))
    code, _, err = run(capsys, "algebra", "--file", str(bad))
    assert code == 2
    assert "sign rule" in err


def test_algebra_file_term_named_twice_is_exit_2(capsys, tmp_path):
    # read as one term, u * v would be -A and certify a lower bound of 3
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps({
        "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1},
                  {"name": "v", "degree": 1}, {"name": "A", "degree": 2}],
        "unit": "1",
        "products": [{"left": "u", "right": "v", "result": [
            {"name": "A", "coeff": "1"}, {"name": "A", "coeff": "-1"}]}],
    }))
    for command in ("algebra", "bounds"):
        code, out, err = run(capsys, command, "--file", str(bad))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "('u', 'v')" in err and "'A' twice" in err


def test_bounds_from_algebra_file(capsys, algebra_file):
    path = algebra_file(catalog_space("sphere:6").algebra, "s6b")
    code, out, _ = run(capsys, "bounds", "--file", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["lower"] == 3
    assert payload["upper"] == 13  # twice the top degree plus one
    assert "note" in payload


def test_bounds_file_without_dim_is_not_exact(capsys, algebra_file):
    # H(point) is also the rational cohomology of RP^2, whose TC is 4.
    path = algebra_file(catalog_space("convex:1").algebra, "pt")
    code, out, _ = run(capsys, "bounds", "--file", path)
    payload = json.loads(out)
    assert code == 0
    assert (payload["lower"], payload["upper"], payload["exact"]) == (1, 1, False)
    assert "only if" in payload["note"]


def test_bounds_file_with_dim(capsys, tmp_path):
    presentation = algebra_to_presentation(catalog_space("surface:2").algebra)
    path = tmp_path / "sigma2.json"
    path.write_text(json.dumps({**presentation, "dim": 2}))
    code, out, _ = run(capsys, "bounds", "--file", str(path))
    payload = json.loads(out)
    assert code == 0
    assert (payload["lower"], payload["upper"], payload["exact"]) == (5, 5, True)

    path.write_text(json.dumps({**presentation, "dim": 3}))
    payload = json.loads(run(capsys, "bounds", "--file", str(path))[1])
    assert (payload["lower"], payload["upper"], payload["exact"]) == (5, 7, False)


@pytest.mark.parametrize("dim", [1, -2, "2", 2.0, True])
def test_bounds_file_bad_dim_is_exit_2(capsys, tmp_path, dim):
    presentation = algebra_to_presentation(catalog_space("surface:2").algebra)
    path = tmp_path / "bad_dim.json"
    path.write_text(json.dumps({**presentation, "dim": dim}))
    code, out, err = run(capsys, "bounds", "--file", str(path))
    assert (code, out) == (2, "")
    assert "dim" in err


def test_tensor_labels_that_spell_alike_are_exit_2(capsys, tmp_path):
    """H(T^2) with a basis label containing '⊗': ('a', 'a⊗a') and ('a⊗a', 'a')
    both spell 'a⊗a⊗a' in the tensor square, which once merged them into one
    basis class and certified lower 4 > TC(T^2) = 3."""
    def torus(label):
        return {
            "basis": [{"name": "1", "degree": 0}, {"name": "a", "degree": 1},
                      {"name": label, "degree": 1}, {"name": "b", "degree": 2}],
            "unit": "1",
            "products": [{"left": "a", "right": label, "result": [{"name": "b", "coeff": "1"}]}],
            "dim": 2,
        }

    path = tmp_path / "torus.json"
    path.write_text(json.dumps(torus("a⊗a")))
    for argv in (["bounds"], ["algebra"], ["algebra", "--exhaustive"]):
        code, out, err = run(capsys, *argv, "--file", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "('a', 'a⊗a')" in err and "('a⊗a', 'a')" in err

    path.write_text(json.dumps(torus("c")))
    code, out, _ = run(capsys, "bounds", "--file", str(path))
    payload = json.loads(out)
    assert code == 0
    assert (payload["lower"], payload["upper"], payload["exact"]) == (3, 5, False)


def test_algebra_file_top_level_list_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([{"name": "1", "degree": 0}]))
    for command in ("algebra", "bounds"):
        code, out, err = run(capsys, command, "--file", str(bad))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "mapping" in err


S2_WITH_U2 = {
    "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2},
              {"name": "w", "degree": 4}],
    "unit": "1",
    "products": [{"left": "u", "right": "u", "result": [{"name": "w", "coeff": "1"}]}],
}


@pytest.mark.parametrize(
    "key,drop",
    [
        ("degree", lambda p: p["basis"][1].pop("degree")),
        ("right", lambda p: p["products"][0].pop("right")),
        ("coeff", lambda p: p["products"][0]["result"][0].pop("coeff")),
    ],
)
def test_algebra_file_missing_key_is_exit_2(capsys, tmp_path, key, drop):
    presentation = json.loads(json.dumps(S2_WITH_U2))
    drop(presentation)
    bad = tmp_path / f"no_{key}.json"
    bad.write_text(json.dumps(presentation))
    code, out, err = run(capsys, "algebra", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and repr(key) in err


@pytest.mark.parametrize(
    "field,value",
    [("degree", lambda p: p["basis"][1]), ("coeff", lambda p: p["products"][0]["result"][0])],
)
def test_algebra_file_boolean_is_not_a_number_exit_2(capsys, tmp_path, field, value):
    presentation = json.loads(json.dumps(S2_WITH_U2))
    value(presentation)[field] = True
    bad = tmp_path / f"bool_{field}.json"
    bad.write_text(json.dumps(presentation))
    for command in ("algebra", "bounds"):
        code, out, err = run(capsys, command, "--file", str(bad))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "True" in err


def test_deeply_nested_json_is_exit_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("algebra", "bounds"):
        code, out, err = run(capsys, command, "--file", str(deep))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "nested too deeply" in err


@pytest.mark.parametrize("name", [float("nan"), None, [], {}, 3, True])
def test_algebra_file_name_must_be_a_string(capsys, tmp_path, name):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({**S2_WITH_U2, "name": name}))
    for command in ("algebra", "bounds"):
        code, out, err = run(capsys, command, "--file", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "'name'" in err


@pytest.mark.parametrize("point", ["nan,0,1", "0,inf,1", "0,0,-inf"])
def test_plan_rejects_non_finite_point(capsys, point):
    for argv in (["--from", point, "--to", "0,0,1"], ["--from", "0,0,1", "--to", point]):
        code, out, err = run(capsys, "plan", "sphere:2", *argv)
        assert (code, out) == (2, "")
        assert "non-finite" in err


@pytest.mark.parametrize(
    "flags",
    [["--delta", "1e-4"], ["--eta", "0.1"], ["--tol", "1e-9"], ["--tol", "nan"],
     ["--delta=-1e-4"]],
)
def test_verify_rejects_non_finite_or_non_positive_config(capsys, flags):
    # The thresholds are the verifier's constants, so argparse rejects their
    # old flags, whether the value was the default or a bad one.
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "circle", "--pairs", "10", *flags])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_pairs_cap_is_exit_2(capsys):
    # rejected by VerifyConfig before any query pair is built
    code, out, err = run(capsys, "verify", "circle", "--pairs", "1000000000")
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert "at most 100000" in err


def test_quiet_flag_accepted_everywhere(capsys):
    assert run(capsys, "bounds", "circle", "--quiet")[0] == 0
    assert run(capsys, "plan", "circle", "--from", "1,0", "--to", "0,1", "--quiet")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "torus:65"),
        ("bounds", "torus:99999999"),
        ("bounds", "product(" + ",".join(["torus:8"] * 9) + ")"),
        ("bounds", "product(" * 100 + "circle"),
        ("plan", "product(torus:40,torus:40)", "--from", "1,0", "--to", "1,0"),
        ("verify", "product(surface:1,torus:63)"),
        ("bounds", "surface:16"),
        ("bounds", "cpn:32"),
        ("bounds", "surface:2000"),
        ("bounds", "cpn:100000"),
        ("verify", "sphere:1000000000000", "--pairs", "1"),
        ("plan", "sphere:1000000000000", "--from", "1", "--to", "1"),
        ("verify", "convex:1000000000000", "--pairs", "1"),
        ("verify", f"sphere:{MAX_AMBIENT}", "--pairs", "1"),
    ],
)
def test_leaf_cap_is_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_planner_dimension_cap_leaves_bounds_and_the_cap_itself(capsys):
    """Only planners are capped: bounds takes any dimension, and a planner
    with exactly MAX_AMBIENT coordinates plans."""
    code, out, _ = run(capsys, "bounds", "sphere:1000000000000")
    assert (code, json.loads(out)["upper"]) == (0, 3)
    point = ",".join(["1"] + ["0"] * (MAX_AMBIENT - 1))
    code, out, _ = run(capsys, "plan", f"sphere:{MAX_AMBIENT - 1}", "--from", point,
                       "--to", point, "--samples", "2")
    assert (code, json.loads(out)["rule_index"]) == (0, 1)


def test_bounds_torus64_at_the_cap(capsys):
    code, out, _ = run(capsys, "bounds", "torus:64")
    assert code == 0
    payload = json.loads(out)
    assert (payload["space"], payload["lower"], payload["upper"]) == ("torus:64", 65, 65)


def test_verify_past_int64_menu_combinations_reports(capsys):
    """torus:41 has 3^41 > 2^63 adversarial menu combinations."""
    code, out, err = run(capsys, "verify", "torus:41", "--pairs", "10")
    assert code in (0, 1)
    assert json.loads(out)["space"] == "torus:41"
    assert "Traceback" not in err


def test_plan_samples_cap_is_exit_2(capsys):
    # rejected by sample_path before any sample row is allocated
    code, out, err = run(capsys, "plan", "sphere:2", "--from", "1,0,0", "--to", "0,1,0",
                         "--samples", str(MAX_SAMPLES + 1))
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert f"at most {MAX_SAMPLES} samples" in err
    assert MAX_SAMPLES == MAX_PAIRS


def test_parser_is_built_once(capsys):
    cli._parser.cache_clear()
    for argv in (["bounds", "sphere:2"], ["bounds", "blob:3"], ["bounds", "circle"]):
        run(capsys, *argv)
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def test_one_process_sequence_matches_fresh_calls():
    """The cached parser keeps no state from one call to the next, and
    memoized cup-lengths give every spelling its own report."""
    sequence = [
        ["bounds", "sphere:2"],
        ["plan", "sphere:2", "--from", "1,0,0", "--to", "-1,0,0", "--samples", "5"],
        ["verify", "circle", "--pairs", "20"],
        ["bounds"],
        ["plan", "circle", "--from", "1,0"],
        ["verify", "cpn:2"],
        ["bounds", "--file", "no-such-file.json"],
        ["algebra"],
        ["plan", "circle", "--from", "1,0", "--to", "0,1", "--format", "csv", "--quiet"],
        ["bounds", "torus:3", "--quiet"],
        ["bounds", "torus:2"],
        ["bounds", "product(circle,circle)"],
        ["bounds", "surface:1"],
        ["bounds", "product(cpn:2,sphere:3)"],
        ["bounds", "product(cpn:2,sphere:3)"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in sequence:
        fresh = subprocess.run([sys.executable, "-m", "tcplan.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert _in_process(argv) == (fresh.returncode, fresh.stdout), argv
    codes = [_in_process(argv)[0] for argv in sequence]
    assert codes == [0, 0, 0, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0]


def _captured(call):
    """Exit code, stdout and stderr of ``call()``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _top_level_main(argv):
    """``main`` as it was before it dispatched to the subcommand's parser:
    the whole argv through the top-level parser."""
    args = cli._parser().parse_args(cli._glue_value_flags(argv))
    try:
        return args.handler(args)
    except cli._INPUT_ERRORS as exc:
        return cli._fail(str(exc))


@pytest.mark.parametrize(
    "argv",
    [
        # a valid call of each subcommand
        ["bounds", "sphere:2"],
        ["bounds", "--file", "{file}"],
        ["plan", "circle", "--from", "1,0", "--to", "0,1", "--samples", "3"],
        ["verify", "circle", "--pairs", "20", "--seed", "3"],
        ["algebra", "--file", "{file}", "--max-len", "2", "--exhaustive"],
        ["bounds", "circle", "--quiet"],
        ["verify", "circle", "--pairs=20"],
        ["bounds", "--", "circle"],
        ["bounds", "blob:3"],
        ["bounds"],
        # help, on each subcommand and on tcplan
        ["bounds", "-h"],
        ["plan", "--help"],
        ["verify", "-h"],
        ["algebra", "-h"],
        ["bounds", "circle", "-h"],
        ["-h"],
        ["--help"],
        # no subcommand, or not one of the four
        [],
        ["blob"],
        ["Bounds", "circle"],
        ["--quiet", "bounds", "circle"],
        # unknown options and leftover arguments
        ["bounds", "circle", "--frobnicate"],
        ["verify", "circle", "--pairs", "20", "--tol", "1e-9"],
        ["bounds", "circle", "sphere:2"],
        ["algebra", "--file", "{file}", "extra"],
        # missing arguments
        ["verify"],
        ["plan", "--from", "1,0", "--to", "0,1"],
        ["plan", "circle", "--from", "1,0"],
        ["plan", "circle", "--from", "1,0", "--to"],
        ["bounds", "--file"],
        ["algebra"],
        # bad integers
        ["verify", "circle", "--pairs", "many"],
        ["verify", "circle", "--seed", "1.5"],
        ["plan", "circle", "--from", "1,0", "--to", "0,1", "--samples", "x"],
        ["algebra", "--file", "{file}", "--max-len", "two"],
        ["plan", "circle", "--from", "1,0", "--to", "0,1", "--format", "xml"],
        # an abbreviated option, and values that start with '-'
        ["verify", "circle", "--pai", "20"],
        ["plan", "circle", "--from", "-1,0", "--to", "0,-1", "--samples", "3"],
        ["plan", "circle", "--from", "-1,0", "--to", "-0.6,-0.8", "--samples", "2", "--fo", "csv"],
    ],
    ids=lambda argv: " ".join(argv) or "(empty)",
)
def test_subcommand_dispatch_matches_the_top_level_parser(tmp_path, argv):
    """Exit code, stdout and stderr (usage errors and help texts included)
    are what the top-level parser gives for the same argv."""
    path = tmp_path / "sphere2.json"
    path.write_text(json.dumps(algebra_to_presentation(catalog_space("sphere:2").algebra)))
    argv = [str(path) if token == "{file}" else token for token in argv]
    expected = _captured(lambda: _top_level_main(list(argv)))
    assert _captured(lambda: main(list(argv))) == expected


def test_non_ascii_digits_in_a_spec_are_exit_2(capsys):
    for spec, position in (("sphere:²", 7), ("torus:①", 6), ("sphere:３", 7)):
        code, out, err = run(capsys, "bounds", spec)
        assert (code, out) == (2, "")
        assert err == f"tcplan: expected an integer (at position {position})\n"


def _flat_presentation(classes):
    """The unit and ``classes`` degree-1 classes, every product zero."""
    basis = [{"name": "1", "degree": 0}] + [{"name": f"x{i}", "degree": 1} for i in range(classes)]
    return {"basis": basis, "unit": "1"}


def test_presentation_file_at_the_class_cap_runs(capsys, tmp_path):
    path = tmp_path / "at_cap.json"
    path.write_text(json.dumps(_flat_presentation(127)))
    for command in ("algebra", "bounds"):
        code, out, err = run(capsys, command, "--file", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)


def test_presentation_file_past_the_class_cap_is_exit_2(capsys, tmp_path, monkeypatch):
    """One class past the cap of 128 exits 2 with one line, before validation."""
    path = tmp_path / "past_cap.json"
    path.write_text(json.dumps(_flat_presentation(128)))
    monkeypatch.setattr(cli, "validate_algebra", lambda *args, **kwargs: pytest.fail("validated"))
    for command in ("algebra", "bounds"):
        code, out, err = run(capsys, command, "--file", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "129 classes" in err and "at most 128" in err
