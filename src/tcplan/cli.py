"""Command-line front end.

Four subcommands, all emitting JSON with stable key order on stdout
(diagnostics go to stderr):

    tcplan bounds  <spec> | --file algebra.json
    tcplan plan    <spec> --from <pt> --to <pt> [--samples N (2..100000)]
                   [--format json|csv] [--kinematics l1,l2,...]
    tcplan verify  <spec> [--pairs N] [--seed S]
    tcplan algebra --file algebra.json [--exhaustive] [--max-len L]

``verify`` uses the verifier's fixed thresholds (delta = 1e-4, eta = 0.1,
tolerance 1e-9); the former ``--delta/--eta/--tol`` flags exit 2.

Exit codes: 0 success / verification pass, 1 verification failure,
2 input or validation error.  Points are comma-separated coordinates,
concatenated across factors; sphere blocks are renormalized when within
1e-6 of unit length and rejected otherwise.  An empty coordinate or bar
length exits 2.

argparse is the parser of record: every default, help text, usage error
and exit code is its own.  Only a call of one subcommand and one token
that does not start with ``-`` (``bounds SPEC``, ``verify SPEC``) skips
it, because argparse would read such a token as the positional and
nothing else: its namespace is one argparse built once from a
placeholder token, with the positional set to the token.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .catalog import BoundsReport, catalog_space, parse_spec, tc_bounds
from .graded_algebra import AlgebraError, _field, validate_algebra, zdcl
from .geometry import ConfigPoint, make_point
from .planner_core import MAX_SAMPLES, build_planner, forward_kinematics, plan, sample_times
from .verifier import Mismatch, VerifyConfig, reconcile, verify_planner

# Every input error tcplan raises (bad specs, points, algebra files, JSON
# syntax) is a ValueError; OSError covers unreadable files.
_INPUT_ERRORS = (ValueError, OSError)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _fail(message: str) -> int:
    print("tcplan:", *message.splitlines(), file=sys.stderr)  # one line, whatever the input
    return 2


# Classes of a presentation file, unit included: the tensor square each
# search builds holds the square of this many labels.  128 leaves room for
# the 120 classes of the configuration space F(R^m, 5).
MAX_PRESENTATION_BASIS = 128


def _load_algebra(path: str):
    """The validated algebra of a presentation file, and the file's raw data.
    A basis of more than ``MAX_PRESENTATION_BASIS`` classes is rejected
    before it is validated."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise AlgebraError(f"{path}: JSON nested too deeply") from None
    name = _field(data, "name", str, default=path)
    basis = _field(data, "basis", Sequence, default=())
    if len(basis) > MAX_PRESENTATION_BASIS:
        raise AlgebraError(
            f"{path}: the basis has {len(basis)} classes; "
            f"a presentation file takes at most {MAX_PRESENTATION_BASIS}, unit included"
        )
    return validate_algebra(data, name=name), data


def _parse_floats(text: str, what: str) -> list[float]:
    """Comma-separated finite numbers, such as a point's coordinates."""
    tokens = text.split(",")
    if any(tok.strip() == "" for tok in tokens):
        raise ValueError(f"empty {what} in {text!r}")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"bad {what} in {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite {what} in {text!r}")
    return values


def _parse_point(text: str, geometry):
    return make_point(geometry, _parse_floats(text, "coordinate"), renormalize=True)


def cmd_bounds(args) -> int:
    if bool(args.spec) == bool(args.file):
        return _fail("bounds needs exactly one of a space spec or --file")
    if args.file:
        algebra, data = _load_algebra(args.file)
        dim = data.get("dim")
        if dim is not None and (
            not isinstance(dim, int) or isinstance(dim, bool) or dim < algebra.top_degree
        ):
            return _fail(
                f"'dim' must be an integer >= the top degree {algebra.top_degree}, got {dim!r}"
            )
        lower = zdcl(algebra, mode="canonical").length + 1
        if dim is None:
            # An inferred dimension certifies nothing: H(point) is also H(RP^2; Q).
            upper = 2 * algebra.top_degree + 1
            exact = False
            note = (
                "dimension inferred from the algebra's top degree; the upper bound "
                "holds only if the space has that dimension"
            )
        else:
            upper = 2 * dim + 1
            exact = lower == upper
            note = "dimension given by the file's 'dim' field"
        report = BoundsReport(
            f"algebra:{algebra.name}", lower, upper,
            "cup-length lower bound", "dimension bound", exact,
        )
        _emit({**report.as_dict(), "note": note})
        return 0
    _emit(tc_bounds(catalog_space(args.spec)).as_dict())
    return 0


def cmd_plan(args) -> int:
    spec = parse_spec(args.spec)
    planner = build_planner(spec)
    if planner is None:
        return _fail(f"no explicit planner is available for {spec}")
    start = _parse_point(args.src, planner.geometry)
    goal = _parse_point(args.dst, planner.geometry)
    result = plan(planner, start, goal)
    ts = sample_times(args.samples)
    blocks = result.path.sample(ts)
    rows = np.concatenate(blocks, axis=1).tolist()  # one flat coordinate list per time

    joints = None
    if args.kinematics is not None:
        lengths = _parse_floats(args.kinematics, "bar length")
        joints = [
            [j.tolist() for j in forward_kinematics(ConfigPoint(planner.geometry, point), lengths)]
            for point in zip(*blocks)
        ]

    if args.format == "csv":
        dim = planner.geometry.ambient_dim
        header = ["t"] + [f"c{i + 1}" for i in range(dim)]
        if joints is not None:
            per_joint = len(joints[0][0])
            axes = "xyz"[:per_joint]
            header += [f"j{k}{ax}" for k in range(len(joints[0])) for ax in axes]
        lines = [",".join(header)]
        for row_no, (t, coords) in enumerate(zip(ts, rows)):
            row = [f"{t:.17g}"] + [f"{v:.17g}" for v in coords]
            if joints is not None:
                row += [f"{v:.17g}" for joint in joints[row_no] for v in joint]
            lines.append(",".join(row))
        print("\n".join(lines))
        return 0

    payload = {
        "space": str(spec),
        "from": start.flat.tolist(),
        "to": goal.flat.tolist(),
        "rule_index": result.rule_index,
        "samples": [[t] + coords for t, coords in zip(ts, rows)],
    }
    if joints is not None:
        payload["joints"] = joints
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    spec = parse_spec(args.spec)
    planner = build_planner(spec)
    if planner is None:
        return _fail(f"no explicit planner is available for {spec}; only bounds are")
    cfg = VerifyConfig(seed=args.seed, pairs=args.pairs)
    report = verify_planner(planner, cfg)
    payload = report.as_dict()
    descriptor = catalog_space(spec)
    payload["reconcile"] = None
    reconcile_ok = True
    if descriptor.known_tc is not None:
        try:
            payload["reconcile"] = reconcile(planner, descriptor).as_dict()
        except Mismatch as exc:
            payload["reconcile"] = {"error": str(exc)}
            reconcile_ok = False
    _emit(payload)
    return 0 if report.passed and reconcile_ok else 1


def cmd_algebra(args) -> int:
    algebra, _ = _load_algebra(args.file)
    mode = "exhaustive" if args.exhaustive else "canonical"
    result = zdcl(algebra, mode=mode, max_len=args.max_len)
    _emit(
        {
            "algebra": algebra.name,
            "mode": mode,
            "length": result.length,
            "tc_lower_bound": result.length + 1,
            "witness": [w.as_strings() for w in result.witness],
            "product_value": result.product_value.as_strings(),
        }
    )
    return 0


def _glue_value_flags(argv):
    """Join flags whose values may start with '-' (e.g. --to -1,0) into
    --flag=value form so argparse does not mistake the value for an option."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--from", "--to", "--kinematics"):
            value = next(it, None)
            out.append(tok if value is None else f"{tok}={value}")
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, and building it costs more than a cached ``bounds`` call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet",
        action="store_true",
        help="accepted and changes nothing: stdout already carries only the JSON output",
    )

    parser = argparse.ArgumentParser(
        prog="tcplan",
        description="Motion-planner complexity bounds and executable minimal planners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> the subcommand's own parser, for main

    p = sub.add_parser("bounds", parents=[common], help="complexity bounds for a space")
    p.add_argument("spec", nargs="?", help="space expression, e.g. sphere:2 or torus:3")
    p.add_argument("--file", help="algebra presentation JSON instead of a catalog space")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("plan", parents=[common], help="plan a path between configurations")
    p.add_argument("spec")
    p.add_argument("--from", dest="src", required=True, help="start point coordinates")
    p.add_argument("--to", dest="dst", required=True, help="goal point coordinates")
    p.add_argument("--samples", type=int, default=17, help=f"2 to {MAX_SAMPLES}")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--kinematics", help="bar lengths; append joint positions per sample")
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("verify", parents=[common], help="run the planner checks")
    p.add_argument("spec")
    p.add_argument("--pairs", type=int, default=VerifyConfig.pairs)
    p.add_argument("--seed", type=int, default=VerifyConfig.seed)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("algebra", parents=[common], help="cup-length report for an algebra file")
    p.add_argument("--file", required=True)
    p.add_argument("--exhaustive", action="store_true", help="search kernel-basis products")
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.set_defaults(handler=cmd_algebra)

    # main's fast path: for each subcommand whose parser takes one plain
    # positional (one string, no type, no choices) and no required option,
    # the positional's name and the namespace argparse gives for a
    # placeholder token in its place.
    parser.one_positional = {}
    for name, own in sub.choices.items():
        positionals = [a for a in own._actions if not a.option_strings]
        plain = len(positionals) == 1 and positionals[0].nargs in (None, "?") and (
            positionals[0].type is None and positionals[0].choices is None
        )
        if plain and not any(a.required for a in own._actions if a.option_strings):
            parser.one_positional[name] = (
                positionals[0].dest, vars(parser.parse_args([name, "placeholder"])),
            )
    return parser


def main(argv=None) -> int:
    """Run one tcplan command and return its exit code.

    A call of exactly two tokens, a subcommand whose parser takes one
    positional and no required option (``bounds`` or ``verify``) and a token
    that does not start with ``-``, skips argparse: argparse reads such a
    token as the positional whatever it holds, so the namespace it would
    give is the one ``_parser`` recorded for a placeholder token, with the
    positional set to the token.

    Any other call that names a subcommand first is parsed by that
    subcommand's own parser, without the top-level layer.  Anything else
    goes through the top-level parser: no subcommand, a top-level option
    such as ``-h``, or arguments the subcommand's parser leaves over, which
    only the top-level parser reports.  The top-level parser hands the same
    arguments to the same subcommand parser, so usage errors, help texts and
    exit codes are the ones argparse prints on every path.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    one = parser.one_positional.get(argv[0]) if len(argv) == 2 and argv[1][:1] != "-" else None
    if one is not None:
        dest, namespace = one
        args = argparse.Namespace(**{**namespace, dest: argv[1]})
    else:
        argv = _glue_value_flags(argv)
        own = parser.subcommands.get(argv[0]) if argv else None
        if own is not None:
            args, rest = own.parse_known_args(argv[1:])
            args.command = argv[0]
        if own is None or rest:
            args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
