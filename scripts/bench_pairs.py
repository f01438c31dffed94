#!/usr/bin/env python3
"""Alternating benchmark pairs of two git revisions.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload verify-catalog \\
        --pairs 10 --seconds 30 --seed 1

Each revision is unpacked with ``git archive`` into a fresh temporary
directory, and ``python3 perfbench/run.py`` runs in each in turn: the
parent first on odd pairs, the change first on even ones.  For each
end-to-end metric of BENCHMARK.json it prints each side's median
[quartiles], the pairs the change won (ties count for neither side) and
the interquartile range of the parent's runs; then each side's median
[quartiles] of the requests a run attempted (``peak_rss_mb`` follows that
count) and of the workload's named metrics; then, pair by pair, each
side's ``peak_rss_mb`` with the requests its run attempted (MB@requests)
and the ``machine_speed`` of its report line.  It exits 1 when a run
fails or a result line has ``correct`` false.  Standard library only.

After the rows it prints ``verdict <metric>: <word>`` for each end-to-end
metric, the first of these rules that holds setting the word:

1. ``gain``: the change won at least 9 in 10 of the pairs
   (``10 * wins >= 9 * pairs``, ties counting for neither side), and the
   medians differ in the better direction by more than the parent's IQR;
2. ``unresolved``: the parent's IQR over its median exceeds the metric's
   BENCHMARK.json ``bound``, and not every change run beats every parent run;
3. ``worse``: the change's median is worse than the parent's by more than
   ``bound`` times the parent's median;
4. ``within bound``: none of the above.

One pair has an IQR of 0, so a smoke run of one pair reads ``gain`` for any
metric the change happened to win; the words mean what the rules say only
at the ten pairs a claim runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def verdict(parent: list[float], change: list[float], higher: bool, bound: float) -> str:
    """The word of the module docstring's rules for one metric's runs, pair
    by pair; ``higher`` says a larger value is better."""
    wins = sum(_better(c, p, higher) for p, c in zip(parent, change))
    (q1, before, q3), after = quartiles(parent), quartiles(change)[1]
    iqr, shift = q3 - q1, abs(after - before)
    if 10 * wins >= 9 * len(parent) and _better(after, before, higher) and shift > iqr:
        return "gain"
    if iqr > bound * abs(before) and not all(_better(c, p, higher) for c in change for p in parent):
        return "unresolved"
    if _better(before, after, higher) and shift > bound * abs(before):
        return "worse"
    return "within bound"


def summary(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """Per end-to-end metric, from (parent, change) result objects pair by
    pair: each side's quartiles, the change's wins, the parent's IQR and
    the verdict."""
    rows = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(_better(c, p, higher) for p, c in zip(parent, change))
        before, after = quartiles(parent), quartiles(change)
        rows.append({
            "name": name, "unit": metric["unit"], "better": metric["better"],
            "parent": before, "change": after, "wins": wins, "pairs": len(pairs),
            "parent_iqr": before[2] - before[0],
            "verdict": verdict(parent, change, higher, metric["bound"]),
        })
    return rows


def _median_quartiles(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def requests_line(pairs: list[tuple[dict, dict]]) -> str:
    """Each side's median [quartiles] of the requests its runs attempted."""
    def side(k: int) -> str:
        return _median_quartiles(quartiles([pair[k]["attempted"] for pair in pairs]))

    return f"requests: parent {side(0)}  change {side(1)}"


def named_lines(pairs: list[tuple[dict, dict]]) -> list[str]:
    """Each side's median [quartiles] of the named metrics of the runs'
    reports; the benchmark declares no direction for these."""
    def side(k: int, name: str) -> str:
        return _median_quartiles(quartiles([pair[k]["named_metrics"][name] for pair in pairs]))

    names = pairs[0][0]["named_metrics"]
    return [f"{name}: parent {side(0, name)}  change {side(1, name)}" for name in names]


def pair_lines(pairs: list[tuple[dict, dict]]) -> list[str]:
    """Per pair, each side's ``peak_rss_mb`` at the requests its run
    attempted, then each side's ``machine_speed``."""
    lines = []
    for k, sides in enumerate(pairs, 1):
        rss = [f"{r['metrics']['peak_rss_mb']['value']:.2f}@{r['attempted']}" for r in sides]
        speed = [f"{r['machine_speed']:.3f}" for r in sides]
        lines.append(f"peak_rss_mb@requests pair {k}: parent {rss[0]} change {rss[1]}")
        lines.append(f"machine_speed pair {k}: parent {speed[0]} change {speed[1]}")
    return lines


def format_row(row: dict) -> str:
    return (
        f"{row['name']} ({row['unit']}, {row['better']} is better): "
        f"parent {_median_quartiles(row['parent'])}  change {_median_quartiles(row['change'])}  "
        f"change wins {row['wins']}/{row['pairs']}  parent IQR {row['parent_iqr']:.6g}"
    )


def unpack(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` written under ``dest``; a revision
    git cannot archive exits 2 with one line."""
    git = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True)
    if git.returncode:
        sys.stderr.write(f"bench_pairs: cannot archive {rev}: {git.stderr.decode().strip()}\n")
        raise SystemExit(2)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git.stdout, check=True)


def run_side(checkout: Path, args: argparse.Namespace) -> dict:
    """The result object, the last stdout line, of one benchmark run, with
    the named metrics and the machine speed of the report line before it."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_pairs: run in {checkout} exited {done.returncode}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    result["named_metrics"] = report["named_metrics"]
    result["machine_speed"] = report["machine_speed"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating benchmark pairs of two revisions")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, correct = [], True
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            checkouts[side] = Path(tmp) / side
            checkouts[side].mkdir()
            unpack(rev, checkouts[side])
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            results = {side: run_side(checkouts[side], args) for side in order}
            correct = correct and all(r["correct"] is True for r in results.values())
            pairs.append((results["parent"], results["change"]))
            ops = {side: results[side]["metrics"]["ops_per_s"]["value"] for side in order}
            print(f"pair {k} ({order[0]} first): ops_per_s {ops}", file=sys.stderr)

    print(
        f"{args.workload}: {args.parent} -> {args.change}, "
        f"{len(pairs)} pairs of {args.seconds:g} s, seed {args.seed}"
    )
    rows = summary(pairs, end_to_end)
    for row in rows:
        print(format_row(row))
    for row in rows:
        print(f"verdict {row['name']}: {row['verdict']}")
    print(requests_line(pairs))
    print("\n".join(named_lines(pairs) + pair_lines(pairs)))
    if not correct:
        print("bench_pairs: a result has correct false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
