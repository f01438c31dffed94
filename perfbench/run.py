#!/usr/bin/env python3
"""tcplan benchmark: one workload per invocation, every metric from one command.

    python3 perfbench/run.py --workload plan-products --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it imports tcplan from the
checkout's ``src`` and nothing else.  The workload runs in child processes
(single thread, closed loop, one client waiting for each reply), so that
``setup_s`` and ``peak_rss_mb`` belong to it alone.

With ``--trace 0`` one child runs for ``--seconds`` (whole blocks, and at
least the workload's minimum request count) and six more only set up;
``setup_s`` is the median of the seven set-ups.  Time metrics are scaled to
a reference machine speed measured by a fixed probe (see PROBE_REF_S).
With ``--trace 1`` one child runs the workload's first ``trace_ops``
requests three times, untraced, traced and untraced, and reports the
per-layer metrics and the tracing overhead; the request count is fixed so
that call counts repeat exactly.  The last line of stdout is the result
object; the line before it is a report with the output digest, workload
properties, the workload-specific metrics, the unscaled metrics and an
environment stamp.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY = 6  # processes that only set up: setup_s is a median of seven
# Every time metric is scaled to reference speed: multiplied by PROBE_REF_S
# over the duration of a fixed probe measured next to it.  On a shared
# machine the speed of this code drifts by up to 1.7x within minutes as the
# neighbours' load changes; the scaling cut the spread of 10-second
# throughput windows on 2 vCPUs from 11-12% to about 3%.  The report gives
# the unscaled values too.
PROBE_REF_S = 0.001
PROBE_EVERY_S = 0.25  # seconds between probes, taken at block boundaries
RUN_BUDGET_S = 170.0  # every child of one invocation must end within this
END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
)
CHILD_ENV = {  # fixed string hashing; NumPy's BLAS kept to the one client thread
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


# -- child process: set-up, passes and metrics ------------------------------------------


def import_tcplan() -> SimpleNamespace:
    """Import tcplan from this checkout's ``src``, refusing any other copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy

    import tcplan
    import tcplan.catalog
    import tcplan.cli
    import tcplan.geometry
    import tcplan.graded_algebra
    import tcplan.planner_core
    import tcplan.verifier

    if not Path(tcplan.__file__).resolve().is_relative_to(src):
        raise ChildFailed(f"tcplan was imported from {tcplan.__file__}, not from {src}")
    return SimpleNamespace(
        package=tcplan,
        cli=tcplan.cli,
        catalog=tcplan.catalog,
        geometry=tcplan.geometry,
        graded_algebra=tcplan.graded_algebra,
        planner_core=tcplan.planner_core,
        verifier=tcplan.verifier,
        np=numpy,
    )


# -- machine speed ------------------------------------------------------------------

def probe_once() -> float:
    """Seconds for a fixed piece of interpreter work: small tuples, dicts and
    lists being built, then an integer loop.  Of the probes tried, this mix
    followed the speed of tcplan's own code most closely."""
    start = time.perf_counter()
    rows = []
    for i in range(600):
        item = (i, float(i) * 0.5, str(i))
        rows.append({"a": item, "b": [item, item]})
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return time.perf_counter() - start


def probe(repeats: int = 3) -> float:
    return statistics.median(probe_once() for _ in range(repeats))


# -- passes ------------------------------------------------------------------------------


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # seconds, as measured
    starts: list[float] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)  # (clock, probe seconds)
    infos: list[dict] = field(default_factory=list)
    failed: int = 0
    digest: str = ""
    first_failure: str | None = None

    def scaled(self) -> list[float]:
        """Latencies at reference speed: each one times PROBE_REF_S over the
        mean of the probes taken just before and just after its block."""
        times = [t for t, _ in self.probes]
        out = []
        for start, latency in zip(self.starts, self.latencies):
            i = bisect.bisect_right(times, start)
            local = (self.probes[i - 1][1] + self.probes[min(i, len(times) - 1)][1]) / 2.0
            out.append(latency * PROBE_REF_S / local)
        return out


def run_pass(workload, seed: int, seconds: float, min_ops: int, tracer=None) -> PassResult:
    """Closed loop over the seeded stream: one request, wait, check, next.

    Stops at the first block boundary after ``seconds`` once ``min_ops``
    requests are done; the digest covers the first ``trace_ops`` outputs.
    The machine-speed probe runs at block boundaries, outside the requests.
    """
    result = PassResult()
    digest = hashlib.sha256()
    stream = workload.requests(seed)
    clock = time.perf_counter
    began = clock()
    count = 0
    while count < min_ops or count % workload.block or clock() - began < seconds:
        if count % workload.block == 0 and (
            not result.probes or clock() - result.probes[-1][0] >= PROBE_EVERY_S
        ):
            result.probes.append((clock(), probe()))
        req = next(stream)
        if tracer is not None:
            tracer.request = count
        start = clock()
        try:
            out = workload.call(req)
            error = None
        except Exception:  # a failing request is counted, never fatal
            error = traceback.format_exc()
        result.latencies.append(clock() - start)
        result.starts.append(start)
        info = workload.describe(req)
        ok, text = False, b""
        if error is None:
            try:
                ok, text, extra = workload.check(req, out)
                info.update(extra)
            except Exception:
                error = traceback.format_exc()
        if not ok:
            result.failed += 1
            if result.first_failure is None:
                result.first_failure = error or f"check failed on {req.kind} {req.spec}"
        if count < workload.trace_ops:
            digest.update(text + b"\n")
        result.infos.append(info)
        count += 1
    result.probes.append((clock(), probe()))
    result.digest = digest.hexdigest()
    return result


def op_metrics(workload, latencies: list[float], infos: list[dict]) -> dict:
    """Median, tail percentile and throughput per operation.

    An operation is a plan query, a bounds or algebra request, or a verified
    pair: a verify request's latency is shared over its pairs, and each
    share counts once per pair.
    """
    ops = [info.get("queries", 1) for info in infos]
    per_op = sorted((latency / n, n) for latency, n in zip(latencies, ops))
    total = sum(ops)

    def quantile_ms(q: float) -> float:
        seen = 0
        for value, n in per_op:
            seen += n
            if seen >= q * total:
                return value * 1000.0
        return per_op[-1][0] * 1000.0

    return {
        "p50_ms": quantile_ms(0.5),
        "tail_ms": quantile_ms(workload.tail_pct / 100.0),
        "ops_per_s": total / sum(latencies),
    }


def traced_run(workload, seed: int, tc) -> dict:
    """The first ``trace_ops`` requests untraced, traced, then untraced again;
    the overhead compares the traced pass with the mean of the other two."""
    before = run_pass(workload, seed, 0.0, workload.trace_ops)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tc.package):
        run = run_pass(workload, seed, 0.0, workload.trace_ops, tracer)
    leftover = tracing.leftover_wrappers()
    after = run_pass(workload, seed, 0.0, workload.trace_ops)
    traced_busy_s = sum(run.latencies)
    untraced_busy_s = (sum(before.latencies) + sum(after.latencies)) / 2.0

    metrics = {}
    for span in tracing.SPAN_NAMES:
        calls, _, self_s = tracer.spans.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_ms"] = self_s * 1000.0
    queries = sum(info.get("queries", 0) for info in run.infos)
    checked = sum(info.get("continuity_checked", 0) for info in run.infos)
    cli_requests = metrics["cli.main.calls"]
    metrics["planner_core.weights.calls_per_query"] = (
        metrics["planner_core.weights.calls"] / queries if queries else 0.0
    )
    metrics["catalog.catalog_space.calls_per_request"] = (
        metrics["catalog.catalog_space.calls"] / cli_requests if cli_requests else 0.0
    )
    metrics["graded_algebra.basis_product.memo_hit_ratio"] = (
        tracer.memo_hits / tracer.memo_lookups if tracer.memo_lookups else 0.0
    )
    metrics["verifier.continuity_checked_ratio"] = (
        checked / queries if checked and queries else 0.0
    )
    # the overhead compares speed-scaled times, so a shift in machine speed
    # between the passes does not read as tracing cost
    metrics["trace.overhead_ratio"] = sum(run.scaled()) / (
        (sum(before.scaled()) + sum(after.scaled())) / 2.0
    )
    metrics["trace.self_share"] = tracer.self_seconds() / traced_busy_s

    slowest = sorted(tracer.outer, key=lambda rec: rec[2], reverse=True)[:5]
    return {
        "metrics": metrics,
        "raw": before.latencies + run.latencies + after.latencies,
        "infos": run.infos,
        "failed": before.failed + run.failed + after.failed,
        "first_failure": before.first_failure or run.first_failure or after.first_failure,
        "digest": run.digest,
        "digests_untraced": [before.digest, after.digest],
        "leftover_wrappers": leftover,
        "unwrapped_spans": tracer.missing,
        "untraced_busy_s": untraced_busy_s,
        "traced_busy_s": traced_busy_s,
        "slowest_requests": [
            {"request": no, "span": name, "ms": seconds * 1000.0} for no, name, seconds in slowest
        ],
    }


def child_main(args) -> dict:
    start = time.perf_counter()
    tc = import_tcplan()
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(tc, workdir)
        setup_raw_s = time.perf_counter() - start
        setup_s = setup_raw_s * PROBE_REF_S / probe(5)
        if args.child == "setup":
            return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
        if args.child == "trace":
            body = traced_run(workload, args.seed, tc)
        else:
            run = run_pass(workload, args.seed, args.seconds, workload.min_ops)
            body = {
                "scaled": run.scaled(),
                "raw": run.latencies,
                "speed": PROBE_REF_S / statistics.median(p for _, p in run.probes),
                "infos": run.infos,
                "failed": run.failed,
                "first_failure": run.first_failure,
                "digest": run.digest,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    body["setup_s"] = setup_s
    body["setup_raw_s"] = setup_raw_s
    body["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    body["numpy"] = tc.np.__version__
    return body


# -- parent process: orchestration and output ---------------------------------------------


def run_child(mode: str, args, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    proc = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip()[-4000:] or f"child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; a plain
    source tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tcplan benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run", "trace"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    if not (ROOT / "src" / "tcplan" / "__init__.py").is_file():
        print(f"perfbench: no tcplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]()
    try:
        body = run_child("trace" if args.trace else "run", args, deadline)
        setups = [body["setup_s"]]
        setups_raw = [body["setup_raw_s"]]
        if not args.trace:
            for _ in range(SETUP_ONLY):
                setup = run_child("setup", args, deadline)
                setups.append(setup["setup_s"])
                setups_raw.append(setup["setup_raw_s"])
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = len(body["raw"])
    failed = body["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": failed / attempted,
        "first_failure": body["first_failure"],
        "digest": body["digest"],
        "digest_requests": workload.trace_ops,
        "properties": workload.properties(body["infos"]),
    }
    if args.trace:
        metrics = body["metrics"]
        units = {name: unit for name, unit, _ in tracing.per_layer_names()}
        consistent = set(body["digests_untraced"]) == {body["digest"]}
        consistent = consistent and not body["leftover_wrappers"]
        report.update(
            {k: body[k] for k in ("untraced_busy_s", "traced_busy_s", "slowest_requests")},
            unwrapped_spans=body["unwrapped_spans"],
            leftover_wrappers=body["leftover_wrappers"],
        )
    else:
        latencies = body["scaled"]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": body["peak_rss_mb"],
            **op_metrics(workload, latencies, body["infos"]),
        }
        units = dict(END_TO_END)
        consistent = True
        report.update(
            requests=attempted,
            tail_percentile=workload.tail_pct,
            named_metrics=workload.named_metrics(metrics, latencies, body["infos"]),
            machine_speed=body["speed"],
            raw_metrics={
                "setup_s": statistics.median(setups_raw),
                **op_metrics(workload, body["raw"], body["infos"]),
            },
            setup_s_runs=setups,
        )
    report["environment"] = {
        "python": platform.python_version(),
        "numpy": body["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and consistent,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
