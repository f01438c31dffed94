"""Tests of the benchmark itself: seeded inputs, the rank cap, trace hygiene.

    python3 -m pytest perfbench -q
"""

import itertools
import json

import pytest

import run
import tracing
from workloads import (
    WORKLOADS,
    betti_rank,
    bounds_stream,
    literature_tc,
    rank_cap,
    spec_text,
)

TC = run.import_tcplan()


def _prepared(name, tmp_path):
    workload = WORKLOADS[name]()
    workload.setup(TC, tmp_path)
    return workload


def _key(req):
    args = {}
    for k, v in req.args.items():
        if k == "planner":
            continue
        args[k] = v.flat.tolist() if hasattr(v, "flat") else v
    return (req.kind, req.spec, sorted(args.items()))


def _inputs(workload, seed, count=60):
    return [_key(r) for r in itertools.islice(workload.requests(seed), count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name, tmp_path):
    workload = _prepared(name, tmp_path)
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_bounds_specs_stay_under_the_rank_cap():
    checked = set()
    for seed in range(5):
        for req in itertools.islice(bounds_stream(seed, 8), 400):
            if req.kind != "bounds":
                continue
            leaves = req.args["leaves"]
            assert betti_rank(leaves) <= rank_cap(leaves) <= 32, req.spec
            if len(checked) < 25 and req.spec not in checked:
                checked.add(req.spec)
                # the benchmark's rank formula agrees with the program's algebra
                assert TC.catalog.catalog_space(req.spec).algebra.dim == betti_rank(leaves)


def test_literature_table():
    cases = {
        (("sphere", 2),): 3,
        (("sphere", 3),): 2,
        (("torus", 3),): 4,
        (("surface", 1),): 3,
        (("surface", 5),): 5,
        (("cpn", 3),): 7,
        (("convex", 2),): 1,
        (("circle", None), ("convex", 2)): 2,
        (("sphere", 2), ("sphere", 2)): 5,
        (("torus", 2), ("circle", None)): 4,
        (("sphere", 2), ("sphere", 3)): None,
        (("cpn", 2), ("circle", None)): None,
    }
    for leaves, tc in cases.items():
        assert literature_tc(leaves) == tc, spec_text(leaves)


def _snapshot():
    out = {}
    for namespace in tracing._tcplan_namespaces():
        for key, value in vars(namespace).items():
            out[(namespace.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(namespace.__name__, key, attr)] = member
    return out


def _assert_unchanged(before):
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_wrappers_are_removed(name, tmp_path):
    workload = _prepared(name, tmp_path)
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, TC.package):
        assert tracing.leftover_wrappers()
        run.run_pass(workload, 3, 0.0, workload.block, tracer)
    assert tracer.spans and not tracer.missing
    assert tracing.leftover_wrappers() == []
    _assert_unchanged(before)


def test_trace_wrappers_are_removed_after_an_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), TC.package):
            raise RuntimeError("stop")
    assert tracing.leftover_wrappers() == []
    _assert_unchanged(before)


def test_benchmark_json_names_match_the_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracing.per_layer_names()
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_latencies_scale_by_the_surrounding_probes():
    result = run.PassResult(
        latencies=[0.004, 0.004],
        starts=[1.0, 3.0],
        probes=[(0.0, 0.002), (2.0, 0.004), (4.0, 0.004)],
    )
    ref = run.PROBE_REF_S
    assert result.scaled() == pytest.approx([0.004 * ref / 0.003, 0.004 * ref / 0.004])
