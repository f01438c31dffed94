"""Per-layer spans around tcplan's public functions, installed from outside.

A traced run wraps the functions and methods each layer offers, times
every call, and removes every wrapper when it ends, so that timed runs
never pay for them.  Spans are aggregated in memory by name (calls, total
time, self time = total minus the time of nested spans); only the
outermost spans, one or two per request, are kept one by one.

Module-level functions are wrapped in every tcplan namespace that holds
them, because ``cli`` and ``verifier`` import names such as
``catalog_space`` and ``config_distance`` directly.  Methods are wrapped
on their class; ``PlannerRule.section`` is a dataclass field, so it is
wrapped by a class-level property that hands out traced sections.
"""

from __future__ import annotations

import contextlib
import sys
import time

# span name -> (module, attribute) of a module-level function
FUNCTION_SPANS = {
    "cli.main": ("cli", "main"),
    "catalog.parse_spec": ("catalog", "parse_spec"),
    "catalog.catalog_space": ("catalog", "catalog_space"),
    "catalog.tc_bounds": ("catalog", "tc_bounds"),
    "graded_algebra.tensor_product": ("graded_algebra", "tensor_product"),
    "graded_algebra.zdcl": ("graded_algebra", "zdcl"),
    "graded_algebra.zero_divisor_basis": ("graded_algebra", "zero_divisor_basis"),
    "planner_core.build_planner": ("planner_core", "build_planner"),
    "planner_core.plan": ("planner_core", "plan"),
    "planner_core.sample_path": ("planner_core", "sample_path"),
    "geometry.config_distance": ("geometry", "config_distance"),
    "geometry.tangent_perturb": ("geometry", "tangent_perturb"),
    "geometry.random_point": ("geometry", "random_point"),
    "verifier.verify_planner": ("verifier", "verify_planner"),
    "verifier.reconcile": ("verifier", "reconcile"),
}
# span name -> (module, class, attribute) of a method
METHOD_SPANS = {
    "graded_algebra.validate": ("graded_algebra", "GradedAlgebra", "validate"),
    "graded_algebra.mul": ("graded_algebra", "AlgElement", "__mul__"),
    "graded_algebra.basis_product": ("graded_algebra", "GradedAlgebra", "basis_product"),
    "planner_core.plan_info": ("planner_core", "Planner", "plan_info"),
    "planner_core.weights": ("planner_core", "Planner", "weights"),
    "geometry.path_eval": ("geometry", "PathFn", "__call__"),
}
# span name -> (module, class, field) of a callable dataclass field
FIELD_SPANS = {
    "planner_core.section": ("planner_core", "PlannerRule", "section"),
}
SPAN_NAMES = tuple(sorted({**FUNCTION_SPANS, **METHOD_SPANS, **FIELD_SPANS}))

# derived per-layer metrics: name -> (unit, better)
RATIO_METRICS = {
    "planner_core.weights.calls_per_query": ("ratio", "lower"),
    "catalog.catalog_space.calls_per_request": ("ratio", "lower"),
    "graded_algebra.basis_product.memo_hit_ratio": ("ratio", "higher"),
    "verifier.continuity_checked_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.self_share": ("ratio", "higher"),
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_ms", "ms", "lower"))
    out += [(name, unit, better) for name, (unit, better) in RATIO_METRICS.items()]
    return out


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.outer: list[tuple[int, str, float]] = []  # (request, span, seconds)
        self.request = -1
        self.memo_lookups = 0
        self.memo_hits = 0
        self.missing: list[str] = []
        self._open: list[list[float]] = []  # nested-span time of each open span

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        outer = self.outer
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nested = [0.0]
            open_spans.append(nested)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                else:
                    outer.append((self.request, name, elapsed))
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - nested[0]

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def count_memo(self, basis_product):
        """Count lookups in the product memo of derived (tensor) algebras."""

        def counted(algebra, left, right):
            memo = getattr(algebra, "_memo", None)
            if memo is not None and getattr(algebra, "_table", None) is None:
                self.memo_lookups += 1
                self.memo_hits += (left, right) in memo
            return basis_product(algebra, left, right)

        return counted

    def self_seconds(self) -> float:
        return sum(stats[2] for stats in self.spans.values())


def _tcplan_namespaces():
    return [m for n, m in sorted(sys.modules.items()) if n == "tcplan" or n.startswith("tcplan.")]


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Install every span wrapper for the block's duration, then restore
    each patched attribute to exactly what it was."""
    patches: list[tuple[object, str, bool, object]] = []

    def patch(owner, attr, value):
        own = vars(owner)
        patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    try:
        for name, (module, attr) in FUNCTION_SPANS.items():
            original = getattr(getattr(package, module), attr, None)
            if original is None:
                tracer.missing.append(name)
                continue
            wrapper = tracer.wrap(name, original)
            for namespace in _tcplan_namespaces():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        patch(namespace, key, wrapper)
        for name, (module, cls_name, attr) in METHOD_SPANS.items():
            cls = getattr(getattr(package, module), cls_name)
            original = vars(cls).get(attr)
            if original is None:
                tracer.missing.append(name)
                continue
            if name == "graded_algebra.basis_product":
                original = tracer.count_memo(original)
            patch(cls, attr, tracer.wrap(name, original))
        for name, (module, cls_name, attr) in FIELD_SPANS.items():
            cls = getattr(getattr(package, module), cls_name)
            fields = getattr(cls, "__dataclass_fields__", {})
            if attr not in fields:
                tracer.missing.append(name)
                continue

            def get(obj, attr=attr, name=name):
                return tracer.wrap(name, obj.__dict__[attr])

            def put(obj, value, attr=attr):
                obj.__dict__[attr] = value

            get.perfbench_span = name

            patch(cls, attr, property(get, put))
        yield tracer
    finally:
        for owner, attr, had, original in reversed(patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def leftover_wrappers() -> list[str]:
    """Names in tcplan's namespaces and classes that still hold a wrapper."""
    found = []
    for namespace in _tcplan_namespaces():
        for key, value in vars(namespace).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{namespace.__name__}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, "perfbench_span") or hasattr(
                        getattr(member, "fget", None), "perfbench_span"
                    ):
                        found.append(f"{namespace.__name__}.{key}.{attr}")
    return sorted(set(found))
