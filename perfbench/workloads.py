"""The three workloads of the tcplan benchmark.

Each workload has a set-up step (timed as ``setup_s``), a seeded request
stream that is fully determined by the seed, the program call that is
timed per request, and an output check that counts a failure without
aborting the run.  Requests come in blocks whose composition is fixed
(verify: one round over the planners; plan: one query per spec; bounds:
nine bounds requests and one algebra request), and a run only stops at a
block boundary, so every run sees the same mix.

Nothing here imports tcplan at module level: the caller passes the
imported modules to ``setup``, so the parent process stays free of it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# -- literature values -----------------------------------------------------------

# Leaf spaces of the bounds-mixed grammar, as (kind, parameter).
LEAVES = (
    (("circle", None),)
    + tuple(("sphere", n) for n in range(1, 7))
    + tuple(("torus", n) for n in range(2, 7))
    + tuple(("surface", g) for g in range(8))
    + tuple(("cpn", n) for n in range(1, 6))
    + tuple(("convex", n) for n in range(1, 4))
)
RANK_CAP = 32  # total rational Betti rank of a generated bounds spec
# With a contractible factor the cup-length search falls back to every
# positive label, and its cost grows far faster than the rank: at rank 30,
# product(cpn:5,cpn:4,convex:3) takes 13.6 s.  Rank 16 keeps that fallback
# (product(torus:4,convex:3) takes 12 times as long as torus:4) within a run.
FALLBACK_RANK_CAP = 16


def leaf_text(leaf) -> str:
    kind, param = leaf
    return kind if param is None else f"{kind}:{param}"


def spec_text(leaves) -> str:
    if len(leaves) == 1:
        return leaf_text(leaves[0])
    return "product(" + ",".join(leaf_text(l) for l in leaves) + ")"


def betti_rank(leaves) -> int:
    """Total rational Betti rank: the product of the leaves' ranks."""
    ranks = {
        "circle": lambda p: 2,
        "sphere": lambda p: 2,
        "torus": lambda p: 2**p,
        "surface": lambda p: 2 * p + 2,
        "cpn": lambda p: p + 1,
        "convex": lambda p: 1,
    }
    return math.prod(ranks[kind](param) for kind, param in leaves)


def _sphere_dims(leaf):
    """Sphere dimensions of a leaf that is a product of spheres, else None."""
    kind, param = leaf
    if kind == "circle":
        return [1]
    if kind == "sphere":
        return [param]
    if kind == "torus":
        return [1] * param
    if kind == "surface" and param <= 1:
        return [2] if param == 0 else [1, 1]
    return None


def literature_tc(leaves) -> int | None:
    """TC of a product of leaves where the literature fixes it, else None.

    Spheres: 2 for odd, 3 for even dimension; n-torus: n + 1; surfaces: 3 for
    genus <= 1, 5 above (Farber, Topological complexity of motion planning);
    CP^n: 2n + 1 (Farber, Instabilities of robot motion, cs/0205015);
    contractible spaces: 1.  Products of k spheres of one dimension m:
    k + 1 for odd m, 2k + 1 for even m.  Contractible factors are dropped by
    homotopy invariance.
    """
    essential = [leaf for leaf in leaves if leaf[0] != "convex"]
    if not essential:
        return 1
    if len(essential) == 1:
        kind, param = essential[0]
        if kind == "surface" and param >= 2:
            return 5
        if kind == "cpn":
            return 2 * param + 1
    dims = []
    for leaf in essential:
        leaf_dims = _sphere_dims(leaf)
        if leaf_dims is None:
            return None
        dims += leaf_dims
    if len(set(dims)) != 1:
        return None
    k = len(dims)
    return k + 1 if dims[0] % 2 else 2 * k + 1


# -- plumbing --------------------------------------------------------------------


@dataclass
class Request:
    kind: str
    spec: str
    args: dict = field(default_factory=dict)


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Call ``tcplan.cli.main`` in-process and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# -- verify-catalog ------------------------------------------------------------------


class VerifyCatalog:
    """``tcplan verify`` over the eight acceptance planners, one round per block."""

    name = "verify-catalog"
    SPECS = (
        ("convex:3", "elementary"),
        ("circle", "elementary"),
        ("sphere:2", "elementary"),
        ("sphere:3", "elementary"),
        ("torus:2", "product"),
        ("torus:3", "product"),
        ("torus:4", "product"),
        ("product(sphere:2,sphere:2)", "product"),
    )
    PAIRS = 50  # random pairs per request, on top of the adversarial injection
    block = len(SPECS)
    min_ops = 13 * len(SPECS)  # >= 10 requests beyond the p90
    trace_ops = len(SPECS)
    tail_pct = 90

    def setup(self, tc, workdir: Path) -> None:
        self.cli = tc.cli
        for spec, _ in self.SPECS:
            tc.planner_core.build_planner(spec)
            tc.catalog.catalog_space(spec)

    def requests(self, seed: int):
        rng = random.Random(seed)
        while True:
            for spec, group in self.SPECS:
                yield Request("verify", spec, {"seed": rng.randrange(2**31), "group": group})

    def call(self, req: Request):
        argv = ["verify", req.spec, "--seed", str(req.args["seed"]), "--pairs", str(self.PAIRS)]
        return run_cli(self.cli, argv)

    def check(self, req: Request, out) -> tuple[bool, bytes, dict]:
        code, text = out
        payload = _json_or_none(text)
        if payload is None:
            return False, text.encode(), {}
        reconcile = payload.get("reconcile")
        ok = (
            code == 0
            and payload.get("passed") is True
            and isinstance(reconcile, dict)
            and "error" not in reconcile
        )
        info = {
            "queries": payload["pairs_checked"],
            "continuity_checked": payload["continuity"]["checked"],
        }
        return ok, text.encode(), info

    def describe(self, req: Request) -> dict:
        return {"group": req.args["group"]}

    def properties(self, infos) -> dict:
        return {
            "random_pairs_per_request": self.PAIRS,
            "pairs_per_request": sum(i.get("queries", 0) for i in infos) / len(infos),
        }

    def named_metrics(self, metrics, latencies, infos) -> dict:
        """Verified pairs (random plus adversarial) per second, per planner group."""
        out = {}
        for group in ("elementary", "product"):
            rows = [(t, i.get("queries", 0)) for t, i in zip(latencies, infos) if i["group"] == group]
            out[f"verify_{group}_pairs_per_s"] = sum(q for _, q in rows) / sum(t for t, _ in rows)
        return out


# -- plan-products -------------------------------------------------------------------


class PlanProducts:
    """Single ``plan`` + ``sample_path`` queries on product planners."""

    name = "plan-products"
    SPECS = (
        "torus:2",
        "torus:4",
        "torus:6",
        "torus:8",
        "product(sphere:2,sphere:2)",
        "product(sphere:2,sphere:2,sphere:2)",
        "product(sphere:2,sphere:2,sphere:2,sphere:2)",
        "product(sphere:2,sphere:2,sphere:2,sphere:2,sphere:2)",
        "product(circle,sphere:3,sphere:2,convex:2)",
    )
    SAMPLES = 17  # the CLI default
    BOUNDARY_SHARE = 0.25
    TOL = 1e-9
    block = len(SPECS)
    min_ops = 112 * len(SPECS)  # >= 10 queries beyond the p99
    trace_ops = 40 * len(SPECS)
    tail_pct = 99

    def setup(self, tc, workdir: Path) -> None:
        self.np = tc.np
        self.make_point = tc.geometry.make_point
        self.planner_core = tc.planner_core
        self.planners = [tc.planner_core.build_planner(spec) for spec in self.SPECS]

    def requests(self, seed: int):
        np = self.np
        rng = np.random.default_rng(seed)
        while True:
            for index in rng.permutation(len(self.SPECS)):
                planner = self.planners[index]
                factors = planner.geometry.factors
                a = [self._random_part(f, rng) for f in factors]
                b = [self._random_part(f, rng) for f in factors]
                boundary = bool(rng.random() < self.BOUNDARY_SHARE)
                if boundary:
                    count = int(rng.integers(1, len(factors) + 1))
                    for i in sorted(rng.choice(len(factors), size=count, replace=False)):
                        antipodal = factors[i].kind == "sphere" and rng.random() < 0.5
                        b[i] = -a[i] if antipodal else a[i].copy()
                yield Request(
                    "plan",
                    self.SPECS[index],
                    {
                        "planner": planner,
                        "a": self.make_point(planner.geometry, a),
                        "b": self.make_point(planner.geometry, b),
                        "boundary": boundary,
                    },
                )

    def _random_part(self, factor, rng):
        if factor.kind == "sphere":
            v = rng.standard_normal(factor.ambient)
            return v / self.np.linalg.norm(v)
        return rng.uniform(-1.0, 1.0, factor.ambient)

    def call(self, req: Request):
        args = req.args
        result = self.planner_core.plan(args["planner"], args["a"], args["b"])
        return result.rule_index, self.planner_core.sample_path(result.path, self.SAMPLES)

    def check(self, req: Request, out) -> tuple[bool, bytes, dict]:
        np = self.np
        rule_index, samples = out
        a, b = req.args["a"], req.args["b"]
        ok = (
            len(samples) == self.SAMPLES
            and np.linalg.norm(samples[0][1].flat - a.flat) <= self.TOL
            and np.linalg.norm(samples[-1][1].flat - b.flat) <= self.TOL
        )
        slots = [i for i, f in enumerate(a.geometry.factors) if f.kind == "sphere"]
        for _, point in samples:
            for slot in slots:
                ok = ok and abs(float(np.linalg.norm(point.parts[slot])) - 1.0) <= self.TOL
        text = repr((req.spec, rule_index, [(t, p.flat.tolist()) for t, p in samples]))
        return bool(ok), text.encode(), {}

    def describe(self, req: Request) -> dict:
        return {"queries": 1, "boundary": req.args["boundary"]}

    def properties(self, infos) -> dict:
        return {"boundary_query_share": sum(i["boundary"] for i in infos) / len(infos)}

    def named_metrics(self, metrics, latencies, infos) -> dict:
        return {
            "plan_p50_ms": metrics["p50_ms"],
            "plan_p99_ms": metrics["tail_ms"],
            "plan_qps": metrics["ops_per_s"],
        }


# -- bounds-mixed ----------------------------------------------------------------------


class BoundsMixed:
    """``tcplan bounds`` on seeded specs, with one ``tcplan algebra`` request in ten."""

    name = "bounds-mixed"
    ALGEBRA_SPECS = (
        (("sphere", 2),),
        (("sphere", 3),),
        (("torus", 2),),
        (("surface", 2),),
        (("cpn", 2),),
        (("cpn", 3),),
        (("cpn", 5),),
        (("sphere", 2), ("sphere", 3)),
    )
    MAX_LEN = 4
    block = 10
    min_ops = 10 * block  # >= 10 requests beyond the p90
    trace_ops = 10 * block
    tail_pct = 90

    def setup(self, tc, workdir: Path) -> None:
        self.cli = tc.cli
        self.files = []
        self.canonical_length = []
        for leaves in self.ALGEBRA_SPECS:
            algebra = tc.catalog.catalog_space(spec_text(leaves)).algebra
            path = workdir / f"algebra-{len(self.files)}.json"
            path.write_text(json.dumps(tc.graded_algebra.algebra_to_presentation(algebra)))
            loaded = tc.graded_algebra.validate_algebra(json.loads(path.read_text()))
            result = tc.graded_algebra.zdcl(loaded, mode="canonical", max_len=self.MAX_LEN)
            self.files.append(str(path))
            self.canonical_length.append(result.length)

    def requests(self, seed: int):
        return bounds_stream(seed, len(self.ALGEBRA_SPECS))

    def call(self, req: Request):
        if req.kind == "bounds":
            return run_cli(self.cli, ["bounds", req.spec])
        argv = ["algebra", "--file", self.files[req.args["file"]], "--max-len", str(self.MAX_LEN)]
        if req.args["exhaustive"]:
            argv.append("--exhaustive")
        return run_cli(self.cli, argv)

    def check(self, req: Request, out) -> tuple[bool, bytes, dict]:
        code, text = out
        payload = _json_or_none(text)
        if code != 0 or payload is None:
            return False, text.encode(), {}
        if req.kind == "bounds":
            tc = literature_tc(req.args["leaves"])
            ok = payload["lower"] <= payload["upper"] and (
                tc is None or payload["lower"] <= tc <= payload["upper"]
            )
        else:
            index = req.args["file"]
            tc = literature_tc(self.ALGEBRA_SPECS[index])
            ok = payload["length"] == self.canonical_length[index] and (
                tc is None or payload["length"] + 1 <= tc
            )
        return ok, text.encode(), {}

    def describe(self, req: Request) -> dict:
        if req.kind != "bounds":
            return {"kind": req.kind, "exhaustive": req.args["exhaustive"]}
        leaves = req.args["leaves"]
        return {
            "kind": "bounds",
            "spec": req.spec,
            "repeat": req.args["repeat"],
            "product": len(leaves) > 1,
            "contractible_factor": len(leaves) > 1 and any(k == "convex" for k, _ in leaves),
        }

    def properties(self, infos) -> dict:
        bounds = [i for i in infos if i["kind"] == "bounds"]
        products = [i for i in bounds if i["product"]]
        return {
            "repeat_share": sum(i["repeat"] for i in bounds) / len(bounds),
            "contractible_factor_share_of_products": (
                sum(i["contractible_factor"] for i in products) / max(1, len(products))
            ),
            "product_share": len(products) / len(bounds),
            "distinct_specs": len({i["spec"] for i in bounds}),
            "algebra_request_share": (len(infos) - len(bounds)) / len(infos),
        }

    def named_metrics(self, metrics, latencies, infos) -> dict:
        return {
            "bounds_p50_ms": metrics["p50_ms"],
            "bounds_p90_ms": metrics["tail_ms"],
            "bounds_per_s": metrics["ops_per_s"],
        }


def rank_cap(leaves) -> int:
    return FALLBACK_RANK_CAP if any(kind == "convex" for kind, _ in leaves) else RANK_CAP


def random_leaves(rng: random.Random) -> tuple:
    """One leaf or a product of two or three, redrawn until under the rank cap."""
    while True:
        leaves = tuple(rng.choice(LEAVES) for _ in range(rng.randint(1, 3)))
        if betti_rank(leaves) <= rank_cap(leaves):
            return leaves


RANK_BANDS = (2, 4, 8, 16, 32)  # upper edges of the rank bands of a spec class
SCHEDULE_LENGTH = 400  # new specs per pass through the class schedule


def spec_class(leaves) -> tuple:
    """What sets a spec's cost: a single leaf is its own class; a product's
    class is whether it has a contractible factor, and its rank band."""
    if len(leaves) == 1:
        return leaves
    rank = betti_rank(leaves)
    return (
        any(kind == "convex" for kind, _ in leaves),
        next(i for i, edge in enumerate(RANK_BANDS) if rank <= edge),
    )


@functools.lru_cache(maxsize=None)
def class_schedule() -> tuple:
    """Spec classes in their natural proportions, SCHEDULE_LENGTH in all.

    Bounds request costs range over four orders of magnitude; drawing each
    class a fixed number of times per pass keeps seeds from differing in how
    many heavy specs they ask, which otherwise moves the p90 by a fifth.
    """
    rng = random.Random(0)
    counts = collections.Counter(spec_class(random_leaves(rng)) for _ in range(20_000))
    total = sum(counts.values())
    schedule = []
    for cls, count in sorted(counts.items(), key=repr):
        schedule += [cls] * round(SCHEDULE_LENGTH * count / total)
    return tuple(schedule)


def bounds_stream(seed: int, algebra_files: int):
    """Blocks of ten: nine bounds requests and one algebra request at a seeded
    position.  New specs follow a seeded shuffle of the class schedule; they
    recur by chance, so about 55% of the bounds requests of a run repeat an
    earlier spec."""
    rng = random.Random(seed)
    seen: set[str] = set()
    pending: list = []
    while True:
        algebra_at = rng.randrange(10)
        for position in range(10):
            if position == algebra_at:
                yield Request(
                    "algebra",
                    "",
                    {"file": rng.randrange(algebra_files), "exhaustive": rng.random() < 0.5},
                )
                continue
            if not pending:
                pending = rng.sample(class_schedule(), len(class_schedule()))
            wanted = pending.pop()
            leaves = random_leaves(rng)
            while spec_class(leaves) != wanted:
                leaves = random_leaves(rng)
            spec = spec_text(leaves)
            yield Request("bounds", spec, {"leaves": leaves, "repeat": spec in seen})
            seen.add(spec)


WORKLOADS = {w.name: w for w in (VerifyCatalog, PlanProducts, BoundsMixed)}
