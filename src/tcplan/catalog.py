"""Catalog of configuration spaces and motion-planner complexity bounds.

A space is named by a small symbolic grammar (``circle``, ``sphere:3``,
``torus:4``, ``product(sphere:2,sphere:2)``, ...).  Each catalog entry
carries its real dimension, its rational cohomology algebra, an optional
Lusternik-Schnirelmann category value taken from the literature, and the
planner complexity where an exact value is known.

``tc_bounds`` combines every available estimate:

lower bounds
    1 always; 2 for non-contractible spaces; the category when stored;
    and (zero-divisor cup-length) + 1 computed exactly from the algebra.
upper bounds
    2*dim + 1; 2*cat - 1 when the category is stored; for product spaces
    the factor bounds combined as  sum - (k - 1);  and the rule count of
    an explicitly constructed planner when the caller provides one.

Product-like spaces (products, ``torus:n`` as n circles, ``surface:1`` as
two circles) get their factors' reports in one pass.  Over Q the
zero-divisor cup-length is superadditive, zcl(A (x) B) >= zcl(A) + zcl(B):
by Kuenneth, the product (z (x) 1)(1 (x) w) of nonzero zero-divisor
products z and w is nonzero.  So the sum S of the factor cup-lengths is
certified, and when S + 1 already meets the best upper bound the search in
the product's tensor square is skipped: it could only return S again.

The cohomology presets of dimension at most 32 are built and validated once
per process and then shared, together with their lazily filled product
memos and tensor squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from operator import itemgetter

from .graded_algebra import (
    GradedAlgebra,
    TensorProductAlgebra,
    tensor_product,
    validate_algebra,
    zdcl,
)


class BadSpec(ValueError):
    """Space expression failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedParameter(ValueError):
    """Space expression parsed but a parameter is out of range."""


@dataclass(frozen=True)
class SpaceSpec:
    """Parsed space expression: a leaf kind with parameter, or a product."""

    kind: str
    param: int | None = None
    factors: tuple["SpaceSpec", ...] = ()

    def __str__(self) -> str:
        if self.kind == "product":
            return "product(" + ",".join(str(f) for f in self.factors) + ")"
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param}"


_PARAM_KINDS = {"sphere": 1, "surface": 0, "cpn": 1, "torus": 1, "convex": 1}


def parse_spec(text: str) -> SpaceSpec:
    """Parse a space expression; whitespace-insensitive.

    Errors report the position of the offending token in the original text.
    """
    i = 0

    def skip_ws():
        nonlocal i
        while i < len(text) and text[i].isspace():
            i += 1

    def parse_int() -> int:
        nonlocal i
        skip_ws()
        start = i
        if i < len(text) and text[i] == "-":
            i += 1
        while i < len(text) and text[i].isdigit():
            i += 1
        if i == start or text[start:i] == "-":
            raise BadSpec("expected an integer", start)
        return int(text[start:i])

    def parse_name() -> tuple[str, int]:
        nonlocal i
        skip_ws()
        start = i
        while i < len(text) and (text[i].isalnum() or text[i] == "_"):
            i += 1
        if i == start:
            raise BadSpec("expected a space name", start)
        return text[start:i], start

    def expect(ch: str):
        nonlocal i
        skip_ws()
        if i >= len(text) or text[i] != ch:
            raise BadSpec(f"expected {ch!r}", i)
        i += 1

    def parse_one() -> SpaceSpec:
        nonlocal i
        name, start = parse_name()
        if name == "product":
            expect("(")
            factors = [parse_one()]
            skip_ws()
            while i < len(text) and text[i] == ",":
                i += 1
                factors.append(parse_one())
                skip_ws()
            expect(")")
            if len(factors) < 2:
                raise BadSpec("product needs at least two factors", start)
            return SpaceSpec("product", factors=tuple(factors))
        if name == "circle":
            return SpaceSpec("circle")
        if name in _PARAM_KINDS:
            expect(":")
            value = parse_int()
            if value < _PARAM_KINDS[name]:
                raise UnsupportedParameter(
                    f"{name}:{value} is out of range (need >= {_PARAM_KINDS[name]})"
                )
            return SpaceSpec(name, param=value)
        raise BadSpec(f"unknown space name {name!r}", start)

    spec = parse_one()
    skip_ws()
    if i != len(text):
        raise BadSpec("trailing input", i)
    return spec


# -- cohomology presets --------------------------------------------------------

# Presets of dimension at most _PRESET_CACHE_MAX_DIM are memoized per
# parameter; callers share those instances and must not mutate them.  Larger
# presets are rebuilt on each call, so a process that once asks for, say,
# torus:10 does not keep it, its product memo and its tensor square alive.
_PRESET_CACHE_MAX_DIM = 32


def _preset(dim_of):
    """Memoize a preset builder for the parameters where ``dim_of`` is small."""

    def wrap(builder):
        cached = lru_cache(maxsize=32)(builder)

        @wraps(builder)
        def build(*args):
            small = dim_of(*args) <= _PRESET_CACHE_MAX_DIM
            return (cached if small else builder)(*args)

        build.cache_clear = cached.cache_clear
        return build

    return wrap


@_preset(lambda: 1)
def point_algebra() -> GradedAlgebra:
    """H of a point: Q in degree 0, generated by nothing."""
    algebra = validate_algebra(
        {"basis": [{"name": "1", "degree": 0}], "unit": "1", "products": []},
        name="H(point)",
    )
    algebra.generators = ()
    return algebra


@_preset(lambda n: 2)
def sphere_algebra(n: int) -> GradedAlgebra:
    """H of the n-sphere: one generator u in degree n with u*u = 0."""
    algebra = validate_algebra(
        {
            "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": n}],
            "unit": "1",
            "products": [{"left": "u", "right": "u", "result": []}],
        },
        name=f"H(S^{n})",
    )
    algebra.generators = ("u",)
    return algebra


def circle_algebra() -> GradedAlgebra:
    return sphere_algebra(1)


@_preset(lambda n: n + 1)
def cpn_algebra(n: int) -> GradedAlgebra:
    """H of complex projective n-space: truncated polynomial ring on u, |u| = 2."""
    labels = ["1"] + [f"u^{k}" if k > 1 else "u" for k in range(1, n + 1)]
    products = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            result = [{"name": labels[i + j], "coeff": "1"}] if i + j <= n else []
            products.append({"left": labels[i], "right": labels[j], "result": result})
    algebra = validate_algebra(
        {
            "basis": [{"name": labels[k], "degree": 2 * k} for k in range(n + 1)],
            "unit": "1",
            "products": products,
        },
        name=f"H(CP^{n})",
    )
    algebra.generators = ("u",)
    return algebra


@_preset(lambda genus: 2 * genus + 2)
def surface_algebra(genus: int) -> GradedAlgebra:
    """H of a closed orientable surface of genus >= 2, as a symplectic system.

    Degree-1 classes u_i, v_i with u_i v_i = A (the top class) and all other
    products of distinct generators zero; sign-rule completion fills in
    v_i u_i = -A.
    """
    if genus < 2:
        raise UnsupportedParameter("surface_algebra expects genus >= 2")
    basis = [{"name": "1", "degree": 0}]
    gens = []
    for k in range(1, genus + 1):
        gens += [f"u{k}", f"v{k}"]
    basis += [{"name": g, "degree": 1} for g in gens]
    basis.append({"name": "A", "degree": 2})
    products = [
        {"left": f"u{k}", "right": f"v{k}", "result": [{"name": "A", "coeff": "1"}]}
        for k in range(1, genus + 1)
    ]
    algebra = validate_algebra(
        {"basis": basis, "unit": "1", "products": products},
        name=f"H(Sigma_{genus})",
    )
    algebra.generators = tuple(gens)
    return algebra


def kunneth(a: GradedAlgebra, b: GradedAlgebra) -> TensorProductAlgebra:
    """Cohomology of a product space: the tensor product with the sign rule."""
    return tensor_product(a, b)


@_preset(lambda n: 2**n)
def torus_algebra(n: int) -> GradedAlgebra:
    """H of the n-torus as an iterated product of circle algebras."""
    if n == 1:
        return circle_algebra()
    algebra = reduce(kunneth, [circle_algebra() for _ in range(n)])
    algebra.name = f"H(T^{n})"
    return algebra


# -- space descriptors ----------------------------------------------------------


@dataclass(frozen=True)
class SpaceDescriptor:
    """A catalog configuration space with its algebra and metadata.

    ``cat`` is the Lusternik-Schnirelmann category (a literature constant
    stored as metadata, never computed here); ``known_tc`` is filled only
    where the planner complexity is known exactly, with a provenance note.
    """

    spec: SpaceSpec
    geometry_dim: int
    algebra: GradedAlgebra
    contractible: bool
    cat: int | None = None
    known_tc: int | None = None
    known_tc_provenance: str | None = None


def _equal_sphere_leaves(spec: SpaceSpec) -> list[int] | None:
    """Sphere dimensions of the factors, if the space is a product of spheres.

    Tori and genus <= 1 surfaces count through their sphere decompositions;
    convex pieces are contractible and add no sphere (TC is a homotopy
    invariant, so dropping a contractible factor leaves it unchanged); any
    other leaf disqualifies the space.
    """
    if spec.kind == "convex":
        return []
    if spec.kind == "circle":
        return [1]
    if spec.kind == "sphere":
        return [spec.param]
    if spec.kind == "torus":
        return [1] * spec.param
    if spec.kind == "surface":
        if spec.param == 0:
            return [2]
        if spec.param == 1:
            return [1, 1]
        return None
    if spec.kind == "product":
        out: list[int] = []
        for f in spec.factors:
            leaves = _equal_sphere_leaves(f)
            if leaves is None:
                return None
            out += leaves
        return out
    return None


def catalog_space(spec: SpaceSpec | str) -> SpaceDescriptor:
    """Build the descriptor for a space expression."""
    if isinstance(spec, str):
        spec = parse_spec(spec)

    if spec.kind == "convex":
        return SpaceDescriptor(
            spec, spec.param, point_algebra(), contractible=True, cat=1,
            known_tc=1, known_tc_provenance="contractible",
        )
    if spec.kind == "circle":
        return SpaceDescriptor(
            spec, 1, circle_algebra(), contractible=False, cat=2,
            known_tc=2, known_tc_provenance="circle planner",
        )
    if spec.kind == "sphere":
        n = spec.param
        return SpaceDescriptor(
            spec, n, sphere_algebra(n), contractible=False, cat=2,
            known_tc=2 if n % 2 else 3,
            known_tc_provenance="sphere planner (by parity)",
        )
    if spec.kind == "torus":
        n = spec.param
        return SpaceDescriptor(
            spec, n, torus_algebra(n), contractible=False, cat=n + 1,
            known_tc=n + 1, known_tc_provenance="product of circles",
        )
    if spec.kind == "surface":
        g = spec.param
        if g == 0:
            return SpaceDescriptor(
                spec, 2, sphere_algebra(2), contractible=False, cat=2,
                known_tc=3, known_tc_provenance="genus-0 surface is a 2-sphere",
            )
        if g == 1:
            return SpaceDescriptor(
                spec, 2, torus_algebra(2), contractible=False, cat=3,
                known_tc=3, known_tc_provenance="genus-1 surface is a 2-torus",
            )
        return SpaceDescriptor(
            spec, 2, surface_algebra(g), contractible=False, cat=3,
            known_tc=5, known_tc_provenance="surface cup-length meets the dimension bound",
        )
    if spec.kind == "cpn":
        n = spec.param
        return SpaceDescriptor(
            spec, 2 * n, cpn_algebra(n), contractible=False,
            cat=None, known_tc=None,
        )
    if spec.kind == "product":
        parts = [catalog_space(f) for f in spec.factors]
        algebra = reduce(kunneth, [p.algebra for p in parts])
        dim = sum(p.geometry_dim for p in parts)
        contractible = all(p.contractible for p in parts)
        known_tc = None
        provenance = None
        if contractible:
            known_tc, provenance = 1, "contractible"
        else:
            leaves = _equal_sphere_leaves(spec)
            if leaves and len(set(leaves)) == 1:
                m, n = leaves[0], len(leaves)
                known_tc = n + 1 if m % 2 else 2 * n + 1
                provenance = f"product of {n} spheres of dimension {m}"
                if any(p.contractible for p in parts):
                    provenance += " and contractible factors"
        return SpaceDescriptor(
            spec, dim, algebra, contractible=contractible,
            known_tc=known_tc, known_tc_provenance=provenance,
        )
    raise BadSpec(f"unknown spec kind {spec.kind!r}", 0)


def planner_rule_count(spec: SpaceSpec | str) -> int | None:
    """Rule count of the explicit planner for this space, if one exists.

    Mirrors the planner constructions without building them: 1 for convex
    pieces, 2 or 3 for spheres by parity, and the product combination
    sum - (k - 1) for product-like spaces.  None where no explicit planner
    is available (higher-genus surfaces, complex projective spaces).
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.kind == "convex":
        return 1
    if spec.kind == "circle":
        return 2
    if spec.kind == "sphere":
        return 2 if spec.param % 2 else 3
    if spec.kind == "torus":
        return spec.param + 1
    if spec.kind == "surface":
        return 3 if spec.param <= 1 else None
    if spec.kind == "product":
        counts = [planner_rule_count(f) for f in spec.factors]
        if any(c is None for c in counts):
            return None
        return sum(counts) - (len(counts) - 1)
    return None


@dataclass(frozen=True)
class BoundsReport:
    """Certified bracket lower <= TC <= upper with the winning rule named."""

    space: str
    lower: int
    upper: int
    lower_provenance: str
    upper_provenance: str
    exact: bool

    def as_dict(self) -> dict:
        return {
            "space": self.space,
            "lower": self.lower,
            "upper": self.upper,
            "lower_provenance": self.lower_provenance,
            "upper_provenance": self.upper_provenance,
            "exact": self.exact,
        }


def _zdcl_length(descriptor: SpaceDescriptor) -> int:
    algebra = descriptor.algebra
    return zdcl(
        algebra,
        mode="canonical",
        max_len=max(1, 2 * descriptor.geometry_dim),
        generators=algebra.generators,
    ).length


def _factor_specs(spec: SpaceSpec) -> tuple[SpaceSpec, ...]:
    """Factors of a product-like space; empty for every other space."""
    if spec.kind == "product":
        return spec.factors
    if spec.kind == "torus" and spec.param >= 2:
        return tuple(SpaceSpec("circle") for _ in range(spec.param))
    if spec.kind == "surface" and spec.param == 1:
        return (SpaceSpec("circle"), SpaceSpec("circle"))
    return ()


def _tc_bounds(
    descriptor: SpaceDescriptor, rule_count: int | None
) -> tuple[BoundsReport, int]:
    """The bounds report and the zero-divisor cup-length behind it."""
    factors = [
        _tc_bounds(catalog_space(f), planner_rule_count(f))
        for f in _factor_specs(descriptor.spec)
    ]

    uppers: list[tuple[int, str]] = []
    if rule_count is not None:
        uppers.append((rule_count, "planner rule count"))
    if factors:
        total = sum(report.upper for report, _ in factors)
        uppers.append((total - (len(factors) - 1), "product inequality"))
    uppers.append((2 * descriptor.geometry_dim + 1, "dimension bound"))
    if descriptor.cat is not None:
        uppers.append((2 * descriptor.cat - 1, "category bound"))
    upper, upper_why = min(uppers, key=itemgetter(0))  # first of equals wins

    cup_length = sum(length for _, length in factors)
    if not factors or cup_length + 1 != upper:
        cup_length = _zdcl_length(descriptor)

    lowers: list[tuple[int, str]] = []
    if descriptor.contractible:
        lowers.append((1, "contractible"))
    lowers.append((cup_length + 1, "cup-length lower bound"))
    if descriptor.cat is not None:
        lowers.append((descriptor.cat, "category lower bound"))
    if not descriptor.contractible:
        lowers.append((2, "non-contractible"))
    lower, lower_why = max(lowers, key=itemgetter(0))

    report = BoundsReport(
        space=str(descriptor.spec),
        lower=lower,
        upper=upper,
        lower_provenance=lower_why,
        upper_provenance=upper_why,
        exact=lower == upper,
    )
    return report, cup_length


def tc_bounds(
    descriptor: SpaceDescriptor, planner_rule_count: int | None = None
) -> BoundsReport:
    """Best certified bounds for the descriptor.

    ``planner_rule_count`` is an upper bound witnessed by an actually
    constructed planner; product factors contribute their own known rule
    counts when the product inequality is applied recursively.
    """
    return _tc_bounds(descriptor, planner_rule_count)[0]
