"""Catalog of configuration spaces and motion-planner complexity bounds.

A space is named by a small symbolic grammar (``circle``, ``sphere:3``,
``torus:4``, ``product(sphere:2,sphere:2)``, ...).  ``parse_spec`` keeps the
user's spelling, which every report prints, and ``canonical`` rewrites it
once into its canonical form: ``torus:1`` is ``circle``, ``torus:n`` the
product of n circles, ``surface:0`` is ``sphere:2`` and ``surface:1`` the
product of two circles; a product is the product of its factors' canonical
forms, nesting kept.  The parser rejects a spec whose canonical form has
more than ``MAX_LEAVES`` = 64 leaves before it expands anything, and a leaf
whose cohomology basis would have more than ``MAX_LEAF_BASIS`` = 32 elements
(``surface:g`` for g > 15, ``cpn:n`` for n > 31).

Every catalog fact is read off one table, ``_LEAVES``, with a row per
canonical leaf kind (``convex``, ``circle``, ``sphere``, ``surface`` of genus
>= 2, ``cpn``): real dimension, rational cohomology preset, contractibility,
the Lusternik-Schnirelmann category taken from the literature, the exact
planner complexity where known and the rule count of the explicit planner.
``fold`` evaluates a canonical form bottom-up into a tree of descriptors, one
per node, and one product step combines the factor descriptors: dimensions
add, rule counts combine as sum - (k - 1), and so does the exact complexity
of any product of leaves.
Each leaf has TC = zcl + 1 (convex pieces 0 + 1, odd spheres 1 + 1, even
spheres 2 + 1, surfaces of genus >= 2 4 + 1, CP^n 2n + 1), so the
superadditive cup-length below gives sum - (k - 1) from below, as the
product inequality does from above.  A descriptor builds its algebra, the
Kuenneth product of the leaf presets, only on first access.

``tc_bounds`` combines every available estimate:

lower bounds
    1 always; 2 for non-contractible spaces; the category when stored;
    and (zero-divisor cup-length) + 1 computed exactly from the algebra.
upper bounds
    2*dim + 1; 2*cat - 1 when the category is stored; for product spaces
    the factor bounds combined as  sum - (k - 1);  and ``rules``, the rule
    count of the space's explicit planner, where it has one.

Products get their factors' brackets in one pass, by recursing over the
factor descriptors the product node keeps: each node yields a plain tuple
of its two winning bounds, their provenances and its cup-length, and only
the top node is turned into a ``BoundsReport``.  Over Q the zero-divisor
cup-length is superadditive, zcl(A (x) B) >= zcl(A) + zcl(B): by Kuenneth,
the product (z (x) 1)(1 (x) w) of nonzero zero-divisor products z and w is
nonzero.  So the sum S of the factor cup-lengths is certified, and when
S + 1 already meets the best upper bound the product's algebra is never
built: the search in its tensor square could only return S again.  Every
leaf closes at zcl + 1, so for every catalog spec S + 1 meets the product
inequality; only a hand-built descriptor with an open bracket has its
product algebra searched, and that search is not kept.

A process reuses what two kinds of ``functools.lru_cache`` hold: each preset
builder keeps its 32 most recently used presets, shared by every
descriptor, and ``_cup_length`` keeps the searched cup-length of each leaf
preset, so a leaf is searched once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable, TypeVar

from .graded_algebra import GradedAlgebra, tensor_product, validate_algebra, zdcl


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
MAX_LEAVES = 64
# Cap on a leaf's cohomology basis: its preset goes through validate() before
# any bound is taken, and the associativity triples validate() keeps still
# grow cubically for cpn:n (C(n, 3) of them; none for a surface).
MAX_LEAF_BASIS = 32
# Cohomology basis size of the leaf presets that grow with their parameter.
_BASIS_SIZE = {"surface": lambda genus: 2 * genus + 2, "cpn": lambda n: n + 1}


def _circle_count(spec: SpaceSpec) -> int:
    """How many circles a leaf spells: n for ``torus:n``, 2 for ``surface:1``."""
    if spec.kind == "torus":
        return spec.param
    return 2 if (spec.kind, spec.param) == ("surface", 1) else 0


def parse_spec(text: str) -> SpaceSpec:
    """Parse a space expression; whitespace-insensitive.

    Errors report the position of the offending token in the original text.
    A spec whose canonical form has more than ``MAX_LEAVES`` leaves is
    rejected as it is read (``torus:n`` counts n), so no parameter is ever
    expanded unbounded; products nested deeper than that are rejected too,
    and so is a leaf with more than ``MAX_LEAF_BASIS`` cohomology classes.
    """
    reader = _SpecReader(text)
    spec = reader.parse_one()
    reader.skip_ws()
    if reader.i != len(text):
        raise BadSpec("trailing input", reader.i)
    return spec


class _SpecReader:
    """``parse_spec``'s recursive descent: the text, the position ``i``, and
    the leaves and product depth read so far.  Its methods refer to no
    closure, so a parse leaves no reference cycle behind."""

    __slots__ = ("text", "i", "leaves", "depth")

    def __init__(self, text: str):
        self.text = text
        self.i = self.leaves = self.depth = 0

    def skip_ws(self):
        text, i = self.text, self.i
        while i < len(text) and text[i].isspace():
            i += 1
        self.i = i

    def parse_int(self) -> int:
        self.skip_ws()
        text, start = self.text, self.i
        i = start
        if i < len(text) and text[i] == "-":
            i += 1
        while i < len(text) and "0" <= text[i] <= "9":  # ASCII only: '²'.isdigit()
            i += 1
        self.i = i
        if i == start or text[start:i] == "-":
            raise BadSpec("expected an integer", start)
        return int(text[start:i])

    def parse_name(self) -> tuple[str, int]:
        self.skip_ws()
        text, start = self.text, self.i
        i = start
        while i < len(text) and (text[i].isalnum() or text[i] == "_"):
            i += 1
        self.i = i
        if i == start:
            raise BadSpec("expected a space name", start)
        return text[start:i], start

    def expect(self, ch: str):
        self.skip_ws()
        if self.i >= len(self.text) or self.text[self.i] != ch:
            raise BadSpec(f"expected {ch!r}", self.i)
        self.i += 1

    def parse_one(self) -> SpaceSpec:
        name, start = self.parse_name()
        if name == "product":
            self.depth += 1
            if self.depth > MAX_LEAVES:  # every product adds a leaf
                raise UnsupportedParameter(f"products nested more than {MAX_LEAVES} deep")
            self.expect("(")
            factors = [self.parse_one()]
            self.skip_ws()
            while self.i < len(self.text) and self.text[self.i] == ",":
                self.i += 1
                factors.append(self.parse_one())
                self.skip_ws()
            self.expect(")")
            if len(factors) < 2:
                raise BadSpec("product needs at least two factors", start)
            self.depth -= 1
            return SpaceSpec("product", factors=tuple(factors))
        if name == "circle":
            spec = SpaceSpec("circle")
        elif name in _PARAM_KINDS:
            self.expect(":")
            value = self.parse_int()
            if value < _PARAM_KINDS[name]:
                raise UnsupportedParameter(
                    f"{name}:{value} is out of range (need >= {_PARAM_KINDS[name]})"
                )
            if name in _BASIS_SIZE and _BASIS_SIZE[name](value) > MAX_LEAF_BASIS:
                raise UnsupportedParameter(
                    f"{name}:{value} has more than {MAX_LEAF_BASIS} cohomology classes"
                )
            spec = SpaceSpec(name, param=value)
        else:
            raise BadSpec(f"unknown space name {name!r}", start)
        self.leaves += _circle_count(spec) or 1
        if self.leaves > MAX_LEAVES:
            raise UnsupportedParameter(
                f"space has more than {MAX_LEAVES} leaves (torus:n counts n)"
            )
        return spec


def canonical(spec: SpaceSpec) -> SpaceSpec:
    """The canonical form of a space: each alias leaf becomes what it names.

    ``torus:1`` is ``circle``, ``torus:n`` the product of n circles,
    ``surface:0`` is ``sphere:2`` and ``surface:1`` the product of two
    circles; a product is the product of its factors' canonical forms, with
    the nesting kept.  Canonical forms are fixed points: a spec already in
    canonical form is returned itself.
    """
    if spec.kind == "product":
        factors = tuple(map(canonical, spec.factors))
        return spec if factors == spec.factors else SpaceSpec("product", factors=factors)
    circles = _circle_count(spec)
    if circles:
        circle = SpaceSpec("circle")
        return circle if circles == 1 else SpaceSpec("product", factors=(circle,) * circles)
    if (spec.kind, spec.param) == ("surface", 0):
        return SpaceSpec("sphere", 2)
    return spec


_T = TypeVar("_T")


def fold(
    form: SpaceSpec,
    leaf: Callable[[SpaceSpec], _T],
    product: Callable[[SpaceSpec, list[_T]], _T],
) -> _T:
    """Evaluate a canonical form bottom-up: ``leaf`` at each leaf, and
    ``product`` on each product node and its factor values."""
    if form.kind == "product":
        return product(form, [fold(f, leaf, product) for f in form.factors])
    return leaf(form)


# -- cohomology presets --------------------------------------------------------

# Each builder keeps its 32 most recently used presets.  Callers share those
# instances and must not mutate them.  Product algebras are built per
# descriptor and never shared.


@lru_cache(maxsize=32)
def point_algebra() -> GradedAlgebra:
    """H of a point: Q in degree 0, generated by nothing."""
    algebra = validate_algebra(
        {"basis": [{"name": "1", "degree": 0}], "unit": "1", "products": []},
        name="H(point)",
    )
    algebra.generators = ()
    return algebra


@lru_cache(maxsize=32)
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


@lru_cache(maxsize=32)
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


@lru_cache(maxsize=32)
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


# -- space descriptors ----------------------------------------------------------


@dataclass(frozen=True)
class SpaceDescriptor:
    """A catalog configuration space with its metadata.

    ``spec`` is the space as spelled by the caller and ``form`` its canonical
    form.  ``cat`` is the Lusternik-Schnirelmann category (a literature
    constant stored as metadata, never computed here); ``known_tc`` is filled
    only where the planner complexity is known exactly, and ``rules`` only
    where an explicit planner exists.  A product node keeps the descriptors
    of its factors in ``factors``, one per factor of ``form``; a leaf has
    none.  ``algebra``, the rational cohomology, is built by
    ``build_algebra`` on first access.  A product node's ``build_algebra``
    tensors its factors' cached ``algebra``, so a factor's algebra is built
    once however deeply it is nested.
    """

    spec: SpaceSpec
    form: SpaceSpec
    geometry_dim: int
    contractible: bool
    cat: int | None
    known_tc: int | None
    rules: int | None
    build_algebra: Callable[[], GradedAlgebra] = field(compare=False, repr=False)
    factors: tuple["SpaceDescriptor", ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def algebra(self) -> GradedAlgebra:
        return self.build_algebra()


def _leaf(form, dim, algebra, contractible, cat, known_tc, rules) -> SpaceDescriptor:
    return SpaceDescriptor(form, form, dim, contractible, cat, known_tc, rules, algebra)


def _sphere(form: SpaceSpec, n: int) -> SpaceDescriptor:
    by_parity = 2 if n % 2 else 3
    return _leaf(form, n, partial(sphere_algebra, n), False, 2, by_parity, by_parity)


# One row per canonical leaf kind: the leaf form's descriptor.
# A surface of genus >= 2 has TC 5: its cup-length bound meets the dimension bound.
# CP^n has cat n + 1 (Cornea-Lupton-Oprea-Tanre) and TC 2n + 1
# (Farber-Tabachnikov-Yuzvinsky): its cup-length bound meets the category bound.
_LEAVES: dict[str, Callable[[SpaceSpec], SpaceDescriptor]] = {
    "convex": lambda f: _leaf(f, f.param, point_algebra, True, 1, 1, 1),
    "circle": lambda f: _sphere(f, 1),
    "sphere": lambda f: _sphere(f, f.param),
    "surface": lambda f: _leaf(f, 2, partial(surface_algebra, f.param), False, 3, 5, None),
    "cpn": lambda f: _leaf(
        f, 2 * f.param, partial(cpn_algebra, f.param), False, f.param + 1, 2 * f.param + 1, None
    ),
}


def _combined(values: list[int | None]) -> int | None:
    """The product inequality's value sum - (k - 1), if every factor has one."""
    if any(v is None for v in values):
        return None
    return sum(values) - (len(values) - 1)


def _product(form: SpaceSpec, parts: list[SpaceDescriptor]) -> SpaceDescriptor:
    """The descriptor of the product ``form`` over its factors' descriptors."""
    return SpaceDescriptor(
        spec=form,
        form=form,
        geometry_dim=sum(p.geometry_dim for p in parts),
        contractible=all(p.contractible for p in parts),
        cat=None,
        known_tc=_combined([p.known_tc for p in parts]),
        rules=_combined([p.rules for p in parts]),
        build_algebra=lambda: reduce(tensor_product, [p.algebra for p in parts]),
        factors=tuple(parts),
    )


def catalog_space(spec: SpaceSpec | str) -> SpaceDescriptor:
    """Build the descriptor for a space expression.  A spec spelled in its
    canonical form is the top node's own ``spec``; only an alias spelling
    gets a copy of the top node that keeps it."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    node = fold(canonical(spec), lambda leaf: _LEAVES[leaf.kind](leaf), _product)
    return node if node.spec is spec else replace(node, spec=spec)


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


# -- searched cup-lengths -------------------------------------------------------


@lru_cache(maxsize=128)  # room for every preset the four builders keep
def _cup_length(algebra: GradedAlgebra) -> int:
    """``zdcl(algebra).length`` of a shared leaf preset, kept per process."""
    return zdcl(algebra).length


def _bracket(node: SpaceDescriptor) -> tuple[int, str, int, str, int]:
    """``(lower, its provenance, upper, its provenance, zero-divisor
    cup-length)`` of one node of the descriptor tree.

    The upper candidates, in order of precedence, are the planner rule
    count, the product inequality, the dimension bound and the category
    bound; the lower ones are contractibility, the cup-length bound, the
    category and non-contractibility.  Of equal candidates the first so
    listed wins: a candidate listed before the current winner replaces it
    when it is as good, one listed after only when it is strictly better.
    """
    factors = [_bracket(f) for f in node.factors]

    upper, upper_why = 2 * node.geometry_dim + 1, "dimension bound"
    if factors:
        total = sum(f[2] for f in factors) - (len(factors) - 1)
        if total <= upper:
            upper, upper_why = total, "product inequality"
    if node.rules is not None and node.rules <= upper:
        upper, upper_why = node.rules, "planner rule count"
    if node.cat is not None and 2 * node.cat - 1 < upper:
        upper, upper_why = 2 * node.cat - 1, "category bound"

    if not factors:  # a leaf's builder returns its shared preset
        cup_length = _cup_length(node.build_algebra())
    else:
        cup_length = sum(f[4] for f in factors)
        if cup_length + 1 != upper:
            cup_length = zdcl(node.algebra).length

    lower, lower_why = cup_length + 1, "cup-length lower bound"
    if node.contractible and lower <= 1:
        lower, lower_why = 1, "contractible"
    if node.cat is not None and node.cat > lower:
        lower, lower_why = node.cat, "category lower bound"
    if not node.contractible and lower < 2:
        lower, lower_why = 2, "non-contractible"
    return lower, lower_why, upper, upper_why, cup_length


def _tc_bounds(descriptor: SpaceDescriptor) -> tuple[BoundsReport, int]:
    """The bounds report and the zero-divisor cup-length behind it."""
    lower, lower_why, upper, upper_why, cup_length = _bracket(descriptor)
    report = BoundsReport(
        str(descriptor.spec), lower, upper, lower_why, upper_why, lower == upper
    )
    return report, cup_length


def tc_bounds(descriptor: SpaceDescriptor) -> BoundsReport:
    """Best certified bounds for the descriptor.

    The upper bound ``descriptor.rules``, where set, is witnessed by the
    space's explicit planner (``build_planner`` has that many rules); product
    factors contribute their own rule counts when the product inequality is
    applied recursively.  A leaf's cup-length is searched once per preset
    and process (see the module docstring).
    """
    return _tc_bounds(descriptor)[0]
