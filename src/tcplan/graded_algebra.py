"""Exact arithmetic in finite graded-commutative algebras over the rationals.

An algebra is presented by a finite basis with nonnegative integer degrees,
a distinguished unit in degree 0, and a sparse multiplication table with
rational coefficients.  The motivating instances are cohomology rings of
spheres, surfaces, tori and complex projective spaces.

On top of the ring arithmetic this module provides

* the tensor square ``A (x) A`` with the Koszul sign convention
      (u1 (x) v1) * (u2 (x) v2) = (-1)^(|v1| |u2|)  u1 u2 (x) v1 v2,
* the multiplication homomorphism  ``A (x) A -> A``  sending ``a (x) b``
  to ``a b`` (for a cohomology ring this is the cup product),
* an exact kernel basis for that homomorphism (the "zero divisors"),
* a bounded search for the longest nonvanishing product of zero divisors
  (the zero-divisor cup-length), whose length + 1 is a lower bound for
  the motion-planner complexity of the underlying space.

Everything here is exact: coefficients are ``fractions.Fraction`` and no
floating point enters any computation.  All values are immutable after
construction and every operation is a pure function, so the module is safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence


class AlgebraError(ValueError):
    """Base class for algebra presentation and arithmetic errors."""


class UnitMissing(AlgebraError):
    """No unique degree-0 unit, or the unit law fails for some basis element."""


class GradingViolation(AlgebraError):
    """A structure constant lands in the wrong degree."""


class CommutativityViolation(AlgebraError):
    """products(a, b) != (-1)^(|a||b|) products(b, a) for some basis pair."""


class AssociativityViolation(AlgebraError):
    """(ab)c != a(bc) for some basis triple."""


class AlgebraMismatch(AlgebraError):
    """Operands belong to different algebras, or the wrong kind of algebra."""


class EmptyGeneratorSet(AlgebraError):
    """A canonical cup-length search was given no generators."""


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'p/q' string.

    Decimal notation is rejected: coefficients must be exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value.lower():
            raise AlgebraError(f"coefficient {value!r} is not a decimal-free rational")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise AlgebraError(f"bad rational literal {value!r}: {exc}") from exc
    raise AlgebraError(f"coefficient {value!r} must be an int or a 'p/q' string")


def _clean(coeffs: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """Canonical sparse form: drop zero coefficients."""
    return {k: v for k, v in coeffs.items() if v != 0}


class GradedAlgebra:
    """A finite graded-commutative algebra over Q, given by structure constants.

    ``products`` may be a full table (``dict[(label, label), dict]``) for
    presented algebras, or a function computing one product at a time for
    derived algebras (tensor products), in which case results are memoized.
    Pairs absent from a table multiply to zero.

    Instances are immutable by convention; the memo cache only ever gains
    idempotently-computed entries, so shared use across threads is safe.
    """

    def __init__(
        self,
        basis: Sequence[tuple[str, int]],
        unit: str,
        products,
        name: str = "algebra",
        generators: tuple[str, ...] | None = None,
    ):
        self.labels: tuple[str, ...] = tuple(label for label, _ in basis)
        self.degree: dict[str, int] = {label: deg for label, deg in basis}
        self.unit = unit
        self.name = name
        self.generators = generators
        self._index = {label: i for i, label in enumerate(self.labels)}
        if callable(products):
            self._table = None
            self._product_fn = products
        else:
            self._table = products
            self._product_fn = None
        self._memo: dict[tuple[str, str], dict[str, Fraction]] = {}

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def top_degree(self) -> int:
        return max(self.degree.values())

    def positive_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.labels if self.degree[l] > 0)

    def basis_product(self, left: str, right: str) -> dict[str, Fraction]:
        """Structure constants of ``left * right`` as a sparse mapping."""
        if self._table is not None:
            return self._table.get((left, right), {})
        key = (left, right)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._product_fn(left, right)
        return hit

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: Mapping[str, Fraction | int | str]) -> "AlgElement":
        out = {}
        for label, c in coeffs.items():
            if label not in self.degree:
                raise AlgebraMismatch(f"label {label!r} is not in {self.name}")
            out[label] = parse_rational(c)
        return AlgElement(self, _clean(out))

    def basis_element(self, label: str) -> "AlgElement":
        return self.element({label: 1})

    @property
    def one(self) -> "AlgElement":
        return self.basis_element(self.unit)

    def __repr__(self):
        return f"<GradedAlgebra {self.name}: dim {self.dim}, top degree {self.top_degree}>"

    # -- validation ----------------------------------------------------------

    def validate(self) -> "GradedAlgebra":
        """Check the unit law, grading, graded commutativity and associativity.

        Raises the matching violation naming the offending basis pair or
        triple.  Quadratic (cubic for associativity) in the basis size, so
        meant for desk-scale algebras; derived tensor algebras of small
        presentations are still fine.
        """
        units = [l for l in self.labels if self.degree[l] == 0]
        if units != [self.unit] or self.unit not in self.degree:
            raise UnitMissing(
                f"{self.name}: expected exactly one degree-0 basis element equal to "
                f"the unit {self.unit!r}, found {units}"
            )
        for b in self.labels:
            if self.basis_product(self.unit, b) != {b: Fraction(1)} or self.basis_product(
                b, self.unit
            ) != {b: Fraction(1)}:
                raise UnitMissing(f"{self.name}: unit law fails at ({self.unit!r}, {b!r})")
        for a, b in itertools.product(self.labels, repeat=2):
            prod = self.basis_product(a, b)
            want = self.degree[a] + self.degree[b]
            for term, c in prod.items():
                if c != 0 and self.degree[term] != want:
                    raise GradingViolation(
                        f"{self.name}: ({a!r}, {b!r}) has term {term!r} of degree "
                        f"{self.degree[term]}, expected {want}"
                    )
            sign = -1 if (self.degree[a] * self.degree[b]) % 2 else 1
            flipped = {k: sign * v for k, v in self.basis_product(b, a).items()}
            if _clean(dict(prod)) != _clean(flipped):
                raise CommutativityViolation(
                    f"{self.name}: ({a!r}, {b!r}) vs ({b!r}, {a!r}) violate the sign rule"
                )
        for a, b, c in itertools.product(self.labels, repeat=3):
            left = self.basis_element(a) * self.basis_element(b) * self.basis_element(c)
            right = self.basis_element(a) * (self.basis_element(b) * self.basis_element(c))
            if left != right:
                raise AssociativityViolation(f"{self.name}: ({a!r}, {b!r}, {c!r})")
        return self


class AlgElement:
    """A sparse rational combination of basis labels of one algebra.

    Zero coefficients are never stored, so ``==`` is coefficient equality.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GradedAlgebra, coeffs: dict[str, Fraction]):
        self.algebra = algebra
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_same(self, other: "AlgElement"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch(
                f"elements of {self.algebra.name} and {other.algebra.name} cannot be combined"
            )

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check_same(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return AlgElement(self.algebra, _clean(out))

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.algebra, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        return self + (-other)

    def scale(self, c) -> "AlgElement":
        c = parse_rational(c)
        if c == 0:
            return AlgElement(self.algebra, {})
        return AlgElement(self.algebra, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "AlgElement") -> "AlgElement":
        self._check_same(other)
        out: dict[str, Fraction] = {}
        for la, ca in self.coeffs.items():
            for lb, cb in other.coeffs.items():
                for term, c in self.algebra.basis_product(la, lb).items():
                    out[term] = out.get(term, Fraction(0)) + ca * cb * c
        return AlgElement(self.algebra, _clean(out))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for label in self.algebra.labels:
            if label in self.coeffs:
                c = self.coeffs[label]
                parts.append(f"{c}*{label}" if c != 1 else label)
        return " + ".join(parts)

    def as_strings(self) -> dict[str, str]:
        """Coefficients as rational strings, in basis order (for JSON output)."""
        return {l: str(self.coeffs[l]) for l in self.algebra.labels if l in self.coeffs}


def multiply(x: AlgElement, y: AlgElement) -> AlgElement:
    """Product of two elements of the same algebra."""
    return x * y


# -- presentations ----------------------------------------------------------

_REQUIRED = object()


def _field(entry, key: str, kind: type = object, default=_REQUIRED):
    """``entry[key]`` of raw presentation data, checked to be a ``kind``.

    Malformed data (a presentation or entry that is not a mapping, a missing
    required key, a value of the wrong type; a string is no ``Sequence``) raises AlgebraError, never KeyError or
    TypeError.
    """
    if not isinstance(entry, Mapping):
        raise AlgebraError(f"expected a mapping, got {reprlib.repr(entry)}")
    if key not in entry:
        if default is _REQUIRED:
            raise AlgebraError(f"presentation entry {reprlib.repr(entry)} has no {key!r} field")
        return default
    value = entry[key]
    if not isinstance(value, kind) or (kind is Sequence and isinstance(value, (str, bytes))):
        raise AlgebraError(f"field {key!r} of {reprlib.repr(entry)} must be a {kind.__name__}")
    return value


def validate_algebra(presentation: Mapping, name: str | None = None) -> GradedAlgebra:
    """Build a GradedAlgebra from raw presentation data, checking every invariant.

    The presentation format matches the JSON schema consumed by the CLI::

        {"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2}],
         "unit": "1",
         "products": [{"left": "u", "right": "u", "result": []}]}

    Conventions that keep presentations small:

    * absent product entries default to zero;
    * products with the unit are filled in automatically (providing one
      that breaks the unit law is an error);
    * if only one of ``(a, b)`` / ``(b, a)`` is given, the other is filled
      in through the sign rule; if both are given they must agree with it.
    """
    basis_raw = _field(presentation, "basis", Sequence, default=None)
    if not basis_raw:
        raise AlgebraError("presentation has no basis")
    basis: list[tuple[str, int]] = []
    seen = set()
    for entry in basis_raw:
        label, deg = _field(entry, "name", str), _field(entry, "degree")
        if not isinstance(deg, int) or deg < 0:
            raise GradingViolation(f"basis element {label!r} has bad degree {deg!r}")
        if label in seen:
            raise AlgebraError(f"duplicate basis label {label!r}")
        seen.add(label)
        basis.append((label, deg))
    degree = dict(basis)

    unit = presentation.get("unit")
    zero_degree = [l for l, d in basis if d == 0]
    if not isinstance(unit, str) or degree.get(unit) != 0 or zero_degree != [unit]:
        raise UnitMissing(
            f"need exactly one degree-0 basis element equal to the unit, "
            f"got unit={unit!r} and degree-0 elements {zero_degree}"
        )

    given: dict[tuple[str, str], dict[str, Fraction]] = {}
    for entry in _field(presentation, "products", Sequence, default=[]):
        left, right = _field(entry, "left", str), _field(entry, "right", str)
        if left not in degree or right not in degree:
            raise AlgebraError(f"product entry ({left!r}, {right!r}) uses unknown labels")
        key = (left, right)
        if key in given:
            raise AlgebraError(f"duplicate product entry for ({left!r}, {right!r})")
        given[key] = _clean(
            {
                _field(t, "name", str): parse_rational(_field(t, "coeff"))
                for t in _field(entry, "result", Sequence, default=[])
            }
        )
        for term in given[key]:
            if term not in degree:
                raise AlgebraError(f"product ({left!r}, {right!r}) names unknown label {term!r}")

    table: dict[tuple[str, str], dict[str, Fraction]] = {}

    def put(a: str, b: str, value: dict[str, Fraction]):
        if value:
            table[(a, b)] = value

    labels = [l for l, _ in basis]
    for b in labels:
        for key, want in (((unit, b), b), ((b, unit), b)):
            if key in given and given[key] != {want: Fraction(1)}:
                raise UnitMissing(f"unit law fails at {key}: got {given[key]}")
        put(unit, b, {b: Fraction(1)})
        if b != unit:
            put(b, unit, {b: Fraction(1)})

    def koszul_flip(a: str, b: str, value: dict[str, Fraction]) -> dict[str, Fraction]:
        sign = -1 if (degree[a] * degree[b]) % 2 else 1
        return _clean({k: sign * v for k, v in value.items()})

    nonunit = [l for l in labels if l != unit]
    for i, a in enumerate(nonunit):
        for b in nonunit[i:]:
            ab, ba = given.get((a, b)), given.get((b, a))
            if a == b:
                value = ab if ab is not None else {}
                if koszul_flip(a, a, value) != value:
                    raise CommutativityViolation(
                        f"({a!r}, {a!r}): {value} must equal its own sign flip "
                        f"(odd-degree squares vanish over Q)"
                    )
                put(a, a, value)
                continue
            if ab is None and ba is None:
                continue
            if ab is not None and ba is not None:
                if koszul_flip(a, b, ab) != ba:
                    raise CommutativityViolation(
                        f"({a!r}, {b!r}) = {ab} and ({b!r}, {a!r}) = {ba} "
                        f"violate the sign rule"
                    )
            elif ab is not None:
                ba = koszul_flip(a, b, ab)
            else:
                ab = koszul_flip(b, a, ba)
            put(a, b, ab)
            put(b, a, ba)

    algebra = GradedAlgebra(basis, unit, table, name=name or presentation.get("name", "algebra"))
    return algebra.validate()


def algebra_to_presentation(algebra: GradedAlgebra) -> dict:
    """Export an algebra as presentation data (inverse of validate_algebra)."""
    return {
        "name": algebra.name,
        "basis": [{"name": l, "degree": algebra.degree[l]} for l in algebra.labels],
        "unit": algebra.unit,
        "products": [
            {
                "left": a,
                "right": b,
                "result": [
                    {"name": t, "coeff": str(c)}
                    for t, c in algebra.basis_product(a, b).items()
                ],
            }
            for a in algebra.labels
            for b in algebra.labels
            if algebra.unit not in (a, b) and algebra.basis_product(a, b)
        ],
    }


# -- tensor products ---------------------------------------------------------


class TensorProductAlgebra(GradedAlgebra):
    """Tensor product of two graded algebras with the Koszul sign rule.

    Basis labels are formal pairs; ``pair_of`` maps a label back to its
    (left, right) constituents and ``pair_label`` goes the other way.
    Products are computed lazily from the factors and memoized, which keeps
    large tensor squares (e.g. of a rank-64 torus algebra) usable without
    materializing a 4096 x 4096 table.
    """

    def __init__(self, left: GradedAlgebra, right: GradedAlgebra):
        self.left = left
        self.right = right
        self.pair_of: dict[str, tuple[str, str]] = {}
        self._pair_label: dict[tuple[str, str], str] = {}
        basis = []
        for la in left.labels:
            for lb in right.labels:
                label = f"{la}⊗{lb}"
                self.pair_of[label] = (la, lb)
                self._pair_label[(la, lb)] = label
                basis.append((label, left.degree[la] + right.degree[lb]))
        unit = self._pair_label[(left.unit, right.unit)]
        gens = None
        if left.generators is not None and right.generators is not None:
            gens = tuple(self._pair_label[(g, right.unit)] for g in left.generators) + tuple(
                self._pair_label[(left.unit, g)] for g in right.generators
            )
        super().__init__(
            basis,
            unit,
            self._pair_product,
            name=f"{left.name}(x){right.name}",
            generators=gens,
        )

    def pair_label(self, la: str, lb: str) -> str:
        return self._pair_label[(la, lb)]

    def _pair_product(self, x: str, y: str) -> dict[str, Fraction]:
        l1, r1 = self.pair_of[x]
        l2, r2 = self.pair_of[y]
        sign = -1 if (self.right.degree[r1] * self.left.degree[l2]) % 2 else 1
        out: dict[str, Fraction] = {}
        for tl, cl in self.left.basis_product(l1, l2).items():
            for tr, cr in self.right.basis_product(r1, r2).items():
                label = self._pair_label[(tl, tr)]
                out[label] = out.get(label, Fraction(0)) + sign * cl * cr
        return _clean(out)

    def simple(self, la: str, lb: str) -> AlgElement:
        """The basis element ``la (x) lb``."""
        return self.basis_element(self._pair_label[(la, lb)])


def tensor_product(a: GradedAlgebra, b: GradedAlgebra) -> TensorProductAlgebra:
    return TensorProductAlgebra(a, b)


def tensor_square(a: GradedAlgebra) -> TensorProductAlgebra:
    """The tensor square of ``a``, cached per algebra instance."""
    cached = getattr(a, "_tensor_square_cache", None)
    if cached is None:
        cached = a._tensor_square_cache = TensorProductAlgebra(a, a)
    return cached


def canonical_divisor(a: GradedAlgebra, label: str) -> AlgElement:
    """The element ``1 (x) x - x (x) 1`` of the tensor square, for basis label x.

    It always lies in the kernel of the multiplication homomorphism, and the
    known sharp lower-bound witnesses are products of these.
    """
    square = tensor_square(a)
    return square.element(
        {square.pair_label(a.unit, label): 1, square.pair_label(label, a.unit): -1}
    )


def cup_hom(z: AlgElement) -> AlgElement:
    """Multiplication homomorphism of a tensor square: ``a (x) b`` maps to ``a b``."""
    t = z.algebra
    if not isinstance(t, TensorProductAlgebra) or t.left is not t.right:
        raise AlgebraMismatch("cup_hom needs an element of a tensor square")
    a = t.left
    out: dict[str, Fraction] = {}
    for label, c in z.coeffs.items():
        la, lb = t.pair_of[label]
        for term, s in a.basis_product(la, lb).items():
            out[term] = out.get(term, Fraction(0)) + c * s
    return AlgElement(a, _clean(out))


# -- exact nullspace ----------------------------------------------------------


def rational_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the nullspace of a rational matrix, by fraction-exact RREF.

    Returns one vector per free column, with a 1 in the free position; the
    order follows the column order, so results are deterministic.
    """
    m = [row[:] for row in rows]
    nrows = len(m)
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[rank])]
        pivots.append((rank, col))
        rank += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in pivots:
            vec[c] = -m[r][free]
        basis.append(vec)
    return basis


def zero_divisor_basis(a: GradedAlgebra) -> list[AlgElement]:
    """Exact basis of the kernel of cup_hom on the tensor square of ``a``.

    Computed degreewise: within each degree the homomorphism is a rational
    matrix from tensor-pair labels to the algebra's labels, and the kernel
    is its exact nullspace.
    """
    square = tensor_square(a)
    by_degree: dict[int, list[str]] = {}
    for label in square.labels:
        by_degree.setdefault(square.degree[label], []).append(label)
    target_by_degree: dict[int, list[str]] = {}
    for label in a.labels:
        target_by_degree.setdefault(a.degree[label], []).append(label)

    out: list[AlgElement] = []
    for deg in sorted(by_degree):
        cols = by_degree[deg]
        targets = target_by_degree.get(deg, [])
        row_index = {t: i for i, t in enumerate(targets)}
        matrix = [[Fraction(0)] * len(cols) for _ in targets]
        for j, label in enumerate(cols):
            la, lb = square.pair_of[label]
            for term, c in a.basis_product(la, lb).items():
                matrix[row_index[term]][j] += c
        for vec in rational_nullspace(matrix, len(cols)):
            out.append(
                AlgElement(square, _clean({cols[j]: vec[j] for j in range(len(cols))}))
            )
    return out


# -- zero-divisor cup-length ---------------------------------------------------


@dataclass(frozen=True)
class ZdclResult:
    """Longest nonvanishing product of zero divisors found by a bounded search.

    ``length`` is the number of factors, each factor maps to zero under
    cup_hom, and ``product_value`` is their (nonzero) product; an empty
    witness means no zero divisor exists and the value is the tensor unit.
    The length is always a certified lower bound for the true cup-length.
    """

    length: int
    witness: tuple[AlgElement, ...]
    product_value: AlgElement


def zdcl(
    a: GradedAlgebra,
    mode: str = "canonical",
    max_len: int | None = None,
    generators: Sequence[str] | None = None,
) -> ZdclResult:
    """Search for the longest nonzero product of zero divisors of ``a``.

    canonical mode multiplies divisors ``1 (x) g - g (x) 1`` for ``g`` in
    ``generators`` (default: every positive-degree basis label; empty only
    for an algebra concentrated in degree 0, whose length is 0), with
    repeated factors allowed: squares of canonical divisors are exactly what
    the even-sphere witnesses need.  exhaustive mode multiplies elements of
    the full kernel basis instead and serves as the desk-scale oracle.

    Factors commute up to sign, so the search runs over multisets
    (nondecreasing index sequences), pruning any partial product that is
    already zero; finite dimensionality kills every product whose degree
    exceeds the tensor square's top degree, so the search terminates fast.
    """
    square = tensor_square(a)
    if max_len is None:
        max_len = max(1, 2 * a.top_degree)
    if max_len < 1:
        raise AlgebraError(f"max_len must be >= 1, got {max_len}")

    if mode == "canonical":
        gens = tuple(generators) if generators is not None else a.positive_labels()
        if not gens and a.positive_labels():
            raise EmptyGeneratorSet("canonical cup-length search needs generators")
        for g in gens:
            if g not in a.degree:
                raise AlgebraMismatch(f"generator {g!r} is not a basis label of {a.name}")
        factors = [canonical_divisor(a, g) for g in gens]
    elif mode == "exhaustive":
        factors = zero_divisor_basis(a)
    else:
        raise AlgebraError(f"unknown zdcl mode {mode!r}")

    best_len = 0
    best_witness: tuple[int, ...] = ()
    best_value = square.one

    stack: list[tuple[int, tuple[int, ...], AlgElement]] = [(0, (), square.one)]
    while stack:
        start, chosen, value = stack.pop()
        for i in range(len(factors) - 1, start - 1, -1):
            nxt = value * factors[i]
            if nxt.is_zero:
                continue
            picked = chosen + (i,)
            if len(picked) > best_len:
                best_len = len(picked)
                best_witness = picked
                best_value = nxt
            if len(picked) < max_len:
                stack.append((i, picked, nxt))
    return ZdclResult(
        length=best_len,
        witness=tuple(factors[i] for i in best_witness),
        product_value=best_value,
    )
