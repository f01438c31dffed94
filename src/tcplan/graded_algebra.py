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

The sign rule (-1)^(pq) lives in ``koszul_sign`` alone: ``validate``, the
completion of one-sided products and the tensor product all read it there.

Everything here is exact: a coefficient is an ``int`` where it is integral
and a ``fractions.Fraction`` otherwise, never a float.  The two mix exactly
and agree on ``==``, ``hash`` and ``str``, so an integral table, the catalog
presets among them, multiplies in ``int`` arithmetic alone.  All values are
immutable after construction and every operation is a pure function, so the
module is safe for unrestricted concurrent use.

No algebra refers to itself, so an algebra is freed by reference counting
as soon as its last user drops it, without waiting for the cycle collector:
a derived algebra computes its products through an overridden method.  No
algebra caches its tensor square: each cup-length search builds its own.
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


Rational = int | Fraction  # an int where integral, a Fraction otherwise


def _normal(q: Rational) -> Rational:
    """``q`` as an int when it is integral, else unchanged."""
    return q.numerator if q.denominator == 1 else q


def parse_rational(value) -> Rational:
    """Parse an exact rational from an int, Fraction, or 'p/q' string:
    an ``int`` when the value is integral, else a ``Fraction``.

    Decimal notation is rejected: coefficients must be exact.
    """
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return _normal(value)
    if isinstance(value, str):
        if "." in value or "e" in value.lower():
            raise AlgebraError(f"coefficient {value!r} is not a decimal-free rational")
        try:
            return _normal(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise AlgebraError(f"bad rational literal {value!r}: {exc}") from exc
    raise AlgebraError(f"coefficient {value!r} must be an int or a 'p/q' string")


def koszul_sign(p: int, q: int) -> int:
    """The graded sign (-1)^(pq) of moving a degree-p past a degree-q element."""
    return -1 if (p * q) % 2 else 1


def _clean(coeffs: Mapping[str, Rational]) -> dict[str, Rational]:
    """Canonical sparse form: drop zero coefficients."""
    return {k: v for k, v in coeffs.items() if v != 0}


class GradedAlgebra:
    """A finite graded-commutative algebra over Q, given by structure constants.

    ``products`` is the full table (``dict[(label, label), dict]``) of a
    presented algebra; pairs absent from it multiply to zero.  A derived
    algebra (a tensor product) passes ``None`` and overrides
    ``_compute_product``, whose results ``basis_product`` memoizes.  A
    structure constant is an ``int`` where integral and a ``Fraction``
    otherwise.

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
        self._table = products
        self._memo: dict[tuple[str, str], dict[str, Rational]] = {}

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def top_degree(self) -> int:
        return max(self.degree.values())

    def positive_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.labels if self.degree[l] > 0)

    def basis_product(self, left: str, right: str) -> dict[str, Rational]:
        """Structure constants of ``left * right`` as a sparse mapping."""
        if self._table is not None:
            return self._table.get((left, right), {})
        key = (left, right)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._compute_product(left, right)
        return hit

    def _compute_product(self, left: str, right: str) -> dict[str, Rational]:
        """A derived algebra's product of two basis labels (no table given)."""
        raise NotImplementedError(f"{self.name} has no product table")

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: Mapping[str, Rational | str]) -> "AlgElement":
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
        triple.  The unit, grading and commutativity checks are at most
        quadratic in the basis size.  Associativity is checked only on the
        triples that can fail once those pass: none of ``a, b, c`` is the
        unit (the unit law makes such a triple associate), and
        ``|a| + |b| + |c|`` is at most the top degree (no basis class lives
        above it, so the grading check leaves both sides zero).  The
        labels are walked by degree, so each loop stops at the first label
        that takes the sum past the top; of the failing triples, the one
        with the smallest basis indices, the first in basis order, is named.
        """
        units = [l for l in self.labels if self.degree[l] == 0]
        if units != [self.unit]:
            raise UnitMissing(
                f"{self.name}: expected exactly one degree-0 basis element equal to "
                f"the unit {self.unit!r}, found {units}"
            )
        for b in self.labels:
            if self.basis_product(self.unit, b) != {b: 1} or self.basis_product(
                b, self.unit
            ) != {b: 1}:
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
            sign = koszul_sign(self.degree[a], self.degree[b])
            flipped = {k: sign * v for k, v in self.basis_product(b, a).items()}
            if _clean(dict(prod)) != _clean(flipped):
                raise CommutativityViolation(
                    f"{self.name}: ({a!r}, {b!r}) vs ({b!r}, {a!r}) violate the sign rule"
                )
        index, top = self._index, self.top_degree
        rest = sorted((self.degree[l], index[l], l) for l in self.labels if l != self.unit)
        failing = []
        for da, _, a in rest:
            for db, _, b in rest:
                if da + db > top:
                    break
                for dc, _, c in rest:
                    if da + db + dc > top:
                        break
                    x, y, z = map(self.basis_element, (a, b, c))
                    if x * y * z != x * (y * z):
                        failing.append((index[a], index[b], index[c]))
        if failing:
            a, b, c = (self.labels[i] for i in min(failing))
            raise AssociativityViolation(f"{self.name}: ({a!r}, {b!r}, {c!r})")
        return self


class AlgElement:
    """A sparse rational combination of basis labels of one algebra.

    Zero coefficients are never stored, so ``==`` is coefficient equality.
    A coefficient is an ``int`` or a ``Fraction`` (never a float); ``3`` and
    ``Fraction(3)`` are equal, hash alike and print alike, so ``==``,
    ``hash`` and the printed forms do not depend on which one is stored.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GradedAlgebra, coeffs: dict[str, Rational]):
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
            out[k] = out.get(k, 0) + v
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
        out: dict[str, Rational] = {}
        for la, ca in self.coeffs.items():
            for lb, cb in other.coeffs.items():
                for term, c in self.algebra.basis_product(la, lb).items():
                    out[term] = out.get(term, 0) + ca * cb * c
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
    """Build a GradedAlgebra from raw presentation data and validate it.

    The presentation format matches the JSON schema consumed by the CLI::

        {"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2}],
         "unit": "1",
         "products": [{"left": "u", "right": "u", "result": []}]}

    This function only reads and completes the data.  It checks its shape: a
    non-empty basis of distinct string labels with int degrees >= 0, a
    string unit, product entries naming known labels once each, result
    terms naming each label at most once, and exact rational coefficients.
    Then it fills the table, so presentations stay small: absent entries
    are zero, products with the unit default to the unit law, and a pair
    given on one side only gets its other side through ``koszul_sign``.
    ``GradedAlgebra.validate`` checks every law.
    """
    basis_raw = _field(presentation, "basis", Sequence, default=None)
    if not basis_raw:
        raise AlgebraError("presentation has no basis")
    basis: list[tuple[str, int]] = []
    seen = set()
    for entry in basis_raw:
        label, deg = _field(entry, "name", str), _field(entry, "degree")
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
            raise GradingViolation(f"basis element {label!r} has bad degree {deg!r}")
        if label in seen:
            raise AlgebraError(f"duplicate basis label {label!r}")
        seen.add(label)
        basis.append((label, deg))
    degree = dict(basis)

    unit = presentation.get("unit")
    if not isinstance(unit, str):
        raise UnitMissing(f"the unit must be a basis label, got {reprlib.repr(unit)}")

    given: dict[tuple[str, str], dict[str, Rational]] = {}
    for entry in _field(presentation, "products", Sequence, default=[]):
        left, right = _field(entry, "left", str), _field(entry, "right", str)
        if left not in degree or right not in degree:
            raise AlgebraError(f"product entry ({left!r}, {right!r}) uses unknown labels")
        key = (left, right)
        if key in given:
            raise AlgebraError(f"duplicate product entry for ({left!r}, {right!r})")
        terms: dict[str, Rational] = {}
        for t in _field(entry, "result", Sequence, default=[]):
            term = _field(t, "name", str)
            if term in terms:
                raise AlgebraError(f"product ({left!r}, {right!r}) names term {term!r} twice")
            terms[term] = parse_rational(_field(t, "coeff"))
        given[key] = _clean(terms)
        for term in given[key]:
            if term not in degree:
                raise AlgebraError(f"product ({left!r}, {right!r}) names unknown label {term!r}")

    table: dict[tuple[str, str], dict[str, Rational]] = {}
    for b in degree:
        table[(unit, b)] = table[(b, unit)] = {b: 1}
    table.update(given)
    for (a, b), value in given.items():
        if (b, a) not in given:
            sign = koszul_sign(degree[a], degree[b])
            table[(b, a)] = {k: sign * v for k, v in value.items()}

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

    Basis labels are formal pairs spelled ``left⊗right``; ``pair_of`` maps a
    label back to its (left, right) constituents and ``pair_label`` goes the
    other way.  Two pairs with one spelling (``a`` with ``a⊗a`` and ``a⊗a``
    with ``a``) raise AlgebraError.
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
                if label in self.pair_of:
                    raise AlgebraError(
                        f"tensor label {label!r} names both {self.pair_of[label]!r} and "
                        f"{(la, lb)!r}; rename the basis labels that contain '⊗'"
                    )
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
            None,
            name=f"{left.name}(x){right.name}",
            generators=gens,
        )

    def pair_label(self, la: str, lb: str) -> str:
        return self._pair_label[(la, lb)]

    def _compute_product(self, x: str, y: str) -> dict[str, Rational]:
        l1, r1 = self.pair_of[x]
        l2, r2 = self.pair_of[y]
        sign = koszul_sign(self.right.degree[r1], self.left.degree[l2])
        out: dict[str, Rational] = {}
        for tl, cl in self.left.basis_product(l1, l2).items():
            for tr, cr in self.right.basis_product(r1, r2).items():
                label = self._pair_label[(tl, tr)]
                out[label] = out.get(label, 0) + sign * cl * cr
        return _clean(out)

    def simple(self, la: str, lb: str) -> AlgElement:
        """The basis element ``la (x) lb``."""
        return self.basis_element(self._pair_label[(la, lb)])


def tensor_product(a: GradedAlgebra, b: GradedAlgebra) -> TensorProductAlgebra:
    return TensorProductAlgebra(a, b)


def _base(square: GradedAlgebra, caller: str) -> GradedAlgebra:
    """The algebra ``A`` of a tensor square ``A (x) A``; AlgebraMismatch if
    ``square`` is any other algebra."""
    if not isinstance(square, TensorProductAlgebra) or square.left is not square.right:
        raise AlgebraMismatch(f"{caller} needs a tensor square, got {square.name}")
    return square.left


def canonical_divisor(square: TensorProductAlgebra, label: str) -> AlgElement:
    """The element ``1 (x) x - x (x) 1`` of ``square = A (x) A``, for label x of A.

    It always lies in the kernel of the multiplication homomorphism, and the
    known sharp lower-bound witnesses are products of these.
    """
    unit = _base(square, "canonical_divisor").unit
    return square.element({square.pair_label(unit, label): 1, square.pair_label(label, unit): -1})


def cup_hom(z: AlgElement) -> AlgElement:
    """Multiplication homomorphism of a tensor square: ``a (x) b`` maps to ``a b``."""
    a = _base(z.algebra, "cup_hom")
    out: dict[str, Rational] = {}
    for label, c in z.coeffs.items():
        la, lb = z.algebra.pair_of[label]
        for term, s in a.basis_product(la, lb).items():
            out[term] = out.get(term, 0) + c * s
    return AlgElement(a, _clean(out))


# -- exact nullspace ----------------------------------------------------------


def rational_nullspace(rows: list[list[Rational]], ncols: int) -> list[list[Rational]]:
    """Basis of the nullspace of a rational matrix, by fraction-exact RREF.

    Entries are ints or Fractions; so are the results, an int where
    integral.  Returns one vector per free column, with a 1 in the free
    position; the order follows the column order, so results are
    deterministic.
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
        pivot = m[rank][col]
        if pivot != 1:
            m[rank] = [_normal(Fraction(v, pivot)) for v in m[rank]]
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
        vec = [0] * ncols
        vec[free] = 1
        for r, c in pivots:
            vec[c] = _normal(-m[r][free])
        basis.append(vec)
    return basis


def zero_divisor_basis(square: TensorProductAlgebra) -> list[AlgElement]:
    """Exact basis of the kernel of cup_hom on ``square = A (x) A``.

    Computed degreewise: within each degree the homomorphism is a rational
    matrix from tensor-pair labels to the labels of ``A``, and the kernel
    is its exact nullspace.
    """
    a = _base(square, "zero_divisor_basis")
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
        matrix = [[0] * len(cols) for _ in targets]
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


def zdcl(a: GradedAlgebra, mode: str = "canonical", max_len: int | None = None) -> ZdclResult:
    """Search for the longest nonzero product of zero divisors of ``a``.

    canonical mode multiplies divisors ``1 (x) g - g (x) 1`` for ``g`` in
    ``a.generators``, or in every positive-degree basis label when the
    algebra names no generators (a presentation file), with repeated factors
    allowed: squares of canonical divisors are exactly what the even-sphere
    witnesses need.  exhaustive mode multiplies elements of the full kernel
    basis instead and serves as the desk-scale oracle.  ``max_len`` defaults
    to twice the top degree: every zero divisor has positive degree, so a
    longer product is zero.

    Factors commute up to sign, so the search runs over multisets
    (nondecreasing index sequences), pruning any partial product that is
    already zero; finite dimensionality kills every product whose degree
    exceeds the tensor square's top degree, so the search terminates fast.
    Each call builds its own square, where the witness and value live.
    """
    square = TensorProductAlgebra(a, a)
    if max_len is None:
        max_len = max(1, 2 * a.top_degree)
    if max_len < 1:
        raise AlgebraError(f"max_len must be >= 1, got {max_len}")

    if mode == "canonical":
        gens = a.positive_labels() if a.generators is None else a.generators
        factors = [canonical_divisor(square, g) for g in gens]
    elif mode == "exhaustive":
        factors = zero_divisor_basis(square)
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
