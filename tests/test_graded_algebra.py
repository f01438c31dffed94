import copy
import gc
import itertools
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcplan.graded_algebra import (
    AlgElement,
    AlgebraError,
    AlgebraMismatch,
    AssociativityViolation,
    CommutativityViolation,
    GradedAlgebra,
    GradingViolation,
    TensorProductAlgebra,
    UnitMissing,
    algebra_to_presentation,
    canonical_divisor,
    cup_hom,
    koszul_sign,
    rational_nullspace,
    tensor_product,
    validate_algebra,
    zdcl,
    zero_divisor_basis,
)
from tcplan.catalog import (
    catalog_space,
    cpn_algebra,
    point_algebra,
    sphere_algebra,
    surface_algebra,
    tc_bounds,
)

from catalog_helpers import open_cpn

# -- independent oracles -------------------------------------------------------

def brute_rank(rows):
    """Test-local Gaussian elimination over Fraction, used as the rank oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[rank])]
        rank += 1
    return rank


def sphere_cup_kernel_dim(n):
    """Kernel dimension of the multiplication map for H(S^n), from scratch.

    The tensor basis is the four pairs over {1, u}; multiplication sends
    (u^a, u^b) to u^(a+b), truncated above degree n.  Entirely independent
    of the tensor_product/cup_hom code path.
    """
    pairs = [(a, b) for a in (0, 1) for b in (0, 1)]
    targets = [0, 1]  # exponents of u
    matrix = [[0] * len(pairs) for _ in targets]
    for j, (a, b) in enumerate(pairs):
        if a + b <= 1:  # u^2 = 0
            matrix[a + b][j] = 1
    return len(pairs) - brute_rank(matrix)


# -- validation -----------------------------------------------------------------

def test_sphere_presentation_valid():
    algebra = validate_algebra(
        {
            "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 4}],
            "unit": "1",
            "products": [{"left": "u", "right": "u", "result": []}],
        }
    )
    assert algebra.top_degree == 4


def test_presentation_built_from_tuples_is_valid():
    algebra = validate_algebra(
        {
            "basis": ({"name": "1", "degree": 0}, {"name": "u", "degree": 2}),
            "unit": "1",
            "products": ({"left": "u", "right": "u", "result": ()},),
        }
    )
    assert algebra.top_degree == 2


def test_presentation_string_basis_rejected():
    with pytest.raises(AlgebraError):
        validate_algebra({"basis": "1u", "unit": "1"})


def test_genus2_presentation_valid_with_sign_completion():
    algebra = surface_algebra(2)
    u1, v1 = algebra.basis_element("u1"), algebra.basis_element("v1")
    top = algebra.basis_element("A")
    assert u1 * v1 == top
    assert v1 * u1 == -top  # filled in by the sign rule


def test_wrong_sign_is_commutativity_violation():
    with pytest.raises(CommutativityViolation):
        validate_algebra(
            {
                "basis": [
                    {"name": "1", "degree": 0},
                    {"name": "u", "degree": 1},
                    {"name": "v", "degree": 1},
                    {"name": "A", "degree": 2},
                ],
                "unit": "1",
                "products": [
                    {"left": "u", "right": "v", "result": [{"name": "A", "coeff": "1"}]},
                    {"left": "v", "right": "u", "result": [{"name": "A", "coeff": "1"}]},
                ],
            }
        )


def test_odd_square_must_vanish():
    with pytest.raises(CommutativityViolation):
        validate_algebra(
            {
                "basis": [
                    {"name": "1", "degree": 0},
                    {"name": "u", "degree": 1},
                    {"name": "A", "degree": 2},
                ],
                "unit": "1",
                "products": [{"left": "u", "right": "u", "result": [{"name": "A", "coeff": "1"}]}],
            }
        )


def test_grading_violation_named():
    with pytest.raises(GradingViolation):
        validate_algebra(
            {
                "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2}],
                "unit": "1",
                "products": [{"left": "u", "right": "u", "result": [{"name": "u", "coeff": "1"}]}],
            }
        )


def test_unit_missing():
    with pytest.raises(UnitMissing):
        validate_algebra(
            {
                "basis": [{"name": "e", "degree": 0}, {"name": "f", "degree": 0}],
                "unit": "e",
                "products": [],
            }
        )


def test_broken_unit_row_rejected():
    with pytest.raises(UnitMissing):
        validate_algebra(
            {
                "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1}],
                "unit": "1",
                "products": [{"left": "1", "right": "u", "result": []}],
            }
        )


def test_associativity_violation():
    # x*y = z but z*y = A while x*(y*y) = 0: (xy)y != x(yy)
    with pytest.raises(AssociativityViolation):
        validate_algebra(
            {
                "basis": [
                    {"name": "1", "degree": 0},
                    {"name": "x", "degree": 1},
                    {"name": "y", "degree": 1},
                    {"name": "z", "degree": 2},
                    {"name": "A", "degree": 3},
                ],
                "unit": "1",
                "products": [
                    {"left": "x", "right": "y", "result": [{"name": "z", "coeff": "1"}]},
                    {"left": "z", "right": "y", "result": [{"name": "A", "coeff": "1"}]},
                ],
            }
        )


def test_decimal_coefficients_rejected():
    with pytest.raises(Exception):
        validate_algebra(
            {
                "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1}],
                "unit": "1",
                "products": [{"left": "u", "right": "u", "result": [{"name": "u", "coeff": "0.5"}]}],
            }
        )


# -- associativity on the triples that can fail ------------------------------------

def all_triples_validate(algebra):
    """``GradedAlgebra.validate`` with associativity checked on every basis
    triple: the reference for ``validate``, which skips the triples that
    hold the unit or sum past the top degree."""
    units = [l for l in algebra.labels if algebra.degree[l] == 0]
    if units != [algebra.unit]:
        raise UnitMissing(
            f"{algebra.name}: expected exactly one degree-0 basis element equal to "
            f"the unit {algebra.unit!r}, found {units}"
        )
    for b in algebra.labels:
        if algebra.basis_product(algebra.unit, b) != {b: 1} or algebra.basis_product(
            b, algebra.unit
        ) != {b: 1}:
            raise UnitMissing(f"{algebra.name}: unit law fails at ({algebra.unit!r}, {b!r})")
    for a, b in itertools.product(algebra.labels, repeat=2):
        prod = algebra.basis_product(a, b)
        want = algebra.degree[a] + algebra.degree[b]
        for term, c in prod.items():
            if c != 0 and algebra.degree[term] != want:
                raise GradingViolation(
                    f"{algebra.name}: ({a!r}, {b!r}) has term {term!r} of degree "
                    f"{algebra.degree[term]}, expected {want}"
                )
        sign = koszul_sign(algebra.degree[a], algebra.degree[b])
        flipped = {k: sign * v for k, v in algebra.basis_product(b, a).items()}
        if {k: v for k, v in prod.items() if v != 0} != {k: v for k, v in flipped.items() if v != 0}:
            raise CommutativityViolation(
                f"{algebra.name}: ({a!r}, {b!r}) vs ({b!r}, {a!r}) violate the sign rule"
            )
    for a, b, c in itertools.product(algebra.labels, repeat=3):
        x, y, z = (algebra.basis_element(l) for l in (a, b, c))
        if x * y * z != x * (y * z):
            raise AssociativityViolation(f"{algebra.name}: ({a!r}, {b!r}, {c!r})")
    return algebra


def unvalidated(presentation):
    """The algebra ``validate_algebra`` reads from a presentation, before
    ``GradedAlgebra.validate`` runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GradedAlgebra, "validate", lambda self: self)
        return validate_algebra(presentation)


def outcome(check, algebra):
    """None when ``check`` passes, else the class and message it raised."""
    try:
        check(algebra)
    except AlgebraError as exc:
        return type(exc), str(exc)
    return None


def mutate(presentation, rng):
    """One to three seeded edits of an exported presentation: a changed
    coefficient, an added term of any degree, a unit row that breaks the
    unit law, or a product of two labels replaced on both sides, by the
    sign rule, with a combination of the classes in its degree (degrees,
    signs and the unit stay, associativity may break)."""
    data = copy.deepcopy(presentation)
    degree = {entry["name"]: entry["degree"] for entry in data["basis"]}
    unit = data["unit"]
    labels = [l for l in degree if l != unit]
    for _ in range(rng.randint(1, 3)):
        products = data["products"]
        edit = rng.choices(("coeff", "term", "unit", "paired"), weights=(2, 2, 1, 5))[0]
        if edit == "coeff" and any(p["result"] for p in products):
            entry = rng.choice([p for p in products if p["result"]])
            rng.choice(entry["result"])["coeff"] = rng.choice(["0", "2", "-1", "1/2"])
        elif edit == "term":
            a, b, t = (rng.choice(labels) for _ in range(3))
            entry = next((p for p in products if (p["left"], p["right"]) == (a, b)), None)
            if entry is None:
                entry = {"left": a, "right": b, "result": []}
                products.append(entry)
            if all(term["name"] != t for term in entry["result"]):
                entry["result"].append({"name": t, "coeff": rng.choice(["1", "-2"])})
        elif edit == "unit" and all(unit not in (p["left"], p["right"]) for p in products):
            b = rng.choice(labels)
            products.append({"left": unit, "right": b, "result": [{"name": b, "coeff": "2"}]})
        elif edit == "paired":
            a, b = rng.choice(labels), rng.choice(labels)
            targets = [t for t in labels if degree[t] == degree[a] + degree[b]]
            if not targets or (a == b and degree[a] % 2):
                continue
            terms = {t: rng.choice([1, -1, 2, 3]) for t in rng.sample(targets, rng.randint(1, len(targets)))}
            sign = koszul_sign(degree[a], degree[b])
            data["products"] = [p for p in products if {p["left"], p["right"]} != {a, b}]
            for left, right, s in {(a, b, 1), (b, a, sign)}:
                result = [{"name": t, "coeff": str(s * c)} for t, c in terms.items()]
                data["products"].append({"left": left, "right": right, "result": result})
    return data


ORACLE_SPECS = ["sphere:2", "torus:3", "surface:2", "cpn:4", "product(sphere:2,sphere:3)",
                "product(cpn:2,circle)", "product(surface:2,sphere:2)"]


def test_filtered_associativity_matches_all_triples():
    """Seeded mutations of catalog presentations: ``validate`` passes exactly
    where the all-triples reference passes, and otherwise raises the same
    class with the same message, so it names the same first failing triple."""
    rng = random.Random(1)
    presentations = [algebra_to_presentation(catalog_space(s).algebra) for s in ORACLE_SPECS]
    seen = set()
    for _ in range(1000):
        algebra = unvalidated(mutate(rng.choice(presentations), rng))
        expected = outcome(all_triples_validate, algebra)
        assert outcome(GradedAlgebra.validate, algebra) == expected
        seen.add(expected and expected[0])
    assert seen == {
        None, UnitMissing, GradingViolation, CommutativityViolation, AssociativityViolation
    }


def test_planted_violation_in_a_kept_triple_is_named():
    """In H(CP^4), u * u^2 = 2 u^3 on both sides keeps degrees, signs and the
    unit, and (u u) u^2 = u^4 differs from u (u u^2) = 2 u^4.  That triple sums
    to the top degree 8, the largest the check keeps."""
    presentation = algebra_to_presentation(cpn_algebra(4))
    for entry in presentation["products"]:
        if {entry["left"], entry["right"]} == {"u", "u^2"}:
            entry["result"] = [{"name": "u^3", "coeff": "2"}]
    with pytest.raises(AssociativityViolation, match=r"\('u', 'u', 'u\^2'\)$") as caught:
        validate_algebra(presentation)
    assert outcome(all_triples_validate, unvalidated(presentation)) == (
        AssociativityViolation, str(caught.value)
    )


@pytest.mark.parametrize(
    "spec, triples", [("surface:15", 0), ("cpn:31", 4495), ("torus:5", 3125)]
)
def test_validate_multiplies_only_the_triples_that_can_fail(monkeypatch, spec, triples):
    """Each checked triple costs 4 multiplications.  No surface triple can
    fail (three non-unit classes sum past degree 2); H(CP^31) keeps the
    C(31, 3) triples of u-powers summing to at most u^31; H(T^5) keeps the
    triples of nonempty sets of circles, 5 circles or fewer in all: sizes
    (1, 1, 1), (1, 1, 2), (1, 1, 3) and (1, 2, 2) in any order, that is
    125 + 750 + 750 + 1500."""
    algebra = unvalidated(algebra_to_presentation(catalog_space(spec).algebra))
    calls = 0
    multiply = AlgElement.__mul__

    def counted(x, y):
        nonlocal calls
        calls += 1
        return multiply(x, y)

    monkeypatch.setattr(AlgElement, "__mul__", counted)
    algebra.validate()
    assert calls == 4 * triples


class CountingDict(dict):
    """A dict that counts its ``[]`` lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_validate_does_not_walk_the_skipped_triples():
    """In a flat algebra of 100 degree-1 classes every non-unit triple sums
    past the top degree 1, so ``validate`` keeps none of the 10^6 triples and
    should not enumerate them: it looks degrees up O(b^2) times, for the unit,
    grading and commutativity checks, not once per skipped triple."""
    basis = [{"name": "1", "degree": 0}] + [{"name": f"x{i}", "degree": 1} for i in range(100)]
    algebra = validate_algebra({"basis": basis, "unit": "1"})
    algebra.degree = CountingDict(algebra.degree)
    algebra.validate()
    assert 0 < algebra.degree.lookups <= 10 * algebra.dim**2


# -- multiplication --------------------------------------------------------------

def test_unit_law():
    s = sphere_algebra(5)
    assert s.one * s.basis_element("u") == s.basis_element("u")


def test_surface_products():
    sigma = surface_algebra(2)
    assert sigma.basis_element("u1") * sigma.basis_element("v1") == sigma.basis_element("A")
    assert (sigma.basis_element("u1") * sigma.basis_element("v2")).is_zero


def test_cpn_power_products():
    cp3 = cpn_algebra(3)
    u = cp3.basis_element("u")
    assert u * cp3.basis_element("u^2") == cp3.basis_element("u^3")
    assert (u * u * u * u).is_zero


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        sphere_algebra(1).one * sphere_algebra(2).one


# -- tensor square ----------------------------------------------------------------

def test_tensor_sign_rule_on_circle():
    # (1 (x) u) * (u (x) 1) picks up (-1)^(|u||u|) = -1
    s = sphere_algebra(1)
    square = tensor_product(s, s)
    got = square.simple("1", "u") * square.simple("u", "1")
    assert got == square.simple("u", "u").scale(-1)


@pytest.mark.parametrize("n,coeff", [(2, -2), (3, 0), (4, -2), (5, 0)])
def test_canonical_divisor_square(n, coeff):
    s = sphere_algebra(n)
    square = tensor_product(s, s)
    a = canonical_divisor(square, "u")
    assert a * a == square.simple("u", "u").scale(coeff)


def test_tensor_unit_law():
    s = sphere_algebra(2)
    square = tensor_product(s, s)
    for label in square.labels:
        assert square.one * square.basis_element(label) == square.basis_element(label)


@pytest.mark.parametrize(
    "make", [lambda: sphere_algebra(1), lambda: sphere_algebra(2), lambda: catalog_space("torus:2").algebra,
             lambda: surface_algebra(2)]
)
def test_tensor_square_passes_validation(make):
    algebra = make()
    tensor_product(algebra, algebra).validate()


# -- cup homomorphism --------------------------------------------------------------

def test_cup_kills_canonical_divisor():
    for n in (1, 2, 3):
        s = sphere_algebra(n)
        assert cup_hom(canonical_divisor(tensor_product(s, s), "u")).is_zero


def test_cup_on_units_and_squares():
    s = sphere_algebra(4)
    square = tensor_product(s, s)
    assert cup_hom(square.one) == s.one
    assert cup_hom(square.simple("u", "u")).is_zero  # u^2 = 0


def test_cup_rejects_non_tensor_elements():
    with pytest.raises(AlgebraMismatch):
        cup_hom(sphere_algebra(2).one)


@pytest.mark.parametrize(
    "make", [lambda: sphere_algebra(2), lambda: catalog_space("torus:2").algebra, lambda: surface_algebra(2)]
)
def test_cup_hom_is_multiplicative(make):
    """cup(z * w) == cup(z) * cup(w) on 100 seeded sparse elements."""
    import random

    algebra = make()
    square = tensor_product(algebra, algebra)
    rng = random.Random(7)

    def sparse():
        picks = rng.sample(square.labels, k=min(3, len(square.labels)))
        return square.element({l: rng.randint(-3, 3) for l in picks})

    for _ in range(100):
        z, w = sparse(), sparse()
        assert cup_hom(z * w) == cup_hom(z) * cup_hom(w)


# -- zero divisors -----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_sphere_kernel_dimension_matches_brute_force(n):
    s = sphere_algebra(n)
    assert len(zero_divisor_basis(tensor_product(s, s))) == sphere_cup_kernel_dim(n) == 2


def test_point_kernel_trivial():
    p = point_algebra()
    assert zero_divisor_basis(tensor_product(p, p)) == []


def test_kernel_contains_named_divisors():
    s = sphere_algebra(2)
    square = tensor_product(s, s)
    basis = zero_divisor_basis(square)
    for z in basis:
        assert cup_hom(z).is_zero
    named = {canonical_divisor(square, "u"), square.simple("u", "u")}
    # dimension 2 and both named elements are killed, hence they span the kernel
    assert len(basis) == 2
    for z in named:
        assert cup_hom(z).is_zero


def test_nullspace_on_known_matrix():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    basis = rational_nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(r * v for r, v in zip(rows[0], vec)) == 0


def test_nullspace_of_an_int_matrix_is_exact():
    basis = rational_nullspace([[2, 1]], 2)
    assert basis == [[Fraction(-1, 2), 1]]
    assert [type(v) for v in basis[0]] == [Fraction, int]


# -- coefficient types ----------------------------------------------------------------

COEFFICIENT_SPECS = [
    "sphere:2",
    "sphere:3",
    "torus:2",
    "surface:2",
    "cpn:3",
    "product(cpn:2,sphere:3)",
    "product(sphere:2,surface:2)",
]


@pytest.mark.parametrize("spec", COEFFICIENT_SPECS)
@pytest.mark.parametrize("mode", ["canonical", "exhaustive"])
def test_integral_algebras_keep_int_coefficients(spec, mode):
    result = zdcl(catalog_space(spec).algebra, mode=mode, max_len=4)
    assert result.length > 0
    for element in (*result.witness, result.product_value):
        assert all(type(c) is int for c in element.coeffs.values()), (spec, element)


def test_rational_constants_stay_exact_fractions():
    algebra = validate_algebra(
        {
            "basis": [{"name": "1", "degree": 0}, {"name": "a", "degree": 2},
                      {"name": "b", "degree": 4}],
            "unit": "1",
            "products": [{"left": "a", "right": "a", "result": [{"name": "b", "coeff": "1/2"}]}],
        }
    )
    assert algebra.basis_product("a", "a") == {"b": Fraction(1, 2)}
    result = zdcl(algebra)
    assert result.product_value.coeffs
    assert all(isinstance(c, (int, Fraction)) for c in result.product_value.coeffs.values())
    assert any(type(c) is Fraction for c in result.product_value.coeffs.values())
    # a Fraction whose denominator is 1 is read as an int
    two = algebra.element({"a": Fraction(4, 2), "b": "3/1"})
    assert [type(c) for c in two.coeffs.values()] == [int, int]


def test_int_and_fraction_coefficients_compare_and_hash_alike():
    algebra = sphere_algebra(2)
    as_int = AlgElement(algebra, {"u": 3})
    as_fraction = AlgElement(algebra, {"u": Fraction(3)})
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert repr(as_int) == repr(as_fraction) == "3*u"
    assert as_int.as_strings() == as_fraction.as_strings() == {"u": "3"}


# -- lifetimes ---------------------------------------------------------------------------


@pytest.fixture
def no_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_product_algebras_are_freed_without_the_cycle_collector(no_cycle_collector):
    descriptor = open_cpn(catalog_space("product(cpn:2,sphere:3)"))
    tc_bounds(descriptor)
    algebra = descriptor.algebra
    result = zdcl(algebra)
    square = result.product_value.algebra
    assert square.left is algebra and square._memo  # the search multiplied in its square
    refs = [weakref.ref(algebra), weakref.ref(square)]
    del descriptor, algebra, result, square
    assert [ref() for ref in refs] == [None, None]


def test_file_algebras_are_freed_without_the_cycle_collector(no_cycle_collector):
    algebra = validate_algebra(algebra_to_presentation(catalog_space("torus:2").algebra))
    result = zdcl(algebra, mode="exhaustive")
    square = result.product_value.algebra
    assert square.left is algebra and square._memo  # the search multiplied in its square
    refs = [weakref.ref(algebra), weakref.ref(square)]
    del algebra, result, square
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("mode", ["canonical", "exhaustive"])
def test_each_search_builds_its_own_square(mode, monkeypatch):
    algebra = cpn_algebra(2)
    built = []
    init = TensorProductAlgebra.__init__

    def counting_init(self, left, right):
        built.append((left, right))
        init(self, left, right)

    monkeypatch.setattr(TensorProductAlgebra, "__init__", counting_init)
    first = zdcl(algebra, mode=mode)
    second = zdcl(algebra, mode=mode)
    assert built == [(algebra, algebra)] * 2
    squares = [first.product_value.algebra, second.product_value.algebra]
    assert squares[0] is not squares[1]
    for result, square in zip((first, second), squares):
        assert square.left is square.right is algebra
        assert all(w.algebra is square for w in result.witness)
    square = tensor_product(algebra, algebra)
    assert canonical_divisor(square, "u").algebra is square
    assert all(z.algebra is square for z in zero_divisor_basis(square))


def _copy_of(algebra):
    return validate_algebra(algebra_to_presentation(algebra))


@pytest.mark.parametrize(
    "make",
    [
        lambda: sphere_algebra(2),
        lambda: tensor_product(sphere_algebra(2), _copy_of(sphere_algebra(2))),
    ],
)
def test_divisors_need_a_tensor_square(make):
    """Only a square A (x) A, one algebra on both sides, has these divisors."""
    algebra = make()
    with pytest.raises(AlgebraMismatch):
        canonical_divisor(algebra, "u")
    with pytest.raises(AlgebraMismatch):
        zero_divisor_basis(algebra)


def test_threads_searching_shared_algebras_get_the_serial_results():
    """Threads that search the same algebras at once, as parallel requests
    for one shared preset do, each get the single-threaded result."""
    presentation = algebra_to_presentation(cpn_algebra(2))

    def summary(result):
        return (
            result.length,
            [w.as_strings() for w in result.witness],
            result.product_value.as_strings(),
        )

    modes = ("canonical", "exhaustive")
    expected = [summary(zdcl(validate_algebra(presentation), mode=m)) for m in modes]
    algebras = [validate_algebra(presentation) for _ in range(40)]
    barrier = threading.Barrier(8)
    seen = []

    def worker():
        for algebra in algebras:
            barrier.wait(timeout=30)
            seen.append([summary(zdcl(algebra, mode=m)) for m in modes])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 * len(algebras)
    assert all(got == expected for got in seen)


# -- cup-length search ---------------------------------------------------------------

def test_zdcl_odd_sphere():
    result = zdcl(sphere_algebra(3), mode="canonical")
    assert result.length == 1
    assert not result.product_value.is_zero
    assert all(cup_hom(w).is_zero for w in result.witness)


def test_zdcl_even_sphere_with_witness():
    s = sphere_algebra(2)
    result = zdcl(s, mode="canonical")
    assert result.length == 2
    assert result.product_value == result.product_value.algebra.simple("u", "u").scale(-2)


def test_zdcl_genus2():
    sigma = surface_algebra(2)
    result = zdcl(sigma, mode="canonical")
    square = result.product_value.algebra
    assert result.length == 4
    assert result.product_value == square.simple("A", "A").scale(2)


def test_zdcl_cp2():
    cp2 = cpn_algebra(2)
    result = zdcl(cp2, mode="canonical")
    assert result.length == 4
    assert result.product_value == result.product_value.algebra.simple("u^2", "u^2").scale(6)


def test_zdcl_torus_exhaustive_is_two():
    result = zdcl(catalog_space("torus:2").algebra, mode="exhaustive", max_len=3)
    assert result.length == 2


@pytest.mark.parametrize(
    "make,max_len",
    [
        (lambda: sphere_algebra(1), 3),
        (lambda: sphere_algebra(2), 3),
        (lambda: sphere_algebra(3), 3),
        (lambda: catalog_space("torus:2").algebra, 3),
    ],
)
def test_canonical_never_beats_exhaustive(make, max_len):
    algebra = make()
    canonical = zdcl(algebra, mode="canonical", max_len=max_len)
    exhaustive = zdcl(algebra, mode="exhaustive", max_len=max_len)
    assert canonical.length <= exhaustive.length


def test_zdcl_point_with_its_empty_generators_is_zero():
    point = point_algebra()
    assert point.generators == ()
    assert zdcl(point).length == 0


def test_zdcl_point_is_zero():
    result = zdcl(point_algebra(), mode="canonical")
    assert result.length == 0
    assert result.witness == ()
    assert not result.product_value.is_zero


# -- element-level properties via hypothesis -------------------------------------------

_coeff = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(c1=_coeff, c2=_coeff, c3=_coeff, c4=_coeff)
def test_graded_commutativity_of_homogeneous_elements(c1, c2, c3, c4):
    sigma = surface_algebra(2)
    x = sigma.element({"u1": c1, "v2": c2})
    y = sigma.element({"v1": c3, "u2": c4})
    # degree-1 homogeneous elements anticommute
    assert x * y == (y * x).scale(-1)


@settings(max_examples=60, deadline=None)
@given(c1=_coeff, c2=_coeff, c3=_coeff)
def test_bilinearity(c1, c2, c3):
    t2 = catalog_space("torus:2").algebra
    gens = t2.generators
    x = t2.element({gens[0]: c1})
    y = t2.element({gens[1]: c2})
    z = t2.element({gens[1]: c3})
    assert x * (y + z) == x * y + x * z


def test_elements_are_canonical_sparse():
    s = sphere_algebra(2)
    z = s.element({"u": 1}) - s.element({"u": 1})
    assert z.coeffs == {} and z.is_zero
