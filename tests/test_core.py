"""Element arithmetic, normal forms, and grading, against letter-count oracles."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import loophom
from loophom import (
    Algebra,
    DomainError,
    Generator,
    StructureError,
    based_loop_space,
    loop_space,
    sphere_space,
)
from loophom.core import int_from_digits, power, scalar_str

from oracles import (
    brute_force_basis,
    decimal_value,
    is_two_torsion,
    loop_product_degree,
    monomial_product_by_hand,
    pontrjagin_product_degree,
)

SPACE_FACTORIES = {
    "loop3Q": lambda: loop_space(3, "Q"),
    "loop3Z": lambda: loop_space(3, "Z"),
    "loop4Q": lambda: loop_space(4, "Q"),
    "loop4Z": lambda: loop_space(4, "Z"),
    "omega3Q": lambda: based_loop_space(3, "Q"),
    "omega4Z": lambda: based_loop_space(4, "Z"),
    "sphere5Q": lambda: sphere_space(5, "Q"),
}


def _monomial_pool(space) -> list:
    pool = []
    for degree in range(0, 4 * space.n + 4):
        pool.extend(space.basis(degree))
    return pool


@st.composite
def element_tuples(draw, size: int):
    """`size` random elements of one shared algebra."""
    key = draw(st.sampled_from(sorted(SPACE_FACTORIES)))
    space = SPACE_FACTORIES[key]()
    pool = _monomial_pool(space)
    out = []
    for _ in range(size):
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            mono = draw(st.sampled_from(pool))
            if space.ring == "Q":
                coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
            else:
                coeff = draw(st.integers(-6, 6))
            terms.append((coeff, mono))
        out.append(space.normalize(terms))
    return (space, *out)


# ----------------------------------------------------------------------
# grading against the letter-count oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_loop_monomial_degrees_match_letter_counting(n: int) -> None:
    space = loop_space(n, "Z")
    # (letter, homological degree) in exponent-vector order, written out here
    table = [("A", 0), ("U", 2 * n - 1)] if n % 2 else [("sigma1", n - 1), ("A", 0), ("Theta", 3 * n - 2)]
    assert [g.name for g in space.generators] == [name for name, _ in table]
    for degree in range(0, 8 * n):
        for mono in space.basis(degree):
            exps = space.exponents(mono)
            letters = [deg for (_, deg), e in zip(table, exps) for _ in range(e)]
            assert space.monomial_degree(mono) == loop_product_degree(
                n, letters
            )
            assert space.monomial_degree(mono) == degree


@pytest.mark.parametrize("n", [3, 4])
def test_omega_monomial_degrees_match_letter_counting(n: int) -> None:
    space = based_loop_space(n, "Z")
    for k in range(0, 12):
        mono = space.monomial((k,))
        assert space.monomial_degree(mono) == pontrjagin_product_degree(
            [n - 1] * k
        )


def test_unit_degrees() -> None:
    assert loop_space(3, "Q").unit().degree() == 3
    assert loop_space(4, "Q").unit().degree() == 4
    assert based_loop_space(3, "Q").unit().degree() == 0
    assert sphere_space(3, "Q").unit().degree() == 3


# ----------------------------------------------------------------------
# normal forms: frozen examples
# ----------------------------------------------------------------------


def test_nilpotent_square_is_zero() -> None:
    space = loop_space(3, "Q")
    a = space.generator("A")
    assert not a * a
    assert str(a * a) == "0"


def test_collecting_like_terms() -> None:
    space = loop_space(3, "Q")
    u = space.generator("U")
    assert 2 * u + u == 3 * u
    assert u - u == space.zero()


def test_square_of_u_is_theta() -> None:
    space = loop_space(3, "Q")
    u = space.generator("U")
    assert u * u == space.generator("Theta")
    assert str(u * u) == "U^2"
    assert (u * u).degree() == 7


def test_sigma1_is_a_times_u_for_odd_n() -> None:
    space = loop_space(3, "Q")
    sigma1 = space.generator("sigma1")
    assert sigma1 == space.generator("A") * space.generator("U")
    assert str(sigma1) == "A*U"
    assert sigma1.degree() == 2


def test_basis_enumeration_small_odd() -> None:
    alg = loop_space(3, "Q")
    assert alg.basis(4) == [alg.monomial((1, 2))]
    assert alg.basis(1) == []
    assert alg.basis(0) == [alg.monomial((1, 0))]
    assert alg.basis(3) == [alg.monomial((0, 0))]


BASIS_CASES = (
    [("loop", n, ring) for n in range(2, 9) for ring in ("Q", "Z")]
    + [("omega", n, ring) for n in (2, 3, 4) for ring in ("Q", "Z")]
    + [("sphere", n, ring) for n in (2, 3, 4) for ring in ("Q", "Z")]
)
SPACE_OF_KIND = {"loop": loop_space, "omega": based_loop_space, "sphere": sphere_space}


@pytest.mark.parametrize("kind,n,ring", BASIS_CASES)
def test_basis_matches_brute_force(kind: str, n: int, ring: str) -> None:
    alg = SPACE_OF_KIND[kind](n, ring)
    expected = brute_force_basis(kind, n, ring, 200)
    # the order of basis(d) is the exponent-vector order; loop n=2 over Z has two monomials a degree
    for d in range(201):
        assert [alg.exponents(m) for m in alg.basis(d)] == expected.get(d, []), (kind, n, ring, d)


# ----------------------------------------------------------------------
# the product kernel against exponent vectors multiplied by hand
# ----------------------------------------------------------------------

KERNEL_CASES = [(kind, n, ring) for kind in ("loop", "omega", "sphere") for n in range(2, 7) for ring in ("Q", "Z")]
KERNEL_SCALARS = {"Q": (1, 3, -2, Fraction(1, 2)), "Z": (1, 3, -2)}


def _by_hand(alg, terms) -> dict:
    """monomial -> coefficient from oracle (exponent vector, coefficient) pairs, summed; zero sums dropped."""
    out: dict = {}
    for word, coeff in filter(None, terms):
        mono = alg.monomial(word)
        out[mono] = out.get(mono, 0) + coeff
    return {m: c for m, c in out.items() if c}


def _normal_coefficients(elt) -> bool:
    """No zero coefficient, and every integral one an int."""
    return all(c and (type(c) is int or c.denominator != 1) for c in elt.terms.values())


@pytest.mark.parametrize("kind,n,ring", KERNEL_CASES)
def test_product_kernel_matches_exponent_vectors_multiplied_by_hand(kind: str, n: int, ring: str) -> None:
    # scaled basis monomials: mod-2 torsion over Z, zero rules, nilpotent overlaps, Fraction -> int
    alg = SPACE_OF_KIND[kind](n, ring)
    by_degree = brute_force_basis(kind, n, ring, 40)
    scalars = KERNEL_SCALARS[ring]
    for du, us in by_degree.items():
        for dv, vs in by_degree.items():
            if du + dv > 40:
                continue
            for u in us:
                for v in vs:
                    eu, ev = alg.monomial_element(alg.monomial(u)), alg.monomial_element(alg.monomial(v))
                    for a in scalars:
                        for b in scalars:
                            got = (a * eu) * (b * ev)
                            assert got.terms == _by_hand(alg, [monomial_product_by_hand(kind, n, ring, u, v, a * b)])
                            assert _normal_coefficients(got), (u, v, a, b)


@pytest.mark.parametrize("kind,n,ring", KERNEL_CASES)
def test_cross_terms_cancel_inside_one_product(kind: str, n: int, ring: str) -> None:
    # (u+v)*(u-v) = u^2 - v^2: the two cross terms meet on one monomial and cancel
    alg = SPACE_OF_KIND[kind](n, ring)
    words = [w for ws in brute_force_basis(kind, n, ring, 20).values() for w in ws]
    for u in words:
        for v in words:
            if u == v:
                continue
            eu, ev = alg.monomial_element(alg.monomial(u)), alg.monomial_element(alg.monomial(v))
            got = (eu + ev) * (eu - ev)
            squares = [monomial_product_by_hand(kind, n, ring, w, w, c) for w, c in ((u, 1), (v, -1))]
            assert got.terms == _by_hand(alg, squares), (u, v)
            assert _normal_coefficients(got)


def test_products_that_cancel_to_zero() -> None:
    loop3 = loop_space(3, "Q")
    a, u = loop3.generator("A"), loop3.generator("U")
    assert (a + a * u) * (a - a * u) == loop3.zero()  # every product has A^2
    loop4z = loop_space(4, "Z")
    torsion = loop4z.generator("A") * loop4z.generator("Theta")
    theta = loop4z.generator("Theta")
    assert (torsion + theta) * (torsion - theta) + theta * theta == loop4z.zero()  # -A*Theta^2 = A*Theta^2
    omega = based_loop_space(3, "Q")
    x, half = omega.generator("x"), omega.unit() * Fraction(1, 2)
    assert (x + half) * (x - half) - x * x + half * half == omega.zero()


@given(element_tuples(2))
def test_sums_fold_into_the_normal_form_of_the_joined_terms(data) -> None:
    space, a, b = data
    left = [(c, m) for m, c in a.terms.items()]
    assert (a + b).terms == space.normalize(left + [(c, m) for m, c in b.terms.items()]).terms
    assert (a - b).terms == space.normalize(left + [(-c, m) for m, c in b.terms.items()]).terms
    assert _normal_coefficients(a + b) and _normal_coefficients(a - b)


def test_even_n_zero_rules() -> None:
    space = loop_space(4, "Z")
    sigma1, a = space.generator("sigma1"), space.generator("A")
    assert not sigma1 * a
    assert not a * a
    assert not sigma1 * sigma1


# ----------------------------------------------------------------------
# 2-torsion over Z, by repeated addition
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_a_theta_multiples_are_two_torsion_over_z(k: int) -> None:
    space = loop_space(4, "Z")
    cls = space.generator("A") * space.generator("Theta") ** k
    assert is_two_torsion(cls)
    assert 2 * cls == space.zero() == cls * 2
    assert 5 * cls == cls == -cls
    assert cls - 3 * cls == space.zero()
    theta_k = space.generator("Theta") ** k
    assert (cls + theta_k) * 2 == 2 * theta_k


def test_a_theta_multiples_vanish_over_q() -> None:
    space = loop_space(4, "Q")
    assert not space.generator("A") * space.generator("Theta")


def test_torsion_graded_piece_over_z() -> None:
    alg = loop_space(4, "Z")
    assert alg.graded_piece(6) == ([], [alg.monomial((0, 1, 1))])
    assert loop_space(4, "Q").basis(6) == []


# ----------------------------------------------------------------------
# ring laws (property tests)
# ----------------------------------------------------------------------


@given(element_tuples(3))
def test_product_is_associative(data) -> None:
    _, a, b, c = data
    assert (a * b) * c == a * (b * c)


@given(element_tuples(3))
def test_product_distributes_over_sum(data) -> None:
    _, a, b, c = data
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(element_tuples(2))
def test_addition_laws(data) -> None:
    space, a, b = data
    zero = space.zero()
    assert a + b == b + a
    assert a - a == zero
    assert a + zero == a
    assert -(-a) == a
    assert a - b == a + (-b)


@given(element_tuples(1))
def test_unit_is_two_sided(data) -> None:
    space, a = data
    one = space.unit()
    assert one * a == a
    assert a * one == a


@given(element_tuples(1))
def test_scalars_act_like_repeated_addition(data) -> None:
    space, a = data
    assert 2 * a == a + a
    assert 0 * a == space.zero() == a * 0 == a * Fraction(0)
    assert a * 3 == a + a + a
    if space.ring == "Q":
        assert Fraction(1, 2) * a == a * Fraction(1, 2)


@given(element_tuples(1), st.integers(0, 13))
def test_powers_are_iterated_products(data, k: int) -> None:
    space, a = data
    expected = space.unit()
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(st.integers(-50, 50) | st.fractions(-50, 50, max_denominator=50), st.integers(0, 50))
def test_scalar_powers_are_fraction_powers(c, k: int) -> None:
    assert power(c, k) == Fraction(c) ** k


@given(element_tuples(1))
def test_normalize_is_idempotent(data) -> None:
    space, a = data
    again = space.normalize((c, m) for m, c in a.terms.items())
    assert again == a


@pytest.mark.parametrize("key", sorted(SPACE_FACTORIES))
def test_graded_commutativity_of_monomials(key: str) -> None:
    space = SPACE_FACTORIES[key]()
    pool = _monomial_pool(space)[:40]
    n = space.n
    for m1 in pool:
        for m2 in pool:
            u = space.monomial_element(m1)
            v = space.monomial_element(m2)
            if space.kind == "omega":
                sign = 1  # the based ring is honestly commutative
            else:
                du = space.monomial_degree(m1)
                dv = space.monomial_degree(m2)
                sign = -1 if ((du - n) * (dv - n)) % 2 else 1
            assert u * v == sign * (v * u)


# ----------------------------------------------------------------------
# coefficients and errors
# ----------------------------------------------------------------------


def test_integral_fractions_coerce_over_z() -> None:
    space = loop_space(3, "Z")
    u = space.generator("U")
    assert Fraction(4, 2) * u == 2 * u


def test_fractional_coefficients_rejected_over_z() -> None:
    space = loop_space(3, "Z")
    with pytest.raises(DomainError):
        space.generator("U") * Fraction(1, 2)


@given(element_tuples(1))
def test_homogeneous_parts_are_normal_and_sum_back(data) -> None:
    space, a = data
    parts = a.homogeneous_parts()
    total = space.zero()
    for degree, part in parts.items():
        assert part == space.normalize((c, m) for m, c in part.terms.items())
        assert part and part.degrees() == [degree]
        total = total + part
    assert list(parts) == a.degrees()
    assert total == a


def test_division_needs_q() -> None:
    u_q = loop_space(3, "Q").generator("U")
    assert (u_q / 2) * 2 == u_q
    with pytest.raises(DomainError):
        loop_space(3, "Z").generator("U") / 2
    with pytest.raises(DomainError):
        u_q / 0


def test_negative_exponent_rejected() -> None:
    with pytest.raises(DomainError):
        loop_space(3, "Q").generator("U") ** -1


def test_mixing_algebras_raises() -> None:
    u = loop_space(3, "Q").generator("U")
    x = based_loop_space(3, "Q").generator("x")
    with pytest.raises(StructureError):
        u + x
    with pytest.raises(StructureError):
        u * x


def test_degree_of_inhomogeneous_element_raises() -> None:
    space = loop_space(3, "Q")
    mixed = space.generator("A") + space.generator("U")
    assert not mixed.is_homogeneous()
    assert mixed.degrees() == [0, 5]
    with pytest.raises(DomainError):
        mixed.degree()
    parts = mixed.homogeneous_parts()
    assert sorted(parts) == [0, 5]
    assert parts[0] == space.generator("A")


def test_malformed_monomials_raise() -> None:
    alg = loop_space(3, "Q")
    # a wrong width, a negative or non-int exponent, a nilpotent letter squared, or not a vector
    for bad in [(1, 2, 3), (-1, 0), (0, 1.0), (True, 0), (0, "1"), (2, 0), 3, "A"]:
        with pytest.raises(StructureError):
            alg.monomial(bad)
    # a monomial is a non-negative int, and a bool is not one
    for bad in [(0, 1), -1, True, 1.0]:
        with pytest.raises(StructureError):
            alg.normalize([(1, bad)])
    # the sphere has no free letter, so its monomials stop at the nilpotent mask
    with pytest.raises(StructureError):
        sphere_space(3, "Q").normalize([(1, 2)])


@pytest.mark.parametrize("ring", ["Q", "Z"])
def test_checks_survive_a_warm_monomial_memo(ring: str) -> None:
    alg = loop_space(4, ring)
    theta = alg.monomial((0, 0, 1))
    valid = [mono for d in range(60) for mono in alg.basis(d)] + [alg.monomial((1, 1, 4))]
    alg.normalize([(1, mono) for mono in valid])
    for bad in [(1, 2), (0, 1, 2, 3), (0, -1, 2), (-1, 0, 0), (1, 0, -5), (2, 0, 0)]:
        with pytest.raises(StructureError):
            alg.monomial(bad)
    for bad in [(0, 0, 1), -1, -theta, False, 0.0]:
        with pytest.raises(StructureError):
            alg.normalize([(1, theta), (1, bad)])
    for coeff in (True, False, 0.5, "1"):
        with pytest.raises(DomainError):
            alg.normalize([(1, theta), (coeff, theta)])
    # an exponent vector given as a list names the same monomial as the tuple
    assert alg.monomial([0, 0, 1]) == theta
    assert alg.exponents(theta) == (0, 0, 1)
    assert alg.normalize([(3, alg.monomial([0, 0, 1]))]) == 3 * loop_space(4, ring).generator("Theta")


def test_generator_keeps_its_defaults_and_keywords() -> None:
    g = Generator("x", 2)
    assert (g.name, g.shifted, g.nilpotent) == ("x", 2, False)
    assert Generator("A", shifted=-3, nilpotent=True) == Generator("A", -3, True)
    assert Generator(name="U", shifted=2).nilpotent is False
    with pytest.raises(AttributeError):
        g.name = "y"


def test_integral_coefficients_over_q_are_ints() -> None:
    space = loop_space(3, "Q")
    u = space.generator("U")
    u_mono = space.monomial((0, 1))
    assert u * Fraction(4, 2) == 2 * u
    assert hash(u * Fraction(4, 2)) == hash(2 * u)
    assert type((u * Fraction(4, 2)).coefficient(u_mono)) is int
    back = Fraction(1, 2) * u * 2
    assert back == u and hash(back) == hash(u) and type(back.coefficient(u_mono)) is int
    assert type(space.scalar(Fraction(6, 3))) is int
    half = u / 2
    assert half.coefficient(u_mono) == Fraction(1, 2)
    whole = half + half
    assert whole == u and type(whole.coefficient(u_mono)) is int
    assert all(type(c) is int for c in ((u + space.generator("A")) ** 5).terms.values())


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


def test_scalar_rendering() -> None:
    assert scalar_str(Fraction(3, 2)) == "3/2"
    assert scalar_str(Fraction(4, 2)) == "2"
    assert scalar_str(-7) == "-7"


def test_big_scalars_print_exactly() -> None:
    # past Python's default 4300-digit int->str limit, without touching it
    limit = sys.get_int_max_str_digits()
    for value in (10**5000 + 7, -(3**9000), 2**40000, 10**4300):
        text = scalar_str(value)
        digits = text.lstrip("-")
        assert text.startswith("-") == (value < 0)
        assert digits[0] != "0"
        assert decimal_value(digits) == abs(value)
    p, q = 3**9000, 2**20001
    num, den = scalar_str(Fraction(-p, q)).split("/")
    assert (decimal_value(num.lstrip("-")), decimal_value(den)) == (p, q)
    assert num.startswith("-")
    assert sys.get_int_max_str_digits() == limit


def test_big_ints_print_as_str_does() -> None:
    # past the digit limit the digits come through decimal; str() with the limit lifted is the reference
    rng = random.Random(4301)
    values = [10**k for k in (4300, 4301, 65536)] + [10**k - 1 for k in (4301, 4302, 65536, 200000)]
    values += [rng.randrange(10 ** (k - 1), 10**k) for k in (4301, 4302, 9999, 65537)]
    values += [-v for v in values[:6]]  # str() is quadratic: one value of 2*10^5 digits takes it most of a second
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [scalar_str(v) for v in values] == expected
    assert min(len(text.lstrip("-")) for text in expected) == 4301


def test_bool_is_not_a_scalar() -> None:
    space = loop_space(3, "Q")
    u = space.generator("U")
    for attempt in (
        lambda: u * True,
        lambda: False * u,
        lambda: True * loop_space(3, "Z").generator("U"),
        lambda: loop_space(3, "Z").generator("U") * False,
        lambda: u / True,
        lambda: u**True,
        lambda: space.scalar(True),
        lambda: loop_space(3, "Z").scalar(False),
        lambda: space.normalize([(True, space.monomial((0, 1)))]),
    ):
        with pytest.raises(DomainError):
            attempt()


def test_element_rendering() -> None:
    space = loop_space(3, "Q")
    a, u = space.generator("A"), space.generator("U")
    assert str(space.zero()) == "0"
    assert str(space.unit()) == "E"
    assert str(a * u**3) == "A*U^3"
    assert str(3 * a + u) == "3*A + U"
    assert str(-a + Fraction(1, 2) * u) == "-A + 1/2*U"
    assert str(a - 2 * u) == "A - 2*U"


def test_omega_unit_prints_as_scalar() -> None:
    space = based_loop_space(3, "Q")
    assert str(space.unit()) == "1"
    assert str(2 * space.unit()) == "2"
    assert str(space.generator("x") ** 2) == "x^2"


def test_rendering_orders_terms_by_degree() -> None:
    space = loop_space(3, "Q")
    a, u = space.generator("A"), space.generator("U")
    low_last = u * u + a
    assert str(low_last) == "A + U^2"


# ----------------------------------------------------------------------
# the generality the presentations use, and the public names
# ----------------------------------------------------------------------


def test_algebra_refuses_two_free_generators_or_a_non_positive_one() -> None:
    two = (Generator("x", 2), Generator("y", 3))
    with pytest.raises(StructureError):
        Algebra("two free", "Q", two, shift=0)
    for shifted in (0, -2):
        with pytest.raises(StructureError):
            Algebra("flat", "Q", (Generator("x", shifted),), shift=0)
    # nilpotent generators of any shifted degree are fine, and so is one free one
    gens = (Generator("a", -3, nilpotent=True), Generator("b", 0, nilpotent=True), Generator("x", 2))
    alg = Algebra("ok", "Q", gens, shift=0)
    assert [alg.exponents(m) for m in alg.basis(2)] == [(0, 0, 1), (0, 1, 1)]


def test_algebra_refuses_a_nilpotent_generator_after_the_free_one() -> None:
    gens = (Generator("x", 2), Generator("a", -3, nilpotent=True))
    with pytest.raises(StructureError, match="first"):
        Algebra("free first", "Q", gens, shift=0)
    with pytest.raises(StructureError, match="first"):
        Algebra("between", "Q", (Generator("b", 0, nilpotent=True), *gens), shift=0)


def test_algebra_refuses_two_generators_of_odd_shifted_degree() -> None:
    for nilpotent in (True, False):
        two = (Generator("a", -1, nilpotent=True), Generator("b", 3, nilpotent=nilpotent))
        with pytest.raises(StructureError, match="odd"):
            Algebra("two odd", "Q", two, shift=0)


@pytest.mark.parametrize("n", [3, 4])
def test_one_generator_products_never_sign(n: int) -> None:
    # x has odd shifted degree for n even, yet x^i * x^j = x^(i+j) with coefficient 1
    x = based_loop_space(n, "Q").generator("x")
    for i in range(8):
        for j in range(8):
            product = x**i * x**j
            assert product == x ** (i + j)
            assert product.terms == {x.algebra.monomial((i + j,)): 1}


@pytest.mark.parametrize("ring", ["Q", "Z"])
@pytest.mark.parametrize("n", range(2, 10))
def test_loop_product_is_graded_commutative(n: int, ring: str) -> None:
    # v*u = (-1)^((|u|-n)(|v|-n)) u*v, the sign taken from the degrees here
    alg = loop_space(n, ring)
    classes = [(d, alg.monomial_element(m)) for d in range(61) for m in alg.basis(d)]
    for du, u in classes:
        for dv, v in classes:
            if du + dv <= 60:
                sign = -1 if (du - n) * (dv - n) % 2 else 1
                assert v * u == sign * (u * v), (u, v)


def test_every_public_name_resolves() -> None:
    for name in loophom.__all__:
        assert getattr(loophom, name) is not None, name
    assert "homology_action" not in loophom.__all__
    assert not hasattr(loophom, "homology_action")


def test_digit_strings_parse_past_the_digit_limit() -> None:
    for digits in ("0", "7", "0012", "9" * 4300, "7" * 5000, "1" + "0" * 12000):
        assert int_from_digits(digits) == decimal_value(digits)
    big = 3**20000  # 9543 digits
    assert int_from_digits(scalar_str(big)) == big
