"""One-term products and powers: each direct path against a reference it does not share.

Products are checked against `oracles.monomial_product_by_hand`, which applies the relations letter by letter; a
transfer product is that, times |G|^2, with the terms that reversal negates dropped by a letter-count sign.
Powers are checked against iterated products.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import (
    DomainError,
    QElement,
    based_loop_space,
    cyclic,
    dihedral,
    loop_space,
    mu_class,
    quotient,
    sphere_space,
    theta_group,
)
from loophom import core, equivariant
from loophom.core import POWER_BITS, power

from oracles import monomial_product_by_hand, reversal_sign_by_letters

#: over Z, 2 makes a torsion product's coefficient vanish mod 2
COEFFICIENTS = {"Q": (1, -3, Fraction(2, 3)), "Z": (1, -3, 2)}
PRODUCT_GROUPS = (cyclic(2), cyclic(3), dihedral(1), dihedral(2), theta_group())
POWER_GROUPS = (cyclic(2), cyclic(3), dihedral(1), theta_group())


def _one_term_classes(alg, max_degree: int) -> list:
    """c*m for every basis monomial m of degree <= max_degree and c in COEFFICIENTS, where that is one term."""
    monomials = [m for d in range(max_degree + 1) for m in alg.basis(d)]
    classes = [alg.normalize([(c, m)]) for m in monomials for c in COEFFICIENTS[alg.ring]]
    return [x for x in classes if len(x.terms) == 1]


def _same_terms(got: dict, expected: dict) -> bool:
    return got == expected and [type(c) for c in got.values()] == [type(c) for c in expected.values()]


def _by_hand(space, x, y, factor: int) -> dict:
    """{exponent vector: coefficient} of factor * x * y for one-term classes x, y of `space` or of a quotient of it,
    by `monomial_product_by_hand`; an integral coefficient is an int, as the engine writes it."""
    ((mx, cx),), ((my, cy),) = x.terms.items(), y.terms.items()
    u, v = space.exponents(mx), space.exponents(my)
    term = monomial_product_by_hand(space.kind, space.n, space.ring, u, v, factor * cx * cy)
    if term is None:
        return {}
    word, coeff = term
    return {word: coeff.numerator if coeff.denominator == 1 else coeff}


def _words(space, elt) -> dict:
    """An element's terms keyed by exponent vector."""
    return {space.exponents(m): c for m, c in elt.terms.items()}


@pytest.mark.parametrize("ring", ["Q", "Z"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_one_term_products_match_the_collected_path(n: int, ring: str) -> None:
    seen = Counter()
    for space in (loop_space(n, ring), based_loop_space(n, ring), sphere_space(n, ring)):
        classes = _one_term_classes(space, 4 * n)
        for x in classes:
            for y in classes:
                expected = _by_hand(space, x, y, 1)
                got = x * y
                assert type(got) is core.Element and _same_terms(_words(space, got), expected), (x, y)
                (mx,), (my,) = x.terms, y.terms
                mono = space.mul_monomials(mx, my)
                if mono is None:
                    seen["nilpotent collision"] += 1
                elif mono >> space._k >= space._zero_from[mono & space._nil]:
                    seen["zero rule"] += 1
                elif mono >> space._k >= space._torsion_from[mono & space._nil]:
                    seen["torsion" if expected else "torsion, dropped mod 2"] += 1
    assert seen["nilpotent collision"]
    if n % 2 == 0:  # sigma1*A = 0, and over Q the torsion monomials A*Theta^k
        assert seen["zero rule"]
    if n % 2 == 0 and ring == "Z":
        assert seen["torsion"] and seen["torsion, dropped mod 2"]


@pytest.mark.parametrize("group", PRODUCT_GROUPS, ids=lambda g: g.label)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_term_transfer_products_match_the_collected_path(n: int, group) -> None:
    unfixed = 0
    for space in (loop_space(n, "Q"), based_loop_space(n, "Q")):
        q = quotient(space, group)
        classes = _one_term_classes(q, 4 * n)
        for a in classes:
            for b in classes:
                expected = _by_hand(space, a, b, group.order**2)
                if group.reflections and any(reversal_sign_by_letters(space.kind, n, w) < 0 for w in expected):
                    expected, unfixed = {}, unfixed + 1  # in the kernel of q_*
                got = q.product(a, b)
                assert type(got) is QElement and _same_terms(_words(space, got), expected), (a, b)
    # on the based algebra with n even, theta_* is not multiplicative: x^3 is fixed, x^6 negated
    assert unfixed if group.reflections and n % 2 == 0 else not unfixed


@st.composite
def one_term_bases(draw):
    """A nonzero scalar, or a one-term class of a space (n = 2..6, both rings) or of a quotient
    (C2, C3, D1 or theta over the loop or based algebra, n = 3..6), torsion monomials over Z included.
    The first two go in closed form, the quotient classes by square-and-multiply of transfer products."""
    kind = draw(st.sampled_from(["scalar", "space", "quotient"]))
    if kind == "scalar":
        return draw(st.sampled_from([1, -1, 2, -3, Fraction(2, 3), Fraction(-1, 2)]))
    if kind == "space":
        n = draw(st.integers(2, 6))
        make = draw(st.sampled_from([loop_space, based_loop_space, sphere_space]))
        alg = make(n, draw(st.sampled_from(["Q", "Z"])))
    else:
        n = draw(st.integers(3, 6))
        make = draw(st.sampled_from([loop_space, based_loop_space]))
        alg = quotient(make(n, "Q"), draw(st.sampled_from(POWER_GROUPS)))
    pool = [m for d in range(4 * n + 1) for m in alg.basis(d)]
    coeff = draw(st.sampled_from((1, -3, 5) if alg.ring == "Z" else (1, -3, Fraction(2, 3), Fraction(-1, 2))))
    return alg.normalize([(coeff, draw(st.sampled_from(pool)))])


@settings(max_examples=300, deadline=None)
@given(one_term_bases(), st.integers(0, 50))
def test_one_term_powers_are_iterated_products(base, k: int) -> None:
    unit = base.algebra.unit() if isinstance(base, core.Element) else 1
    expected = functools.reduce(operator.mul, [base] * k, unit)
    got = power(base, k)
    assert got == expected and type(got) is type(expected)
    if isinstance(got, core.Element):
        assert _same_terms(got.terms, expected.terms)


def test_one_term_powers_form_no_product(monkeypatch) -> None:
    loop = loop_space(3, "Q")
    u, a = loop.monomial((0, 1)), loop.monomial((1, 0))
    q = quotient(loop, dihedral(1))
    mu = mu_class(q)
    products, product = [], equivariant.Quotient.product
    monkeypatch.setattr(equivariant.Quotient, "product", lambda self, x, y: products.append(y) or product(self, x, y))
    # a quotient class stays on square-and-multiply: its power is three squares and one multiply by mu, each P
    assert mu**9 == q.normalize([(4**8, 9 * next(iter(mu.terms)))]) and len(products) == 4 and products[-1] == mu

    def refuse(*args):
        raise AssertionError("a one-term power formed a product")

    multiply = core.Algebra._multiply
    for owner, name in ((core.Element, "__mul__"), (core.Algebra, "_multiply")):
        monkeypatch.setattr(owner, name, refuse)
    two_thirds_u = loop.normalize([(Fraction(2, 3), u)])
    assert two_thirds_u**20 == loop.normalize([(Fraction(2, 3) ** 20, 20 * u)])
    assert loop.normalize([(-3, a)]) ** 2 == loop.zero()
    assert Fraction(2, 3) ** 20 == power(Fraction(2, 3), 20)

    # k = 6 = 0b110: k's second bit is 1, and still no product is formed, not even to check the loop's first multiply
    multiplies = []
    monkeypatch.setattr(core.Algebra, "_multiply", lambda self, x, y: multiplies.append(x) or multiply(self, x, y))
    assert two_thirds_u**6 == loop.normalize([(Fraction(2, 3) ** 6, 6 * u)])
    assert multiplies == []


def test_a_one_term_power_that_vanishes_is_zero_at_any_exponent() -> None:
    # square-and-multiply reached 0 at its first square and kept it, so no coefficient ceiling refused it
    loop = loop_space(4, "Z")
    omega = quotient(based_loop_space(4, "Q"), dihedral(1))
    for base in (loop.normalize([(-3, loop.monomial((0, 1, 0)))]), omega.normalize([(Fraction(2, 3), 3)])):
        assert power(base, 10**9) == base.algebra.zero()


def test_one_term_powers_meet_the_bit_ceiling_where_square_and_multiply_met_it() -> None:
    loop = loop_space(3, "Q")
    u = loop.monomial((0, 1))
    half_u = loop.normalize([(Fraction(1, 2), u)])
    assert power(half_u, POWER_BITS - 1).terms == {(POWER_BITS - 1) * u: Fraction(1, 2 ** (POWER_BITS - 1))}
    q = quotient(loop, dihedral(1))
    mu = mu_class(q)
    (m,) = mu.terms
    k = POWER_BITS // 2  # P_D1 powers carry 4^(k-1), of 2k - 1 bits; square-and-multiply forms them
    assert power(mu, k).terms == {k * m: 4 ** (k - 1)}
    for base, past in ((half_u, POWER_BITS), (mu, k + 1), (mu, 2 * k)):
        with pytest.raises(DomainError, match=f"^a power with exponent {past} has coefficients of more than "):
            power(base, past)


@pytest.mark.parametrize(
    "bits,k,ceiling",
    [
        (5 * POWER_BITS, 2, "needs term products"),  # the first square of square-and-multiply
        (3 * POWER_BITS, 3, "has coefficients"),  # the square passes, and the power is refused before it is formed
        (3 * POWER_BITS, 2, "has coefficients"),
        (POWER_BITS // 2, 3, "has coefficients"),
    ],
)
def test_one_term_power_refusals_name_the_ceiling_square_and_multiply_names(bits: int, k: int, ceiling: str) -> None:
    loop = loop_space(3, "Q")
    for base in (2**bits, loop.normalize([(2**bits, loop.monomial((0, 1)))])):
        with pytest.raises(DomainError, match=f"^a power with exponent {k} {ceiling} "):
            power(base, k)


@pytest.mark.parametrize("ring", ["Q", "Z"])
def test_one_term_powers_meet_the_zero_and_torsion_rules_of_a_free_letter(ring: str) -> None:
    # no space has a rule on a power of its free letter alone, so the closed form's zero and torsion rules for the
    # power's monomial are reached only here: x^4 = 0, and x^2 is 2-torsion over Z (and so 0 over Q)
    alg = core.Algebra("x^4 = 0", ring, (core.Generator("x", 2),), shift=0, extra_zero_rules=(4,), torsion_rules=(2,))
    for coeff in (1, 2, 3) if ring == "Z" else (1, Fraction(2, 3)):
        base = alg.normalize([(coeff, 1)])
        for k in range(2, 7):
            expected = functools.reduce(operator.mul, [base] * k)
            assert _same_terms(power(base, k).terms, expected.terms), (base, k)
            assert bool(expected) == (ring == "Z" and k < 4 and coeff % 2 == 1), (base, k)
