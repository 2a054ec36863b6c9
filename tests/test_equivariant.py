"""Subgroups, quotient homology, transfers, and the transfer products."""

from __future__ import annotations

import copy
import functools
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import (
    Algebra,
    DomainError,
    Element,
    QElement,
    StructureError,
    Subgroup,
    a_product,
    based_loop_space,
    conjugate_dihedral,
    cyclic,
    dihedral,
    eta_class,
    loop_space,
    mu_class,
    quotient,
    sphere_space,
    theta_group,
    theta_star,
)
from loophom import verify
from loophom.verify import TRANSFER_GROUPS

from oracles import quotient_betti_closed_form, transfer_product_representative

REFLECTION_GROUPS = [dihedral(1), dihedral(3), theta_group(), conjugate_dihedral(2, Fraction(1, 3))]
ALL_GROUPS = REFLECTION_GROUPS + [cyclic(1), cyclic(4)]


def _invariant_classes(q, max_degree: int) -> list:
    return [q.monomial_element(m) for d in range(max_degree + 1) for m in q.basis(d)]


# ----------------------------------------------------------------------
# the subgroup catalogue
# ----------------------------------------------------------------------


def test_subgroup_orders_and_labels() -> None:
    assert cyclic(5).order == 5
    assert dihedral(5).order == 10
    assert theta_group().order == 2
    assert cyclic(5).label == "C5"
    assert dihedral(5).label == "D5"
    assert theta_group().label == "theta"
    assert conjugate_dihedral(3, Fraction(1, 5)).label == "D3@1/5"
    nines = "9" * 5000  # past the int->str digit limit
    assert cyclic(10**5000 - 1).label == "C" + nines
    assert repr(dihedral(10**5000 - 1)) == f"Subgroup(m={nines}, reflections=True, rotation=Fraction(0, 1))"
    # a rotation whose denominator is past the limit
    tiny = conjugate_dihedral(3, Fraction(1, 10**5000))
    assert tiny.label == "D3@1/1" + "0" * 5000
    assert repr(tiny) == f"Subgroup(m=3, reflections=True, rotation=Fraction(1, 1{'0' * 5000}))"
    assert repr(conjugate_dihedral(3, Fraction(1, 5))) == "Subgroup(m=3, reflections=True, rotation=Fraction(1, 5))"
    wide = conjugate_dihedral(1, 1 - Fraction(1, 10**5000))  # numerator and denominator past the limit
    assert wide.label == f"D1@{nines}/1{'0' * 5000}"
    assert repr(wide) == f"Subgroup(m=1, reflections=True, rotation=Fraction({nines}, 1{'0' * 5000}))"


def test_subgroup_is_m_reflections_rotation() -> None:
    assert (cyclic(6).m, cyclic(6).reflections, cyclic(6).rotation) == (6, False, 0)
    assert (dihedral(2).m, dihedral(2).reflections, dihedral(2).rotation) == (2, True, 0)
    assert (theta_group().m, theta_group().rotation) == (1, Fraction(1, 2))
    assert not cyclic(3).reflections
    assert dihedral(1).reflections
    for gone in ("kind", "homology_factors", "has_reflections"):
        assert not hasattr(dihedral(1), gone)


def test_subgroup_labels_name_groups_exactly() -> None:
    # equal groups <=> equal labels, over a grid of sizes and rotations
    rotations = [Fraction(k, 6) for k in range(-6, 13)] + [Fraction(1, 5), Fraction(7, 3)]
    groups = [cyclic(m) for m in range(1, 5)] + [dihedral(m) for m in range(1, 5)]
    groups += [conjugate_dihedral(m, s) for m in range(1, 5) for s in rotations]
    for a in groups:
        for b in groups:
            assert (a == b) == (a.label == b.label), (a, b)
            if a == b:
                assert hash(a) == hash(b)


def test_subgroup_rotation_is_canonical() -> None:
    assert conjugate_dihedral(1, Fraction(3, 2)) == theta_group()
    assert conjugate_dihedral(2, 0) == dihedral(2)
    assert conjugate_dihedral(2, 0).label == "D2"
    assert conjugate_dihedral(2, Fraction(1, 2)) == dihedral(2)
    assert conjugate_dihedral(3, Fraction(-1, 12)).rotation == Fraction(1, 4)
    assert cyclic(4) == Subgroup(4, False, Fraction(1, 7))
    assert conjugate_dihedral(1, Fraction(1, 3)).label == "D1@1/3"
    assert conjugate_dihedral(1, Fraction(1, 3)) != theta_group()


def test_subgroup_is_an_immutable_value() -> None:
    group = theta_group()
    for name in ("m", "reflections", "rotation", "other"):
        with pytest.raises(AttributeError):
            setattr(group, name, 2)
        with pytest.raises(AttributeError):
            delattr(group, name)
    assert (group.m, group.reflections, group.rotation) == (1, True, Fraction(1, 2))
    assert repr(group) == "Subgroup(m=1, reflections=True, rotation=Fraction(1, 2))"
    assert copy.copy(group) == group == pickle.loads(pickle.dumps(group))


def test_subgroups_compare_by_canonical_triple_only() -> None:
    assert conjugate_dihedral(1, Fraction(3, 2)) == theta_group()
    assert hash(conjugate_dihedral(1, Fraction(3, 2))) == hash(theta_group())
    assert cyclic(2) != dihedral(1)  # both of order 2
    assert theta_group() != (1, True, Fraction(1, 2))
    assert (1, True, Fraction(1, 2)) != theta_group()
    assert {theta_group(): "theta"}.get((1, True, Fraction(1, 2))) is None


def test_equal_groups_share_one_quotient() -> None:
    space = loop_space(3, "Q")
    assert quotient(space, conjugate_dihedral(1, Fraction(3, 2))) is quotient(space, theta_group())
    assert quotient(space, conjugate_dihedral(2, 0)) is quotient(space, dihedral(2))


def test_a_products_refuse_other_reflection_quotients() -> None:
    space = loop_space(3, "Q")
    q = quotient(space, conjugate_dihedral(1, Fraction(1, 3)))
    e = q.unit()
    with pytest.raises(DomainError):
        a_product("theta", q, e, e)
    with pytest.raises(DomainError):
        a_product("vartheta", q, e, e)


def test_subgroup_validation() -> None:
    # a float or bool m would give a label such as "C2.5" or "CTrue" and a non-integral order
    for m in (0, -1, 2.5, True):
        for make in (cyclic, dihedral):
            with pytest.raises(DomainError):
                make(m)


@pytest.mark.parametrize("reflections", [None, 0, 1, "yes"], ids=repr)
def test_subgroup_reflections_must_be_a_bool(reflections) -> None:
    # Subgroup(2, None) was a second C2, whose quotient's classes could not combine with cyclic(2)'s
    with pytest.raises(DomainError, match=f"^subgroup parameter reflections must be a bool, got {reflections!r}$"):
        Subgroup(2, reflections)


@pytest.mark.parametrize("rotation", [0.1, "1/3", True, None], ids=repr)
def test_subgroup_rotation_must_be_an_int_or_a_fraction(rotation) -> None:
    # 0.1 gave the label D2@3602879701896397/36028797018963968, and "x" a ValueError
    with pytest.raises(DomainError, match=f"^subgroup rotation must be an int or a Fraction, got {rotation!r}$"):
        conjugate_dihedral(2, rotation)


def test_a_quotient_needs_a_space_and_a_subgroup() -> None:
    # quotient(space, "D1") raised AttributeError, and so did a quotient of a quotient
    space = loop_space(3, "Q")
    for args in ((space, "D1"), (space, None), (quotient(space, dihedral(1)), dihedral(1)), ("loop", dihedral(1))):
        with pytest.raises(DomainError, match="^a quotient needs a Space and a Subgroup, got "):
            quotient(*args)


# ----------------------------------------------------------------------
# quotient construction
# ----------------------------------------------------------------------


def test_quotient_requires_rational_loop_homology() -> None:
    with pytest.raises(DomainError):
        quotient(loop_space(3, "Z"), dihedral(1))
    with pytest.raises(DomainError):
        quotient(sphere_space(3, "Q"), dihedral(1))
    with pytest.raises(DomainError):
        quotient(loop_space(2, "Q"), dihedral(1))
    quotient(based_loop_space(3, "Q"), dihedral(1))  # based quotients are fine


def test_quotient_is_cached() -> None:
    assert quotient(loop_space(3, "Q"), dihedral(2)) is quotient(
        loop_space(3, "Q"), dihedral(2)
    )


# ----------------------------------------------------------------------
# invariants and projection
# ----------------------------------------------------------------------


def test_a_quotient_is_an_algebra_on_the_fixed_monomials() -> None:
    space = loop_space(3, "Q")
    q = quotient(space, dihedral(1))
    assert isinstance(q, Algebra) and q.element is QElement
    a_u4, u2 = space.monomial((1, 4)), space.monomial((0, 2))
    # the covering algebra's ints and degrees, its fixed monomials as the basis, printed as q(...)
    assert q.basis(8) == q.invariants(8) == [a_u4] and q.basis(5) == []
    assert q.graded_piece(7) == ([u2], [])
    assert (q.monomial_degree(u2), q.monomial_str(u2), q.monomial_str(0)) == (7, "q(U^2)", "q(E)")
    mu = mu_class(q)
    assert type(mu) is QElement and isinstance(mu, Element) and mu.algebra is q
    assert mu == q.monomial_element(u2) and hash(mu) == hash(q.monomial_element(u2))
    assert mu.rep == space.generator("Theta") and mu.rep.algebra is space
    assert q.unit() == q.monomial_element(0) / 4 and q.unit() == mu**0
    assert type(q.zero()) is QElement and str(q.zero()) == "0" and not q.zero()
    parts = (mu + q.unit()).homogeneous_parts()
    assert parts == {3: q.unit(), 7: mu} and all(type(p) is QElement for p in parts.values())
    assert repr(mu) == "<q(U^2) in H(LS^3;Q)/D1>"
    # the based quotient prints its unit monomial as q(1), never as a bare scalar
    qo = quotient(based_loop_space(3, "Q"), cyclic(3))
    assert str(qo.unit()) == "1/9*q(1)" and str(qo.project(based_loop_space(3, "Q").unit() * 2)) == "2*q(1)"
    # a class keeps only the transfer product and `rep` of its own
    own = set(vars(QElement)) - {"__module__", "__qualname__", "__doc__", "__slots__", "__firstlineno__",
                                 "__static_attributes__"}
    assert own == {"__mul__", "rep"}


def test_invariant_monomials_under_reflections_odd() -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    space = q.space
    assert q.invariants(8) == [space.monomial((1, 4))]  # A*U^4
    assert q.invariants(5) == []  # U is anti-invariant
    assert q.invariants(0) == [space.monomial((1, 0))]
    assert q.invariants(3) == [space.monomial((0, 0))]


def test_cyclic_groups_leave_everything_invariant() -> None:
    space = loop_space(3, "Q")
    q = quotient(space, cyclic(7))
    assert q.invariants(5) == [space.monomial((0, 1))]
    for d in range(0, 30):
        assert q.invariants(d) == space.basis(d)


def test_projection_kills_exactly_the_anti_invariant_part() -> None:
    space = loop_space(3, "Q")
    q = quotient(space, dihedral(1))
    u = space.generator("U")
    assert not q.project(u)
    invariant = space.generator("A") * u**2
    assert q.project(invariant).rep == invariant
    mixed = u + invariant
    assert q.project(mixed).rep == invariant


def _reference_action(space, group):
    """The action of a reflection of G (identity without one), built here from theta_star."""
    return theta_star(space) if group.reflections else (lambda z: z)


@pytest.mark.parametrize("make", [loop_space, based_loop_space], ids=["loop", "omega"])
@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.label)
def test_projection_is_the_invariant_projection_on_basis_classes(group, make) -> None:
    # q keeps the fixed terms; the reference is the averaged sum (z + g z)/2
    for n in (3, 4):
        space = make(n, "Q")
        q = quotient(space, group)
        act = _reference_action(space, group)
        for d in range(41):
            for mono in space.basis(d):
                z = space.monomial_element(mono)
                assert q.project(z).rep == (z + act(z)) * Fraction(1, 2), (n, mono)
                assert not q.project(z - act(z)), (n, mono)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_GROUPS),
    st.sampled_from([loop_space, based_loop_space]),
    st.sampled_from([3, 4]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(-6, 6), st.integers(1, 4)), max_size=8),
)
def test_projection_is_the_invariant_projection_on_sums(group, make, n, terms) -> None:
    space = make(n, "Q")
    q = quotient(space, group)
    act = _reference_action(space, group)
    pool = [m for d in range(41) for m in space.basis(d)]
    z = space.normalize([(Fraction(c, den), pool[i % len(pool)]) for i, c, den in terms])
    assert q.project(z).rep == (z + act(z)) * Fraction(1, 2)
    assert not q.project(z - act(z))
    assert q.project(q.project(z).rep) == q.project(z)


def test_projection_rejects_foreign_elements() -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    with pytest.raises(StructureError):
        q.project(based_loop_space(3, "Q").generator("x"))


# ----------------------------------------------------------------------
# the transfer and its two defining identities
# ----------------------------------------------------------------------


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.label)
def test_transfer_section_identity(group) -> None:
    # q(tr(a)) = |G| a for every represented class a
    space = loop_space(4, "Q")
    q = quotient(space, group)
    for a in _invariant_classes(q, 30):
        assert q.project(q.transfer(a)) == a * group.order


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.label)
def test_transfer_of_projection_is_the_action_sum(group) -> None:
    # tr(q(z)) = sum over g in G of g z, on every basis monomial
    space = loop_space(3, "Q")
    q = quotient(space, group)
    for d in range(0, 30):
        for mono in space.basis(d):
            z = space.monomial_element(mono)
            assert q.transfer(q.project(z)) == q.action_sum(z)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.label)
def test_action_sum_of_sums_mixing_fixed_and_negated_monomials(group) -> None:
    # U is negated by reversal and E, A fixed: tr(q(z)) = sum_g g z on their combinations too
    space = loop_space(3, "Q")
    q = quotient(space, group)
    a, e, u = (space.generator(name) for name in ("A", "E", "U"))
    for z in (u + e, 3 * u - Fraction(1, 2) * a * u + a, u * u + u - 7 * e, space.zero()):
        assert q.transfer(q.project(z)) == q.action_sum(z)
    assert q.action_sum(u + e) == group.order * (e if group.reflections else u + e)
    with pytest.raises(StructureError):
        q.action_sum(based_loop_space(3, "Q").generator("x"))


@pytest.mark.parametrize("group", [cyclic(2), cyclic(3)], ids=lambda g: g.label)
def test_rotation_quotients_refuse_foreign_elements_and_classes(group) -> None:
    # without reflections q_* keeps its argument and tr scans nothing, but both still check where it comes from
    space = loop_space(3, "Q")
    q = quotient(space, group)
    for foreign in (based_loop_space(3, "Q").generator("x"), loop_space(5, "Q").generator("U")):
        with pytest.raises(StructureError):
            q.project(foreign)
    other = quotient(loop_space(4, "Q"), group)
    for foreign in (other.project(other.space.generator("Theta")), space.generator("U")):
        with pytest.raises(StructureError):
            q.transfer(foreign)
    z = space.generator("U") - 3 * space.generator("A")
    assert q.project(z).rep == z and q.transfer(q.project(z)) == z * group.order


def test_normalize_refuses_unfixed_monomials() -> None:
    space = loop_space(3, "Q")
    q = quotient(space, dihedral(1))
    e, u, theta = (space.monomial((0, k)) for k in (0, 1, 2))  # E, U and Theta = U^2
    with pytest.raises(StructureError, match=r"q\(U\): D1 does not fix"):
        q.normalize([(1, u)])
    with pytest.raises(StructureError):
        q.monomial_element(u)
    # one fixed and one unfixed term: checked monomial by monomial
    with pytest.raises(StructureError, match=r"q\(U\)"):
        q.normalize([(1, e), (1, u)])
    assert not q.normalize([(1, u), (-1, u)])  # the zero class is invariant
    fixed = q.normalize([(1, e), (1, theta)])
    assert q.transfer(fixed) == 2 * (space.generator("E") + space.generator("Theta"))
    # without reflections every monomial is fixed
    assert q.normalize([(1, e)]) == q.project(space.unit())
    assert quotient(space, cyclic(2)).normalize([(1, e), (1, u)]).rep == space.generator("E") + space.generator("U")


# ----------------------------------------------------------------------
# the transfer product against the double-sum expansion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("group", ALL_GROUPS + [g for g in TRANSFER_GROUPS if g not in ALL_GROUPS], ids=lambda g: g.label)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_transfer_product_matches_double_sum(n: int, group) -> None:
    # every pair of basis monomials up to degree 24 of the loop and the based algebra
    for space in (loop_space(n, "Q"), based_loop_space(n, "Q")):
        q = quotient(space, group)
        elements = [space.monomial_element(m) for d in range(0, 25) for m in space.basis(d)]
        for x in elements:
            for y in elements:
                product = q.product(q.project(x), q.project(y))
                assert product.rep == transfer_product_representative(q, x, y), (space, x, y)


def _fixed_and_negated(space):
    """A basis class t other than the unit that loop reversal fixes, with t*t != 0, and one it negates."""
    reverse = theta_star(space)
    classes = [space.monomial_element(m) for d in range(41) for m in space.basis(d) if m]
    t = next(z for z in classes if reverse(z) == z and z * z)
    u = next(z for z in classes if reverse(z) == -z)
    return t, u


@pytest.mark.parametrize("group", [dihedral(1), dihedral(3), theta_group(), cyclic(2), cyclic(5)], ids=lambda g: g.label)
@pytest.mark.parametrize("make", [loop_space, based_loop_space], ids=["loop", "omega"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_transfer_product_matches_double_sum_on_sums(n: int, make, group) -> None:
    # sums with fractional and negative coefficients: the t terms of x*y cancel, q_* drops the u terms
    # under a reflection, and |G|^2 turns some fractional sums integral
    space = make(n, "Q")
    q = quotient(space, group)
    e = space.unit()
    t, u = _fixed_and_negated(space)
    x = Fraction(1, 2) * e + Fraction(1, 2) * t - 3 * u
    y = t - e + Fraction(2, 3) * u
    product = q.product(q.project(x), q.project(y))
    assert product.rep == transfer_product_representative(q, x, y)
    for a in (q.project(x), q.project(y), product):
        assert q.transfer(a) == a.rep * group.order
    for elt in (product, q.transfer(q.project(x)), q.transfer(product)):
        assert all(type(c) is int for c in elt.terms.values() if c.denominator == 1), elt.terms


@pytest.mark.parametrize("n", [4, 6])
def test_based_transfer_product_projects_unfixed_products_away(n: int) -> None:
    # for n even reversal is not multiplicative on the based algebra: x^3 is fixed, x^6 = x^3*x^3 is negated
    space = based_loop_space(n, "Q")
    x3, x6 = space.generator("x") ** 3, space.generator("x") ** 6
    assert x3 * x3 == x6
    for group in (dihedral(1), dihedral(3), theta_group()):
        q = quotient(space, group)
        assert q.project(x3).rep == x3 and not q.project(x6)
        assert not q.product(q.project(x3), q.project(x3))
        assert not transfer_product_representative(q, x3, x3)
        assert not q.project(x3) * q.project(x3)
    # without reflections nothing is projected away
    q = quotient(space, cyclic(2))
    assert q.product(q.project(x3), q.project(x3)) == q.project(x6) * 4


def test_bool_is_not_a_quotient_scalar() -> None:
    mu = mu_class(quotient(loop_space(3, "Q"), dihedral(1)))
    for attempt in (lambda: mu * True, lambda: True * mu, lambda: mu / True, lambda: mu**False):
        with pytest.raises(DomainError):
            attempt()


def test_quotient_powers_by_squaring_match_iterated_products() -> None:
    q = quotient(loop_space(4, "Q"), theta_group())
    a = q.project(loop_space(4, "Q").generator("Theta") ** 2) + q.unit()
    expected = q.unit()
    for k in range(12):
        assert a**k == expected
        expected = q.product(expected, a)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([dihedral(1), theta_group(), cyclic(3)]),
    st.sampled_from([loop_space, based_loop_space]),
    st.sampled_from([3, 4]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(-6, 6), st.integers(1, 4)), max_size=4),
    st.integers(0, 6),
)
def test_quotient_powers_are_iterated_transfer_products(group, make, n, terms, k) -> None:
    q = quotient(make(n, "Q"), group)
    pool = [m for d in range(41) for m in q.basis(d)]
    a = q.normalize([(Fraction(c, den), pool[i % len(pool)]) for i, c, den in terms])
    assert a**k == functools.reduce(operator.mul, [a] * k, q.unit())


def test_verify_powers_start_from_the_unit_of_their_algebra() -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    for x in (mu_class(q), q.space.generator("U"), based_loop_space(4, "Q").generator("x")):
        assert list(verify._powers(x, 2)) == [(0, x.algebra.unit()), (1, x), (2, x * x)]


def test_transfer_product_frozen_example() -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    mu = mu_class(q)
    assert str(mu) == "q(U^2)"
    assert mu.degree() == 7
    assert str(q.product(mu, mu)) == "4*q(U^4)"
    assert str(mu**3) == "16*q(U^6)"
    assert str(q.unit()) == "1/4*q(E)"
    assert str(q.transfer(mu)) == "2*U^2"


def test_transfer_product_unit_is_two_sided() -> None:
    for group in (dihedral(1), cyclic(3), theta_group()):
        q = quotient(loop_space(4, "Q"), group)
        e = q.unit()
        for a in _invariant_classes(q, 30):
            assert q.product(e, a) == a
            assert q.product(a, e) == a


def test_qelement_operators() -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    mu = mu_class(q)
    assert mu * mu == q.product(mu, mu)
    assert mu**0 == q.unit()
    assert mu**2 == mu * mu
    assert (mu + mu) == 2 * mu
    assert mu - mu == 0 * mu
    assert not (mu - mu)
    assert (mu / 2) * 2 == mu
    assert -(-mu) == mu
    assert str(-mu) == "-q(U^2)"
    assert str(2 * mu - q.unit() * 4) == "-q(E) + 2*q(U^2)"


def test_qelements_from_different_quotients_do_not_mix() -> None:
    q1 = quotient(loop_space(3, "Q"), dihedral(1))
    q2 = quotient(loop_space(3, "Q"), theta_group())
    with pytest.raises(StructureError):
        mu_class(q1) + mu_class(q2)
    with pytest.raises(StructureError):
        q1.product(mu_class(q1), mu_class(q2))


# ----------------------------------------------------------------------
# quotient Betti tables against the closed form
# ----------------------------------------------------------------------


@pytest.mark.parametrize("group", REFLECTION_GROUPS, ids=lambda g: g.label)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_reflection_quotient_betti_matches_closed_form(n: int, group) -> None:
    q = quotient(loop_space(n, "Q"), group)
    table = q.betti(90)
    expected = quotient_betti_closed_form(n, 90)
    assert {row.degree: row.rank for row in table.rows} == expected
    assert table.group == group.label


def test_cyclic_quotient_betti_equals_the_unquotiented_table() -> None:
    for m in (2, 5):
        q = quotient(loop_space(3, "Q"), cyclic(m))
        plain = loop_space(3, "Q").betti(60)
        table = q.betti(60)
        assert [(r.degree, r.rank) for r in table.rows] == [
            (r.degree, r.rank) for r in plain.rows
        ]


def test_quotient_generator_labels() -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    rows = {r.degree: r for r in q.betti(8).rows}
    assert rows[0].generators == ("q(A)",)
    assert rows[7].generators == ("q(U^2)",)
    assert rows[7].family == "2n-1+lambda_1"


# ----------------------------------------------------------------------
# the distinguished nonnilpotent classes
# ----------------------------------------------------------------------


def test_mu_degree_and_parity_guards() -> None:
    q3 = quotient(loop_space(3, "Q"), dihedral(1))
    assert mu_class(q3).degree() == 7  # 3n-2
    with pytest.raises(DomainError):
        eta_class(q3)
    q4 = quotient(loop_space(4, "Q"), dihedral(1))
    assert eta_class(q4).degree() == 16  # 5n-4
    with pytest.raises(DomainError):
        mu_class(q4)


def test_powers_of_mu_and_eta_do_not_vanish() -> None:
    q3 = quotient(loop_space(3, "Q"), dihedral(1))
    mu = mu_class(q3)
    assert all(mu**k for k in range(1, 12))
    q4 = quotient(loop_space(4, "Q"), theta_group())
    eta = eta_class(q4)
    assert all(eta**k for k in range(1, 8))


# ----------------------------------------------------------------------
# the geometric class-A products
# ----------------------------------------------------------------------


def test_a_product_vanishes_identically_for_vartheta_odd_n() -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    classes = _invariant_classes(q, 25)
    for a in classes:
        for b in classes:
            assert not a_product("vartheta", q, a, b)


def test_a_product_is_a_signed_transfer_product_even_n() -> None:
    n = 4
    q = quotient(loop_space(n, "Q"), dihedral(1))
    classes = _invariant_classes(q, 25)
    for a in classes:
        for b in classes:
            j = b.degree()
            sign = -1 if (n * (n - j)) % 2 else 1
            assert a_product("vartheta", q, a, b) == sign * q.product(a, b)


def test_theta_variant_is_signed_for_both_parities() -> None:
    for n in (3, 4):
        q = quotient(loop_space(n, "Q"), theta_group())
        classes = _invariant_classes(q, 20)
        for a in classes:
            for b in classes:
                j = b.degree()
                sign = -1 if (n * (n - j)) % 2 else 1
                assert a_product("theta", q, a, b) == sign * q.product(a, b)


def test_a_product_guards() -> None:
    q_d1 = quotient(loop_space(4, "Q"), dihedral(1))
    q_th = quotient(loop_space(4, "Q"), theta_group())
    q_c2 = quotient(loop_space(4, "Q"), cyclic(2))
    eta = eta_class(q_d1)
    with pytest.raises(DomainError):
        a_product("vartheta", q_th, eta_class(q_th), eta_class(q_th))
    with pytest.raises(DomainError):
        a_product("theta", q_d1, eta, eta)
    with pytest.raises(DomainError):
        a_product("vartheta", q_c2, q_c2.unit(), q_c2.unit())
    with pytest.raises(DomainError):
        a_product("twisted", q_d1, eta, eta)
    inhomogeneous = eta + q_d1.unit()
    with pytest.raises(DomainError):
        a_product("vartheta", q_d1, eta, inhomogeneous)
    with pytest.raises(StructureError):
        a_product("vartheta", q_d1, eta, eta_class(q_th))
