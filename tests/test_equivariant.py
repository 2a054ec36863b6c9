"""Subgroups, quotient homology, transfers, and the transfer products."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import (
    DomainError,
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

from oracles import quotient_betti_closed_form, transfer_product_representative

REFLECTION_GROUPS = [dihedral(1), dihedral(3), theta_group(), conjugate_dihedral(2, Fraction(1, 3))]
ALL_GROUPS = REFLECTION_GROUPS + [cyclic(1), cyclic(4)]


def _invariant_classes(q, max_degree: int) -> list:
    return [b for d in range(max_degree + 1) for b in q.basis(d)]


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
    with pytest.raises(DomainError):
        cyclic(0)
    with pytest.raises(DomainError):
        dihedral(-1)


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


def test_invariant_monomials_under_reflections_odd() -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    alg = q.space.algebra
    assert q.invariants(8) == [alg.monomial((1, 4))]  # A*U^4
    assert q.invariants(5) == []  # U is anti-invariant
    assert q.invariants(0) == [alg.monomial((1, 0))]
    assert q.invariants(3) == [alg.monomial((0, 0))]


def test_cyclic_groups_leave_everything_invariant() -> None:
    space = loop_space(3, "Q")
    q = quotient(space, cyclic(7))
    assert q.invariants(5) == [space.algebra.monomial((0, 1))]
    for d in range(0, 30):
        assert q.invariants(d) == space.algebra.basis(d)


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
            for mono in space.algebra.basis(d):
                z = space.algebra.monomial_element(mono)
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
    alg = space.algebra
    q = quotient(space, group)
    act = _reference_action(space, group)
    pool = [m for d in range(41) for m in alg.basis(d)]
    z = alg.normalize([(Fraction(c, den), pool[i % len(pool)]) for i, c, den in terms])
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
        for mono in space.algebra.basis(d):
            z = space.algebra.monomial_element(mono)
            assert q.transfer(q.project(z)) == q.action_sum(z)


def test_transfer_rejects_non_invariant_representatives() -> None:
    from loophom.equivariant import QElement

    space = loop_space(3, "Q")
    q = quotient(space, dihedral(1))
    rigged = QElement(q, space.generator("U"))
    with pytest.raises(StructureError):
        q.transfer(rigged)
    # one invariant and one anti-invariant term: checked monomial by monomial
    mixed = QElement(q, space.generator("E") + space.generator("U"))
    with pytest.raises(StructureError):
        q.transfer(mixed)
    assert q.transfer(QElement(q, space.generator("E") + space.generator("Theta"))) == 2 * (
        space.generator("E") + space.generator("Theta")
    )


# ----------------------------------------------------------------------
# the transfer product against the double-sum expansion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.label)
@pytest.mark.parametrize("n", [3, 4])
def test_transfer_product_matches_double_sum(n: int, group) -> None:
    space = loop_space(n, "Q")
    q = quotient(space, group)
    monos = [m for d in range(0, 25) for m in space.algebra.basis(d)]
    for m1 in monos:
        for m2 in monos:
            x = space.algebra.monomial_element(m1)
            y = space.algebra.monomial_element(m2)
            product = q.product(q.project(x), q.project(y))
            assert product.rep == transfer_product_representative(q, x, y)


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
