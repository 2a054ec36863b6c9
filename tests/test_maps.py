"""Loop reversal, basepoint evaluation, and the two Gysin-sequence maps."""

from __future__ import annotations

import pytest

from loophom import (
    StructureError,
    based_loop_space,
    chi_star,
    ev_star,
    j_shriek,
    j_star,
    loop_space,
    reversal_power_sign,
    sphere_space,
    theta_star,
)

from oracles import reversal_sign_iterative


def _loop_classes(n: int, ring: str, max_degree: int) -> list:
    space = loop_space(n, ring)
    return [
        space.algebra.monomial_element(m)
        for d in range(max_degree + 1)
        for m in space.algebra.basis(d)
    ]


# ----------------------------------------------------------------------
# loop reversal on the free loop algebras
# ----------------------------------------------------------------------


def test_reversal_fixes_a_and_e_and_negates_u() -> None:
    space = loop_space(3, "Q")
    theta = theta_star(space)
    assert theta(space.generator("A")) == space.generator("A")
    assert theta(space.generator("E")) == space.generator("E")
    assert theta(space.generator("U")) == -space.generator("U")
    assert theta(space.generator("A") * space.generator("U") ** 3) == -(
        space.generator("A") * space.generator("U") ** 3
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_reversal_negates_theta_exactly_for_even_n(n: int) -> None:
    space = loop_space(n, "Q")
    theta = theta_star(space)
    big = space.generator("Theta")
    sign = -1 if (n - 1) % 2 else 1
    assert theta(big) == sign * big


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("ring", ["Q", "Z"])
def test_reversal_is_an_involution(n: int, ring: str) -> None:
    space = loop_space(n, ring)
    theta = theta_star(space)
    for cls in _loop_classes(n, ring, 40):
        assert theta(theta(cls)) == cls


@pytest.mark.parametrize("n", [3, 4])
def test_reversal_is_a_product_endomorphism(n: int) -> None:
    space = loop_space(n, "Q")
    theta = theta_star(space)
    classes = _loop_classes(n, "Q", 30)
    for u in classes:
        for v in classes:
            assert theta(u * v) == theta(u) * theta(v)


def test_chi_is_the_identity() -> None:
    for space in (loop_space(3, "Q"), loop_space(4, "Z"), based_loop_space(3, "Q")):
        chi = chi_star(space)
        for d in range(0, 25):
            for mono in space.algebra.basis(d):
                cls = space.algebra.monomial_element(mono)
                assert chi(cls) == cls


# ----------------------------------------------------------------------
# loop reversal on the based algebra
# ----------------------------------------------------------------------


def test_reversal_signs_on_small_powers_even_n() -> None:
    space = based_loop_space(4, "Q")
    theta = theta_star(space)
    x = space.generator("x")
    images = [theta(x**k) for k in range(7)]
    expected = [space.unit, -x, -(x**2), x**3, x**4, -(x**5), -(x**6)]
    assert images == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_reversal_power_signs_match_iterated_sign_law(n: int) -> None:
    for k in range(0, 41):
        assert reversal_power_sign(n, k) == reversal_sign_iterative(n, k)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_reversal_satisfies_the_pontrjagin_sign_law(n: int) -> None:
    space = based_loop_space(n, "Q")
    theta = theta_star(space)
    x = space.generator("x")
    for i in range(0, 12):
        for j in range(0, 12):
            a, b = x**i, x**j
            sign = -1 if (i * (n - 1) * j * (n - 1)) % 2 else 1
            assert sign * (theta(a) * theta(b)) == theta(a * b)


def test_reversal_case_formula() -> None:
    # (-1)^k when n is odd or k(k-1) = 0 mod 4, and (-1)^{k+1} otherwise
    for n in (3, 4, 5, 6):
        for k in range(0, 41):
            if n % 2 or (k * (k - 1)) % 4 == 0:
                expected = -1 if k % 2 else 1
            else:
                expected = 1 if k % 2 else -1
            assert reversal_power_sign(n, k) == expected


def test_reversal_rejects_the_sphere() -> None:
    from loophom import DomainError

    with pytest.raises(DomainError):
        theta_star(sphere_space(3, "Q"))


# ----------------------------------------------------------------------
# basepoint evaluation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_evaluation_images(n: int) -> None:
    space = loop_space(n, "Q")
    target = sphere_space(n, "Q")
    ev = ev_star(n, "Q")
    assert ev(space.generator("A")) == target.generator("pt")
    assert ev(space.generator("E")) == target.generator("fundamental")
    assert not ev(space.generator("Theta"))
    assert not ev(space.generator("sigma1"))


@pytest.mark.parametrize("n", [3, 4])
def test_evaluation_is_an_algebra_map(n: int) -> None:
    ev = ev_star(n, "Q")
    classes = _loop_classes(n, "Q", 30)
    for u in classes:
        for v in classes:
            assert ev(u * v) == ev(u) * ev(v)
    assert ev(loop_space(n, "Q").unit) == sphere_space(n, "Q").unit


# ----------------------------------------------------------------------
# the Gysin pair
# ----------------------------------------------------------------------


def test_fiberwise_gysin_images_odd() -> None:
    space = loop_space(3, "Q")
    omega = based_loop_space(3, "Q")
    jb = j_shriek(3, "Q")
    x = omega.generator("x")
    assert jb(space.generator("E")) == omega.unit
    assert jb(space.generator("U")) == x
    assert jb(space.generator("U") ** 4) == x**4
    assert str(jb(space.generator("U") ** 2)) == "x^2"
    assert not jb(space.generator("A"))
    assert not jb(space.generator("A") * space.generator("U") ** 3)


def test_fiberwise_gysin_images_even() -> None:
    space = loop_space(4, "Q")
    omega = based_loop_space(4, "Q")
    jb = j_shriek(4, "Q")
    x = omega.generator("x")
    assert jb(space.generator("Theta")) == x**2
    assert jb(space.generator("Theta") ** 3) == x**6
    assert not jb(space.generator("sigma1"))
    assert not jb(space.generator("A"))


def test_fiber_inclusion_images_odd() -> None:
    space = loop_space(3, "Q")
    omega = based_loop_space(3, "Q")
    ji = j_star(3, "Q")
    x = omega.generator("x")
    assert ji(omega.unit) == space.generator("A")
    assert str(ji(x**3)) == "A*U^3"
    assert ji(x**3).degree() == x.algebra.monomial_degree(x.algebra.monomial((3,)))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("ring", ["Q", "Z"])
def test_gysin_maps_have_degrees_minus_n_and_zero(n: int, ring: str) -> None:
    # a nonzero j_!(u) has degree deg u - n, and a nonzero j_*(y) has degree deg y
    cases = ((loop_space(n, ring), j_shriek(n, ring), -n), (based_loop_space(n, ring), j_star(n, ring), 0))
    for space, f, shift in cases:
        alg = space.algebra
        images = [(d, f(alg.monomial_element(m))) for d in range(41) for m in alg.basis(d)]
        nonzero = [(d, image) for d, image in images if image]
        assert nonzero, f
        for d, image in nonzero:
            assert image.degrees() == [d + shift], (f, d, image)

def test_fiber_inclusion_images_even() -> None:
    omega_q = based_loop_space(4, "Q")
    x = omega_q.generator("x")
    ji_q = j_star(4, "Q")
    assert ji_q(omega_q.unit) == loop_space(4, "Q").generator("A")
    assert str(ji_q(x)) == "sigma1"
    assert str(ji_q(x**3)) == "sigma1*Theta"
    # even powers of x hit the 2-torsion classes: zero over Q, A*Theta^r over Z
    assert not ji_q(x**2)
    omega_z = based_loop_space(4, "Z")
    ji_z = j_star(4, "Z")
    space_z = loop_space(4, "Z")
    image = ji_z(omega_z.generator("x") ** 2)
    assert image == space_z.generator("A") * space_z.generator("Theta")
    assert not 2 * image


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("ring", ["Q", "Z"])
def test_gysin_identities(n: int, ring: str) -> None:
    space = loop_space(n, ring)
    omega = based_loop_space(n, ring)
    jb, ji = j_shriek(n, ring), j_star(n, ring)
    loop_classes = _loop_classes(n, ring, 25)
    based_classes = [
        omega.algebra.monomial_element(omega.algebra.monomial((k,))) for k in range(0, 25 // (n - 1) + 1)
    ]
    for u in loop_classes:
        for v in loop_classes:
            assert jb(u * v) == jb(u) * jb(v)
    for y in based_classes:
        for a in loop_classes:
            assert ji(y) * a == ji(y * jb(a))
    for a in loop_classes:
        assert ji(jb(a)) == space.generator("A") * a


def test_maps_reject_foreign_elements() -> None:
    ev = ev_star(3, "Q")
    with pytest.raises(StructureError):
        ev(based_loop_space(3, "Q").generator("x"))
    with pytest.raises(StructureError):
        ev("U")
