"""Finite subgroups of O(2) acting on loops, quotient homology, transfers.

A finite subgroup G of O(2) acts on the free loop space by rotating (and,
for reflections, reversing) the loop parameter t in R/Z.  Rotations act
trivially on homology and every reflection acts by loop reversal, so
homology sees G only through |G| and whether G contains a reflection.  A
`Subgroup` is the triple (m, reflections, rotation):

* ``cyclic(m)``               — the m rotations, order m, label ``Cm``;
* ``dihedral(m)``             — the m rotations and the m reflections
                                t -> k/m - t, order 2m, label ``Dm``;
* ``conjugate_dihedral(m,s)`` — the m rotations and the m reflections
                                t -> s + k/m - t, label ``Dm@s``.  Only s
                                modulo 1/m matters, so s is stored reduced
                                and s = 0 is ``dihedral(m)``;
* ``theta_group()``           — (1, True, 1/2): the order-2 group generated
                                by the basepoint-moving reflection
                                t -> 1/2 - t, label ``theta``.

Equal labels mean equal groups, and so the same cached `quotient`.

Homology of the quotient is modeled through invariant representatives:
rationally, ``q_*`` identifies H(X/G; Q) with the G-invariants of H(X; Q).
Loop reversal theta_* acts by +-1 on each basis monomial, so the invariant
projection (z + theta z)/2 of a representative z is exactly the sum of the
terms of z whose monomial the action fixes; ``q_*`` keeps those terms, with
no sum and no division.
The transfer ``tr`` goes the other way; its two defining properties

    q_* ( tr(a) )  =  |G| . a           (on quotient homology)
    tr ( q_*(z) )  =  sum_g g_*(z)      (on covering-space homology)

pin it exactly.  The transfer product on quotient homology is

    P_G(a, b)  =  q_*( tr(a) * tr(b) ),

an associative, graded-commutative product with the same sign rule as the
loop product; its unit is q_*(E) / |G|^2.  The same construction on the
based algebra gives the based transfer product (``POmega`` in the CLI).

Everything here requires ring Q: only rationally is quotient homology the
invariants, and no integral quotient structure is modeled.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, Element, RING_Q, StructureError, is_scalar, power, scaled_str
from .maps import reversal_sign, theta_star
from .spaces import LOOP, OMEGA, BettiTable, Space


@dataclass(frozen=True)
class Subgroup:
    """A finite subgroup of O(2): m rotations and, with `reflections`, the m
    reflections t -> rotation + k/m - t; `rotation` is kept reduced mod 1/m.
    """

    m: int
    reflections: bool
    rotation: Fraction = Fraction(0)

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"subgroup parameter m must be >= 1, got {self.m}")
        rotation = Fraction(self.rotation) % Fraction(1, self.m) if self.reflections else Fraction(0)
        object.__setattr__(self, "rotation", rotation)

    @property
    def order(self) -> int:
        return self.m * (2 if self.reflections else 1)

    @property
    def label(self) -> str:
        if not self.reflections:
            return f"C{self.m}"
        if not self.rotation:
            return f"D{self.m}"
        if self == theta_group():
            return "theta"
        return f"D{self.m}@{self.rotation}"


def cyclic(m: int) -> Subgroup:
    return Subgroup(m, False)


def dihedral(m: int) -> Subgroup:
    return Subgroup(m, True)


def conjugate_dihedral(m: int, rotation) -> Subgroup:
    return Subgroup(m, True, rotation)


def theta_group() -> Subgroup:
    """The order-2 group generated by the basepoint-moving reflection t -> 1/2 - t."""
    return Subgroup(1, True, Fraction(1, 2))


class Quotient:
    """Rational homology of X/G with the transfer product, X = loop or omega.

    Classes are `QElement` values carrying their invariant representative in
    H(X; Q); `project` is q_*, `transfer` is tr.
    """

    def __init__(self, space: Space, group: Subgroup):
        if space.ring != RING_Q:
            raise DomainError("quotient homology bookkeeping requires ring Q")
        if space.kind not in (LOOP, OMEGA):
            raise DomainError("quotients are modeled for the loop and omega spaces")
        if space.n < 3:
            raise DomainError("quotient claims are modeled for n >= 3")
        self.space = space
        self.group = group
        self._theta = theta_star(space)
        self._sign = reversal_sign(space)

    # -- the two structure maps ------------------------------------------

    def project(self, elt: Element) -> "QElement":
        """q_*: push a covering-space class down to the quotient.

        The stored representative is the invariant projection (z+theta z)/2,
        which is the terms of z with a fixed monomial: each basis monomial
        is fixed or negated, so these terms double and halve while the rest
        cancel.  The anti-invariant part of z is exactly the kernel of q_*.
        """
        if elt.algebra is not self.space.algebra:
            raise StructureError(
                f"q expects an element of {self.space.algebra.label}"
            )
        return QElement(self, Element(elt.algebra, {m: c for m, c in elt.terms.items() if self._fixes(m)}))

    def transfer(self, a: "QElement") -> Element:
        """tr: wrong-way map back to the covering space; tr(q z) = sum_g g z."""
        if not isinstance(a, QElement) or a.quotient is not self:
            raise StructureError("transfer expects a class on this quotient")
        rep = a.rep
        if not all(map(self._fixes, rep.terms)):
            raise StructureError(
                f"non-invariant representative {rep} on the quotient"
            )
        return self.group.order * rep

    def _fixes(self, mono: int) -> bool:
        """Whether the group fixes a basis monomial.

        Rotations act trivially and every reflection acts by theta_*, which
        is diagonal, +-1 on each basis monomial (`reversal_sign`); so an
        element is invariant exactly when each of its monomials is.
        """
        return not self.group.reflections or self._sign(mono) == 1

    def action_sum(self, elt: Element) -> Element:
        """sum_{g in G} g_*(elt), by explicit enumeration of the elements.

        The m rotations act as the identity; the m reflections, if any, act
        by loop reversal.
        """
        images = [elt] * self.group.m
        if self.group.reflections:
            images += [self._theta(elt)] * self.group.m
        total = self.space.algebra.zero()
        for image in images:
            total = total + image
        return total

    # -- the transfer product --------------------------------------------

    def product(self, a: "QElement", b: "QElement") -> "QElement":
        """P_G(a, b) = q_*( tr(a) * tr(b) )."""
        if not isinstance(a, QElement) or not isinstance(b, QElement):
            raise StructureError("transfer product expects quotient classes")
        if a.quotient is not self or b.quotient is not self:
            raise StructureError("transfer product arguments live on different quotients")
        return self.project(self.transfer(a) * self.transfer(b))

    def unit(self) -> "QElement":
        """The two-sided unit e = q_*(E) / |G|^2 of the transfer product."""
        return self.project(self.space.unit) * Fraction(1, self.group.order**2)

    # -- graded pieces ----------------------------------------------------

    def invariants(self, degree: int) -> list:
        """Basis monomials of degree d fixed by the action.

        For reflections these are the monomials with an even number of
        sign-reversed letters; for cyclic groups, everything.
        """
        return [mono for mono in self.space.algebra.basis(degree) if self._fixes(mono)]

    def basis(self, degree: int) -> list:
        """Quotient-homology basis in one degree, as QElements."""
        return [
            QElement(self, self.space.algebra.monomial_element(m))
            for m in self.invariants(degree)
        ]

    def betti(self, max_degree: int) -> BettiTable:
        monomial_str = self.space.algebra.monomial_str
        return self.space.table(
            max_degree, lambda d: (self.invariants(d), []), self.group.label, lambda m: f"q({monomial_str(m)})"
        )

    def __repr__(self):
        return f"Quotient({self.space!r} / {self.group.label})"


class QElement:
    """A quotient-homology class, stored by its invariant representative.

    `*` is the transfer product P_G and `**` its power (the 0th power is
    the transfer unit).  Addition and scalar multiplication are inherited
    from representatives.
    """

    __slots__ = ("quotient", "rep")

    def __init__(self, quotient: Quotient, rep: Element):
        self.quotient = quotient
        self.rep = rep

    def _combine(self, other, op):
        if not isinstance(other, QElement):
            return NotImplemented
        if self.quotient is not other.quotient:
            raise StructureError("cannot combine classes on different quotients")
        return QElement(self.quotient, op(self.rep, other.rep))

    def __bool__(self):
        return bool(self.rep)

    def degrees(self):
        return self.rep.degrees()

    def degree(self):
        return self.rep.degree()

    def is_homogeneous(self):
        return self.rep.is_homogeneous()

    def homogeneous_parts(self):
        return {
            d: QElement(self.quotient, part)
            for d, part in self.rep.homogeneous_parts().items()
        }

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return QElement(self.quotient, -self.rep)

    def __mul__(self, other):
        if isinstance(other, QElement):
            return self.quotient.product(self, other)
        if is_scalar(other):
            return QElement(self.quotient, self.rep * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if is_scalar(other):
            return QElement(self.quotient, self.rep / other)
        return NotImplemented

    def __pow__(self, k):
        return power(self, k, self.quotient.unit, self.quotient.product, lambda q: q.rep.terms.values())

    def __eq__(self, other):
        if not isinstance(other, QElement):
            return NotImplemented
        return self.quotient is other.quotient and self.rep == other.rep

    def __hash__(self):
        return hash((id(self.quotient), self.rep))

    def __str__(self):
        alg = self.rep.algebra
        return self.rep.format_terms(lambda mono, mag: scaled_str(mag, f"q({alg.monomial_str(mono)})"))

    def __repr__(self):
        return f"<{self} on {self.quotient!r}>"


@functools.lru_cache(maxsize=None)
def quotient(space: Space, group: Subgroup) -> Quotient:
    """Cached quotient constructor, so object identity follows (space, group)."""
    return Quotient(space, group)


# ----------------------------------------------------------------------
# distinguished nonnilpotent classes
# ----------------------------------------------------------------------


def mu_class(q: Quotient) -> QElement:
    """mu = q_*(U*U) on a loop quotient, n odd (degree 3n-2)."""
    if q.space.kind != LOOP or q.space.n % 2 == 0:
        raise DomainError("mu lives on loop quotients with n odd")
    return q.project(q.space.generator("Theta"))


def eta_class(q: Quotient) -> QElement:
    """eta = q_*(Theta*Theta) on a loop quotient, n even (degree 5n-4)."""
    if q.space.kind != LOOP or q.space.n % 2:
        raise DomainError("eta lives on loop quotients with n even")
    theta = q.space.generator("Theta")
    return q.project(theta * theta)


# ----------------------------------------------------------------------
# geometric two-argument products on the order-2 quotients
# ----------------------------------------------------------------------


def a_product(variant: str, q: Quotient, a: QElement, b: QElement) -> QElement:
    """The geometric class-A product on an order-2 reflection quotient.

    `variant` is "vartheta" (the axis reflection, i.e. the D1 quotient) or
    "theta" (the basepoint-moving reflection).  The second argument must be
    homogeneous: the construction's sign depends on its degree.

    For the vartheta variant with n odd the product is identically zero; in
    the remaining cases it agrees with the transfer product up to the sign
    (-1)^{n(n-j)}, j = deg b.
    """
    group = {"vartheta": dihedral(1), "theta": theta_group()}.get(variant)
    if group is None:
        raise DomainError(f"unknown A-product variant {variant!r}")
    if q.space.kind != LOOP:
        raise DomainError("A-products live on loop quotients")
    if q.group != group:
        raise DomainError(f"the {variant} A-product needs the {group.label} quotient")
    if a.quotient is not q or b.quotient is not q:
        raise StructureError("A-product arguments live on a different quotient")
    if not b:
        return QElement(q, q.space.algebra.zero())
    if not b.is_homogeneous():
        raise DomainError(
            f"A-product needs a homogeneous second argument, degrees {b.degrees()}"
        )
    n = q.space.n
    if variant == "vartheta" and n % 2:
        return QElement(q, q.space.algebra.zero())
    j = b.degree()
    sign = -1 if (n * (n - j)) % 2 else 1
    return q.product(a, b) * sign
