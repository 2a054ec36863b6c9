"""Finite subgroups of O(2) acting on loops, and the quotient algebras H(X/G; Q).

G acts on the free loop space by rotating (and, for reflections, reversing)
the loop parameter t in R/Z.  Rotations act trivially on homology, every
reflection acts by loop reversal, and the quotient depends on G only up to
conjugacy, so homology sees |G| and whether G has a reflection, and a
`Subgroup` is the pair (m, reflections):

* ``cyclic(m)``     — the m rotations, order m, label ``Cm``;
* ``dihedral(m)``   — the m rotations and m reflections, order 2m, label ``Dm``;
* ``theta_group()`` — the basepoint-moving reflection t -> 1/2 - t, which the
                      paper names: D1's algebra under its own label ``theta``.

Rationally ``q_*`` identifies H(X/G; Q) with the G-invariants of H(X; Q).
theta_* is +-1 on each basis monomial, so ``q_*`` of z keeps the terms whose
monomial is fixed, which is (z + theta z)/2 with no sum and no division: a
`Quotient` is the `Algebra` on the fixed monomials, printed as ``q(...)``,
whose elements are `QElement`s.  The transfer is pinned down by
q_*(tr(a)) = |G| a and tr(q_*(z)) = sum_g g_*(z): tr(a) is |G| times the same
terms.  So the transfer product has a closed form,

    P_G(a, b)  =  q_*( tr(a) * tr(b) )  =  |G|^2 . q_*(a * b),

the space's product under the scale |G|^2 and the kernel of q_* (`_factor` and
`_keep`, which `Algebra._multiply` reads): q_* drops m when popcount(m & _keep)
is odd, and `_keep` is `reversal_flips(space)` for a group with a reflection,
else 0.  It is associative and graded-commutative, with unit q_*(E) / |G|^2.
The q_* stays: on the based algebra with n even x^3 is fixed and x^6 negated.
The based algebra gives the based transfer product (``POmega`` in the CLI).

Everything here requires ring Q: only rationally is quotient homology the
invariants, and no integral quotient structure is modeled.
"""

from __future__ import annotations

from fractions import Fraction

from .core import RING_Q, Algebra, DomainError, Element, StructureError, _int_str, _shown
from .maps import reversal_flips, theta_star
from .spaces import LOOP, OMEGA, BettiTable, Space


class Subgroup:
    """A finite subgroup of O(2) as homology sees it: m rotations and, with `reflections`, m reflections.

    An immutable value: it equals and hashes like another `Subgroup` with the
    same m, reflections and label, and never equals a value of another type.
    """

    __slots__ = ("m", "reflections", "label")

    def __init__(self, m: int, reflections: bool):
        if type(m) is not int or m < 1:
            raise DomainError(f"subgroup parameter m must be an int >= 1, got {_shown(m)}")
        if type(reflections) is not bool:
            raise DomainError(f"subgroup parameter reflections must be a bool, got {_shown(reflections)}")
        for name, value in zip(self.__slots__, (m, reflections, f"{'D' if reflections else 'C'}{_int_str(m)}")):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"Subgroup is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):  # the label names (m, reflections), or theta
        return self.label == other.label if type(other) is Subgroup else NotImplemented

    def __hash__(self):
        return hash(self.label)

    def __reduce__(self):
        return (theta_group, ()) if self is _THETA else (Subgroup, (self.m, self.reflections))

    def __repr__(self):
        return "theta_group()" if self is _THETA else f"Subgroup({_int_str(self.m)}, {self.reflections!r})"

    @property
    def order(self) -> int:
        return self.m * (2 if self.reflections else 1)


def cyclic(m: int) -> Subgroup:
    return Subgroup(m, False)


def dihedral(m: int) -> Subgroup:
    return Subgroup(m, True)


_THETA = Subgroup(1, True)
object.__setattr__(_THETA, "label", "theta")


def theta_group() -> Subgroup:
    """The order-2 group generated by the basepoint-moving reflection t -> 1/2 - t."""
    return _THETA


class QElement(Element):
    """A class of H(X/G; Q): an `Element` of its `Quotient`, all of whose monomials are fixed.

    `*` of two classes is the transfer product P_G, and so `**` is its power
    (the 0th power is the transfer unit); every other operation is an `Element`'s.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, QElement):
            return self.algebra.product(self, other)
        return Element.__mul__(self, other)

    @property
    def rep(self) -> Element:
        """The invariant representative in H(X; Q): the same terms."""
        return Element(self.algebra.space, self.terms)


class Quotient(Algebra):
    """Rational homology of X/G with the transfer product, X = loop or omega.

    An `Algebra` on the fixed monomials of the space X, which is itself an
    `Algebra`: the quotient shares X's monomial ints, degrees and zero and
    torsion tables, its basis in each degree is the fixed monomials, and its
    monomials print as q(...).  It keeps X as `space` and has no kind, n or
    named classes of its own.  `normalize` refuses a monomial the group does
    not fix.  Its elements are `QElement`s, whose product is the transfer
    product `product`; `project` is q_* and `transfer` is tr.
    """

    element = QElement

    def __init__(self, space: Space, group: Subgroup):
        _check_pair(space, group)
        if space.ring != RING_Q:
            raise DomainError("quotient homology bookkeeping requires ring Q")
        if space.kind not in (LOOP, OMEGA):
            raise DomainError("quotients are modeled for the loop and omega spaces")
        if space.n < 3:
            raise DomainError("quotient claims are modeled for n >= 3")
        vars(self).update(vars(space))  # the covering space's encoding and tables, as they are
        del self.kind, self.n, self.named, self.flips  # the space's own fields, which `space` keeps
        self.label = f"{space.label}/{group.label}"
        self.unit_name = f"q({space.unit_name})"
        self.space = space
        self.group = group
        self._factor = group.order**2  # P_G(a, b) = |G|^2 q_*(a * b); q_* kills what a reflection negates
        self._keep = reversal_flips(space) if group.reflections else 0
        self._theta = theta_star(space)

    def monomial_str(self, mono: int) -> str:
        return f"q({self.space.monomial_str(mono)})"

    def normalize(self, terms) -> QElement:
        """`Algebra.normalize`, refusing a class with a monomial the group does not fix."""
        out = super().normalize(terms)
        for mono in out.terms:
            if not self._fixes(mono):
                raise StructureError(f"{self.monomial_str(mono)}: {self.group.label} does not fix the monomial")
        return out

    def unit(self) -> QElement:
        """The two-sided unit e = q_*(E) / |G|^2 of the transfer product."""
        return super().unit()._scale(Fraction(1, self.group.order**2))

    def basis(self, degree: int) -> list:
        """The basis monomials of degree d that the group fixes: with reflections, those with an even number of
        sign-reversed letters; for cyclic groups, every one."""
        return [mono for mono in self.space.basis(degree) if self._fixes(mono)]

    invariants = basis

    def _fixes(self, mono: int) -> bool:
        """Whether the group fixes a basis monomial: the `_keep` test every product term passes.

        Every reflection acts by theta_*, which is +-1 on each basis monomial
        (`reversal_flips`); so an element is invariant exactly when each of its monomials is.
        """
        return not (mono & self._keep).bit_count() & 1

    # -- the two structure maps ------------------------------------------

    def project(self, elt: Element) -> QElement:
        """q_*: push a covering-space class down to the quotient.

        The class keeps the terms of z with a fixed monomial, which is the
        invariant projection (z+theta z)/2: each basis monomial is fixed or
        negated, so the anti-invariant part of z is exactly the kernel of q_*.
        """
        if type(elt) is not Element or elt.algebra is not self.space:
            raise StructureError(f"q expects an element of {self.space.label}")
        keep = self._keep
        return QElement(self, {m: c for m, c in elt.terms.items() if not (m & keep).bit_count() & 1})

    def transfer(self, a: QElement) -> Element:
        """tr: wrong-way map back to the covering space, |G| times the same terms; tr(q z) = sum_g g z."""
        if not isinstance(a, QElement) or a.algebra is not self:
            raise StructureError("transfer expects a class on this quotient")
        order = self.group.order
        return self.space._reduce({m: c * order for m, c in a.terms.items()}, {})

    def action_sum(self, elt: Element) -> Element:
        """sum_{g in G} g_*(elt), summed over the group's two kinds of element.

        The m rotations act as the identity and the m reflections, if any,
        by loop reversal: the sum is m*(elt + theta_*(elt)), or m*elt.
        """
        if type(elt) is not Element or elt.algebra is not self.space:
            raise StructureError(f"the action sum expects an element of {self.space.label}")
        if self.group.reflections:
            elt = elt + self._theta(elt)
        return elt._scale(self.group.m)

    # -- the transfer product --------------------------------------------

    def product(self, a: QElement, b: QElement) -> QElement:
        """P_G(a, b) = q_*(tr(a) * tr(b)) = |G|^2 q_*(a * b): the space's product under this quotient's `_factor`
        and `_keep`, formed by `Algebra._multiply` in one pass that builds no covering-space element."""
        if not isinstance(a, QElement) or not isinstance(b, QElement):
            raise StructureError("transfer product expects quotient classes")
        if a.algebra is not self or b.algebra is not self:
            raise StructureError("transfer product arguments live on different quotients")
        return self._multiply(a.terms, b.terms)

    def betti(self, max_degree: int) -> BettiTable:
        return self.space.table(max_degree, self)

    def __repr__(self):
        return f"Quotient({self.space!r} / {self.group.label})"


def _check_pair(space: Space, group: Subgroup) -> None:
    if not isinstance(space, Space) or type(group) is not Subgroup:
        raise DomainError(f"a quotient needs a Space and a Subgroup, got {_shown(space)} and {_shown(group)}")


def _check_quotient(q: Quotient) -> None:
    if type(q) is not Quotient:
        raise DomainError(f"expected a Quotient, got {_shown(q)}")


_quotients: dict = {}  # (space, group) -> the one Quotient `quotient` built


def quotient(space: Space, group: Subgroup) -> Quotient:
    """Cached quotient constructor, so object identity follows (space, group); the pair is checked, then hashed."""
    _check_pair(space, group)
    key = space, group
    if key not in _quotients:
        _quotients[key] = Quotient(space, group)
    return _quotients[key]


# ----------------------------------------------------------------------
# distinguished nonnilpotent classes
# ----------------------------------------------------------------------


def mu_class(q: Quotient) -> QElement:
    """mu = q_*(U*U) on a loop quotient, n odd (degree 3n-2)."""
    _check_quotient(q)
    if q.space.kind != LOOP or q.space.n % 2 == 0:
        raise DomainError("mu lives on loop quotients with n odd")
    return q.project(q.space.generator("Theta"))


def eta_class(q: Quotient) -> QElement:
    """eta = q_*(Theta*Theta) on a loop quotient, n even (degree 5n-4)."""
    _check_quotient(q)
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
    if variant not in ("vartheta", "theta"):  # compared, not hashed
        raise DomainError(f"unknown A-product variant {_shown(variant)}")
    _check_quotient(q)
    if q.space.kind != LOOP:
        raise DomainError("A-products live on loop quotients")
    group = dihedral(1) if variant == "vartheta" else _THETA
    if q.group != group:
        raise DomainError(f"the {variant} A-product needs the {group.label} quotient")
    if not (isinstance(a, QElement) and isinstance(b, QElement) and a.algebra is q is b.algebra):
        raise StructureError("A-product arguments live on a different quotient")
    if not b:
        return q.zero()
    if not b.is_homogeneous():
        raise DomainError(f"A-product needs a homogeneous second argument, degrees {b.degrees()}")
    n = q.space.n
    if variant == "vartheta" and n % 2:
        return q.zero()
    j = b.degree()
    sign = -1 if (n * (n - j)) % 2 else 1
    return q.product(a, b) * sign
