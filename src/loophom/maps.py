"""Linear maps between the sphere-attached homology algebras.

* ``theta_star``  — loop reversal acting on homology.  It is diagonal: it
  multiplies each basis monomial by the sign `reversal_sign(space)` gives
  it, and `Quotient` reads that sign function directly.  On the free loop
  algebras each generator is a reversal eigenvector, so the sign on a
  monomial is the product of its letters' signs.  On the based algebra the
  k-th power of x needs more care: reversal is an anti-homomorphism up to
  the Koszul rule, so reversing x^k also reverses the order of the k
  factors.  For n even x has odd degree and the reshuffle contributes
  (-1)^{k(k-1)/2} on top of the letterwise (-1)^k, giving the net sign
  (-1)^{k(k+1)/2}.  For n odd the letters commute and the sign is (-1)^k.
* ``chi_star``    — the rotation-vs-reflection comparison on homology; the
  identity map.
* ``ev_star``     — evaluation at the basepoint, loop -> sphere: A to the
  point class, E to the fundamental class, everything else to 0.
* ``j_shriek``    — the fiberwise Gysin map loop -> omega of degree -n:
  multiplicative, E to 1, U to x, Theta to x^2.  All A-multiples and all
  sigma-classes die: their would-be targets sit in degrees the polynomial
  ring misses (and the 2-torsion classes have no home in a free ring).
* ``j_star``      — fiber inclusion omega -> loop of degree 0: 1 to A and,
  writing sigma_r for the degree-lambda_r class, x^{2r-1} to sigma_r; even
  powers go to A*U^{2r} (n odd) and to the torsion class A*Theta^r (n even,
  so they vanish over Q).

`suite_gysin` in the verify module checks the three compatibility identities
tying these together.
"""

from __future__ import annotations

from .core import DomainError, Element, StructureError
from .spaces import LOOP, OMEGA, SPHERE, Space, based_loop_space, loop_space, sphere_space


class LinearMap:
    """A degree-homogeneous linear map defined by images of basis monomials.

    `rule` maps a source monomial to a target `Element`; images are memoized.
    """

    def __init__(self, source: Space, target: Space, rule, label: str):
        self.source = source
        self.target = target
        self.label = label
        self._rule = rule
        self._images: dict = {}

    def image_of_monomial(self, mono) -> Element:
        image = self._images.get(mono)
        if image is None:
            image = self._rule(mono)
            self._images[mono] = image
        return image

    def __call__(self, elt: Element) -> Element:
        if not isinstance(elt, Element):
            raise StructureError(f"{self.label} expects an algebra element")
        if elt.algebra is not self.source.algebra:
            raise StructureError(
                f"{self.label} is defined on {self.source.algebra.label}, "
                f"got an element of {elt.algebra.label}"
            )
        raw = []
        for mono, coeff in elt.terms.items():
            for m2, c2 in self.image_of_monomial(mono).terms.items():
                raw.append((coeff * c2, m2))
        return self.target.algebra.normalize(raw)

    def __repr__(self):
        return f"LinearMap({self.label})"


def reversal_power_sign(n: int, k: int) -> int:
    """Sign of loop reversal on the k-th Pontrjagin power of x."""
    exponent = k if n % 2 else k * (k + 1) // 2
    return -1 if exponent % 2 else 1


def reversal_sign(space: Space):
    """The sign by which loop reversal multiplies each basis monomial, as a function of the monomial."""
    alg = space.algebra
    if space.kind == LOOP:
        # the letters that reversal negates; bit k of a monomial is the parity of the free exponent
        flips = alg.monomial(tuple(int(g.theta_sign < 0) for g in alg.generators))
        return lambda mono: -1 if (mono & flips).bit_count() % 2 else 1
    if space.kind == OMEGA:
        return lambda mono: reversal_power_sign(space.n, mono)  # mono is the exponent of x
    raise DomainError("loop reversal acts on the loop and omega spaces only")


def theta_star(space: Space) -> LinearMap:
    """Loop reversal on homology (an involution and product endomorphism)."""
    alg = space.algebra
    sign = reversal_sign(space)
    return LinearMap(space, space, lambda mono: alg.normalize([(sign(mono), mono)]), f"theta on {alg.label}")


def chi_star(space: Space) -> LinearMap:
    """Comparison between the two reflection quotients; the identity map."""
    alg = space.algebra

    def rule(mono):
        return alg.monomial_element(mono)

    return LinearMap(space, space, rule, f"chi on {alg.label}")


def ev_star(n: int, ring: str) -> LinearMap:
    """Basepoint evaluation loop -> sphere (an algebra map)."""
    source = loop_space(n, ring)
    target = sphere_space(n, ring)
    a_mono = source.algebra.monomial((1, 0) if n % 2 else (0, 1, 0))

    def rule(mono):
        if mono == a_mono:
            return target.generator("pt")
        if mono == 0:
            return target.unit
        return target.algebra.zero()

    return LinearMap(source, target, rule, f"ev0 on {source.algebra.label}")


def j_shriek(n: int, ring: str) -> LinearMap:
    """Gysin map loop -> omega of degree -n; multiplicative."""
    source, target = loop_space(n, ring), based_loop_space(n, ring)

    def rule(mono):
        *nilpotent, k = source.algebra.exponents(mono)
        if any(nilpotent):
            return target.algebra.zero()
        return target.algebra.monomial_element(target.algebra.monomial((k if n % 2 else 2 * k,)))

    return LinearMap(source, target, rule, f"j! on {source.algebra.label}")


def j_star(n: int, ring: str) -> LinearMap:
    """Fiber inclusion omega -> loop of degree 0."""
    source, target = based_loop_space(n, ring), loop_space(n, ring)

    def rule(mono):
        (k,) = source.algebra.exponents(mono)
        if n % 2:
            exps = (1, k)
        elif k % 2:
            exps = (1, 0, (k - 1) // 2)
        else:
            # A for k = 0, else the torsion class A*Theta^{k/2}; normalization kills it over Q
            exps = (0, 1, k // 2)
        return target.algebra.monomial_element(target.algebra.monomial(exps))

    return LinearMap(source, target, rule, f"j* on {source.algebra.label}")
