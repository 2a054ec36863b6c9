"""Linear maps between the sphere-attached homology algebras.

A map's `source` and `target` are algebras (here `Space`s): a map accepts
the elements of its source and returns elements of its target.

* ``theta_star``  — loop reversal acting on homology.  It is diagonal: a
  basis monomial m goes to (-1)^popcount(m & flips) m, for the mask flips =
  `reversal_flips(space)` that the space's presentation declares (see
  `spaces`), which `Quotient` reads as its `_keep`.
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

`suite_gysin` in the verify module checks the three identities tying them together.
"""

from __future__ import annotations

from .core import Algebra, DomainError, Element, StructureError, _shown
from .spaces import Space, based_loop_space, loop_space, sphere_space


class LinearMap:
    """A degree-homogeneous linear map sending each basis monomial to a signed monomial or to 0.

    `rule` maps a source monomial to a pair (coefficient, target monomial), or to None for 0; the target's
    `normalize` applies its zero and torsion rules to the images.  Its `label` is `name` on the source's label,
    made after the arguments are checked.
    """

    def __init__(self, source: Algebra, target: Algebra, rule, name: str):
        if not (isinstance(source, Algebra) and isinstance(target, Algebra) and callable(rule) and type(name) is str):
            raise DomainError("a linear map needs a source and a target algebra, a callable rule and a str name")
        self.source = source
        self.target = target
        self.label = f"{name} on {source.label}"
        self._rule = rule

    def image_of_monomial(self, mono) -> Element:
        self.source._check_monomial(mono)
        image = self._rule(mono)
        return self.target.normalize([image] if image else [])

    def __call__(self, elt: Element) -> Element:
        if not isinstance(elt, Element):
            raise StructureError(f"{self.label} expects an algebra element")
        if elt.algebra is not self.source:
            raise StructureError(
                f"{self.label} is defined on {self.source.label}, got an element of {elt.algebra.label}")
        raw = []
        for mono, coeff in elt.terms.items():
            image = self._rule(mono)
            if image:
                c, m2 = image
                raw.append((coeff * c, m2))
        return self.target.normalize(raw)

    def __repr__(self):
        return f"LinearMap({self.label})"


def reversal_power_sign(n: int, k: int) -> int:
    """Sign of loop reversal on the k-th Pontrjagin power of x, for natural numbers n and k."""
    for name, value in (("n", n), ("k", k)):
        if type(value) is not int or value < 0:
            raise DomainError(f"reversal_power_sign needs a natural number {name}, got {_shown(value)}")
    exponent = k if n % 2 else k * (k + 1) // 2
    return -1 if exponent % 2 else 1


def reversal_flips(space: Space) -> int:
    """The monomial whose set bits loop reversal negates: theta_* multiplies m by (-1)^popcount(m & flips)."""
    if getattr(space, "flips", None) is None:  # a sphere, or not a space
        raise DomainError("loop reversal acts on the loop and omega spaces only")
    return space.flips


def theta_star(space: Space) -> LinearMap:
    """Loop reversal on homology (an involution and product endomorphism)."""
    flips = reversal_flips(space)
    return LinearMap(space, space, lambda mono: ((-1) ** (mono & flips).bit_count(), mono), "theta")


def chi_star(space: Space) -> LinearMap:
    """Comparison between the two reflection quotients; the identity map."""
    return LinearMap(space, space, lambda mono: (1, mono), "chi")


def ev_star(n: int, ring: str) -> LinearMap:
    """Basepoint evaluation loop -> sphere (an algebra map)."""
    source = loop_space(n, ring)
    target = sphere_space(n, ring)
    a_mono = source.monomial((1, 0) if n % 2 else (0, 1, 0))
    # A to the point class, E to the fundamental class (the unit), everything else to 0
    images = {a_mono: (1, target.monomial((1,))), 0: (1, 0)}
    return LinearMap(source, target, images.get, "ev0")


def j_shriek(n: int, ring: str) -> LinearMap:
    """Gysin map loop -> omega of degree -n; multiplicative."""
    source, target = loop_space(n, ring), based_loop_space(n, ring)

    def rule(mono):
        *nilpotent, k = source.exponents(mono)
        return None if any(nilpotent) else (1, target.monomial((k if n % 2 else 2 * k,)))

    return LinearMap(source, target, rule, "j!")


def j_star(n: int, ring: str) -> LinearMap:
    """Fiber inclusion omega -> loop of degree 0."""
    source, target = based_loop_space(n, ring), loop_space(n, ring)

    def rule(mono):
        (k,) = source.exponents(mono)
        if n % 2:
            exps = (1, k)
        elif k % 2:
            exps = (1, 0, (k - 1) // 2)
        else:
            # A for k = 0, else the torsion class A*Theta^{k/2}; normalization kills it over Q
            exps = (0, 1, k // 2)
        return 1, target.monomial(exps)

    return LinearMap(source, target, rule, "j*")
