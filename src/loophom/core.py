"""Exact engine for small finitely presented graded-commutative algebras.

Every coefficient is exact: plain `int` over Z; over Q, `int` when the value
is integral and `fractions.Fraction` otherwise, so a `Fraction` appears only
after a real division (equal values compare and hash alike either way).
An `Algebra` owns an ordered tuple of generators together with its zero and
torsion rules, and `Element` values are normalized term maps over the
resulting monomial basis.

Degrees come in two flavours.  Each generator carries a *shifted* degree used
by the product grading: the product of classes of degrees p and q lands in
degree p + q - shift, where `shift` is a constant of the algebra (the ambient
dimension for intersection-type products, 0 for concatenation-type products).
Equivalently, shifted degrees are additive under multiplication and the
empty monomial sits in degree `shift`.

Every presentation has k <= 2 nilpotent generators (their squares vanish),
listed first, and at most one free generator, of positive shifted degree,
listed last.  So a basis monomial is the int `e << k | mask`: bit i of `mask`
is the exponent of the i-th nilpotent generator and `e` the exponent of the
free one.  `Algebra.monomial` and `Algebra.exponents` convert between this
int and the exponent vector; nothing else reads letters.

The product is exponent addition, so two monomials multiply by adding their
ints, unless a nilpotent letter would square.  A Koszul sign (-1)^{p q} needs
a letter of odd shifted degree p to move past one of odd shifted degree q; an
`Algebra` has at most one odd letter (A for n odd, sigma1 for n even in
H_*(LS^n)), and a letter never moves past itself, so no sign arises.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

RING_Q = "Q"
RING_Z = "Z"


class StructureError(ValueError):
    """Malformed data or values from two different algebras meeting."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class Generator:
    """One generator of a presented algebra.

    `shifted` is the degree in the product grading (homological degree minus
    the algebra's shift); at most one generator of an algebra has it odd, so
    no Koszul sign arises.  `theta_sign` is the eigenvalue under loop reversal.
    """

    name: str
    shifted: int
    nilpotent: bool = False
    theta_sign: int = 1


class Algebra:
    """A graded algebra with a fixed monomial basis and exact coefficients.

    The generators list the k nilpotent ones first and then at most one free
    one, of positive shifted degree; at most one generator has odd shifted
    degree.  Anything else raises `StructureError`.  A monomial is the int
    `e << k | mask` (see the module docstring); `monomial` and `exponents`
    convert it to and from the exponent vector.

    `extra_zero_rules` and `torsion_rules` are monomials: any monomial whose
    exponents dominate a zero rule's is zero, and one that dominates a
    torsion rule's is 2-torsion over Z (and zero over Q).  Squares of the
    nilpotent generators vanish by the encoding.  The rules become, for each
    mask, the least free exponent at which a monomial is zero or torsion.
    """

    def __init__(
        self,
        label: str,
        ring: str,
        generators: Iterable[Generator],
        shift: int,
        unit_name: str = "1",
        extra_zero_rules: Iterable[int] = (),
        torsion_rules: Iterable[int] = (),
    ):
        if ring not in (RING_Q, RING_Z):
            raise DomainError(f"unknown coefficient ring {ring!r}")
        self.label = label
        self.ring = ring
        self.generators = gens = tuple(generators)
        self.shift = shift
        self.unit_name = unit_name
        self._k = k = sum(g.nilpotent for g in gens)
        free = gens[k:]
        if not all(g.nilpotent for g in gens[:k]):
            raise StructureError(f"{label}: the nilpotent generators must come first")
        if len(free) > 1 or any(g.shifted <= 0 for g in free):
            raise StructureError(f"{label}: need at most one free generator, of positive shifted degree")
        if sum(g.shifted % 2 for g in gens) > 1:
            raise StructureError(f"{label}: need at most one generator of odd shifted degree")
        self._nil = nil = (1 << k) - 1
        self._step = free[0].shifted if free else 0  # 0: no free generator
        self._top = top = math.inf if free else nil  # the largest monomial
        masks = range(1 << k)
        self._mask_degree = [shift + sum(g.shifted for i, g in enumerate(gens[:k]) if mask >> i & 1) for mask in masks]
        zero_rules, torsion_rules = tuple(extra_zero_rules), tuple(torsion_rules)
        if any(type(rule) is not int or not 0 <= rule <= top for rule in zero_rules + torsion_rules):
            raise StructureError(f"{label}: a rule is not a monomial")

        def least_exponent(rules, mask):
            # the free exponent from which a monomial with this mask dominates a rule
            return min((rule >> k for rule in rules if rule & nil & ~mask == 0), default=math.inf)

        if ring == RING_Q:
            zero_rules += torsion_rules
            torsion_rules = ()
        self._zero_from = [least_exponent(zero_rules, mask) for mask in masks]
        self._torsion_from = [least_exponent(torsion_rules, mask) for mask in masks]

    # ------------------------------------------------------------------
    # scalars
    # ------------------------------------------------------------------

    def scalar(self, value):
        """Coerce a number into this algebra's coefficient ring.

        An integral value comes back as `int` on both rings; over Q any other
        rational stays a `Fraction`.
        """
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return value.numerator
            if self.ring == RING_Q:
                return value
            raise DomainError(f"fractional coefficient {value} needs ring Q, not Z")
        if is_scalar(value):
            return value
        kind = "a rational" if self.ring == RING_Q else "an integer"
        raise DomainError(f"cannot use {value!r} as {kind} coefficient")

    # ------------------------------------------------------------------
    # monomials
    # ------------------------------------------------------------------

    def monomial(self, exps) -> int:
        """The monomial with the exponent vector `exps`, a tuple or list with one
        natural number per generator (0 or 1 for a nilpotent one)."""
        if (
            not isinstance(exps, (tuple, list))
            or len(exps) != len(self.generators)
            or any(type(e) is not int or e < 0 for e in exps)
            or any(e > 1 for e in exps[: self._k])
        ):
            raise StructureError(f"{exps!r} is not an exponent vector of {self.label}")
        return sum(e << i for i, e in enumerate(exps))

    def exponents(self, mono: int) -> tuple:
        """The exponent vector of a monomial: the inverse of `monomial`."""
        k = self._k
        bits = tuple(mono >> i & 1 for i in range(k))
        return (bits + (mono >> k,)) if self._step else bits

    def monomial_degree(self, mono: int) -> int:
        return self._mask_degree[mono & self._nil] + (mono >> self._k) * self._step

    def mul_monomials(self, m1: int, m2: int):
        """The product of two monomials, or None when a nilpotent letter would square.

        Exponents add, so the ints add; no sign arises.
        """
        return None if m1 & m2 & self._nil else m1 + m2

    def monomial_str(self, mono: int) -> str:
        parts = []
        for e, g in zip(self.exponents(mono), self.generators):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{_int_str(e)}")
        return "*".join(parts) if parts else self.unit_name

    # ------------------------------------------------------------------
    # elements
    # ------------------------------------------------------------------

    def normalize(self, terms) -> "Element":
        """Collect (coefficient, monomial) pairs into a normal-form element.

        Applies the rules: zero monomials are dropped, torsion coefficients
        are reduced mod 2 over Z, and zero coefficients are pruned.  Every
        monomial must be a non-negative `int` of this algebra, else
        `StructureError`.  Every coefficient goes through `scalar`, except an
        exact `int`, which `scalar` would return unchanged.  An integral
        `Fraction` sum comes out as `int`.
        """
        k, nil, top, zero_from = self._k, self._nil, self._top, self._zero_from
        acc: dict = {}
        for coeff, mono in terms:
            if type(mono) is not int or not 0 <= mono <= top:
                raise StructureError(f"{mono!r} is not a monomial of {self.label}")
            if type(coeff) is not int:
                coeff = self.scalar(coeff)
            if mono >> k < zero_from[mono & nil]:
                acc[mono] = acc.get(mono, 0) + coeff
        torsion_from = self._torsion_from
        out: dict = {}
        for mono, coeff in acc.items():
            if mono >> k >= torsion_from[mono & nil]:
                coeff %= 2
            if coeff:
                if type(coeff) is not int and coeff.denominator == 1:
                    coeff = coeff.numerator
                out[mono] = coeff
        return Element(self, out)

    def zero(self) -> "Element":
        return Element(self, {})

    def unit(self) -> "Element":
        return Element(self, {0: self.scalar(1)})

    def monomial_element(self, mono: int) -> "Element":
        return self.normalize([(1, mono)])

    # ------------------------------------------------------------------
    # graded pieces
    # ------------------------------------------------------------------

    def basis(self, degree: int) -> list:
        """All normal-form basis monomials of the given degree, sorted.

        Over Z this includes torsion monomials (their multiples form the
        2-torsion summand); over Q those are excluded.  Only the 2^k masks
        are enumerated; the free exponent, if there is a free generator, is
        solved for by division.
        """
        k, step = self._k, self._step
        out: list = []
        for mask, low in enumerate(self._mask_degree):
            e, left = divmod(degree - low, step) if step else (0, degree - low)
            if e >= 0 and not left and e < self._zero_from[mask]:
                out.append(e << k | mask)
        out.sort()
        return out

    def graded_piece(self, degree: int):
        """(free basis monomials, torsion basis monomials) in one degree."""
        k, nil, torsion_from = self._k, self._nil, self._torsion_from
        free, torsion = [], []
        for mono in self.basis(degree):
            (torsion if mono >> k >= torsion_from[mono & nil] else free).append(mono)
        return free, torsion

    def __repr__(self):
        return f"Algebra({self.label})"


class Element:
    """A normalized element: an exact linear combination of basis monomials.

    `terms` maps each monomial (an int, see `Algebra`) to its nonzero
    coefficient.  Instances are created through `Algebra.normalize` and
    treated as immutable.  Arithmetic stays inside one algebra; mixing
    algebras raises `StructureError`.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    # -- predicates and views -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degrees(self) -> list:
        """Sorted list of degrees in which the element is nonzero."""
        return sorted({self.algebra.monomial_degree(m) for m in self.terms})

    def degree(self) -> int:
        """The degree of a homogeneous nonzero element."""
        degs = self.degrees()
        if len(degs) != 1:
            raise DomainError(
                f"degree of {self} is undefined (degrees {degs})"
            )
        return degs[0]

    def homogeneous_parts(self) -> dict:
        """Degree -> homogeneous component, nonzero components only."""
        parts: dict = {}
        for mono, coeff in self.terms.items():
            d = self.algebra.monomial_degree(mono)
            parts.setdefault(d, []).append((coeff, mono))
        return {
            d: self.algebra.normalize(chunk) for d, chunk in sorted(parts.items())
        }

    def coefficient(self, mono: int):
        return self.terms.get(mono, self.algebra.scalar(0))

    def sorted_terms(self):
        """Terms in canonical print order: by degree, then monomial."""
        alg = self.algebra
        return sorted(
            self.terms.items(), key=lambda kv: (alg.monomial_degree(kv[0]), kv[0])
        )

    # -- arithmetic ------------------------------------------------------

    def _check_same(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise StructureError(
                f"cannot combine elements of {self.algebra.label} "
                f"and {other.algebra.label}"
            )

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        terms = [(c, m) for m, c in self.terms.items()]
        terms += [(c, m) for m, c in other.terms.items()]
        return self.algebra.normalize(terms)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        terms = [(c, m) for m, c in self.terms.items()]
        terms += [(-c, m) for m, c in other.terms.items()]
        return self.algebra.normalize(terms)

    def __neg__(self):
        return self.algebra.normalize([(-c, m) for m, c in self.terms.items()])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            mul = self.algebra.mul_monomials
            right = other.terms.items()
            raw = []
            for m1, c1 in self.terms.items():
                for m2, c2 in right:
                    mono = mul(m1, m2)
                    if mono is not None:
                        raw.append((c1 * c2, mono))
            return self.algebra.normalize(raw)
        if is_scalar(other):
            return self.algebra.normalize([(c * other, m) for m, c in self.terms.items()])
        return NotImplemented

    def __rmul__(self, other):
        # __mul__ looked up at call time, so a wrapper put on it (perfbench/tracer.py) sees scalar * element too
        return self.__mul__(other)

    def __truediv__(self, other):
        if is_scalar(other):
            if other == 0:
                raise DomainError("division by zero")
            if self.algebra.ring != RING_Q:
                raise DomainError("exact division needs ring Q")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k):
        return power(self, k, self.algebra.unit, operator.mul, lambda e: e.terms.values())

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def format_terms(self, term_str) -> str:
        """Signed sum of term_str(monomial, |coefficient|) in print order."""
        out = ""
        for mono, coeff in self.sorted_terms():
            sign = (" - " if coeff < 0 else " + ") if out else ("-" if coeff < 0 else "")
            out += sign + term_str(mono, abs(coeff))
        return out or "0"

    def __str__(self):
        alg = self.algebra

        def term_str(mono, mag):
            if mono == 0 and alg.unit_name == "1":
                return scalar_str(mag)
            return scaled_str(mag, alg.monomial_str(mono))

        return self.format_terms(term_str)

    def __repr__(self):
        return f"<{self} in {self.algebra.label}>"


def is_scalar(value) -> bool:
    """True for int and Fraction; a bool is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise DomainError(f"cannot use {value!r} as a scalar")
    return isinstance(value, (int, Fraction))


#: largest bit length of a numerator or denominator in a power (about 315,653 decimal digits)
POWER_BITS = 1 << 20


def power(base, k, unit, mul, coefficients):
    """base**k by square-and-multiply: unit() for k = 0, else at most 2*log2(k) products mul(x, y);
    DomainError once a coefficient of a partial power has a numerator or denominator past POWER_BITS bits."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"exponent must be a natural number, got {k!r}")
    out = unit() if k == 0 else base
    for bit in bin(k)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
        if any(max(abs(c.numerator), c.denominator).bit_length() > POWER_BITS for c in coefficients(out)):
            raise DomainError(f"a power with exponent {k} has a coefficient of more than {POWER_BITS} bits")
    return out


def scalar_str(value) -> str:
    """Exact scalar rendering: integers plainly, fractions as p/q."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"
    return _int_str(int(value))


def scaled_str(mag, body: str) -> str:
    """One printed term: body, prefixed by the scalar mag unless it is 1."""
    return body if mag == 1 else f"{scalar_str(mag)}*{body}"


def _int_str(value: int) -> str:
    """str(value) at any size; past the int->str digit limit, which stays as it is, in two halves."""
    if value < 0:
        return "-" + _int_str(-value)
    try:
        return str(value)
    except ValueError:
        half = value.bit_length() * 3 // 20  # about half of the decimal digits
        high, low = divmod(value, 10**half)
        return _int_str(high) + _int_str(low).zfill(half)


def int_from_digits(digits: str) -> int:
    """The natural number an ASCII digit string names, at any length: the inverse of `_int_str`."""
    try:
        return int(digits)
    except ValueError:  # past the int<->str digit limit, which stays as it is
        half = len(digits) // 2
        return int_from_digits(digits[:-half]) * 10**half + int_from_digits(digits[-half:])
