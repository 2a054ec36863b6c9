"""Exact engine for small finitely presented graded-commutative algebras.

Every coefficient is exact: plain `int` over Z; over Q, `int` when the value
is integral and `fractions.Fraction` otherwise, so a `Fraction` appears only
after a real division (equal values compare and hash alike either way).
An `Algebra` owns an ordered tuple of generators together with rewrite data
(monomial patterns that vanish, and monomial patterns whose coefficients are
2-torsion), and `Element` values are normalized term maps over the resulting
monomial basis.

Degrees come in two flavours.  Each generator carries its homological degree
and a *shifted* degree used by the product grading: the product of classes of
degrees p and q lands in degree p + q - shift, where `shift` is a constant of
the algebra (the ambient dimension for intersection-type products, 0 for
concatenation-type products).  Equivalently, shifted degrees are additive
under multiplication and the empty monomial sits in degree `shift`.

The product is exponent addition.  A Koszul sign (-1)^{p q} needs a letter of
odd shifted degree p to move past one of odd shifted degree q; an `Algebra`
has at most one odd letter (A for n odd, sigma1 for n even in H_*(LS^n)), and
a letter never moves past itself, so no sign arises.

Every presentation has at most one free (non-nilpotent) generator, of
positive shifted degree, so `basis` enumerates only the 2^k choices of the
k nilpotent generators and solves the free exponent by division.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

RING_Q = "Q"
RING_Z = "Z"

#: exponent vector, one entry per generator of the owning algebra
Monomial = tuple


# the fate of a monomial under the rewrite rules, as memoised by Algebra._fate
_ZERO, _FREE, _TORSION = 0, 1, 2


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
    degree: int
    shifted: int
    nilpotent: bool = False
    theta_sign: int = 1


class Algebra:
    """A graded algebra with a fixed monomial basis and exact coefficients.

    `zero_rules` are exponent patterns: any monomial whose exponent vector
    dominates a pattern componentwise is zero.  Squares of nilpotent
    generators are added automatically.  `torsion_rules` mark patterns whose
    multiples are 2-torsion over Z (and vanish outright over Q).  At most
    one generator may be free (not nilpotent), of positive shifted degree,
    and at most one of odd shifted degree; else `StructureError`.
    """

    def __init__(
        self,
        label: str,
        ring: str,
        generators: Iterable[Generator],
        shift: int,
        unit_name: str = "1",
        extra_zero_rules: Iterable[Monomial] = (),
        torsion_rules: Iterable[Monomial] = (),
    ):
        if ring not in (RING_Q, RING_Z):
            raise DomainError(f"unknown coefficient ring {ring!r}")
        self.label = label
        self.ring = ring
        self.generators = gens = tuple(generators)
        self.shift = shift
        self.unit_name = unit_name
        width = len(gens)
        squares = [tuple(2 if j == i else 0 for j in range(width)) for i, g in enumerate(gens) if g.nilpotent]
        self.zero_rules = tuple(squares) + tuple(tuple(pat) for pat in extra_zero_rules)
        self.torsion_rules = tuple(tuple(pat) for pat in torsion_rules)
        for pat in self.zero_rules + self.torsion_rules:
            if len(pat) != width:
                raise StructureError("rewrite pattern width does not match generators")
        self.unit_monomial = (0,) * width
        self._fates: dict = {}
        free = [i for i, g in enumerate(gens) if not g.nilpotent]
        if len(free) > 1 or any(gens[i].shifted <= 0 for i in free):
            raise StructureError(f"{label}: need at most one free generator, of positive shifted degree")
        if sum(g.shifted % 2 for g in gens) > 1:
            raise StructureError(f"{label}: need at most one generator of odd shifted degree")
        self._free = free[0] if free else None
        choices = itertools.product(*((0,) if i == self._free else (0, 1) for i in range(width)))
        self._nilpotent_choices = [(mono, self.monomial_degree(mono)) for mono in choices]  # free exponent 0

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

    def monomial_degree(self, mono: Monomial) -> int:
        return self.shift + sum(
            e * g.shifted for e, g in zip(mono, self.generators)
        )

    def _fate(self, mono: Monomial) -> int:
        """_ZERO, _FREE or _TORSION (2-torsion coefficient, Z only) for a tuple.

        A monomial is validated and classified once, on first sight; the
        answer is memoised per algebra.
        """
        fate = self._fates.get(mono)
        if fate is not None:
            return fate
        if len(mono) != len(self.generators):
            raise StructureError(f"monomial {mono} has wrong width for {self.label}")
        if any(e < 0 for e in mono):
            raise StructureError(f"negative exponent in monomial {mono}")

        def matches(rules):
            return any(all(e >= p for e, p in zip(mono, pat)) for pat in rules)

        if matches(self.zero_rules):
            fate = _ZERO
        elif matches(self.torsion_rules):
            fate = _TORSION if self.ring == RING_Z else _ZERO
        else:
            fate = _FREE
        self._fates[mono] = fate
        return fate

    def mul_monomials(self, m1: Monomial, m2: Monomial) -> Monomial:
        """The product of two monomials: exponents add, and no sign arises."""
        return tuple(map(operator.add, m1, m2))

    def monomial_str(self, mono: Monomial) -> str:
        parts = []
        for e, g in zip(mono, self.generators):
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

        Applies the rewrite rules: zero-pattern monomials are dropped,
        torsion-pattern coefficients are reduced mod 2 over Z and dropped
        over Q, and zero coefficients are pruned.  Every monomial is checked
        (once, see `_fate`) and every coefficient goes through `scalar`,
        except an exact `int`, which `scalar` would return unchanged.  An
        integral `Fraction` sum comes out as `int`.
        """
        fates = self._fates
        acc: dict = {}
        for coeff, mono in terms:
            try:
                fate = fates[mono]
            except (KeyError, TypeError):  # first sight, or not a tuple
                mono = tuple(mono)
                fate = self._fate(mono)
            if type(coeff) is not int:
                coeff = self.scalar(coeff)
            if fate:
                acc[mono] = acc.get(mono, 0) + coeff
        out: dict = {}
        for mono, coeff in acc.items():
            if fates[mono] == _TORSION:
                coeff %= 2
            if coeff:
                if type(coeff) is not int and coeff.denominator == 1:
                    coeff = coeff.numerator
                out[mono] = coeff
        return Element(self, out)

    def zero(self) -> "Element":
        return Element(self, {})

    def unit(self) -> "Element":
        return Element(self, {self.unit_monomial: self.scalar(1)})

    def monomial_element(self, mono: Monomial) -> "Element":
        return self.normalize([(1, mono)])

    # ------------------------------------------------------------------
    # graded pieces
    # ------------------------------------------------------------------

    def basis(self, degree: int) -> list:
        """All normal-form basis monomials of the given degree, sorted.

        Over Z this includes torsion monomials (their multiples form the
        2-torsion summand); over Q those are excluded.  Only the 2^k choices
        of the nilpotent exponents are enumerated; the free generator's
        exponent, if there is one, is solved for by division.
        """
        free = self._free
        out: list = []
        for mono, low in self._nilpotent_choices:
            rest = degree - low
            if free is not None:
                e, left = divmod(rest, self.generators[free].shifted)
                if e < 0 or left:
                    continue
                mono = mono[:free] + (e,) + mono[free + 1:]
            elif rest:
                continue
            if self._fate(mono):
                out.append(mono)
        out.sort()
        return out

    def graded_piece(self, degree: int):
        """(free basis monomials, torsion basis monomials) in one degree."""
        free, torsion = [], []
        for mono in self.basis(degree):
            (torsion if self._fate(mono) == _TORSION else free).append(mono)
        return free, torsion

    def __repr__(self):
        return f"Algebra({self.label})"


class Element:
    """A normalized element: an exact linear combination of basis monomials.

    Instances are created through `Algebra.normalize` and treated as
    immutable.  Arithmetic stays inside one algebra; mixing algebras raises
    `StructureError`.
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

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), self.algebra.scalar(0))

    def sorted_terms(self):
        """Terms in canonical print order: by degree, then exponent vector."""
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
                    raw.append((c1 * c2, mul(m1, m2)))
            return self.algebra.normalize(raw)
        if is_scalar(other):
            return self.algebra.normalize([(c * other, m) for m, c in self.terms.items()])
        return NotImplemented

    def __rmul__(self, other):
        if is_scalar(other):
            return self * other
        return NotImplemented

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
            if mono == alg.unit_monomial and alg.unit_name == "1":
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
