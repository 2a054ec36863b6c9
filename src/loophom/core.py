"""Exact engine for small finitely presented graded-commutative algebras.

Every coefficient is exact: `fractions.Fraction` over Q, plain `int` over Z.
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

Koszul signs are read off the shifted parities: moving a letter of shifted
degree p past one of shifted degree q costs (-1)^{p q}.  Algebras that are
honestly commutative (polynomial rings in one variable, say) set
`koszul=False` and never produce signs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

RING_Q = "Q"
RING_Z = "Z"

#: exponent vector, one entry per generator of the owning algebra
Monomial = tuple


class StructureError(ValueError):
    """Malformed data or values from two different algebras meeting."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class Generator:
    """One generator of a presented algebra.

    `shifted` is the degree in the product grading (homological degree minus
    the algebra's shift); its parity drives the Koszul rule.  `theta_sign` is
    the eigenvalue of the generator under loop reversal.
    """

    name: str
    degree: int
    shifted: int
    nilpotent: bool = False
    theta_sign: int = 1

    @property
    def odd(self) -> bool:
        return self.shifted % 2 != 0


class Algebra:
    """A graded algebra with a fixed monomial basis and exact coefficients.

    `zero_rules` are exponent patterns: any monomial whose exponent vector
    dominates a pattern componentwise is zero.  Squares of nilpotent
    generators are added automatically.  `torsion_rules` mark patterns whose
    multiples are 2-torsion over Z (and vanish outright over Q).
    """

    def __init__(
        self,
        label: str,
        n: int,
        ring: str,
        generators: Iterable[Generator],
        shift: int,
        unit_name: str = "1",
        extra_zero_rules: Iterable[Monomial] = (),
        torsion_rules: Iterable[Monomial] = (),
        koszul: bool = True,
    ):
        if ring not in (RING_Q, RING_Z):
            raise DomainError(f"unknown coefficient ring {ring!r}")
        self.label = label
        self.n = n
        self.ring = ring
        self.generators = tuple(generators)
        self.shift = shift
        self.unit_name = unit_name
        self.koszul = koszul
        width = len(self.generators)
        rules = []
        for i, g in enumerate(self.generators):
            if g.nilpotent:
                rules.append(tuple(2 if j == i else 0 for j in range(width)))
        for pat in extra_zero_rules:
            rules.append(tuple(pat))
        self.zero_rules = tuple(rules)
        self.torsion_rules = tuple(tuple(pat) for pat in torsion_rules)
        for pat in self.zero_rules + self.torsion_rules:
            if len(pat) != width:
                raise StructureError("rewrite pattern width does not match generators")
        self.unit_monomial = (0,) * width
        self._product_memo: dict = {}
        self._basis_cache: dict = {}
        # smallest shifted degree the tail generators i.. can still contribute
        mins = [0] * (width + 1)
        for i in range(width - 1, -1, -1):
            g = self.generators[i]
            cap = min(0, g.shifted) if g.nilpotent else 0
            mins[i] = mins[i + 1] + cap
        self._suffix_min = mins

    # ------------------------------------------------------------------
    # scalars
    # ------------------------------------------------------------------

    def scalar(self, value):
        """Coerce a number into this algebra's coefficient ring."""
        if self.ring == RING_Q:
            if is_scalar(value):
                return Fraction(value)
            raise DomainError(f"cannot use {value!r} as a rational coefficient")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise DomainError(
                    f"fractional coefficient {value} needs ring Q, not Z"
                )
            return int(value)
        if is_scalar(value):
            return value
        raise DomainError(f"cannot use {value!r} as an integer coefficient")

    # ------------------------------------------------------------------
    # monomials
    # ------------------------------------------------------------------

    def monomial_degree(self, mono: Monomial) -> int:
        return self.shift + sum(
            e * g.shifted for e, g in zip(mono, self.generators)
        )

    def _dominates(self, mono: Monomial, pattern: Monomial) -> bool:
        return all(e >= p for e, p in zip(mono, pattern))

    def is_zero_monomial(self, mono: Monomial) -> bool:
        return any(self._dominates(mono, pat) for pat in self.zero_rules)

    def is_torsion_monomial(self, mono: Monomial) -> bool:
        """True when the coefficient of `mono` is killed by 2 over Z."""
        return any(self._dominates(mono, pat) for pat in self.torsion_rules)

    def mul_monomials(self, m1: Monomial, m2: Monomial):
        """Multiply two monomials; returns (monomial, sign).

        The sign counts, mod 2, the Koszul transpositions needed to merge the
        letters of m2 into m1's canonical order: each letter of m2 at
        generator slot j crosses every odd letter of m1 at a slot > j.
        """
        key = (m1, m2)
        hit = self._product_memo.get(key)
        if hit is not None:
            return hit
        merged = tuple(a + b for a, b in zip(m1, m2))
        sign = 1
        if self.koszul:
            gens = self.generators
            swaps = 0
            for j, gj in enumerate(gens):
                if m2[j] and gj.odd:
                    crossings = sum(
                        m1[i] for i in range(j + 1, len(gens)) if gens[i].odd
                    )
                    swaps += m2[j] * crossings
            if swaps % 2:
                sign = -1
        result = (merged, sign)
        self._product_memo[key] = result
        return result

    def monomial_str(self, mono: Monomial) -> str:
        parts = []
        for e, g in zip(mono, self.generators):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else self.unit_name

    # ------------------------------------------------------------------
    # elements
    # ------------------------------------------------------------------

    def normalize(self, terms) -> "Element":
        """Collect (coefficient, monomial) pairs into a normal-form element.

        Applies the rewrite rules: zero-pattern monomials are dropped,
        torsion-pattern coefficients are reduced mod 2 over Z and dropped
        over Q, and zero coefficients are pruned.
        """
        acc: dict = {}
        for coeff, mono in terms:
            mono = tuple(mono)
            if len(mono) != len(self.generators):
                raise StructureError(
                    f"monomial {mono} has wrong width for {self.label}"
                )
            if any(e < 0 for e in mono):
                raise StructureError(f"negative exponent in monomial {mono}")
            coeff = self.scalar(coeff)
            acc[mono] = acc.get(mono, 0) + coeff
        out: dict = {}
        for mono, coeff in acc.items():
            if self.is_zero_monomial(mono):
                continue
            if self.is_torsion_monomial(mono):
                if self.ring == RING_Q:
                    continue
                coeff = coeff % 2
            if coeff:
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
        2-torsion summand); over Q those are excluded.
        """
        hit = self._basis_cache.get(degree)
        if hit is not None:
            return list(hit)
        gens = self.generators
        target = degree - self.shift
        out: list = []

        def extend(i: int, acc: list, remaining: int):
            if i == len(gens):
                if remaining == 0:
                    mono = tuple(acc)
                    if self.is_zero_monomial(mono):
                        return
                    if self.ring == RING_Q and self.is_torsion_monomial(mono):
                        return
                    out.append(mono)
                return
            g = gens[i]
            if g.nilpotent:
                for e in (0, 1):
                    extend(i + 1, acc + [e], remaining - e * g.shifted)
                return
            if g.shifted <= 0:
                raise StructureError(
                    f"generator {g.name} would make degree {degree} infinite"
                )
            e = 0
            while e * g.shifted <= remaining - self._suffix_min[i + 1]:
                extend(i + 1, acc + [e], remaining - e * g.shifted)
                e += 1

        extend(0, [], target)
        out.sort()
        self._basis_cache[degree] = tuple(out)
        return out

    def graded_piece(self, degree: int):
        """(free basis monomials, torsion basis monomials) in one degree."""
        free, torsion = [], []
        for mono in self.basis(degree):
            (torsion if self.is_torsion_monomial(mono) else free).append(mono)
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
        terms = list(self.terms.items()) + list(other.terms.items())
        return self.algebra.normalize((c, m) for m, c in terms)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        terms = [(c, m) for m, c in self.terms.items()]
        terms += [(-c, m) for m, c in other.terms.items()]
        return self.algebra.normalize(terms)

    def __neg__(self):
        return self.algebra.normalize((-c, m) for m, c in self.terms.items())

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            raw = []
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono, sign = self.algebra.mul_monomials(m1, m2)
                    raw.append((sign * c1 * c2, mono))
            return self.algebra.normalize(raw)
        if is_scalar(other):
            return self.algebra.normalize(
                (c * other, m) for m, c in self.terms.items()
            )
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
        return power(self, k, self.algebra.unit, operator.mul)

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


def power(base, k, unit, mul):
    """base**k by square-and-multiply: unit() for k = 0, else at most k products mul(x, y)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"exponent must be a natural number, got {k!r}")
    out = unit() if k == 0 else base
    for bit in bin(k)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
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
