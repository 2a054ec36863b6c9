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
`Algebra._multiply` forms every product, scaling by `_factor` and dropping a
monomial m when m & `_keep` has an odd number of set bits; `_keep` is 0 (drop
nothing) except on a reflection quotient (see `equivariant`).
"""

from __future__ import annotations

import decimal
import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

RING_Q = "Q"
RING_Z = "Z"


class StructureError(ValueError):
    """Malformed data or values from two different algebras meeting."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class Generator(namedtuple("Generator", "name shifted nilpotent", defaults=(False,))):
    """One generator of a presented algebra.

    `shifted` is the degree in the product grading (homological degree minus
    the algebra's shift); at most one generator of an algebra has it odd, so
    no Koszul sign arises.
    """

    __slots__ = ()


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

    The class attribute `element` is the class of the elements it builds
    (`Element`, set below it; a subclass may build a subclass).
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
            raise DomainError(f"unknown coefficient ring {_shown(ring)}")
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
        # `_multiply`'s scale, and the mask that drops a monomial m with odd popcount(m & _keep); a `Quotient` sets both
        self._factor = 1
        self._keep = 0

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
            raise DomainError(f"fractional coefficient {_shown(value, str)} needs ring Q, not Z")
        if is_scalar(value):
            return value
        kind = "a rational" if self.ring == RING_Q else "an integer"
        raise DomainError(f"cannot use {_shown(value)} as {kind} coefficient")

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
            raise StructureError(f"{_shown(exps)} is not an exponent vector of {self.label}")
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

        The entry point for terms from outside an `Element`.  Applies the
        rules: zero monomials are dropped, torsion coefficients are reduced
        mod 2 over Z, and zero coefficients are pruned.  Every monomial must
        be a non-negative `int` of this algebra, else `StructureError`.
        Every coefficient goes through `scalar`, except an exact `int`, which
        `scalar` would return unchanged; `_reduce` then applies the
        coefficient rule to the sums.
        """
        k, nil, top, zero_from = self._k, self._nil, self._top, self._zero_from
        acc: dict = {}
        for coeff, mono in terms:
            if type(mono) is not int or not 0 <= mono <= top:
                raise StructureError(f"{_shown(mono)} is not a monomial of {self.label}")
            if type(coeff) is not int:
                coeff = self.scalar(coeff)
            if mono >> k < zero_from[mono & nil]:
                acc[mono] = acc.get(mono, 0) + coeff
        return self._reduce(acc, {})

    def _reduce(self, acc: dict, out: dict) -> "Element":
        """The element `out` with the collected sums `acc` written into it.

        `acc` maps nonzero monomials of this algebra to int or `Fraction`
        sums.  The one coefficient rule: a sum that is not an `int` goes
        through `scalar` (an integral `Fraction` becomes an `int`, a
        fractional one over Z is refused), then it is reduced mod 2 on a
        torsion monomial over Z, and a zero sum removes its monomial from
        `out`.
        """
        k, nil, torsion_from = self._k, self._nil, self._torsion_from
        for mono, coeff in acc.items():
            if type(coeff) is not int:
                coeff = self.scalar(coeff)
            if mono >> k >= torsion_from[mono & nil]:
                coeff %= 2
            if coeff:
                out[mono] = coeff
            else:
                out.pop(mono, None)
        return self.element(self, out)

    def _multiply(self, left: dict, right: dict) -> "Element":
        """The product of two normal term maps: the one code that forms products, and that tests their term counts.

        Each term product is `_factor`*c1*c2 on the monomial m of `mul_monomials` (the nilpotent rule), dropped by the
        zero rule and when m & `_keep` has odd popcount (a quotient's kernel of q_*).  Two one-term maps finish their
        one term here, with `_reduce`'s coefficient rule written out, so no collecting pass or `_reduce` call is made;
        any other pair collects its sums by product monomial, and `_reduce` applies the coefficient rule.
        """
        if len(left) == 1 == len(right):
            ((m1, c1),) = left.items()
            ((m2, c2),) = right.items()
            mono = self.mul_monomials(m1, m2)
            k, nil = self._k, self._nil
            if mono is None or mono >> k >= self._zero_from[mono & nil] or (mono & self._keep).bit_count() & 1:
                return self.element(self, {})
            coeff = c1 * self._factor * c2
            if type(coeff) is not int:
                coeff = self.scalar(coeff)
            if mono >> k >= self._torsion_from[mono & nil]:
                coeff %= 2
            return self.element(self, {mono: coeff} if coeff else {})
        mul, k, nil, zero_from = self.mul_monomials, self._k, self._nil, self._zero_from
        factor, keep = self._factor, self._keep
        right = right.items()
        acc: dict = {}
        for m1, c1 in left.items():
            c1 *= factor
            for m2, c2 in right:
                mono = mul(m1, m2)
                if mono is not None and mono >> k < zero_from[mono & nil] and not (mono & keep).bit_count() & 1:
                    acc[mono] = acc.get(mono, 0) + c1 * c2
        return self._reduce(acc, {})

    def zero(self) -> "Element":
        return self.element(self, {})

    def unit(self) -> "Element":
        return self.element(self, {0: 1})

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
    coefficient.  Instances come from `Algebra.normalize` or from arithmetic
    on normal elements, and are treated as immutable.  Arithmetic stays
    inside one algebra; mixing algebras raises `StructureError`.
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
        alg = self.algebra
        parts: dict = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(alg.monomial_degree(mono), {})[mono] = coeff
        # any subset of a normal element's terms is normal
        return {d: alg.element(alg, part) for d, part in sorted(parts.items())}

    def coefficient(self, mono: int):
        return self.terms.get(mono, 0)

    # -- arithmetic ------------------------------------------------------

    def _check_same(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise StructureError(
                f"cannot combine elements of {self.algebra.label} "
                f"and {other.algebra.label}"
            )

    def _fold(self, other, sign: int):
        """self + sign * other: other's terms folded into a copy of self's."""
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        terms = self.terms
        return self.algebra._reduce({m: terms.get(m, 0) + sign * c for m, c in other.terms.items()}, dict(terms))

    def __add__(self, other):
        return self._fold(other, 1)

    def __sub__(self, other):
        return self._fold(other, -1)

    def __neg__(self):
        return self._scale(-1)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return self.algebra._multiply(self.terms, other.terms)
        if is_scalar(other):
            return self._scale(other)
        return NotImplemented

    def _scale(self, k) -> "Element":
        """k * self for a scalar k: every term keeps its monomial, so only the coefficient rule applies."""
        return self.algebra._reduce({m: c * k for m, c in self.terms.items()}, {})

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
        return power(self, k)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def __str__(self):
        """The signed sum of the terms, by degree and then monomial; a coefficient 1 is not printed."""
        alg = self.algebra
        out = ""
        for mono, coeff in sorted(self.terms.items(), key=lambda kv: (alg.monomial_degree(kv[0]), kv[0])):
            sign = (" - " if coeff < 0 else " + ") if out else ("-" if coeff < 0 else "")
            mag = abs(coeff)
            if mono == 0 and alg.unit_name == "1":
                body = scalar_str(mag)
            else:
                body = alg.monomial_str(mono) if mag == 1 else f"{scalar_str(mag)}*{alg.monomial_str(mono)}"
            out += sign + body
        return out or "0"

    def __repr__(self):
        return f"<{self} in {self.algebra.label}>"


Algebra.element = Element


def is_scalar(value) -> bool:
    """True for int and Fraction; a bool is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise DomainError(f"cannot use {value!r} as a scalar")
    return isinstance(value, (int, Fraction))


#: most bits a partial power's coefficients may hold in all, counting max(|numerator|, denominator) of
#: each; for a single term, the bound on its one coefficient (2^20 bits is about 315,653 decimal digits)
POWER_BITS = 1 << 20
#: most terms a power may have; squaring costs the square of the count, and coefficient bits barely grow
POWER_TERMS = 128
#: most term pairs a product of two classes may multiply, checked by `check_work` before POWER_WORK; a chain of
#: products grows by one factor's terms each time, and two powers under POWER_TERMS always pass it
MAX_PRODUCT_PAIRS = 1 << 16
#: most coefficient bits the term products of one product may hold in all: len(y) * bits(x) +
#: len(x) * bits(y) for x * y.  `check_work` checks it before each step of a power and before each
#: product `expr` forms, so a costly product is refused, not made; two single terms under POWER_BITS
#: form at most 2 * POWER_BITS
POWER_WORK = 8 * POWER_BITS
#: most bit pairs the term pairs of one product that hold a fraction may cost in all: bits(c1) * bits(c2) for
#: each such pair of coefficients, since multiplying c1 and c2 runs gcds whose time grows as that product.
#: `check_work` checks it after POWER_WORK; two factors (2/3)^470000, of 745K bits each, took 1.1 s on 2 vCPUs.
#: `check_sum` charges the coefficient pairs a sum adds against it too
FRACTION_WORK = 1 << 39


def power(base, k):
    """base**k of a scalar or an `Element`: the unit for k = 0, base itself for k = 1.

    A scalar or a one-term element of a space goes in closed form (`_term_power`), forming no product.
    Any other element goes by square-and-multiply, and so does a quotient class, whose powers are
    transfer products: at most 2*log2(k) products, each priced first by `check_work`, so a power gets
    the verdict of the products it forms.  DomainError once a partial power has more than POWER_TERMS terms or
    coefficients of more than POWER_BITS bits.  The closed form makes the loop's first check, of
    base * base, and refuses before computing when the coefficient's least possible size is already
    past POWER_BITS; every power that refusal accepts passes the loop's later checks too.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"exponent must be a natural number, got {_int_str(k) if type(k) is int else repr(k)}")
    what = f"a power with exponent {_int_str(k)}"
    if k < 2:
        return base if k else (base.algebra.unit() if isinstance(base, Element) else 1)
    if not isinstance(base, Element) or (type(base) is Element and len(base.terms) == 1):
        check_work(base, base, what)  # the loop's first square: the one check a power that is 0 must pass
        out = _term_power(base, k, what)
        if _bits(_coefficients(out)) > POWER_BITS:
            raise DomainError(f"{what} has coefficients of more than {POWER_BITS} bits in all")
        return out
    out = base
    for bit in bin(k)[3:]:
        check_work(out, out, what)
        out = out * out
        if bit == "1":
            check_work(out, base, what)
            out = out * base
        coefficients = _coefficients(out)
        if len(coefficients) > POWER_TERMS:
            raise DomainError(f"{what} has more than {POWER_TERMS} terms")
        if _bits(coefficients) > POWER_BITS:
            raise DomainError(f"{what} has coefficients of more than {POWER_BITS} bits in all")
    return out


def _term_power(base, k: int, what: str):
    """base**k, k >= 2, for a scalar or a one-term element of a space, in closed form.

    The coefficient c gives c**k, which `Fraction.__pow__` forms with no gcd; an element c*m puts it on
    k*m (exponents multiply by k, and so does the int), or is 0 when a nilpotent letter would square or
    the zero rule applies to k*m, and `_reduce` applies the coefficient rule.  A power whose coefficient
    must hold more than POWER_BITS bits is refused, naming `what`, before it is computed.
    """
    if isinstance(base, Element):
        alg = base.algebra
        ((mono, coeff),) = base.terms.items()
        square = alg.mul_monomials(mono, mono)  # None when a nilpotent letter would square
        mono *= k
        if square is None or mono >> alg._k >= alg._zero_from[mono & alg._nil]:
            return alg.zero()
    else:
        coeff = base
    if k * (_bits((coeff,)) - 1) >= POWER_BITS:  # c**k has at least k*(bits(c) - 1) + 1 bits
        raise DomainError(f"{what} has coefficients of more than {POWER_BITS} bits in all")
    return alg._reduce({mono: coeff**k}, {}) if isinstance(base, Element) else coeff**k


def check_work(x, y, what: str) -> None:
    """The one price of a product x * y of scalars or `Element`s: DomainError, naming `what`, when two
    classes would multiply more than MAX_PRODUCT_PAIRS pairs of terms (a scalar only scales, so it
    pays no pairs), when the term products would hold more than POWER_WORK coefficient bits in all,
    or when the term pairs that hold a fraction would cost more than FRACTION_WORK bit pairs in all."""
    cx, cy = _coefficients(x), _coefficients(y)
    if isinstance(x, Element) and isinstance(y, Element) and len(cx) * len(cy) > MAX_PRODUCT_PAIRS:
        raise DomainError(
            f"{what} of a {len(cx)}-term and a {len(cy)}-term class multiplies more than "
            f"{MAX_PRODUCT_PAIRS} pairs of terms"
        )
    bx, by = _bits(cx), _bits(cy)
    if len(cy) * bx + len(cx) * by > POWER_WORK:
        raise DomainError(f"{what} needs term products of more than {POWER_WORK} bits in all")
    pairs = bx * by  # bits(c1) * bits(c2) summed over every term pair
    if pairs > FRACTION_WORK:
        # less the pairs of two integers, which multiply with no gcd
        pairs -= _bits(c for c in cx if c.denominator == 1) * _bits(c for c in cy if c.denominator == 1)
        if pairs > FRACTION_WORK:
            raise DomainError(f"{what} needs fractional term products of more than {FRACTION_WORK} bit pairs in all")


def check_sum(x, y, what: str) -> None:
    """DomainError, naming `what`, when the coefficient sums of x + y (two scalars or two `Element`s) that hold a
    fraction would cost more than FRACTION_WORK bit pairs in all: bits(c1) * bits(c2) for each monomial of y that
    x also holds, since adding c1 and c2 runs gcds whose time grows as that product.  Integer sums pay nothing.
    Only y's terms are visited, as `Element._fold` visits them, so a long chain of sums stays linear."""
    left, right = (v.terms if isinstance(v, Element) else {0: v} for v in (x, y))
    pairs = 0
    for mono, c2 in right.items():
        c1 = left.get(mono)
        if c1 is not None and not (type(c1) is int and type(c2) is int):
            pairs += _bits((c1,)) * _bits((c2,))
    if pairs > FRACTION_WORK:
        raise DomainError(f"{what} needs fractional term sums of more than {FRACTION_WORK} bit pairs in all")


def _coefficients(value):
    """The coefficients of an `Element`'s terms, or a scalar as its own one coefficient."""
    return value.terms.values() if isinstance(value, Element) else (value,)


def _bits(coefficients) -> int:
    """The bits the coefficients hold in all: the bit length of max(|numerator|, denominator), summed."""
    return sum(max(abs(c.numerator), c.denominator).bit_length() for c in coefficients)


def scalar_str(value) -> str:
    """Exact scalar rendering: integers plainly, fractions as p/q."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"
    return _int_str(int(value))


def _int_str(value: int) -> str:
    """str(value) at any size; past the int->str digit limit, which stays as it is, through `decimal`.

    The number splits at powers of two, and the parts recombine by exact decimal products and sums,
    which `decimal` makes in sub-quadratic time; a `Decimal` prints its digits in linear time.
    """
    if value < 0:
        return "-" + _int_str(-value)
    try:
        return str(value)
    except ValueError:
        pass
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    powers: dict = {}  # bits -> Decimal(2**bits), each made once

    def convert(v, bits):  # a Decimal equal to v, for 0 <= v < 2**bits
        if bits <= 1024:
            return decimal.Decimal(v)
        half = bits // 2
        high, low = v >> half, v & ((1 << half) - 1)
        if half not in powers:
            powers[half] = context.power(2, half)
        return context.add(context.multiply(convert(high, bits - half), powers[half]), convert(low, half))

    return str(convert(value, value.bit_length()))


def _shown(value, show=repr) -> str:
    """show(value), for a refusal to name a caller's value in one short line, when it has at most 100 characters;
    past that, an int by its digit count and any other value by its type."""
    if type(value) is int:
        text = _int_str(value)
        return text if len(text) <= 100 else f"an int of {len(text.lstrip('-'))} digits"
    try:
        text = show(value)
        if len(text) <= 100:
            return text
    except ValueError:  # the value holds an int past the int->str digit limit
        pass
    return f"a {type(value).__name__} of more than 100 characters"


def int_from_digits(digits: str) -> int:
    """The natural number an ASCII digit string names, at any length: the inverse of `_int_str`."""
    try:
        return int(digits)
    except ValueError:  # past the int<->str digit limit, which stays as it is
        half = len(digits) // 2
        return int_from_digits(digits[:-half]) * 10**half + int_from_digits(digits[-half:])
