"""The graded algebras attached to a sphere S^n.

A space is its homology algebra: `loop_space`, `based_loop_space` and
`sphere_space` each return one `Space`, an `Algebra` that also knows its
`kind`, its `n`, its `named` classes and its reversal mask `flips`.  Its
unit is `space.unit()`, and `betti` and `table` list its graded pieces, or a
quotient's, row by row.

Three spaces, three products:

* ``loop``   — homology of the free loop space with the Chas-Sullivan loop
  product (degree shift n; no Koszul sign arises, since A for n odd and
  sigma1 for n even is the only generator of odd shifted degree).
* ``omega``  — homology of the based loop space with the Pontrjagin product
  (no shift; a genuine polynomial ring Z[x], |x| = n-1).
* ``sphere`` — homology of S^n itself with the intersection product (shift n;
  point class squares to zero, fundamental class is the unit).

Presentations, with shifted degrees in brackets:

n odd  (n >= 3):  exterior(A[-n]) (x) poly(U[n-1]),            unit E
n even (n >= 2):  ( exterior(sigma1[-1]) (x) poly(A[-n], Theta[2n-2]) )
                  modulo  A^2 = 0,  sigma1*A = 0,  2*A*Theta = 0,   unit E

Over Q the 2-torsion monomials A*Theta^k (k >= 1) vanish; over Z they carry
the Z/2 summands in degrees 2r(n-1).  The unshifted degrees: A at 0, sigma1
at n-1, E at n, U at 2n-1, Theta at 3n-2.

`make_space` builds each space once from its kind's presentation: the
generators, named letters, rules, shift and unit name above, and the mask
`flips` of loop reversal, which multiplies a basis monomial m by
(-1)^popcount(m & flips).  On the loop algebras flips holds the letters
reversal negates: U (0b10) for n odd, sigma1 and Theta (0b101) for n even.
On the based algebra, where the monomial k is x^k, reversal also reverses
the order of the k factors: the letterwise (-1)^k gains the Koszul sign
(-1)^{k(k-1)/2} when x has odd degree.  So flips is 1 for n odd, and 0b11
for n even, where the net exponent k(k+1)/2 is odd exactly when
popcount(k & 3) is.  The sphere's flips is None.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (
    RING_Q,
    RING_Z,
    Algebra,
    DomainError,
    Element,
    Generator,
    _shown,
)

LOOP = "loop"
OMEGA = "omega"
SPHERE = "sphere"

#: largest `max_degree` of a table; loop n=3 takes about 2 s there
MAX_TABLE_DEGREE = 100_000
#: most decimal digits of n: labels, reports and messages print n and small multiples of it, and Python
#: converts no int of more than 4300 digits to a string
MAX_N_DIGITS = 4000


class Space(Algebra):
    """The algebra of one space of S^n, plus its `kind`, `n`, cast of `named` classes and reversal mask `flips`.

    `symbol` names the space in the label, `letters` maps each name to the
    exponent vector of its monomial, and the unit is named too unless its
    name is a number; the rest of the keyword arguments are `Algebra`'s.
    `make_space` builds every space.
    """

    def __init__(self, kind: str, n: int, ring: str, symbol: str, letters: dict, flips, **algebra):
        super().__init__(label=f"H({symbol}^{n};{ring})", ring=ring, **algebra)
        self.kind = kind
        self.n = n
        self.flips = flips
        self.named = {name: self.monomial_element(self.monomial(exps)) for name, exps in letters.items()}
        if self.unit_name.isidentifier():  # the based unit 1 reads as the scalar 1
            self.named[self.unit_name] = self.unit()

    def generator(self, name: str) -> Element:
        try:
            return self.named[name]
        except KeyError:
            raise DomainError(
                f"{self.kind} space of S^{self.n} has no class named {name!r} "
                f"(available: {', '.join(sorted(self.named))})"
            ) from None

    def family_of(self, mono: int):
        """Closed-form family tag of a basis monomial, or None.

        Tags name the degree families lambda_r = (2r-1)(n-1) and their three
        shifts; the classes at degrees 0 and n (and everything on the based
        and sphere spaces) are untagged.
        """
        if self.kind != LOOP:
            return None
        if self.n % 2:
            a, k = self.exponents(mono)
            if k == 0:
                return None
            if a == 1:
                return f"lambda_{(k + 1) // 2}" if k % 2 else f"n-1+lambda_{k // 2}"
            return f"n+lambda_{(k + 1) // 2}" if k % 2 else f"2n-1+lambda_{k // 2}"
        s, a, k = self.exponents(mono)
        if s == 1:
            return f"lambda_{k + 1}"
        if k == 0:
            return None
        return f"n-1+lambda_{k}" if a else f"2n-1+lambda_{k}"

    def betti(self, max_degree: int) -> "BettiTable":
        """Ranks and torsion in degrees 0..max_degree, nonzero rows only."""
        return self.table(max_degree, self)

    def table(self, max_degree: int, alg: Algebra) -> "BettiTable":
        """The rows of `alg`, this space or one of its quotients, in degrees <= max_degree.

        A row lists the free and then the torsion monomials of `alg.graded_piece`,
        printed by `alg.monomial_str`, and carries their common family tag, if
        any; a quotient's table carries its group's label.
        """
        if type(max_degree) is not int:
            raise DomainError(f"max_degree must be an int, got {_shown(max_degree)}")
        if not 0 <= max_degree <= MAX_TABLE_DEGREE:
            raise DomainError(f"max_degree must be in 0..{MAX_TABLE_DEGREE}, got {_shown(max_degree)}")
        rows = []
        for d in range(max_degree + 1):
            free, torsion = alg.graded_piece(d)
            if not free and not torsion:
                continue
            families = {self.family_of(m) for m in free + torsion}
            family = families.pop() if len(families) == 1 else None
            gens = tuple(map(alg.monomial_str, free + torsion))
            rows.append(TableRow(d, len(free), (2,) * len(torsion), gens, family))
        group = None if alg is self else alg.group.label
        return BettiTable(self.kind, self.n, self.ring, group, max_degree, tuple(rows))

    def __repr__(self):
        return f"Space({self.kind}, n={self.n}, ring={self.ring})"


#: one nonzero degree of a table; `family` is a str or None
TableRow = namedtuple("TableRow", "degree rank torsion generators family")


class BettiTable(namedtuple("BettiTable", "space n ring group max_degree rows")):
    """The nonzero `rows` of a space's (or, with a `group` label, a quotient's) table up to `max_degree`."""

    __slots__ = ()

    def _row(self, degree: int) -> TableRow:
        """The row of `degree`, or an empty row when the table has none there."""
        return next((row for row in self.rows if row.degree == degree), TableRow(degree, 0, (), (), None))

    def rank(self, degree: int) -> int:
        return self._row(degree).rank

    def torsion(self, degree: int) -> tuple:
        return self._row(degree).torsion


def _check_digits(n: int) -> None:
    if type(n) is not int:  # a float or bool equal to an int n would build a space labelled with it
        raise DomainError(f"n must be an int, got {_shown(n)}")
    # 10**MAX_N_DIGITS has more than 3 * MAX_N_DIGITS bits, so only a longer n needs it built (about 40 us)
    if n.bit_length() > 3 * MAX_N_DIGITS and abs(n) >= 10**MAX_N_DIGITS:
        raise DomainError(f"n must have at most {MAX_N_DIGITS} digits")


def _presentation(kind: str, n: int) -> dict:
    """`Space`'s arguments but the ring for the space of this kind of S^n; see the module docstring."""
    if kind == SPHERE:
        return dict(symbol="S", generators=(Generator("pt", -n, nilpotent=True),), shift=n, unit_name="fundamental",
                    letters={"pt": (1,)}, flips=None)
    if kind == OMEGA:
        return dict(symbol="OS", generators=(Generator("x", n - 1),), shift=0, letters={"x": (1,)},
                    flips=1 if n % 2 else 0b11)
    if n % 2:
        gens = Generator("A", -n, nilpotent=True), Generator("U", n - 1)
        return dict(symbol="LS", generators=gens, shift=n, unit_name="E", flips=0b10,
                    letters={"A": (1, 0), "U": (0, 1), "sigma1": (1, 1), "Theta": (0, 2)})
    # a monomial is Theta's exponent << 2 | A's bit << 1 | sigma1's bit; the rules are sigma1*A = 0 and 2*A*Theta = 0
    gens = Generator("sigma1", -1, nilpotent=True), Generator("A", -n, nilpotent=True), Generator("Theta", 2 * n - 2)
    return dict(symbol="LS", generators=gens, shift=n, unit_name="E", flips=0b101, extra_zero_rules=(0b011,),
                torsion_rules=(0b110,), letters={"A": (0, 1, 0), "sigma1": (1, 0, 0), "Theta": (0, 0, 1)})


_spaces: dict = {}  # (kind, n, ring) -> the one Space `make_space` built


def make_space(kind: str, n: int, ring: str) -> Space:
    """The space of this kind of S^n over the ring, built once from its presentation.  The cache keys on the
    arguments once they are checked: the ring and kind by equality, so none is hashed, and n by type."""
    if ring not in (RING_Q, RING_Z):
        raise DomainError(f"unknown ring {_shown(ring)} (use Q or Z)")
    if kind not in (LOOP, OMEGA, SPHERE):
        raise DomainError(f"unknown space kind {_shown(kind)} (use loop, omega, sphere)")
    _check_digits(n)
    least = 3 if kind == LOOP and n % 2 else 2
    if n < least:
        parity = ("odd " if n % 2 else "even ") if kind == LOOP else ""
        raise DomainError(f"{parity}n must be >= {least}, got {_shown(n)}")
    key = kind, n, ring
    if key not in _spaces:
        _spaces[key] = Space(kind, n, ring, **_presentation(kind, n))
    return _spaces[key]


def loop_space(n: int, ring: str) -> Space:
    """Free loop space homology of S^n with the loop product."""
    return make_space(LOOP, n, ring)


def based_loop_space(n: int, ring: str) -> Space:
    """Based loop space homology of S^n: the Pontrjagin ring Z[x], |x|=n-1."""
    return make_space(OMEGA, n, ring)


def sphere_space(n: int, ring: str) -> Space:
    """Homology of S^n with the intersection product."""
    return make_space(SPHERE, n, ring)
