"""The graded algebras attached to a sphere S^n.

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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (
    RING_Q,
    RING_Z,
    Algebra,
    DomainError,
    Element,
    Generator,
)

LOOP = "loop"
OMEGA = "omega"
SPHERE = "sphere"

#: largest `max_degree` of a table; loop n=3 takes about 2 s there
MAX_TABLE_DEGREE = 100_000


class Space:
    """An algebra plus its cast of named homology classes."""

    def __init__(self, kind, n, ring, algebra, named):
        self.kind = kind
        self.n = n
        self.ring = ring
        self.algebra = algebra
        self.named = named

    def generator(self, name: str) -> Element:
        try:
            return self.named[name]
        except KeyError:
            raise DomainError(
                f"{self.kind} space of S^{self.n} has no class named {name!r} "
                f"(available: {', '.join(sorted(self.named))})"
            ) from None

    @property
    def unit(self) -> Element:
        return self.algebra.unit()

    def family_of(self, mono: int):
        """Closed-form family tag of a basis monomial, or None.

        Tags name the degree families lambda_r = (2r-1)(n-1) and their three
        shifts; the classes at degrees 0 and n (and everything on the based
        and sphere spaces) are untagged.
        """
        if self.kind != LOOP:
            return None
        if self.n % 2:
            a, k = self.algebra.exponents(mono)
            if k == 0:
                return None
            if a == 1:
                return f"lambda_{(k + 1) // 2}" if k % 2 else f"n-1+lambda_{k // 2}"
            return f"n+lambda_{(k + 1) // 2}" if k % 2 else f"2n-1+lambda_{k // 2}"
        s, a, k = self.algebra.exponents(mono)
        if s == 1:
            return f"lambda_{k + 1}"
        if k == 0:
            return None
        return f"n-1+lambda_{k}" if a else f"2n-1+lambda_{k}"

    def betti(self, max_degree: int) -> "BettiTable":
        """Ranks and torsion in degrees 0..max_degree, nonzero rows only."""
        return self.table(max_degree, self.algebra.graded_piece, None, self.algebra.monomial_str)

    def table(self, max_degree: int, piece, group, name) -> "BettiTable":
        """The rows of piece(d) = (free, torsion) basis monomials for d <= max_degree.

        Each row lists its monomials as name(monomial) and carries their
        common family tag, if any; `group` labels a quotient's table.
        """
        if not 0 <= max_degree <= MAX_TABLE_DEGREE:
            raise DomainError(f"max_degree must be in 0..{MAX_TABLE_DEGREE}, got {max_degree}")
        rows = []
        for d in range(max_degree + 1):
            free, torsion = piece(d)
            if not free and not torsion:
                continue
            families = {self.family_of(m) for m in free + torsion}
            family = families.pop() if len(families) == 1 else None
            gens = tuple(name(m) for m in free + torsion)
            rows.append(TableRow(d, len(free), (2,) * len(torsion), gens, family))
        return BettiTable(self.kind, self.n, self.ring, group, max_degree, tuple(rows))

    def __repr__(self):
        return f"Space({self.kind}, n={self.n}, ring={self.ring})"


@dataclass(frozen=True)
class TableRow:
    degree: int
    rank: int
    torsion: tuple
    generators: tuple
    family: object  # str | None


@dataclass(frozen=True)
class BettiTable:
    space: str
    n: int
    ring: str
    group: object  # str | None
    max_degree: int
    rows: tuple

    def rank(self, degree: int) -> int:
        for row in self.rows:
            if row.degree == degree:
                return row.rank
        return 0

    def torsion(self, degree: int) -> tuple:
        for row in self.rows:
            if row.degree == degree:
                return row.torsion
        return ()


@functools.lru_cache(maxsize=None)
def loop_space(n: int, ring: str) -> Space:
    """Free loop space homology of S^n with the loop product."""
    if n % 2:
        if n < 3:
            raise DomainError(f"odd n must be >= 3, got {n}")
        gens = (
            Generator("A", shifted=-n, nilpotent=True, theta_sign=1),
            Generator("U", shifted=n - 1, theta_sign=-1),
        )
        alg = Algebra(
            label=f"H(LS^{n};{ring})",
            ring=ring,
            generators=gens,
            shift=n,
            unit_name="E",
        )
        letters = {"A": (1, 0), "U": (0, 1), "sigma1": (1, 1), "Theta": (0, 2)}
    else:
        if n < 2:
            raise DomainError(f"even n must be >= 2, got {n}")
        gens = (
            Generator("sigma1", shifted=-1, nilpotent=True, theta_sign=-1),
            Generator("A", shifted=-n, nilpotent=True, theta_sign=1),
            Generator("Theta", shifted=2 * n - 2, theta_sign=-1),
        )
        alg = Algebra(
            label=f"H(LS^{n};{ring})",
            ring=ring,
            generators=gens,
            shift=n,
            unit_name="E",
            # a monomial is Theta's exponent << 2 | A's bit << 1 | sigma1's bit
            extra_zero_rules=(0b011,),  # sigma1*A = 0
            torsion_rules=(0b110,),  # 2*A*Theta = 0
        )
        letters = {"A": (0, 1, 0), "sigma1": (1, 0, 0), "Theta": (0, 0, 1)}
    named = {name: alg.monomial_element(alg.monomial(exps)) for name, exps in letters.items()}
    named["E"] = alg.unit()
    return Space(LOOP, n, ring, alg, named)


@functools.lru_cache(maxsize=None)
def based_loop_space(n: int, ring: str) -> Space:
    """Based loop space homology of S^n: the Pontrjagin ring Z[x], |x|=n-1."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    gens = (Generator("x", shifted=n - 1, theta_sign=-1),)
    alg = Algebra(
        label=f"H(OS^{n};{ring})",
        ring=ring,
        generators=gens,
        shift=0,
        unit_name="1",
    )
    named = {"x": alg.monomial_element(1)}
    return Space(OMEGA, n, ring, alg, named)


@functools.lru_cache(maxsize=None)
def sphere_space(n: int, ring: str) -> Space:
    """Homology of S^n with the intersection product."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    gens = (Generator("pt", shifted=-n, nilpotent=True, theta_sign=1),)
    alg = Algebra(
        label=f"H(S^{n};{ring})",
        ring=ring,
        generators=gens,
        shift=n,
        unit_name="fundamental",
    )
    named = {
        "pt": alg.monomial_element(1),
        "fundamental": alg.unit(),
    }
    return Space(SPHERE, n, ring, alg, named)


def make_space(kind: str, n: int, ring: str) -> Space:
    if ring not in (RING_Q, RING_Z):
        raise DomainError(f"unknown ring {ring!r} (use Q or Z)")
    if kind == LOOP:
        return loop_space(n, ring)
    if kind == OMEGA:
        return based_loop_space(n, ring)
    if kind == SPHERE:
        return sphere_space(n, ring)
    raise DomainError(f"unknown space kind {kind!r} (use loop, omega, sphere)")
