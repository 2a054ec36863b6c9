"""Independent oracles for the homology tables and structure constants.

Everything here recomputes expected values by a route different from the
implementation under test:

* Betti tables come from explicit arithmetic-progression degree families,
  never from monomial enumeration.
* Basis monomials come from a brute-force sweep over every exponent vector
  within fixed caps, with the relations applied by hand.
* Monomial degrees come from counting letters (a k-fold loop product of
  classes of degrees d_1..d_k lands in degree d_1+...+d_k - (k-1) n).
* Loop-reversal signs on Pontrjagin powers are iterated one factor at a
  time through the sign law, never taken from a closed formula; on free loop
  monomials they come from counting the letters reversal negates.
* Transfer products are expanded as the literal double sum over group
  elements, never through the transfer map.
"""

from __future__ import annotations

from fractions import Fraction

from loophom import Element, theta_star
from loophom.equivariant import Quotient


# ----------------------------------------------------------------------
# closed-form Betti tables
# ----------------------------------------------------------------------


def loop_betti_closed_form(n: int, ring: str, max_degree: int) -> dict:
    """degree -> (rank, number of Z/2 summands) for the free loop space.

    Built purely from the degree families: writing lam(r) = (2r-1)(n-1),

    n odd:   Z at 0 and n, and Z at each of lam(r), 2r(n-1), 2r(n-1)+1,
             n+2r(n-1) for r >= 1.
    n even:  Z at 0 and n, Z at lam(r) and n+2r(n-1), and a Z/2 at 2r(n-1)
             for r >= 1 (the Z/2 rows vanish over Q).
    """
    free: dict = {0: 1, n: 1}
    torsion: dict = {}

    def add(table: dict, degree: int) -> None:
        if 0 <= degree <= max_degree:
            table[degree] = table.get(degree, 0) + 1

    r = 1
    while (2 * r - 1) * (n - 1) <= max_degree:
        lam = (2 * r - 1) * (n - 1)
        add(free, lam)
        add(free, n + 2 * r * (n - 1))
        if n % 2:
            add(free, 2 * r * (n - 1))
            add(free, 2 * r * (n - 1) + 1)
        elif ring == "Z":
            add(torsion, 2 * r * (n - 1))
        r += 1

    out = {}
    for d in range(max_degree + 1):
        rank = free.get(d, 0) if d <= max_degree else 0
        tors = torsion.get(d, 0)
        if rank or tors:
            out[d] = (rank, tors)
    return out


def quotient_betti_closed_form(n: int, max_degree: int) -> dict:
    """degree -> rank for the quotient by any reflection subgroup, over Q.

    n odd:   Z at 0, n, and at 2r(n-1) and n+2r(n-1) for r >= 1.
    n even:  Z at 0, n, and at lam(r) and n+2r(n-1) for even r >= 2.
    """
    out: dict = {}

    def add(degree: int) -> None:
        if 0 <= degree <= max_degree:
            out[degree] = out.get(degree, 0) + 1

    add(0)
    add(n)
    r = 1
    while (2 * r - 1) * (n - 1) <= max_degree:
        if n % 2:
            add(2 * r * (n - 1))
            add(n + 2 * r * (n - 1))
        elif r % 2 == 0:
            add((2 * r - 1) * (n - 1))
            add(n + 2 * r * (n - 1))
        r += 1
    return out


def omega_betti_closed_form(n: int, max_degree: int) -> dict:
    """degree -> rank for the based loop space: Z at each multiple of n-1."""
    return {d: 1 for d in range(0, max_degree + 1) if d % (n - 1) == 0}


def sphere_betti_closed_form(n: int, max_degree: int) -> dict:
    """degree -> rank for the sphere itself: Z at 0 and n."""
    return {d: 1 for d in (0, n) if d <= max_degree}


# ----------------------------------------------------------------------
# basis monomials by brute force
# ----------------------------------------------------------------------


def brute_force_basis(kind: str, n: int, ring: str, max_degree: int) -> dict:
    """degree -> sorted exponent vectors of the basis monomials in that degree.

    The presentations are written out here by hand, as (letter, homological
    degree, nilpotent) in exponent-vector order:

    loop, n odd:   (A, 0, yes), (U, 2n-1, no)
    loop, n even:  (sigma1, n-1, yes), (A, 0, yes), (Theta, 3n-2, no)
    omega:         (x, n-1, no)
    sphere:        (pt, 0, yes)

    Every vector with nilpotent exponents in 0..2 and the free exponent in
    0..max_degree+2n+2 is listed.  (The empty product sits in degree n or 0,
    a free letter raises the degree by at least 1, and two copies of each
    nilpotent letter lower it by at most 2n+2, so the cap misses nothing.)
    Its degree comes from letter counting; then the
    relations are applied: a nilpotent letter squared is zero, sigma1*A is
    zero, and A*Theta^k (k >= 1) is 2-torsion, kept over Z, zero over Q.
    """
    letters = _letters(kind, n)
    caps = [3 if nil else max_degree + 2 * n + 3 for _name, _deg, nil in letters]

    vectors = [()]
    for cap in caps:
        vectors = [v + (e,) for v in vectors for e in range(cap)]
    out: dict = {}
    for v in vectors:
        word = [deg for (_name, deg, _nil), e in zip(letters, v) for _ in range(e)]
        if kind == "omega":
            degree = pontrjagin_product_degree(word)
        else:
            degree = loop_product_degree(n, word)
        if not 0 <= degree <= max_degree:
            continue
        power = {name: e for (name, _deg, _nil), e in zip(letters, v)}
        if any(power[name] >= 2 for name, _deg, nil in letters if nil):
            continue
        if power.get("sigma1") and power.get("A"):
            continue
        if power.get("A") and power.get("Theta") and ring == "Q":
            continue
        out.setdefault(degree, []).append(v)
    return {d: sorted(vs) for d, vs in out.items()}


def _letters(kind: str, n: int) -> list:
    """(letter, homological degree, nilpotent) in exponent-vector order, as listed in `brute_force_basis`."""
    if kind == "loop" and n % 2:
        return [("A", 0, True), ("U", 2 * n - 1, False)]
    if kind == "loop":
        return [("sigma1", n - 1, True), ("A", 0, True), ("Theta", 3 * n - 2, False)]
    if kind == "omega":
        return [("x", n - 1, False)]
    return [("pt", 0, True)]


def monomial_product_by_hand(kind: str, n: int, ring: str, u: tuple, v: tuple, coeff):
    """(exponent vector, coefficient) of (coeff * u) * v for exponent vectors u, v, or None for 0.

    Exponents add letter by letter (at most one letter has odd degree and it
    is nilpotent, so no sign arises); then the relations of
    `brute_force_basis` are applied: a nilpotent letter squared or
    sigma1*A gives 0, and on A*Theta^k (k >= 1) the coefficient is taken
    mod 2 over Z and the term is 0 over Q.
    """
    letters = _letters(kind, n)
    word = tuple(a + b for a, b in zip(u, v))
    power = {name: e for (name, _deg, _nil), e in zip(letters, word)}
    if any(power[name] >= 2 for name, _deg, nil in letters if nil):
        return None
    if power.get("sigma1") and power.get("A"):
        return None
    if power.get("A") and power.get("Theta"):
        if ring == "Q":
            return None
        coeff %= 2
    return (word, coeff) if coeff else None


# ----------------------------------------------------------------------
# degrees by letter counting
# ----------------------------------------------------------------------


def loop_product_degree(n: int, letter_degrees: list) -> int:
    """Degree of a product of loop classes, counted one factor at a time.

    Each two-fold product drops the degree by n, so k letters of degrees
    d_1..d_k multiply into degree d_1+...+d_k - (k-1) n; the empty product
    is the unit in degree n.
    """
    if not letter_degrees:
        return n
    return sum(letter_degrees) - (len(letter_degrees) - 1) * n


def pontrjagin_product_degree(letter_degrees: list) -> int:
    """Degree of a product of based classes: plain sum, empty product at 0."""
    return sum(letter_degrees)


# ----------------------------------------------------------------------
# reversal signs, one factor at a time
# ----------------------------------------------------------------------


def reversal_sign_iterative(n: int, k: int) -> int:
    """Sign of loop reversal on x^k, iterated through the sign law.

    Reversal negates x and satisfies theta(a * b) =
    (-1)^{|a||b|} theta(a) * theta(b); peeling one x factor off x^k gives
    the recursion sign(k) = (-1)^{(k-1)(n-1)^2} * sign(k-1) * (-1).
    """
    sign = 1
    for j in range(1, k + 1):
        crossing = (j - 1) * (n - 1) * (n - 1)
        sign *= -1 if crossing % 2 else 1
        sign *= -1
    return sign


def reversal_sign_by_letters(kind: str, n: int, word: tuple) -> int:
    """Sign of loop reversal on the basis monomial with exponent vector `word`, counted letter by letter.

    On the free loop space reversal fixes A and negates every other letter
    of `_letters` (U for n odd; sigma1 and Theta for n even), so the sign is
    -1 to the number of negated letters in the word.  On the based loop
    space it is `reversal_sign_iterative` of x's exponent.
    """
    if kind == "omega":
        return reversal_sign_iterative(n, word[0])
    negated = sum(e for (name, _deg, _nil), e in zip(_letters(kind, n), word) if name != "A")
    return -1 if negated % 2 else 1


# ----------------------------------------------------------------------
# transfer products by explicit double sums
# ----------------------------------------------------------------------


def transfer_product_representative(q: Quotient, x: Element, y: Element) -> Element:
    """Representative of P_G(q x, q y), expanded literally.

    tr(q z) = sum over g of g z, so P_G(q x, q y) represents the invariant
    projection of sum over (g, h) of (g x) * (h y).  The group action is
    rebuilt here from scratch via `theta_star`: of the |G| elements, the m
    rotations act as the identity and the m reflections (if any) by loop
    reversal.  For rotation-only groups the invariant projection is the
    identity.
    """
    reverse = theta_star(q.space)
    rotations = q.group.order // 2 if q.group.reflections else q.group.order
    factors = ["id"] * rotations + ["reversal"] * (q.group.order - rotations)

    def act(factor: str, elt: Element) -> Element:
        return reverse(elt) if factor == "reversal" else elt

    total = q.space.zero()
    for g in factors:
        for h in factors:
            total = total + act(g, x) * act(h, y)
    if not q.group.reflections:
        return total
    return (total + reverse(total)) * Fraction(1, 2)


# ----------------------------------------------------------------------
# printed integers, read back in short chunks
# ----------------------------------------------------------------------


def decimal_value(text: str) -> int:
    """The integer a decimal digit string names, read 100 digits at a time.

    Short chunks stay far below Python's int<->str digit limit, so long
    printed coefficients can be checked without changing that limit.
    """
    value = 0
    for i in range(0, len(text), 100):
        chunk = text[i : i + 100]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


# ----------------------------------------------------------------------
# torsion by repeated addition
# ----------------------------------------------------------------------


def is_two_torsion(elt: Element) -> bool:
    """True when elt is nonzero but elt + elt is zero, using only addition."""
    return bool(elt) and not (elt + elt)
