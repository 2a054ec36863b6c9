"""Mechanical verification suites for every identity the package models.

Each suite checks one cluster of identities by exhaustive enumeration of
basis classes up to a degree bound, with exact arithmetic throughout.  A
suite returns `Check` records — one per identity and context, judged by
`_check`, with the first counterexample on failure and the cases examined
(`Check.cases`) — and `run` makes them a `Report` of stable, printable lines
and an overall verdict, in which a suite that raises is one failed check.

Default bounds: the `transfer` and `main-theorem` suites run to degree 100
(`SWEEP_BOUND`) and every other suite to degree 60 (`PRODUCT_BOUND`), the
*Theta bijection sweep of `presentation` included; powers of nonnilpotent
classes up to 25, reversal signs on Pontrjagin powers up to 40.  `run`
resolves the degree and power bounds; each suite takes them as given.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat

from .core import DomainError, Element, RING_Q, RING_Z, _shown
from .equivariant import (
    QElement,
    a_product,
    cyclic,
    dihedral,
    eta_class,
    mu_class,
    quotient,
    theta_group,
)
from .maps import (
    chi_star,
    ev_star,
    j_shriek,
    j_star,
    reversal_power_sign,
    theta_star,
)
from .spaces import _check_digits, based_loop_space, loop_space, sphere_space

DEFAULT_NS = (3, 4, 5, 6)
PRODUCT_BOUND = 60
SWEEP_BOUND = 100
POWER_BOUND = 25
REVERSAL_POWER_BOUND = 40
TORSION_POWER_BOUND = 20
#: most distinct n one `run` accepts; every suite runs once per n
MAX_NS = 16


class Check(namedtuple("Check", "label passed detail cases", defaults=("", 0))):
    """One identity in one context; `detail` names the first counterexample, `cases` counts the cases examined.

    A check that passed over no case shows nothing, and is marked `none`, not `ok`.
    """

    __slots__ = ()

    def line(self) -> str:
        mark = ("ok  " if self.cases else "none") if self.passed else "FAIL"
        out = f"[{mark}] {self.label}"
        if not self.passed and self.detail:
            out += f"  -- {self.detail}"
        return out


class Report(namedtuple("Report", "title checks")):
    """The checks of one `run`, under a title."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [self.title]
        lines += [c.line() for c in self.checks]
        good = sum(1 for c in self.checks if c.passed and c.cases)
        vacant = sum(1 for c in self.checks if c.passed) - good
        lines.append(f"{good}/{len(self.checks)} checks passed" + (f", {vacant} examined no case" if vacant else ""))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# small exact linear algebra
# ----------------------------------------------------------------------


def rank_of(elements, monomials) -> int:
    """Rank of the span of `elements` against an ordered monomial basis."""
    cols = list(monomials)
    rows = [[Fraction(e.coefficient(m)) for m in cols] for e in elements]
    rank = 0
    for col in range(len(cols)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ----------------------------------------------------------------------
# the search: cases, the first counterexample, and the check it becomes
# ----------------------------------------------------------------------


def _check(label: str, cases, fails) -> Check:
    """Check `label` over `cases`: the first truthy fails(*case) is its detail ("" for True); `cases` counts to it."""
    count = 0
    for count, case in enumerate(cases, 1):
        detail = fails(*case)
        if detail:
            return Check(label, False, "" if detail is True else detail, count)
    return Check(label, True, "", count)


def _graded(alg, bound: int) -> list:
    """[(degree, x)] for the basis elements x of an `Algebra` (a `Quotient` too) of degrees <= bound."""
    return [(d, alg.monomial_element(m)) for d in range(bound + 1) for m in alg.basis(d)]


def _pairs(items, bound: int, others=None):
    """ix + iy for ix in items, iy in others (default items), with degrees ix[0] + iy[0] <= bound.

    An item is (degree, class) or (degree, class, images of the class...), so a pair of plain items
    is (dx, x, dy, y), and an image made once per class rides along to every pair.  Both lists are
    sorted by degree, so each scan over iy stops at the bound.
    """
    for ix in items:
        dx = ix[0]
        for iy in items if others is None else others:
            if dx + iy[0] > bound:
                break
            yield ix + iy


def _triples(items, bound: int):
    """ix + iy + iz for items whose degrees sum to <= bound, in `_pairs` order and then iz's."""
    for ix in items:
        for iy in items:
            if ix[0] + iy[0] > bound:
                break
            for iz in items:
                if ix[0] + iy[0] + iz[0] > bound:
                    break
                yield ix + iy + iz


def _table(items, bound: int, product):
    """(items with their indices, {(i, j): product(x_i, x_j)}) for (degree, class) items and the pairs whose
    degrees sum to <= bound: each pair product is formed once, in `_pairs` order, for every check that reads it."""
    indexed = [(d, x, i) for i, (d, x) in enumerate(items)]
    return indexed, {(i, j): product(x, y) for dx, x, i, dy, y, j in _pairs(indexed, bound)}


def _associativity(items, table, bound: int, product):
    """(u, v, w, (u*v)*w, u*(v*w)) over `_triples(items, bound)`, in its order, for `_table`'s items and table,
    which holds v*w too, since d_v + d_w <= bound on every triple.  Each outer product is formed once per distinct
    pair of factors: equal table entries share one key, and each side keeps its products by (key, index)."""
    keys = {}  # each distinct table entry, by value -> its key
    key = {ij: keys.setdefault(p, len(keys)) for ij, p in table.items()}
    left, right = {}, {}  # (key of u*v, index of w) -> (u*v)*w and (index of u, key of v*w) -> u*(v*w)
    for du, u, i, dv, v, j, dw, w, k in _triples(items, bound):
        lk, rk = (key[i, j], k), (i, key[j, k])
        if lk not in left:
            left[lk] = product(table[i, j], w)
        if rk not in right:
            right[rk] = product(u, table[j, k])
        yield u, v, w, left[lk], right[rk]


def _powers(x, k_max: int):
    """(k, x^k) for k = 0..k_max, from the unit of x's algebra, each power one product after the last."""
    return enumerate(accumulate(repeat(x, k_max), operator.mul, initial=x.algebra.unit()))


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------


def suite_algebra(n, rings, D, K):
    """Ring axioms of the products: associativity, commutation, unit, torsion."""
    checks = []
    for ring in rings:
        for space in (loop_space(n, ring), based_loop_space(n, ring), sphere_space(n, ring)):
            tag = space.label
            ms = _graded(space, D)
            unit = space.unit()
            checks.append(_check(f"{tag}: unit is two-sided on degrees <= {D}", ms,
                                 lambda d, u: (u * unit != u or unit * u != u) and f"u={u}"))
            items, uv = _table(ms, D, operator.mul)
            if space.kind == "omega":
                # genuinely commutative polynomial ring
                checks.append(_check(f"{tag}: commutativity on basis pairs, total degree <= {D}", _pairs(items, D),
                                     lambda du, u, i, dv, v, j: uv[i, j] != uv[j, i] and f"u={u}, v={v}"))
            else:
                checks.append(_check(
                    f"{tag}: v*u = (-1)^((deg u - n)(deg v - n)) u*v, total degree <= {D}", _pairs(items, D),
                    lambda du, u, i, dv, v, j: uv[j, i] != _sign((du - n) * (dv - n)) * uv[i, j]
                    and f"u={u}, v={v}"))
            checks.append(_check(
                f"{tag}: (u*v)*w = u*(v*w) on basis triples, total degree <= {D}",
                _associativity(items, uv, D, operator.mul),
                lambda u, v, w, uv_w, u_vw: uv_w != u_vw and f"u={u}, v={v}, w={w}"))

    # torsion lives exactly in degrees 2r(n-1), and only over Z, n even
    if RING_Z in rings:
        loop = loop_space(n, RING_Z)
        found = {d for d in range(D + 1) if loop.graded_piece(d)[1]}
        expected = set(range(2 * (n - 1), D + 1, 2 * (n - 1))) if n % 2 == 0 else set()
        checks.append(_check(f"{loop.label}: torsion exactly in degrees 2r(n-1) up to {D}", [(found, expected)],
                             lambda f, e: f != e and f"found {sorted(f)}, expected {sorted(e)}"))
    return checks


def suite_presentation(n, rings, D, K):
    """Generators generate, *Theta stability, nonnilpotence, torsion facts."""
    checks = []
    for ring in rings:
        space = loop_space(n, ring)
        tag = space.label

        # every basis class is the stated product of named generators, one
        # named class per slot of the exponent vector
        gens = [space.generator(g) for g in (("A", "U") if n % 2 else ("sigma1", "A", "Theta"))]

        def rebuild_fails(m):
            built = reduce(operator.mul, (g**e for g, e in zip(gens, space.exponents(m))))
            return built != space.monomial_element(m) and f"monomial {space.monomial_str(m)} rebuilt as {built}"

        names = "A,U" if n % 2 else "A,sigma1,Theta"
        checks.append(_check(f"{tag}: every basis class <= {D} is a product of {names}",
                             ((m,) for d in range(D + 1) for m in space.basis(d)), rebuild_fails))

        # multiplication by Theta: H_k -> H_{k+2n-2} bijective for 0<k<=D,
        # except (n odd, k=1) where H_1 = 0 yet H_{2n-1} = <U>
        theta = space.generator("Theta")

        def words(monos):
            return [space.monomial_str(m) for m in monos]

        def bijection_fails(k, src, dst):
            if n % 2 and k == 1:
                sharp = src == [] and len(dst) == 1
                return not sharp and f"k=1 sharpness: H_1 basis {words(src)}, H_{2*n-1} basis {words(dst)}"
            images = [space.monomial_element(m) * theta for m in src]
            if any(not img for img in images):
                return f"k={k}: *Theta kills a basis class"
            for img in images:
                if len(img.terms) != 1:
                    return f"k={k}: image not monomial: {img}"
                if next(iter(img.terms.values())) not in (1, -1):
                    return f"k={k}: non-unimodular image {img}"
            hit = {next(iter(img.terms)) for img in images}
            return hit != set(dst) and f"k={k}: images {words(sorted(hit))} vs basis {words(dst)}"

        checks.append(_check(
            f"{tag}: *Theta is a bijection H_k -> H_(k+2n-2) for 0<k<={D} (k=1 sharp for n odd)",
            ((k, space.basis(k), space.basis(k + 2 * n - 2)) for k in range(1, D + 1)), bijection_fails))

        # nonnilpotence
        checks.append(_check(f"{tag}: Theta^k != 0 for k <= {K}", islice(_powers(theta, K), 1, None),
                             lambda k, power: not power and f"Theta^{k} = 0"))

        if n % 2 == 0:
            a_cls = space.generator("A")
            cases = ((k, a_cls * theta**k) for k in range(1, TORSION_POWER_BOUND + 1))
            if ring == RING_Q:
                checks.append(_check(f"{tag}: A*Theta^k = 0 for 1<=k<={TORSION_POWER_BOUND}", cases,
                                     lambda k, cls: bool(cls) and f"A*Theta^{k} = {cls} != 0 over Q"))
            else:
                checks.append(_check(
                    f"{tag}: A*Theta^k != 0 and 2*(A*Theta^k) = 0 for 1<=k<={TORSION_POWER_BOUND}", cases,
                    lambda k, cls: f"A*Theta^{k} = 0 over Z" if not cls
                    else bool(2 * cls) and f"2*(A*Theta^{k}) = {2 * cls} != 0"))
    return checks


def suite_maps(n, rings, D, K):
    """Loop reversal, chi, basepoint evaluation."""
    checks = []
    for ring in rings:
        loop = loop_space(n, ring)
        omega = based_loop_space(n, ring)
        th = theta_star(loop)
        tho = theta_star(omega)
        ev = ev_star(n, ring)
        sphere = sphere_space(n, ring)

        for space, mp in ((loop, th), (omega, tho)):
            checks.append(_check(f"{space.label}: theta(theta(u)) = u on degrees <= {D}", _graded(space, D),
                                 lambda d, u: mp(mp(u)) != u and f"u={u}"))

        ms = _graded(loop, D)
        images = [(d, u, th(u), ev(u)) for d, u in ms]  # each class with its theta and ev images
        # each pair with u*v, formed once for the two checks that read it
        uvs = [(u, th_u, ev_u, v, th_v, ev_v, u * v) for du, u, th_u, ev_u, dv, v, th_v, ev_v in _pairs(images, D)]
        checks.append(_check(f"{loop.label}: theta(u*v) = theta(u)*theta(v), total degree <= {D}", uvs,
                             lambda u, th_u, ev_u, v, th_v, ev_v, uv: th(uv) != th_u * th_v and f"u={u}, v={v}"))

        theta_cls = loop.generator("Theta")
        want = theta_cls if (n - 1) % 2 == 0 else -theta_cls
        checks.append(_check(f"{loop.label}: theta(Theta) = (-1)^(n-1)*Theta", [(th(theta_cls),)],
                             lambda got: got != want and f"got {got}"))
        checks.append(_check(f"{loop.label}: theta fixes A and E", [("A",), ("E",)],
                             lambda name: th(loop.generator(name)) != loop.generator(name)))

        chi = chi_star(loop)
        checks.append(_check(f"{loop.label}: chi = identity on degrees <= {D}", ms,
                             lambda d, u: chi(u) != u and f"u={u}"))

        # Pontrjagin sign law and the power-sign case split
        kmax = max(REVERSAL_POWER_BOUND, D // max(1, n - 1))
        powers = [(k, power, tho(power)) for k, power in _powers(omega.generator("x"), kmax)]
        checks.append(_check(
            f"{omega.label}: (-1)^(|a||b|) theta(a)*theta(b) = theta(a*b), powers <= {kmax}", _pairs(powers, kmax),
            lambda i, a, ta, j, b, tb: _sign(i * (n - 1) * j * (n - 1)) * (ta * tb) != tho(a * b)
            and f"a=x^{i}, b=x^{j}"))

        def sign_fails(k, power, image):
            expected = _sign(k) if n % 2 or ((k - 1) * k) % 4 == 0 else -_sign(k)
            if image != expected * power:
                return f"k={k}: theta(x^{k}) = {image}, expected sign {expected}"
            return reversal_power_sign(n, k) != expected and f"k={k}: closed-form sign disagrees with case split"

        checks.append(_check(
            f"{omega.label}: theta(x^k) sign matches the parity case split, k <= {REVERSAL_POWER_BOUND}",
            powers[: REVERSAL_POWER_BOUND + 1], sign_fails))

        # evaluation at the basepoint is an algebra map
        checks.append(_check(f"{loop.label}: ev(u*v) = ev(u).ev(v), total degree <= {D}", uvs,
                             lambda u, th_u, ev_u, v, th_v, ev_v, uv: ev(uv) != ev_u * ev_v and f"u={u}, v={v}"))
        checks.append(_check(f"{loop.label}: ev(A) = pt, ev(E) = fundamental", [("A", "pt"), ("E", "fundamental")],
                             lambda u, image: ev(loop.generator(u)) != sphere.generator(image)))
    return checks


def suite_gysin(n, rings, D, K):
    """The three compatibility identities for j_! and j_*."""
    checks = []
    for ring in rings:
        loop = loop_space(n, ring)
        omega = based_loop_space(n, ring)
        jb = j_shriek(n, ring)
        js = j_star(n, ring)
        tag = f"S^{n}({ring})"
        lms = [(d, a, jb(a)) for d, a in _graded(loop, D)]  # each loop class with its j! image
        oms = [(d, y, js(y)) for d, y in _graded(omega, D)]  # each based class with its j* image
        a_cls = loop.generator("A")
        checks += [
            _check(f"{tag}: j!(u*v) = j!(u).j!(v), total degree <= {D}", _pairs(lms, D),
                   lambda du, u, ju, dv, v, jv: jb(u * v) != ju * jv and f"u={u}, v={v}"),
            _check(f"{tag}: j*(y)*a = j*(y.j!(a)), total degree <= {D}", _pairs(oms, D, lms),
                   lambda dy, y, jy, da, a, ja: jy * a != js(y * ja) and f"y={y}, a={a}"),
            _check(f"{tag}: j*(j!(a)) = A*a on degrees <= {D}", lms,
                   lambda da, a, ja: js(ja) != a_cls * a and f"a={a}"),
        ]

        x = omega.generator("x")
        spots = [(jb, loop.unit(), omega.unit()), (js, omega.unit(), a_cls), (jb, loop.generator("Theta"), x * x)]
        if n % 2:
            spots.append((jb, loop.generator("U"), x))
        checks.append(_check(f"{tag}: j!(E)=1, j!(Theta)=x^2" + (", j!(U)=x" if n % 2 else "") + ", j*(1)=A", spots,
                             lambda mp, u, image: mp(u) != image))
    return checks


TRANSFER_GROUPS = (*(dihedral(m) for m in range(1, 6)), theta_group(), *(cyclic(m) for m in range(2, 8)))


def suite_transfer(n, rings, D, K):
    """The transfer axioms and the quotient/covering product comparison."""
    checks = []
    loop = loop_space(n, RING_Q)
    zs = _graded(loop, D)
    for group in TRANSFER_GROUPS:
        q = quotient(loop, group)
        order = group.order
        scale = Fraction(1, order**2)
        tag = f"LS^{n}/{group.label}"
        qms = [(d, a, a.rep, q.transfer(a)) for d, a in _graded(q, D)]  # each class with its rep and tr
        # each pair with tr(a)*tr(b), formed once for the two checks that read it
        trs = [(a, x, b, y, ta * tb) for da, a, x, ta, db, b, y, tb in _pairs(qms, D)]
        checks += [
            _check(f"{tag}: q(tr(a)) = |G|*a on degrees <= {D}", qms,
                   lambda d, a, z, ta: q.project(ta) != order * a and f"a={a}"),
            _check(f"{tag}: tr(q(z)) = sum_g g(z) on degrees <= {D}", zs,
                   lambda d, z: q.transfer(q.project(z)) != q.action_sum(z) and f"z={z}"),
            _check(f"{tag}: q is injective on invariants (projection fixes them), degrees <= {D}", qms,
                   lambda d, a, z, ta: q.project(z) != a and f"z={z}"),
            _check(f"{tag}: tr(P(a,b)) = |G|*tr(a)*tr(b), total degree <= {D}", trs,
                   lambda a, x, b, y, ta_tb: q.transfer(q.product(a, b)) != order * ta_tb and f"a={a}, b={b}"),
            # the right side through the definition P = q(tr(a)*tr(b)), not `product`'s closed form
            _check(f"{tag}: q(x*y) = |G|^-2 P(q(x),q(y)) for invariant x,y, total degree <= {D}", trs,
                   lambda a, x, b, y, ta_tb: q.project(x * y) != scale * q.project(ta_tb) and f"x={x}, y={y}"),
        ]
        if not group.reflections:
            checks.append(_check(f"{tag}: rotations leave every class invariant, degrees <= {D}",
                                 ((d, q.invariants(d), loop.basis(d)) for d in range(D + 1)),
                                 lambda d, fixed, every: fixed != every and f"degree {d}"))

    # unscaled products on dihedral quotients do not depend on m
    base = quotient(loop, dihedral(1))
    pair_bound = min(D, PRODUCT_BOUND)
    qms = [(d, loop.monomial_element(m)) for d in range(pair_bound + 1) for m in base.invariants(d)]
    scale_1 = Fraction(1, dihedral(1).order ** 2)
    # the D1 side depends on the pair only, so it is made once per pair, not once per m
    pairs = [(x, y, (scale_1 * base.product(base.project(x), base.project(y))).rep)
             for dx, x, dy, y in _pairs(qms, pair_bound)]

    dihedrals = {m: (quotient(loop, dihedral(m)), Fraction(1, dihedral(m).order ** 2)) for m in range(2, 6)}

    def unscaled_fails(m, x, y, lhs):
        qm, scale_m = dihedrals[m]
        rhs = (scale_m * qm.product(qm.project(x), qm.project(y))).rep
        return lhs != rhs and f"m={m}, x={x}, y={y}"

    checks.append(_check(
        f"LS^{n}/D_m: unscaled transfer products agree for m in 1..5, total degree <= {pair_bound}",
        ((m, *pair) for m in range(2, 6) for pair in pairs), unscaled_fails))
    return checks


def suite_quotient_product(n, rings, D, K):
    """Ring axioms of the transfer product on quotient homology."""
    checks = []
    loop = loop_space(n, RING_Q)
    for group in (dihedral(1), dihedral(2), theta_group(), cyclic(3)):
        q = quotient(loop, group)
        tag = f"LS^{n}/{group.label}"
        qms = _graded(q, D)
        e = q.unit()
        items, ab = _table(qms, D, q.product)
        checks += [
            _check(f"{tag}: P(e,a) = a = P(a,e) on degrees <= {D}", qms,
                   lambda d, a: (q.product(e, a) != a or q.product(a, e) != a) and f"a={a}"),
            _check(f"{tag}: P(b,a) = (-1)^((deg a - n)(deg b - n)) P(a,b), total degree <= {D}", _pairs(items, D),
                   lambda da, a, i, db, b, j: ab[j, i] != _sign((da - n) * (db - n)) * ab[i, j] and f"a={a}, b={b}"),
            _check(f"{tag}: P(P(a,b),c) = P(a,P(b,c)), total degree <= {D}", _associativity(items, ab, D, q.product),
                   lambda a, b, c, ab_c, a_bc: ab_c != a_bc and f"a={a}, b={b}, c={c}"),
        ]
    return checks


def suite_main_theorem(n, rings, D, K):
    """Nonnilpotent quotient classes span their degrees; P(.,class) is bijective."""
    checks = []
    loop = loop_space(n, RING_Q)
    q = quotient(loop, dihedral(1))
    if n % 2:
        cls, cls_name, stride, start = mu_class(q), "mu", 2, 0
    else:
        cls, cls_name, stride, start = eta_class(q), "eta", 4, 1

    def power_fails(k, power):
        if not power:
            return f"{cls_name}^{k} = 0"
        d = stride * k * (n - 1) + n
        monos = q.invariants(d)
        if len(monos) != 1:
            return f"H_{d} has rank {len(monos)}, expected 1"
        return set(power.terms) != {monos[0]} and f"{cls_name}^{k} = {power} does not span H_{d}"

    checks.append(_check(f"LS^{n}/D1: {cls_name}^k != 0 and spans H_({stride}k(n-1)+n) for k <= {K}",
                         islice(_powers(cls, K), 1, None), power_fails))

    shift = cls.degree() - n

    def pairing_fails(i, src, dst):
        images = [q.product(q.monomial_element(m), cls) for m in src]
        return (len(src) != len(dst) or rank_of(images, dst) != len(dst)) and (
            f"degree {i}: dim src {len(src)}, dim dst {len(dst)}, rank {rank_of(images, dst)}"
        )

    span = f"{start} <= i <= {D}" if start == 0 else f"{start - 1} < i <= {D}"
    checks.append(_check(f"LS^{n}/D1: P(., {cls_name}) bijective H_i -> H_(i+{shift}) for {span}",
                         ((i, q.basis(i), q.invariants(i + shift)) for i in range(start, D + 1)), pairing_fails))

    if n % 2 == 0:
        a_q = q.project(loop.generator("A"))
        checks.append(_check(f"LS^{n}/D1: the degree-0 exclusion is sharp (q(A) != 0, P(q(A),eta) = 0)",
                             [(a_q, q.product(a_q, cls))], lambda a, p: (not a or p) and f"q(A)={a}, P={p}"))
    return checks


def suite_theta_vs_vartheta(n, rings, D, K):
    """The two reflection quotients carry identified transfer algebras."""
    loop = loop_space(n, RING_Q)
    qv = quotient(loop, dihedral(1))
    qt = quotient(loop, theta_group())
    chi = chi_star(loop)
    tag = f"LS^{n}: vartheta vs theta"

    def to_theta(a: QElement) -> QElement:
        return qt.project(chi(a.rep))

    units = [(qv.unit(), qt.unit()), *([(mu_class(qv), mu_class(qt))] if n % 2 else [])]
    return [
        _check(f"{tag}: identical invariants on degrees <= {D}",
               ((d, qv.invariants(d), qt.invariants(d)) for d in range(D + 1)),
               lambda d, v, t: v != t and f"degree {d}"),
        _check(f"{tag}: chi intertwines P_vartheta and P_theta, total degree <= {D}",
               _pairs([(d, a, to_theta(a)) for d, a in _graded(qv, D)], D),
               lambda da, a, ta, db, b, tb: to_theta(qv.product(a, b)) != qt.product(ta, tb) and f"a={a}, b={b}"),
        _check(f"{tag}: units (and mu for n odd) correspond", units, lambda a, b: to_theta(a) != b),
    ]


def suite_a_products(n, rings, D, K):
    """The geometric class-A products against the transfer products."""
    checks = []
    loop = loop_space(n, RING_Q)
    qv = quotient(loop, dihedral(1))
    qt = quotient(loop, theta_group())

    def signed(variant, q):
        # (-1)^(n(n-j)) A(a,b) = P(a,b), j = deg b
        return lambda da, a, db, b: (
            _sign(n * (n - db)) * a_product(variant, q, a, b) != q.product(a, b) and f"a={a}, b={b}"
        )

    vpairs = _pairs(_graded(qv, D), D)
    if n % 2:
        checks.append(_check(f"LS^{n}/D1: A_vartheta = 0 for n odd, total degree <= {D}", vpairs,
                             lambda da, a, db, b: bool(a_product("vartheta", qv, a, b)) and f"a={a}, b={b}"))
        checks.append(_check(f"LS^{n}/D1: yet P_vartheta is not zero (P(mu,mu) != 0)", [(mu_class(qv),)],
                             lambda mu: not qv.product(mu, mu)))
    else:
        checks.append(_check(f"LS^{n}/D1: (-1)^(n(n-j)) A_vartheta(a,b) = P_vartheta(a,b), total degree <= {D}",
                             vpairs, signed("vartheta", qv)))
    checks.append(_check(f"LS^{n}/theta: (-1)^(n(n-j)) A_theta(a,b) = P_theta(a,b), total degree <= {D}",
                         _pairs(_graded(qt, D), D), signed("theta", qt)))

    def accepts(a, b):  # the construction refuses inhomogeneous second arguments
        try:
            a_product("vartheta", qv, a, b)
        except DomainError:
            return False
        return True

    a0 = qv.project(loop.generator("A"))
    checks.append(_check(f"LS^{n}/D1: A-product rejects inhomogeneous b", [(a0, a0 + qv.project(loop.unit()))],
                         accepts))
    return checks


def suite_quotient_homs(n, rings, D, K):
    """Quotient versions of ev and j_! against the displayed scaling laws."""
    loop = loop_space(n, RING_Q)
    omega = based_loop_space(n, RING_Q)
    group = dihedral(1)
    q = quotient(loop, group)
    qo = quotient(omega, group)
    ev = ev_star(n, RING_Q)
    jb = j_shriek(n, RING_Q)
    order = group.order
    inv_order = Fraction(1, order)

    def ev_quot(a: QElement) -> Element:
        return inv_order * ev(q.transfer(a))

    def j_quot(a: QElement) -> QElement:
        return qo.project(jb(q.transfer(a))) * inv_order

    qms = [(d, a, ev_quot(a), j_quot(a)) for d, a in _graded(q, D)]  # each class with its ev/G and j/G
    # each pair with P(a,b), formed once for the two checks that read it
    pab = [(a, ev_a, j_a, b, ev_b, j_b, q.product(a, b)) for da, a, ev_a, j_a, db, b, ev_b, j_b in _pairs(qms, D)]
    tag = f"LS^{n}/D1"
    checks = [
        _check(f"{tag}: (ev/G)(P(a,b)) = |G|^2 (ev/G)(a).(ev/G)(b), total degree <= {D}", pab,
               lambda a, ev_a, j_a, b, ev_b, j_b, p: ev_quot(p) != order**2 * (ev_a * ev_b) and f"a={a}, b={b}"),
        _check(f"{tag}: (ev/G)(e) = fundamental/|G|^2", [(q.unit(),)],
               lambda e: ev_quot(e) != sphere_space(n, RING_Q).unit() / order**2),
        _check(f"{tag}: (j/G)(P(a,b)) = POmega((j/G)(a),(j/G)(b)), total degree <= {D}", pab,
               lambda a, ev_a, j_a, b, ev_b, j_b, p: j_quot(p) != qo.product(j_a, j_b) and f"a={a}, b={b}"),
        _check(f"{tag}: (j/G)(e) is the based transfer unit", [(q.unit(),)], lambda e: j_quot(e) != qo.unit()),
    ]

    # spot facts on the based quotient
    x = omega.generator("x")
    k = 2 if n % 2 else 4
    return checks + [
        _check(f"OS^{n}/D1: q(x) = 0", [(x,)], lambda cls: bool(qo.project(cls))),
        _check(f"OS^{n}/D1: POmega(q(x^{k}),q(x^{k})) = 4*q(x^{2 * k})", [(qo.project(x**k),)],
               lambda xk: qo.product(xk, xk) != 4 * qo.project(x ** (2 * k))),
    ]


SUITES = {
    "algebra": suite_algebra,
    "presentation": suite_presentation,
    "maps": suite_maps,
    "gysin": suite_gysin,
    "transfer": suite_transfer,
    "quotient-product": suite_quotient_product,
    "main-theorem": suite_main_theorem,
    "theta-vs-vartheta": suite_theta_vs_vartheta,
    "a-products": suite_a_products,
    "quotient-homs": suite_quotient_homs,
}
SUITE_NAMES = tuple(SUITES)
#: the suites that build quotients of the loop space, which are modeled for n >= 3 only
QUOTIENT_SUITES = ("transfer", "quotient-product", "main-theorem", "theta-vs-vartheta", "a-products", "quotient-homs")


def run(suite: str, ns=None, rings=None, degree_bound=None, power_bound=None) -> Report:
    """Run one named suite (or "all") over the requested dimensions/rings."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in SUITE_NAMES:  # a tuple, so the suite is compared, not hashed
        names = (suite,)
    else:
        raise DomainError(f"unknown suite {_shown(suite)}; choose from {', '.join(SUITE_NAMES)} or all")
    for flag, bound in (("degree", degree_bound), ("power", power_bound)):
        if bound is not None and type(bound) is not int:
            raise DomainError(f"{flag} bound must be an int, got {_shown(bound)}")
        if bound is not None and not 0 <= bound <= SWEEP_BOUND:
            side = ">= 0" if bound < 0 else f"<= {SWEEP_BOUND}"
            raise DomainError(f"{flag} bound must be {side}, got {_shown(bound)}")
    ns = DEFAULT_NS if ns is None else _as_tuple(ns, "ns")
    seen = set()
    for n in ns:
        _check_digits(n)  # before n is printed
        if n in seen:
            raise DomainError(f"each n may be given once, got n = {_shown(n)} more than once")
        seen.add(n)
    if len(ns) > MAX_NS:
        raise DomainError(f"at most {MAX_NS} distinct values of n may be given, got {len(ns)}")
    rings = (RING_Q, RING_Z) if rings is None else _as_tuple(rings, "rings")
    for i, ring in enumerate(rings):
        if ring not in (RING_Q, RING_Z):
            raise DomainError(f"unknown ring {_shown(ring)} (use Q or Z)")
        if ring in rings[:i]:
            raise DomainError(f"each ring may be given once, got ring = {ring} more than once")
    K = POWER_BOUND if power_bound is None else power_bound
    for name in names:  # refuse a bad n before any suite runs, with the error its suite would raise
        for n in ns:
            loop = loop_space(n, RING_Q)
            if name in QUOTIENT_SUITES:
                quotient(loop, dihedral(1))
    checks = []
    for name in names:
        D = degree_bound
        if D is None:
            D = SWEEP_BOUND if name in ("transfer", "main-theorem") else PRODUCT_BOUND
        for n in ns:
            try:
                checks.extend(SUITES[name](n, rings, D, K))
            except Exception as exc:  # one failed check; the suites after it still run
                checks.append(Check(f"{name}, n = {n}: the suite runs to completion", False,
                                    f"{type(exc).__name__}: {_shown(str(exc), str)}"))
    ran = {ring for name in names for ring in ((RING_Q,) if name in QUOTIENT_SUITES else rings)}
    bound_note = f", degree bound {degree_bound}" if degree_bound is not None else ""
    return Report(f"verify {suite}: n in {list(ns)}, rings {sorted(ran)}{bound_note}", checks)


def _as_tuple(values, name: str) -> tuple:
    """tuple(values), or DomainError naming the argument when the values are text, not iterable, or none at all."""
    if isinstance(values, (str, bytes)):
        raise DomainError(f"{name} must be a collection, not a {type(values).__name__}, got {_shown(values)}")
    try:
        values = tuple(values)
    except TypeError:
        raise DomainError(f"{name} must be iterable, got {_shown(values)}") from None
    if not values:
        raise DomainError(f"{name} must not be empty")
    return values
