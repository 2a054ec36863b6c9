"""Mechanical verification suites for every identity the package models.

Each suite checks one cluster of identities by exhaustive enumeration of
basis classes up to a degree bound, with exact arithmetic throughout.  A
suite returns `Check` records — one per identity and context, carrying the
first counterexample on failure — and `run` assembles them into a `Report`
with stable, printable lines and an overall verdict.

Default bounds: product identities up to total degree 60, transfer axioms
and stability/bijectivity sweeps up to degree 100, powers of nonnilpotent
classes up to 25, reversal signs on Pontrjagin powers up to 40.  `run`
resolves the degree and power bounds; each suite takes them as given.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat

from .core import DomainError, Element, RING_Q, RING_Z
from .equivariant import (
    QElement,
    Quotient,
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
from .spaces import based_loop_space, loop_space, sphere_space

DEFAULT_NS = (3, 4, 5, 6)
PRODUCT_BOUND = 60
SWEEP_BOUND = 100
POWER_BOUND = 25
REVERSAL_POWER_BOUND = 40
TORSION_POWER_BOUND = 20

@dataclass
class Check:
    label: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        out = f"[{mark}] {self.label}"
        if not self.passed and self.detail:
            out += f"  -- {self.detail}"
        return out


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [self.title]
        lines += [c.line() for c in self.checks]
        good = sum(1 for c in self.checks if c.passed)
        lines.append(f"{good}/{len(self.checks)} checks passed")
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


def _first_failure(cases, fails):
    """The first truthy fails(*case) over `cases`, a counterexample's detail string, or None."""
    for case in cases:
        detail = fails(*case)
        if detail:
            return detail
    return None


def _check(label: str, cases, fails) -> Check:
    """The check `label`, carrying the first counterexample among `cases`."""
    detail = _first_failure(cases, fails)
    return Check(label, detail is None, detail or "")


def _graded(source, bound: int) -> list:
    """[(degree, x)] for degrees <= bound: a `Quotient`'s basis classes or an `Algebra`'s basis elements."""
    make = (lambda b: b) if isinstance(source, Quotient) else source.monomial_element
    return [(d, make(b)) for d in range(bound + 1) for b in source.basis(d)]


def _pairs(items, bound: int, others=None):
    """(dx, x, dy, y) for x in items, y in others (default items), dx + dy <= bound.

    Both lists are sorted by degree, so each scan over y stops at the bound.
    """
    for dx, x in items:
        for dy, y in items if others is None else others:
            if dx + dy > bound:
                break
            yield dx, x, dy, y


def _triples(items, bound: int, pair_op):
    """(x, y, z, pair_op(x, y)) with degrees summing to <= bound; pair_op runs once per pair."""
    for dx, x, dy, y in _pairs(items, bound):
        xy = pair_op(x, y)
        for dz, z in items:
            if dx + dy + dz > bound:
                break
            yield x, y, z, xy


def _powers(x, k_max: int, one, mul=operator.mul):
    """(k, x^k) for k = 0..k_max, each power one product after the last."""
    return enumerate(accumulate(repeat(x, k_max), mul, initial=one))


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
            alg = space.algebra
            tag = f"{alg.label}"
            ms = _graded(alg, D)
            unit = alg.unit()
            checks.append(_check(f"{tag}: unit is two-sided on degrees <= {D}", ms,
                                 lambda d, u: (u * unit != u or unit * u != u) and f"u={u}"))
            if space.kind == "omega":
                # genuinely commutative polynomial ring
                checks.append(_check(f"{tag}: commutativity on basis pairs, total degree <= {D}", _pairs(ms, D),
                                     lambda du, u, dv, v: u * v != v * u and f"u={u}, v={v}"))
            else:
                checks.append(_check(
                    f"{tag}: v*u = (-1)^((deg u - n)(deg v - n)) u*v, total degree <= {D}", _pairs(ms, D),
                    lambda du, u, dv, v: v * u != _sign((du - n) * (dv - n)) * (u * v) and f"u={u}, v={v}"))
            checks.append(_check(
                f"{tag}: (u*v)*w = u*(v*w) on basis triples, total degree <= {D}", _triples(ms, D, operator.mul),
                lambda u, v, w, uv: uv * w != u * (v * w) and f"u={u}, v={v}, w={w}"))

    # torsion lives exactly in degrees 2r(n-1), and only over Z, n even
    if RING_Z in rings:
        alg = loop_space(n, RING_Z).algebra
        found = {d for d in range(D + 1) if alg.graded_piece(d)[1]}
        expected = set(range(2 * (n - 1), D + 1, 2 * (n - 1))) if n % 2 == 0 else set()
        checks.append(_check(f"{alg.label}: torsion exactly in degrees 2r(n-1) up to {D}", [(found, expected)],
                             lambda f, e: f != e and f"found {sorted(f)}, expected {sorted(e)}"))
    return checks


def suite_presentation(n, rings, D, K):
    """Generators generate, *Theta stability, nonnilpotence, torsion facts."""
    checks = []
    for ring in rings:
        space = loop_space(n, ring)
        alg = space.algebra
        tag = alg.label

        # every basis class is the stated product of named generators, one
        # named class per slot of the exponent vector
        gens = [space.generator(g) for g in (("A", "U") if n % 2 else ("sigma1", "A", "Theta"))]

        def rebuild_fails(m):
            built = reduce(operator.mul, (g**e for g, e in zip(gens, alg.exponents(m))))
            return built != alg.monomial_element(m) and f"monomial {alg.monomial_str(m)} rebuilt as {built}"

        names = "A,U" if n % 2 else "A,sigma1,Theta"
        checks.append(_check(f"{tag}: every basis class <= {D} is a product of {names}",
                             ((m,) for d in range(D + 1) for m in alg.basis(d)), rebuild_fails))

        # multiplication by Theta: H_k -> H_{k+2n-2} bijective for 0<k<=D,
        # except (n odd, k=1) where H_1 = 0 yet H_{2n-1} = <U>
        theta = space.generator("Theta")

        def words(monos):
            return [alg.monomial_str(m) for m in monos]

        def bijection_fails(k, src, dst):
            if n % 2 and k == 1:
                sharp = src == [] and len(dst) == 1
                return not sharp and f"k=1 sharpness: H_1 basis {words(src)}, H_{2*n-1} basis {words(dst)}"
            images = [alg.monomial_element(m) * theta for m in src]
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
            ((k, alg.basis(k), alg.basis(k + 2 * n - 2)) for k in range(1, D + 1)), bijection_fails))

        # nonnilpotence
        checks.append(_check(f"{tag}: Theta^k != 0 for k <= {K}", islice(_powers(theta, K, alg.unit()), 1, None),
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
            alg = space.algebra
            checks.append(_check(f"{alg.label}: theta(theta(u)) = u on degrees <= {D}", _graded(alg, D),
                                 lambda d, u: mp(mp(u)) != u and f"u={u}"))

        alg = loop.algebra
        ms = _graded(alg, D)
        checks.append(_check(f"{alg.label}: theta(u*v) = theta(u)*theta(v), total degree <= {D}", _pairs(ms, D),
                             lambda du, u, dv, v: th(u * v) != th(u) * th(v) and f"u={u}, v={v}"))

        theta_cls = loop.generator("Theta")
        want = theta_cls if (n - 1) % 2 == 0 else -theta_cls
        checks.append(_check(f"{alg.label}: theta(Theta) = (-1)^(n-1)*Theta", [(th(theta_cls),)],
                             lambda got: got != want and f"got {got}"))
        ok = th(loop.generator("A")) == loop.generator("A") and th(loop.unit) == loop.unit
        checks.append(Check(f"{alg.label}: theta fixes A and E", ok, ""))

        chi = chi_star(loop)
        checks.append(_check(f"{alg.label}: chi = identity on degrees <= {D}", ms,
                             lambda d, u: chi(u) != u and f"u={u}"))

        # Pontrjagin sign law and the power-sign case split
        oalg = omega.algebra
        kmax = max(REVERSAL_POWER_BOUND, D // max(1, n - 1))
        powers = list(_powers(omega.generator("x"), kmax, oalg.unit()))
        checks.append(_check(
            f"{oalg.label}: (-1)^(|a||b|) theta(a)*theta(b) = theta(a*b), powers <= {kmax}", _pairs(powers, kmax),
            lambda i, a, j, b: _sign(i * (n - 1) * j * (n - 1)) * (tho(a) * tho(b)) != tho(a * b)
            and f"a=x^{i}, b=x^{j}"))

        def sign_fails(k, power):
            expected = _sign(k) if n % 2 or ((k - 1) * k) % 4 == 0 else -_sign(k)
            if tho(power) != expected * power:
                return f"k={k}: theta(x^{k}) = {tho(power)}, expected sign {expected}"
            return reversal_power_sign(n, k) != expected and f"k={k}: closed-form sign disagrees with case split"

        checks.append(_check(
            f"{oalg.label}: theta(x^k) sign matches the parity case split, k <= {REVERSAL_POWER_BOUND}",
            powers[: REVERSAL_POWER_BOUND + 1], sign_fails))

        # evaluation at the basepoint is an algebra map
        checks.append(_check(f"{alg.label}: ev(u*v) = ev(u).ev(v), total degree <= {D}", _pairs(ms, D),
                             lambda du, u, dv, v: ev(u * v) != ev(u) * ev(v) and f"u={u}, v={v}"))
        ok = ev(loop.generator("A")) == sphere.generator("pt") and ev(loop.unit) == sphere.unit
        checks.append(Check(f"{alg.label}: ev(A) = pt, ev(E) = fundamental", ok, ""))
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
        lms = _graded(loop.algebra, D)
        oms = _graded(omega.algebra, D)
        a_cls = loop.generator("A")
        checks += [
            _check(f"{tag}: j!(u*v) = j!(u).j!(v), total degree <= {D}", _pairs(lms, D),
                   lambda du, u, dv, v: jb(u * v) != jb(u) * jb(v) and f"u={u}, v={v}"),
            _check(f"{tag}: j*(y)*a = j*(y.j!(a)), total degree <= {D}", _pairs(oms, D, lms),
                   lambda dy, y, da, a: js(y) * a != js(y * jb(a)) and f"y={y}, a={a}"),
            _check(f"{tag}: j*(j!(a)) = A*a on degrees <= {D}", lms,
                   lambda da, a: js(jb(a)) != a_cls * a and f"a={a}"),
        ]

        x = omega.generator("x")
        spot = jb(loop.unit) == omega.unit and js(omega.unit) == a_cls
        if n % 2:
            spot = spot and jb(loop.generator("U")) == x
        spot = spot and jb(loop.generator("Theta")) == x * x
        checks.append(Check(f"{tag}: j!(E)=1, j!(Theta)=x^2" + (", j!(U)=x" if n % 2 else "") + ", j*(1)=A", spot, ""))
    return checks


TRANSFER_GROUPS = (*(dihedral(m) for m in range(1, 6)), theta_group(), *(cyclic(m) for m in range(2, 8)))


def suite_transfer(n, rings, D, K):
    """The transfer axioms and the quotient/covering product comparison."""
    checks = []
    loop = loop_space(n, RING_Q)
    alg = loop.algebra
    zs = _graded(alg, D)
    for group in TRANSFER_GROUPS:
        q = quotient(loop, group)
        order = group.order
        scale = Fraction(1, order**2)
        tag = f"LS^{n}/{group.label}"
        qms = _graded(q, D)
        checks += [
            _check(f"{tag}: q(tr(a)) = |G|*a on degrees <= {D}", qms,
                   lambda d, a: q.project(q.transfer(a)) != order * a and f"a={a}"),
            _check(f"{tag}: tr(q(z)) = sum_g g(z) on degrees <= {D}", zs,
                   lambda d, z: q.transfer(q.project(z)) != q.action_sum(z) and f"z={z}"),
            _check(f"{tag}: q is injective on invariants (projection fixes them), degrees <= {D}", qms,
                   lambda d, a: q.project(a.rep).rep != a.rep and f"z={a.rep}"),
            _check(f"{tag}: tr(P(a,b)) = |G|*tr(a)*tr(b), total degree <= {D}", _pairs(qms, D),
                   lambda da, a, db, b: q.transfer(q.product(a, b)) != order * (q.transfer(a) * q.transfer(b))
                   and f"a={a}, b={b}"),
            _check(f"{tag}: q(x*y) = |G|^-2 P(q(x),q(y)) for invariant x,y, total degree <= {D}", _pairs(qms, D),
                   lambda da, a, db, b: q.project(a.rep * b.rep) != scale * q.product(a, b)
                   and f"x={a.rep}, y={b.rep}"),
        ]
        if not group.reflections:
            checks.append(_check(f"{tag}: rotations leave every class invariant, degrees <= {D}",
                                 ((d, q.invariants(d), alg.basis(d)) for d in range(D + 1)),
                                 lambda d, fixed, every: fixed != every and f"degree {d}"))

    # unscaled products on dihedral quotients do not depend on m
    base = quotient(loop, dihedral(1))
    pair_bound = min(D, PRODUCT_BOUND)
    qms = [(d, m) for d in range(pair_bound + 1) for m in base.invariants(d)]
    scale_1 = Fraction(1, dihedral(1).order ** 2)

    def unscaled_fails(m, da, ma, db, mb):
        qm = quotient(loop, dihedral(m))
        x, y = alg.monomial_element(ma), alg.monomial_element(mb)
        lhs = (scale_1 * base.product(base.project(x), base.project(y))).rep
        rhs = (Fraction(1, dihedral(m).order ** 2) * qm.product(qm.project(x), qm.project(y))).rep
        return lhs != rhs and f"m={m}, x={alg.monomial_str(ma)}, y={alg.monomial_str(mb)}"

    checks.append(_check(
        f"LS^{n}/D_m: unscaled transfer products agree for m in 1..5, total degree <= {pair_bound}",
        ((m, *pair) for m in range(2, 6) for pair in _pairs(qms, pair_bound)), unscaled_fails))
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
        checks += [
            _check(f"{tag}: P(e,a) = a = P(a,e) on degrees <= {D}", qms,
                   lambda d, a: (q.product(e, a) != a or q.product(a, e) != a) and f"a={a}"),
            _check(f"{tag}: P(b,a) = (-1)^((deg a - n)(deg b - n)) P(a,b), total degree <= {D}", _pairs(qms, D),
                   lambda da, a, db, b: q.product(b, a) != _sign((da - n) * (db - n)) * q.product(a, b)
                   and f"a={a}, b={b}"),
            _check(f"{tag}: P(P(a,b),c) = P(a,P(b,c)), total degree <= {D}", _triples(qms, D, q.product),
                   lambda a, b, c, ab: q.product(ab, c) != q.product(a, q.product(b, c)) and f"a={a}, b={b}, c={c}"),
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
        return set(power.rep.terms) != {monos[0]} and f"{cls_name}^{k} = {power} does not span H_{d}"

    checks.append(_check(f"LS^{n}/D1: {cls_name}^k != 0 and spans H_({stride}k(n-1)+n) for k <= {K}",
                         islice(_powers(cls, K, q.unit(), q.product), 1, None), power_fails))

    shift = cls.degree() - n

    def pairing_fails(i, src, dst):
        images = [q.product(a, cls).rep for a in src]
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
        return QElement(qt, chi(a.rep))

    checks = [
        _check(f"{tag}: identical invariants on degrees <= {D}",
               ((d, qv.invariants(d), qt.invariants(d)) for d in range(D + 1)),
               lambda d, v, t: v != t and f"degree {d}"),
        _check(f"{tag}: chi intertwines P_vartheta and P_theta, total degree <= {D}", _pairs(_graded(qv, D), D),
               lambda da, a, db, b: to_theta(qv.product(a, b)) != qt.product(to_theta(a), to_theta(b))
               and f"a={a}, b={b}"),
    ]
    ok = to_theta(qv.unit()) == qt.unit()
    if n % 2:
        ok = ok and to_theta(mu_class(qv)) == mu_class(qt)
    checks.append(Check(f"{tag}: units (and mu for n odd) correspond", ok, ""))
    return checks


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
        mu = mu_class(qv)
        ok = bool(qv.product(mu, mu))
        checks.append(Check(f"LS^{n}/D1: yet P_vartheta is not zero (P(mu,mu) != 0)", ok, ""))
    else:
        checks.append(_check(f"LS^{n}/D1: (-1)^(n(n-j)) A_vartheta(a,b) = P_vartheta(a,b), total degree <= {D}",
                             vpairs, signed("vartheta", qv)))
    checks.append(_check(f"LS^{n}/theta: (-1)^(n(n-j)) A_theta(a,b) = P_theta(a,b), total degree <= {D}",
                         _pairs(_graded(qt, D), D), signed("theta", qt)))

    # the construction refuses inhomogeneous second arguments
    a0 = qv.project(loop.generator("A"))
    e0 = qv.project(loop.unit)
    mixed = a0 + e0
    try:
        a_product("vartheta", qv, a0, mixed)
        ok = False
    except DomainError:
        ok = True
    checks.append(Check(f"LS^{n}/D1: A-product rejects inhomogeneous b", ok, ""))
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

    qms = _graded(q, D)
    tag = f"LS^{n}/D1"
    checks = [
        _check(f"{tag}: (ev/G)(P(a,b)) = |G|^2 (ev/G)(a).(ev/G)(b), total degree <= {D}", _pairs(qms, D),
               lambda da, a, db, b: ev_quot(q.product(a, b)) != order**2 * (ev_quot(a) * ev_quot(b))
               and f"a={a}, b={b}"),
        Check(f"{tag}: (ev/G)(e) = fundamental/|G|^2", ev_quot(q.unit()) == sphere_space(n, RING_Q).unit / order**2),
        _check(f"{tag}: (j/G)(P(a,b)) = POmega((j/G)(a),(j/G)(b)), total degree <= {D}", _pairs(qms, D),
               lambda da, a, db, b: j_quot(q.product(a, b)) != qo.product(j_quot(a), j_quot(b)) and f"a={a}, b={b}"),
        Check(f"{tag}: (j/G)(e) is the based transfer unit", j_quot(q.unit()) == qo.unit()),
    ]

    # spot facts on the based quotient
    x = omega.generator("x")
    ok = not qo.project(x)
    checks.append(Check(f"OS^{n}/D1: q(x) = 0", ok, ""))
    k = 2 if n % 2 else 4
    xk = qo.project(x**k)
    ok = qo.product(xk, xk) == 4 * qo.project(x ** (2 * k))
    checks.append(Check(f"OS^{n}/D1: POmega(q(x^{k}),q(x^{k})) = 4*q(x^{2 * k})", ok, ""))
    return checks


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


def run(suite: str, ns=None, rings=None, degree_bound=None, power_bound=None) -> Report:
    """Run one named suite (or "all") over the requested dimensions/rings."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in SUITES:
        names = (suite,)
    else:
        raise DomainError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    for flag, bound in (("degree", degree_bound), ("power", power_bound)):
        if bound is not None and not 0 <= bound <= SWEEP_BOUND:
            side = ">= 0" if bound < 0 else f"<= {SWEEP_BOUND}"
            raise DomainError(f"{flag} bound must be {side}, got {bound}")
    ns = tuple(ns) if ns else DEFAULT_NS
    rings = tuple(rings) if rings else (RING_Q, RING_Z)
    K = POWER_BOUND if power_bound is None else power_bound
    checks = []
    for name in names:
        fn = SUITES[name]
        D = degree_bound
        if D is None:
            D = SWEEP_BOUND if name in ("transfer", "main-theorem") else PRODUCT_BOUND
        for n in ns:
            checks.extend(fn(n, rings, D, K))
    bound_note = f", degree bound {degree_bound}" if degree_bound is not None else ""
    title = f"verify {suite}: n in {list(ns)}, rings {list(rings)}{bound_note}"
    return Report(title, checks)
