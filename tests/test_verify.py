"""Seeded faults: each pair check that reads a per-class image, or a pair product, made once still compares two
sides computed apart, so a wrong map, transfer or product makes it fail with a counterexample."""

from __future__ import annotations

import pytest

from loophom import (
    based_loop_space,
    cli,
    core,
    cyclic,
    dihedral,
    equivariant,
    loop_space,
    quotient,
    sphere_space,
    theta_group,
    verify,
)

ASSOCIATIVITY = ("(u*v)*w = u*(v*w)", "P(P(a,b),c) = P(a,P(b,c))")


def _failed(report, label_start: str) -> list:
    checks = [c for c in report.checks if c.label.split(": ", 1)[1].startswith(label_start)]
    assert checks, label_start
    return [c for c in checks if not c.passed]


def _wrong_on(make_map, name: str):
    """A map factory like `make_map` whose maps send the class `name` of their source to minus its image, and so
    negate the image of that class's term in any class; a source that names no such class keeps its map."""

    def make(*args):
        mp = make_map(*args)
        cls = mp.source.named.get(name)  # no Theta on the based loop space
        if cls is None:
            return mp
        mono, image = next(iter(cls.terms)), mp(cls)
        return lambda elt: mp(elt) - 2 * elt.coefficient(mono) * image

    return make


def test_a_wrong_transfer_fails_both_transfer_product_checks(monkeypatch) -> None:
    transfer = equivariant.Quotient.transfer

    def wrong(self, a):  # an extra copy of the unit wherever a has a unit term
        return transfer(self, a) + self.space.unit() * a.coefficient(0)

    monkeypatch.setattr(equivariant.Quotient, "transfer", wrong)
    report = verify.run("transfer", ns=[3], degree_bound=12)
    for label in ("tr(P(a,b)) = |G|*tr(a)*tr(b)", "q(x*y) = |G|^-2 P(q(x),q(y))"):
        failed = _failed(report, label)
        assert failed and all(c.detail for c in failed), label


def test_a_wrong_reversal_sign_fails_multiplicativity(monkeypatch) -> None:
    # theta(U*U) is wrong while theta(U)*theta(U) is not
    monkeypatch.setattr(verify, "theta_star", _wrong_on(verify.theta_star, "Theta"))
    report = verify.run("maps", ns=[3], rings=["Q"], degree_bound=12)
    failed = _failed(report, "theta(u*v) = theta(u)*theta(v)")
    assert failed and failed[0].detail


def test_a_wrong_gysin_image_fails_multiplicativity(monkeypatch) -> None:
    # j!(U*U) is wrong while j!(U).j!(U) is not
    monkeypatch.setattr(verify, "j_shriek", _wrong_on(verify.j_shriek, "Theta"))
    report = verify.run("gysin", ns=[3], rings=["Q"], degree_bound=12)
    failed = _failed(report, "j!(u*v) = j!(u).j!(v)")
    assert failed and failed[0].detail



def test_a_product_wrong_on_one_order_of_the_pair_fails_graded_commutativity(monkeypatch) -> None:
    # odd*odd products vanish for n = 3, so the fault must reach the even ones too: it negates u*v whenever
    # u's monomial int is larger than v's, for every pair of one-term classes
    mul = core.Element.__mul__

    def wrong(self, other):
        out = mul(self, other)
        one_term_each = isinstance(other, core.Element) and len(self.terms) == 1 == len(other.terms)
        return -out if one_term_each and min(self.terms) > min(other.terms) else out

    monkeypatch.setattr(core.Element, "__mul__", wrong)
    report = verify.run("algebra", ns=[3], rings=["Q"], degree_bound=12)
    failed = [c for c in _failed(report, "v*u = (-1)^((deg u - n)(deg v - n)) u*v") if c.label.startswith("H(LS^3;Q)")]
    assert failed and failed[0].detail


def test_a_product_wrong_on_high_left_degrees_fails_associativity(monkeypatch) -> None:
    mul = core.Element.__mul__

    def wrong(self, other):  # doubled when its left factor reaches past degree 2n
        out = mul(self, other)
        if isinstance(other, core.Element) and self.terms and max(self.degrees()) > 2 * self.algebra.n:
            return out * 2
        return out

    monkeypatch.setattr(core.Element, "__mul__", wrong)
    report = verify.run("algebra", ns=[3], rings=["Q"], degree_bound=12)
    failed = [c for c in _failed(report, "(u*v)*w = u*(v*w)") if c.label.startswith("H(LS^3;Q)")]
    assert failed and failed[0].detail


def test_a_wrong_evaluation_fails_multiplicativity(monkeypatch) -> None:
    ev_star = verify.ev_star

    def make(n, ring):  # a linear map that also sends Theta to the point class: ev(U*U) = pt, ev(U).ev(U) = 0
        ev = ev_star(n, ring)
        theta, pt = next(iter(ev.source.named["Theta"].terms)), ev.target.named["pt"]
        return lambda elt: ev(elt) + pt * elt.coefficient(theta)

    monkeypatch.setattr(verify, "ev_star", make)
    report = verify.run("maps", ns=[3], rings=["Q"], degree_bound=12)
    failed = _failed(report, "ev(u*v) = ev(u).ev(v)")
    assert failed and failed[0].detail


def test_a_transfer_product_wrong_on_high_left_degrees_fails_associativity(monkeypatch) -> None:
    product = equivariant.Quotient.product

    def wrong(self, a, b):  # doubled when its left argument reaches past degree 2n
        out = product(self, a, b)
        return out * 2 if a and max(a.degrees()) > 2 * self.space.n else out

    monkeypatch.setattr(equivariant.Quotient, "product", wrong)
    report = verify.run("quotient-product", ns=[3], degree_bound=12)
    failed = _failed(report, "P(P(a,b),c) = P(a,P(b,c))")
    assert failed and all(c.detail for c in failed)


def test_a_based_quotient_without_the_kernel_of_q_fails_q_of_x(monkeypatch) -> None:
    # `_keep`, the kernel of q_* (0: no kernel), is read by `project`, by `_fixes` and by every product.  Unfixed
    # products exist only on the based algebra with n even (x^3 * x^3 = x^6), and no verify check forms one; so of
    # every suite the fault fails the one check that projects an unfixed class, q(x) = 0, for either parity
    for n in (3, 4):
        monkeypatch.setattr(quotient(based_loop_space(n, "Q"), dihedral(1)), "_keep", 0)
    report = verify.run("all", ns=[3, 4], degree_bound=12, power_bound=4)
    assert [c.line() for c in report.checks if not c.passed] == ["[FAIL] OS^3/D1: q(x) = 0", "[FAIL] OS^4/D1: q(x) = 0"]


def _consume_cases(monkeypatch, products=()):
    """{label: (cases, calls)} for each check run after this: its cases are counted, and `calls` is how many calls
    of the methods (class, name) in `products` the check made, forming its cases and judging them."""
    calls = [0]
    for cls, name in products:
        method = getattr(cls, name)

        def counted(*args, method=method):
            calls[0] += 1
            return method(*args)

        monkeypatch.setattr(cls, name, counted)
    seen = {}
    check = verify._check

    def consuming(label, cases, fails):
        before = calls[0]
        cases = list(cases)
        out = check(label, cases, fails)
        seen[label] = len(cases), calls[0] - before
        return out

    monkeypatch.setattr(verify, "_check", consuming)
    return seen


def _basis_triples(alg, bound: int) -> int:
    """How many triples of basis classes of `alg` have degrees summing to <= bound, from the ranks by degree."""
    ranks = [len(alg.basis(d)) for d in range(bound + 1)]
    return sum(ranks[a] * ranks[b] * ranks[c]
               for a in range(bound + 1) for b in range(bound + 1 - a) for c in range(bound + 1 - a - b))


def test_each_associativity_check_judges_one_case_per_basis_triple(monkeypatch) -> None:
    seen = _consume_cases(monkeypatch)
    checks = [*verify.run("algebra", ns=[3], rings=["Q"], degree_bound=30).checks,
              *verify.run("quotient-product", ns=[3], degree_bound=30).checks]
    counted = {label.split(": ")[0]: cases for label, (cases, _) in seen.items()
               if label.split(": ")[1].startswith(ASSOCIATIVITY)}
    cases = {c.label.split(": ")[0]: c.cases for c in checks if c.label.split(": ")[1].startswith(ASSOCIATIVITY)}
    assert cases == counted
    loop = loop_space(3, "Q")
    algebras = [loop, based_loop_space(3, "Q"), sphere_space(3, "Q")]
    tags = [alg.label for alg in algebras]
    for group in (dihedral(1), dihedral(2), theta_group(), cyclic(3)):
        algebras.append(quotient(loop, group))
        tags.append(f"LS^3/{group.label}")
    assert counted == {tag: _basis_triples(alg, 30) for tag, alg in zip(tags, algebras)}
    assert [counted[tag] for tag in ("H(LS^3;Q)", "H(OS^3;Q)", "LS^3/C3", "LS^3/D1", "LS^3/D2", "LS^3/theta")] == [
        4147, 816, 4147, 680, 680, 680]


def test_loop_associativity_forms_each_distinct_outer_product_once(monkeypatch) -> None:
    # one product per distinct (value of u*v, w) and one per distinct (u, value of v*w), counted here by value
    loop = loop_space(3, "Q")
    basis = [(d, loop.monomial_element(m)) for d in range(31) for m in loop.basis(d)]
    pairs = {(u, v): u * v for du, u in basis for dv, v in basis if du + dv <= 30}
    triples = [(u, v, w) for du, u in basis for dv, v in basis for dw, w in basis if du + dv + dw <= 30]
    expected = len({(pairs[u, v], w) for u, v, w in triples}) + len({(u, pairs[v, w]) for u, v, w in triples})
    assert expected < 2 * len(triples)
    seen = _consume_cases(monkeypatch, [(core.Element, "__mul__")])
    verify.run("algebra", ns=[3], rings=["Q"], degree_bound=30)
    assert seen["H(LS^3;Q): (u*v)*w = u*(v*w) on basis triples, total degree <= 30"] == (len(triples), expected)


def test_a_product_wrong_on_one_pair_fails_associativity_at_the_first_triple_that_forms_it(monkeypatch) -> None:
    # a fault keyed on the factors' values, so an outer product formed once per distinct pair of factors meets it
    # where forming two products per triple did: the first counterexample is the same one
    loop = loop_space(3, "Q")
    u2, a = loop.generator("U") ** 2, loop.generator("A")
    mul = core.Element.__mul__

    def wrong(self, other):  # doubled on the one pair (U^2, A)
        out = mul(self, other)
        return out * 2 if self == u2 and other == a else out

    basis = [(d, loop.monomial_element(m)) for d in range(31) for m in loop.basis(d)]
    pairs = [(u, v) for du, u in basis for dv, v in basis if du + dv <= 30]
    triples = [(u, v, w) for du, u in basis for dv, v in basis for dw, w in basis if du + dv + dw <= 30]
    u = loop.generator("U")
    monkeypatch.setattr(core.Element, "__mul__", wrong)
    report = verify.run("algebra", ns=[3], rings=["Q"], degree_bound=30)
    failed = [c for c in report.checks if not c.passed]
    assert [c.line() for c in failed] == [
        "[FAIL] H(LS^3;Q): v*u = (-1)^((deg u - n)(deg v - n)) u*v, total degree <= 30  -- u=A, v=U^2",
        "[FAIL] H(LS^3;Q): (u*v)*w = u*(v*w) on basis triples, total degree <= 30  -- u=U, v=U, w=A",
    ]
    # each check examined its cases up to and including that counterexample, and no further
    assert [c.cases for c in failed] == [pairs.index((a, u2)) + 1, triples.index((u, u, a)) + 1]
    assert failed[1].cases < len(triples)


def test_a_transfer_product_wrong_on_one_pair_fails_associativity_at_the_first_triple_that_forms_it(
        monkeypatch) -> None:
    q = quotient(loop_space(3, "Q"), dihedral(1))
    u2, a = q.project(q.space.generator("U") ** 2), q.project(q.space.generator("A"))
    product = equivariant.Quotient.product

    def wrong(self, x, y):  # doubled on the one pair (q(U^2), q(A)) of LS^3/D1
        out = product(self, x, y)
        return out * 2 if self is q and x == u2 and y == a else out

    monkeypatch.setattr(equivariant.Quotient, "product", wrong)
    report = verify.run("quotient-product", ns=[3], degree_bound=30)
    assert [c.line() for c in report.checks if not c.passed] == [
        "[FAIL] LS^3/D1: P(b,a) = (-1)^((deg a - n)(deg b - n)) P(a,b), total degree <= 30  -- a=q(A), b=q(U^2)",
        "[FAIL] LS^3/D1: P(P(a,b),c) = P(a,P(b,c)), total degree <= 30  -- a=q(E), b=q(U^2), c=q(A)",
    ]


def test_a_passing_check_counts_every_case_it_was_given(monkeypatch) -> None:
    seen = _consume_cases(monkeypatch)
    report = verify.run("all", ns=[3, 4], degree_bound=6, power_bound=3)
    assert report.passed and len(seen) == len(report.checks)
    assert [c.cases for c in report.checks] == [seen[c.label][0] for c in report.checks]


def test_a_power_check_with_no_powers_examines_no_case() -> None:
    # --power-bound 0 leaves k in 1..0: the check passes with nothing examined, and `cases` says so
    report = verify.run("main-theorem", ns=[4], degree_bound=0, power_bound=0)
    (check,) = [c for c in report.checks if c.label == "LS^4/D1: eta^k != 0 and spans H_(4k(n-1)+n) for k <= 0"]
    assert check.passed and check.cases == len(range(1, 0 + 1)) == 0


def _lenient_a_product(variant, q, a, b):
    """`a_product`, but an inhomogeneous b gets the transfer product instead of a refusal."""
    return equivariant.a_product(variant, q, a, b) if b.is_homogeneous() else q.product(a, b)


def _doubled_on_omega(product):
    """A `Quotient.product` like `product`, doubled on the quotients of the based loop space."""
    return lambda self, a, b: product(self, a, b) * (2 if self.space.kind == "omega" else 1)


# q(x) = 0 is the spot check of `test_a_based_quotient_without_the_kernel_of_q_fails_q_of_x`
SPOT_FAULTS = [
    ("maps", lambda mp: mp.setattr(verify, "theta_star", _wrong_on(verify.theta_star, "A")),
     "[FAIL] H(LS^3;Q): theta fixes A and E"),
    ("maps", lambda mp: mp.setattr(verify, "ev_star", _wrong_on(verify.ev_star, "E")),
     "[FAIL] H(LS^3;Q): ev(A) = pt, ev(E) = fundamental"),
    ("gysin", lambda mp: mp.setattr(verify, "j_shriek", _wrong_on(verify.j_shriek, "Theta")),
     "[FAIL] S^3(Q): j!(E)=1, j!(Theta)=x^2, j!(U)=x, j*(1)=A"),
    ("theta-vs-vartheta", lambda mp: mp.setattr(verify, "chi_star", _wrong_on(verify.chi_star, "E")),
     "[FAIL] LS^3: vartheta vs theta: units (and mu for n odd) correspond"),
    ("a-products", lambda mp: mp.setattr(verify, "mu_class", lambda q: 0 * q.unit()),
     "[FAIL] LS^3/D1: yet P_vartheta is not zero (P(mu,mu) != 0)"),
    ("a-products", lambda mp: mp.setattr(verify, "a_product", _lenient_a_product),
     "[FAIL] LS^3/D1: A-product rejects inhomogeneous b"),
    ("quotient-homs", lambda mp: mp.setattr(verify, "ev_star", _wrong_on(verify.ev_star, "E")),
     "[FAIL] LS^3/D1: (ev/G)(e) = fundamental/|G|^2"),
    ("quotient-homs", lambda mp: mp.setattr(verify, "j_shriek", _wrong_on(verify.j_shriek, "E")),
     "[FAIL] LS^3/D1: (j/G)(e) is the based transfer unit"),
    ("quotient-homs",
     lambda mp: mp.setattr(equivariant.Quotient, "product", _doubled_on_omega(equivariant.Quotient.product)),
     "[FAIL] OS^3/D1: POmega(q(x^2),q(x^2)) = 4*q(x^4)"),
]


@pytest.mark.parametrize("suite, fault, line", SPOT_FAULTS, ids=[line[7:] for _, _, line in SPOT_FAULTS])
def test_a_fault_that_breaks_a_spot_identity_fails_its_check(monkeypatch, suite, fault, line) -> None:
    # each spot check is a `_check` over a short list of cases; a failing one names no counterexample
    fault(monkeypatch)
    report = verify.run(suite, ns=[3], rings=["Q"], degree_bound=6)
    assert line in [c.line() for c in report.checks if not c.passed]


def _seeded_fault():
    raise core.DomainError("seeded fault")


@pytest.mark.parametrize(
    "fault, shown",
    [(_seeded_fault, "DomainError: seeded fault"),
     (lambda: 1 // 0, "ZeroDivisionError: integer division or modulo by zero")],
    ids=["DomainError", "ZeroDivisionError"],
)
def test_a_suite_that_raises_is_one_fail_line_and_the_other_suites_still_run(monkeypatch, capsys, fault,
                                                                             shown) -> None:
    # main-theorem raises at n = 3 only: its n = 4 lines stay, and so do every other suite's
    lines = {(name, n): [c.line() for c in verify.run(name, ns=[n], degree_bound=4).checks]
             for name in verify.SUITES for n in (3, 4)}
    lines["main-theorem", 3] = [f"[FAIL] main-theorem, n = 3: the suite runs to completion  -- {shown}"]
    expected = [line for key in lines for line in lines[key]]
    main_theorem = verify.SUITES["main-theorem"]
    monkeypatch.setitem(verify.SUITES, "main-theorem",
                        lambda n, *bounds: fault() if n == 3 else main_theorem(n, *bounds))
    assert cli.main(["verify", "all", "--n", "3", "--n", "4", "--degree-bound", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == ["verify all: n in [3, 4], rings ['Q', 'Z'], degree bound 4",
                                                    *expected, f"{len(expected) - 1}/{len(expected)} checks passed"]
