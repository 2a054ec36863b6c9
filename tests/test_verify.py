"""Seeded faults: each pair check that reads a per-class image, or a pair product, made once still compares two
sides computed apart, so a wrong map, transfer or product makes it fail with a counterexample."""

from __future__ import annotations

from loophom import (
    based_loop_space,
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


def _wrong_on_theta(make_map):
    """A map factory like `make_map` whose maps send the class Theta of the loop space to minus its image."""

    def make(*args):
        mp = make_map(*args)
        theta = mp.source.named.get("Theta")  # None on the based loop space

        def wrong(elt):
            image = mp(elt)
            return -image if elt == theta else image

        return wrong

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
    monkeypatch.setattr(verify, "theta_star", _wrong_on_theta(verify.theta_star))
    report = verify.run("maps", ns=[3], rings=["Q"], degree_bound=12)
    failed = _failed(report, "theta(u*v) = theta(u)*theta(v)")
    assert failed and failed[0].detail


def test_a_wrong_gysin_image_fails_multiplicativity(monkeypatch) -> None:
    # j!(U*U) is wrong while j!(U).j!(U) is not
    monkeypatch.setattr(verify, "j_shriek", _wrong_on_theta(verify.j_shriek))
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
    verify.run("algebra", ns=[3], rings=["Q"], degree_bound=30)
    verify.run("quotient-product", ns=[3], degree_bound=30)
    counted = {label.split(": ")[0]: cases for label, (cases, _) in seen.items()
               if label.split(": ")[1].startswith(ASSOCIATIVITY)}
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

    monkeypatch.setattr(core.Element, "__mul__", wrong)
    report = verify.run("algebra", ns=[3], rings=["Q"], degree_bound=30)
    assert [c.line() for c in report.checks if not c.passed] == [
        "[FAIL] H(LS^3;Q): v*u = (-1)^((deg u - n)(deg v - n)) u*v, total degree <= 30  -- u=A, v=U^2",
        "[FAIL] H(LS^3;Q): (u*v)*w = u*(v*w) on basis triples, total degree <= 30  -- u=U, v=U, w=A",
    ]


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
