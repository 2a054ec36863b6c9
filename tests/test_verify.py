"""Seeded faults: each pair check that reads a per-class image, or a pair product, made once still compares two
sides computed apart, so a wrong map, transfer or product makes it fail with a counterexample."""

from __future__ import annotations

from loophom import based_loop_space, core, dihedral, equivariant, quotient, verify


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
