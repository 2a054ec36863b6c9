"""Seeded faults: each pair check that reads a per-class image made once per class still compares two sides
computed apart, so a wrong map or transfer makes it fail with a counterexample."""

from __future__ import annotations

from loophom import equivariant, verify


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

