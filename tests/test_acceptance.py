"""The ten-point acceptance gate, one printed pass/fail line per criterion.

Each criterion is checked exactly at its stated scope (dimension range,
coefficient rings, degree bounds, runtime targets) with exact arithmetic;
expected tables come from the independent closed forms in `oracles`.
"""

from __future__ import annotations

import contextlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from loophom import (
    DomainError,
    EvalContext,
    QElement,
    a_product,
    based_loop_space,
    chi_star,
    cyclic,
    dihedral,
    eta_class,
    ev_star,
    evaluate,
    format_value,
    j_shriek,
    j_star,
    loop_space,
    mu_class,
    quotient,
    reversal_power_sign,
    sphere_space,
    theta_group,
    theta_star,
    values_equal,
)
from loophom.verify import rank_of

from acceptance_report import record
from exprgen import ExpressionSource
from oracles import (
    is_two_torsion,
    loop_betti_closed_form,
    quotient_betti_closed_form,
)

TABLE_BOUND = 200
SWEEP_BOUND = 100
PAIR_BOUND = 60
POWER_BOUND = 25

REFLECTION_GROUPS = tuple(dihedral(m) for m in range(1, 6)) + (theta_group(),)
CYCLIC_GROUPS = tuple(cyclic(m) for m in range(2, 8))
# stdout of `loophom verify all` at the default bounds, recorded before the
# verify suites were rewritten around one search loop
GOLDEN_VERIFY_ALL = Path(__file__).resolve().parent / "golden" / "verify-all.txt"


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        record(number, description, False)
        print(f"[FAIL] criterion {number}: {description}")
        raise
    record(number, description, True)
    print(f"[PASS] criterion {number}: {description}")


def _classes(algebra, bound: int) -> list:
    return [
        (d, algebra.monomial_element(m))
        for d in range(bound + 1)
        for m in algebra.basis(d)
    ]


def _quotient_classes(q, bound: int) -> list:
    return [(d, q.monomial_element(m)) for d in range(bound + 1) for m in q.basis(d)]


# ----------------------------------------------------------------------
# 1. free-loop Betti tables
# ----------------------------------------------------------------------


def test_criterion_01_loop_betti_tables() -> None:
    with criterion(
        1,
        "free-loop Betti tables equal the closed-form families "
        "(n=3..7, rings Q and Z, degrees <= 200, under 5 s)",
    ):
        started = time.perf_counter()
        for n in (3, 4, 5, 6, 7):
            for ring in ("Q", "Z"):
                table = loop_space(n, ring).betti(TABLE_BOUND)
                computed = {
                    row.degree: (row.rank, len(row.torsion)) for row in table.rows
                }
                assert computed == loop_betti_closed_form(n, ring, TABLE_BOUND), (
                    n,
                    ring,
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"tables took {elapsed:.2f} s"


# ----------------------------------------------------------------------
# 2. integral torsion of the A*Theta^k classes
# ----------------------------------------------------------------------


def test_criterion_02_torsion_classes() -> None:
    with criterion(
        2,
        "over Z (n even) the classes A*Theta^k are nonzero 2-torsion for "
        "k=1..20 and vanish over Q",
    ):
        for n in (4, 6):
            space_z = loop_space(n, "Z")
            space_q = loop_space(n, "Q")
            theta_z = space_z.generator("Theta")
            theta_q = space_q.generator("Theta")
            for k in range(1, 21):
                cls = space_z.generator("A") * theta_z**k
                assert is_two_torsion(cls), (n, k)
                assert not space_q.generator("A") * theta_q**k, (n, k)


# ----------------------------------------------------------------------
# 3. quotient Betti tables
# ----------------------------------------------------------------------


def test_criterion_03_quotient_betti_tables() -> None:
    with criterion(
        3,
        "quotient Betti tables match the reflection closed form for "
        "D1..D5 and theta, and the unquotiented table for C2..C7 "
        "(n=3..6, degrees <= 200)",
    ):
        for n in (3, 4, 5, 6):
            space = loop_space(n, "Q")
            expected = quotient_betti_closed_form(n, TABLE_BOUND)
            for group in REFLECTION_GROUPS:
                table = quotient(space, group).betti(TABLE_BOUND)
                assert {r.degree: r.rank for r in table.rows} == expected, (
                    n,
                    group.label,
                )
            plain = [(r.degree, r.rank) for r in space.betti(TABLE_BOUND).rows]
            for group in CYCLIC_GROUPS:
                table = quotient(space, group).betti(TABLE_BOUND)
                assert [(r.degree, r.rank) for r in table.rows] == plain, (
                    n,
                    group.label,
                )


# ----------------------------------------------------------------------
# 4. transfer axioms and the product comparison
# ----------------------------------------------------------------------


def test_criterion_04_transfer_axioms() -> None:
    with criterion(
        4,
        "transfer axioms q(tr(a))=|G|a and tr(q(z))=sum_g g(z), with "
        "tr(P(a,b))=|G|tr(a)*tr(b) and q(x*y)=|G|^-2 P(q(x),q(y)), "
        "degrees <= 100",
    ):
        for n in (3, 4, 5, 6):
            space = loop_space(n, "Q")
            monomials = _classes(space, SWEEP_BOUND)
            for group in REFLECTION_GROUPS + CYCLIC_GROUPS:
                q = quotient(space, group)
                order = group.order
                for _, z in monomials:
                    assert q.transfer(q.project(z)) == q.action_sum(z)
                represented = _quotient_classes(q, SWEEP_BOUND)
                for _, a in represented:
                    assert q.project(q.transfer(a)) == order * a
                scale = Fraction(1, order**2)
                for da, a in represented:
                    for db, b in represented:
                        if da + db > SWEEP_BOUND:
                            break
                        assert q.transfer(q.product(a, b)) == order * (
                            q.transfer(a) * q.transfer(b)
                        )
                        # P through its definition q(tr(a)*tr(b)), not through `product`
                        assert q.project(a.rep * b.rep) == scale * q.project(
                            q.transfer(a) * q.transfer(b)
                        )


# ----------------------------------------------------------------------
# 5. ring laws of the transfer product
# ----------------------------------------------------------------------


def test_criterion_05_transfer_product_laws() -> None:
    with criterion(
        5,
        "the transfer product is associative (triples <= 60), graded "
        "commutative with sign (deg-n)(deg-n), and unital with "
        "e = q(E)/|G|^2",
    ):
        for n in (3, 4, 5, 6):
            space = loop_space(n, "Q")
            for group in (dihedral(1), dihedral(2), theta_group(), cyclic(3)):
                q = quotient(space, group)
                classes = _quotient_classes(q, PAIR_BOUND)
                e = q.unit()
                assert e.rep == (
                    space.unit() * Fraction(1, group.order**2)
                )
                for _, a in classes:
                    assert q.product(e, a) == a
                    assert q.product(a, e) == a
                for da, a in classes:
                    for db, b in classes:
                        if da + db > PAIR_BOUND:
                            break
                        sign = -1 if ((da - n) * (db - n)) % 2 else 1
                        assert q.product(b, a) == sign * q.product(a, b)
                        ab = q.product(a, b)
                        for dc, c in classes:
                            if da + db + dc > PAIR_BOUND:
                                break
                            assert q.product(ab, c) == q.product(a, q.product(b, c))


# ----------------------------------------------------------------------
# 6. the nonnilpotence theorem on the reflection quotient
# ----------------------------------------------------------------------


def test_criterion_06_nonnilpotent_classes() -> None:
    with criterion(
        6,
        "mu^k (n=3,5) and eta^k (n=4,6) span their degrees for k <= 25; "
        "pairing with the class is bijective on degrees <= 100 "
        "(from 0 for n odd, from 1 for n even, sharp at 0)",
    ):
        for n in (3, 4, 5, 6):
            q = quotient(loop_space(n, "Q"), dihedral(1))
            if n % 2:
                cls, stride, start = mu_class(q), 2, 0
            else:
                cls, stride, start = eta_class(q), 4, 1

            power = q.unit()
            for k in range(1, POWER_BOUND + 1):
                power = q.product(power, cls)
                degree = stride * k * (n - 1) + n
                monos = q.invariants(degree)
                assert power, (n, k)
                assert len(monos) == 1, (n, k)
                assert set(power.rep.terms) == {monos[0]}, (n, k)

            shift = cls.degree() - n
            for i in range(start, SWEEP_BOUND + 1):
                src = q.basis(i)
                dst = q.invariants(i + shift)
                images = [q.product(q.monomial_element(m), cls).rep for m in src]
                assert len(src) == len(dst), (n, i)
                assert rank_of(images, dst) == len(dst), (n, i)

            if n % 2 == 0:
                a_q = q.project(loop_space(n, "Q").generator("A"))
                assert a_q
                assert not q.product(a_q, cls)


# ----------------------------------------------------------------------
# 7. structure-map identities
# ----------------------------------------------------------------------


def test_criterion_07_structure_maps() -> None:
    with criterion(
        7,
        "loop reversal is an involutive product endomorphism (<= 60, both "
        "parities and rings), the Pontrjagin sign law and power-sign case "
        "split hold for k <= 40, the Gysin identities hold on pairs <= 60, "
        "and ev is an algebra map",
    ):
        for n in (3, 4):
            for ring in ("Q", "Z"):
                space = loop_space(n, ring)
                omega = based_loop_space(n, ring)
                th = theta_star(space)
                tho = theta_star(omega)
                classes = _classes(space, PAIR_BOUND)

                for _, u in classes:
                    assert th(th(u)) == u
                for du, u in classes:
                    for dv, v in classes:
                        if du + dv > PAIR_BOUND:
                            break
                        assert th(u * v) == th(u) * th(v)

                based = [omega.monomial_element(omega.monomial((k,))) for k in range(41)]
                for k in range(41):
                    assert tho(based[k]) == reversal_power_sign(n, k) * based[k]
                    if n % 2 or (k * (k - 1)) % 4 == 0:
                        assert reversal_power_sign(n, k) == (-1 if k % 2 else 1)
                    else:
                        assert reversal_power_sign(n, k) == (1 if k % 2 else -1)
                for i in range(0, 41):
                    for j in range(0, 41 - i):
                        sign = -1 if (i * (n - 1) * j * (n - 1)) % 2 else 1
                        assert sign * (tho(based[i]) * tho(based[j])) == tho(
                            based[i] * based[j]
                        )

                jb, ji = j_shriek(n, ring), j_star(n, ring)
                a_cls = space.generator("A")
                based_classes = [
                    (omega.monomial_degree(mono), omega.monomial_element(mono))
                    for mono in map(omega.monomial, ((k,) for k in range(PAIR_BOUND // (n - 1) + 1)))
                ]
                for du, u in classes:
                    for dv, v in classes:
                        if du + dv > PAIR_BOUND:
                            break
                        assert jb(u * v) == jb(u) * jb(v)
                for dy, y in based_classes:
                    for da, a in classes:
                        if dy + da > PAIR_BOUND:
                            break
                        assert ji(y) * a == ji(y * jb(a))
                for _, a in classes:
                    assert ji(jb(a)) == a_cls * a

                ev = ev_star(n, ring)
                for du, u in classes:
                    for dv, v in classes:
                        if du + dv > PAIR_BOUND:
                            break
                        assert ev(u * v) == ev(u) * ev(v)
                assert ev(space.unit()) == sphere_space(n, ring).unit()


# ----------------------------------------------------------------------
# 8. quotient homomorphisms
# ----------------------------------------------------------------------


def test_criterion_08_quotient_homomorphisms() -> None:
    with criterion(
        8,
        "the quotient evaluation map obeys the |G|^2 scaling law and the "
        "quotient Gysin map takes P to the based transfer product "
        "(G=D1, n=3 and 4, pairs <= 60)",
    ):
        for n in (3, 4):
            group = dihedral(1)
            q = quotient(loop_space(n, "Q"), group)
            qo = quotient(based_loop_space(n, "Q"), group)
            ev = ev_star(n, "Q")
            jb = j_shriek(n, "Q")
            inv = Fraction(1, group.order)

            def ev_quot(a: QElement):
                return inv * ev(q.transfer(a))

            def j_quot(a: QElement) -> QElement:
                return qo.project(jb(q.transfer(a))) * inv

            classes = _quotient_classes(q, PAIR_BOUND)
            for da, a in classes:
                for db, b in classes:
                    if da + db > PAIR_BOUND:
                        break
                    assert ev_quot(q.product(a, b)) == group.order**2 * (
                        ev_quot(a) * ev_quot(b)
                    )
                    assert j_quot(q.product(a, b)) == qo.product(
                        j_quot(a), j_quot(b)
                    )
            assert ev_quot(q.unit()) == sphere_space(n, "Q").unit() / group.order**2
            assert j_quot(q.unit()) == qo.unit()


# ----------------------------------------------------------------------
# 9. the two reflection quotients and the class-A products
# ----------------------------------------------------------------------


def test_criterion_09_reflection_comparison_and_a_products() -> None:
    with criterion(
        9,
        "the two reflection quotients carry identified transfer products "
        "(pairs <= 60, n=3 and 4); the vartheta A-product vanishes for n "
        "odd and (-1)^(n(n-j)) A = P for the remaining variants",
    ):
        for n in (3, 4):
            space = loop_space(n, "Q")
            qv = quotient(space, dihedral(1))
            qt = quotient(space, theta_group())
            chi = chi_star(space)

            def compare(a: QElement) -> QElement:
                return qt.project(chi(a.rep))

            v_classes = _quotient_classes(qv, PAIR_BOUND)
            t_classes = _quotient_classes(qt, PAIR_BOUND)
            for d in range(PAIR_BOUND + 1):
                assert qv.invariants(d) == qt.invariants(d)
            for da, a in v_classes:
                for db, b in v_classes:
                    if da + db > PAIR_BOUND:
                        break
                    assert compare(qv.product(a, b)) == qt.product(
                        compare(a), compare(b)
                    )
            assert compare(qv.unit()) == qt.unit()

            for da, a in v_classes:
                for db, b in v_classes:
                    if da + db > PAIR_BOUND:
                        break
                    sign = -1 if (n * (n - db)) % 2 else 1
                    if n % 2:
                        assert not a_product("vartheta", qv, a, b)
                    else:
                        assert sign * a_product("vartheta", qv, a, b) == qv.product(
                            a, b
                        )
            for da, a in t_classes:
                for db, b in t_classes:
                    if da + db > PAIR_BOUND:
                        break
                    sign = -1 if (n * (n - db)) % 2 else 1
                    assert sign * a_product("theta", qt, a, b) == qt.product(a, b)


# ----------------------------------------------------------------------
# 10. the command-line interface
# ----------------------------------------------------------------------


def _round_trip_sources() -> list:
    return [
        (
            EvalContext(loop_space(3, "Q"), dihedral(1)),
            ExpressionSource(
                random.Random(101),
                ["A", "E", "U", "Theta", "sigma1"],
                allow_fractions=True,
                quotient_names=["mu", "e"],
            ),
        ),
        (
            EvalContext(loop_space(4, "Q"), theta_group()),
            ExpressionSource(
                random.Random(102),
                ["A", "E", "sigma1", "Theta"],
                allow_fractions=True,
                quotient_names=["eta", "e"],
            ),
        ),
        (
            EvalContext(loop_space(5, "Z")),
            ExpressionSource(
                random.Random(103), ["A", "E", "U", "Theta"], allow_fractions=False
            ),
        ),
        (
            EvalContext(based_loop_space(4, "Q"), dihedral(1)),
            ExpressionSource(
                random.Random(104),
                ["x"],
                allow_fractions=True,
                quotient_names=["e"],
                product_fn="POmega",
            ),
        ),
        (
            EvalContext(sphere_space(6, "Q")),
            ExpressionSource(
                random.Random(105),
                ["pt", "fundamental"],
                allow_fractions=True,
                has_reversal=False,
            ),
        ),
    ]


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "loophom.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_criterion_10_cli() -> None:
    with criterion(
        10,
        "1000 generated expressions survive the print/parse round trip, "
        "JSON output is byte-identical across runs, and `verify all` "
        "exits 0 for n=3..6 in under 60 s",
    ):
        total = 0
        for context, source in _round_trip_sources():
            for _ in range(200):
                text = source.draw()
                value = evaluate(text, context)
                printed = format_value(value)
                assert values_equal(value, evaluate(printed, context)), (
                    text,
                    printed,
                )
                total += 1
        assert total == 1000

        json_args = (
            "betti", "--space", "loop", "--n", "4", "--ring", "Z",
            "--max-degree", "40", "--format", "json",
        )
        first = _cli(*json_args)
        second = _cli(*json_args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # and it is valid JSON
        quot_args = (
            "betti", "--n", "3", "--group", "D1",
            "--max-degree", "40", "--format", "json",
        )
        assert _cli(*quot_args).stdout == _cli(*quot_args).stdout

        started = time.perf_counter()
        result = _cli("verify", "all")
        elapsed = time.perf_counter() - started
        assert result.returncode == 0, result.stdout[-2000:]
        assert "checks passed" in result.stdout
        assert "[FAIL]" not in result.stdout
        assert result.stdout == GOLDEN_VERIFY_ALL.read_text(), "verify all report changed"
        assert elapsed < 60.0, f"verify all took {elapsed:.1f} s"
