"""Expression grammar, context-checked evaluation, and print round trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loophom import (
    DomainError,
    EvalContext,
    ExprSyntaxError,
    based_loop_space,
    dihedral,
    evaluate,
    format_value,
    loop_space,
    parse,
    sphere_space,
    theta_group,
    values_equal,
)
from loophom.expr import MAX_NESTING, Bin, Call, Name, Neg, Num, Pow, tokenize

from exprgen import ExpressionSource


def _ctx(kind: str, n: int, ring: str = "Q", group=None) -> EvalContext:
    factory = {
        "loop": loop_space,
        "omega": based_loop_space,
        "sphere": sphere_space,
    }[kind]
    return EvalContext(factory(n, ring), group)


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def test_parse_shapes() -> None:
    node = parse("A + U*U")
    assert isinstance(node, Bin) and node.op == "+"
    assert isinstance(node.left, Name) and node.left.ident == "A"
    assert isinstance(node.right, Bin) and node.right.op == "*"

    node = parse("2*U^2")
    assert isinstance(node, Bin) and node.op == "*"
    assert isinstance(node.right, Pow) and node.right.exponent == 2

    node = parse("-U")
    assert isinstance(node, Neg)

    node = parse("P(q(U^2), q(U^2))")
    assert isinstance(node, Call) and node.fn == "P" and len(node.args) == 2

    node = parse("3/4")
    assert isinstance(node, Num) and node.value == Fraction(3, 4)


def test_exponent_binds_tighter_than_product() -> None:
    ctx = _ctx("loop", 3)
    u = loop_space(3, "Q").generator("U")
    assert evaluate("2*U^2", ctx) == 2 * u * u


def test_whitespace_and_newlines_are_insignificant() -> None:
    ctx = _ctx("loop", 3)
    assert evaluate("A +\n  U * U", ctx) == evaluate("A+U*U", ctx)


def test_double_caret_is_a_syntax_error_with_position() -> None:
    with pytest.raises(ExprSyntaxError) as info:
        parse("U^^2")
    assert str(info.value) == (
        "syntax error at line 1, column 3: expected exponent after '^', found '^'"
    )
    assert info.value.line == 1
    assert info.value.col == 3


def test_syntax_error_positions() -> None:
    with pytest.raises(ExprSyntaxError) as info:
        parse("U + $")
    assert info.value.col == 5
    with pytest.raises(ExprSyntaxError) as info:
        parse("U +\n+ U")
    assert info.value.line == 2
    with pytest.raises(ExprSyntaxError):
        parse("(U")
    with pytest.raises(ExprSyntaxError):
        parse("U)")
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("q(U,U,U)")
    with pytest.raises(ExprSyntaxError):
        parse("U^-2")


def test_numbers_are_ascii_digits_only() -> None:
    # '²' and '¹' are str.isdigit but no ASCII digit: refused, not sent to int()
    for text, col in (("U^²", 3), ("5¹", 2), ("٣", 1)):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert info.value.col == col


def test_unicode_digits_and_numerals_start_no_name() -> None:
    # '¹', 'Ⅻ' and '½' are str.isalnum (word characters) but not str.isalpha: a name starts with a letter or '_'
    for text in ("¹", "Ⅻ", "½", "½U"):
        with pytest.raises(ExprSyntaxError, match=f"unexpected character {text[0]!r}") as info:
            parse(text)
        assert (info.value.line, info.value.col) == (1, 1)
    assert parse("a²") == Name("a²", 1, 1)
    assert parse("_Ⅻ½") == Name("_Ⅻ½", 1, 1)


def test_only_a_line_feed_starts_a_line() -> None:
    # '\r', '\x0b', '\x1c' and NBSP are whitespace one column wide; str.splitlines would break at the first three
    tokens = tokenize("U\r\n+\x0bA\x1c*\xa0U\r")
    assert [(t.kind, t.line, t.col) for t in tokens] == [
        ("NAME", 1, 1), ("+", 2, 1), ("NAME", 2, 3), ("*", 2, 5), ("NAME", 2, 7), ("END", 2, 9)
    ]
    with pytest.raises(ExprSyntaxError) as info:
        parse("U +\xa0\x1c\n\x0b$")
    assert (info.value.line, info.value.col) == (2, 2)


_SCANNED = st.text(st.sampled_from(list("07aU_x²½Ⅻ٣é+-*^/(),$") + [" ", "\n", "\r", "\x0b", "\x1c", "\xa0"]))


@given(_SCANNED | st.text())
def test_each_token_and_error_points_at_its_own_text(text: str) -> None:
    lines = text.split("\n")  # the lines the scanner counts
    try:
        tokens = tokenize(text)
    except ExprSyntaxError as exc:
        ch = lines[exc.line - 1][exc.col - 1]
        assert str(exc).endswith(f"unexpected character {ch!r}") or "nested" in str(exc) and ch == "("
        return
    for tok in tokens[:-1]:
        assert lines[tok.line - 1][tok.col - 1:].startswith(tok.text)
    assert "".join(tok.text for tok in tokens) == "".join(ch for ch in text if not ch.isspace())
    assert tokens[-1] == ("END", "", len(lines), len(lines[-1]) + 1)


def test_long_literals_parse_exactly() -> None:
    ctx = _ctx("loop", 3)
    digits = "7" * 5000
    assert evaluate(digits, ctx) == int(digits[:2000]) * 10**3000 + int(digits[2000:])
    value = evaluate(f"{digits}/1{'0' * 4999}", ctx)
    assert value == Fraction(int(digits[:2500]) * 10**2500 + int(digits[2500:]), 10**4999)
    assert parse(f"U^{digits}") == Pow(Name("U", 1, 1), evaluate(digits, ctx), 1, 2)


def test_nesting_up_to_the_bound_parses_and_evaluates() -> None:
    ctx = _ctx("loop", 3)
    u = loop_space(3, "Q").generator("U")
    k = MAX_NESTING
    assert evaluate("(" * k + "U" + ")" * k, ctx) == u
    assert evaluate("theta(" * k + "U" + ")" * k, ctx) == (-1) ** k * u
    assert evaluate("(theta(" * (k // 2) + "U" + "))" * (k // 2), ctx) == (-1) ** (k // 2) * u


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
def test_nesting_past_the_bound_is_a_syntax_error_at_the_opening_token(depth: int) -> None:
    with pytest.raises(ExprSyntaxError, match="nested") as info:
        parse("(" * depth + "U" + ")" * depth)
    assert (info.value.line, info.value.col) == (1, MAX_NESTING + 1)
    with pytest.raises(ExprSyntaxError) as info:
        parse("theta(" * depth + "U" + ")" * depth)
    assert (info.value.line, info.value.col) == (1, 6 * MAX_NESTING + 6)
    with pytest.raises(ExprSyntaxError) as info:
        parse("U + (\n" * depth + "U" + ")" * depth)
    assert (info.value.line, info.value.col) == (MAX_NESTING + 1, 5)


def test_zero_denominator_is_a_syntax_error() -> None:
    with pytest.raises(ExprSyntaxError, match="zero denominator"):
        parse("1/0")


# ----------------------------------------------------------------------
# evaluation in context
# ----------------------------------------------------------------------


def test_eval_loop_product() -> None:
    ctx = _ctx("loop", 3)
    value = evaluate("U*U", ctx)
    assert value == loop_space(3, "Q").generator("Theta")
    assert format_value(value) == "U^2"


def test_eval_torsion_product_vanishes_over_q() -> None:
    assert format_value(evaluate("A*Theta", _ctx("loop", 4))) == "0"
    assert format_value(evaluate("A*Theta", _ctx("loop", 4, "Z"))) == "A*Theta"


def test_eval_transfer_product_example() -> None:
    ctx = _ctx("loop", 3, group=dihedral(1))
    assert format_value(evaluate("P(q(U^2), q(U^2))", ctx)) == "4*q(U^4)"
    assert format_value(evaluate("mu^2", ctx)) == "4*q(U^4)"
    assert format_value(evaluate("tr(mu)", ctx)) == "2*U^2"
    assert format_value(evaluate("e", ctx)) == "1/4*q(E)"


def test_eval_based_transfer_product() -> None:
    ctx = _ctx("omega", 3, group=dihedral(1))
    assert format_value(evaluate("POmega(q(x^2), q(x^2))", ctx)) == "4*q(x^4)"
    assert format_value(evaluate("q(x)", ctx)) == "0"


def test_eval_cross_space_maps() -> None:
    ctx = _ctx("loop", 3)
    assert format_value(evaluate("jshriek(U^2)", ctx)) == "x^2"
    assert format_value(evaluate("jstar(jshriek(U^3))", ctx)) == "A*U^3"
    assert format_value(evaluate("ev(A)", ctx)) == "pt"
    assert format_value(evaluate("ev(E)", ctx)) == "fundamental"
    assert format_value(evaluate("ev(U)", ctx)) == "0"
    assert format_value(evaluate("theta(U)", ctx)) == "-U"


def test_eval_scalars() -> None:
    ctx = _ctx("loop", 3)
    assert evaluate("2+3", ctx) == 5
    assert evaluate("2^3", ctx) == 8
    assert evaluate("1/2 + 1/2", ctx) == 1
    assert isinstance(evaluate("1/2 + 1/2", ctx), int)
    assert evaluate("-4", ctx) == -4
    assert evaluate("7/2", ctx) == Fraction(7, 2)


def test_scalars_promote_to_unit_multiples() -> None:
    ctx = _ctx("loop", 3)
    space = loop_space(3, "Q")
    assert evaluate("A + 1", ctx) == space.generator("A") + space.unit()
    assert evaluate("2 - A", ctx) == 2 * space.unit() - space.generator("A")
    assert evaluate("3*E", ctx) == 3 * space.unit()
    # and inside function arguments
    ctx_d1 = _ctx("loop", 3, group=dihedral(1))
    assert format_value(evaluate("q(2)", ctx_d1)) == "2*q(E)"


def test_a_product_expressions() -> None:
    ctx = _ctx("loop", 3, group=dihedral(1))
    assert format_value(evaluate("Avartheta(mu, mu)", ctx)) == "0"
    ctx4 = _ctx("loop", 4, group=theta_group())
    value = evaluate("Atheta(eta, eta)", ctx4)
    assert value == evaluate("P(eta, eta)", ctx4)  # sign +1 here: n(n-j) even
    # an inhomogeneous second argument is decomposed degree by degree
    combined = evaluate("Atheta(eta, eta + e)", ctx4)
    expected = evaluate("Atheta(eta, eta)", ctx4) + evaluate("Atheta(eta, e)", ctx4)
    assert combined == expected


def test_long_sums_and_products_evaluate_left_to_right() -> None:
    ctx = _ctx("loop", 3)
    u = loop_space(3, "Q").generator("U")
    assert evaluate("+".join(["U"] * 5000), ctx) == 5000 * u
    assert evaluate("*".join(["U"] * 5000), ctx) == u**5000
    assert evaluate("-U" + "+U-U" * 2500 + "*U", ctx) == -u * u
    # the leftmost failing operand is the one reported
    with pytest.raises(DomainError, match="unknown name 'nope'"):
        evaluate("+".join(["U"] * 5000 + ["nope", "spin(U)"]), ctx)
    with pytest.raises(DomainError, match="cannot multiply a homology class and a quotient class"):
        evaluate("*".join(["U"] * 5000 + ["mu", "nope"]), _ctx("loop", 3, group=dihedral(1)))


def test_eval_name_errors() -> None:
    with pytest.raises(DomainError, match="no group selected"):
        evaluate("mu", _ctx("loop", 3))
    with pytest.raises(DomainError, match="unknown name"):
        evaluate("U", _ctx("loop", 4))
    with pytest.raises(DomainError, match="unknown function"):
        evaluate("spin(U)", _ctx("loop", 3))


def test_eval_arity_and_domain_errors() -> None:
    ctx = _ctx("loop", 3, group=dihedral(1))
    with pytest.raises(DomainError, match="takes 1 argument"):
        evaluate("q(U, U)", ctx)
    with pytest.raises(DomainError, match="takes 2 arguments"):
        evaluate("P(mu)", ctx)
    with pytest.raises(DomainError):
        evaluate("q(U)", _ctx("loop", 3))  # no group
    with pytest.raises(DomainError):
        evaluate("tr(U)", ctx)  # not a quotient class
    with pytest.raises(DomainError):
        evaluate("theta(2)", ctx)
    with pytest.raises(DomainError):
        evaluate("mu + 2", ctx)
    with pytest.raises(DomainError):
        evaluate("U * mu", ctx)
    with pytest.raises(DomainError):
        evaluate("P(q(x), q(x))", _ctx("omega", 3, group=dihedral(1)))
    with pytest.raises(DomainError):
        evaluate("POmega(mu, mu)", ctx)
    with pytest.raises(DomainError):
        evaluate("jstar(U)", ctx)


def test_values_equal_identifications() -> None:
    space = based_loop_space(3, "Q")
    assert values_equal(2, 2 * space.unit())
    assert values_equal(2 * space.unit(), 2)
    assert not values_equal(2, 3 * space.unit())
    assert values_equal(Fraction(1, 2), Fraction(2, 4))
    ctx = _ctx("loop", 3, group=dihedral(1))
    zero_class = evaluate("q(U)", ctx)
    assert values_equal(0, zero_class)
    assert values_equal(zero_class, 0)
    assert not values_equal(1, zero_class)
    assert not values_equal(zero_class, evaluate("mu", ctx))
    # a quotient class is an Element too, yet no nonzero scalar names one, its unit q(E)/4 included
    e = evaluate("e", ctx)
    assert str(e) == "1/4*q(E)"
    for scalar in (Fraction(1, 4), 1):
        assert not values_equal(scalar, e) and not values_equal(e, scalar)


def test_quotient_classes_mix_with_neither_scalars_nor_homology_classes() -> None:
    ctx = _ctx("loop", 3, group=dihedral(1))
    for text, message in (
        ("1+q(U)", "cannot add a scalar and a quotient class"),
        ("mu-1", "cannot subtract a quotient class and a scalar"),
        ("q(U)*U", "cannot multiply a quotient class and a homology class"),
        ("mu+U", "cannot add a quotient class and a homology class"),
        ("tr(U)", r"tr\(...\) expects a quotient class"),
        ("tr(1)", r"tr\(...\) expects a quotient class"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            evaluate(text, ctx)
    assert str(evaluate("2*mu*3/4 - e + 0*mu", ctx)) == "-1/4*q(E) + 3/2*q(U^2)"


# ----------------------------------------------------------------------
# print/parse round trips
# ----------------------------------------------------------------------


def _round_trip_contexts() -> list:
    return [
        (
            _ctx("loop", 3, group=dihedral(1)),
            ExpressionSource(
                random.Random(11),
                ["A", "E", "U", "Theta", "sigma1"],
                allow_fractions=True,
                quotient_names=["mu", "e"],
            ),
        ),
        (
            _ctx("loop", 4, group=theta_group()),
            ExpressionSource(
                random.Random(12),
                ["A", "E", "sigma1", "Theta"],
                allow_fractions=True,
                quotient_names=["eta", "e"],
            ),
        ),
        (
            _ctx("loop", 5, "Z"),
            ExpressionSource(
                random.Random(13),
                ["A", "E", "U", "Theta"],
                allow_fractions=False,
            ),
        ),
        (
            _ctx("omega", 4, group=dihedral(1)),
            ExpressionSource(
                random.Random(14),
                ["x"],
                allow_fractions=True,
                quotient_names=["e"],
                product_fn="POmega",
            ),
        ),
        (
            _ctx("sphere", 6),
            ExpressionSource(
                random.Random(15),
                ["pt", "fundamental"],
                allow_fractions=True,
                has_reversal=False,
            ),
        ),
    ]


@pytest.mark.parametrize("case", range(5))
def test_print_parse_round_trip(case: int) -> None:
    ctx, source = _round_trip_contexts()[case]
    for _ in range(60):
        text = source.draw()
        value = evaluate(text, ctx)
        printed = format_value(value)
        again = evaluate(printed, ctx)
        assert values_equal(value, again), (text, printed)
        assert format_value(again) == printed


def test_canonical_output_is_stable_under_reparsing() -> None:
    ctx = _ctx("loop", 3)
    for text in ["U*U*U - A", "-A + U^2", "2*A*U^4 + 1/3*U", "E - E"]:
        printed = format_value(evaluate(text, ctx))
        assert format_value(evaluate(printed, ctx)) == printed
