"""Command-line behaviour: output bytes, exit codes, error reporting."""

from __future__ import annotations

import decimal
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from loophom import (
    DomainError,
    StructureError,
    Subgroup,
    based_loop_space,
    cli,
    core,
    cyclic,
    dihedral,
    loop_space,
    sphere_space,
    verify,
)
from loophom.core import (
    FRACTION_WORK,
    MAX_PRODUCT_PAIRS,
    POWER_BITS,
    POWER_TERMS,
    POWER_WORK,
    check_sum,
    check_work,
    power,
)
from loophom.expr import MAX_NESTING, EvalContext, evaluate
from loophom.spaces import MAX_N_DIGITS

from oracles import decimal_value

EXPECTED_LOOP4Z_JSON = (
    '{"space":"loop","n":4,"ring":"Z","group":null,"max_degree":6,"entries":'
    '[{"degree":0,"rank":1,"torsion":[],"generators":["A"],"family":null},'
    '{"degree":3,"rank":1,"torsion":[],"generators":["sigma1"],"family":"lambda_1"},'
    '{"degree":4,"rank":1,"torsion":[],"generators":["E"],"family":null},'
    '{"degree":6,"rank":0,"torsion":[2],"generators":["A*Theta"],"family":"n-1+lambda_1"}]}'
)

EXPECTED_LOOP4_D1_JSON = (
    '{"space":"loop","n":4,"ring":"Q","group":"D1","max_degree":12,"entries":'
    '[{"degree":0,"rank":1,"torsion":[],"generators":["q(A)"],"family":null},'
    '{"degree":4,"rank":1,"torsion":[],"generators":["q(E)"],"family":null},'
    '{"degree":9,"rank":1,"torsion":[],"generators":["q(sigma1*Theta)"],"family":"lambda_2"}]}'
)

EXPECTED_D1_TABLE = """\
# loop S^3, ring Q, group D1, degrees <= 12
degree  rank  torsion  family         generators
0       1     -        -              q(A)
3       1     -        -              q(E)
4       1     -        n-1+lambda_1   q(A*U^2)
7       1     -        2n-1+lambda_1  q(U^2)
8       1     -        n-1+lambda_2   q(A*U^4)
11      1     -        2n-1+lambda_2  q(U^4)
12      1     -        n-1+lambda_3   q(A*U^6)
"""


def _run(capsys, *argv: str):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------


def test_eval_prints_canonical_form(capsys) -> None:
    code, out, err = _run(capsys, "eval", "U*U", "--n", "3", "--ring", "Z")
    assert (code, out, err) == (0, "U^2\n", "")


def test_eval_default_space_and_ring(capsys) -> None:
    code, out, _ = _run(capsys, "eval", "A*Theta", "--n", "4")
    assert (code, out) == (0, "0\n")


def test_eval_transfer_product(capsys) -> None:
    code, out, _ = _run(
        capsys, "eval", "P(q(U^2), q(U^2))", "--n", "3", "--group", "D1"
    )
    assert (code, out) == (0, "4*q(U^4)\n")


def test_eval_json_format(capsys) -> None:
    code, out, _ = _run(
        capsys, "eval", "U*U", "--n", "3", "--ring", "Z", "--format", "json"
    )
    assert (code, out) == (0, '{"value":"U^2"}\n')


def test_eval_syntax_error_reports_position(capsys) -> None:
    code, out, err = _run(capsys, "eval", "U^^2", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == (
        "error: syntax error at line 1, column 3: "
        "expected exponent after '^', found '^'\n"
    )


def test_eval_domain_error_exits_2(capsys) -> None:
    code, _, err = _run(capsys, "eval", "U", "--n", "4")
    assert code == 2
    assert err.startswith("error: unknown name 'U'")
    code, _, err = _run(capsys, "eval", "q(U)", "--n", "3")
    assert code == 2
    code, _, err = _run(capsys, "eval", "q(U)", "--n", "3", "--ring", "Z", "--group", "D1")
    assert code == 2  # quotients need ring Q


def test_eval_expression_with_a_leading_minus_goes_after_a_double_dash(capsys) -> None:
    # argparse reads an argument that begins with '-' as an option; after '--' it is the expression
    assert _run(capsys, "eval", "--n", "3", "--", "-U") == (0, "-U\n", "")
    assert _run(capsys, "eval", "--n", "4", "--ring", "Z", "--", "-(A*Theta)") == (0, "A*Theta\n", "")
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "-U", "--n", "3"])
    assert exc.value.code == 2
    assert "the following arguments are required: expression" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["eval", "--help"])
    assert "goes after '--'" in capsys.readouterr().out


def test_verify_help_names_the_defaults(capsys) -> None:
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    out = " ".join(capsys.readouterr().out.split())  # argparse wraps help text at the terminal's width
    sweep, product, power = verify.SWEEP_BOUND, verify.PRODUCT_BOUND, verify.POWER_BOUND
    assert f"sphere dimension (repeatable; default {' '.join(map(str, verify.DEFAULT_NS))})" in out
    assert "(default both); the suites on quotients always run over Q" in out
    assert f"at most {sweep} (default {sweep} for transfer and main-theorem, {product} for the others)" in out
    assert f"highest power of a nonnilpotent class, at most {sweep} (default {power})" in out


def test_group_parsing(capsys) -> None:
    for text, order in (("C3", 3), ("D4", 8), ("theta", 2)):
        assert cli.parse_group(text).order == order
    code, _, err = _run(capsys, "eval", "E", "--n", "3", "--group", "X3")
    assert code == 2
    assert "unknown group" in err
    code, _, err = _run(capsys, "eval", "E", "--n", "3", "--group", "C0")
    assert code == 2


def _loophom(*argv: str) -> tuple:
    result = subprocess.run([sys.executable, "-m", "loophom.cli", *argv], capture_output=True, text=True, timeout=60)
    return result.returncode, result.stdout, result.stderr


def test_group_parameters_of_any_length() -> None:
    # past the 4300-digit int<->str limit, in a child process, so a traceback would show as exit 1
    nines = "9" * 5000
    assert _loophom("eval", "q(U)", "--n", "3", "--group", "C" + nines) == (0, "q(U)\n", "")
    code, out, err = _loophom("betti", "--n", "3", "--group", "D" + nines, "--max-degree", "5")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"# loop S^3, ring Q, group D{nines}, degrees <= 5"
    assert _loophom("eval", "q(U)", "--n", "3", "--group", "C" + "0" * 5000) == (
        2, "", "error: group parameter must be >= 1, got 0\n"
    )


@pytest.mark.parametrize(
    "expression,n,out",
    [
        ("2*U*1/2", 3, "U"),
        ("0*U", 3, "0"),
        ("A*Theta*4/2", 4, "0"),
        ("2*(A*Theta)", 4, "0"),
        ("3*(A*Theta)", 4, "A*Theta"),
    ],
)
def test_integral_scalings_over_z(capsys, expression: str, n: int, out: str) -> None:
    # a fractional scalar is accepted over Z when every coefficient it makes is integral;
    # then A*Theta, 2-torsion for n even, is reduced mod 2
    assert _run(capsys, "eval", expression, "--n", str(n), "--ring", "Z") == (0, out + "\n", "")


@pytest.mark.parametrize(
    "expression,n,fraction", [("U*1/2", 3, "1/2"), ("1/2*U*2", 3, "1/2"), ("A*Theta*5/2", 4, "5/2")]
)
def test_fractional_scalings_over_z_are_refused(capsys, expression: str, n: int, fraction: str) -> None:
    # the fraction is refused before the mod-2 reduction, which would turn 5/2 into 1/2
    assert _run(capsys, "eval", expression, "--n", str(n), "--ring", "Z") == (
        2, "", f"error: fractional coefficient {fraction} needs ring Q, not Z\n"
    )


# ----------------------------------------------------------------------
# betti
# ----------------------------------------------------------------------


def test_betti_quotient_table_ascii(capsys) -> None:
    code, out, _ = _run(
        capsys, "betti", "--n", "3", "--group", "D1", "--max-degree", "12"
    )
    assert code == 0
    assert out == EXPECTED_D1_TABLE


def test_betti_json_is_byte_frozen(capsys) -> None:
    for argv, expected in (
        (("--space", "loop", "--n", "4", "--ring", "Z", "--max-degree", "6"), EXPECTED_LOOP4Z_JSON),
        (("--n", "4", "--group", "D1", "--max-degree", "12"), EXPECTED_LOOP4_D1_JSON),
    ):
        assert _run(capsys, "betti", *argv, "--format", "json") == (0, expected + "\n", "")


def test_betti_json_is_deterministic_across_runs(capsys) -> None:
    args = ("betti", "--n", "5", "--max-degree", "40", "--format", "json")
    outputs = {_run(capsys, *args)[1] for _ in range(3)}
    assert len(outputs) == 1
    payload = json.loads(outputs.pop())
    assert payload["space"] == "loop"
    assert [e["degree"] for e in payload["entries"]] == sorted(
        e["degree"] for e in payload["entries"]
    )


def test_betti_sphere_ascii_has_no_group_column(capsys) -> None:
    code, out, _ = _run(
        capsys, "betti", "--space", "sphere", "--n", "5", "--max-degree", "5"
    )
    assert code == 0
    assert out.splitlines()[0] == "# sphere S^5, ring Q, degrees <= 5"
    assert out.splitlines()[-1] == "5       1     -        -       fundamental"


def test_betti_refuses_a_degree_past_the_table_ceiling(capsys) -> None:
    start = time.perf_counter()
    code, out, err = _run(capsys, "betti", "--n", "3", "--max-degree", "100001")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "max_degree must be in 0..100000" in err


def test_betti_errors_exit_2(capsys) -> None:
    code, _, err = _run(capsys, "betti", "--n", "3", "--max-degree", "-1")
    assert code == 2
    assert "max_degree" in err
    code, _, err = _run(capsys, "betti", "--n", "1")
    assert code == 2


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_single_suite_passes(capsys) -> None:
    code, out, _ = _run(
        capsys, "verify", "presentation", "--n", "3", "--degree-bound", "30"
    )
    assert code == 0
    assert "[ok  ]" in out
    assert "[FAIL]" not in out
    assert "checks passed" in out.splitlines()[-1]


def test_verify_unknown_suite_exits_2(capsys) -> None:
    code, _, err = _run(capsys, "verify", "nonsense", "--n", "3")
    assert code == 2
    assert "suite" in err


@pytest.mark.parametrize("flag", ["--degree-bound", "--power-bound"])
def test_verify_negative_bounds_exit_2(capsys, flag: str) -> None:
    code, out, err = _run(capsys, "verify", "algebra", "--n", "3", flag, "-5")
    assert (code, out) == (2, "")
    assert "bound must be >= 0" in err


@pytest.mark.parametrize("flag", ["--degree-bound", "--power-bound"])
def test_verify_refuses_a_bound_past_the_sweep_bound(capsys, flag: str) -> None:
    suite = "quotient-product" if flag == "--degree-bound" else "main-theorem"
    start = time.perf_counter()
    code, out, err = _run(capsys, "verify", suite, "--n", "3", flag, "101")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"{flag.split('-')[2]} bound must be <= 100" in err
    code, out, _ = _run(capsys, "verify", "presentation", "--n", "3", flag, "100")
    assert code == 0
    assert out.splitlines()[0].endswith("degree bound 100") == (flag == "--degree-bound")
    assert out.splitlines()[-1] == "6/6 checks passed"


@pytest.mark.parametrize("ns", [("3", "3"), ("3", "4", "3", "3")])
def test_verify_refuses_a_repeated_n(capsys, ns) -> None:
    # each suite would run once per copy, printing every line again
    argv = ["verify", "all"]
    for n in ns:
        argv += ["--n", n]
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: each n may be given once, got n = 3 more than once\n")
    with pytest.raises(DomainError, match="each n may be given once"):
        verify.run("algebra", ns=[3, 4, 3])


@pytest.mark.parametrize("bound", [2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("flag", ["degree", "power"])
def test_verify_refuses_a_bound_that_is_not_an_int(flag: str, bound) -> None:
    # 2.5 raised TypeError from a suite, and True ran as 1 and was printed as "degree bound True"
    with pytest.raises(DomainError, match=f"^{flag} bound must be an int, got {bound!r}$"):
        verify.run("algebra", ns=[5], **{f"{flag}_bound": bound})


@pytest.mark.parametrize("rings", [["Q", "Q"], ("Z", "Q", "Z")], ids=repr)
def test_verify_refuses_a_repeated_ring(rings) -> None:
    # each check would run once per copy, as a repeated n would
    with pytest.raises(DomainError, match=f"^each ring may be given once, got ring = {rings[0]} more than once$"):
        verify.run("gysin", ns=[5], rings=rings)
    with pytest.raises(DomainError, match=r"^unknown ring 'R' \(use Q or Z\)$"):
        verify.run("gysin", ns=[5], rings=["Q", "R"])


def test_verify_refuses_an_n_that_is_not_an_int() -> None:
    for ns in ([5.0], [3, "4"], [True]):
        with pytest.raises(DomainError, match=f"^n must be an int, got {ns[-1]!r}$"):
            verify.run("algebra", ns=ns, degree_bound=0)


def test_verify_names_the_first_repeated_n_not_the_list() -> None:
    with pytest.raises(DomainError) as info:
        verify.run("all", ns=[3] * 20000)
    assert str(info.value) == "each n may be given once, got n = 3 more than once"
    with pytest.raises(DomainError, match="got n = 5 more than once"):
        verify.run("algebra", ns=[3, 5, 4, 5, 3])


@pytest.mark.parametrize("command", [("eval", "U"), ("betti",), ("verify", "all")])
def test_an_argv_past_the_ceiling_is_refused_before_argparse(command) -> None:
    # argparse's time grows with the square of the number of flags: 10,000 --n took seconds
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", *command, *["--n", "3"] * 20000],
        capture_output=True,
        text=True,
        timeout=1.0,
    )
    assert (result.returncode, result.stdout) == (2, "")
    count = len(command) + 40000
    assert result.stderr == f"error: at most {cli.MAX_ARGV} command-line arguments may be given, got {count}\n"
    assert len(result.stderr.encode()) < 200


def test_the_longest_legitimate_argv_runs(capsys) -> None:
    argv = ["verify", "algebra", "--ring", "Q", "--degree-bound", "0", "--power-bound", "0"]
    for n in range(3, 3 + verify.MAX_NS):
        argv += ["--n", str(n)]
    assert len(argv) == 40
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith("checks passed")
    at_ceiling = ["eval", "U"] + ["--n", "3"] * ((cli.MAX_ARGV - 2) // 2)
    assert len(at_ceiling) == cli.MAX_ARGV
    assert _run(capsys, *at_ceiling) == (0, "U\n", "")
    past = (2, "", f"error: at most {cli.MAX_ARGV} command-line arguments may be given, got {cli.MAX_ARGV + 1}\n")
    assert _run(capsys, *at_ceiling, "--ring=Q") == past


def test_verify_refuses_more_distinct_ns_than_its_ceiling(capsys) -> None:
    # every suite runs once per n, so without a ceiling one argv could ask for thousands of runs
    argv = ["verify", "all"]
    for n in range(3, verify.MAX_NS + 4):
        argv += ["--n", str(n)]
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: at most 16 distinct values of n may be given, got 17\n")
    assert verify.run("algebra", ns=range(3, verify.MAX_NS + 3), rings=["Q"], degree_bound=0).passed


def test_verify_title_notes_a_zero_degree_bound(capsys) -> None:
    code, out, _ = _run(capsys, "verify", "algebra", "--n", "3", "--degree-bound", "0")
    assert code == 0
    assert out.splitlines()[0] == "verify algebra: n in [3], rings ['Q', 'Z'], degree bound 0"


def test_verify_restricts_to_requested_ring(capsys) -> None:
    code, out, _ = _run(
        capsys, "verify", "algebra", "--n", "4", "--ring", "Z",
        "--degree-bound", "20", "--power-bound", "5",
    )
    assert code == 0
    assert ";Z)" in out
    assert ";Q)" not in out


def test_verify_refuses_a_bad_n_before_any_suite_runs() -> None:
    # n = 2 is refused by the quotient suites only; the four suites before them used to run first, for seconds
    start = time.perf_counter()
    result = _loophom("verify", "all", "--n", "3", "--n", "2")
    assert time.perf_counter() - start < 1.0
    assert result == (2, "", "error: quotient claims are modeled for n >= 3\n")
    code, out, err = _loophom("verify", "algebra", "--n", "2")
    assert (code, err) == (0, "")
    assert out.startswith("verify algebra: n in [2]")


@pytest.mark.parametrize("n", [10**5000, -(10**5000), 10**MAX_N_DIGITS], ids=["10^5000", "-10^5000", "10^MAX_N_DIGITS"])
def test_an_n_past_the_digit_ceiling_is_a_domain_error(n: int) -> None:
    # past 4300 digits, Python converts no int to a string: a label formatting n raised ValueError
    for make in (loop_space, based_loop_space, sphere_space):
        with pytest.raises(DomainError) as info:
            make(n, "Q")
        assert str(info.value) == f"n must have at most {MAX_N_DIGITS} digits"
    for suite in ("algebra", "all"):
        with pytest.raises(DomainError, match=f"^n must have at most {MAX_N_DIGITS} digits$"):
            verify.run(suite, ns=[n], degree_bound=0)
    # the ceiling is checked before repeats, so a repeated n is never printed
    with pytest.raises(DomainError, match=f"^n must have at most {MAX_N_DIGITS} digits$"):
        verify.run("algebra", ns=[n, n], degree_bound=0)


def test_an_n_at_the_digit_ceiling_answers() -> None:
    n = 10**MAX_N_DIGITS - 1
    assert loop_space(n, "Q").label.endswith("99;Q)")
    assert _loophom("eval", "U", "--n", str(n)) == (0, "U\n", "")
    report = verify.run("all", ns=[n], degree_bound=2, power_bound=2)
    assert report.passed and str(n) in report.render()


@pytest.mark.parametrize(
    "argv",
    [("eval", "U", "--n"), ("betti", "--n"), ("betti", "--n", "3", "--max-degree"), ("verify", "all", "--n"),
     ("verify", "all", "--degree-bound"), ("verify", "all", "--power-bound")],
)
def test_an_integer_flag_of_5000_digits_is_refused_in_one_short_line(argv) -> None:
    # argparse echoed all 5,000 digits under its usage text, 5.2 KB of stderr
    code, out, err = _loophom(*argv, "9" * 5000)
    assert (code, out) == (2, "")
    assert err == f"error: an integer flag may have at most {MAX_N_DIGITS} characters, got 5000\n"
    assert len(err.encode()) < 200


BIG = 10**5000  # past the 4300-digit int->str limit, where str and repr of it raise ValueError


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: loop_space(3, "Q").betti(BIG), "max_degree must be in 0..100000, got an int of 5001 digits"),
        (lambda: loop_space(3, "Q").table(-BIG, loop_space(3, "Q")),
         "max_degree must be in 0..100000, got an int of 5001 digits"),
        (lambda: verify.run("algebra", ns=[3], degree_bound=BIG), "degree bound must be <= 100, got an int of 5001 digits"),
        (lambda: verify.run("algebra", ns=[3], power_bound=-BIG), "power bound must be >= 0, got an int of 5001 digits"),
        (lambda: Subgroup(-BIG, True), "subgroup parameter m must be an int >= 1, got an int of 5001 digits"),
        (lambda: loop_space(3, "Q").monomial(BIG), "an int of 5001 digits is not an exponent vector of H(LS^3;Q)"),
        (lambda: loop_space(3, "Q").monomial((BIG, 0)),
         "a tuple of more than 100 characters is not an exponent vector of H(LS^3;Q)"),
        (lambda: sphere_space(3, "Q").normalize([(1, BIG)]), "an int of 5001 digits is not a monomial of H(S^3;Q)"),
        (lambda: loop_space(3, "Q").normalize([(1, -BIG)]), "an int of 5001 digits is not a monomial of H(LS^3;Q)"),
        (lambda: loop_space(4, "Z").normalize([(Fraction(BIG, 3), 0)]),
         "fractional coefficient a Fraction of more than 100 characters needs ring Q, not Z"),
        # an n passes the digit ceiling with up to 4,000 digits, and its own refusals named all of them
        (lambda: loop_space(-(10**3999) - 1, "Q"), "odd n must be >= 3, got an int of 4000 digits"),
        (lambda: loop_space(-(10**3999), "Q"), "even n must be >= 2, got an int of 4000 digits"),
        (lambda: based_loop_space(-(10**3999), "Q"), "n must be >= 2, got an int of 4000 digits"),
        (lambda: sphere_space(-(10**3999), "Q"), "n must be >= 2, got an int of 4000 digits"),
        (lambda: verify.run("algebra", ns=[10**3999, 10**3999]),
         "each n may be given once, got n = an int of 4000 digits more than once"),
    ],
    ids=["betti", "table", "degree-bound", "power-bound", "subgroup", "monomial", "exponent-vector", "normalize",
         "negative-monomial", "fraction-over-Z", "odd-n", "even-n", "based-n", "sphere-n", "repeated-n"],
)
def test_a_refusal_names_a_long_value_by_its_size(call, message: str) -> None:
    with pytest.raises((DomainError, StructureError)) as info:
        call()
    assert str(info.value) == message


def test_a_refusal_prints_a_value_of_up_to_100_characters_as_before() -> None:
    loop = loop_space(3, "Q")
    for value, shown in ((10**99, str(10**99)), (-(10**98), str(-(10**98))), (10**100, "an int of 101 digits"),
                         (-(10**99), "an int of 100 digits")):
        with pytest.raises(DomainError, match=f"^max_degree must be in 0..100000, got {shown}$"):
            loop.betti(value)
    with pytest.raises(StructureError, match=r"^\(2, 0\) is not an exponent vector of H\(LS\^3;Q\)$"):
        loop.monomial((2, 0))
    with pytest.raises(DomainError, match="^fractional coefficient 2/3 needs ring Q, not Z$"):
        loop_space(3, "Z").normalize([(Fraction(2, 3), 0)])


@pytest.mark.parametrize(
    "argv,message",
    [(("betti", "--n", "3", "--max-degree", "9" * MAX_N_DIGITS), "max_degree must be in 0..100000"),
     (("verify", "all", "--n", "3", "--degree-bound", "9" * MAX_N_DIGITS), "degree bound must be <= 100"),
     (("verify", "all", "--n", "3", "--power-bound", "9" * MAX_N_DIGITS), "power bound must be <= 100"),
     (("eval", "U", "--n", "-" + "9" * (MAX_N_DIGITS - 1)), "odd n must be >= 3")],
    ids=["max-degree", "degree-bound", "power-bound", "n"],
)
def test_a_value_of_4000_characters_is_refused_in_one_short_line(argv, message: str) -> None:
    # the flag ceiling lets 4,000 characters through; the refusals echoed them, 4 KB of stderr
    code, out, err = _loophom(*argv)
    assert (code, out) == (2, "")
    digits = len(argv[-1].lstrip("-"))
    assert err == f"error: {message}, got an int of {digits} digits\n"
    assert len(err.encode()) < 200


def test_a_bad_integer_flag_keeps_argparse_message(capsys) -> None:
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "U", "--n", "abc"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("loophom eval: error: argument --n: invalid int value: 'abc'\n")


def test_verify_report_reads_its_checks() -> None:
    report = verify.run("main-theorem", ns=[3], degree_bound=10, power_bound=5)
    assert report.title == "verify main-theorem: n in [3], rings ['Q'], degree bound 10"
    assert report.passed and all(c.passed and c.detail == "" for c in report.checks)
    lines = [c.line() for c in report.checks]
    assert report.render().splitlines() == [report.title, *lines, f"{len(lines)}/{len(lines)} checks passed"]
    made_up = verify.Check("made up", False, "x=1")
    assert made_up.line() == "[FAIL] made up  -- x=1"
    assert verify.Check("fine", True).detail == ""
    assert not verify.Report("t", [*report.checks, made_up]).passed


@pytest.mark.parametrize(
    "argv, rings",
    [(("all",), ["Q", "Z"]),
     (("all", "--ring", "Z"), ["Q", "Z"]),
     (("quotient-product", "--ring", "Z"), ["Q"]),
     (("main-theorem",), ["Q"]),
     (("algebra", "--ring", "Z"), ["Z"])],
    ids=["all", "all-Z", "quotient-product-Z", "main-theorem", "algebra-Z"],
)
def test_verify_title_names_the_rings_its_checks_ran_over(capsys, argv, rings) -> None:
    # the suites on quotients run over Q whatever --ring says; the suites on spaces run over the rings given
    code = cli.main(["verify", *argv, "--n", "3", "--degree-bound", "0", "--power-bound", "0"])
    title = capsys.readouterr().out.splitlines()[0]
    assert (code, title) == (0, f"verify {argv[0]}: n in [3], rings {rings}, degree bound 0")


# ----------------------------------------------------------------------
# the installed entry point
# ----------------------------------------------------------------------


def test_eval_huge_power_is_fast() -> None:
    # powers go by squaring: 10^8 is 26 squarings, not 10^8 products
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", "eval", "U^100000000", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "U^100000000\n", "")


def _refused_within_a_second(*argv: str, ceiling: str = "bits") -> str:
    # a child process, so that a missing refusal fails the test instead of running for hours
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", "eval", *argv], capture_output=True, text=True, timeout=1.0
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert ceiling in result.stderr
    return result.stderr


@pytest.mark.parametrize("argv", [("mu^100000000", "--group", "D1"), ("(2*U)^100000000",)])
def test_eval_huge_element_power_is_refused_at_once(argv) -> None:
    _refused_within_a_second(argv[0], "--n", "3", *argv[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ("(x+1)^100000", "--space", "omega"),
        ("(U+E)^100000",),
        ("(" + "+".join(f"x^{k}" for k in range(1, 2001)) + ")^2", "--space", "omega"),
    ],
)
def test_eval_power_of_a_sum_is_refused_at_once(argv) -> None:
    # binomial coefficients grow by a bit per unit of exponent, so the term count trips first; a base too wide to
    # square is priced like the product of two copies of it, so its 4,000,000 term pairs are refused unformed
    ceiling = "pairs of terms" if argv[0].endswith(")^2") else f"more than {POWER_TERMS} terms"
    _refused_within_a_second(argv[0], "--n", "3", *argv[1:], ceiling=ceiling)


@pytest.mark.parametrize("argv", [("(U+E)^",), ("(2*U)^",), ("2^",), ("mu^", "--group", "D1")])
def test_eval_refuses_a_power_with_a_long_exponent(argv) -> None:
    # the message names the exponent, whose 5000 digits pass the int->str digit limit
    err = _refused_within_a_second(argv[0] + "9" * 5000, "--n", "3", *argv[1:], ceiling="")
    assert err.startswith("error: a power with exponent 999")


def test_eval_two_term_power_stays_under_the_term_ceiling() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", "eval", "(U+A)^6325", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "6325*A*U^6324 + U^6325\n", "")


def test_element_powers_up_to_the_term_limit() -> None:
    ctx = EvalContext(based_loop_space(3, "Q"))
    assert len(evaluate(f"(x+1)^{POWER_TERMS - 1}", ctx).terms) == POWER_TERMS
    with pytest.raises(DomainError, match=f"more than {POWER_TERMS} terms"):
        evaluate(f"(x+1)^{POWER_TERMS}", ctx)
    q_ctx = EvalContext(loop_space(3, "Q"), dihedral(1))
    assert len(evaluate(f"(e+mu)^{POWER_TERMS - 1}", q_ctx).rep.terms) == POWER_TERMS
    with pytest.raises(DomainError, match=f"more than {POWER_TERMS} terms"):
        evaluate(f"(e+mu)^{POWER_TERMS}", q_ctx)


def test_eval_long_chains_and_deep_nesting_from_the_command_line() -> None:
    for text, out in (("+".join(["U"] * 5000), "5000*U\n"), ("*".join(["U"] * 5000), "U^5000\n")):
        result = subprocess.run(
            [sys.executable, "-m", "loophom.cli", "eval", text, "--n", "3"], capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
    for depth in (MAX_NESTING + 1, 1200):
        text = "(" * depth + "U" + ")" * depth
        result = subprocess.run(
            [sys.executable, "-m", "loophom.cli", "eval", text, "--n", "3"], capture_output=True, text=True, timeout=60
        )
        message = f"line 1, column {MAX_NESTING + 1}: more than {MAX_NESTING} nested parentheses and calls"
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: syntax error at {message}\n")


def _x_power_sum_text(coefficients) -> str:
    """The printed omega class sum_k c_k x^k, written out by hand."""
    terms = []
    for k, c in enumerate(coefficients):
        body = "1" if k == 0 else "x" if k == 1 else f"x^{k}"
        terms.append(body if c == 1 else f"{c}" if k == 0 else f"{c}*{body}")
    return " + ".join(terms)


def test_eval_long_sum_of_distinct_terms_is_fast() -> None:
    # each + adds one term to a copy of the sum so far; re-normalizing the whole sum made 5000 terms take 8 s
    text = "+".join(f"x^{k}" for k in range(1, 5001))
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", "eval", text, "--space", "omega", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=2.0,
    )
    expected = _x_power_sum_text([0] + [1] * 5000).removeprefix("0 + ")
    assert (result.returncode, result.stdout, result.stderr) == (0, expected + "\n", "")


def test_eval_product_chain_is_refused_at_once() -> None:
    # 20 factors of 128 terms: the third product would form 255 * 128 term products of about 8.3 * 2^20 bits
    _refused_within_a_second(
        "*".join(["(x+1)^127"] * 20), "--space", "omega", "--n", "3", ceiling=f"more than {POWER_WORK} bits"
    )


@pytest.mark.parametrize("factor", ["2^1048000", "(2^1048000*U)"])
def test_eval_product_of_nine_big_powers_is_refused_at_once(factor: str) -> None:
    # the eighth product would form 8 * 1048000 + 1 and 1048001 bits: about 9.0 * 2^20 bits of term products
    _refused_within_a_second(
        "*".join([factor] * 9), "--n", "3", ceiling=f"a product needs term products of more than {POWER_WORK} bits"
    )


@pytest.mark.parametrize("count", [2, 3, 8])
def test_eval_product_of_big_fractions_is_refused_at_once(count: int) -> None:
    # the first product runs gcds of 1,047,661-bit numbers: 2.4 s for two factors, about 70 s for eight, when
    # only POWER_WORK's linear charge was checked
    _refused_within_a_second(
        "*".join(["(2/3)^661000"] * count), "--n", "3", ceiling=f"fractional term products of more than {FRACTION_WORK}"
    )


def test_eval_square_of_a_sum_of_big_fractions_is_refused_at_once() -> None:
    # 951K bits in two terms: POWER_BITS refused only the square, after 0.96 s of gcds
    square = "((2/3)^300000*x+(3/2)^300000)^2"
    _refused_within_a_second(square, "--space", "omega", "--n", "3", ceiling=f"more than {FRACTION_WORK} bit pairs")


@pytest.mark.parametrize("count", [2, 4])
def test_eval_sum_of_big_fractions_is_refused_at_once(count: int) -> None:
    # adding two 1,047,661-bit fractions runs gcds as their product does: 1.15 s for two summands, 3.0 s for four
    ceiling = f"a sum needs fractional term sums of more than {FRACTION_WORK}"
    _refused_within_a_second("+".join(["(2/3)^661000"] * count), "--n", "3", ceiling=ceiling)


def test_the_sum_ceiling_charges_the_shared_monomials_that_hold_a_fraction() -> None:
    a, b = 1 << 19, 1 << 20  # a * b is FRACTION_WORK; check_sum forms no sum, so these sizes cost nothing
    check_sum(Fraction(1, 2 ** (a - 1)), Fraction(3, 2 ** (b - 1)), "a sum")
    check_sum(2 ** (b - 1), 2 ** (b - 1) + 1, "a sum")  # integer sums pay nothing
    with pytest.raises(DomainError, match=f"^a sum needs fractional term sums of more than {FRACTION_WORK} bit pairs"):
        check_sum(Fraction(1, 2 ** (a - 1)), 2**b, "a sum")
    space = loop_space(3, "Q")
    u = space.monomial((0, 1))
    x = space.normalize([(Fraction(1, 2 ** (a - 1)), u), (2**b, 0)])
    y = space.normalize([(2**b, u)])
    check_sum(x, space.normalize([(Fraction(1, 2 ** (b - 1)), 2 * u)]), "a sum")  # no monomial in common
    check_sum(x, space.normalize([(2**b, 0)]), "a sum")  # two integers share the unit
    with pytest.raises(DomainError, match="fractional term sums"):
        check_sum(x, y, "a sum")
    with pytest.raises(DomainError, match="fractional term sums"):
        check_sum(y, x, "a sum")


def test_the_fraction_ceiling_charges_every_pair_that_holds_a_fraction() -> None:
    a, b = 1 << 19, 1 << 20  # a * b is FRACTION_WORK; check_work forms no product, so these sizes cost nothing
    check_work(Fraction(1, 2 ** (a - 1)), Fraction(3, 2 ** (b - 1)), "a product")
    check_work(2 ** (b - 1), 2 ** (b - 1), "a product")  # two integers pay the linear charge alone
    with pytest.raises(DomainError, match=f"^a product needs fractional term products of more than {FRACTION_WORK} "):
        check_work(Fraction(1, 2**a), Fraction(3, 2 ** (b - 1)), "a product")
    # a fraction times an integer runs a gcd too; of an integral term and an integer, only the fraction pays
    space = loop_space(3, "Q")
    x = space.normalize([(2 ** (b - 1), space.monomial((0, 1))), (Fraction(1, 2 ** (a - 1)), 0)])
    check_work(x, 2 ** (b - 1), "a product")
    with pytest.raises(DomainError, match="fractional term products"):
        check_work(x, 2**b, "a product")


def test_products_up_to_the_pair_ceiling() -> None:
    # any two powers under the term ceiling multiply
    assert POWER_TERMS**2 <= MAX_PRODUCT_PAIRS
    ctx = EvalContext(based_loop_space(3, "Q"))
    product = evaluate("(x+1)^127*(x+1)^127", ctx)
    assert str(product) == _x_power_sum_text([math.comb(254, k) for k in range(255)])

    def powers(name: str, count: int, step: int = 1) -> str:
        return "(" + "+".join(f"{name}^{step * k}" for k in range(count)) + ")"

    narrow = powers("x", 128)
    at_ceiling = powers("x", MAX_PRODUCT_PAIRS // 128)
    assert len(evaluate(f"{at_ceiling}*{narrow}", ctx).terms) == MAX_PRODUCT_PAIRS // 128 + 127
    past = powers("x", MAX_PRODUCT_PAIRS // 128 + 1)
    with pytest.raises(DomainError, match=f"a product of a {MAX_PRODUCT_PAIRS // 128 + 1}-term and a 128-term class"):
        evaluate(f"{past}*{narrow}", ctx)
    # the transfer product, as * or as a call, and the A-products count the pairs of the representatives
    q_ctx = EvalContext(based_loop_space(3, "Q"), cyclic(2))
    assert len(evaluate(f"q{at_ceiling}*q{narrow}", q_ctx).rep.terms) == MAX_PRODUCT_PAIRS // 128 + 127
    for text in (f"q{past}*q{narrow}", f"POmega(q{past}, q{narrow})"):
        with pytest.raises(DomainError, match="pairs of terms"):
            evaluate(text, q_ctx)
    d1_ctx = EvalContext(loop_space(3, "Q"), dihedral(1))
    with pytest.raises(DomainError, match="pairs of terms"):
        evaluate(f"Avartheta(q{powers('U', 513, 2)}, q{powers('U', 128, 2)})", d1_ctx)


def test_powers_pass_the_pair_ceiling_of_their_products(monkeypatch) -> None:
    ctx = EvalContext(based_loop_space(3, "Q"))
    side = math.isqrt(MAX_PRODUCT_PAIRS)
    wide = "(" + "+".join(f"x^{k}" for k in range(1, side + 1)) + ")"
    # side * side pairs is the ceiling itself: the square is formed, and its 2 * side - 1 terms are refused
    with pytest.raises(DomainError, match=f"^a power with exponent 2 has more than {POWER_TERMS} terms$"):
        evaluate(f"{wide}^2", ctx)
    wider = "(" + "+".join(f"x^{k}" for k in range(1, side + 2)) + ")"
    base = evaluate(wider, ctx)

    def refuse(*args):
        raise AssertionError("a power past the pair ceiling formed a product")

    monkeypatch.setattr(core.Algebra, "_multiply", refuse)
    pairs = f"of a {side + 1}-term and a {side + 1}-term class multiplies more than {MAX_PRODUCT_PAIRS} pairs"
    with pytest.raises(DomainError, match=f"^a power with exponent 2 {pairs}"):
        power(base, 2)
    with pytest.raises(DomainError, match=f"^a product {pairs}"):
        evaluate(f"{wider}*{wider}", ctx)


def test_a_square_that_is_zero_is_priced_like_the_product_it_forms() -> None:
    # A^2 = 0, so every pair of this class's terms multiplies to 0; s^2 printed 0 while s*s was refused
    ctx = EvalContext(loop_space(3, "Q"))
    s = "(" + "+".join(f"A*U^{k}" for k in range(1, 301)) + ")"
    for text in (f"{s}^2", f"{s}*{s}"):
        with pytest.raises(DomainError, match="of a 300-term and a 300-term class multiplies more than"):
            evaluate(text, ctx)


def test_eval_power_with_long_coefficients_is_refused_at_once() -> None:
    # 100-digit numerator and denominator: squaring the 63rd power would form 83 * 2^20 bits of term products
    p, q = "7" * 100, "3" * 99 + "1"
    _refused_within_a_second(f"({p}/{q}*x+{q}/{p})^127", "--space", "omega", "--n", "3", ceiling=f"{POWER_WORK} bits")


def test_power_bit_ceilings_count_every_term() -> None:
    ctx = EvalContext(based_loop_space(3, "Q"))
    # 10-digit coefficients: the last squaring forms about 8.43 * 2^20 bits of term products
    with pytest.raises(DomainError, match=f"term products of more than {POWER_WORK} bits"):
        evaluate("(7777777777/3333333331*x+3333333331/7777777777)^127", ctx)
    assert len(evaluate("(7777777777/3333333331*x+3333333331/7777777777)^63", ctx).terms) == 64
    # (2^a*x + 2^a)^2 has coefficients of 2a+1, 2a+2 and 2a+1 bits: 6a+4 in all, each far under POWER_BITS
    a = (POWER_BITS - 4) // 6
    assert len(evaluate(f"(2^{a}*x+2^{a})^2", ctx).terms) == 3
    with pytest.raises(DomainError, match=f"coefficients of more than {POWER_BITS} bits in all"):
        evaluate(f"(2^{a + 1}*x+2^{a + 1})^2", ctx)


def test_eval_huge_scalar_power_is_refused_at_once() -> None:
    _refused_within_a_second("2^100000000", "--n", "3")


def test_scalar_powers_up_to_the_bit_limit() -> None:
    ctx = EvalContext(loop_space(3, "Q"))
    bits = POWER_BITS
    assert evaluate(f"2^{bits - 1}", ctx) == 2 ** (bits - 1)
    assert evaluate(f"(1/2)^{bits - 1}", ctx) == Fraction(1, 2 ** (bits - 1))
    assert evaluate("(-1)^123456789012345678901 + 0^99999999999 + 1^99999999999", ctx) == 0
    for text in (f"2^{bits}", f"(1/2)^{bits}", f"3^{2 * bits // 3}", f"(2^{bits // 2})^3"):
        with pytest.raises(DomainError):
            evaluate(text, ctx)


def test_betti_is_linear_in_the_degree() -> None:
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", "betti", "--n", "4", "--ring", "Z", "--max-degree", "20000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 10.0
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-1].split()[-1] == "A*Theta^3333"


def test_eval_prints_coefficients_past_the_digit_limit(capsys) -> None:
    # mu^k = 4^(k-1) q(U^2k); 4^7999 has 4816 digits
    code, out, err = _run(capsys, "eval", "mu^8000", "--n", "3", "--group", "D1")
    assert (code, err) == (0, "")
    coeff, _, rest = out.partition("*")
    assert rest == "q(U^16000)\n"
    assert len(coeff) == 4816
    assert decimal_value(coeff) == 4**7999


def test_eval_prints_a_product_of_big_powers_fast() -> None:
    # 2^5240000 has 1,577,398 digits; printing them by halving with divmod took about 30 s.  Eight factors,
    # 2,523,836 digits, are the most the product ceiling lets through
    for factors, size in ((5, 1577399), (8, 2523837)):
        start = time.perf_counter()
        code, out, err = _loophom("eval", "*".join(["2^1048000"] * factors), "--n", "3")
        assert time.perf_counter() - start < 5.0
        assert (code, err, len(out)) == (0, "", size)
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax = 40, decimal.MAX_EMAX
            leading = str(decimal.Decimal(2) ** (1048000 * factors)).replace(".", "")[:30]
        assert out[:30] == leading
        assert out[-31:] == str(pow(2, 1048000 * factors, 10**30)).zfill(30) + "\n"


@pytest.mark.parametrize("expression,suffix", [("(2/3)^600000", ""), ("(2/3*U)^600000", "*U^600000")])
def test_eval_one_term_fraction_powers_are_fast(expression: str, suffix: str) -> None:
    # in closed form, Fraction.__pow__ runs no gcd; square-and-multiply ran one per product, 0.7 s in all
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", "eval", expression, "--n", "3"],
        capture_output=True,
        text=True,
        timeout=2.0,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith(suffix + "\n")
    for digits, base in zip(result.stdout[: -len(suffix) - 1].split("/"), (2, 3)):
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax = 40, decimal.MAX_EMAX
            value = decimal.Decimal(base) ** 600000
        assert len(digits) == value.adjusted() + 1
        assert digits[:30] == str(value).replace(".", "")[:30]
        assert digits[-30:] == str(pow(base, 600000, 10**30)).zfill(30)


@pytest.mark.parametrize("text", ["U^²", "5¹"])
def test_eval_non_ascii_digits_are_syntax_errors(capsys, text: str) -> None:
    code, out, err = _run(capsys, "eval", text, "--n", "3")
    assert (code, out) == (2, "")
    assert "syntax error" in err


def test_eval_long_literals_print_and_reparse(capsys) -> None:
    digits = "7" * 5000
    for text in (digits, f"U^{digits}"):
        code, out, err = _run(capsys, "eval", text, "--n", "3")
        assert (code, out, err) == (0, text + "\n", "")


def test_console_script_end_to_end() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", "eval", "mu^3", "--n", "3", "--group", "D1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "16*q(U^6)\n"
    assert result.stderr == ""


def _child(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)


def test_cli_imports_no_dataclasses_inspect_or_json() -> None:
    # start-up is most of an eval, and no command needs these (dataclasses pulls in the next four)
    listing = "import sys; print('\\n'.join(sys.modules))"
    bare = set(_child("-c", listing).stdout.split())
    added = set(_child("-c", "import loophom.cli; " + listing).stdout.split()) - bare
    assert "loophom.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}, sorted(added)
    result = _child("-m", "loophom.cli", "eval", "U", "--n", "3", "--format", "json")
    assert (result.stdout, result.stderr) == ('{"value":"U"}\n', "")
