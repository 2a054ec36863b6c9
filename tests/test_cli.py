"""Command-line behaviour: output bytes, exit codes, error reporting."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from loophom import cli

from oracles import decimal_value

EXPECTED_LOOP4Z_JSON = (
    '{"space":"loop","n":4,"ring":"Z","group":null,"max_degree":6,"entries":'
    '[{"degree":0,"rank":1,"torsion":[],"generators":["A"],"family":null},'
    '{"degree":3,"rank":1,"torsion":[],"generators":["sigma1"],"family":"lambda_1"},'
    '{"degree":4,"rank":1,"torsion":[],"generators":["E"],"family":null},'
    '{"degree":6,"rank":0,"torsion":[2],"generators":["A*Theta"],"family":"n-1+lambda_1"}]}'
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


def test_group_parsing(capsys) -> None:
    for text, order in (("C3", 3), ("D4", 8), ("theta", 2)):
        assert cli.parse_group(text).order == order
    code, _, err = _run(capsys, "eval", "E", "--n", "3", "--group", "X3")
    assert code == 2
    assert "unknown group" in err
    code, _, err = _run(capsys, "eval", "E", "--n", "3", "--group", "C0")
    assert code == 2


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
    code, out, _ = _run(
        capsys,
        "betti", "--space", "loop", "--n", "4", "--ring", "Z",
        "--max-degree", "6", "--format", "json",
    )
    assert code == 0
    assert out == EXPECTED_LOOP4Z_JSON + "\n"


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


def test_verify_restricts_to_requested_ring(capsys) -> None:
    code, out, _ = _run(
        capsys, "verify", "algebra", "--n", "4", "--ring", "Z",
        "--degree-bound", "20", "--power-bound", "5",
    )
    assert code == 0
    assert ";Z)" in out
    assert ";Q)" not in out


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


def test_eval_prints_coefficients_past_the_digit_limit(capsys) -> None:
    # mu^k = 4^(k-1) q(U^2k); 4^7999 has 4816 digits
    code, out, err = _run(capsys, "eval", "mu^8000", "--n", "3", "--group", "D1")
    assert (code, err) == (0, "")
    coeff, _, rest = out.partition("*")
    assert rest == "q(U^16000)\n"
    assert len(coeff) == 4816
    assert decimal_value(coeff) == 4**7999


def test_console_script_end_to_end() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "loophom.cli", "eval", "mu^3", "--n", "3", "--group", "D1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "16*q(U^6)\n"
    assert result.stderr == ""
