"""Command-line front end: evaluate expressions, emit rank tables, verify.

Commands:

    loophom eval  "P(q(U^2),q(U^2))" --space loop --n 3 --group D1
    loophom betti --space loop --n 4 --ring Z --max-degree 20 --format json
    loophom verify all --n 3 --n 4

Exit status: 0 on success; 1 when a verify check fails, a suite that raises
included; 2 on refused input (usage, syntax, or domain errors).  All numeric
output is exact (integers or p/q); JSON is byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import re
import sys

from .core import DomainError, StructureError, int_from_digits
from .equivariant import Subgroup, cyclic, dihedral, quotient, theta_group
from .expr import EvalContext, ExprSyntaxError, evaluate, format_value
from .spaces import MAX_N_DIGITS, BettiTable, make_space
from . import verify as verify_mod

_GROUP_RE = re.compile(r"([CD])([0-9]+)")
#: most command-line arguments a command may have, checked before argparse, whose time grows with the square of
#: the number of flags; the longest legitimate command, `verify` with 16 distinct --n, --ring, --degree-bound
#: and --power-bound, has 40
MAX_ARGV = 64


def parse_group(text: str) -> Subgroup:
    if text == "theta":
        return theta_group()
    m = _GROUP_RE.fullmatch(text)
    if m is None:
        raise DomainError(f"unknown group {text!r} (use Cm, Dm, or theta)")
    size = int_from_digits(m.group(2))
    if size < 1:
        raise DomainError(f"group parameter must be >= 1, got {size}")
    return cyclic(size) if m.group(1) == "C" else dihedral(size)


class _LongIntFlag(Exception):
    """An integer flag's value past MAX_N_DIGITS characters.  Not a ValueError: argparse would print one with
    its usage text and the whole value, and it lets any other exception through to `main`, which prints one line."""


def _int_flag(text: str) -> int:
    """An integer flag's value, read by `int`, with argparse's own message for a bad one.  Past MAX_N_DIGITS
    characters, where no flag has a valid value, it is refused without being echoed."""
    if len(text) > MAX_N_DIGITS:
        raise _LongIntFlag(f"an integer flag may have at most {MAX_N_DIGITS} characters, got {len(text)}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_context_flags(p: argparse.ArgumentParser):
    p.add_argument("--space", choices=("loop", "omega", "sphere"), default="loop")
    p.add_argument("--n", type=_int_flag, required=True, help="sphere dimension")
    p.add_argument("--ring", choices=("Q", "Z"), default="Q")
    p.add_argument("--group", default=None, help="Cm, Dm, or theta")
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loophom",
        description="Exact loop-space homology algebras of spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument(
        "expression", help="the expression to evaluate; one that begins with '-' goes after '--': eval --n 3 -- -U"
    )
    _add_context_flags(p_eval)

    p_betti = sub.add_parser("betti", help="emit a rank/torsion table")
    _add_context_flags(p_betti)
    p_betti.add_argument("--max-degree", type=_int_flag, default=60)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument(
        "suite", help=f"one of {', '.join(verify_mod.SUITE_NAMES)}, or all"
    )
    ns = " ".join(map(str, verify_mod.DEFAULT_NS))
    p_verify.add_argument(
        "--n", type=_int_flag, action="append", help=f"sphere dimension (repeatable; default {ns})"
    )
    p_verify.add_argument(
        "--ring", choices=("Q", "Z"), default=None,
        help="ring of the suites on spaces (default both); the suites on quotients always run over Q",
    )
    p_verify.add_argument(
        "--degree-bound", type=_int_flag, default=None,
        help=f"degree bound of the suites, at most {verify_mod.SWEEP_BOUND} (default {verify_mod.SWEEP_BOUND} for "
        f"transfer and main-theorem, {verify_mod.PRODUCT_BOUND} for the others)",
    )
    p_verify.add_argument(
        "--power-bound", type=_int_flag, default=None,
        help=f"highest power of a nonnilpotent class, at most {verify_mod.SWEEP_BOUND} "
        f"(default {verify_mod.POWER_BOUND})",
    )

    return parser


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def betti_to_json(table: BettiTable) -> str:
    import json  # here, not at the top: start-up is most of a command's time, and only JSON output needs it

    # the named tuples' fields are the JSON keys, in order; json writes tuples as lists
    payload = table._asdict()
    payload["entries"] = [row._asdict() for row in payload.pop("rows")]
    return json.dumps(payload, separators=(",", ":"))


def betti_to_ascii(table: BettiTable) -> str:
    head = f"# {table.space} S^{table.n}, ring {table.ring}"
    if table.group:
        head += f", group {table.group}"
    head += f", degrees <= {table.max_degree}"
    lines = [head]
    header = ("degree", "rank", "torsion", "family", "generators")
    body = [
        (
            str(row.degree),
            str(row.rank),
            ",".join(str(t) for t in row.torsion) or "-",
            row.family or "-",
            " ".join(row.generators),
        )
        for row in table.rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines.append(fmt(header))
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines)


def cmd_eval(args) -> int:
    space = make_space(args.space, args.n, args.ring)
    group = parse_group(args.group) if args.group else None
    context = EvalContext(space, group)
    value = evaluate(args.expression, context)
    text = format_value(value)
    if args.format == "json":
        import json

        print(json.dumps({"value": text}, separators=(",", ":")))
    else:
        print(text)
    return 0


def cmd_betti(args) -> int:
    space = make_space(args.space, args.n, args.ring)
    if args.group:
        table = quotient(space, parse_group(args.group)).betti(args.max_degree)
    else:
        table = space.betti(args.max_degree)
    print(betti_to_json(table) if args.format == "json" else betti_to_ascii(table))
    return 0


def cmd_verify(args) -> int:
    rings = (args.ring,) if args.ring else None
    report = verify_mod.run(
        args.suite,
        ns=args.n,
        rings=rings,
        degree_bound=args.degree_bound,
        power_bound=args.power_bound,
    )
    print(report.render())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > MAX_ARGV:
        print(f"error: at most {MAX_ARGV} command-line arguments may be given, got {len(argv)}", file=sys.stderr)
        return 2
    try:
        args = build_parser().parse_args(argv)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "betti":
            return cmd_betti(args)
        return cmd_verify(args)
    except (ExprSyntaxError, DomainError, StructureError, _LongIntFlag) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
