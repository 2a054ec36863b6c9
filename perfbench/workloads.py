"""Seeded command generators for the benchmark workloads, with their oracles.

Every generated command carries the exact text `loophom` must print.  The
expected text never comes from loophom itself: eval outputs come from closed
forms, Betti tables from the closed-form degree families (rendered in the
documented table format), and verify reports from the golden files recorded
at the seed commit (`golden/`).

Workloads (one client, one command at a time).  A workload's commands form
one round, fixed by the seed; a run repeats its round for the time it is
given, so every figure is a median over several rounds.

* ``verify-all``  — `loophom verify all --n 3 --degree-bound 30`: all ten
  suites, both rings, in one process whose memo caches stay warm from suite
  to suite.  The default bounds (n = 3..6, 46 s) leave room for no repeats
  in a run; n = 3 carries the products and transfers.  It has no generated
  inputs: the seed changes nothing.
* ``betti-deep``  — Betti tables at high `--max-degree`: two fixed anchors
  (integral torsion rows, a reflection quotient) plus six seeded loop, omega,
  quotient and JSON tables.  A seeded table's degree bound is set from n so
  that its enumeration cost, which grows as max_degree^2/(n-1), is the same
  for every draw.
* ``eval-batch``  — one-shot `eval` processes with cold caches: 20 short
  queries with seeded exponents and contexts, and a tail of 6 large powers
  at fixed exponents, rings and groups (only n is seeded), so every seed
  loads the tail alike.
"""

from __future__ import annotations

import decimal
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

@dataclass(frozen=True)
class Command:
    """One `loophom` invocation and the exact stdout it must produce."""

    argv: tuple
    expected: str
    tag: str


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------


def _power(name: str, k: int, unit: str) -> str:
    if k == 0:
        return unit
    return name if k == 1 else f"{name}^{k}"


def _times(coeff: int, body: str) -> str:
    # Decimal prints exactly and has no str() digit cap: coefficients here
    # can pass the 4300 digits at which int.__str__ stops
    return body if coeff == 1 else f"{format(decimal.Decimal(coeff), 'f')}*{body}"


def _group_order(label: str) -> int:
    if label == "theta":
        return 2
    m = int(label[1:])
    return m if label[0] == "C" else 2 * m


def _has_reflections(label: str) -> bool:
    return label[0] != "C"


def _log_quantiles(count: int, lo: int, hi: int) -> list:
    """`count` exponents at the midpoints of equal log-scale strata of [lo, hi].

    Large powers cost time in proportion to the exponent, so the tail's sizes
    are fixed: every seed then loads the workload with the same tail, and
    the seed draws only their contexts.
    """
    return [int(round(lo * (hi / lo) ** ((i + 0.5) / count))) for i in range(count)]


def _random_group(rng: random.Random) -> str:
    kind = rng.choice(("D", "D", "C", "theta"))
    return "theta" if kind == "theta" else f"{kind}{rng.randint(1, 6)}"


# ----------------------------------------------------------------------
# eval-batch: closed forms
# ----------------------------------------------------------------------


def expected_binomial(k: int) -> str:
    """(U+A)^k = k*A*U^(k-1) + U^k for n odd, because A^2 = 0, k >= 2."""
    return f"{k}*A*{_power('U', k - 1, '')} + U^{k}"


def expected_quotient_power(order: int, letter: str, k: int) -> str:
    """mu^k (eta^k) = |G|^(2(k-1)) * q(U^(2k)) (with Theta for eta)."""
    coeff = order ** (2 * (k - 1))
    return _times(coeff, f"q({letter}^{2 * k})")


def _eval(expression: str, context: tuple, tag: str, expected: str) -> Command:
    return Command(("eval", expression) + context, expected + "\n", tag)


# A large power's cost depends on its ring (Fraction coefficients cost about
# twice int ones) and its group's order, so these follow the power's index
# instead of the seed, as its exponent does; only n is drawn.  Fixed costs
# keep the round's p90, which falls among the large powers, the same for
# every seed.  mu^2812 on D4 has a 5077-digit coefficient, past Python's
# 4300-digit int-to-str limit: the known defect (ROADMAP item 3) fails in
# every round and counts.
BIG_GROUPS = ("C3", "D4")


def _eval_commands(rng: random.Random, tag: str, count: int, lo: int, hi: int, big: bool):
    if big:
        draws = [
            (k, "QZ"[i % 2], BIG_GROUPS[i % len(BIG_GROUPS)], k // 3 + 1)
            for i, k in enumerate(_log_quantiles(count, lo, hi))
        ]
    else:
        draws = []
        for _ in range(count):
            k = rng.randint(lo, hi)
            draws.append((k, rng.choice("QZ"), _random_group(rng), rng.randint(1, k)))
    out = []
    for k, ring, group, a in draws:
        loop_odd = ("--n", str(rng.choice((3, 5, 7, 9))), "--ring", ring)
        if tag.startswith("loop-power"):
            # U is even in the product grading for n odd: U^k prints as itself
            out.append(_eval(f"U^{k}", loop_odd, tag, _power("U", k, "E")))
        elif tag.startswith("loop-binomial"):
            out.append(_eval(f"(U+A)^{k}", loop_odd, tag, expected_binomial(k)))
        elif tag == "loop-even":
            ctx = ("--n", str(rng.choice((4, 6, 8))), "--ring", ring)
            if rng.random() < 0.5:
                out.append(_eval(f"Theta^{k}", ctx, tag, _power("Theta", k, "E")))
            else:
                # A*Theta^k is the 2-torsion class: it survives only over Z
                text = f"A*{_power('Theta', k, '')}" if ring == "Z" else "0"
                out.append(_eval(f"A*Theta^{k}", ctx, tag, text))
        elif tag.startswith("omega-power"):
            ctx = ("--space", "omega", "--n", str(rng.randint(2, 9)), "--ring", ring)
            out.append(_eval(f"x^{k}", ctx, tag, _power("x", k, "1")))
        elif tag.startswith("quotient-mu"):
            ctx = ("--n", str(rng.choice((3, 5, 7))), "--group", group)
            text = expected_quotient_power(_group_order(group), "U", k)
            out.append(_eval(f"mu^{k}", ctx, tag, text))
        elif tag.startswith("quotient-eta"):
            ctx = ("--n", str(rng.choice((4, 6, 8))), "--group", group)
            text = expected_quotient_power(_group_order(group), "Theta", k)
            out.append(_eval(f"eta^{k}", ctx, tag, text))
        elif tag.startswith("quotient-P"):
            ctx = ("--n", str(rng.choice((3, 5, 7))), "--group", group)
            b = k + 1 - a
            # P(mu^a, mu^b) = mu^(a+b): P is the product that ** iterates
            text = expected_quotient_power(_group_order(group), "U", a + b)
            out.append(_eval(f"P(mu^{a},mu^{b})", ctx, tag, text))
        else:
            raise ValueError(f"unknown eval category {tag}")
    return out


# (tag, count, exponent range, large power); one round of 20 short queries
# drawn uniformly and 6 large powers at fixed log-spaced exponents.  The
# 6 large ones are the round's slowest 23%, so p90 falls among them.
EVAL_MIX = (
    ("loop-power", 4, 2, 200, False),
    ("loop-binomial", 3, 2, 200, False),
    ("loop-even", 3, 1, 200, False),
    ("omega-power", 3, 2, 200, False),
    ("quotient-mu", 4, 1, 60, False),
    ("quotient-eta", 2, 1, 40, False),
    ("quotient-P", 1, 2, 60, False),
    ("loop-power-big", 1, 10000, 100000, True),
    ("omega-power-big", 1, 10000, 100000, True),
    ("loop-binomial-big", 1, 2000, 20000, True),
    ("quotient-mu-big", 2, 500, 5000, True),
    ("quotient-eta-big", 1, 500, 5000, True),
)


def eval_batch(seed: int) -> list:
    rng = random.Random(f"eval-batch:{seed}")
    commands = []
    for tag, count, lo, hi, big in EVAL_MIX:
        commands += _eval_commands(rng, tag, count, lo, hi, big)
    rng.shuffle(commands)
    return commands


# ----------------------------------------------------------------------
# betti-deep: closed-form degree families
# ----------------------------------------------------------------------


def _family(n: int, degree: int):
    """The family tag of a loop-space degree: lambda_r = (2r-1)(n-1), shifted
    by 0, n-1, n or 2n-1.  Degrees 0 and n carry no tag."""
    if degree in (0, n):
        return None
    for offset, label in ((0, "lambda"), (n - 1, "n-1+lambda"), (n, "n+lambda"), (2 * n - 1, "2n-1+lambda")):
        rest = degree - offset
        if rest > 0 and rest % (n - 1) == 0 and (rest // (n - 1)) % 2 == 1:
            return f"{label}_{(rest // (n - 1) + 1) // 2}"
    raise ValueError(f"degree {degree} of S^{n} is in no family")


def closed_form_classes(kind: str, n: int, ring: str, max_degree: int) -> list:
    """[(degree, name, torsion, reversal sign)] for every basis class.

    n odd:   A^a U^k at degree (1-a)n + k(n-1), reversal sign (-1)^k.
    n even:  sigma1*Theta^k at n-1 + k(2n-2), sign (-1)^(k+1);
             Theta^k at n + k(2n-2), sign (-1)^k;
             A*Theta^k at k(2n-2), sign (-1)^k, 2-torsion for k >= 1
             (present over Z only).
    omega:   x^k at k(n-1), sign (-1)^k (n odd) or (-1)^(k(k+1)/2) (n even).
    """
    out = []
    if kind == "omega":
        k = 0
        while k * (n - 1) <= max_degree:
            sign = (-1) ** k if n % 2 else (-1) ** (k * (k + 1) // 2)
            out.append((k * (n - 1), _power("x", k, "1"), False, sign))
            k += 1
        return out
    if n % 2:
        for a, unit, prefix in ((0, "E", ""), (1, "A", "A*")):
            k = 0
            while (1 - a) * n + k * (n - 1) <= max_degree:
                name = unit if k == 0 else prefix + _power("U", k, "")
                out.append(((1 - a) * n + k * (n - 1), name, False, (-1) ** k))
                k += 1
        return out
    step = 2 * n - 2
    k = 0
    while k * step <= max_degree:
        if n - 1 + k * step <= max_degree:
            out.append((n - 1 + k * step, "sigma1" + ("" if k == 0 else "*" + _power("Theta", k, "")), False, (-1) ** (k + 1)))
        if n + k * step <= max_degree:
            out.append((n + k * step, _power("Theta", k, "E"), False, (-1) ** k))
        if k == 0:
            out.append((0, "A", False, 1))
        elif ring == "Z":
            out.append((k * step, "A*" + _power("Theta", k, ""), True, (-1) ** k))
        k += 1
    return out


def expected_rows(kind: str, n: int, ring: str, group, max_degree: int) -> list:
    """[(degree, rank, torsion count, family, generators)] in degree order."""
    classes = closed_form_classes(kind, n, ring, max_degree)
    if group is not None:
        keep_odd = not _has_reflections(group)
        classes = [
            (d, f"q({name})", False, sign)
            for d, name, _t, sign in classes
            if keep_odd or sign == 1
        ]
    by_degree: dict = {}
    for d, name, torsion, _sign in classes:
        if d in by_degree:
            raise ValueError(f"two classes in degree {d}; the oracle assumes n >= 3")
        by_degree[d] = (name, torsion)
    rows = []
    for d in sorted(by_degree):
        name, torsion = by_degree[d]
        family = _family(n, d) if kind == "loop" else None
        rows.append((d, 0 if torsion else 1, 1 if torsion else 0, family, (name,)))
    return rows


def render_ascii(kind, n, ring, group, max_degree, rows) -> str:
    """The documented table layout: two-space separated, left-aligned."""
    head = f"# {kind} S^{n}, ring {ring}"
    if group:
        head += f", group {group}"
    head += f", degrees <= {max_degree}"
    header = ("degree", "rank", "torsion", "family", "generators")
    body = [
        (str(d), str(rank), ",".join(["2"] * tors) or "-", fam or "-", " ".join(gens))
        for d, rank, tors, fam, gens in rows
    ]
    widths = [max([len(header[i])] + [len(r[i]) for r in body]) for i in range(5)]
    lines = [head]
    for cells in [header] + body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines)


def render_json(kind, n, ring, group, max_degree, rows) -> str:
    payload = {
        "space": kind,
        "n": n,
        "ring": ring,
        "group": group,
        "max_degree": max_degree,
        "entries": [
            {"degree": d, "rank": rank, "torsion": [2] * tors, "generators": list(gens), "family": fam}
            for d, rank, tors, fam, gens in rows
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def betti_command(kind, n, ring, group, max_degree, fmt="ascii", tag="betti") -> Command:
    argv = ("betti", "--space", kind, "--n", str(n), "--ring", ring)
    if group:
        argv += ("--group", group)
    argv += ("--max-degree", str(max_degree))
    if fmt == "json":
        argv += ("--format", "json")
    rows = expected_rows(kind, n, ring, group, max_degree)
    render = render_json if fmt == "json" else render_ascii
    return Command(argv, render(kind, n, ring, group, max_degree, rows) + "\n", tag)


# enumeration work units (max_degree^2/(n-1)) per seeded table; the loop
# anchor n=4 at degree 3000 is 3e6 units
SEEDED_TABLE_UNITS = 1.0e6
# one round's seeded tables, by kind, so that every seed draws the same mix
SEEDED_KINDS = ("loop", "loop", "omega", "omega", "quotient", "json")


def _seeded_degree(kind: str, n: int) -> int:
    # the based loop space has one generator where the free one has two
    weight = 0.5 if kind == "omega" else 1.0
    return int(math.sqrt(SEEDED_TABLE_UNITS * (n - 1) / weight))


def _seeded_table(rng: random.Random, tag: str) -> Command:
    fmt = "json" if tag == "json" else "ascii"
    if tag == "quotient":
        kind, n = "loop", rng.randint(3, 9)
        group, ring = _random_group(rng), "Q"
    else:
        kind = rng.choice(("loop", "omega")) if tag == "json" else tag
        n = rng.randint(3 if kind == "loop" else 2, 9)
        group, ring = None, rng.choice("QZ")
    return betti_command(kind, n, ring, group, _seeded_degree(kind, n), fmt, tag)


def betti_deep(seed: int) -> list:
    rng = random.Random(f"betti-deep:{seed}")
    commands = [
        betti_command("loop", 4, "Z", None, 3000, tag="anchor-torsion"),
        betti_command("loop", 3, "Q", "D1", 2500, tag="anchor-quotient"),
    ]
    commands += [_seeded_table(rng, tag) for tag in SEEDED_KINDS]
    rng.shuffle(commands)
    return commands


# ----------------------------------------------------------------------
# verify-all: golden reports from the seed commit
# ----------------------------------------------------------------------


VERIFY_ARGV = ("verify", "all", "--n", "3", "--degree-bound", "30")


def verify_all(seed: int) -> list:
    del seed  # verify all has no inputs to draw
    golden = (GOLDEN_DIR / "verify-all-n3-d30.txt").read_text()
    return [Command(VERIFY_ARGV, golden, "verify")]


GENERATORS = {
    "verify-all": verify_all,
    "betti-deep": betti_deep,
    "eval-batch": eval_batch,
}

# a no-op eval in each workload's context: interpreter start, import, context
SETUP_CONTEXT = {
    "verify-all": ("--n", "3"),
    "betti-deep": ("--space", "loop", "--n", "4", "--ring", "Z"),
    "eval-batch": ("--n", "3", "--group", "D1"),
}


def setup_command(workload: str) -> Command:
    return Command(("eval", "0") + SETUP_CONTEXT[workload], "0\n", "setup")
