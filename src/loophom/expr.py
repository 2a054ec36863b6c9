"""Expression grammar and evaluator over the sphere algebras.

Grammar (whitespace insignificant, '*' mandatory between factors):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' NAT)?
    atom   := NAME | NUMBER | NUMBER '/' NUMBER
            | NAME '(' expr (',' expr)? ')' | '(' expr ')'

The optional leading '-' (also after '(') is accepted so that canonically
printed elements, which may open with a negative coefficient, re-parse.

Evaluation is context-checked against an `EvalContext` (space, optional
quotient): names must exist in the active space, q/tr/P need a group, the
j-maps need the matching source space.  Values are exact scalars (int or
Fraction), algebra `Element`s, or quotient `QElement`s.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, Element, StructureError, scalar_str
from .equivariant import QElement, Quotient, a_product, eta_class, mu_class, quotient
from .maps import ev_star, j_shriek, j_star, theta_star
from .spaces import LOOP, OMEGA, Space, based_loop_space, loop_space


class ExprSyntaxError(ValueError):
    """A parse failure, carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, NUMBER, one of +-*^/(),, or END
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^/(),":
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


# ----------------------------------------------------------------------
# abstract syntax
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction
    line: int
    col: int


@dataclass(frozen=True)
class Name:
    ident: str
    line: int
    col: int


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    line: int
    col: int


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*'
    left: object
    right: object
    line: int
    col: int


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    line: int
    col: int


@dataclass(frozen=True)
class Neg:
    child: object
    line: int
    col: int


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            what = tok.text or "end of input"
            raise ExprSyntaxError(f"expected {kind}, found {what!r}", tok.line, tok.col)
        return self.take()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return node

    def expr(self):
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            node = Neg(self.term(), tok.line, tok.col)
        else:
            node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            node = Bin(op.kind, node, self.term(), op.line, op.col)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            op = self.take()
            node = Bin("*", node, self.factor(), op.line, op.col)
        return node

    def factor(self):
        node = self.atom()
        if self.peek().kind == "^":
            op = self.take()
            tok = self.peek()
            if tok.kind != "NUMBER":
                what = tok.text or "end of input"
                raise ExprSyntaxError(
                    f"expected exponent after '^', found {what!r}", tok.line, tok.col
                )
            self.take()
            node = Pow(node, int(tok.text), op.line, op.col)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.take()
            numerator = int(tok.text)
            if self.peek().kind == "/":
                slash = self.take()
                den_tok = self.expect("NUMBER")
                denominator = int(den_tok.text)
                if denominator == 0:
                    raise ExprSyntaxError("zero denominator", slash.line, slash.col)
                return Num(Fraction(numerator, denominator), tok.line, tok.col)
            return Num(Fraction(numerator), tok.line, tok.col)
        if tok.kind == "NAME":
            self.take()
            if self.peek().kind == "(":
                self.take()
                args = [self.expr()]
                if self.peek().kind == ",":
                    self.take()
                    args.append(self.expr())
                self.expect(")")
                return Call(tok.text, tuple(args), tok.line, tok.col)
            return Name(tok.text, tok.line, tok.col)
        if tok.kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        what = tok.text or "end of input"
        raise ExprSyntaxError(f"expected a value, found {what!r}", tok.line, tok.col)


def parse(text: str):
    """Parse an expression; raises ExprSyntaxError with line/column."""
    return _Parser(tokenize(text)).parse()


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

FUNCTION_ARITY = {
    "q": 1,
    "tr": 1,
    "theta": 1,
    "jshriek": 1,
    "jstar": 1,
    "ev": 1,
    "P": 2,
    "POmega": 2,
    "Avartheta": 2,
    "Atheta": 2,
}


# one-argument structure maps: name -> (map constructor, source space)
STRUCTURE_MAPS = {
    "jshriek": (j_shriek, loop_space),
    "jstar": (j_star, based_loop_space),
    "ev": (ev_star, loop_space),
}


class EvalContext:
    """The flag-selected space (and quotient, when a group is given)."""

    def __init__(self, space: Space, group=None):
        self.space = space
        self.quotient = quotient(space, group) if group is not None else None


def _as_int(value) -> object:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class Evaluator:
    def __init__(self, context: EvalContext):
        self.ctx = context

    # -- names ---------------------------------------------------------

    def _lookup(self, node: Name):
        name = node.ident
        space = self.ctx.space
        if name in space.named:
            return space.named[name]
        if self.ctx.quotient is not None:
            if name == "e":
                return self.ctx.quotient.unit()
            if name == "mu":
                return mu_class(self.ctx.quotient)
            if name == "eta":
                return eta_class(self.ctx.quotient)
        raise DomainError(
            f"unknown name {name!r} in the {space.kind} space of S^{space.n}"
            + ("" if self.ctx.quotient else " (no group selected)")
        )

    # -- functions -------------------------------------------------------

    def _need_quotient(self, fn: str) -> Quotient:
        if self.ctx.quotient is None:
            raise DomainError(f"{fn}(...) needs a --group")
        return self.ctx.quotient

    def _element_in(self, value, space: Space, fn: str) -> Element:
        if isinstance(value, (int, Fraction)):
            # scalars mean multiples of the unit class
            return space.unit * value
        if isinstance(value, Element) and value.algebra is space.algebra:
            return value
        raise DomainError(
            f"{fn}(...) expects a class of the {space.kind} space of S^{space.n}"
        )

    def _call(self, node: Call):
        fn = node.fn
        arity = FUNCTION_ARITY.get(fn)
        if arity is None:
            raise DomainError(f"unknown function {fn!r}")
        if len(node.args) != arity:
            raise DomainError(
                f"{fn}(...) takes {arity} argument{'s' if arity > 1 else ''}, "
                f"got {len(node.args)}"
            )
        args = [self.eval(a) for a in node.args]
        n, ring = self.ctx.space.n, self.ctx.space.ring

        if fn == "q":
            quot = self._need_quotient(fn)
            return quot.project(self._element_in(args[0], quot.space, fn))
        if fn == "tr":
            quot = self._need_quotient(fn)
            if not isinstance(args[0], QElement) or args[0].quotient is not quot:
                raise DomainError("tr(...) expects a quotient class")
            return quot.transfer(args[0])
        if fn == "theta":
            value = args[0]
            for space in (loop_space(n, ring), based_loop_space(n, ring)):
                if isinstance(value, Element) and value.algebra is space.algebra:
                    return theta_star(space)(value)
            raise DomainError("theta(...) expects a loop or omega class")
        if fn in STRUCTURE_MAPS:
            make_map, source = STRUCTURE_MAPS[fn]
            return make_map(n, ring)(self._element_in(args[0], source(n, ring), fn))

        # two-argument products on quotients
        a, b = args
        if not isinstance(a, QElement) or not isinstance(b, QElement):
            raise DomainError(f"{fn}(...) expects two quotient classes")
        if a.quotient is not b.quotient:
            raise StructureError(f"{fn}(...) arguments live on different quotients")
        quot = a.quotient
        if fn == "P":
            if quot.space.kind != LOOP:
                raise DomainError("P(...) is the loop-space transfer product; use POmega for based classes")
            return quot.product(a, b)
        if fn == "POmega":
            if quot.space.kind != OMEGA:
                raise DomainError("POmega(...) is the based transfer product; use P for loop classes")
            return quot.product(a, b)
        variant = "vartheta" if fn == "Avartheta" else "theta"
        # decompose an inhomogeneous second argument by degree here; the
        # underlying construction insists on homogeneous input
        total = QElement(quot, quot.space.algebra.zero())
        for part in b.homogeneous_parts().values():
            total = total + a_product(variant, quot, a, part)
        return total

    # -- operators -------------------------------------------------------

    def _add_like(self, node: Bin, lv, rv):
        op = operator.add if node.op == "+" else operator.sub
        # scalars act as multiples of the ambient unit when mixed with classes
        if isinstance(lv, (int, Fraction)) and isinstance(rv, Element):
            lv = rv.algebra.unit() * lv
        if isinstance(rv, (int, Fraction)) and isinstance(lv, Element):
            rv = lv.algebra.unit() * rv
        if isinstance(lv, (int, Fraction)) and isinstance(rv, (int, Fraction)):
            return _as_int(op(Fraction(lv), Fraction(rv)))
        if type(lv) is type(rv) and isinstance(lv, (Element, QElement)):
            return op(lv, rv)
        raise DomainError(
            f"cannot {'add' if node.op == '+' else 'subtract'} "
            f"{_kind_name(lv)} and {_kind_name(rv)}"
        )

    def _mul(self, node: Bin, lv, rv):
        if isinstance(lv, (int, Fraction)) and isinstance(rv, (int, Fraction)):
            return _as_int(Fraction(lv) * Fraction(rv))
        if isinstance(lv, (int, Fraction)):
            return rv * lv  # Element and QElement support scalar action
        if isinstance(rv, (int, Fraction)):
            return lv * rv
        if isinstance(lv, Element) and isinstance(rv, Element):
            return lv * rv
        if isinstance(lv, QElement) and isinstance(rv, QElement):
            return lv * rv  # the transfer product
        raise DomainError(f"cannot multiply {_kind_name(lv)} and {_kind_name(rv)}")

    def eval(self, node):
        if isinstance(node, Num):
            return _as_int(node.value)
        if isinstance(node, Name):
            return self._lookup(node)
        if isinstance(node, Neg):
            return -self.eval(node.child)
        if isinstance(node, Pow):
            base = self.eval(node.base)
            if isinstance(base, (int, Fraction)):
                return _as_int(Fraction(base) ** node.exponent)
            return base**node.exponent
        if isinstance(node, Bin):
            lv = self.eval(node.left)
            rv = self.eval(node.right)
            if node.op == "*":
                return self._mul(node, lv, rv)
            return self._add_like(node, lv, rv)
        if isinstance(node, Call):
            return self._call(node)
        raise StructureError(f"unknown syntax node {node!r}")


def _kind_name(value) -> str:
    if isinstance(value, (int, Fraction)):
        return "a scalar"
    if isinstance(value, Element):
        return "a homology class"
    if isinstance(value, QElement):
        return "a quotient class"
    return repr(value)


def evaluate(text: str, context: EvalContext):
    """Parse and evaluate in one step."""
    return Evaluator(context).eval(parse(text))


def format_value(value) -> str:
    """Canonical printing: lowest-terms scalars, monomials in degree order."""
    if isinstance(value, (int, Fraction)):
        return scalar_str(value)
    return str(value)


def values_equal(a, b) -> bool:
    """Equality up to the canonical scalar <-> multiple-of-unit identification.

    The zero quotient class also prints as "0", so scalar zero compares
    equal to it; no nonzero scalar names a quotient class.
    """
    if isinstance(b, (int, Fraction)):
        a, b = b, a  # a scalar, if any, comes first
    if isinstance(a, (int, Fraction)) and isinstance(b, Element):
        return b == b.algebra.unit() * a
    if isinstance(a, (int, Fraction)) and isinstance(b, QElement):
        return a == 0 and not b
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) == Fraction(b)
    return a == b
