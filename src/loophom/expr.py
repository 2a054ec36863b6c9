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
Fraction) or `Element`s: homology classes, or quotient classes, the
`QElement`s of a `Quotient`.  Two values of one kind add and multiply; a
scalar adds to a homology class only, as a multiple of its unit.  Every
product, `P`, `POmega` and A-product is priced by `core.check_work`, and
every sum by `core.check_sum`, before it is formed; a power is priced by
`core.power`, step by step.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from fractions import Fraction

from .core import (DomainError, Element, StructureError, _shown, check_sum, check_work, int_from_digits, is_scalar,
                   power, scalar_str)
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


#: `kind` is NAME, NUMBER, one of +-*^/(),, or END
Token = namedtuple("Token", "kind text line col")

#: deepest nesting of parentheses and calls; parsing and evaluation recurse once per level
MAX_NESTING = 100


#: a number (ASCII digits only: int() would read other digits, like '²', differently), a word, an operator,
#: or one whitespace character; a word is a NAME only when it starts with a letter or '_'
_TOKEN = re.compile(r"([0-9]+)|(\w+)|([-+*^/(),])|(\s)")


def tokenize(text: str) -> list:
    tokens = []
    line, line_start = 1, 0  # line_start: the offset of the current line's first character
    pos = 0
    depth = 0  # parentheses opened and not yet closed
    while pos < len(text):
        col = pos - line_start + 1
        match = _TOKEN.match(text, pos)
        if match is None or match.lastindex == 2 and not (text[pos].isalpha() or text[pos] == "_"):
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        word, kind = match.group(), match.lastindex
        if kind == 3:
            depth += (word == "(") - (word == ")")
            if depth > MAX_NESTING:
                raise ExprSyntaxError(f"more than {MAX_NESTING} nested parentheses and calls", line, col)
        if kind < 4:
            tokens.append(Token(("NUMBER", "NAME", word)[kind - 1], word, line, col))
        elif word == "\n":
            line, line_start = line + 1, pos + 1
        pos = match.end()
    tokens.append(Token("END", "", line, pos - line_start + 1))
    return tokens


# ----------------------------------------------------------------------
# abstract syntax
# ----------------------------------------------------------------------


# Every node ends with the 1-based line and column of the token that made it:
# the operator of a Bin or Pow, else its first token.  Nodes are named tuples,
# so nodes of one kind with equal fields compare and hash alike.
Num = namedtuple("Num", "value line col")  # value: Fraction
Name = namedtuple("Name", "ident line col")
Call = namedtuple("Call", "fn args line col")  # args: tuple of nodes
Bin = namedtuple("Bin", "op left right line col")  # op: '+', '-', '*'
Pow = namedtuple("Pow", "base exponent line col")  # exponent: int
Neg = namedtuple("Neg", "child line col")


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
            raise ExprSyntaxError(f"expected {kind}, found {_shown(what)}", tok.line, tok.col)
        return self.take()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected {_shown(tok.text)}", tok.line, tok.col)
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
                raise ExprSyntaxError(f"expected exponent after '^', found {_shown(what)}", tok.line, tok.col)
            self.take()
            node = Pow(node, int_from_digits(tok.text), op.line, op.col)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.take()
            numerator = int_from_digits(tok.text)
            if self.peek().kind == "/":
                slash = self.take()
                den_tok = self.expect("NUMBER")
                denominator = int_from_digits(den_tok.text)
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
        raise ExprSyntaxError(f"expected a value, found {_shown(what)}", tok.line, tok.col)


def parse(text: str):
    """Parse an expression; raises ExprSyntaxError with line/column."""
    if type(text) is not str:
        raise DomainError(f"an expression is a str, got {_shown(text)}")
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


def _as_int(value) -> object:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class EvalContext:
    """The flag-selected space (and quotient, when a group is given), which evaluates syntax trees over them."""

    def __init__(self, space: Space, group=None):
        if type(space) is not Space:
            raise DomainError(f"an EvalContext needs a Space, got {_shown(space)}")
        self.space = space
        self.quotient = quotient(space, group) if group is not None else None

    # -- names ---------------------------------------------------------

    def _lookup(self, node: Name):
        name = node.ident
        space = self.space
        if name in space.named:
            return space.named[name]
        if self.quotient is not None:
            if name == "e":
                return self.quotient.unit()
            if name == "mu":
                return mu_class(self.quotient)
            if name == "eta":
                return eta_class(self.quotient)
        raise DomainError(
            f"unknown name {_shown(name)} in the {space.kind} space of S^{space.n}"
            + ("" if self.quotient else " (no group selected)")
        )

    # -- functions -------------------------------------------------------

    def _need_quotient(self, fn: str) -> Quotient:
        if self.quotient is None:
            raise DomainError(f"{fn}(...) needs a --group")
        return self.quotient

    def _element_in(self, value, space: Space, fn: str) -> Element:
        if isinstance(value, (int, Fraction)):
            # scalars mean multiples of the unit class
            return space.unit() * value
        if isinstance(value, Element) and value.algebra is space:
            return value
        raise DomainError(
            f"{fn}(...) expects a class of the {space.kind} space of S^{space.n}"
        )

    def _call(self, node: Call):
        fn = node.fn
        arity = FUNCTION_ARITY.get(fn)
        if arity is None:
            raise DomainError(f"unknown function {_shown(fn)}")
        if len(node.args) != arity:
            raise DomainError(f"{fn}(...) takes {arity} argument{'s' if arity > 1 else ''}, got {len(node.args)}")
        args = [self.eval(a) for a in node.args]

        if fn == "q":
            quot = self._need_quotient(fn)
            return quot.project(self._element_in(args[0], quot.space, fn))
        if fn == "tr":
            quot = self._need_quotient(fn)
            if not isinstance(args[0], QElement) or args[0].algebra is not quot:
                raise DomainError("tr(...) expects a quotient class")
            return quot.transfer(args[0])
        if fn == "theta":
            value = args[0]  # a QElement's quotient has no kind; every space here has the context's n and ring
            if type(value) is not Element or value.algebra.kind not in (LOOP, OMEGA):
                raise DomainError("theta(...) expects a loop or omega class")
            return theta_star(value.algebra)(value)
        if fn in STRUCTURE_MAPS:
            make_map, source = STRUCTURE_MAPS[fn]
            n, ring = self.space.n, self.space.ring
            return make_map(n, ring)(self._element_in(args[0], source(n, ring), fn))

        # two-argument products on quotients
        a, b = args
        if not isinstance(a, QElement) or not isinstance(b, QElement):
            raise DomainError(f"{fn}(...) expects two quotient classes")
        if a.algebra is not b.algebra:
            raise StructureError(f"{fn}(...) arguments live on different quotients")
        quot = a.algebra
        check_work(a, b, "a product")
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
        total = quot.zero()
        for part in b.homogeneous_parts().values():
            total = total + a_product(variant, quot, a, part)
        return total

    # -- operators -------------------------------------------------------

    def _add_like(self, node: Bin, lv, rv):
        op = operator.add if node.op == "+" else operator.sub
        # scalars act as multiples of the ambient unit when mixed with homology classes, not quotient classes
        if isinstance(lv, (int, Fraction)) and type(rv) is Element:
            lv = rv.algebra.unit() * lv
        if isinstance(rv, (int, Fraction)) and type(lv) is Element:
            rv = lv.algebra.unit() * rv
        scalars = isinstance(lv, (int, Fraction)) and isinstance(rv, (int, Fraction))
        if not scalars and not (type(lv) is type(rv) and isinstance(lv, Element)):
            raise DomainError(
                f"cannot {'add' if node.op == '+' else 'subtract'} "
                f"{_kind_name(lv)} and {_kind_name(rv)}"
            )
        check_sum(lv, rv, "a sum")
        return _as_int(op(lv, rv))

    def _mul(self, node: Bin, lv, rv):
        if isinstance(lv, Element) and isinstance(rv, Element) and type(lv) is not type(rv):
            raise DomainError(f"cannot multiply {_kind_name(lv)} and {_kind_name(rv)}")
        check_work(lv, rv, "a product")
        return _as_int(lv * rv)  # classes of both kinds take scalars

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
                return power(base, node.exponent)
            return base**node.exponent
        if isinstance(node, Bin):
            chain = []  # a + b + ... nests to the left without bound: walk its spine in a loop
            while isinstance(node, Bin):
                chain.append(node)
                node = node.left
            value = self.eval(node)
            for link in reversed(chain):
                value = (self._mul if link.op == "*" else self._add_like)(link, value, self.eval(link.right))
            return value
        if isinstance(node, Call):
            return self._call(node)
        raise StructureError(f"unknown syntax node {_shown(node)}")


def _kind_name(value) -> str:
    if isinstance(value, (int, Fraction)):
        return "a scalar"
    if isinstance(value, QElement):
        return "a quotient class"
    if isinstance(value, Element):
        return "a homology class"
    return repr(value)


def evaluate(text: str, context: EvalContext):
    """Parse and evaluate in one step."""
    if type(context) is not EvalContext:
        raise DomainError(f"evaluate needs an EvalContext, got {_shown(context)}")
    return context.eval(parse(text))


def _check_value(value) -> None:
    if not isinstance(value, Element) and not is_scalar(value):  # is_scalar refuses a bool
        raise DomainError(f"not a scalar or a class: {_shown(value)}")


def format_value(value) -> str:
    """Canonical printing: lowest-terms scalars, monomials in degree order."""
    _check_value(value)
    if isinstance(value, (int, Fraction)):
        return scalar_str(value)
    return str(value)


def values_equal(a, b) -> bool:
    """Equality up to the canonical scalar <-> multiple-of-unit identification.

    The zero quotient class also prints as "0", so scalar zero compares
    equal to it; no nonzero scalar names a quotient class.
    """
    _check_value(a)
    _check_value(b)
    if isinstance(b, (int, Fraction)):
        a, b = b, a  # a scalar, if any, comes first
    if isinstance(a, (int, Fraction)) and isinstance(b, QElement):
        return a == 0 and not b
    if isinstance(a, (int, Fraction)) and isinstance(b, Element):
        return b == b.algebra.unit() * a
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) == Fraction(b)
    return a == b
