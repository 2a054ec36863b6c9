"""Every public entry point answers a hostile argument exactly or refuses it in one short line, and no cache keys on one.

The contract: each call returns, within about a second, the value a listed case says is right, or raises
`DomainError`, `StructureError` or `ExprSyntaxError` with a message of one line and at most 200 characters.
Three things are outside it, each pinned below: an arithmetic operator that declines a value through Python's
operator protocol (`U + 1` is a `TypeError`), the unchecked normal-form constructor `Element(...)`, and the
kernel's monomial rule `mul_monomials`.
"""

from __future__ import annotations

import inspect
import operator
import time
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import loophom
from loophom import (
    Algebra,
    BettiTable,
    DomainError,
    Element,
    EvalContext,
    ExprSyntaxError,
    Generator,
    LinearMap,
    Quotient,
    Space,
    StructureError,
    Subgroup,
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
    make_space,
    mu_class,
    parse,
    quotient,
    reversal_power_sign,
    sphere_space,
    theta_group,
    theta_star,
    values_equal,
    verify,
)
from loophom.expr import Name
from loophom.maps import reversal_flips

#: values that are wrong for most arguments: a float, a bool, None, an unhashable list, zero, the empty str, values
#: too long to echo, bytes, a dict, a negative int, and a class of another algebra
BAD = {
    "3.0": 3.0,
    "True": True,
    "None": None,
    "[3]": [3],
    "0": 0,
    '""': "",
    "str5000": "x" * 5000,
    "10**5000": 10**5000,
    "bytes": b"U",
    "dict": {"U": 1},
    "-3": -3,
    "other-class": based_loop_space(5, "Z").generator("x"),
}

#: the longest a call may take, in seconds
SECONDS = 1.0

#: one public callable: `call` takes the arguments by keyword; `valid` makes a valid set of them; `answers` maps an
#: argument to the BAD values that are valid for it, each with its right result (a value, or a predicate of the
#: result); `refusal` is the exception (or tuple of them, or a dict from argument to one, None for the rest) the other
#: values raise; with `cached` True a valid call returns the same object again, with False an equal one, and with None
#: a value that is not compared
Entry = namedtuple("Entry", "call cached valid answers refusal", defaults=({}, DomainError))


def _s() -> Space:
    return loop_space(3, "Q")


def _q() -> Quotient:
    return quotient(_s(), dihedral(1))


def _u() -> Element:
    return _s().generator("U")


def _theta4():
    return quotient(loop_space(4, "Q"), theta_group())


def _tags(make):
    """A map maker that returns something comparable: the repr of the map."""
    return lambda **kwargs: repr(make(**kwargs))


def _rows(table) -> list:
    return [(row.degree, row.generators) for row in table.rows]


_ZEROS = "0" * 5000
#: on H(LS^3;Q) the monomial int is U's exponent << 1 | A's bit: degree 3 - 3a + 2e, so degree 10**5000 is A*U^(10**5000/2)
_DEEP = 10**5000 + 1
_ANSWERED_MONO = {"0": 0, "10**5000": 10**5000}

ENTRIES = {
    # the names of loophom.__all__
    "loop_space": Entry(loop_space, True, lambda: {"n": 3, "ring": "Q"}),
    "based_loop_space": Entry(based_loop_space, True, lambda: {"n": 3, "ring": "Q"}),
    "sphere_space": Entry(sphere_space, True, lambda: {"n": 3, "ring": "Q"}),
    "make_space": Entry(make_space, True, lambda: {"kind": "omega", "n": 4, "ring": "Z"}),
    "Space": Entry(lambda **kw: Space(**kw).label, False, lambda: {"kind": "loop", "n": 3, "ring": "Q"}),
    "quotient": Entry(quotient, True, lambda: {"space": _s(), "group": dihedral(1)}),
    "Quotient": Entry(lambda **kw: Quotient(**kw).label, False, lambda: {"space": _s(), "group": dihedral(1)}),
    "Subgroup": Entry(Subgroup, False, lambda: {"m": 2, "reflections": True},
                      {"m": {"10**5000": lambda g: (g.m, g.order, g.label) == (10**5000, 2 * 10**5000, "D1" + _ZEROS)},
                       "reflections": {"True": dihedral(2)}}),
    "cyclic": Entry(cyclic, False, lambda: {"m": 3}, {"m": {"10**5000": lambda g: g.label == "C1" + _ZEROS}}),
    "dihedral": Entry(dihedral, False, lambda: {"m": 3}, {"m": {"10**5000": lambda g: g.label == "D1" + _ZEROS}}),
    "mu_class": Entry(mu_class, False, lambda: {"q": _q()}),
    "eta_class": Entry(eta_class, False, lambda: {"q": quotient(loop_space(4, "Q"), dihedral(1))}),
    "a_product": Entry(a_product, False,
                       lambda: {"variant": "theta", "q": _theta4(), "a": _theta4().unit(), "b": _theta4().unit()},
                       {}, {"a": StructureError, "b": StructureError, None: DomainError}),
    "theta_star": Entry(_tags(theta_star), False, lambda: {"space": _s()}),
    "chi_star": Entry(_tags(chi_star), False, lambda: {"space": _s()}),
    "ev_star": Entry(_tags(ev_star), False, lambda: {"n": 3, "ring": "Q"}),
    "j_shriek": Entry(_tags(j_shriek), False, lambda: {"n": 3, "ring": "Z"}),
    "j_star": Entry(_tags(j_star), False, lambda: {"n": 4, "ring": "Q"}),
    # the k-th power of x is reversed with the sign (-1)^k for n odd and (-1)^(k(k+1)/2) for n even
    "reversal_power_sign": Entry(reversal_power_sign, False, lambda: {"n": 3, "k": 2},
                                 {"n": {"0": -1, "10**5000": -1}, "k": {"0": 1, "10**5000": 1}}),
    "LinearMap": Entry(_tags(LinearMap), False,
                       lambda: {"source": _s(), "target": _s(), "rule": lambda m: (1, m), "name": "id"},
                       {"name": {'""': "LinearMap( on H(LS^3;Q))", "str5000": f"LinearMap({'x' * 5000} on H(LS^3;Q))"}}),
    "Algebra": Entry(lambda **kw: Algebra(**kw).label, False,
                     lambda: {"label": "A", "ring": "Q", "generators": (Generator("x", 2),), "shift": 0,
                              "unit_name": "1", "extra_zero_rules": (), "torsion_rules": ()},
                     {"label": {'""': "", "str5000": "x" * 5000},
                      "shift": {"0": "A", "-3": "A", "10**5000": "A"},
                      "unit_name": {'""': "A", "str5000": "A"},
                      "extra_zero_rules": {"[3]": "A"}, "torsion_rules": {"[3]": "A"}},
                     {"ring": DomainError, None: StructureError}),
    "EvalContext": Entry(lambda **kw: (lambda c: (c.space, c.quotient))(EvalContext(**kw)), False,
                         lambda: {"space": _s(), "group": dihedral(1)}, {"group": {"None": (_s(), None)}}),
    "parse": Entry(parse, False, lambda: {"text": "U"}, {"text": {"str5000": Name("x" * 5000, 1, 1)}},
                   (DomainError, ExprSyntaxError)),
    "evaluate": Entry(evaluate, False, lambda: {"text": "U^2", "context": EvalContext(_s())}, {},
                      (DomainError, ExprSyntaxError)),
    "format_value": Entry(format_value, False, lambda: {"value": _u()},
                          {"value": {"0": "0", "-3": "-3", "10**5000": "1" + _ZEROS, "other-class": "x"}}),
    "values_equal": Entry(values_equal, False, lambda: {"a": _u(), "b": _u()},
                          {arg: {bad: False for bad in ("0", "-3", "10**5000", "other-class")} for arg in "ab"}),
    "verify.run": Entry(lambda **kw: verify.run(**kw).passed, False,
                        lambda: {"suite": "algebra", "ns": [3], "rings": ["Q"], "degree_bound": 0, "power_bound": 0},
                        {"ns": {"None": True, "[3]": True}, "rings": {"None": True},
                         "degree_bound": {"None": True, "0": True}, "power_bound": {"None": True, "0": True}}),
    # the public methods of Space (the ones Algebra gives it too), Quotient, Element, LinearMap and BettiTable
    "Space.scalar": Entry(lambda value: _s().scalar(value), False, lambda: {"value": 2},
                          {"value": {"0": 0, "-3": -3, "10**5000": 10**5000}}),
    "Space.monomial": Entry(lambda exps: _s().monomial(exps), False, lambda: {"exps": (1, 2)}, {}, StructureError),
    "Space.exponents": Entry(lambda mono: _s().exponents(mono), False, lambda: {"mono": 5},
                             {"mono": {"0": (0, 0), "10**5000": (0, 10**5000 // 2)}}, StructureError),
    "Space.monomial_degree": Entry(lambda mono: _s().monomial_degree(mono), False, lambda: {"mono": 5},
                                   {"mono": {"0": 3, "10**5000": 3 + 10**5000}}, StructureError),
    "Space.monomial_str": Entry(lambda mono: _s().monomial_str(mono), False, lambda: {"mono": 5},
                                {"mono": {"0": "E", "10**5000": "U^5" + "0" * 4999}}, StructureError),
    "Space.normalize": Entry(lambda terms: _s().normalize(terms), False, lambda: {"terms": [(1, 2)]},
                             {"terms": {'""': lambda z: not z}}, StructureError),
    "Space.monomial_element": Entry(lambda mono: _s().monomial_element(mono), False, lambda: {"mono": 2},
                                    {"mono": {b: lambda z, b=b: z.terms == {BAD[b]: 1} for b in _ANSWERED_MONO}},
                                    StructureError),
    "Space.basis": Entry(lambda degree: _s().basis(degree), False, lambda: {"degree": 5},
                         {"degree": {"0": [1], "-3": [], "10**5000": [_DEEP]}}),
    "Space.graded_piece": Entry(lambda degree: _s().graded_piece(degree), False, lambda: {"degree": 5},
                                {"degree": {"0": ([1], []), "-3": ([], []), "10**5000": ([_DEEP], [])}}),
    "Space.generator": Entry(lambda name: _s().generator(name), False, lambda: {"name": "U"}),
    "Space.family_of": Entry(lambda mono: _s().family_of(mono), False, lambda: {"mono": 2},
                             {"mono": {"0": None, "10**5000": "2n-1+lambda_25" + "0" * 4998}}, StructureError),
    "Space.betti": Entry(lambda max_degree: _rows(_s().betti(max_degree)), False, lambda: {"max_degree": 4},
                         {"max_degree": {"0": [(0, ("A",))]}}),
    "Space.table": Entry(lambda max_degree, alg: _rows(_s().table(max_degree, alg)), False,
                         lambda: {"max_degree": 4, "alg": _q()}, {"max_degree": {"0": [(0, ("q(A)",))]}}),
    "Quotient.monomial_str": Entry(lambda mono: _q().monomial_str(mono), False, lambda: {"mono": 4},
                                   {"mono": {"0": "q(E)", "10**5000": "q(U^5" + "0" * 4999 + ")"}}, StructureError),
    "Quotient.normalize": Entry(lambda terms: _q().normalize(terms), False, lambda: {"terms": [(1, 4)]},
                                {"terms": {'""': lambda z: not z}}, StructureError),
    # D1 fixes A*U^e exactly when e is even, and 10**5000 / 2 is
    "Quotient.basis": Entry(lambda degree: _q().basis(degree), False, lambda: {"degree": 7},
                            {"degree": {"0": [1], "-3": [], "10**5000": [_DEEP]}}),
    "Quotient.invariants": Entry(lambda degree: _q().invariants(degree), False, lambda: {"degree": 7},
                                 {"degree": {"0": [1], "-3": [], "10**5000": [_DEEP]}}),
    "Quotient.betti": Entry(lambda max_degree: _rows(_q().betti(max_degree)), False, lambda: {"max_degree": 4},
                            {"max_degree": {"0": [(0, ("q(A)",))]}}),
    "Quotient.project": Entry(lambda elt: _q().project(elt), False, lambda: {"elt": _u()}, {}, StructureError),
    "Quotient.transfer": Entry(lambda a: _q().transfer(a), False, lambda: {"a": _q().unit()}, {}, StructureError),
    "Quotient.action_sum": Entry(lambda elt: _q().action_sum(elt), False, lambda: {"elt": _u()}, {}, StructureError),
    "Quotient.product": Entry(lambda a, b: _q().product(a, b), False, lambda: {"a": _q().unit(), "b": _q().unit()},
                              {}, StructureError),
    "Element.coefficient": Entry(lambda mono: _u().coefficient(mono), False, lambda: {"mono": 2},
                                 {"mono": {"0": 0, "10**5000": 0}}, StructureError),
    "LinearMap.__call__": Entry(lambda elt: theta_star(_s())(elt), False, lambda: {"elt": _u()}, {}, StructureError),
    # theta negates a monomial with an odd U exponent: not 1 or 10**5000 / 2
    "LinearMap.image_of_monomial": Entry(lambda mono: theta_star(_s()).image_of_monomial(mono), False,
                                         lambda: {"mono": 2},
                                         {"mono": {b: lambda z, b=b: z.terms == {BAD[b]: 1} for b in _ANSWERED_MONO}},
                                         StructureError),
    # H(LS^4;Z): A in degree 0, E in 4, the torsion class A*Theta in 6
    "BettiTable.rank": Entry(lambda degree: loop_space(4, "Z").betti(10).rank(degree), False, lambda: {"degree": 4},
                             {"degree": {"0": 1, "-3": 0, "10**5000": 0}}),
    "BettiTable.torsion": Entry(lambda degree: loop_space(4, "Z").betti(10).torsion(degree), False,
                                lambda: {"degree": 6}, {"degree": {"0": (), "-3": (), "10**5000": ()}}),
}

_REFUSED = object()


def _cached() -> tuple:
    return loop_space(3, "Q"), based_loop_space(3, "Q"), sphere_space(3, "Q"), quotient(loop_space(3, "Q"), dihedral(1))


def _refusal(entry: Entry, arg: str):
    return entry.refusal.get(arg, entry.refusal.get(None)) if isinstance(entry.refusal, dict) else entry.refusal


def _right(result, answer) -> bool:
    return answer(result) if callable(answer) else type(result) is type(answer) and result == answer


CASES = [(entry, arg, bad) for entry, spec in ENTRIES.items() for arg in spec.valid() for bad in BAD]


@pytest.mark.parametrize("entry,arg,bad", CASES, ids=[f"{e}-{a}-{b}" for e, a, b in CASES])
def test_a_hostile_argument_is_answered_exactly_or_refused_in_one_short_line(entry: str, arg: str, bad: str) -> None:
    spec = ENTRIES[entry]
    first = spec.call(**spec.valid())
    spaces = _cached()
    answer = spec.answers.get(arg, {}).get(bad, _REFUSED)
    start = time.perf_counter()
    if answer is _REFUSED:
        with pytest.raises(_refusal(spec, arg)) as refusal:
            spec.call(**{**spec.valid(), arg: BAD[bad]})
        message = str(refusal.value)
        assert "\n" not in message and len(message) <= 200, message[:300]
    else:
        result = spec.call(**{**spec.valid(), arg: BAD[bad]})
        assert _right(result, answer), repr(result)[:300]
    assert time.perf_counter() - start < SECONDS
    again = spec.call(**spec.valid())
    if spec.cached is not None:
        assert again is first if spec.cached else again == first
    assert all(map(operator.is_, _cached(), spaces))


#: names of loophom.__all__ that take no argument a caller could get wrong, each with its reason
UNCALLED = {
    "DomainError": "an exception class",
    "StructureError": "an exception class",
    "ExprSyntaxError": "an exception class",
    "RING_Q": "a constant",
    "RING_Z": "a constant",
    "Generator": "a record of the fields it is given; Algebra checks the generators it reads",
    "TableRow": "a record of the fields it is given",
    "BettiTable": "a record of the fields it is given; its methods have entries",
    "Element": "the unchecked normal-form constructor; classes come from normalize, monomial_element or generator",
    "QElement": "the unchecked normal-form constructor of a quotient class, as Element's",
    "theta_group": "takes no argument",
    "verify": "a module; verify.run has an entry",
}
#: public methods with arguments outside the contract, each with its reason
UNCHECKED_METHODS = {
    "mul_monomials": "the kernel's nilpotent rule, which Algebra._multiply calls on every term pair: it takes two "
                     "monomials of the algebra unchecked; the checked route is monomial_element(m1) * monomial_element(m2)",
}
CLASSES = {"Space": Space, "Quotient": Quotient, "Element": Element, "LinearMap": LinearMap, "BettiTable": BettiTable,
           "Subgroup": Subgroup}


def _takes_arguments(function) -> bool:
    return len(inspect.signature(function).parameters) > 1


def test_every_public_name_and_method_has_an_entry() -> None:
    assert set(loophom.__all__) == {name for name in ENTRIES if "." not in name} | set(UNCALLED) | {"verify"}
    methods = [name.split(".") for name in ENTRIES if "." in name]
    covered = {getattr(CLASSES[owner], name) for owner, name in methods if owner in CLASSES}
    for cls in CLASSES.values():
        for name, function in inspect.getmembers(cls, inspect.isfunction):
            owner = next(klass for klass in cls.__mro__ if name in vars(klass))
            if name.startswith("_") and name != "__call__" or owner.__module__ in ("builtins", "collections"):
                continue
            if _takes_arguments(function) and name not in UNCHECKED_METHODS:
                assert function in covered, f"{cls.__name__}.{name}"


def test_the_methods_without_arguments_answer() -> None:
    u, q = _u(), _q()
    assert (u.degrees(), u.degree(), u.is_homogeneous(), u.homogeneous_parts(), bool(u)) == ([5], 5, True, {5: u}, True)
    assert (str(q.unit()), str(q.unit().rep), str(q.zero()), _s().unit() == _s().generator("E")) == (
        "1/4*q(E)", "1/4*E", "0", True)
    assert (dihedral(3).order, theta_group().label, cyclic(4).reflections) == (6, "theta", False)
    with pytest.raises(DomainError, match=r"^degree of 0 is undefined \(degrees \[\]\)$"):
        _s().zero().degree()


OPERATORS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "truediv": operator.truediv,
             "pow": operator.pow, "eq": operator.eq}
#: the right results of U <op> value, by operator and BAD value; any other value is refused or declined
OPERATOR_ANSWERS = {
    "mul": {"0": lambda z: not z, "-3": lambda z: z.terms == {2: -3}, "10**5000": lambda z: z.terms == {2: 10**5000}},
    "truediv": {"-3": lambda z: z.terms == {2: Fraction(-1, 3)},
                "10**5000": lambda z: z.terms == {2: Fraction(1, 10**5000)}},
    "pow": {"0": lambda z: z == _s().unit(), "10**5000": lambda z: z.terms == {2 * 10**5000: 1}},
    "eq": {bad: False for bad in BAD},
}
OPERATOR_CASES = [(op, bad) for op in OPERATORS for bad in BAD]


@pytest.mark.parametrize("op,bad", OPERATOR_CASES, ids=[f"{op}-{bad}" for op, bad in OPERATOR_CASES])
def test_an_operator_answers_refuses_or_declines_through_the_protocol(op: str, bad: str) -> None:
    # declining is the one TypeError allowed: the class's own method returns NotImplemented, and then Python raises
    u, value = _u(), BAD[bad]
    answer = OPERATOR_ANSWERS.get(op, {}).get(bad, _REFUSED)
    try:
        result = OPERATORS[op](u, value)
    except TypeError:
        assert answer is _REFUSED and getattr(u, f"__{op}__")(value) is NotImplemented
    except (DomainError, StructureError) as refusal:
        assert answer is _REFUSED
        assert "\n" not in str(refusal) and len(str(refusal)) <= 200
    else:
        assert answer is not _REFUSED and _right(result, answer), repr(result)[:300]


def test_the_operator_protocol_declines_a_float_or_an_int_added_to_a_class() -> None:
    u = _u()
    assert u.__add__(1) is NotImplemented and u.__mul__(1.5) is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand type"):
        u + 1
    with pytest.raises(TypeError, match="unsupported operand type"):
        u * 1.5


def test_element_is_the_unchecked_constructor_and_normalize_the_checked_one() -> None:
    # Element(...) takes a normal term map as given: a float coefficient prints as its int part
    assert str(Element(_s(), {0: 1.5})) == "1*E"
    with pytest.raises(DomainError, match=r"^cannot use 1\.5 as a rational coefficient$"):
        _s().normalize([(1.5, 0)])


_HOSTILE = st.one_of(st.integers(-10**6, 10**6), st.floats(allow_nan=False), st.text(max_size=5), st.binary(max_size=3),
                     st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=2), st.fractions())


@given(_HOSTILE)
def test_a_drawn_monomial_is_answered_exactly_or_refused(value) -> None:
    # H(LS^3;Q): the int a | e << 1 is A^a*U^e, of degree 3 - 3a + 2e
    space = _s()
    calls = (space.exponents, space.monomial_degree, space.monomial_str, space.monomial_element, _u().coefficient)
    if type(value) is not int or value < 0:
        for call in calls:
            with pytest.raises(StructureError, match=r" is not a monomial of H\(LS\^3;Q\)$"):
                call(value)
        return
    a, e = value & 1, value >> 1
    assert space.exponents(value) == (a, e)
    assert space.monomial_degree(value) == 3 - 3 * a + 2 * e
    assert space.monomial_str(value) == "*".join(["A"] * a + (["U"] if e == 1 else [f"U^{e}"] if e else [])) or "E"
    assert space.monomial_element(value).terms == {value: 1}
    assert _u().coefficient(value) == (value == 2)


@given(_HOSTILE)
def test_a_drawn_degree_is_answered_exactly_or_refused(value) -> None:
    space, table = _s(), loop_space(4, "Z").betti(10)
    if type(value) is not int:
        for call in (space.basis, space.graded_piece, _q().basis, table.rank):
            with pytest.raises(DomainError, match="^a degree must be an int, got "):
                call(value)
        return
    # degree d holds A*U^(d/2) for d even and U^((d-3)/2) for d odd, d >= 0 and d >= 3
    expected = [value + 1] if value >= 0 and value % 2 == 0 else [value - 3] if value >= 3 else []
    assert space.basis(value) == expected
    assert space.graded_piece(value) == (expected, [])
    assert table.rank(value) == (value in (0, 3, 4, 9, 10))


#: fifteen calls that escaped the contract: the first three were answered (`'A'`, `[]` and -1), the next eight
#: raised TypeError and the last four AttributeError
PROBE = [
    lambda s, ctx, q: s.monomial_str(-3),
    lambda s, ctx, q: s.basis(1.5),
    lambda s, ctx, q: reversal_power_sign(3, -1),
    lambda s, ctx, q: s.basis("a"),
    lambda s, ctx, q: s.graded_piece(None),
    lambda s, ctx, q: s.exponents("a"),
    lambda s, ctx, q: s.normalize(5),
    lambda s, ctx, q: s.generator([]),
    lambda s, ctx, q: evaluate(None, ctx),
    lambda s, ctx, q: evaluate(b"U", ctx),
    lambda s, ctx, q: reversal_power_sign("a", 1),
    lambda s, ctx, q: mu_class(None),
    lambda s, ctx, q: a_product("theta", None, q.unit(), q.unit()),
    lambda s, ctx, q: s.table(10, None),
    lambda s, ctx, q: evaluate("U", None),
]


@pytest.mark.parametrize("index", range(len(PROBE)))
def test_the_probe_calls_are_refused_in_one_short_line(index: int) -> None:
    with pytest.raises((DomainError, StructureError)) as refusal:
        PROBE[index](_s(), EvalContext(_s()), _theta4())
    assert "\n" not in str(refusal.value) and len(str(refusal.value)) <= 200


def test_an_unhashable_quotient_argument_is_refused_not_hashed() -> None:
    # lru_cache keyed the pair before Quotient checked it: TypeError: unhashable type: 'list'
    for args in ((loop_space(3, "Q"), [1]), ([3], dihedral(1))):
        with pytest.raises(DomainError, match="^a quotient needs a Space and a Subgroup, got "):
            quotient(*args)


def test_an_unhashable_suite_is_refused_not_hashed() -> None:
    # `suite in SUITES` hashed it: TypeError: unhashable type: 'list'
    with pytest.raises(DomainError, match=r"^unknown suite \['all'\]; choose from algebra, "):
        verify.run(["all"])


def test_verify_reads_only_none_as_the_default_ns_and_rings() -> None:
    # a falsy ns ran n = 3..6, and a str of rings ran each of its characters
    for kwargs, shown in (
        ({"rings": "QZ"}, "^rings must be a collection, not a str, got 'QZ'$"),
        ({"ns": "3"}, "^ns must be a collection, not a str, got '3'$"),
        ({"ns": []}, "^ns must not be empty$"),
        ({"rings": ()}, "^rings must not be empty$"),
    ):
        with pytest.raises(DomainError, match=shown):
            verify.run("algebra", **{"ns": [3], "rings": ["Q"], "degree_bound": 0, "power_bound": 0, **kwargs})


@pytest.mark.parametrize("length", [98, 99, 100, 101, 5000])
def test_an_unknown_ring_or_suite_is_named_only_when_short(length: int) -> None:
    # a value is named when its repr, quotes included, has at most 100 characters
    value = "Q" * length
    shown = repr(value) if length <= 98 else "a str of more than 100 characters"
    with pytest.raises(DomainError, match=f"^unknown coefficient ring {shown}$"):
        Algebra("A", value, (Generator("x", 2),), shift=0)
    with pytest.raises(DomainError, match=f"^unknown ring {shown} \\(use Q or Z\\)$"):
        loop_space(3, value)
    with pytest.raises(DomainError, match=f"^unknown suite {shown}; choose from "):
        verify.run(value)


def test_each_space_reads_its_reversal_mask_from_its_presentation() -> None:
    for kind, n, flips in (("loop", 3, 0b10), ("loop", 4, 0b101), ("omega", 3, 1), ("omega", 4, 0b11)):
        space = make_space(kind, n, "Q")
        assert reversal_flips(space) == space.flips == flips
    assert sphere_space(3, "Q").flips is None
    with pytest.raises(DomainError, match="^loop reversal acts on the loop and omega spaces only$"):
        reversal_flips(sphere_space(3, "Q"))
    assert not hasattr(quotient(loop_space(3, "Q"), dihedral(1)), "flips")
