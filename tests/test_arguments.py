"""Every public entry point refuses a bad argument in one short line, and no cache keys on one."""

from __future__ import annotations

import operator

import pytest

from loophom import (
    Algebra,
    DomainError,
    Generator,
    Subgroup,
    based_loop_space,
    dihedral,
    loop_space,
    make_space,
    quotient,
    sphere_space,
    verify,
)
from loophom.maps import reversal_flips

#: values that are wrong for most arguments: a float, a bool, None, an unhashable list, zero, the empty str, and values
#: too long to echo
BAD = {
    "3.0": 3.0,
    "True": True,
    "None": None,
    "[3]": [3],
    "0": 0,
    '""': "",
    "str5000": "x" * 5000,
    "10**5000": 10**5000,
}

# entry point, whether it returns a cached object, its valid keyword arguments (made lazily), and for each
# argument the values of BAD that are valid for it
ENTRIES = {
    "loop_space": (loop_space, True, lambda: {"n": 3, "ring": "Q"}, {}),
    "based_loop_space": (based_loop_space, True, lambda: {"n": 3, "ring": "Q"}, {}),
    "sphere_space": (sphere_space, True, lambda: {"n": 3, "ring": "Q"}, {}),
    "make_space": (make_space, True, lambda: {"kind": "omega", "n": 4, "ring": "Z"}, {}),
    "quotient": (quotient, True, lambda: {"space": loop_space(3, "Q"), "group": dihedral(1)}, {}),
    "Subgroup": (Subgroup, False, lambda: {"m": 2, "reflections": True, "rotation": 0},
                 {"m": {"10**5000"}, "reflections": {"True"}, "rotation": {"10**5000", "0"}}),
    "Space.betti": (lambda max_degree: loop_space(3, "Q").betti(max_degree), False, lambda: {"max_degree": 4},
                    {"max_degree": {"0"}}),
    "verify.run": (verify.run, False,
                   lambda: {"suite": "algebra", "ns": [3], "rings": ["Q"], "degree_bound": 0, "power_bound": 0},
                   {"ns": {"None", "[3]"}, "rings": {"None"}, "degree_bound": {"None", "0"},
                    "power_bound": {"None", "0"}}),
}


def _cached() -> tuple:
    return loop_space(3, "Q"), based_loop_space(3, "Q"), sphere_space(3, "Q"), quotient(loop_space(3, "Q"), dihedral(1))


CASES = [
    (entry, arg, bad)
    for entry, (_, _, valid, allowed) in ENTRIES.items()
    for arg in valid()
    for bad in BAD
    if bad not in allowed.get(arg, ())
]


@pytest.mark.parametrize("entry,arg,bad", CASES, ids=[f"{e}-{a}-{b}" for e, a, b in CASES])
def test_a_bad_argument_is_refused_in_one_short_line_and_caches_nothing(entry: str, arg: str, bad: str) -> None:
    fn, cached, valid, _ = ENTRIES[entry]
    first = fn(**valid())
    spaces = _cached()
    with pytest.raises(DomainError) as refusal:
        fn(**{**valid(), arg: BAD[bad]})
    message = str(refusal.value)
    assert "\n" not in message and len(message) <= 200, message[:300]
    again = fn(**valid())
    assert again is first if cached else again == first
    assert all(map(operator.is_, _cached(), spaces))


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
