"""Space construction, Betti tables against closed forms, family tags."""

from __future__ import annotations

import pytest

from loophom import (
    Algebra,
    DomainError,
    Space,
    based_loop_space,
    chi_star,
    cyclic,
    dihedral,
    ev_star,
    j_shriek,
    j_star,
    loop_space,
    make_space,
    quotient,
    sphere_space,
    theta_group,
    theta_star,
)

from oracles import (
    loop_betti_closed_form,
    omega_betti_closed_form,
    sphere_betti_closed_form,
)


def _table_as_dict(table) -> dict:
    return {row.degree: (row.rank, len(row.torsion)) for row in table.rows}


# ----------------------------------------------------------------------
# Betti numbers against the arithmetic-progression families
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("ring", ["Q", "Z"])
def test_loop_betti_matches_closed_form(n: int, ring: str) -> None:
    table = loop_space(n, ring).betti(120)
    expected = {
        d: pair for d, pair in loop_betti_closed_form(n, ring, 120).items()
    }
    assert _table_as_dict(table) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_omega_betti_matches_closed_form(n: int) -> None:
    table = based_loop_space(n, "Z").betti(60)
    expected = {d: (r, 0) for d, r in omega_betti_closed_form(n, 60).items()}
    assert _table_as_dict(table) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sphere_betti_matches_closed_form(n: int) -> None:
    table = sphere_space(n, "Z").betti(30)
    expected = {d: (r, 0) for d, r in sphere_betti_closed_form(n, 30).items()}
    assert _table_as_dict(table) == expected


def test_all_loop_rows_have_rank_at_most_one() -> None:
    for n in (3, 4, 5, 6):
        for row in loop_space(n, "Z").betti(150).rows:
            assert row.rank + len(row.torsion) == 1


def test_torsion_rows_only_over_z_and_even_n() -> None:
    z_rows = {r.degree: r.torsion for r in loop_space(4, "Z").betti(60).rows}
    q_rows = {r.degree: r.torsion for r in loop_space(4, "Q").betti(60).rows}
    assert z_rows[6] == (2,)
    assert 6 not in q_rows
    assert all(not r.torsion for r in loop_space(5, "Z").betti(60).rows)


# ----------------------------------------------------------------------
# generators and family tags
# ----------------------------------------------------------------------


def test_named_classes_odd() -> None:
    space = loop_space(5, "Q")
    assert space.generator("A").degree() == 0
    assert space.generator("E").degree() == 5
    assert space.generator("U").degree() == 9
    assert space.generator("Theta").degree() == 13
    assert space.generator("sigma1").degree() == 4
    assert space.generator("Theta") == space.generator("U") ** 2


def test_named_classes_even() -> None:
    space = loop_space(6, "Q")
    assert space.generator("A").degree() == 0
    assert space.generator("E").degree() == 6
    assert space.generator("sigma1").degree() == 5
    assert space.generator("Theta").degree() == 16


def test_unknown_name_lists_alternatives() -> None:
    with pytest.raises(DomainError, match="available:"):
        loop_space(3, "Q").generator("bogus")
    with pytest.raises(DomainError):
        loop_space(4, "Q").generator("U")


def test_family_tags_odd() -> None:
    space = loop_space(3, "Q")
    assert space.family_of(space.monomial((1, 0))) is None  # A
    assert space.family_of(space.monomial((0, 0))) is None  # E
    assert space.family_of(space.monomial((1, 1))) == "lambda_1"
    assert space.family_of(space.monomial((1, 2))) == "n-1+lambda_1"
    assert space.family_of(space.monomial((0, 1))) == "n+lambda_1"
    assert space.family_of(space.monomial((0, 2))) == "2n-1+lambda_1"
    assert space.family_of(space.monomial((1, 5))) == "lambda_3"


def test_family_tags_even() -> None:
    space = loop_space(4, "Z")
    assert space.family_of(space.monomial((0, 1, 0))) is None  # A
    assert space.family_of(space.monomial((0, 0, 0))) is None  # E
    assert space.family_of(space.monomial((1, 0, 0))) == "lambda_1"
    assert space.family_of(space.monomial((1, 0, 2))) == "lambda_3"
    assert space.family_of(space.monomial((0, 1, 1))) == "n-1+lambda_1"
    assert space.family_of(space.monomial((0, 0, 2))) == "2n-1+lambda_2"


def test_family_tags_match_degrees() -> None:
    for n in (3, 4, 5, 6):
        space = loop_space(n, "Z")
        lam = lambda r: (2 * r - 1) * (n - 1)
        for row in space.betti(120).rows:
            if row.family is None:
                assert row.degree in (0, n)
                continue
            kind, _, r_text = row.family.rpartition("_")
            r = int(r_text)
            offset = {"lambda": 0, "n-1+lambda": n - 1, "2n-1+lambda": 2 * n - 1, "n+lambda": n}[
                kind
            ]
            assert row.degree == offset + lam(r)


def test_based_and_sphere_rows_are_untagged() -> None:
    assert all(r.family is None for r in based_loop_space(3, "Q").betti(20).rows)
    assert all(r.family is None for r in sphere_space(3, "Q").betti(20).rows)


# ----------------------------------------------------------------------
# construction errors and the factory
# ----------------------------------------------------------------------


def test_dimension_bounds() -> None:
    with pytest.raises(DomainError):
        loop_space(1, "Q")
    with pytest.raises(DomainError):
        loop_space(0, "Q")
    with pytest.raises(DomainError):
        based_loop_space(1, "Q")
    with pytest.raises(DomainError):
        sphere_space(1, "Q")
    space = loop_space(2, "Q")
    assert space.basis(0) == [space.monomial((0, 1, 0))]


def test_negative_table_bound_rejected() -> None:
    with pytest.raises(DomainError):
        loop_space(3, "Q").betti(-1)


@pytest.mark.parametrize("bound", [2.5, True, "3"], ids=repr)
def test_a_table_bound_that_is_not_an_int_is_refused(bound) -> None:
    # 2.5 reached range() as a TypeError, and True was read as 1 and printed as True
    for alg in (loop_space(5, "Q"), quotient(loop_space(5, "Q"), dihedral(1))):
        with pytest.raises(DomainError, match=f"^max_degree must be an int, got {bound!r}$"):
            alg.betti(bound)


@pytest.mark.parametrize("n", [3.0, 3.5, "3", True, None], ids=repr)
@pytest.mark.parametrize("make", [loop_space, based_loop_space, sphere_space])
def test_an_n_that_is_not_an_int_is_refused(make, n) -> None:
    with pytest.raises(DomainError, match=f"^n must be an int, got {n!r}$"):
        make(n, "Q")
    with pytest.raises(DomainError, match=f"^n must be an int, got {n!r}$"):
        make_space({loop_space: "loop", based_loop_space: "omega", sphere_space: "sphere"}[make], n, "Z")


def test_a_refused_float_n_leaves_the_int_space_as_it_is() -> None:
    # lru_cache keys 37.0 and 37 alike: an accepted loop_space(37.0, "Q") was what every later
    # loop_space(37, "Q") returned, labelled H(LS^37.0;Q); n = 37 and 38 are used by no other test
    for make, n, label in ((loop_space, 3, "H(LS^3;Q)"), (loop_space, 37, "H(LS^37;Q)"),
                           (based_loop_space, 38, "H(OS^38;Q)")):
        with pytest.raises(DomainError):
            make(float(n), "Q")
        space = make(n, "Q")
        assert (type(space.n), space.n, space.label) == (int, n, label)
        assert make(n, "Q") is space


def test_make_space_dispatch() -> None:
    assert make_space("loop", 3, "Q") is loop_space(3, "Q")
    assert make_space("omega", 3, "Q") is based_loop_space(3, "Q")
    assert make_space("sphere", 3, "Q") is sphere_space(3, "Q")
    with pytest.raises(DomainError):
        make_space("cylinder", 3, "Q")
    with pytest.raises(DomainError):
        make_space("loop", 3, "R")


def test_spaces_are_cached_by_parameters() -> None:
    assert loop_space(3, "Q") is loop_space(3, "Q")
    assert loop_space(3, "Q") is not loop_space(3, "Z")


def test_table_lookup_helpers() -> None:
    table = loop_space(4, "Z").betti(10)
    assert table.rank(0) == 1
    assert table.rank(1) == 0
    assert table.torsion(6) == (2,)
    assert table.torsion(3) == ()


def test_table_fields_of_a_loop_table() -> None:
    table = loop_space(4, "Z").betti(6)
    assert (table.space, table.n, table.ring, table.group, table.max_degree) == ("loop", 4, "Z", None, 6)
    rows = [(r.degree, r.rank, r.torsion, r.generators, r.family) for r in table.rows]
    assert rows == [
        (0, 1, (), ("A",), None),
        (3, 1, (), ("sigma1",), "lambda_1"),
        (4, 1, (), ("E",), None),
        (6, 0, (2,), ("A*Theta",), "n-1+lambda_1"),
    ]


def test_table_fields_of_a_quotient_table() -> None:
    table = quotient(loop_space(3, "Q"), dihedral(1)).betti(8)
    assert (table.space, table.n, table.ring, table.group, table.max_degree) == ("loop", 3, "Q", "D1", 8)
    rows = [(r.degree, r.rank, r.torsion, r.generators, r.family) for r in table.rows]
    assert rows == [
        (0, 1, (), ("q(A)",), None),
        (3, 1, (), ("q(E)",), None),
        (4, 1, (), ("q(A*U^2)",), "n-1+lambda_1"),
        (7, 1, (), ("q(U^2)",), "2n-1+lambda_1"),
        (8, 1, (), ("q(A*U^4)",), "n-1+lambda_2"),
    ]
    assert (table.rank(7), table.rank(5), table.torsion(7)) == (1, 0, ())


# ----------------------------------------------------------------------
# a space is its algebra
# ----------------------------------------------------------------------

CONSTRUCTORS = (loop_space, based_loop_space, sphere_space)


@pytest.mark.parametrize("ring", ["Q", "Z"])
@pytest.mark.parametrize("make", CONSTRUCTORS)
@pytest.mark.parametrize("n", [3, 4])
def test_a_space_is_one_algebra(make, n: int, ring: str) -> None:
    space = make(n, ring)
    assert isinstance(space, Space) and isinstance(space, Algebra)
    assert not hasattr(space, "algebra")
    assert space.named and all(cls.algebra is space for cls in space.named.values())
    unit = space.unit()
    assert unit.algebra is space and unit.terms == {0: 1} and str(unit) == space.unit_name
    if space.unit_name in space.named:  # E and the fundamental class; the based unit 1 reads as the scalar 1
        assert space.generator(space.unit_name) == unit
    else:
        assert (space.kind, space.unit_name) == ("omega", "1")


@pytest.mark.parametrize("ring", ["Q", "Z"])
@pytest.mark.parametrize("n", [3, 4])
def test_structure_maps_go_between_spaces(n: int, ring: str) -> None:
    loop, omega = loop_space(n, ring), based_loop_space(n, ring)
    maps = (theta_star(loop), theta_star(omega), chi_star(loop), ev_star(n, ring), j_shriek(n, ring), j_star(n, ring))
    for mp in maps:
        assert isinstance(mp.source, Space) and isinstance(mp.target, Space)
        for d in range(3 * n + 1):
            for mono in mp.source.basis(d):
                assert mp(mp.source.monomial_element(mono)).algebra is mp.target
                assert mp.image_of_monomial(mono).algebra is mp.target


@pytest.mark.parametrize("group", [cyclic(2), dihedral(1), dihedral(3), theta_group()], ids=lambda g: g.label)
@pytest.mark.parametrize("make", [loop_space, based_loop_space])
@pytest.mark.parametrize("n", [3, 4])
def test_a_quotient_is_an_algebra_over_its_space(make, n: int, group) -> None:
    space = make(n, "Q")
    q = quotient(space, group)
    assert q.space is space and isinstance(q, Algebra) and not isinstance(q, Space)
    assert not any(hasattr(q, field) for field in ("named", "kind", "n", "algebra"))
    max_degree = 6 * n
    rows = []
    for d in range(max_degree + 1):
        monos = q.basis(d)
        if monos:
            families = {space.family_of(m) for m in monos}
            family = families.pop() if len(families) == 1 else None
            rows.append((d, len(monos), (), tuple(f"q({space.monomial_str(m)})" for m in monos), family))
    table = q.betti(max_degree)
    assert (table.space, table.n, table.ring, table.group) == (space.kind, n, "Q", group.label)
    assert [tuple(row) for row in table.rows] == rows
