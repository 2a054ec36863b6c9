"""Space construction, Betti tables against closed forms, family tags."""

from __future__ import annotations

import pytest

from loophom import (
    DomainError,
    based_loop_space,
    loop_space,
    make_space,
    sphere_space,
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
    assert space.family_of(space.algebra.monomial((1, 0))) is None  # A
    assert space.family_of(space.algebra.monomial((0, 0))) is None  # E
    assert space.family_of(space.algebra.monomial((1, 1))) == "lambda_1"
    assert space.family_of(space.algebra.monomial((1, 2))) == "n-1+lambda_1"
    assert space.family_of(space.algebra.monomial((0, 1))) == "n+lambda_1"
    assert space.family_of(space.algebra.monomial((0, 2))) == "2n-1+lambda_1"
    assert space.family_of(space.algebra.monomial((1, 5))) == "lambda_3"


def test_family_tags_even() -> None:
    space = loop_space(4, "Z")
    assert space.family_of(space.algebra.monomial((0, 1, 0))) is None  # A
    assert space.family_of(space.algebra.monomial((0, 0, 0))) is None  # E
    assert space.family_of(space.algebra.monomial((1, 0, 0))) == "lambda_1"
    assert space.family_of(space.algebra.monomial((1, 0, 2))) == "lambda_3"
    assert space.family_of(space.algebra.monomial((0, 1, 1))) == "n-1+lambda_1"
    assert space.family_of(space.algebra.monomial((0, 0, 2))) == "2n-1+lambda_2"


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
    alg = loop_space(2, "Q").algebra
    assert alg.basis(0) == [alg.monomial((0, 1, 0))]


def test_negative_table_bound_rejected() -> None:
    with pytest.raises(DomainError):
        loop_space(3, "Q").betti(-1)


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
