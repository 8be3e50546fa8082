from fractions import Fraction

import pytest

from veechlab.coset import coset_enumerate
from veechlab.errors import QuotientBookkeepingError
from veechlab.quotient import quotient_invariants
from veechlab.veech import CosetTable, presentation_for, subgroup_words
from veechlab.words import Word


def _invariants(n):
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    return quotient_invariants(table)


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_odd_quotients(n):
    q = _invariants(n)
    assert q.genus == 0
    assert len(q.cusps) == (n + 1) // 2
    assert q.cusps == (1,) + (2,) * ((n - 1) // 2)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_even_quotients(n):
    q = _invariants(n)
    assert q.genus == 0
    assert len(q.cusps) == (n + 2) // 2


def test_n5_widths_exact():
    assert _invariants(5).cusps == (1, 2, 2)


def test_n9_width_pattern():
    q = _invariants(9)
    assert q.cusps == (1, 2, 2, 2, 2)


@pytest.mark.parametrize("n", [5, 7, 9, 8, 10, 12])
def test_riemann_hurwitz_closure(n):
    q = _invariants(n)
    if n % 2:
        chi_ambient = Fraction(1, 2) + Fraction(1, n) - 1
        index = n
    else:
        chi_ambient = Fraction(2, n) - 1
        index = n // 2
    assert q.chi_orb == index * chi_ambient
    excess = sum(count * (1 - Fraction(1, order)) for order, count in q.elliptic)
    assert q.chi_orb == 2 - 2 * q.genus - len(q.cusps) - excess


def test_elliptic_points():
    # one order-2 point for odd n (derived from the coset action)
    assert _invariants(5).elliptic == ((2, 1),)
    assert _invariants(7).elliptic == ((2, 1),)
    # no elliptic points in the even quotients
    assert _invariants(8).elliptic == ()


def test_whole_group_quotient():
    # sanity: the quotient for the trivial subgroup is the ambient orbifold
    p = presentation_for(5)
    table = coset_enumerate(p, [Word.generator("R"), Word.generator("T")])
    q = quotient_invariants(table)
    assert q.genus == 0
    assert q.cusps == (1,)
    assert q.elliptic == ((2, 1), (5, 1))
    assert q.chi_orb == Fraction(1, 2) + Fraction(1, 5) - 1


def test_json_shape():
    data = _invariants(8).to_json()
    assert data["genus"] == 0
    assert data["cusps"] == [1, 1, 2, 2, 2]
    assert data["chi_orb"] == "-3/1"


def test_an_action_that_no_subgroup_has_is_a_bookkeeping_error():
    # R a 3-cycle and T the identity: the elliptic class T^-1 R of order 2
    # has an orbit of length 3
    table = CosetTable(presentation_for(5), (), 3, {"R": (1, 2, 0), "T": (0, 1, 2)})
    with pytest.raises(QuotientBookkeepingError, match="does not divide torsion order 2"):
        quotient_invariants(table)
