from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_cells.errors import PreconditionError
from alcove_cells.rootsys import (
    RootA,
    ShiftedPoint,
    chain_components,
    inverse_cartan_numerators,
    point_from_e,
    point_from_weight,
    positive_roots,
    root_leq,
    root_pairing,
    shifted_point,
    simple_roots,
)


def test_positive_roots_small_ranks():
    assert positive_roots(1) == (RootA(1, 2),)
    assert positive_roots(2) == (RootA(1, 2), RootA(1, 3), RootA(2, 3))
    r3 = positive_roots(3)
    assert len(r3) == 6
    assert r3[0] == RootA(1, 2) and r3[-1] == RootA(3, 4)


def test_positive_roots_count():
    for n in range(1, 7):
        assert len(positive_roots(n)) == n * (n + 1) // 2


def test_simple_roots():
    assert simple_roots(3) == (RootA(1, 2), RootA(2, 3), RootA(3, 4))


def test_pairing_rejects_malformed_roots():
    pt = shifted_point([1, 1, 1])
    with pytest.raises(PreconditionError):
        pt.pairing(RootA(2, 2))
    with pytest.raises(PreconditionError):
        pt.pairing(RootA(1, 5))


def test_pairing_known_values():
    assert shifted_point([6, 6]).pairing(RootA(1, 3)) == 12
    assert shifted_point([14, 2]).pairing(RootA(2, 3)) == 2
    assert shifted_point([Q(9, 2), Q(1, 2)]).pairing(RootA(1, 3)) == 5


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=2, max_size=6))
@settings(max_examples=100)
def test_pairing_additive_along_intervals(coords):
    pt = shifted_point(coords)
    n = pt.rank
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 2):
                left = pt.pairing(RootA(i, j))
                right = pt.pairing(RootA(j, k))
                assert left + right == pt.pairing(RootA(i, k))


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=1, max_size=6))
@settings(max_examples=100)
def test_pairing_matches_e_coordinate_difference(coords):
    pt = shifted_point(coords)
    e = pt.e_coords()
    assert e[-1] == 0
    for r in positive_roots(pt.rank):
        assert pt.pairing(r) == e[r.i - 1] - e[r.j - 1]


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=1, max_size=6))
@settings(max_examples=100)
def test_point_from_e_round_trip(coords):
    pt = shifted_point(coords)
    assert point_from_e(pt.e_coords()) == pt


def test_point_from_weight_shifts_by_one():
    pt = point_from_weight([5, 5])
    assert pt.coords == (Q(6), Q(6))
    assert pt.is_regular_dominant()
    assert pt.weight() == (5, 5)


def test_regular_dominant():
    assert shifted_point([6, 6]).is_regular_dominant()
    assert not shifted_point([0, 3]).is_regular_dominant()
    assert shifted_point([Q(9, 2), Q(1, 2)]).is_regular_dominant()


def test_is_integral():
    assert shifted_point([3, 1]).is_integral()
    assert not shifted_point([Q(1, 2), 1]).is_integral()


def test_root_pairing_values():
    a, b, c = positive_roots(2)
    assert root_pairing(a, a) == 2
    assert root_pairing(a, c) == -1
    assert root_pairing(a, b) == 1
    assert root_pairing(RootA(1, 2), RootA(3, 4)) == 0


def test_root_leq_known():
    assert root_leq(RootA(2, 3), RootA(1, 4))
    assert not root_leq(RootA(1, 2), RootA(2, 3))
    assert root_leq(RootA(3, 4), RootA(2, 5))


def test_root_leq_is_partial_order():
    roots = positive_roots(4)
    for a in roots:
        assert root_leq(a, a)
        for b in roots:
            if root_leq(a, b) and root_leq(b, a):
                assert a == b
            for c in roots:
                if root_leq(a, b) and root_leq(b, c):
                    assert root_leq(a, c)


def test_chain_components_known():
    assert chain_components([RootA(1, 2), RootA(2, 3)]) == ((1, 2, 3),)
    assert chain_components([RootA(1, 2), RootA(1, 3)]) is None
    assert chain_components([RootA(3, 6), RootA(3, 5)]) is None
    assert chain_components([]) == ()
    # two chains, ordered by size then smallest node
    got = chain_components([RootA(1, 3), RootA(3, 4), RootA(4, 6), RootA(2, 5)])
    assert got == ((1, 3, 4, 6), (2, 5))


def test_chain_components_tie_order():
    got = chain_components([RootA(2, 3), RootA(1, 4)])
    assert got == ((1, 4), (2, 3))


@given(st.data())
@settings(max_examples=200)
def test_chain_components_iff_pairwise_brackets(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    pool = list(positive_roots(n))
    roots = data.draw(st.sets(st.sampled_from(pool), max_size=4))
    comps = chain_components(roots)
    pairwise_ok = all(
        root_pairing(a, b) in (0, -1)
        for a in roots
        for b in roots
        if a != b
    )
    assert (comps is not None) == pairwise_ok
    if comps is not None:
        # components cover exactly the endpoints, each strictly ascending
        nodes = [x for comp in comps for x in comp]
        assert len(nodes) == len(set(nodes))
        assert set(nodes) == {x for r in roots for x in (r.i, r.j)}
        for comp in comps:
            assert list(comp) == sorted(comp)


def test_inverse_cartan_numerators():
    assert inverse_cartan_numerators(2) == ((2, 1), (1, 2))
    assert inverse_cartan_numerators(3) == ((3, 2, 1), (2, 4, 2), (1, 2, 3))


def test_shifted_point_rejects_a_float_coordinate():
    with pytest.raises(PreconditionError, match="float"):
        ShiftedPoint((Q(1, 2), 0.5))


def test_shifted_point_helper_rejects_a_float_coordinate():
    # 0.1 would otherwise become the binary fraction over 2**55
    with pytest.raises(PreconditionError, match="float"):
        shifted_point([0.1, 2])


def test_point_from_e_rejects_a_float_coordinate():
    with pytest.raises(PreconditionError, match="float"):
        point_from_e([Q(3, 2), 0.5, 0])


def test_point_from_weight_rejects_a_non_integer_weight():
    for weight in ([1.5, 2], [Q(3, 2), 2], [Q(2), 2]):
        with pytest.raises(PreconditionError, match="not integral"):
            point_from_weight(weight)
