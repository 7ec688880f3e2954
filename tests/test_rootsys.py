import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as Q
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_cells import rootsys
from alcove_cells.errors import PreconditionError
from alcove_cells.rootsys import (
    RootA,
    ShiftedPoint,
    _located_point,
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


# -- the stored form: prefix numerators over the least common denominator ----


@st.composite
def mixed_coords(draw):
    """One to six coordinates k/d with their own denominators d up to 12."""
    coord = st.integers(1, 12).flatmap(lambda d: st.integers(-30, 30).map(lambda k: Q(k, d)))
    return tuple(draw(st.lists(coord, min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(coords=mixed_coords())
def test_every_construction_path_stores_one_form(coords):
    pt = ShiftedPoint(coords)
    n, den = len(coords), math.lcm(*(c.denominator for c in coords))
    num = tuple(accumulate((c * den for c in coords), initial=0))
    others = [
        ShiftedPoint(tuple(str(c) for c in coords)),
        shifted_point(list(coords)),
        _located_point(tuple(int(v) for v in num), den),
        _located_point(tuple(6 * int(v) for v in num), 6 * den),
    ]
    if den == 1:
        others.append(ShiftedPoint(tuple(int(c) for c in coords)))
    for other in others:
        assert other == pt and hash(other) == hash(pt)
        assert (other._num, other._den, other.rank) == (num, den, n)
        assert other.coords == coords
    assert pt.denominator == den
    for r in positive_roots(n):
        assert pt.pairing(r) == sum(coords[r.i - 1 : r.j - 1])
    assert pt.pairing_numerators() == tuple(
        den * sum(coords[r.i - 1 : r.j - 1]) for r in positive_roots(n)
    )
    assert pt.e_coords() == tuple(sum(coords[k:], Q(0)) for k in range(n + 1))
    assert pt.is_regular_dominant() == all(c > 0 for c in coords)
    assert pt.is_integral() == (den == 1)
    if den == 1:
        assert pt.weight() == tuple(int(c) - 1 for c in coords)


def test_a_located_point_is_reduced_to_the_least_denominator():
    pt = _located_point((0, 2, 4), 4)
    assert pt == ShiftedPoint((Q(1, 2), Q(1, 2)))
    assert hash(pt) == hash(ShiftedPoint((Q(1, 2), Q(1, 2))))
    assert (pt._num, pt._den, pt.rank) == ((0, 1, 2), 2, 2)


def test_repr_prints_the_fraction_coordinates():
    pt = ShiftedPoint((Q(9, 2), 1, "-1/3"))
    assert repr(pt) == (
        "ShiftedPoint(coords=(Fraction(9, 2), Fraction(1, 1), Fraction(-1, 3)))"
    )
    assert repr(_located_point((0, 2), 1)) == "ShiftedPoint(coords=(Fraction(2, 1),))"


def test_str_prints_the_coordinate_strings():
    assert str(ShiftedPoint((Q(1, 2), 3))) == "(1/2, 3)"
    assert str(ShiftedPoint((Q(9, 2), 1, "-1/3"))) == "(9/2, 1, -1/3)"
    assert str(_located_point((0, 2), 1)) == "(2)"


def test_a_point_is_frozen():
    pt = ShiftedPoint((1, 2))
    for name, value in (("_num", (0, 5, 7)), ("_den", 3), ("rank", 3), ("coords", (Q(1),))):
        with pytest.raises(FrozenInstanceError):
            setattr(pt, name, value)
    assert pt == ShiftedPoint((1, 2)) and pt.rank == 2


def test_a_point_of_ints_builds_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(rootsys, "Q", refuse)
    pt = ShiftedPoint((3, 1, 4))
    assert (pt._num, pt._den, pt.rank) == ((0, 3, 4, 8), 1, 3)
    assert pt.pairing_numerators() == (3, 4, 8, 1, 5, 4)
    assert pt.weight() == (2, 0, 3) and pt.is_regular_dominant()
    assert point_from_weight((2, 0, 3))._num == pt._num


def test_the_constructor_keeps_its_checks():
    with pytest.raises(PreconditionError, match="at least one coordinate"):
        ShiftedPoint(())
    for coords in ((2, 0.5), (0.5,), (Q(1, 2), 2, 1.0)):
        with pytest.raises(PreconditionError, match="is a float"):
            ShiftedPoint(coords)
    with pytest.raises(ValueError):
        ShiftedPoint(("1/x",))


def test_coord_strings_print_what_str_of_a_fraction_prints():
    rng = random.Random(15)
    points = [ShiftedPoint((0, -3, Q(-7, 2), Q(4, 2))), _located_point((0, 6, 6, 2), 4)]
    for _ in range(400):
        den = rng.choice((1, 2, 3, 4, 6, 12, 35))
        coords = [Q(rng.randint(-40, 40), rng.choice((1, den))) for _ in range(rng.randint(1, 6))]
        points.append(ShiftedPoint(coords))
    integral = 0
    for pt in points:
        assert list(pt.coord_strings()) == [str(c) for c in pt.coords]
        if pt.is_integral():
            integral += 1
            assert [int(c) for c in pt.coord_strings()] == [int(c) for c in pt.coords]
    assert integral > 20
    assert ShiftedPoint((0, -3, Q(-7, 2), Q(4, 2))).coord_strings() == ("0", "-3", "-7/2", "2")
