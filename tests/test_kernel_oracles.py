"""The integer alcove kernel against the routes it replaced.

Realizability: the local split rule behind Alcove and Facette against
the Floyd-Warshall difference system over every family in fixed index
windows.  Point location: the integer-numerator forms of alcove_of,
facette_of, gamma, stabilizer_subroot_system and the closures against
the Fraction pairing formulas, on random rational points.
"""

from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_cells.alcove import (
    Alcove,
    Between,
    Facette,
    Wall,
    _base_system,
    _splits,
    alcove_of,
    closure_contains,
    facette_of,
    lower_closure_contains,
    stabilizer_subroot_system,
)
from alcove_cells.cells import gamma
from alcove_cells.errors import PreconditionError
from alcove_cells.rootsys import ShiftedPoint, positive_roots

P = 2


def _accepts(cls, rank, data) -> bool:
    try:
        cls(rank, P, data)
    except PreconditionError:
        return False
    return True


def _options(lo, hi):
    return [Wall(m) for m in range(lo, hi + 1)] + [Between(m) for m in range(lo, hi + 1)]


def _bounds(d):
    """(low, high, open) of a datum's pairing interval, in units of p."""
    return (d.index, d.index, False) if isinstance(d, Wall) else (d.index - 1, d.index, True)


def _meets_sum(x, y, z) -> bool:
    """Whether the interval of z meets the sums of the intervals of x and y."""
    (xl, xh, xo), (yl, yh, yo), (zl, zh, zo) = _bounds(x), _bounds(y), _bounds(z)
    lo, hi, is_open = xl + yl, xh + yh, xo or yo
    if is_open and zo:
        return zl < hi and lo < zh
    if is_open:
        return lo < zl < hi
    if zo:
        return zl < lo < zh
    return zl == lo


def _families(rank, lo, hi, prune):
    """Every datum family over the window, or only those passing each split.

    With prune set, a split is checked by interval arithmetic as soon as its
    last root is assigned, so the walk visits only families that pass the
    local rule, formulated independently of the package.
    """
    count = len(positive_roots(rank))
    if not prune:
        yield from product(_options(lo, hi), repeat=count)
        return
    closing = [[] for _ in range(count)]
    for split in _splits(rank):
        closing[max(split)].append(split)
    chosen = []

    def walk(depth):
        if depth == count:
            yield tuple(chosen)
            return
        for d in _options(lo, hi):
            chosen.append(d)
            if all(_meets_sum(chosen[a], chosen[b], chosen[c]) for a, b, c in closing[depth]):
                yield from walk(depth + 1)
            chosen.pop()

    yield from walk(0)


@pytest.mark.parametrize(
    "rank, lo, hi, families, feasible",
    [(2, -2, 3, 1728, 162), (3, -1, 1, 46656, None), (3, 0, 2, 46656, None)],
)
def test_split_rule_matches_floyd_warshall_exhaustively(rank, lo, hi, families, feasible):
    seen = accepted = 0
    for data in _families(rank, lo, hi, prune=False):
        seen += 1
        rule = _accepts(Facette, rank, data)
        oracle = _base_system(rank, P, data).feasible()
        assert rule == oracle, data
        if all(isinstance(d, Between) for d in data):
            assert _accepts(Alcove, rank, tuple(d.index for d in data)) == oracle, data
        accepted += rule
    assert seen == families
    if feasible is not None:
        assert accepted == feasible


@pytest.mark.parametrize("rank, lo, hi, families", [(4, -1, 2, 12000), (5, 0, 1, 6492)])
def test_families_passing_the_split_rule_are_feasible(rank, lo, hi, families):
    seen = 0
    for data in _families(rank, lo, hi, prune=True):
        seen += 1
        assert _accepts(Facette, rank, data), data
        assert _base_system(rank, P, data).feasible(), data
    assert seen == families


# -- integer point location against the Fraction pairing formulas ----------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
points = st.lists(rationals, min_size=1, max_size=4).map(lambda cs: ShiftedPoint(tuple(cs)))
levels = st.integers(min_value=1, max_value=7)


def _facette_by_fractions(pt, p):
    data = []
    for r in positive_roots(pt.rank):
        v = pt.pairing(r)
        data.append(Wall(int(v // p)) if v % p == 0 else Between(int(v // p) + 1))
    return tuple(data)


def _in_closure_by_fractions(data, pt, p, lower):
    for r, d in zip(positive_roots(pt.rank), data):
        v = pt.pairing(r)
        if isinstance(d, Wall):
            if v != d.index * p:
                return False
        else:
            below_top = v < d.index * p if lower else v <= d.index * p
            if not ((d.index - 1) * p <= v and below_top):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(pt=points, p=levels)
def test_point_location_matches_fraction_formulas(pt, p):
    roots = positive_roots(pt.rank)
    assert alcove_of(pt, p).indices == tuple(int(pt.pairing(r) // p) + 1 for r in roots)
    assert facette_of(pt, p).data == _facette_by_fractions(pt, p)
    assert stabilizer_subroot_system(pt, p) == frozenset(
        r for r in roots if pt.pairing(r) % p == 0
    )
    if pt.is_regular_dominant():
        assert gamma(pt, p) == frozenset(r for r in roots if pt.pairing(r) >= p)
    else:
        with pytest.raises(PreconditionError):
            gamma(pt, p)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=levels)
def test_closures_match_fraction_formulas(data, p):
    pt = data.draw(points)
    near = [c + data.draw(st.sampled_from([0, Q(1, 2), -Q(p, 3), p])) for c in pt.coords]
    f = facette_of(ShiftedPoint(tuple(near)), p)
    assert closure_contains(f, pt) == _in_closure_by_fractions(f.data, pt, p, lower=False)
    assert lower_closure_contains(f, pt) == _in_closure_by_fractions(f.data, pt, p, lower=True)


@given(pt=points)
def test_pairings_keep_their_fraction_values(pt):
    prefix = [sum(pt.coords[:k], Q(0)) for k in range(pt.rank + 1)]
    for r in positive_roots(pt.rank):
        assert pt.pairing(r) == prefix[r.j - 1] - prefix[r.i - 1]
    assert pt.e_coords() == tuple(prefix[-1] - v for v in prefix)
    assert pt.is_integral() == all(c.denominator == 1 for c in pt.coords)
