"""Closed-form counts as checks on the window enumerators.

Every sweep reads its window off dominant_alcoves or facettes_meeting_box,
and its route and oracle both read that one list, so a dropped or duplicated
family would pass both.  These counts share no code with the enumerators:

- the dominant alcoves with indices in [1, k] tile the k-fold dilation of
  the fundamental alcove, so there are k^n of them (Cellini-Papi, J. Algebra
  2002; Athanasiadis, Bull. LMS 2004);
- when p divides hi = kp, the facettes meeting [0, hi]^n tile the box: n!
  k^n alcoves (its normalized volume), (k+1)^n vertices (the box's points
  whose coordinates are multiples of p, read here as the facettes whose codes
  are all even), and an Euler characteristic of 1;
- a facette's codes are p-free, so the code list at p = 3 equals the one at
  p = 7.

A facette's dimension is read off its wall roots alone: the walls tie the
nodes i and j of each wall root (i, j), and the facette has one dimension
per class of tied nodes beyond the first.
"""

from math import factorial

import pytest

from alcove_cells.rootsys import positive_roots
from alcove_cells.sweeps import dominant_alcoves, facettes_meeting_box

CASES = [(n, k) for n in range(1, 5) for k in range(1, 4 if n < 4 else 3)]
PRIMES = (3, 5, 7)


def _dimension(n, codes):
    parent = list(range(n + 2))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for r, c in zip(positive_roots(n), codes):
        if c % 2 == 0:
            parent[find(r.i)] = find(r.j)
    return len({find(x) for x in range(1, n + 2)}) - 1


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n, k", CASES)
def test_dominant_alcoves_tile_the_dilated_fundamental_alcove(n, k, p):
    alcoves = dominant_alcoves(n, p, k)
    assert len(alcoves) == len({a._codes for a in alcoves}) == k**n


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n, k", CASES)
def test_the_facettes_meeting_a_box_of_side_kp_tile_it(n, k, p):
    codes = [f._codes for f in facettes_meeting_box(n, p, k * p)]
    assert len(set(codes)) == len(codes)
    dims = [_dimension(n, c) for c in codes]
    assert dims.count(n) == sum(all(c % 2 for c in cs) for cs in codes) == factorial(n) * k**n
    assert dims.count(0) == sum(all(c % 2 == 0 for c in cs) for cs in codes) == (k + 1) ** n
    assert sum((-1) ** d for d in dims) == 1


@pytest.mark.parametrize("n, k", CASES)
def test_the_code_list_of_a_box_of_side_kp_does_not_depend_on_p(n, k):
    assert [f._codes for f in facettes_meeting_box(n, 3, 3 * k)] == [
        f._codes for f in facettes_meeting_box(n, 7, 7 * k)
    ]
