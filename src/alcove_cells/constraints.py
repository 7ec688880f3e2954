"""Exact feasibility for systems of weak and strict difference constraints.

Constraints have the form x_i - x_j <= c or x_i - x_j < c with rational
(usually integer) bounds.  Bounds are tightened to their path closure by
Floyd-Warshall over pairs (value, strict) ordered lexicographically, with
strictness accumulating along paths.  The system is infeasible exactly when
some diagonal entry closes below (0, weak).  After closure, assigning the
variables one by one to the midpoint of their remaining interval always
succeeds, which yields an exact rational witness.

Every constraint functional in this package is a difference of eps
coordinates, so each region cut out by facette data, optionally
restricted to a box, is such a system; _base_system builds it.  No
production module calls the solver: realizability, walls, interior points,
the dominant alcoves and the box enumeration of the sweeps all run on the
integer split rule of the alcove module, and the tests compare each of
them with this solver as their oracle.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Optional, Sequence, Union

from .alcove import Datum, Wall
from .rootsys import positive_roots

Rational = Union[int, Q]
# A bound is (value, strict): x_i - x_j < value when strict, <= value when not.
Bound = tuple[Rational, bool]


def _tighter(a: Optional[Bound], b: Optional[Bound]) -> Optional[Bound]:
    """The stronger of two upper bounds; None means unbounded."""
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] < b[0] else b
    return a if a[1] else b


def _add(a: Optional[Bound], b: Optional[Bound]) -> Optional[Bound]:
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] or b[1])


class DifferenceSystem:
    """A mutable system of difference constraints over `size` variables."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("need at least one variable")
        self.size = size
        self._bound: list[list[Optional[Bound]]] = [
            [None] * size for _ in range(size)
        ]
        for k in range(size):
            self._bound[k][k] = (0, False)
        self._closed = False

    def add_upper(self, i: int, j: int, value: Rational, strict: bool) -> None:
        """Impose x_i - x_j <= value (or < value when strict)."""
        cur = self._bound[i][j]
        new = _tighter(cur, (value, strict))
        if new != cur:
            self._bound[i][j] = new
            self._closed = False

    def add_window(
        self, i: int, j: int, lo: Rational, hi: Rational, strict: bool
    ) -> None:
        """Impose lo < x_i - x_j < hi (or weak inequalities when not strict)."""
        self.add_upper(i, j, hi, strict)
        self.add_upper(j, i, -lo, strict)

    def add_equal(self, i: int, j: int, value: Rational) -> None:
        """Impose x_i - x_j = value."""
        self.add_upper(i, j, value, False)
        self.add_upper(j, i, -value, False)

    def _close(self) -> None:
        if self._closed:
            return
        w = self._bound
        m = self.size
        for k in range(m):
            row_k = w[k]
            for a in range(m):
                w_ak = w[a][k]
                if w_ak is None:
                    continue
                row_a = w[a]
                for b in range(m):
                    via = _add(w_ak, row_k[b])
                    if via is not None:
                        row_a[b] = _tighter(row_a[b], via)
        self._closed = True

    def feasible(self) -> bool:
        self._close()
        for k in range(self.size):
            v, strict = self._bound[k][k]  # never None
            if v < 0 or (v == 0 and strict):
                return False
        return True

    def witness(self) -> Optional[list[Q]]:
        """An exact rational solution, or None when infeasible.

        Deterministic: variables are fixed in index order, each to the
        midpoint of the interval allowed by the already fixed ones (the
        path closure guarantees that interval is nonempty).
        """
        if not self.feasible():
            return None
        vals: list[Q] = []
        for k in range(self.size):
            lo: Optional[Bound] = None  # lower bound as (value, strict)
            hi: Optional[Bound] = None
            for m, xm in enumerate(vals):
                b_mk = self._bound[m][k]
                if b_mk is not None:  # x_m - x_k <= c  =>  x_k >= x_m - c
                    cand = (xm - b_mk[0], b_mk[1])
                    if lo is None or cand[0] > lo[0] or (cand[0] == lo[0] and cand[1]):
                        lo = cand
                b_km = self._bound[k][m]
                if b_km is not None:  # x_k <= x_m + c
                    cand = (xm + b_km[0], b_km[1])
                    if hi is None or cand[0] < hi[0] or (cand[0] == hi[0] and cand[1]):
                        hi = cand
            if lo is None and hi is None:
                x = Q(0)
            elif lo is None:
                x = Q(hi[0]) - 1
            elif hi is None:
                x = Q(lo[0]) + 1
            elif lo[0] == hi[0]:
                assert not (lo[1] or hi[1]), "closure left an empty interval"
                x = Q(lo[0])
            else:
                assert lo[0] < hi[0], "closure left an empty interval"
                x = (Q(lo[0]) + Q(hi[0])) / 2
            vals.append(x)
        return vals


def _base_system(rank: int, p: int, data: Sequence[Datum]) -> DifferenceSystem:
    """Difference system over e_1..e_{n+1} for the data, or for its leading roots."""
    ds = DifferenceSystem(rank + 1)
    for r, d in zip(positive_roots(rank), data):
        i, j = r.i - 1, r.j - 1
        if isinstance(d, Wall):
            ds.add_equal(i, j, d.index * p)
        else:
            ds.add_window(i, j, (d.index - 1) * p, d.index * p, strict=True)
    return ds
