"""Exact feasibility for systems of weak and strict difference constraints.

Constraints have the form x_i - x_j <= c or x_i - x_j < c with rational
(usually integer) bounds.  With D the common denominator of the bounds
and K = size + 1, a bound is one integer: K*D*c when weak, K*D*c - 1 when
strict.  Floyd-Warshall with + and min closes them to the global shortest
paths (Dechter, Meiri and Pearl, "Temporal constraint networks", 1991), so
a closed entry is K*D*v - s for a path of value v with s strict steps.  A
simple path or cycle has at most size steps, so s < K: integer order is
the order of (value, strictness), a closed bound B has the value
ceil(B / K) / D and is strict iff K does not divide B, and the system is
infeasible exactly when some diagonal entry closes below 0.  After
closure, assigning the variables one by one to the midpoint of their
remaining interval always succeeds, which yields an exact rational witness.

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
from math import gcd
from typing import Optional, Sequence, Union

from .alcove import Datum, Wall
from .rootsys import positive_roots

Rational = Union[int, Q]


class DifferenceSystem:
    """A mutable system of difference constraints over `size` variables.

    _bound[i][j] codes the bound on x_i - x_j with D = _den (None: unbounded).
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("need at least one variable")
        self.size = size
        self._den = 1
        self._bound: list[list[Optional[int]]] = [[None] * size for _ in range(size)]
        for k in range(size):
            self._bound[k][k] = 0
        self._closed = False

    def add_upper(self, i: int, j: int, value: Rational, strict: bool) -> None:
        """Impose x_i - x_j <= value (or < value when strict)."""
        num, den = value.as_integer_ratio()
        unit = self.size + 1
        if self._den % den:
            # A new denominator: re-code every bound as (value, strict) on it.
            grow = den // gcd(self._den, den)
            self._den *= grow
            self._bound = [
                [None if b is None else -(-b // unit) * grow * unit - (b % unit != 0) for b in row]
                for row in self._bound
            ]
            self._closed = False
        code = unit * num * (self._den // den) - strict
        cur = self._bound[i][j]
        if cur is None or code < cur:
            self._bound[i][j] = code
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
        for k, row_k in enumerate(w):
            reach = [(b, c) for b, c in enumerate(row_k) if c is not None]
            for row_a in w:
                w_ak = row_a[k]
                if w_ak is None:
                    continue
                for b, c in reach:
                    via = w_ak + c
                    cur = row_a[b]
                    if cur is None or via < cur:
                        row_a[b] = via
        self._closed = True

    def feasible(self) -> bool:
        self._close()
        return all(self._bound[k][k] >= 0 for k in range(self.size))

    def witness(self) -> Optional[list[Q]]:
        """An exact rational solution, or None when infeasible.

        Deterministic: variables are fixed in index order, each to the
        midpoint of the interval allowed by the already fixed ones (the
        path closure guarantees that interval is nonempty).  x_k is an
        integer over one = D * 2^(size - 1); the interval's ends are coded
        K * x + strict (lower) and K * x - strict (upper), so lo <= hi.
        """
        if not self.feasible():
            return None
        unit = self.size + 1
        scale = 1 << (self.size - 1)
        one = self._den * scale
        vals: list[int] = []
        for k in range(self.size):
            lo: Optional[int] = None
            hi: Optional[int] = None
            for m, xm in enumerate(vals):
                b = self._bound[m][k]
                if b is not None:  # x_m - x_k <= c  =>  x_k >= x_m - c
                    c = -(-b // unit)
                    cand = unit * (xm - c * scale) + (b != c * unit)
                    if lo is None or cand > lo:
                        lo = cand
                b = self._bound[k][m]
                if b is not None:  # x_k <= x_m + c
                    c = -(-b // unit)
                    cand = unit * (xm + c * scale) - (b != c * unit)
                    if hi is None or cand < hi:
                        hi = cand
            if lo is None and hi is None:
                x = 0
            elif lo is None:
                x = -(-hi // unit) - one
            elif hi is None:
                x = lo // unit + one
            else:
                assert lo <= hi, "closure left an empty interval"
                x = (lo // unit - (-hi // unit)) // 2
            vals.append(x)
        return [Q(x, one) for x in vals]


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
