"""Type A root-system primitives over exact rational arithmetic.

The positive roots of A_n are the vectors eps_i - eps_j for
1 <= i < j <= n+1, stored as the index pair (i, j).  Points are carried
in fundamental-weight coordinates and are always rho-shifted: the k-th
coordinate of a ShiftedPoint is <pt, alpha_k^v> for the k-th simple root,
already including the +1 shift.  The system is simply laced, so roots and
coroots are identified throughout and every pairing below is exact.  A
point keeps its pairings as integer numerators over one common
denominator, so point location against the hyperplanes at multiples of p
runs on ints alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

from .errors import PreconditionError

Rational = Union[int, Q]


class RootA(NamedTuple):
    """Positive root eps_i - eps_j of A_n, encoded by 1 <= i < j <= n+1."""

    i: int
    j: int


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple[RootA, ...]:
    """All n(n+1)/2 positive roots of A_n, lexicographic in (i, j).

    This ordering is the canonical root order of the package: every
    per-root sequence (alcove indices, facette data) follows it.
    """
    if n < 1:
        raise PreconditionError(f"rank must be a positive integer, got {n}")
    return tuple(RootA(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2))


@lru_cache(maxsize=None)
def root_position(n: int) -> dict[RootA, int]:
    """Index of each positive root inside positive_roots(n)."""
    return {r: k for k, r in enumerate(positive_roots(n))}


def simple_roots(n: int) -> tuple[RootA, ...]:
    return tuple(RootA(i, i + 1) for i in range(1, n + 1))


def check_p(p: int) -> None:
    """Reject a level p that is not a positive integer."""
    if not isinstance(p, int) or p < 1:
        raise PreconditionError(f"p must be a positive integer, got {p!r}")


def _check_root(n: int, r: RootA) -> None:
    if not (1 <= r.i < r.j <= n + 1):
        raise PreconditionError(f"{tuple(r)} is not a positive root of A_{n}")


def root_pairing(a: RootA, b: RootA) -> int:
    """Exact bracket <a, b^v> of two type A roots; values in {-2,-1,0,1,2}."""

    def d(x: int, y: int) -> int:
        return 1 if x == y else 0

    return d(a.i, b.i) - d(a.i, b.j) - d(a.j, b.i) + d(a.j, b.j)


def root_leq(a: RootA, b: RootA) -> bool:
    """Root order: a <= b iff b - a is a nonnegative sum of simple roots.

    In type A this is interval containment: [a.i, a.j] inside [b.i, b.j].
    """
    return b.i <= a.i and a.j <= b.j


@dataclass(frozen=True)
class ShiftedPoint:
    """A rho-shifted point of the weight space, in exact coordinates.

    coords[k-1] is the pairing with the k-th simple coroot; the point is
    dominant and regular exactly when every coordinate is positive.  The
    prefix sums coords[0] + ... + coords[k-1] are stored as the integer
    numerators _num[k] over the least common denominator _den, and the
    pairing numerators of every positive root as _pairs.
    """

    coords: tuple[Q, ...]
    _num: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)
    _pairs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.coords) < 1:
            raise PreconditionError("a point needs at least one coordinate")
        vals = tuple(c if isinstance(c, Q) else Q(c) for c in self.coords)
        object.__setattr__(self, "coords", vals)
        den = math.lcm(*(c.denominator for c in vals))
        acc = [0]
        for c in vals:
            acc.append(acc[-1] + c.numerator * (den // c.denominator))
        m = len(acc)
        object.__setattr__(self, "_num", tuple(acc))
        object.__setattr__(self, "_den", den)
        object.__setattr__(
            self, "_pairs", tuple(acc[j] - acc[i] for i in range(m) for j in range(i + 1, m))
        )

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def denominator(self) -> int:
        """The least common denominator of the coordinates."""
        return self._den

    def pairing(self, r: RootA) -> Q:
        """Exact value of <pt, r^v>; additive over the root interval."""
        _check_root(self.rank, r)
        return Q(self._num[r.j - 1] - self._num[r.i - 1], self._den)

    def pairing_numerators(self) -> tuple[int, ...]:
        """denominator * <pt, r^v> for every positive root, in canonical order."""
        return self._pairs

    def is_regular_dominant(self) -> bool:
        return all(c > 0 for c in self.coords)

    def is_integral(self) -> bool:
        return self._den == 1

    def weight(self) -> tuple[int, ...]:
        """Unshifted weight coordinates; requires an integral dominant point."""
        if not self.is_integral():
            raise PreconditionError(f"{self} is not integral")
        return tuple(int(c) - 1 for c in self.coords)

    def e_coords(self) -> tuple[Q, ...]:
        """Coordinates in the eps basis, normalized so the last entry is 0.

        e_k - e_l is the pairing with eps_k - eps_l for k < l.
        """
        total = self._num[-1]
        return tuple(Q(total - v, self._den) for v in self._num)


def shifted_point(coords: Sequence[Rational]) -> ShiftedPoint:
    return ShiftedPoint(tuple(Q(c) for c in coords))


def point_from_weight(weight: Sequence[int]) -> ShiftedPoint:
    """Rho-shift a dominant integral weight given by fundamental coordinates."""
    if any(w < 0 for w in weight):
        raise PreconditionError(f"weight {tuple(weight)} is not dominant")
    return ShiftedPoint(tuple(Q(w + 1) for w in weight))


def point_from_e(e: Sequence[Rational]) -> ShiftedPoint:
    """Inverse of ShiftedPoint.e_coords up to the irrelevant global shift."""
    vals = [Q(c) for c in e]
    if len(vals) < 2:
        raise PreconditionError("eps coordinates need at least two entries")
    return ShiftedPoint(tuple(vals[k] - vals[k + 1] for k in range(len(vals) - 1)))


@lru_cache(maxsize=None)
def inverse_cartan_numerators(n: int) -> tuple[tuple[int, ...], ...]:
    """(n+1) times the inverse Cartan matrix of A_n, as exact integers.

    Entry [k][j] is min(k, j) * (n + 1 - max(k, j)) for 1-based k, j.
    Row k lists (n+1) times the coefficients expressing the k-th
    fundamental weight in the simple-root basis.
    """
    return tuple(
        tuple(min(k, j) * (n + 1 - max(k, j)) for j in range(1, n + 1))
        for k in range(1, n + 1)
    )


def chain_components(roots: Sequence[RootA]) -> tuple[tuple[int, ...], ...] | None:
    """Decompose a root set into ascending chains, or return None.

    For roots a != b the bracket is [a.i = b.i] - [a.i = b.j] - [a.j = b.i]
    + [a.j = b.j].  Since a.i < a.j and b.i < b.j, the two middle terms
    cannot both be 1, nor can a root share both ends with another, so the
    bracket is 1 exactly when a and b share their left end or their right
    end, -1 when one ends where the other starts, and 0 otherwise (a
    repeated root has bracket 2 and repeats both ends).  Hence the pairwise
    brackets lie in {0, -1} exactly when no left end and no right end
    repeats.  Then every node has at most one root leaving it to the right
    and at most one arriving, so the roots form disjoint chains
    (i_1,i_2), (i_2,i_3), ... with strictly increasing nodes, found by
    walking the next-node pointers from each left end that is no root's
    right end.  Returns the components as tuples of their node indices,
    ordered canonically: weakly decreasing node count, ties by smallest
    node.  Returns None when a left or right end repeats.
    """
    nxt = {r.i: r.j for r in roots}
    ends = {r.j for r in roots}
    if len(nxt) != len(roots) or len(ends) != len(roots):
        return None
    comps = []
    for head in nxt.keys() - ends:
        nodes = [head]
        while nodes[-1] in nxt:
            nodes.append(nxt[nodes[-1]])
        comps.append(tuple(nodes))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return tuple(comps)
