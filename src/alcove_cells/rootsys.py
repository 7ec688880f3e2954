"""Type A root-system primitives over exact rational arithmetic.

The positive roots of A_n are the vectors eps_i - eps_j for
1 <= i < j <= n+1, stored as the index pair (i, j).  Points are carried
in fundamental-weight coordinates and are always rho-shifted: the k-th
coordinate of a ShiftedPoint is <pt, alpha_k^v> for the k-th simple root,
already including the +1 shift.  The system is simply laced, so roots and
coroots are identified throughout and every pairing below is exact.  A
point is stored as the integer prefix numerators of its coordinates over
their least common denominator, with its pairings as numerators over the
same denominator, so point location against the hyperplanes at multiples
of p runs on ints alone; its Fraction coordinates are decoded on read, and
its printed ones are read off the numerators.  The values the library
derives by construction are built through one unchecked path, _located.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from functools import lru_cache
from itertools import accumulate, combinations
from operator import lt
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


class _Record:
    """Base of the value records: a frozen dataclass, without importing dataclasses.

    The fields are the annotated names of the class body, after those of its
    bases.  The constructor takes them by position or keyword, then runs
    __post_init__ if the class has one.  A record equals only a record of its
    own class with equal fields, and hashes as their tuple, as a frozen
    dataclass does.  Assigning or deleting any attribute raises
    FrozenInstanceError; dataclasses (which loads inspect) is imported only
    then, so that it adds nothing to a command's start-up.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes each of the fields {names} once")
        for name in names:
            object.__setattr__(self, name, values[name])
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        listed = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({listed})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _located(cls, **fields):
    """An instance of cls with its fields set by name, skipping the checks.

    Only for the values the library makes, valid by construction: the
    families of alcoves and facettes it locates or walks, the partitions it
    derives (chain-component counts, class sizes, joins, conjugates) and the
    legs of a certificate, checked as they are built.  Each field is set through object.__setattr__, as _Record's __init__
    sets it, so the object keeps the same compact layout; updating
    vars(obj) would give it a full dict, 160 more bytes per object on
    CPython 3.11 for as long as the value is kept (a cell label per point).
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class ShiftedPoint(_Record):
    """A rho-shifted point of the weight space, in exact coordinates.

    coords[k-1] is the pairing with the k-th simple coroot; the point is
    dominant and regular exactly when every coordinate is positive.  The
    point is stored as its prefix sums coords[0] + ... + coords[k-1], the
    integer numerators _num[k] over the least common denominator _den
    (_num[0] == 0), so equality and hash read that canonical pair; coords
    is decoded from it on read.  The pairing numerators of every positive
    root are kept as _pairs.  The constructor checks its coordinates and
    builds no Fraction from plain ints; the points the library makes from
    integers are located (see _located_point).
    """

    _num: tuple[int, ...]
    _den: int
    _pairs: tuple[int, ...]
    rank: int

    def __init__(self, coords: Sequence[Rational]) -> None:
        if len(coords) < 1:
            raise PreconditionError("a point needs at least one coordinate")
        # plain ints (every point the atlas and the sweeps build from input)
        # skip the general path's tuple, lcm and per-coordinate reads
        if all(type(c) is int for c in coords):
            den, nums = 1, coords
        else:
            vals = tuple(c if isinstance(c, Q) else _rational(c) for c in coords)
            den = math.lcm(*(c.denominator for c in vals))
            nums = (c.numerator * (den // c.denominator) for c in vals)
        _store(self, tuple(accumulate(nums, initial=0)), den)

    @property
    def coords(self) -> tuple[Q, ...]:
        num, den = self._num, self._den
        return tuple(Q(b - a, den) for a, b in zip(num, num[1:]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"ShiftedPoint(coords={self.coords!r})"

    def __str__(self) -> str:
        """The coordinates as a tuple of coord_strings, as messages print a point: "(1/2, 3)"."""
        return f"({', '.join(self.coord_strings())})"

    def coord_strings(self) -> tuple[str, ...]:
        """str(c) for every coordinate c, read off the numerators without a Fraction.

        Each coordinate is its prefix-numerator difference over _den, reduced
        by their gcd (positive, and equal to _den for a zero or whole
        coordinate), so it prints as str(Fraction) does: "-7/2", "0", "3".
        An integral point (_den == 1) prints its differences as they are.
        """
        num, den = self._num, self._den
        if den == 1:
            return tuple([str(b - a) for a, b in zip(num, num[1:])])
        out = []
        for a, b in zip(num, num[1:]):
            v = b - a
            g = math.gcd(v, den)
            out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
        return tuple(out)

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
        """Every coordinate positive: the prefix numerators strictly increase."""
        num = self._num
        return all(map(lt, num, num[1:]))

    def is_integral(self) -> bool:
        return self._den == 1

    def weight(self) -> tuple[int, ...]:
        """Unshifted weight coordinates; requires an integral dominant point."""
        if not self.is_integral():
            raise PreconditionError(f"{self} is not integral")
        num = self._num
        return tuple(b - a - 1 for a, b in zip(num, num[1:]))

    def e_coords(self) -> tuple[Q, ...]:
        """Coordinates in the eps basis, normalized so the last entry is 0.

        e_k - e_l is the pairing with eps_k - eps_l for k < l.
        """
        total = self._num[-1]
        return tuple(Q(total - v, self._den) for v in self._num)


def _store(pt: ShiftedPoint, num: tuple[int, ...], den: int) -> None:
    """Set a point's fields from its prefix numerators over their least denominator."""
    pairs = tuple([b - a for a, b in combinations(num, 2)])
    vars(pt).update(_num=num, _den=den, _pairs=pairs, rank=len(num) - 1)


def _located_point(num: tuple[int, ...], den: int) -> ShiftedPoint:
    """The point with prefix numerators num over den, built without a Fraction.

    Only for the points the library makes from integers (mu, the facette
    lattice point and alcove.interior_point), which pass the constructor's
    checks by construction: num[0] == 0, at least one coordinate, den > 0.
    Dividing by g = gcd(den, *num) leaves den the least common denominator
    (the gcd of the prefix sums is that of the coordinates), so the point
    equals, and hashes like, ShiftedPoint(pt.coords).
    """
    g = math.gcd(den, *num)
    if g > 1:
        num, den = tuple(v // g for v in num), den // g
    pt = object.__new__(ShiftedPoint)
    _store(pt, num, den)
    return pt


def _rational(c: Rational) -> Q:
    """c as an exact Fraction; a float is refused, as it is not exact."""
    if isinstance(c, float):
        raise PreconditionError(f"coordinate {c!r} is a float; give an int or a Fraction")
    return Q(c)


def shifted_point(coords: Sequence[Rational]) -> ShiftedPoint:
    return ShiftedPoint(tuple(coords))


def point_from_weight(weight: Sequence[int]) -> ShiftedPoint:
    """Rho-shift a dominant integral weight given by fundamental coordinates."""
    if not all(isinstance(w, int) for w in weight):
        raise PreconditionError(f"weight {tuple(weight)} is not integral")
    if any(w < 0 for w in weight):
        raise PreconditionError(f"weight {tuple(weight)} is not dominant")
    return ShiftedPoint(tuple(w + 1 for w in weight))


def point_from_e(e: Sequence[Rational]) -> ShiftedPoint:
    """Inverse of ShiftedPoint.e_coords up to the irrelevant global shift."""
    vals = [_rational(c) for c in e]
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
