"""Integer partitions under the dominance order.

Partitions here always carry their full weight: parts are positive and
weakly decreasing, trailing 1s included, so a partition of m has parts
summing to exactly m.  The dominance order compares prefix sums, read
from itertools.accumulate and padded with the total past the last part; it
is a lattice, and `sup` returns the exact join.  Nilpotent orbit labels pair
a partition with the dimension of the orbit it names.  Partition(...),
partition() and parse_partition check their input; the partitions derived
here and in cells (conjugates, joins, component counts, class sizes) are
partitions by construction and are located, skipping the checks.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import accumulate, zip_longest
from operator import le
from typing import Iterable, Sequence

from .errors import PreconditionError
from .rootsys import RootA, _located, _Record, chain_components


@total_ordering
class Partition(_Record):
    """Equality, hash and order read the tuple (parts,), as those of a dataclass do."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        p = tuple(self.parts)
        if len(p) == 0:
            raise PreconditionError("empty partitions are not used here")
        if not all(isinstance(x, int) for x in p):
            raise PreconditionError(f"parts must be integers, got {p}")
        if any(x < 1 for x in p):
            raise PreconditionError(f"parts must be positive, got {p}")
        if any(p[k] < p[k + 1] for k in range(len(p) - 1)):
            raise PreconditionError(f"parts must be weakly decreasing, got {p}")
        object.__setattr__(self, "parts", p)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.parts < other.parts
        return NotImplemented

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "+".join(str(x) for x in self.parts)


def partition(parts: Iterable[int]) -> Partition:
    return Partition(tuple(parts))


def dominance_leq(a: Partition, b: Partition) -> bool:
    """a <= b in dominance order: every prefix sum of a is at most b's.

    The sums are compared up to the shorter partition's length.  Past it the
    shorter one's sums are the total: if b is shorter, a's sums stay at most
    the total; if a is, its last compared sum is the total already, which
    b's sum there reaches only if b ends there too.
    """
    total = a.total
    if total != b.total:
        raise PreconditionError(
            f"dominance compares partitions of equal weight, got {total} != {b.total}"
        )
    return all(map(le, accumulate(a.parts), accumulate(b.parts)))


def transpose(a: Partition) -> Partition:
    """Conjugate partition: column lengths of the Young diagram."""
    parts = tuple(sum(1 for x in a.parts if x > k) for k in range(a.parts[0]))
    return _located(Partition, parts=parts)


def _from_prefix_sums(sums: Sequence[int]) -> Partition | None:
    parts = [sums[0]] + [sums[k] - sums[k - 1] for k in range(1, len(sums))]
    while parts and parts[-1] == 0:
        parts.pop()
    if not parts or any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
        return None
    if any(x < 0 for x in parts):
        return None
    return _located(Partition, parts=tuple(parts))


def _prefix_columns(ps: Sequence[Partition], total: int) -> Iterable[tuple[int, ...]]:
    """The k-th prefix sums of every partition in ps, for k up to the longest.

    The iterators are unpacked from a list, not a generator, for the reason
    given at the end of cells.enumerate_good_bases.
    """
    return zip_longest(*[accumulate(q.parts) for q in ps], fillvalue=total)


def _meet(ps: Sequence[Partition]) -> Partition:
    """Dominance meet: pointwise minimum of prefix sums, always a partition."""
    out = _from_prefix_sums([min(c) for c in _prefix_columns(ps, ps[0].total)])
    assert out is not None, "prefix-sum minima always form a partition"
    return out


def sup(ps: Sequence[Partition]) -> Partition:
    """Least upper bound in the dominance lattice.

    The pointwise maximum of prefix sums is returned directly whenever its
    difference sequence is already a partition (in particular whenever the
    sup is attained by one of the inputs).  Otherwise the join is computed
    through the conjugation anti-isomorphism: join = (meet of conjugates)
    conjugated, with meet the pointwise prefix-sum minimum.
    """
    if not ps:
        raise PreconditionError("sup of an empty family")
    totals = {q.total for q in ps}
    if len(totals) != 1:
        raise PreconditionError(f"sup needs equal weights, got {sorted(totals)}")
    direct = _from_prefix_sums([max(c) for c in _prefix_columns(ps, totals.pop())])
    if direct is not None:
        return direct
    return transpose(_meet([transpose(q) for q in ps]))


class OrbitLabel(_Record):
    """A partition naming a nilpotent orbit, with the orbit's dimension."""

    partition: Partition
    dim: int


def orbit_label(a: Partition) -> OrbitLabel:
    t = transpose(a)
    return OrbitLabel(a, a.total**2 - sum(x**2 for x in t.parts))


def partition_of_basis(basis: Iterable[RootA], n: int) -> Partition:
    """Partition of n+1 attached to a chain basis inside A_n.

    Each chain component on m+1 nodes contributes a part m+1; the result
    is padded with parts 1 up to total weight n+1.  A chain basis repeats
    no left end and no right end (see chain_components), so its components
    are the walks along the next-node pointers from the left ends that are
    no root's right end, one walk each.  A set of roots that repeats an end
    is refused, and so is one with a node outside 1..n+1, named by its
    component as chain_components builds it.
    """
    roots = tuple(basis)
    nxt = dict(roots)
    ends = set(nxt.values())
    if len(nxt) != len(roots) or len(ends) != len(roots):
        raise PreconditionError(f"{sorted(roots)} is not a chain basis")
    if roots and (min(nxt) < 1 or max(ends) > n + 1):
        for c in chain_components(roots):
            if c[-1] > n + 1 or c[0] < 1:
                raise PreconditionError(f"node {c} outside A_{n}")
    parts = []
    for v in nxt.keys() - ends:
        size = 1
        while v in nxt:
            v = nxt[v]
            size += 1
        parts.append(size)
    parts.sort(reverse=True)
    return _located(Partition, parts=(*parts, *[1] * (n + 1 - sum(parts))))


@lru_cache(maxsize=None)
def partitions_of(total: int) -> tuple[Partition, ...]:
    """All partitions of `total`, in decreasing lexicographic part order."""
    if total < 1:
        raise PreconditionError("total must be positive")

    def rec(rest: int, cap: int) -> Iterable[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return tuple(_located(Partition, parts=p) for p in rec(total, total))


def parse_partition(text: str) -> Partition:
    """Accepts '4+2', '4,2' or '[4,2]'."""
    s = text.strip().strip("[]()")
    seps = "+" if "+" in s else ","
    try:
        parts = tuple(int(tok) for tok in s.split(seps) if tok.strip())
    except ValueError as exc:
        raise PreconditionError(f"cannot parse partition from {text!r}") from exc
    return Partition(parts)
