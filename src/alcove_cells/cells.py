"""Threshold root sets, chain bases, good bases, and weight-cell partitions.

For a regular dominant point the threshold set gamma collects the
positive roots whose pairing reaches p, an upper ideal of the root order.
The partition s is the dominance supremum of the component partitions,
computed both over good (antichain) bases with a fast enumeration and over
all bases by the oracle.  A chain basis of A_n is a set partition of the
nodes 1..n+1, one chain per block, so set_partitions_within, the one walk
behind the oracle and the reduction sweep, visits at most Bell(n+1) bases.
The reduction step rewrites a non-good basis into two smaller ones without
lowering the eventual supremum, mirroring how the two routes agree.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import Iterable, Sequence

from .errors import InvariantViolationError, PreconditionError
from .partition import Partition, partition_of_basis, sup
from .rootsys import (
    RootA,
    ShiftedPoint,
    _located,
    chain_components,
    check_p,
    positive_roots,
    root_leq,
)

def gamma(pt: ShiftedPoint, p: int) -> frozenset[RootA]:
    """Positive roots whose pairing with pt is at least p."""
    check_p(p)
    if not pt.is_regular_dominant():
        raise PreconditionError(f"gamma needs a regular dominant point, got {pt}")
    step = pt.denominator * p
    return frozenset(
        r for r, v in zip(positive_roots(pt.rank), pt.pairing_numerators()) if v >= step
    )


def is_subroot_basis(roots: Iterable[RootA]) -> bool:
    """True iff the roots are the simple system of a chain subroot system."""
    return chain_components(tuple(roots)) is not None


def is_good_basis(roots: Iterable[RootA]) -> bool:
    """A basis is good when it is also an antichain in the root order.

    Equivalently: sorted by left end, both ends strictly increase.  A
    chain basis repeats no left end and no right end (see
    chain_components), and for roots a, b with a.i < b.i incomparability
    means a.j < b.j, since [b.i, b.j] cannot then contain [a.i, a.j].
    Conversely, roots whose ends both strictly increase share no end and
    contain no one another.
    """
    rs = sorted(roots)
    return all(a.i < b.i and a.j < b.j for a, b in zip(rs, rs[1:]))


def positive_roots_of(basis: Iterable[RootA]) -> frozenset[RootA]:
    """All positive roots of the subroot system a basis generates.

    Each chain component with nodes v_1 < ... < v_m contributes every
    pair (v_a, v_b) with a < b.
    """
    comps = chain_components(tuple(basis))
    if comps is None:
        raise PreconditionError(f"{sorted(tuple(basis))} is not a chain basis")
    return frozenset(_system_of(comps))


def _system_of(comps: Sequence[tuple[int, ...]]) -> Iterable[RootA]:
    """The roots (v_a, v_b), a < b, of each component v_1 < ... < v_m."""
    return (
        RootA(nodes[a], nodes[b])
        for nodes in comps
        for a in range(len(nodes))
        for b in range(a + 1, len(nodes))
    )


def upward_closure(roots: Iterable[RootA], n: int) -> frozenset[RootA]:
    """All positive roots of A_n above some input root in the root order."""
    rs = tuple(roots)
    return frozenset(
        g for g in positive_roots(n) if any(root_leq(b, g) for b in rs)
    )


def enumerate_good_bases(scope: Iterable[RootA]) -> tuple[frozenset[RootA], ...]:
    """All good bases inside scope, smallest first, then lexicographic.

    A good basis, sorted by left end, has strictly increasing left and
    right ends (see is_good_basis), so it is an increasing chain of roots.
    Walks the scope level by level in canonical root order; a root extends a
    basis of one level exactly when it comes after the basis' last root and
    both of its ends exceed that root's, which then exceed those of every
    chosen root.  Each basis is its predecessor plus one later root, so a
    level built in order from a lexicographic level is lexicographic too.
    Includes the empty basis.
    """
    pool = sorted(set(scope))
    # (basis, pool index after its last root, that root's ends)
    level = [((), 0, 0, 0)]
    found: list[tuple[RootA, ...]] = []
    while level:
        found += [b for b, _, _, _ in level]
        level = [
            (b + (r,), k, r.i, r.j)
            for b, start, last_i, last_j in level
            for k, r in enumerate(pool[start:], start + 1)
            if r.i > last_i and r.j > last_j
        ]
    # tuple() of a list, not of a generator: growing a tuple by resizing
    # leaves each freed result in CPython's tuple free list, pass after pass
    return tuple([frozenset(b) for b in found])


def count_good_bases(scope: Iterable[RootA]) -> int:
    """len(enumerate_good_bases(scope)), without building a basis.

    A good basis is an increasing chain of roots (see enumerate_good_bases).
    The chains ending at (i, j) number 1 + the chains ending at a root with
    both ends smaller; the empty basis adds one more.  Read by left end,
    ending[j] counts the chains of the earlier left ends that end at j, so
    each root reads a prefix sum taken before its group: O(|scope| + n^2).
    """
    pool = sorted(set(scope))
    ending = [0] * (max([r.j for r in pool], default=0) + 1)
    for _, group in groupby(pool, lambda r: r.i):
        below = list(accumulate(ending, initial=0))
        for r in group:
            ending[r.j] += 1 + below[r.j]
    return 1 + sum(ending)


def s_partition(pt: ShiftedPoint, p: int) -> Partition:
    """Supremum of component partitions over good bases inside gamma.

    Membership of the generated subroot system in gamma is checked on the
    basis alone; the rest of the system follows, because every system root
    lies above a basis root and gamma is an upper ideal, a premise that
    good_sup_sweep asserts on every gamma it meets.
    """
    g = gamma(pt, p)
    n = pt.rank
    return sup([partition_of_basis(b, n) for b in enumerate_good_bases(g)])


def set_partitions_within(g: Iterable[RootA], n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The chain bases of A_n whose whole system lies inside g, as block tuples.

    A chain basis is a set partition of the nodes 1..n+1, its chains joining
    the consecutive nodes of each block (the singletons of the empty basis
    included), and its system is every root (u, v), u < v, inside one block.
    The walk places the nodes 1, ..., n+1 in turn: node v opens a new block,
    or joins a block whose every node u has (u, v) in g.  Each partition
    whose blocks hold only pairs of g is reached exactly once, fixed by
    where its nodes go, and no other is: a pair placed in one block stays.
    """
    below: list[set[int]] = [set() for _ in range(n + 2)]
    for u, v in g:
        below[v].add(u)
    walked: list[tuple[tuple[int, ...], ...]] = [()]
    for v in range(1, n + 2):
        grown = []
        for blocks in walked:
            grown.append(blocks + ((v,),))
            for k, block in enumerate(blocks):
                if below[v].issuperset(block):
                    grown.append(blocks[:k] + (block + (v,),) + blocks[k + 1 :])
        walked = grown
    return walked


def s_partition_oracle(pt: ShiftedPoint, p: int) -> Partition:
    """Brute-force supremum over every basis whose whole system fits in gamma.

    Independent route from s_partition: s_partition_oracle_of on
    gamma(pt, p).
    """
    return s_partition_oracle_of(gamma(pt, p), pt.rank)


def s_partition_oracle_of(g: frozenset[RootA], n: int) -> Partition:
    """The all-bases oracle's supremum for the threshold set g of A_n.

    Over every basis of set_partitions_within(g, n), not only antichains,
    the supremum of the distinct block sizes in decreasing order.  For a
    caller that has gamma already, such as a certificate.
    """
    sizes = {tuple(sorted(map(len, b), reverse=True)) for b in set_partitions_within(g, n)}
    return sup([_located(Partition, parts=parts) for parts in sizes])


def comparable_pairs_of(basis: Iterable[RootA]) -> list[tuple[RootA, RootA]]:
    """Comparable pairs (containing root, contained root), in canonical order."""
    rs = sorted(basis)
    return [
        (big, small) for big in rs for small in rs if big != small and root_leq(small, big)
    ]


def _component_of(comps: Sequence[tuple[int, ...]], r: RootA) -> int:
    for k, nodes in enumerate(comps):
        if r.i in nodes and r.j in nodes:
            return k
    raise PreconditionError(f"{tuple(r)} is not in any component")


def reduce_step(
    basis: Iterable[RootA], pair: tuple[RootA, RootA], n: int
) -> tuple[frozenset[RootA], frozenset[RootA]]:
    """One rewriting step on a non-good basis at a comparable pair.

    For alpha_1 = (a, b) strictly containing alpha_2 = (c, d) in distinct
    chain components, returns two bases: the crossing exchange, which
    swaps the pair for (a, d) and (c, b), and the deletion, which drops
    the whole component appearing later in the canonical component order.
    Both outputs are machine-checked to be bases with strictly fewer
    comparable pairs whose systems stay inside the input's upward closure.
    """
    b0 = frozenset(basis)
    comps = chain_components(tuple(b0))
    if comps is None:
        raise PreconditionError(f"{sorted(b0)} is not a chain basis")
    a1, a2 = pair
    if a1 not in b0 or a2 not in b0:
        raise PreconditionError("pair roots must belong to the basis")
    if not (root_leq(a2, a1) and a1 != a2):
        raise PreconditionError(f"{tuple(a1)} must strictly contain {tuple(a2)}")
    t1 = _component_of(comps, a1)
    t2 = _component_of(comps, a2)
    if t1 == t2:
        raise PreconditionError("pair roots must lie in distinct components")
    # a < c < d < b: endpoints cannot coincide inside a valid basis
    swapped = (b0 - {a1, a2}) | {RootA(a1.i, a2.j), RootA(a2.i, a1.j)}
    dropped_nodes = comps[max(t1, t2)]
    deleted = frozenset(
        r for r in b0 if not (r.i in dropped_nodes and r.j in dropped_nodes)
    )
    before = len(comparable_pairs_of(b0))
    closure_bound = upward_closure(positive_roots_of(b0), n)
    for out in (swapped, deleted):
        if chain_components(tuple(out)) is None:
            raise InvariantViolationError(f"reduction produced a non-basis {sorted(out)}")
        if len(comparable_pairs_of(out)) >= before:
            raise InvariantViolationError("reduction did not lower the bad-pair count")
        if not positive_roots_of(out) <= closure_bound:
            raise InvariantViolationError("reduction escaped the upward closure")
    return swapped, deleted


def reduce_all(basis: Iterable[RootA], n: int) -> tuple[frozenset[RootA], ...]:
    """Good leaves of the reduction tree, using the first comparable pair.

    At each non-good node the lexicographically first comparable pair
    (by canonical root order of the containing root, then the contained
    root) is reduced; leaves are deduplicated in first-reached order.
    """
    b0 = frozenset(basis)
    if chain_components(tuple(b0)) is None:
        raise PreconditionError(f"{sorted(b0)} is not a chain basis")
    leaves: list[frozenset[RootA]] = []
    seen: set[frozenset[RootA]] = set()
    # preorder on an explicit stack: the first output of a step is walked first
    stack = [b0]
    while stack:
        b = stack.pop()
        pairs = comparable_pairs_of(b)
        if pairs:
            stack.extend(reversed(reduce_step(b, pairs[0], n)))
        elif b not in seen:
            seen.add(b)
            leaves.append(b)
    return tuple(leaves)


def d_partition(pt: ShiftedPoint, p: int) -> Partition:
    """Partition of the stabilizer subroot system of pt.

    A root (i, j) lies in the system iff p divides its pairing, i.e. iff
    the prefix numerators of nodes i-1 and j-1 agree mod den * p (the
    classes of alcove._node_classes).  The system is therefore every pair
    of nodes inside one class; its simple roots are the consecutive pairs
    of each class, a chain basis whose components are the classes with
    two or more nodes.  Padding with 1s for the singletons, the partition
    is the class sizes in decreasing order, counted by residue.
    """
    check_p(p)
    step = pt._den * p
    sizes: dict[int, int] = {}
    for v in pt._num:
        r = v % step
        sizes[r] = sizes.get(r, 0) + 1
    return _located(Partition, parts=tuple(sorted(sizes.values(), reverse=True)))
