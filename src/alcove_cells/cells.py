"""Threshold root sets, chain bases, good bases, and weight-cell partitions.

For a regular dominant point the threshold set gamma collects the
positive roots whose pairing reaches p.  Subsets of it that form chain
bases select subroot systems; the partition s is the dominance supremum
of the component partitions, computed both over good (antichain) bases
with a fast enumeration and over all bases by the oracle's walk.  A chain
basis of A_n is a set partition of the nodes 1..n+1, one chain per block,
so that walk visits at most Bell(n+1) bases, whatever the size of gamma.
The reduction step rewrites a non-good basis into two smaller ones without
lowering the eventual supremum, mirroring how the two routes agree.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Sequence

from .alcove import _node_classes
from .errors import InvariantViolationError, PreconditionError
from .partition import Partition, partition_of_basis, sup
from .rootsys import (
    RootA,
    ShiftedPoint,
    chain_components,
    check_p,
    positive_roots,
    root_leq,
)

def gamma(pt: ShiftedPoint, p: int) -> frozenset[RootA]:
    """Positive roots whose pairing with pt is at least p."""
    check_p(p)
    if not pt.is_regular_dominant():
        raise PreconditionError(f"gamma needs a regular dominant point, got {pt.coords}")
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
    out = set()
    for nodes in comps:
        out.update(
            RootA(nodes[a], nodes[b])
            for a in range(len(nodes))
            for b in range(a + 1, len(nodes))
        )
    return frozenset(out)


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
    Backtracks over the scope in canonical root order; a root extends a
    partial basis exactly when both of its ends exceed those of the last
    chosen root, which then exceed those of every chosen root.  Includes
    the empty basis.
    """
    pool = sorted(set(scope))
    found: list[tuple[RootA, ...]] = []

    def extend(start: int, chosen: list[RootA], last_i: int, last_j: int) -> None:
        found.append(tuple(chosen))
        for k in range(start, len(pool)):
            r = pool[k]
            if r.i > last_i and r.j > last_j:
                chosen.append(r)
                extend(k + 1, chosen, r.i, r.j)
                chosen.pop()

    extend(0, [], 0, 0)
    found.sort(key=lambda b: (len(b), b))
    return tuple(frozenset(b) for b in found)


def s_partition(pt: ShiftedPoint, p: int) -> Partition:
    """Supremum of component partitions over good bases inside gamma.

    Membership of the generated subroot system in gamma is checked on the
    basis alone; for dominant points the rest of the system follows,
    because gamma is upward closed and every system root lies above a
    basis root (asserted in the test suite against the brute-force path).
    """
    g = gamma(pt, p)
    n = pt.rank
    return sup([partition_of_basis(b, n) for b in enumerate_good_bases(g)])


def chain_bases_in(scope: Iterable[RootA]) -> tuple[frozenset[RootA], ...]:
    """All chain bases made of roots of scope, smallest first, then lexicographic.

    A root set is a chain basis exactly when no left end and no right end
    repeats (see chain_components).  Backtracks over the scope in
    canonical root order; a root extends a partial basis exactly when its
    left end is no chosen root's left end and its right end no chosen
    root's right end.  Every node of the walk is a basis, so it has no dead
    branch and takes at most |scope| steps per basis.  A chain basis of A_n is a set partition of the
    nodes 1..n+1, one block per chain, with roots joining consecutive
    nodes of a block, so there are at most Bell(n+1) of them: 52 at n = 4,
    877 at n = 6.  Includes the empty basis.  Independent of
    enumerate_good_bases, whose output it contains.
    """
    pool = sorted(set(scope))
    found: list[tuple[RootA, ...]] = []

    def extend(start: int, chosen: list[RootA], lefts: int, rights: int) -> None:
        found.append(tuple(chosen))
        for k in range(start, len(pool)):
            r = pool[k]
            if not (lefts >> r.i & 1 or rights >> r.j & 1):
                chosen.append(r)
                extend(k + 1, chosen, lefts | 1 << r.i, rights | 1 << r.j)
                chosen.pop()

    extend(0, [], 0, 0)
    found.sort(key=lambda b: (len(b), b))
    return tuple(frozenset(b) for b in found)


def s_partition_oracle(pt: ShiftedPoint, p: int) -> Partition:
    """Brute-force supremum over every basis whose whole system fits in gamma.

    Walks all chain bases made of roots of gamma (not only antichains,
    at most Bell(n+1) of them, see chain_bases_in), keeps those whose
    generated system lies inside gamma, and takes the supremum of their
    partitions.  Independent route from s_partition.
    """
    g = gamma(pt, p)
    n = pt.rank
    return sup(
        [partition_of_basis(b, n) for b in chain_bases_in(g) if positive_roots_of(b) <= g]
    )


def comparable_pairs(basis: Iterable[RootA]) -> int:
    """Number of unordered comparable pairs; zero exactly for good bases."""
    rs = tuple(basis)
    return sum(
        1 for a, b in combinations(rs, 2) if root_leq(a, b) or root_leq(b, a)
    )


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
    before = comparable_pairs(b0)
    closure_bound = upward_closure(positive_roots_of(b0), n)
    for out in (swapped, deleted):
        if chain_components(tuple(out)) is None:
            raise InvariantViolationError(f"reduction produced a non-basis {sorted(out)}")
        if comparable_pairs(out) >= before:
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

    def walk(b: frozenset[RootA]) -> None:
        pairs = comparable_pairs_of(b)
        if not pairs:
            if b not in seen:
                seen.add(b)
                leaves.append(b)
            return
        for out in reduce_step(b, pairs[0], n):
            walk(out)

    walk(b0)
    return tuple(leaves)


def d_partition(pt: ShiftedPoint, p: int) -> Partition:
    """Partition of the stabilizer subroot system of pt.

    A root (i, j) lies in the system iff p divides its pairing, i.e. iff
    the prefix numerators of nodes i-1 and j-1 agree mod den * p (the
    classes of alcove._node_classes).  The system is therefore every pair
    of nodes inside one class; its simple roots are the consecutive pairs
    of each class, a chain basis whose components are the classes with
    two or more nodes.  Padding with 1s for the singletons, the partition
    is the class sizes in decreasing order.
    """
    check_p(p)
    sizes = Counter(_node_classes(pt, p)).values()
    return Partition(tuple(sorted(sizes, reverse=True)))
