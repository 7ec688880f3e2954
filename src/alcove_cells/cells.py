"""Threshold root sets, chain bases, good bases, and weight-cell partitions.

For a regular dominant point the threshold set gamma collects the
positive roots whose pairing reaches p.  Subsets of it that form chain
bases select subroot systems; the partition s is the dominance supremum
of the component partitions, computed both over good (antichain) bases
with a fast enumeration and over all bases by brute force.  The
reduction step rewrites a non-good basis into two smaller ones without
lowering the eventual supremum, mirroring how the two routes agree.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .alcove import stabilizer_subroot_system
from .errors import InvariantViolationError, PreconditionError
from .partition import Partition, partition_of_basis, sup
from .rootsys import (
    RootA,
    ShiftedPoint,
    chain_components,
    check_p,
    positive_roots,
    root_leq,
    root_pairing,
    root_position,
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
    """A basis is good when it is also an antichain in the root order."""
    rs = tuple(roots)
    if chain_components(rs) is None:
        return False
    return not any(
        root_leq(a, b) or root_leq(b, a) for a, b in combinations(rs, 2)
    )


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

    Backtracks over the scope in canonical root order; a root extends a
    partial basis when its bracket with every chosen root is 0 or -1 and
    it is incomparable to each of them.  Includes the empty basis.
    """
    pool = sorted(set(scope))
    found: list[frozenset[RootA]] = []

    def extend(start: int, chosen: list[RootA]) -> None:
        found.append(frozenset(chosen))
        for k in range(start, len(pool)):
            r = pool[k]
            ok = all(
                root_pairing(c, r) in (0, -1)
                and not (root_leq(c, r) or root_leq(r, c))
                for c in chosen
            )
            if ok:
                chosen.append(r)
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    found.sort(key=lambda b: (len(b), sorted(b)))
    return tuple(found)


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


@lru_cache(maxsize=None)
def _mask_tables(n: int) -> tuple[tuple[Optional[tuple[int, ...]], ...], tuple[int, ...]]:
    """Per subset bitmask of positive roots: partition parts or None, closure mask.

    Masks follow canonical root order bit positions.  Only built for the
    small ranks the brute-force oracle is meant for.
    """
    roots = positive_roots(n)
    count = len(roots)
    if count > 20:
        raise PreconditionError(f"brute-force oracle limited to small ranks, rank {n}")
    pos_of = root_position(n)
    parts: list[Optional[tuple[int, ...]]] = []
    closures: list[int] = []
    for mask in range(1 << count):
        subset = tuple(roots[k] for k in range(count) if mask >> k & 1)
        comps = chain_components(subset)
        if comps is None:
            parts.append(None)
            closures.append(0)
            continue
        parts.append(tuple(partition_of_basis(subset, n).parts))
        closure = 0
        for b in positive_roots_of(subset):
            closure |= 1 << pos_of[b]
        closures.append(closure)
    return tuple(parts), tuple(closures)


def s_partition_oracle(pt: ShiftedPoint, p: int) -> Partition:
    """Brute-force supremum over every basis whose whole system fits in gamma.

    Enumerates all subsets of gamma (not only antichains), keeps those
    that are chain bases generating a system inside gamma, and takes the
    supremum of their partitions.  Independent route from s_partition.
    """
    g = gamma(pt, p)
    n = pt.rank
    parts_by_mask, closure_by_mask = _mask_tables(n)
    pos_of = root_position(n)
    gmask = 0
    for r in g:
        gmask |= 1 << pos_of[r]
    seen_parts: set[tuple[int, ...]] = set()
    sub = gmask
    while True:
        parts = parts_by_mask[sub]
        if parts is not None and closure_by_mask[sub] & ~gmask == 0:
            seen_parts.add(parts)
        if sub == 0:
            break
        sub = (sub - 1) & gmask
    return sup([Partition(parts) for parts in seen_parts])


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

    The system's simple roots are the members that are not a sum of two
    others inside it; in type A these are the consecutive pairs of each
    residue class, and they form a chain basis whose partition is taken.
    """
    system = stabilizer_subroot_system(pt, p)
    simple = frozenset(
        r
        for r in system
        if not any(RootA(r.i, k) in system and RootA(k, r.j) in system
                   for k in range(r.i + 1, r.j))
    )
    if chain_components(tuple(simple)) is None:
        raise InvariantViolationError(
            f"stabilizer system of {pt.coords} has a non-chain simple system"
        )
    return partition_of_basis(simple, pt.rank)
