"""Alcoves, facettes, walls, closures, weak order, and stabilizers.

Fix a rank n and a positive integer p.  The affine hyperplanes
H_{alpha,mp} = {x : <x, alpha> = mp}, over positive roots alpha and
integers m, cut the space into open alcoves; an alcove is recorded by its
integer index family {n_alpha}: (n_alpha - 1)p < <x, alpha> < n_alpha p
for every positive root, listed in canonical root order.  A facette
generalizes this by allowing equality (a wall datum) at some roots.

Realizability of an index family or facette datum is decided by a local
integer rule on the splits alpha = beta + gamma of each root (Shi's
characterization of alcoves, extended to facettes).  Read on the splits
that touch one root, it decides the walls; run root by root, it enumerates
the families within given code ranges; and as it leaves the difference
bounds closed, an interior point is a midpoint of a facette's own bounds.
Point location, closures and stabilizer root systems compare the point's
integer pairing numerators with multiples of p.  The stabilizer route to
lower closures runs on ints too: around a point, its stabilizer permutes
the eps coordinates within the classes of equal prefix numerators mod p,
so the group is enumerated as a product of symmetric groups instead of
being closed under composition.  AffineMap, the Fraction closure of
stabilizer_group and the solver of the constraints module are oracles.

Points are always carried rho-shifted, so the affine Weyl group action
implemented by AffineMap is the dot action written plainly.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from itertools import permutations, product
from operator import lt
from typing import Iterator, Optional, Sequence, Union

from .errors import InvariantViolationError, PreconditionError, ResourceLimitError
from .rootsys import (
    Rational,
    RootA,
    ShiftedPoint,
    check_p,
    inverse_cartan_numerators,
    point_from_e,
    positive_roots,
    root_pairing,
    root_position,
)

DEFAULT_BFS_BOUND = 10**6
BFS_BOUND_ENV = "ALCOVE_CELLS_BFS_BOUND"


def default_bfs_bound() -> int:
    raw = os.environ.get(BFS_BOUND_ENV)
    if raw is None:
        return DEFAULT_BFS_BOUND
    try:
        value = int(raw)
    except ValueError as exc:
        raise PreconditionError(f"{BFS_BOUND_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise PreconditionError(f"{BFS_BOUND_ENV} must be positive, got {value}")
    return value


# Plain frozen classes, not NamedTuples: tuple equality would make
# Wall(m) == Between(m), silently merging distinct facettes in dicts.
@dataclass(frozen=True)
class Wall:
    """Equality datum: the pairing equals index * p."""

    index: int


@dataclass(frozen=True)
class Between:
    """Open-window datum: (index - 1) * p < pairing < index * p."""

    index: int


Datum = Union[Wall, Between]


@lru_cache(maxsize=None)
def _closing_order(rank: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Each root's position and its splits' positions, by (j, -i) of the root."""
    pos = root_position(rank)
    return tuple(
        (pos[r], tuple((pos[RootA(r.i, k)], pos[RootA(k, r.j)]) for k in range(r.i + 1, r.j)))
        for r in sorted(positive_roots(rank), key=lambda r: (r.j, -r.i))
    )


@lru_cache(maxsize=None)
def _splits(rank: int) -> tuple[tuple[int, int, int], ...]:
    """Root positions (ik, kj, ij) of every split (i,j) = (i,k) + (k,j)."""
    return tuple((ik, kj, ij) for ij, splits in _closing_order(rank) for ik, kj in splits)


def _realizable(rank: int, codes: Sequence[int]) -> bool:
    """Whether per-root data cut out a non-empty region.

    Data are coded on the doubled scale: 2m is Wall(m) and 2m - 1 is
    Between(m), so in units of p/2 a datum is the point or the open
    interval of length 2 centred on its code.  Along a split the pairing
    at (i,j) is the sum of those at (i,k) and (k,j), and the sums of two
    data are the code a + b when either is a wall, and the three codes
    a + b - 1, a + b, a + b + 1 when both are windows.  The rule asks for
    the datum at (i,j) to be one of these.

    Necessary, since each split is a sub-system of the full difference
    system.  Sufficient too: data and their sums are unions of cells of the
    line cut at multiples of p, so passing the rule puts each of the three
    data inside the sum or difference of the other two, which makes the
    difference bounds closed on every triangle and leaves no negative
    cycle.  For alcoves this is Shi's rule n_ij - n_ik - n_kj in {-1, 0}.
    """
    for ik, kj, ij in _splits(rank):
        a, b = codes[ik], codes[kj]
        if abs(codes[ij] - a - b) > a & b & 1:
            return False
    return True


def _code_families(rank: int, allowed: Sequence[range]) -> Iterator[tuple[int, ...]]:
    """Every family passing _realizable with each code in allowed[position].

    Families are code tuples in canonical root order.  The roots are visited
    node by node, those ending at j = 2, ..., n+1 with i from j - 1 down to 1,
    so both summands of every split (i,k) + (k,j) are fixed when (i,j) is
    reached: each split is checked once, at its sum, and (i,j) takes the
    allowed codes in [a + b - w, a + b + w], w = a & b & 1, for every split.

    The split rule alone leads into no dead end.  The constraint graph of a
    prefix is chordal (the nodes before j form a clique, as do j's neighbours
    i..j-1), and a prefix that passes its splits is closed on each triangle,
    hence consistent (directional path consistency: Dechter, Meiri and Pearl,
    "Temporal constraint networks", 1991).  The pairing at (i,j) of a point
    of its region has a code that every split admits; only allowed prunes.
    A range of step 2 must hold codes of one parity in every position; the
    bounds a + b - w then share it, so range(lo, hi + 1, step) is exact.
    """
    order = _closing_order(rank)
    codes = [0] * len(order)

    def candidates(depth: int) -> range:
        pos, splits = order[depth]
        window = allowed[pos]
        lo, hi = window.start, window.stop - 1
        for ik, kj in splits:
            a, b = codes[ik], codes[kj]
            w = a & b & 1
            if a + b - w > lo:
                lo = a + b - w
            if a + b + w < hi:
                hi = a + b + w
        return range(lo, hi + 1, window.step)

    stack = [iter(candidates(0))]
    while stack:
        pos = order[len(stack) - 1][0]
        for codes[pos] in stack[-1]:
            if len(stack) == len(order):
                yield tuple(codes)
            else:
                stack.append(iter(candidates(len(stack))))
                break
        else:
            stack.pop()


@dataclass(frozen=True)
class Alcove:
    """An open alcove, recorded by its index family in canonical root order."""

    rank: int
    p: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        check_p(self.p)
        idx = tuple(int(v) for v in self.indices)
        object.__setattr__(self, "indices", idx)
        count = len(positive_roots(self.rank))
        if len(idx) != count:
            raise PreconditionError(
                f"expected {count} indices for rank {self.rank}, got {len(idx)}"
            )
        if not _realizable(self.rank, tuple(2 * v - 1 for v in idx)):
            raise PreconditionError(f"index family {idx} cuts out an empty region")

    def index_of(self, r: RootA) -> int:
        return self.indices[root_position(self.rank)[r]]

    def is_dominant(self) -> bool:
        return all(v >= 1 for v in self.indices)


@dataclass(frozen=True)
class Facette:
    """A facette: per root either a wall equality or an open window.

    _codes holds the data on the doubled scale of _realizable.
    """

    rank: int
    p: int
    data: tuple[Datum, ...]
    _codes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_p(self.p)
        count = len(positive_roots(self.rank))
        if len(self.data) != count:
            raise PreconditionError(
                f"expected {count} per-root data for rank {self.rank}, got {len(self.data)}"
            )
        for d in self.data:
            if not isinstance(d, (Wall, Between)) or not isinstance(d.index, int):
                raise PreconditionError(f"bad facette datum {d!r}")
        codes = tuple(2 * d.index - isinstance(d, Between) for d in self.data)
        if not _realizable(self.rank, codes):
            raise PreconditionError(f"facette data {self.data} cut out an empty region")
        object.__setattr__(self, "_codes", codes)

    def wall_roots(self) -> tuple[tuple[RootA, int], ...]:
        return tuple(
            (r, d.index)
            for r, d in zip(positive_roots(self.rank), self.data)
            if isinstance(d, Wall)
        )

    def is_alcove(self) -> bool:
        return not any(isinstance(d, Wall) for d in self.data)


def facette_from_alcove(a: Alcove) -> Facette:
    return Facette(a.rank, a.p, tuple(Between(v) for v in a.indices))


def _as_facette(f: Union[Facette, Alcove]) -> Facette:
    return facette_from_alcove(f) if isinstance(f, Alcove) else f


def bottom_alcove(rank: int, p: int) -> Alcove:
    return Alcove(rank, p, (1,) * (rank * (rank + 1) // 2))


def alcove_of(pt: ShiftedPoint, p: int) -> Alcove:
    """The unique alcove whose lower closure contains pt.

    The index at alpha is floor(pairing / p) + 1, so a pairing sitting
    exactly on a hyperplane is assigned the alcove directly above it.
    """
    check_p(p)
    step = pt.denominator * p
    return Alcove(pt.rank, p, tuple(v // step + 1 for v in pt.pairing_numerators()))


def facette_of(pt: ShiftedPoint, p: int) -> Facette:
    """The unique facette containing pt."""
    check_p(p)
    step = pt.denominator * p
    data: list[Datum] = []
    for v in pt.pairing_numerators():
        q, rest = divmod(v, step)
        data.append(Between(q + 1) if rest else Wall(q))
    return Facette(pt.rank, p, tuple(data))


def _match_point(f: Facette, pt: ShiftedPoint) -> None:
    if pt.rank != f.rank:
        raise PreconditionError(f"rank mismatch: point {pt.rank}, facette {f.rank}")


def lower_closure_contains(f: Union[Facette, Alcove], pt: ShiftedPoint) -> bool:
    """Membership of pt in the lower closure of f.

    Wall roots keep their equality; window roots admit the half-open
    interval [(index-1)p, index p), i.e. the lower bounding hyperplane is
    adjoined and the upper one is not.  On the doubled scale a datum with
    code c is the point or open window centred on c * p / 2.
    """
    f = _as_facette(f)
    _match_point(f, pt)
    step = pt.denominator * f.p
    for v, c in zip(pt.pairing_numerators(), f._codes):
        gap = 2 * v - c * step
        if c & 1:
            if not -step <= gap < step:
                return False
        elif gap:
            return False
    return True


def closure_contains(f: Union[Facette, Alcove], pt: ShiftedPoint) -> bool:
    """Membership of pt in the topological closure of f."""
    f = _as_facette(f)
    _match_point(f, pt)
    step = pt.denominator * f.p
    for v, c in zip(pt.pairing_numerators(), f._codes):
        if abs(2 * v - c * step) > (c & 1) * step:
            return False
    return True


@lru_cache(maxsize=None)
def interior_point(f: Facette) -> ShiftedPoint:
    """A deterministic exact rational point inside f.

    With e_1 = 0, each later eps coordinate e_k is the midpoint of the
    interval left by the data at (m, k), m < k: code c puts e_m - e_k in
    [c - (c & 1), c + (c & 1)] p / 2.  The bounds of a realizable facette
    are closed (see _realizable), so no interval is empty and this is the
    closure-then-midpoint witness of the solver.  In units of p / 2^rank
    every value is an integer (e_k is a multiple of 2^(rank - k + 1)).
    """
    pos = root_position(f.rank)
    half = 1 << (f.rank - 1)
    e = [0]
    for k in range(2, f.rank + 2):
        bounds = [(e[m - 1], f._codes[pos[RootA(m, k)]]) for m in range(1, k)]
        lo = max(x - (c + (c & 1)) * half for x, c in bounds)
        hi = min(x - (c - (c & 1)) * half for x, c in bounds)
        e.append((lo + hi) // 2)
    return point_from_e([Q(v * f.p, 2 * half) for v in e])


@dataclass(frozen=True)
class AffineMap:
    """An element of the affine Weyl group acting on shifted points.

    Stored as a permutation sigma of {1..n+1} together with an exact
    translation vector t in eps coordinates: x maps to the point with
    e'_i = e_{sigma^{-1}(i)} + t_i.  Translations are normalized to
    t_{n+1} = 0; adding a constant vector acts trivially on shifted
    points, so this fixes a canonical representative.
    """

    rank: int
    perm: tuple[int, ...]
    trans: tuple[Q, ...]

    def __post_init__(self) -> None:
        m = self.rank + 1
        if sorted(self.perm) != list(range(1, m + 1)):
            raise PreconditionError(f"{self.perm} is not a permutation of 1..{m}")
        if len(self.trans) != m:
            raise PreconditionError(f"translation needs {m} entries")
        t = tuple(Q(v) for v in self.trans)
        last = t[-1]
        object.__setattr__(self, "trans", tuple(v - last for v in t))

    @classmethod
    def identity(cls, rank: int) -> "AffineMap":
        m = rank + 1
        return cls(rank, tuple(range(1, m + 1)), (Q(0),) * m)

    @classmethod
    def reflection(cls, rank: int, r: RootA, value: Rational) -> "AffineMap":
        """The affine reflection x -> x - (<x, r> - value) r."""
        m = rank + 1
        if not (1 <= r.i < r.j <= m):
            raise PreconditionError(f"{tuple(r)} is not a positive root of A_{rank}")
        perm = list(range(1, m + 1))
        perm[r.i - 1], perm[r.j - 1] = perm[r.j - 1], perm[r.i - 1]
        trans = [Q(0)] * m
        trans[r.i - 1] = Q(value)
        trans[r.j - 1] = -Q(value)
        return cls(rank, tuple(perm), tuple(trans))

    def _inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * (self.rank + 1)
        for k, img in enumerate(self.perm):
            inv[img - 1] = k + 1
        return tuple(inv)

    def apply(self, pt: ShiftedPoint) -> ShiftedPoint:
        if pt.rank != self.rank:
            raise PreconditionError(f"rank mismatch: map {self.rank}, point {pt.rank}")
        e = pt.e_coords()
        inv = self._inverse_perm()
        moved = tuple(e[inv[i] - 1] + self.trans[i] for i in range(self.rank + 1))
        return point_from_e(moved)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """The map applying `other` first, then self."""
        if other.rank != self.rank:
            raise PreconditionError("rank mismatch in composition")
        m = self.rank + 1
        perm = tuple(self.perm[other.perm[k] - 1] for k in range(m))
        inv_self = self._inverse_perm()
        trans = tuple(other.trans[inv_self[i] - 1] + self.trans[i] for i in range(m))
        return AffineMap(self.rank, perm, trans)

    def fixes(self, pt: ShiftedPoint) -> bool:
        return self.apply(pt) == pt


@lru_cache(maxsize=None)
def stabilizer_group(
    pt: ShiftedPoint, p: int, cap: Optional[int] = None
) -> frozenset[AffineMap]:
    """The subgroup generated by the reflections through pt's hyperplanes.

    Generators are the s_{alpha,mp} with <pt, alpha> = mp; closure under
    composition stops at `cap` elements (default (n+1)!, which the order
    always divides) and raises a resource-limit error beyond it.  The
    stabilizer route enumerates the same group as _class_permutations;
    this Fraction closure is its oracle.
    """
    if cap is None:
        cap = math.factorial(pt.rank + 1)
    gens = [
        AffineMap.reflection(pt.rank, r, pt.pairing(r))
        for r in sorted(stabilizer_subroot_system(pt, p))
    ]
    group: set[AffineMap] = {AffineMap.identity(pt.rank)}
    frontier = list(group)
    while frontier:
        fresh: list[AffineMap] = []
        for g in frontier:
            for s in gens:
                h = s.compose(g)
                if h not in group:
                    if len(group) >= cap:
                        raise ResourceLimitError(
                            f"stabilizer closure exceeded cap {cap}"
                        )
                    group.add(h)
                    fresh.append(h)
        frontier = fresh
    for g in group:
        if not g.fixes(pt):
            raise InvariantViolationError("stabilizer element moved its point")
    return frozenset(group)


def stabilizer_subroot_system(pt: ShiftedPoint, p: int) -> frozenset[RootA]:
    """Positive roots whose pairing with pt is divisible by p."""
    check_p(p)
    step = pt.denominator * p
    return frozenset(
        r for r, v in zip(positive_roots(pt.rank), pt.pairing_numerators()) if v % step == 0
    )


def _node_classes(pt: ShiftedPoint, p: int) -> tuple[int, ...]:
    """Class label of each node 0..n, numbered by first appearance.

    Nodes i < j share a class iff <pt, eps_{i+1} - eps_{j+1}> is a
    multiple of p, i.e. iff their prefix numerators agree mod den * p.
    """
    step = pt.denominator * p
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(v % step, len(labels)) for v in pt._num)


@lru_cache(maxsize=None)
def _class_permutations(classes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every permutation of the nodes that maps each class onto itself.

    Entry k of a permutation is the image of node k.  The tuple is the
    product of the symmetric groups on the classes, in product order.
    """
    members: dict[int, list[int]] = {}
    for node, label in enumerate(classes):
        members.setdefault(label, []).append(node)
    blocks = list(members.values())
    out = []
    for images in product(*(permutations(nodes) for nodes in blocks)):
        sigma = [0] * len(classes)
        for nodes, image in zip(blocks, images):
            for node, target in zip(nodes, image):
                sigma[node] = target
        out.append(tuple(sigma))
    return tuple(out)


def lower_closure_contains_via_stabilizer(
    f: Union[Facette, Alcove], pt: ShiftedPoint
) -> bool:
    """Lower-closure membership via the stabilizer characterization.

    Requires pt to lie in the topological closure of f.  Picks the
    deterministic interior point lam of f and tests lam - w.lam against
    the nonnegative root cone for every element w of Stab(pt), the group
    generated by the reflections through pt's hyperplanes.

    Stab(pt) is enumerated without group algebra.  Its reflections are the
    s_{eps_i - eps_j, mp} with nodes i, j in one class of _node_classes,
    and they generate every permutation sigma of the eps coordinates that
    preserves the classes; the translation of each element is then fixed
    by w.pt = pt.  So w.lam - pt is lam - pt with its eps coordinates
    permuted, and with u_i = den(pt) * num_i(lam) - den(lam) * num_i(pt)
    for the prefix numerators, lam - w.lam is a positive multiple of
    sum_i (u_{sigma(i)} - u_i) eps_i, where sigma is the permutation of
    w^{-1} and runs over the same group.  Its simple-root coefficients are
    the prefix sums over nodes i < k, for k = 1..n, and the cone test asks
    each to be nonnegative.
    """
    f = _as_facette(f)
    _match_point(f, pt)
    if not closure_contains(f, pt):
        raise PreconditionError("point lies outside the closure of the facette")
    lam = interior_point(f)
    u = [a * pt.denominator - b * lam.denominator for a, b in zip(lam._num, pt._num)]
    last = len(u) - 1
    for sigma in _class_permutations(_node_classes(pt, f.p)):
        total = 0
        for k in range(last):
            total += u[sigma[k]] - u[k]
            if total < 0:
                return False
    return True


def _wall_positions(rank: int, indices: Sequence[int], upper: bool) -> tuple[int, ...]:
    """Root positions whose top (upper) or bottom hyperplane carries a facet.

    The candidate facet is the alcove's facette with a wall at alpha, and
    only the splits touching alpha change its _realizable codes.  With gap
    n_ij - n_ik - n_kj in {-1, 0}, a top wall needs gap -1 on the splits of
    alpha and gap 0 where alpha is a summand; a bottom wall swaps the two.
    """
    blocked = set()
    for ik, kj, ij in _splits(rank):
        if (indices[ij] - indices[ik] - indices[kj] == 0) == upper:
            blocked.add(ij)
        else:
            blocked.update((ik, kj))
    return tuple(pos for pos in range(len(indices)) if pos not in blocked)


def upper_walls(a: Alcove) -> frozenset[tuple[RootA, int]]:
    """Pairs (alpha, n_alpha) whose top hyperplane carries a facet of a."""
    roots = positive_roots(a.rank)
    walls = _wall_positions(a.rank, a.indices, True)
    return frozenset((roots[k], a.indices[k]) for k in walls)


def lower_walls(a: Alcove) -> frozenset[tuple[RootA, int]]:
    """Pairs (alpha, n_alpha - 1) whose bottom hyperplane carries a facet."""
    roots = positive_roots(a.rank)
    walls = _wall_positions(a.rank, a.indices, False)
    return frozenset((roots[k], a.indices[k] - 1) for k in walls)


@lru_cache(maxsize=None)
def _up_step_index_families(
    rank: int, indices: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    walls = _wall_positions(rank, indices, True)
    return tuple(_raise_step(rank, indices, k) for k in walls)


def up_step_neighbors(a: Alcove) -> tuple[Alcove, ...]:
    """Alcoves one raising step above a, one per upper wall.

    Each neighbor is the reflection of a across the wall hyperplane, as
    computed by _raise_step; results follow the wall roots' canonical order.
    """
    families = _up_step_index_families(a.rank, a.indices)
    return tuple(Alcove(a.rank, a.p, idx) for idx in families)


def weak_leq(a: Alcove, b: Alcove) -> bool:
    """Componentwise index comparison; the weak order on dominant alcoves."""
    if (a.rank, a.p) != (b.rank, b.p):
        raise PreconditionError("weak_leq compares alcoves of equal rank and p")
    if not (a.is_dominant() and b.is_dominant()):
        raise PreconditionError("weak_leq is defined on dominant alcoves only")
    return all(x <= y for x, y in zip(a.indices, b.indices))


def weak_leq_oracle(a: Alcove, b: Alcove, bound: Optional[int] = None) -> bool:
    """Weak order decided independently by BFS along up_step_neighbors.

    The search never visits an alcove whose index exceeds b's anywhere
    (raising steps only ever increase indices, so the prune is exact).
    """
    if (a.rank, a.p) != (b.rank, b.p):
        raise PreconditionError("weak_leq_oracle compares alcoves of equal rank and p")
    if not (a.is_dominant() and b.is_dominant()):
        raise PreconditionError("weak_leq_oracle is defined on dominant alcoves only")
    if bound is None:
        bound = default_bfs_bound()
    start, goal = a.indices, b.indices
    if any(x > y for x, y in zip(start, goal)):
        return False
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            return True
        for nxt in _up_step_index_families(a.rank, cur):
            if nxt in seen or any(x > y for x, y in zip(nxt, goal)):
                continue
            seen.add(nxt)
            if len(seen) > bound:
                raise ResourceLimitError(f"weak-order BFS exceeded bound {bound}")
            queue.append(nxt)
    return False


def _reflected_root(beta: RootA, g: RootA) -> tuple[RootA, bool]:
    """Image of g under the finite reflection in beta, for g != beta.

    Returns (delta, negated) with delta positive: the image is delta
    itself, or -delta when the reflection flips g negative.
    """

    def swap(x: int) -> int:
        if x == beta.i:
            return beta.j
        if x == beta.j:
            return beta.i
        return x

    u, v = swap(g.i), swap(g.j)
    return (RootA(u, v), False) if u < v else (RootA(v, u), True)


@lru_cache(maxsize=None)
def _raise_tables(rank: int) -> tuple[tuple[tuple[int, int, bool], ...], ...]:
    """Per step root beta: for every root position, (source, bracket, negated).

    Encodes the exact index transform of the reflection in the upper
    bounding hyperplane H_{beta, n_beta p}.  Writing c = <beta, gamma> and
    delta for the positive root with s_beta(gamma) = +-delta, the pairing
    identity <rx, gamma> = <x, s_beta(gamma)> + c n_beta p turns the index
    window at delta into the new window at gamma: the new index is
    n_delta + c n_beta when the sign is +, and 1 - n_delta + c n_beta when
    the reflection flips gamma negative.  At beta itself it is n_beta + 1.
    """
    roots = positive_roots(rank)
    pos_of = root_position(rank)
    tables = []
    for beta in roots:
        row = []
        for g in roots:
            if g == beta:
                row.append((pos_of[beta], 0, False))
            else:
                delta, negated = _reflected_root(beta, g)
                row.append((pos_of[delta], root_pairing(beta, g), negated))
        tables.append(tuple(row))
    return tuple(tables)


def _ceilings(rank: int, idx: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse-Cartan-weighted combinations of the simple-root indices."""
    pos_of = root_position(rank)
    simple = [idx[pos_of[RootA(k, k + 1)]] for k in range(1, rank + 1)]
    return tuple(
        sum(c * v for c, v in zip(row, simple)) for row in inverse_cartan_numerators(rank)
    )


@lru_cache(maxsize=None)
def _raise_successors(
    rank: int, indices: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every one-step raise of an index family, in root order, with its ceilings."""
    out = []
    for beta_pos in range(len(indices)):
        nxt = _raise_step(rank, indices, beta_pos)
        out.append((nxt, _ceilings(rank, nxt)))
    return tuple(out)


def _raise_step(rank: int, indices: tuple[int, ...], beta_pos: int) -> tuple[int, ...]:
    table = _raise_tables(rank)[beta_pos]
    m = indices[beta_pos]
    out = []
    for pos in range(len(indices)):
        if pos == beta_pos:
            out.append(m + 1)
        else:
            src, bracket, negated = table[pos]
            base = 1 - indices[src] if negated else indices[src]
            out.append(base + m * bracket)
    return tuple(out)


def up_reachable(a: Alcove, b: Alcove, bound: Optional[int] = None) -> bool:
    """Reachability of b from a by raising reflections, one per step.

    A single step from alcove C reflects across the upper bounding
    hyperplane H_{beta, n_beta(C) p} for any positive root beta (a wall or
    not); the transitive closure of these steps is the full alcove-level
    raising relation, because the higher reflections s_{beta, mp} with
    m > n_beta factor through consecutive one-steps along beta.  The
    search prunes through exact monotone coordinates: raising steps
    translate points by nonnegative rational multiples of positive roots,
    so each inverse-Cartan-weighted combination of simple-root indices
    must stay above a's floor and below b's ceiling.  A family's floor is
    its ceiling minus the row sum R_k, so a step to a family with
    ceilings h is admissible when a_floor_k < h_k < b_ceiling_k + R_k.
    """
    if (a.rank, a.p) != (b.rank, b.p):
        raise PreconditionError("up_reachable compares alcoves of equal rank and p")
    if bound is None:
        bound = default_bfs_bound()
    rank = a.rank
    if a.indices == b.indices:
        return True
    rows = [sum(row) for row in inverse_cartan_numerators(rank)]
    lows = [h - r for h, r in zip(_ceilings(rank, a.indices), rows)]
    tops = [h + r for h, r in zip(_ceilings(rank, b.indices), rows)]
    seen = {a.indices}
    queue = deque([a.indices])
    while queue:
        cur = queue.popleft()
        for nxt, hi in _raise_successors(rank, cur):
            if nxt in seen or not (all(map(lt, lows, hi)) and all(map(lt, hi, tops))):
                continue
            if nxt == b.indices:
                return True
            seen.add(nxt)
            if len(seen) > bound:
                raise ResourceLimitError(f"raising BFS exceeded bound {bound}")
            queue.append(nxt)
    return False
