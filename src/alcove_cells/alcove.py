"""Alcoves, facettes, walls, closures, weak order, and stabilizers.

Fix a rank n and a positive integer p.  The affine hyperplanes
H_{alpha,mp} = {x : <x, alpha> = mp}, over positive roots alpha and
integers m, cut the space into facettes, recorded per positive root (in
canonical root order) by one integer code on the doubled scale: 2m for
the wall <x, alpha> = mp, 2m - 1 for the window (m - 1)p < <x, alpha> < mp.
An open alcove is the facette whose codes are all odd; its index family
{n_alpha}, (n_alpha - 1)p < <x, alpha> < n_alpha p, is the codes'
decoding n = (c + 1) / 2, and the raising layer (walls, one-step raises,
the interned raising graph) runs on the codes as well.

Realizability of an index family or facette datum is decided by a local
integer rule on the splits alpha = beta + gamma of each root (Shi's
characterization of alcoves, extended to facettes).  Read on the splits
that touch one root, it decides the walls; run root by root, it enumerates
the families within given code ranges; and as it leaves the difference
bounds closed, an interior point is a midpoint of a facette's own bounds.
Point location, closures and stabilizer root systems compare the point's
integer pairing numerators with multiples of p; the closure predicates read
them, the denominator and the facette's codes straight from the stored
fields.  A relation that is a conjunction over roots is decided for many
pairs at once by one builder, _relation_masks: per root it groups the
columns by their value there and decides the relation once per (row code,
distinct value), and a row's bitmask over the columns is the AND of its
roots' masks.  Three relations go through it: the lower closure on the
points' numerators (_lower_closure_masks), the closure on the points'
facette codes (_closure_masks) and the weak order on alcove codes
(_weak_masks).  A facette,
alcoves included, stores only its codes and decodes its Wall/Between data
or indices on read; the families the library makes itself (a point's, a
walked one, a raised one) are located, skipping the checks they pass by
construction.
The stabilizer route to lower closures runs on ints too: around a point,
its stabilizer permutes the eps coordinates within the classes of equal
prefix numerators mod p, so the group is enumerated as a product of
symmetric groups instead of being closed under composition.  AffineMap,
the Fraction closure of stabilizer_group and the solver of the
constraints module are oracles.  The three oracles the verify sweeps pit
against the masks answer one row per call, as a bitmask too: the stabilizer
route over a facette's points, and the two searches (weak_leq_oracle,
up_reachable) from one source alcove to all of its targets at once.

Points are always carried rho-shifted, so the affine Weyl group action
implemented by AffineMap is the dot action written plainly.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from functools import lru_cache
from itertools import permutations, product
from operator import le, lt, mul
from typing import Callable, Hashable, Iterator, Sequence, Union

from .errors import InvariantViolationError, PreconditionError, ResourceLimitError
from .rootsys import (
    Rational,
    RootA,
    ShiftedPoint,
    _located,
    _located_point,
    _Record,
    check_p,
    inverse_cartan_numerators,
    point_from_e,
    positive_roots,
    root_pairing,
    root_position,
)

# the most families either reachability search may hold in seen
DEFAULT_BFS_BOUND = 10**6


# Plain frozen classes, not NamedTuples: tuple equality would make
# Wall(m) == Between(m), silently merging distinct facettes in dicts.
class Wall(_Record):
    """Equality datum: the pairing equals index * p."""

    index: int


class Between(_Record):
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


class Facette(_Record):
    """A facette: per root either a wall equality or an open window.

    Stored as _codes alone, on the doubled scale of _realizable (2m is
    Wall(m), 2m - 1 is Between(m)); data decodes them on read.  Equality and
    hash read (rank, p, _codes), equality of data decided on ints, so a wall
    never equals the window of the same index.
    """

    rank: int
    p: int
    _codes: tuple[int, ...]

    def __init__(self, rank: int, p: int, data: Sequence[Datum]) -> None:
        check_p(p)
        count = len(positive_roots(rank))
        if len(data) != count:
            raise PreconditionError(
                f"expected {count} per-root data for rank {rank}, got {len(data)}"
            )
        for d in data:
            if not isinstance(d, (Wall, Between)) or not isinstance(d.index, int):
                raise PreconditionError(f"bad facette datum {d!r}")
        codes = tuple(2 * d.index - isinstance(d, Between) for d in data)
        if not _realizable(rank, codes):
            raise PreconditionError(f"facette data {data} cut out an empty region")
        vars(self).update(rank=rank, p=p, _codes=codes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._codes == other._codes and self.rank == other.rank and self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rank, self.p, self._codes))

    @property
    def data(self) -> tuple[Datum, ...]:
        return tuple(Between((c + 1) // 2) if c & 1 else Wall(c // 2) for c in self._codes)

    def __repr__(self) -> str:
        return f"Facette(rank={self.rank!r}, p={self.p!r}, data={self.data!r})"

    def wall_roots(self) -> tuple[tuple[RootA, int], ...]:
        return tuple(
            (r, c // 2) for r, c in zip(positive_roots(self.rank), self._codes) if not c & 1
        )

    def is_alcove(self) -> bool:
        return all(c & 1 for c in self._codes)


class Alcove(Facette):
    """An open alcove: the facette whose codes are all odd.

    Index n at a root is the window code 2n - 1, so an alcove stores only
    Facette's fields, and indices decodes the codes on read.  Equality and
    hash are Facette's, on (rank, p, _codes), so an alcove never equals a
    plain Facette with the same codes.
    """

    def __init__(self, rank: int, p: int, indices: Sequence[int]) -> None:
        check_p(p)
        idx = tuple(indices)
        if not all(isinstance(v, int) for v in idx):
            raise PreconditionError(f"alcove indices must be integers, got {idx}")
        count = len(positive_roots(rank))
        if len(idx) != count:
            raise PreconditionError(f"expected {count} indices for rank {rank}, got {len(idx)}")
        codes = tuple(2 * v - 1 for v in idx)
        if not _realizable(rank, codes):
            raise PreconditionError(f"index family {idx} cuts out an empty region")
        vars(self).update(rank=rank, p=p, _codes=codes)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple([(c + 1) // 2 for c in self._codes])

    def __repr__(self) -> str:
        return f"Alcove(rank={self.rank!r}, p={self.p!r}, indices={self.indices!r})"

    def is_dominant(self) -> bool:
        return min(self._codes) >= 1


def bottom_alcove(rank: int, p: int) -> Alcove:
    return Alcove(rank, p, (1,) * (rank * (rank + 1) // 2))


def alcove_of(pt: ShiftedPoint, p: int) -> Alcove:
    """The unique alcove whose lower closure contains pt.

    The index at alpha is floor(pairing / p) + 1, code 2 floor(pairing / p)
    + 1, so a pairing sitting exactly on a hyperplane is assigned the alcove
    directly above it.
    """
    check_p(p)
    step = pt._den * p
    codes = tuple([2 * (v // step) + 1 for v in pt._pairs])
    return _located(Alcove, rank=pt.rank, p=p, _codes=codes)


def facette_of(pt: ShiftedPoint, p: int) -> Facette:
    """The unique facette containing pt: code 2q on a wall, 2q + 1 strictly above it.

    That is floor + ceil of the pairing over p, read as v // step - (-v // step)
    on the pairing numerators v over step = den * p.
    """
    check_p(p)
    step = pt._den * p
    codes = tuple([v // step - (-v // step) for v in pt._pairs])
    return _located(Facette, rank=pt.rank, p=p, _codes=codes)


def lower_closure_contains(f: Facette, pt: ShiftedPoint) -> bool:
    """Membership of pt in the lower closure of f.

    Wall roots keep their equality; window roots admit the half-open
    interval [(index-1)p, index p), i.e. the lower bounding hyperplane is
    adjoined and the upper one is not.  On the doubled scale a datum with
    code c is the point or open window centred on c * p / 2.  In codes:
    with d the code of pt's own facette on a root, pt is in the lower
    closure iff d is in {c - (c & 1), c} on every root.

    The test is a conjunction over roots, and the part at a root reads only
    the root's code c, pt's pairing numerator v there and the step den * p:
    -step <= 2v - c step < step for odd c, 2v = c step for even c.
    _lower_closure_masks decides it once per (root, code, distinct (2v, step))
    on this.
    """
    if pt.rank != f.rank:
        raise PreconditionError(f"rank mismatch: point {pt.rank}, facette {f.rank}")
    step = pt._den * f.p
    for v, c in zip(pt._pairs, f._codes):
        gap = 2 * v - c * step
        if c & 1:
            if not -step <= gap < step:
                return False
        elif gap:
            return False
    return True


def _relation_masks(
    row_codes: Sequence[Sequence[int]],
    columns: Sequence[Sequence[Hashable]],
    related: Callable[[int, Hashable], bool],
) -> list[int]:
    """Bit j of row k's mask: related(row_codes[k][pos], columns[j][pos]) on every root pos.

    Rows and columns carry one value per root.  Per root the columns are
    grouped by their value there, related is decided once per (row code,
    distinct column value), and a row code's mask at the root is the OR of
    the groups it relates to; a row's mask is the AND of its roots' masks.
    """
    masks = [(1 << len(columns)) - 1] * len(row_codes)
    for pos, values in enumerate(zip(*columns)):
        groups: dict = {}
        for j, v in enumerate(values):
            groups[v] = groups.get(v, 0) | 1 << j
        by_code = {}
        for c in {row[pos] for row in row_codes}:
            bits = 0
            for v, group in groups.items():
                if related(c, v):
                    bits |= group
            by_code[c] = bits
        masks = [m & by_code[row[pos]] for m, row in zip(masks, row_codes)]
    return masks


def _lower_closure_masks(facettes: Sequence[Facette], pts: Sequence[ShiftedPoint]) -> list[int]:
    """lower_closure_contains on every (facette, point) pair, as point bitmasks.

    Bit j of a facette's mask is lower_closure_contains(f, pts[j]): the
    _relation_masks of the facettes' codes against each point's (2v, den p)
    per root, the interval test of lower_closure_contains' docstring.  The
    facettes share one rank and p, the points' rank.
    """
    if not facettes:
        return []
    rank, p = facettes[0].rank, facettes[0].p
    if any(f.rank != rank or f.p != p for f in facettes) or any(pt.rank != rank for pt in pts):
        raise PreconditionError("masks need facettes of one rank and p and points of that rank")

    def related(c: int, numerator: tuple[int, int]) -> bool:
        v2, step = numerator
        gap = v2 - c * step
        return -step <= gap < step if c & 1 else not gap

    columns = [[(2 * v, pt._den * p) for v in pt._pairs] for pt in pts]
    return _relation_masks([f._codes for f in facettes], columns, related)


def _closure_masks(
    facettes: Sequence[Facette], point_codes: Sequence[Sequence[int]]
) -> list[int]:
    """closure_contains on every (facette, point) pair, from the points' facette codes.

    Bit j of a facette's mask says whether its closure holds a point whose
    facette_of codes are point_codes[j]: the _relation_masks of the rule
    |d - c| <= c & 1 (closure_contains' docstring), at every denominator.
    """
    rows = [f._codes for f in facettes]
    return _relation_masks(rows, point_codes, lambda c, d: abs(d - c) <= c & 1)


def closure_contains(f: Facette, pt: ShiftedPoint) -> bool:
    """Membership of pt in the topological closure of f.

    In codes: with d the code of pt's own facette on a root (facette_of), pt
    is in the closure iff |d - c| <= c & 1 on every root.  A wall (c even)
    needs d = c; a window (c odd) admits its own code and the walls at both
    ends.  This holds at every denominator, since d = 2 floor(v / step) +
    [v mod step > 0] decides |2v - c step| <= (c & 1) step.
    """
    if pt.rank != f.rank:
        raise PreconditionError(f"rank mismatch: point {pt.rank}, facette {f.rank}")
    step = pt._den * f.p
    for v, c in zip(pt._pairs, f._codes):
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
    every value is an integer (e_k is a multiple of 2^(rank - k + 1)), so
    the point's prefix numerators over 2^rank are the integers (e_1 - e_k) p.
    """
    pos = root_position(f.rank)
    half = 1 << (f.rank - 1)
    e = [0]
    for k in range(2, f.rank + 2):
        bounds = [(e[m - 1], f._codes[pos[RootA(m, k)]]) for m in range(1, k)]
        lo = max(x - (c + (c & 1)) * half for x, c in bounds)
        hi = min(x - (c - (c & 1)) * half for x, c in bounds)
        e.append((lo + hi) // 2)
    return _located_point(tuple((e[0] - v) * f.p for v in e), 2 * half)


class AffineMap(_Record):
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
def stabilizer_group(pt: ShiftedPoint, p: int) -> frozenset[AffineMap]:
    """The subgroup generated by the reflections through pt's hyperplanes.

    Generators are the s_{alpha,mp} with <pt, alpha> = mp; closure under
    composition stops at (n+1)! elements, which the order always divides,
    and raises a resource-limit error beyond it.  The stabilizer route
    enumerates the same group as _class_permutations; this Fraction
    closure is its oracle.
    """
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
    step = pt._den * p
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


def lower_closure_contains_via_stabilizer(f: Facette, pts: Sequence[ShiftedPoint]) -> int:
    """Lower-closure membership via the stabilizer characterization, as a bitmask.

    Bit j says whether pts[j] lies in the lower closure of f.  Requires
    every point to lie in the topological closure of f.  Picks the
    deterministic interior point lam of f and tests lam - w.lam against
    the nonnegative root cone for every element w of Stab(pt), the group
    generated by the reflections through pt's hyperplanes.  One call
    answers a facette's whole row: it reads lam once, and each point's
    class permutations once.

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
    if not all(closure_contains(f, pt) for pt in pts):
        raise PreconditionError("point lies outside the closure of the facette")
    lam = interior_point(f)
    mask = 0
    for j, pt in enumerate(pts):
        u = [a * pt._den - b * lam._den for a, b in zip(lam._num, pt._num)]
        if _in_cone(u, _class_permutations(_node_classes(pt, f.p))):
            mask |= 1 << j
    return mask


def _in_cone(u: Sequence[int], sigmas: Sequence[tuple[int, ...]]) -> bool:
    """Whether every sigma keeps the prefix sums of u[sigma[k]] - u[k], k < len(u) - 1, >= 0."""
    last = len(u) - 1
    for sigma in sigmas:
        total = 0
        for k in range(last):
            total += u[sigma[k]] - u[k]
            if total < 0:
                return False
    return True


def _wall_positions(rank: int, codes: Sequence[int], upper: bool) -> tuple[int, ...]:
    """Root positions whose top (upper) or bottom hyperplane carries a facet.

    The candidate facet is the alcove's facette with a wall at alpha, and
    only the splits touching alpha change its _realizable codes.  With odd
    codes the gap c_ij - c_ik - c_kj is in {-1, 1} (Shi's index gap
    n_ij - n_ik - n_kj in {-1, 0}, doubled and plus one); a top wall needs
    gap -1 on the splits of alpha and gap 1 where alpha is a summand; a
    bottom wall swaps the two.
    """
    blocked = set()
    for ik, kj, ij in _splits(rank):
        if (codes[ij] - codes[ik] - codes[kj] == 1) == upper:
            blocked.add(ij)
        else:
            blocked.update((ik, kj))
    return tuple(pos for pos in range(len(codes)) if pos not in blocked)


def upper_walls(a: Alcove) -> frozenset[tuple[RootA, int]]:
    """Pairs (alpha, n_alpha) whose top hyperplane carries a facet of a."""
    roots = positive_roots(a.rank)
    walls = _wall_positions(a.rank, a._codes, True)
    return frozenset((roots[k], (a._codes[k] + 1) // 2) for k in walls)


def lower_walls(a: Alcove) -> frozenset[tuple[RootA, int]]:
    """Pairs (alpha, n_alpha - 1) whose bottom hyperplane carries a facet."""
    roots = positive_roots(a.rank)
    walls = _wall_positions(a.rank, a._codes, False)
    return frozenset((roots[k], (a._codes[k] - 1) // 2) for k in walls)


@lru_cache(maxsize=None)
def _up_step_families(rank: int, codes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    walls = _wall_positions(rank, codes, True)
    return tuple(_raise_step(rank, codes, k) for k in walls)


def up_step_neighbors(a: Alcove) -> tuple[Alcove, ...]:
    """Alcoves one raising step above a, one per upper wall.

    Each neighbor is the reflection of a across the wall hyperplane, as
    computed by _raise_step; results follow the wall roots' canonical order.
    """
    families = _up_step_families(a.rank, a._codes)
    return tuple(_located(Alcove, rank=a.rank, p=a.p, _codes=c) for c in families)


def weak_leq(a: Alcove, b: Alcove) -> bool:
    """Componentwise index (so code) comparison; the weak order on dominant alcoves."""
    if (a.rank, a.p) != (b.rank, b.p):
        raise PreconditionError("weak_leq compares alcoves of equal rank and p")
    if not (a.is_dominant() and b.is_dominant()):
        raise PreconditionError("weak_leq is defined on dominant alcoves only")
    return all(map(le, a._codes, b._codes))


def _weak_masks(alcoves: Sequence[Alcove]) -> list[int]:
    """weak_leq on every pair of these alcoves, as bitmasks.

    Bit j of alcoves[k]'s mask is weak_leq(alcoves[k], alcoves[j]): the
    _relation_masks of the codes against themselves under <=.  The alcoves
    share one rank and p and are dominant, as weak_leq requires.
    """
    if len({(a.rank, a.p) for a in alcoves}) > 1 or not all(a.is_dominant() for a in alcoves):
        raise PreconditionError("weak masks need dominant alcoves of one rank and p")
    codes = [a._codes for a in alcoves]
    return _relation_masks(codes, codes, le)


def _target_bits(
    start: tuple[int, ...], targets: Sequence[Alcove]
) -> tuple[int, dict[tuple[int, ...], int]]:
    """The bits of the targets equal to start, and every other target family with its bits."""
    found, pending = 0, {}
    for j, b in enumerate(targets):
        if b._codes == start:
            found |= 1 << j
        else:
            pending[b._codes] = pending.get(b._codes, 0) | 1 << j
    return found, pending


def weak_leq_oracle(a: Alcove, alcoves: Sequence[Alcove]) -> int:
    """Weak order decided independently by one search along up_step_neighbors.

    Bit j says whether alcoves[j] is reached from a by raising steps across
    upper walls.  Raising steps only ever increase indices, so a path from a
    to b stays within the codes <= b's, and a b whose codes are not all >=
    a's is never reached.  One search serves the other targets: pruned to
    the componentwise maximum of their codes, it still holds every path to
    each of them, since a family it drops lies below none of them.  The
    search runs depth-first, the last family found expanded next, and stops
    once every target is found; it is complete otherwise, since every family
    that enters seen is expanded before a bit is left clear.  More than
    DEFAULT_BFS_BOUND families in seen in one call raise ResourceLimitError.
    """
    if any((b.rank, b.p) != (a.rank, a.p) for b in alcoves):
        raise PreconditionError("weak_leq_oracle compares alcoves of equal rank and p")
    if not (a.is_dominant() and all(b.is_dominant() for b in alcoves)):
        raise PreconditionError("weak_leq_oracle is defined on dominant alcoves only")
    start = a._codes
    found, targets = _target_bits(start, alcoves)
    pending = {codes: bits for codes, bits in targets.items() if all(map(le, start, codes))}
    if not pending:
        return found
    ceiling = tuple(map(max, zip(*pending)))
    bound = DEFAULT_BFS_BOUND
    seen = {start}
    stack = [start]
    while stack:
        for nxt in _up_step_families(a.rank, stack.pop()):
            if nxt in seen or not all(map(le, nxt, ceiling)):
                continue
            bits = pending.pop(nxt, 0)
            if bits:
                found |= bits
                if not pending:
                    return found
            seen.add(nxt)
            if len(seen) > bound:
                raise ResourceLimitError(f"weak-order BFS exceeded bound {bound}")
            stack.append(nxt)
    return found


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


@lru_cache(maxsize=None)
def _simple_positions(rank: int) -> tuple[int, ...]:
    """Root positions of the simple roots (k, k+1), k = 1..n."""
    pos_of = root_position(rank)
    return tuple(pos_of[RootA(k, k + 1)] for k in range(1, rank + 1))


def _ceilings(rank: int, codes: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse-Cartan-weighted combinations of the simple-root codes.

    With h the same combination of the simple-root indices and R the row
    sum, each is 2h - R, since code 2n - 1 stands for index n.
    """
    simple = [codes[k] for k in _simple_positions(rank)]
    return tuple(sum(map(mul, row, simple)) for row in inverse_cartan_numerators(rank))


def _raise_step(rank: int, codes: tuple[int, ...], beta_pos: int) -> tuple[int, ...]:
    """The codes of the alcove that _raise_tables' reflection in beta gives.

    The index transform of _raise_tables read on codes c = 2n - 1: beta's
    code becomes c_beta + 2, and every other root takes c_src + (c_beta + 1)
    times the bracket, with -c_src in place of c_src where the table says
    negated.
    """
    table = _raise_tables(rank)[beta_pos]
    lift = codes[beta_pos] + 1
    out = []
    for pos in range(len(codes)):
        if pos == beta_pos:
            out.append(lift + 1)
        else:
            src, bracket, negated = table[pos]
            base = -codes[src] if negated else codes[src]
            out.append(base + lift * bracket)
    return tuple(out)


class _RaisingGraph:
    """The one-step raises among the alcove code families of one rank, interned.

    A family gets an int id on first sight, and by id the graph keeps the
    family, its ceilings and, once the family is first expanded, the ids of
    its raises, one per root position in root order.  Raising is a function
    of the family alone, so the graph only grows and serves every p.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.ids: dict[tuple[int, ...], int] = {}
        self.families: list[tuple[int, ...]] = []
        self.ceilings: list[tuple[int, ...]] = []
        self._raises: list[Union[tuple[int, ...], None]] = []

    def id_of(self, family: tuple[int, ...]) -> int:
        fid = self.ids.get(family)
        if fid is None:
            fid = self.ids[family] = len(self.families)
            self.families.append(family)
            self.ceilings.append(_ceilings(self.rank, family))
            self._raises.append(None)
        return fid

    def raises(self, fid: int) -> tuple[int, ...]:
        out = self._raises[fid]
        if out is None:
            family = self.families[fid]
            out = tuple(
                self.id_of(_raise_step(self.rank, family, k)) for k in range(len(family))
            )
            self._raises[fid] = out
        return out


@lru_cache(maxsize=None)
def _raising_graph(rank: int) -> _RaisingGraph:
    return _RaisingGraph(rank)


def up_reachable(a: Alcove, targets: Sequence[Alcove]) -> int:
    """Reachability from a by raising reflections, one per step, as a bitmask.

    Bit j says whether targets[j] is reached from a.  A single step from
    alcove C reflects across the upper bounding hyperplane
    H_{beta, n_beta(C) p} for any positive root beta (a wall or not); the
    transitive closure of these steps is the full alcove-level raising
    relation, because the higher reflections s_{beta, mp} with m > n_beta
    factor through consecutive one-steps along beta.  The search prunes
    through exact monotone coordinates: the step sends each point x of C to
    x + c beta with c > 0, so t_k(x) = (n+1)<x, omega_k>/p never decreases
    along a path.  On a family whose simple-root indices have the
    inverse-Cartan-weighted combinations h, t_k lies strictly between
    h_k - R_k and h_k, R_k the row sum.  So every family reached from a has
    h_k > t_k > h_k(a) - R_k, a floor that can never prune, and every family
    on a path to b has h_k < h_k(b) + R_k, tested on the codes' ceilings
    2h - R (see _ceilings), as 2h - R < 2h(b) - R + 2R.  One search serves
    every target: it prunes by the componentwise maximum of the targets'
    bounds, which keeps every path to each of them, and stops once every
    target is found.
    The search runs on the ids of the rank's interned raising graph,
    depth-first on two stacks: a family whose codes are componentwise <= the
    targets' maximum goes on near, any other on far, and far is popped only
    when near is empty.  On dominant alcoves codes <= b's is the weak order,
    so with one target the search climbs towards it before it widens; else
    the split is only a heuristic.  Either way the search is complete: every
    family that enters seen is expanded before a bit is left clear, so the
    order changes how many families the search visits, never the answer.
    More than DEFAULT_BFS_BOUND families in seen in one call raise
    ResourceLimitError.
    """
    if any((b.rank, b.p) != (a.rank, a.p) for b in targets):
        raise PreconditionError("up_reachable compares alcoves of equal rank and p")
    rank = a.rank
    found, by_codes = _target_bits(a._codes, targets)
    if not by_codes:
        return found
    graph = _raising_graph(rank)
    ceilings, families = graph.ceilings, graph.families
    pending = {graph.id_of(codes): bits for codes, bits in by_codes.items()}
    rows = [sum(row) for row in inverse_cartan_numerators(rank)]
    highest = map(max, zip(*(ceilings[t] for t in pending)))
    tops = [h + 2 * r for h, r in zip(highest, rows)]
    near_codes = tuple(map(max, zip(*by_codes)))
    start = graph.id_of(a._codes)
    bound = DEFAULT_BFS_BOUND
    seen = {start}
    near, far = [start], []
    while near or far:
        for nxt in graph.raises(near.pop() if near else far.pop()):
            if nxt in seen or not all(map(lt, ceilings[nxt], tops)):
                continue
            bits = pending.pop(nxt, 0)
            if bits:
                found |= bits
                if not pending:
                    return found
            seen.add(nxt)
            if len(seen) > bound:
                raise ResourceLimitError(f"raising BFS exceeded bound {bound}")
            (near if all(map(le, families[nxt], near_codes)) else far).append(nxt)
    return found
