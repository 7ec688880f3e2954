"""Exhaustive and sampled verification sweeps.

Each sweep pits an operation against an independent characterization
over a finite window: lower-closure membership against the stabilizer
route, the index criterion for the weak order against a search over
up-steps (and raising reachability on every weakly ordered pair), the
good-basis supremum against the all-bases oracle, the reduction step
against its contract, the mu construction against its postconditions,
and facette lattice-point existence.  Once per distinct gamma, not per
point, good-sup runs the oracle and the upper-ideal check and reduction
walks the chain bases inside gamma (cells.set_partitions_within).  Results
carry case counts, failure counts with the first descriptions, and
non-failing observational reports.
The dominant alcoves, the facettes meeting a box and the box test are calls
of one integer generator, alcove._code_families, and its families are
located.  The direct pair relations of lclosure and weak-order are bitmasks
of one builder, alcove._relation_masks, which decides a relation once per
(root, row code, distinct column value): lclosure's closure pairs from each
point's facette codes and its direct route from the points' numerators, and
weak-order's index criterion from the alcove codes, with no walk per point
and no predicate call per pair.  The oracles answer one row per call as
well: one stabilizer pass per facette, and one search per source alcove for
each of the weak order and raising.  A row's failures are the set bits of
the XOR of its two masks, walked in ascending order, so they read as a
pair-by-pair walk would write them.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Iterator, Optional, Sequence

from .alcove import (
    Alcove,
    Facette,
    _closure_masks,
    _code_families,
    _lower_closure_masks,
    _weak_masks,
    alcove_of,
    facette_of,
    lower_closure_contains_via_stabilizer,
    up_reachable,
    weak_leq,
    weak_leq_oracle,
)
from .cells import (
    comparable_pairs_of,
    count_good_bases,
    gamma,
    is_good_basis,
    positive_roots_of,
    reduce_all,
    reduce_step,
    s_partition,
    s_partition_oracle_of,
    set_partitions_within,
    upward_closure,
)
from .errors import InvariantViolationError, PreconditionError
from .partition import dominance_leq, partition_of_basis, sup
from .rootsys import (
    RootA,
    ShiftedPoint,
    _located,
    _Record,
    positive_roots,
    root_position,
    shifted_point,
)
from .support import construct_mu, facette_lattice_point

MAX_RECORDED_FAILURES = 20
MONOTONICITY_PROBES = 200  # comparable pairs the good-sup sweep examines
LCLOSURE_PAIR_CAP = 10**9  # (facette, point) pairs one lclosure sweep may check


class SweepResult(_Record):
    """A sweep's tally: the one mutable record, hence unhashable."""

    name: str
    cases: int
    failures: list[str]
    reports: list[str]
    failed: int  # every failure; failures keeps the first descriptions

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str) -> None:
        self.name, self.cases, self.failures, self.reports, self.failed = name, 0, [], [], 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(message)
        else:
            self.failures[-1] = "... further failures suppressed"

    def require_window(self, size: int, what: str) -> None:
        """Fail when the window holds nothing to check: an empty sweep proves nothing."""
        if size == 0:
            self.fail(f"empty window: no {what} to check")

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.name}: cases={self.cases} failures={self.failed} {status}"


def integral_points(n: int, lo: int, hi: int) -> list[ShiftedPoint]:
    """All integral shifted points with coordinates in [lo, hi]."""
    return [
        shifted_point(coords) for coords in product(range(lo, hi + 1), repeat=n)
    ]


def window_bound(p: int, box: Optional[int]) -> int:
    """The box bound of a sweep or atlas window: `box`, or 2p when it is None."""
    return 2 * p if box is None else box


def _sampled_points(
    n: int, lo: int, hi: int, sample: Optional[int], seed: int
) -> list[ShiftedPoint]:
    """integral_points(n, lo, hi), or a seeded sample of `sample` of them.

    Sampling never builds the box: it draws positions in the order of
    integral_points and decodes each in mixed radix, most significant
    coordinate first.  random.sample draws the same positions from a range
    as from a list of the same length, so the sample is the one taken from
    the full list.
    """
    width = max(hi - lo + 1, 0)
    total = width**n
    if sample is None or total <= sample:
        return integral_points(n, lo, hi)
    out = []
    for index in random.Random(seed).sample(range(total), sample):
        coords = []
        for _ in range(n):
            index, digit = divmod(index, width)
            coords.append(lo + digit)
        out.append(shifted_point(coords[::-1]))
    return out


def _window_points(
    res: SweepResult, n: int, hi: int, sample: Optional[int], seed: int
) -> list[ShiftedPoint]:
    """The sweep's points of [1, hi]^n, a seeded sample of them when `sample` is given.

    An empty window fails the sweep.  A sample that drops points says so in
    a report, counted against the true window size max(hi, 0)^n, so a
    negative hi is an empty window and not a sample.
    """
    pts = _sampled_points(n, 1, hi, sample, seed)
    res.require_window(len(pts), "points")
    if len(pts) < max(hi, 0) ** n:
        res.reports.append(f"sampled {len(pts)} points (seed={seed})")
    return pts


def _meets_box(rank: int, p: int, hi: int, codes: Sequence[int]) -> bool:
    """Whether the facette with these codes meets the box [0, hi]^n.

    Every multiple of p and both box bounds are multiples of q = gcd(p, hi),
    so the facette is a union of q-facettes, each inside the box or outside
    it.  A p-code c covers the q-codes r c - (c & 1)(r - 1) .. r c + (c & 1)(r - 1),
    r = p / q, and on a root of span s the q-cells inside [0, s hi] have the
    q-codes 0 .. 2 s hi / q: the box on the simple roots, and implied by it on
    the others.  So the facette meets the box iff a refined family exists.
    """
    q = math.gcd(p, hi)
    ratio = p // q
    fine = []
    for r, c in zip(positive_roots(rank), codes):
        spread = (c & 1) * (ratio - 1)
        top = 2 * hi * (r.j - r.i) // q
        fine.append(range(max(ratio * c - spread, 0), min(ratio * c + spread, top) + 1))
    return next(_code_families(rank, fine), None) is not None


def _box_windows(n: int, p: int, hi: int) -> list[range]:
    """Per root, the codes of the cells that a pairing on the box [0, hi]^n can meet.

    On the box a root of span s pairs into [0, s hi], met by the cells of the
    codes 0 .. floor(s hi / p) + ceil(s hi / p).
    """
    return [range(t // p - (-t // p) + 1) for t in (hi * (j - i) for i, j in positive_roots(n))]


def facettes_meeting_box(n: int, p: int, hi: int) -> list[Facette]:
    """All facettes whose region meets the dominant box [0, hi]^n.

    The families within the box's code windows (_box_windows) that _meets_box
    keeps, located.  Sorted root by root: walls (even codes) before windows,
    by index.  When p divides hi, _meets_box keeps every family: its grid
    step q = gcd(p, hi) is p, so it refines a code c to c alone, and the
    windows already cap the code of a root of span s at 2 s hi / p, the top
    it allows; so the walk runs only for the other boxes.
    """
    families = _code_families(n, _box_windows(n, p, hi))
    if hi % p:
        families = (codes for codes in families if _meets_box(n, p, hi, codes))
    found = sorted(families, key=lambda codes: [(c & 1, c) for c in codes])
    return [_located(Facette, rank=n, p=p, _codes=codes) for codes in found]


def dominant_alcoves(n: int, p: int, index_bound: int) -> list[Alcove]:
    """All dominant alcoves with indices in [1, index_bound] (odd codes), lexicographic."""
    windows = [range(1, 2 * index_bound, 2)] * len(positive_roots(n))
    return [_located(Alcove, rank=n, p=p, _codes=c) for c in sorted(_code_families(n, windows))]


def _set_bits(mask: int) -> Iterator[int]:
    """The positions of mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(mask: int, positions: Sequence[int]) -> int:
    """Bit k of mask moved to bit positions[k]."""
    return sum(1 << j for k, j in enumerate(positions) if mask >> k & 1)


def lclosure_sweep(n: int, p: int, box: Optional[int] = None) -> SweepResult:
    """Lower-closure membership: interval route against stabilizer route.

    Compares the two characterizations on every (facette, point) pair
    with integral points in [0, box]^n and facettes meeting that box; for
    points outside a facette's topological closure the stabilizer route
    is undefined, so the direct route is required to answer false.  Both
    relations are point bitmasks of alcove._relation_masks: the closure
    pairs from each point's facette codes (alcove._closure_masks), and the
    direct route from the point's own pairing numerators and step, never
    its facette codes (alcove._lower_closure_masks), so the outside-closure
    check can fail.  The stabilizer route runs once per facette, on the
    points of its closure in ascending order, and its bits are spread back
    to point positions; as they lie inside the closure, the XOR with the
    direct route's mask is a disagreement inside the closure and a
    lower-closure bit outside it, and its set bits are walked in ascending
    point order.  The facettes are enumerated first: a window of more than
    LCLOSURE_PAIR_CAP pairs raises PreconditionError before any point or
    mask is built.
    """
    hi = window_bound(p, box)
    res = SweepResult(f"lclosure n={n} p={p} box={hi}")
    facettes = facettes_meeting_box(n, p, hi)
    pairs = len(facettes) * max(hi + 1, 0) ** n
    if pairs > LCLOSURE_PAIR_CAP:
        raise PreconditionError(
            f"lclosure would check {pairs} (facette, point) pairs ({len(facettes)} "
            f"facettes, [0, {hi}]^{n} points), above the cap of {LCLOSURE_PAIR_CAP}; "
            "lower --box or --n"
        )
    res.require_window(pairs, "(facette, point) pairs")
    pts = integral_points(n, 0, hi)
    known = {f._codes for f in facettes}
    point_codes = [facette_of(pt, p)._codes for pt in pts]
    for pt, codes in zip(pts, point_codes):
        if codes not in known:
            res.fail(f"facette of {pt} missing from the box enumeration")
    res.cases = pairs
    closed = _closure_masks(facettes, point_codes)
    for f, inside, lower in zip(facettes, closed, _lower_closure_masks(facettes, pts)):
        members = list(_set_bits(inside))
        dual = _spread(lower_closure_contains_via_stabilizer(f, [pts[j] for j in members]), members)
        # dual lies inside the closure, so outside it the XOR is lower itself
        for j in _set_bits(lower ^ dual):
            pt, direct = pts[j], bool(lower >> j & 1)
            if inside >> j & 1:
                res.fail(
                    f"routes disagree: facette {f.data} point {pt} "
                    f"direct={direct} stabilizer={not direct}"
                )
            else:
                res.fail(
                    f"point {pt} outside closure yet inside lower closure "
                    f"of {f.data}"
                )
    return res


def weak_order_sweep(n: int, p: int, index_bound: int) -> SweepResult:
    """Weak order: index criterion against the up-step search, and raising consistency.

    The index criterion on every pair is a bit of alcove._weak_masks, the
    codes compared under <= by alcove._relation_masks.  Per source alcove,
    one search answers the weak order on the whole window and one raising
    search answers reachability on the alcoves weakly above the source;
    each prunes by the largest bound of its targets and stops once all are
    found.  The set bits of the two XORs with the index row are walked in
    ascending order, a disagreement before a missed raise on each pair.
    Either search raises ResourceLimitError once one call holds more than
    alcove.DEFAULT_BFS_BOUND families.
    """
    res = SweepResult(f"weak-order n={n} p={p} index_bound={index_bound}")
    alcoves = dominant_alcoves(n, p, index_bound)
    res.require_window(len(alcoves), "dominant alcoves")
    res.cases = len(alcoves) ** 2
    for a, above in zip(alcoves, _weak_masks(alcoves)):
        disagree = above ^ weak_leq_oracle(a, alcoves)
        ordered = list(_set_bits(above))
        unreached = above ^ _spread(up_reachable(a, [alcoves[j] for j in ordered]), ordered)
        for j in _set_bits(disagree | unreached):
            b, direct = alcoves[j], bool(above >> j & 1)
            if disagree >> j & 1:
                res.fail(
                    f"weak order disagrees on {a.indices} vs {b.indices}: "
                    f"index={direct} bfs={not direct}"
                )
            if unreached >> j & 1:
                res.fail(
                    f"{a.indices} weakly below {b.indices} but not up-reachable"
                )
    return res


def good_sup_sweep(
    n: int,
    p: int,
    box: Optional[int] = None,
    sample: Optional[int] = None,
    seed: int = 0,
) -> SweepResult:
    """s-partition against the brute-force oracle over a dominant box.

    Also asserts that gamma is an upper ideal of the root order, the
    premise under which s_partition checks only a basis' own roots, and
    that points sharing a facette share gamma.  The oracle and the ideal
    check run once per distinct gamma; the comparisons and failures stay
    per point.
    The weak-order monotonicity of s is probed on MONOTONICITY_PROBES
    sampled comparable pairs: codes componentwise <= give gamma(a) inside
    gamma(b), and a sup over more good bases is no smaller, so a drop in
    dominance is a defect of s_partition and fails the sweep.
    """
    hi = window_bound(p, box)
    res = SweepResult(f"good-sup n={n} p={p} box={hi}")
    pts = _window_points(res, n, hi, sample, seed)
    gamma_by_facette: dict = {}
    s_by_point: dict = {}
    by_gamma: dict = {}  # gamma -> (oracle s, roots above gamma missing from it)
    for pt in pts:
        res.cases += 1
        g = gamma(pt, p)
        if g not in by_gamma:
            missing = [tuple(r) for r in sorted(upward_closure(g, n) - g)]
            by_gamma[g] = (s_partition_oracle_of(g, n), missing)
        brute, missing = by_gamma[g]
        fast = s_partition(pt, p)
        s_by_point[pt] = fast
        if fast != brute:
            res.fail(
                f"s mismatch at {pt}: good-basis {fast} brute-force {brute}"
            )
        if missing:
            res.fail(f"gamma at {pt} is not an upper ideal: missing {missing}")
        key = facette_of(pt, p)
        if key in gamma_by_facette:
            if gamma_by_facette[key] != g:
                res.fail(f"gamma differs within one facette at {pt}")
        else:
            gamma_by_facette[key] = g
    rng = random.Random(seed)
    pool = list(s_by_point)
    probes = 0
    for _ in range(MONOTONICITY_PROBES * 5):
        if probes >= MONOTONICITY_PROBES or len(pool) < 2:
            break
        a, b = rng.sample(pool, 2)
        ca, cb = alcove_of(a, p), alcove_of(b, p)
        if not weak_leq(ca, cb):
            continue
        probes += 1
        if not dominance_leq(s_by_point[a], s_by_point[b]):
            res.fail(
                f"s not monotone along weak order: {a} -> {b} "
                f"({s_by_point[a]} vs {s_by_point[b]})"
            )
    res.reports.append(f"monotonicity probe: {probes} comparable pairs examined")
    return res


def reduction_sweep(
    n: int,
    p: int,
    box: Optional[int] = None,
    sample: Optional[int] = None,
    seed: int = 0,
) -> SweepResult:
    """Reduction contract on every non-good basis over a dominant box.

    For each comparable pair of each non-good basis inside gamma, the
    one-step outputs and the full reduction tree must consist of bases
    inside the upward closure, end in good leaves, and recover at least
    the input partition at the supremum.  At n <= 2 every chain basis is
    good, so the sweep has no case and says so in a report.
    """
    hi = window_bound(p, box)
    res = SweepResult(f"reduction n={n} p={p} box={hi}")
    pts = _window_points(res, n, hi, sample, seed)
    if n <= 2:
        res.reports.append("not applicable: A_1 and A_2 have no non-good chain basis")
    roots, pos = positive_roots(n), root_position(n)
    seen_gammas: set[frozenset[RootA]] = set()
    seen_bases: set[frozenset[RootA]] = set()
    for pt in pts:
        g = gamma(pt, p)
        if g in seen_gammas:
            continue
        seen_gammas.add(g)
        for blocks in set_partitions_within(g, n):
            basis = frozenset(roots[pos[uv]] for nodes in blocks for uv in zip(nodes, nodes[1:]))
            if basis in seen_bases or is_good_basis(basis):
                continue
            seen_bases.add(basis)
            pi_in = partition_of_basis(basis, n)
            closure_bound = upward_closure(positive_roots_of(basis), n)
            for big, small in comparable_pairs_of(basis):
                res.cases += 1
                try:
                    first, second = reduce_step(basis, (big, small), n)
                except (PreconditionError, InvariantViolationError) as exc:
                    res.fail(f"reduce_step failed on {sorted(basis)}: {exc}")
                    continue
                leaves = []
                for out in (first, second):
                    leaves.extend(reduce_all(out, n))
                bad = [leaf for leaf in leaves if not is_good_basis(leaf)]
                if bad:
                    res.fail(f"non-good leaf {sorted(bad[0])} from {sorted(basis)}")
                    continue
                if not all(
                    positive_roots_of(leaf) <= closure_bound for leaf in leaves
                ):
                    res.fail(f"leaf escaped upward closure from {sorted(basis)}")
                    continue
                leaf_sup = sup([partition_of_basis(leaf, n) for leaf in leaves])
                if not dominance_leq(pi_in, leaf_sup):
                    res.fail(
                        f"sup of leaves {leaf_sup} lost {pi_in} from {sorted(basis)}"
                    )
    return res


def mu_sweep(
    n: int,
    p: int,
    box: Optional[int] = None,
    sample: Optional[int] = None,
    seed: int = 0,
) -> SweepResult:
    """construct_mu postconditions on every (point, good basis) pair.

    One call per point builds every good basis' mu and checks each one; the
    call must also build exactly as many as gamma(pt, p) has good bases,
    counted here apart from the gamma construct_mu reads off pt's alcove.
    Cases count (point, good basis) pairs, but failures count points: a
    failing postcondition stops the point's call, and its message names the
    first failing basis.
    """
    hi = window_bound(p, box)
    res = SweepResult(f"mu n={n} p={p} box={hi}")
    pts = _window_points(res, n, hi, sample, seed)
    for pt in pts:
        count = count_good_bases(gamma(pt, p))
        res.cases += count
        try:
            legs = construct_mu(pt, alcove_of(pt, p))
        except (PreconditionError, InvariantViolationError) as exc:
            res.fail(f"mu failed at {pt}: {exc}")
            continue
        if len(legs) != count:
            res.fail(f"mu built {len(legs)} of the {count} good bases at {pt}")
    return res


def lattice_sweep(n: int, p: int, box: Optional[int] = None) -> SweepResult:
    """Lattice-point existence on every facette meeting the dominant box."""
    if p < n + 1:
        raise PreconditionError(
            f"the lattice-point guarantee needs p >= n+1 = {n + 1}, got p={p}"
        )
    hi = window_bound(p, box)
    res = SweepResult(f"lattice n={n} p={p} box={hi}")
    facettes = facettes_meeting_box(n, p, hi)
    res.require_window(len(facettes), "facettes")
    for f in facettes:
        res.cases += 1
        pt = facette_lattice_point(f)
        if pt is None:
            res.fail(f"no lattice point in realizable facette {f.data}")
        elif facette_of(pt, p) != f:
            res.fail(f"lattice point {pt} missed its facette {f.data}")
    return res
