"""Exhaustive and sampled verification sweeps.

Each sweep pits an operation against an independent characterization
over a finite window: closure membership against the stabilizer route,
the index criterion for the weak order against raw BFS, the good-basis
supremum against the all-bases oracle, the reduction step against
its contract, the mu construction against its postconditions, and
facette lattice-point existence.  The good-sup and reduction sweeps walk
the chain bases inside gamma (cells.chain_bases_in, at most Bell(n+1) of
them) once per distinct gamma, not once per point.  Results carry case
counts, failure counts with the first descriptions, and non-failing
observational reports.
The dominant alcoves, the facettes meeting a box and the box test are calls
of one integer generator, alcove._code_families.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

from .alcove import (
    Alcove,
    Between,
    Facette,
    Wall,
    _code_families,
    alcove_of,
    closure_contains,
    facette_of,
    lower_closure_contains,
    lower_closure_contains_via_stabilizer,
    up_reachable,
    weak_leq,
    weak_leq_oracle,
)
from .cells import (
    chain_bases_in,
    comparable_pairs_of,
    enumerate_good_bases,
    gamma,
    is_good_basis,
    positive_roots_of,
    reduce_all,
    reduce_step,
    s_partition,
    s_partition_oracle,
    upward_closure,
)
from .errors import InvariantViolationError, PreconditionError
from .partition import dominance_leq, partition_of_basis, sup
from .rootsys import RootA, ShiftedPoint, positive_roots, shifted_point
from .support import construct_mu, facette_lattice_point

MAX_RECORDED_FAILURES = 20


@dataclass
class SweepResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    reports: list[str] = field(default_factory=list)
    failed: int = 0  # every failure; failures keeps the first descriptions

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


def facettes_meeting_box(n: int, p: int, hi: int) -> list[Facette]:
    """All facettes whose region meets the dominant box [0, hi]^n.

    On the box a root of span s pairs into [0, s hi], met by the cells of the
    codes 0 .. floor(s hi / p) + ceil(s hi / p); _meets_box keeps the families
    that meet the box.  Sorted root by root: walls before windows, by index.
    """
    windows = [range(t // p - (-t // p) + 1) for t in (hi * (j - i) for i, j in positive_roots(n))]
    found = [
        Facette(n, p, tuple(Between((c + 1) // 2) if c & 1 else Wall(c // 2) for c in codes))
        for codes in _code_families(n, windows)
        if _meets_box(n, p, hi, codes)
    ]
    return sorted(found, key=lambda f: tuple((isinstance(d, Between), d.index) for d in f.data))


def dominant_alcoves(n: int, p: int, index_bound: int) -> list[Alcove]:
    """All dominant alcoves with indices in [1, index_bound] (odd codes), lexicographic."""
    windows = [range(1, 2 * index_bound, 2)] * len(positive_roots(n))
    families = sorted(_code_families(n, windows))
    return [Alcove(n, p, tuple((c + 1) // 2 for c in codes)) for codes in families]


def lclosure_sweep(n: int, p: int, box: Optional[int] = None) -> SweepResult:
    """Lower-closure membership: interval route against stabilizer route.

    Compares the two characterizations on every (facette, point) pair
    with integral points in [0, box]^n and facettes meeting that box; for
    points outside a facette's topological closure the stabilizer route
    is undefined, so the direct route is required to answer false.
    """
    hi = 2 * p if box is None else box
    res = SweepResult(f"lclosure n={n} p={p} box={hi}")
    pts = integral_points(n, 0, hi)
    facettes = facettes_meeting_box(n, p, hi)
    res.require_window(len(pts) * len(facettes), "(facette, point) pairs")
    known = set(facettes)
    for pt in pts:
        f_of = facette_of(pt, p)
        if f_of not in known:
            res.fail(f"facette of {pt.coords} missing from the box enumeration")
    for f in facettes:
        for pt in pts:
            res.cases += 1
            direct = lower_closure_contains(f, pt)
            if closure_contains(f, pt):
                dual = lower_closure_contains_via_stabilizer(f, pt)
                if direct != dual:
                    res.fail(
                        f"routes disagree: facette {f.data} point {pt.coords} "
                        f"direct={direct} stabilizer={dual}"
                    )
            elif direct:
                res.fail(
                    f"point {pt.coords} outside closure yet inside lower closure "
                    f"of {f.data}"
                )
    return res


def weak_order_sweep(
    n: int,
    p: int,
    index_bound: int = 3,
    bfs_bound: Optional[int] = None,
) -> SweepResult:
    """Weak order: index criterion against BFS, and raising consistency."""
    res = SweepResult(f"weak-order n={n} p={p} index_bound={index_bound}")
    alcoves = dominant_alcoves(n, p, index_bound)
    res.require_window(len(alcoves), "dominant alcoves")
    for a in alcoves:
        for b in alcoves:
            res.cases += 1
            direct = weak_leq(a, b)
            oracle = weak_leq_oracle(a, b, bfs_bound)
            if direct != oracle:
                res.fail(
                    f"weak order disagrees on {a.indices} vs {b.indices}: "
                    f"index={direct} bfs={oracle}"
                )
            if direct and not up_reachable(a, b, bfs_bound):
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
    monotonicity_probe: int = 200,
) -> SweepResult:
    """s-partition against the brute-force oracle over a dominant box.

    Also asserts that every chain basis made of roots of gamma generates
    a system inside gamma, and that points sharing a facette share gamma.
    The oracle and the gamma check run once per distinct gamma; the
    comparisons and failures stay per point.
    The weak-order monotonicity of s is probed on sampled pairs and
    surfaced as reports only, never failures.
    """
    hi = 2 * p if box is None else box
    res = SweepResult(f"good-sup n={n} p={p} box={hi}")
    pts = _sampled_points(n, 1, hi, sample, seed)
    res.require_window(len(pts), "points")
    if sample is not None and len(pts) < (hi) ** n:
        res.reports.append(f"sampled {len(pts)} of {hi ** n} points (seed={seed})")
    gamma_by_facette: dict = {}
    s_by_point: dict = {}
    by_gamma: dict = {}  # gamma -> (oracle s, chain bases whose system escapes gamma)
    for pt in pts:
        res.cases += 1
        g = gamma(pt, p)
        if g not in by_gamma:
            escaping = [b for b in chain_bases_in(g) if not positive_roots_of(b) <= g]
            by_gamma[g] = (s_partition_oracle(pt, p), escaping)
        brute, escaping = by_gamma[g]
        fast = s_partition(pt, p)
        s_by_point[pt] = fast
        if fast != brute:
            res.fail(
                f"s mismatch at {pt.coords}: good-basis {fast} brute-force {brute}"
            )
        for basis in escaping:
            res.fail(f"system of {sorted(basis)} escapes gamma at {pt.coords}")
        key = facette_of(pt, p)
        if key in gamma_by_facette:
            if gamma_by_facette[key] != g:
                res.fail(f"gamma differs within one facette at {pt.coords}")
        else:
            gamma_by_facette[key] = g
    rng = random.Random(seed)
    pool = list(s_by_point)
    probes = 0
    for _ in range(monotonicity_probe * 5):
        if probes >= monotonicity_probe or len(pool) < 2:
            break
        a, b = rng.sample(pool, 2)
        ca, cb = alcove_of(a, p), alcove_of(b, p)
        if not weak_leq(ca, cb):
            continue
        probes += 1
        if not dominance_leq(s_by_point[a], s_by_point[b]):
            res.reports.append(
                f"s not monotone along weak order: {a.coords} -> {b.coords} "
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
    hi = 2 * p if box is None else box
    res = SweepResult(f"reduction n={n} p={p} box={hi}")
    pts = _sampled_points(n, 1, hi, sample, seed)
    res.require_window(len(pts), "points")
    if sample is not None and len(pts) < hi**n:
        res.reports.append(f"sampled {len(pts)} points (seed={seed})")
    if n <= 2:
        res.reports.append("not applicable: A_1 and A_2 have no non-good chain basis")
    seen_gammas: set[frozenset[RootA]] = set()
    seen_bases: set[frozenset[RootA]] = set()
    for pt in pts:
        g = gamma(pt, p)
        if g in seen_gammas:
            continue
        seen_gammas.add(g)
        for basis in chain_bases_in(g):
            if basis in seen_bases or is_good_basis(basis) or not positive_roots_of(basis) <= g:
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
    """construct_mu postconditions on every (point, good basis) pair."""
    hi = 2 * p if box is None else box
    res = SweepResult(f"mu n={n} p={p} box={hi}")
    pts = _sampled_points(n, 1, hi, sample, seed)
    res.require_window(len(pts), "points")
    if sample is not None and len(pts) < hi**n:
        res.reports.append(f"sampled {len(pts)} points (seed={seed})")
    for pt in pts:
        for basis in enumerate_good_bases(gamma(pt, p)):
            res.cases += 1
            try:
                construct_mu(pt, basis, p)
            except (PreconditionError, InvariantViolationError) as exc:
                res.fail(f"mu failed at {pt.coords} basis {sorted(basis)}: {exc}")
    return res


def lattice_sweep(n: int, p: int, box: Optional[int] = None) -> SweepResult:
    """Lattice-point existence on every facette meeting the dominant box."""
    if p < n + 1:
        raise PreconditionError(
            f"the lattice-point guarantee needs p >= n+1 = {n + 1}, got p={p}"
        )
    hi = 2 * p if box is None else box
    res = SweepResult(f"lattice n={n} p={p} box={hi}")
    facettes = facettes_meeting_box(n, p, hi)
    res.require_window(len(facettes), "facettes")
    for f in facettes:
        res.cases += 1
        pt = facette_lattice_point(f)
        if pt is None:
            res.fail(f"no lattice point in realizable facette {f.data}")
        elif facette_of(pt, p) != f:
            res.fail(f"lattice point {pt.coords} missed its facette {f.data}")
    return res
