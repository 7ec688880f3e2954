"""Exhaustive and sampled verification sweeps.

Each sweep pits an operation against an independent characterization
over a finite window: closure membership against the stabilizer route,
the index criterion for the weak order against raw BFS, the good-basis
supremum against the all-bases brute force, the reduction step against
its contract, the mu construction against its postconditions, and
facette lattice-point existence.  Results carry case counts, failure
descriptions (capped), and non-failing observational reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional

from .alcove import (
    Alcove,
    Between,
    Datum,
    Facette,
    Wall,
    _base_system,
    _splits,
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
    comparable_pairs_of,
    enumerate_good_bases,
    gamma,
    is_good_basis,
    is_subroot_basis,
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

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
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
        return f"{self.name}: cases={self.cases} failures={len(self.failures)} {status}"


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


def facettes_meeting_box(n: int, p: int, hi: int) -> list[Facette]:
    """All facettes whose region meets the dominant box [0, hi]^n.

    Depth-first assignment of per-root data in canonical root order,
    pruned by exact feasibility of the partial system together with the
    box constraints; every leaf is a realizable facette meeting the box.
    """
    roots = positive_roots(n)
    out: list[Facette] = []
    chosen: list[Datum] = []

    def candidates(r: RootA) -> list[Datum]:
        span = r.j - r.i
        top = hi * span
        opts: list[Datum] = []
        for m in range(0, top // p + 1):
            opts.append(Wall(m))
        for idx in range(1, top // p + 2):
            if (idx - 1) * p < top:
                opts.append(Between(idx))
        return opts

    def feasible_prefix() -> bool:
        ds = _base_system(n, p, chosen)
        for k in range(n):
            ds.add_window(k, k + 1, 0, hi, strict=False)
        return ds.feasible()

    def walk(depth: int) -> None:
        if depth == len(roots):
            out.append(Facette(n, p, tuple(chosen)))
            return
        for d in candidates(roots[depth]):
            chosen.append(d)
            if feasible_prefix():
                walk(depth + 1)
            chosen.pop()

    walk(0)
    return out


def dominant_alcoves(n: int, p: int, index_bound: int) -> list[Alcove]:
    """All dominant alcoves with every index in [1, index_bound].

    Depth-first in canonical root order, pruned by the split rule on the
    splits (h,i) + (i,j) = (h,j), h < i, that the newest root (i,j) closes.
    A lexicographic prefix has a chordal constraint graph whose triangles
    are those splits, and a passing split leaves its windows closed (see
    _realizable), so the rule accepts exactly the feasible prefixes.
    """
    roots = positive_roots(n)
    closing: list[list[tuple[int, int, int]]] = [[] for _ in roots]
    for split in _splits(n):
        closing[max(split)].append(split)
    out: list[Alcove] = []
    chosen: list[int] = []

    def walk(depth: int) -> None:
        if depth == len(roots):
            out.append(Alcove(n, p, tuple(chosen)))
            return
        for idx in range(1, index_bound + 1):
            chosen.append(idx)
            gaps = (chosen[ij] - chosen[ik] - chosen[kj] for ik, kj, ij in closing[depth])
            if all(gap in (-1, 0) for gap in gaps):
                walk(depth + 1)
            chosen.pop()

    walk(0)
    return out


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


def _chain_bases_in(g: frozenset[RootA]) -> list[frozenset[RootA]]:
    """All chain bases made of roots of g."""
    pool = sorted(g)
    return [
        frozenset(combo)
        for size in range(len(pool) + 1)
        for combo in combinations(pool, size)
        if is_subroot_basis(combo)
    ]


def _bases_within(g: frozenset[RootA]) -> list[frozenset[RootA]]:
    """All chain bases inside g whose generated system also lies inside g."""
    return [b for b in _chain_bases_in(g) if positive_roots_of(b) <= g]


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
    for pt in pts:
        res.cases += 1
        g = gamma(pt, p)
        fast = s_partition(pt, p)
        brute = s_partition_oracle(pt, p)
        s_by_point[pt] = fast
        if fast != brute:
            res.fail(
                f"s mismatch at {pt.coords}: good-basis {fast} brute-force {brute}"
            )
        for basis in _chain_bases_in(g):
            if not positive_roots_of(basis) <= g:
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
    if sample is not None:
        res.reports.append(f"sampled {len(pts)} points (seed={seed})")
    if n <= 2:
        res.reports.append("not applicable: A_1 and A_2 have no non-good chain basis")
    seen_bases: set[frozenset[RootA]] = set()
    for pt in pts:
        g = gamma(pt, p)
        for basis in _bases_within(g):
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
    """construct_mu postconditions on every (point, good basis) pair."""
    hi = 2 * p if box is None else box
    res = SweepResult(f"mu n={n} p={p} box={hi}")
    pts = _sampled_points(n, 1, hi, sample, seed)
    res.require_window(len(pts), "points")
    if sample is not None:
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
