"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints exactly one line of the form

    ACCEPTANCE NN PASS <detail>
    ACCEPTANCE NN FAIL <detail>

and then asserts, so the human-readable verdict survives pytest capture
while the exit code still reflects the outcome.
"""

import time
from itertools import combinations

from alcove_cells.alcove import alcove_of, up_reachable, weak_leq
from alcove_cells.cells import is_good_basis, is_subroot_basis, reduce_step
from alcove_cells.partition import (
    dominance_leq,
    orbit_label,
    partition,
    partition_of_basis,
    partitions_of,
    sup,
    transpose,
)
from alcove_cells.rootsys import RootA, shifted_point
from alcove_cells.support import weight_cell_of
from alcove_cells.sweeps import (
    good_sup_sweep,
    lattice_sweep,
    lclosure_sweep,
    mu_sweep,
    weak_order_sweep,
)


def report(capsys, num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_zero_orbit_regression(capsys):
    start = time.monotonic()
    problems = []
    for p in (5, 7, 11):
        lam = shifted_point([p + 1, p + 1])
        mu = shifted_point([3 * p - 1, 2])
        if weight_cell_of(lam, p) != partition([1, 1, 1]):
            problems.append(f"p={p}: cell(lam) != (1,1,1)")
        if orbit_label(weight_cell_of(lam, p)).dim != 0:
            problems.append(f"p={p}: orbit dim != 0")
        if weight_cell_of(mu, p) == partition([1, 1, 1]):
            problems.append(f"p={p}: cell(mu) unexpectedly (1,1,1)")
        a, b = alcove_of(lam, p), alcove_of(mu, p)
        if not up_reachable(a, [b]):
            problems.append(f"p={p}: not up-reachable")
        if weak_leq(a, b):
            problems.append(f"p={p}: unexpectedly weakly below")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 1.0
    report(capsys, 1, ok, f"zero-orbit regression p=5,7,11 elapsed={elapsed:.2f}s"
           + (f" problems={problems}" if problems else ""))


def test_criterion_02_sup_and_reduction_example(capsys):
    start = time.monotonic()
    got_sup = sup([partition([3, 3]), partition([4, 1, 1])])
    basis = frozenset({RootA(1, 3), RootA(3, 4), RootA(4, 6), RootA(2, 5)})
    swapped, deleted = reduce_step(basis, (RootA(2, 5), RootA(3, 4)), 5)
    checks = [
        got_sup == partition([4, 2]),
        swapped == frozenset({RootA(1, 3), RootA(3, 5), RootA(2, 4), RootA(4, 6)}),
        deleted == frozenset({RootA(1, 3), RootA(3, 4), RootA(4, 6)}),
        partition_of_basis(swapped, 5) == partition([3, 3]),
        partition_of_basis(deleted, 5) == partition([4, 1, 1]),
        sup([partition_of_basis(swapped, 5), partition_of_basis(deleted, 5)])
        == partition_of_basis(basis, 5)
        == partition([4, 2]),
    ]
    elapsed = time.monotonic() - start
    ok = all(checks) and elapsed < 1.0
    report(capsys, 2, ok, f"sup and reduction worked example elapsed={elapsed:.2f}s checks={checks}")


def test_criterion_03_classification_examples(capsys):
    verdicts = [
        is_subroot_basis({RootA(1, 6), RootA(2, 4), RootA(4, 7)}) is True,
        is_subroot_basis({RootA(3, 6), RootA(3, 5)}) is False,
        is_good_basis({RootA(1, 4), RootA(2, 3)}) is False,
        is_good_basis({RootA(1, 4), RootA(2, 5)}) is True,
    ]
    report(capsys, 3, all(verdicts), f"four basis/goodness verdicts={verdicts}")


def test_criterion_04_s_partition_oracle_equivalence(capsys):
    start = time.monotonic()
    results = [
        good_sup_sweep(total - 1, p, box=2 * p)
        for total, p in ((3, 3), (3, 5), (4, 3), (4, 5), (5, 3))
    ]
    elapsed = time.monotonic() - start
    cases = sum(r.cases for r in results)
    bad = [f for r in results for f in r.failures]
    ok = not bad and elapsed < 300.0
    report(capsys, 4, ok,
           f"s vs oracle exhaustive cases={cases} elapsed={elapsed:.1f}s"
           + (f" failures={bad[:3]}" if bad else ""))


def test_criterion_05_weak_order_oracle_equivalence(capsys):
    start = time.monotonic()
    results = [weak_order_sweep(n, p, index_bound=3) for n in (2, 3) for p in (3, 5)]
    elapsed = time.monotonic() - start
    cases = sum(r.cases for r in results)
    bad = [f for r in results for f in r.failures]
    ok = not bad and elapsed < 120.0
    report(capsys, 5, ok,
           f"weak order vs BFS cases={cases} elapsed={elapsed:.1f}s"
           + (f" failures={bad[:3]}" if bad else ""))


def test_criterion_06_lower_closure_equivalence(capsys):
    start = time.monotonic()
    results = [lclosure_sweep(n, p, box=2 * p) for n in (2, 3) for p in (2, 3, 5)]
    elapsed = time.monotonic() - start
    cases = sum(r.cases for r in results)
    bad = [f for r in results for f in r.failures]
    report(capsys, 6, not bad,
           f"closure inequality vs stabilizer cases={cases} elapsed={elapsed:.1f}s"
           + (f" failures={bad[:3]}" if bad else ""))


def test_criterion_07_mu_postconditions(capsys):
    start = time.monotonic()
    results = [
        mu_sweep(total - 1, p, box=2 * p)
        for total, p in ((3, 3), (3, 5), (4, 3), (4, 5), (5, 3))
    ]
    elapsed = time.monotonic() - start
    cases = sum(r.cases for r in results)
    bad = [f for r in results for f in r.failures]
    report(capsys, 7, not bad,
           f"mu postconditions cases={cases} elapsed={elapsed:.1f}s"
           + (f" failures={bad[:3]}" if bad else ""))


def test_criterion_08_facette_lattice_points(capsys):
    start = time.monotonic()
    combos = [(n, p) for n in (2, 3) for p in (3, 5, 7) if p >= n + 1]
    results = [lattice_sweep(n, p, box=2 * p) for n, p in combos]
    elapsed = time.monotonic() - start
    cases = sum(r.cases for r in results)
    bad = [f for r in results for f in r.failures]
    report(capsys, 8, not bad,
           f"lattice point in every facette combos={combos} cases={cases} "
           f"elapsed={elapsed:.1f}s" + (f" failures={bad[:3]}" if bad else ""))


def test_criterion_09_partition_lattice_properties(capsys):
    start = time.monotonic()
    problems = []
    for total in range(1, 9):
        parts = partitions_of(total)
        for a in parts:
            if transpose(transpose(a)) != a:
                problems.append(f"transpose not involutive on {a}")
            if not dominance_leq(a, a):
                problems.append(f"not reflexive on {a}")
        for a, b in combinations(parts, 2):
            if dominance_leq(a, b) and dominance_leq(b, a):
                problems.append(f"antisymmetry fails on {a},{b}")
            if dominance_leq(a, b) != dominance_leq(transpose(b), transpose(a)):
                problems.append(f"transpose not order-reversing on {a},{b}")
        for a in parts:
            for b in parts:
                s = sup([a, b])
                if not (dominance_leq(a, s) and dominance_leq(b, s)):
                    problems.append(f"sup not an upper bound on {a},{b}")
                for c in parts:
                    if dominance_leq(a, c) and dominance_leq(b, c) and not dominance_leq(s, c):
                        problems.append(f"sup not least on {a},{b},{c}")
                    if (
                        dominance_leq(a, b)
                        and dominance_leq(b, c)
                        and not dominance_leq(a, c)
                    ):
                        problems.append(f"transitivity fails on {a},{b},{c}")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 60.0
    report(capsys, 9, ok,
           f"partition lattice laws totals<=8 elapsed={elapsed:.1f}s"
           + (f" problems={problems[:3]}" if problems else ""))


def test_criterion_10_atlas_tiling(capsys):
    p, box = 5, 12
    buckets = {pi: [] for pi in partitions_of(3)}
    for x in range(1, box + 1):
        for y in range(1, box + 1):
            pt = shifted_point([x, y])
            buckets[weight_cell_of(pt, p)].append(pt)
    total = sum(len(v) for v in buckets.values())
    steinberg = [shifted_point([5, 5]), shifted_point([6, 5]), shifted_point([6, 6])]
    problems = []
    if total != box * box:
        problems.append(f"classified {total} of {box * box}")
    if any(not v for v in buckets.values()):
        problems.append("some cell empty")
    zero_cell = buckets[partition([1, 1, 1])]
    for pt in steinberg:
        if pt not in zero_cell:
            problems.append(f"{pt.coords} not in the zero-orbit cell")
    counts = {str(k): len(v) for k, v in sorted(buckets.items(), key=lambda kv: kv[0].parts)}
    report(capsys, 10, not problems,
           f"atlas tiling n=2 p=5 box=12 counts={counts}"
           + (f" problems={problems}" if problems else ""))
