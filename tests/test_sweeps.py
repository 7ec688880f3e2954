import json
import random
from pathlib import Path

import pytest

from alcove_cells import sweeps
from alcove_cells.alcove import lower_closure_contains, weak_leq
from alcove_cells.errors import PreconditionError
from alcove_cells.rootsys import RootA
from alcove_cells.sweeps import (
    SweepResult,
    _sampled_points,
    dominant_alcoves,
    facettes_meeting_box,
    good_sup_sweep,
    integral_points,
    lattice_sweep,
    lclosure_sweep,
    mu_sweep,
    reduction_sweep,
    weak_order_sweep,
)


@pytest.mark.parametrize(
    "sweep, args, what",
    [
        (lclosure_sweep, (2, 3, -1), "(facette, point) pairs"),
        (lattice_sweep, (2, 3, -1), "facettes"),
        (weak_order_sweep, (2, 3, 0), "dominant alcoves"),
        (good_sup_sweep, (2, 3, 0), "points"),
        (mu_sweep, (2, 3, 0), "points"),
        (reduction_sweep, (4, 3, -10), "points"),
        (good_sup_sweep, (4, 3, -10, 5000, 0), "points"),
    ],
)
def test_a_sweep_on_an_empty_window_fails(sweep, args, what):
    # the CLI refuses such windows up front; called directly, the sweep
    # itself must still fail rather than pass on nothing
    res = sweep(*args)
    assert (res.cases, res.ok) == (0, False)
    assert res.failures == [f"empty window: no {what} to check"]
    assert not any("sampled" in line for line in res.reports)


def test_sweep_result_counters():
    r = SweepResult(name="demo")
    assert r.ok and "PASS" in r.summary()
    r.cases = 3
    r.fail("broke")
    assert not r.ok and r.failures == ["broke"] and "FAIL" in r.summary()


def test_sweep_result_caps_recorded_failures():
    r = SweepResult(name="demo")
    for k in range(100):
        r.fail(f"msg {k}")
    assert len(r.failures) == 20
    assert r.failures[-1] == "... further failures suppressed"


def test_sweep_result_counts_every_failure():
    r = SweepResult(name="demo")
    for k in range(50):
        r.fail(f"msg {k}")
    assert r.failed == 50 and len(r.failures) == 20
    assert r.summary() == "demo: cases=0 failures=50 FAIL"


@pytest.mark.parametrize("sweep", [good_sup_sweep, reduction_sweep, mu_sweep])
def test_sampled_report_only_when_points_are_dropped(sweep):
    whole = sweep(3, 3, box=4, sample=10**6)
    assert not any(line.startswith("sampled") for line in whole.reports)
    part = sweep(3, 3, box=4, sample=10, seed=1)
    assert "sampled 10 points (seed=1)" in part.reports


def test_integral_points_count():
    pts = integral_points(2, 1, 3)
    assert len(pts) == 9
    assert all(pt.is_regular_dominant() for pt in pts)


def test_facettes_meeting_box_rank_one():
    # on a line with p=2, box [0,4]: walls at 0,2,4 and the two gaps between
    fs = facettes_meeting_box(1, 2, 4)
    assert len(fs) == 5


def test_facettes_meeting_box_contains_known_facettes():
    from alcove_cells.alcove import facette_of
    from alcove_cells.rootsys import shifted_point

    fs = set(facettes_meeting_box(2, 5, 10))
    assert facette_of(shifted_point([2, 2]), 5) in fs
    assert facette_of(shifted_point([5, 5]), 5) in fs


def test_dominant_alcoves_count():
    # index vectors in [1,3]^3 that satisfy the long-root window
    alcs = dominant_alcoves(2, 3, 3)
    assert len(alcs) == 9
    assert all(max(a.indices) <= 3 for a in alcs)


def test_lclosure_sweep_small():
    r = lclosure_sweep(2, 3, box=6)
    assert r.ok and r.cases > 0


def test_lclosure_sweep_rank_four():
    r = lclosure_sweep(4, 3, box=3)
    assert r.ok and r.cases == 76544


def test_lclosure_sweep_refuses_past_its_pair_cap_before_any_point(monkeypatch):
    # 51 facettes x 4^3 points at (3, 3, 3): a cap of exactly 3,264 pairs
    # admits the window, and one below refuses it before a point is built
    monkeypatch.setattr(sweeps, "LCLOSURE_PAIR_CAP", 3264)
    assert lclosure_sweep(3, 3, box=3).cases == 3264
    monkeypatch.setattr(sweeps, "LCLOSURE_PAIR_CAP", 3263)
    monkeypatch.setattr(sweeps, "integral_points", _refuse_points)
    with pytest.raises(PreconditionError) as exc:
        lclosure_sweep(3, 3, box=3)
    assert str(exc.value) == (
        "lclosure would check 3264 (facette, point) pairs (51 facettes, [0, 3]^3 points), "
        "above the cap of 3263; lower --box or --n"
    )


def test_the_lclosure_cap_admits_box_eleven_at_rank_five_and_refuses_box_fourteen():
    # 2,163 facettes x 12^5 points pass in under a minute; 48,965 x 15^5
    # would fill memory
    assert len(facettes_meeting_box(5, 11, 11)) * 12**5 == 538223616
    assert 538223616 <= sweeps.LCLOSURE_PAIR_CAP
    with pytest.raises(PreconditionError, match=r"^lclosure would check 37182796875 "):
        lclosure_sweep(5, 7)


# The whole count and the kept failure list, in order, of every failure
# scenario below, as the sweeps wrote them while the oracles answered one
# pair per call: the row loops must reproduce the text and the order exactly.
FAILURE_CONTRACT = json.loads((Path(__file__).parent / "sweep_failures.json").read_text())


def _assert_pinned(name, r):
    pinned = FAILURE_CONTRACT[name]
    assert (r.cases, r.failed) == (pinned["cases"], pinned["failed"])
    assert r.failures == pinned["failures"]


def test_failure_contract_holds_exactly_the_scenarios_below():
    assert {name: pinned["failed"] for name, pinned in FAILURE_CONTRACT.items()} == {
        "lclosure_contradicting_stabilizer_n2_p3_box6": 153,
        "lclosure_contradicting_stabilizer_n3_p3_box6": 2579,
        "lclosure_contradicting_stabilizer_n4_p3_box3": 3896,
        "lclosure_all_ones_direct_n2_p3_box6": 1528,
        "lclosure_all_ones_direct_n3_p3_box6": 99554,
        "lclosure_all_ones_direct_n4_p3_box3": 75611,
        "weak_order_contradicting_search_n3_p5_index_bound4": 4096,
        "weak_order_nothing_reachable_n3_p5_index_bound4": 848,
        "weak_order_all_ones_index_n3_p5_index_bound4": 3248 + 2801,
    }
    assert all(len(pinned["failures"]) == 20 for pinned in FAILURE_CONTRACT.values())


@pytest.mark.parametrize(
    "n, p, box, closure_pairs", [(2, 3, 6, 153), (3, 3, 6, 2579), (4, 3, 3, 3896)]
)
def test_lclosure_sweep_sends_exactly_the_closure_pairs_to_the_stabilizer_route(
    monkeypatch, n, p, box, closure_pairs
):
    # a stabilizer route that contradicts the direct one fails every pair it
    # is asked about: the closure pairs, as many as closure_contains admits
    def contradict(f, pts):
        return sum(1 << j for j, pt in enumerate(pts) if not lower_closure_contains(f, pt))

    monkeypatch.setattr(sweeps, "lower_closure_contains_via_stabilizer", contradict)
    r = lclosure_sweep(n, p, box=box)
    assert r.failed == closure_pairs
    _assert_pinned(f"lclosure_contradicting_stabilizer_n{n}_p{p}_box{box}", r)


@pytest.mark.parametrize(
    "n, p, box, failed", [(2, 3, 6, 1528), (3, 3, 6, 99554), (4, 3, 3, 75611)]
)
def test_lclosure_sweep_fails_every_pair_outside_the_lower_closure_when_direct_says_yes(
    monkeypatch, n, p, box, failed
):
    # a direct route that answers True on every pair (masks all ones) is wrong
    # on every pair outside the lower closure: outside the closure set it
    # trips the outside-closure failure, inside it the stabilizer route disagrees
    def all_ones(facettes, pts):
        return [(1 << len(pts)) - 1] * len(facettes)

    monkeypatch.setattr(sweeps, "_lower_closure_masks", all_ones)
    r = lclosure_sweep(n, p, box=box)
    assert r.cases == len(facettes_meeting_box(n, p, box)) * (box + 1) ** n
    assert r.failed == failed
    if (n, p, box) == (2, 3, 6):
        assert r.failures[0] == (
            "point (0, 1) outside closure yet inside lower closure of "
            "(Wall(index=0), Wall(index=0), Wall(index=0))"
        )
    _assert_pinned(f"lclosure_all_ones_direct_n{n}_p{p}_box{box}", r)


def test_weak_order_sweep_small():
    r = weak_order_sweep(2, 3, index_bound=3)
    assert r.ok and r.cases > 0


def test_weak_order_sweep_fails_every_pair_when_the_search_contradicts_the_index_route(
    monkeypatch,
):
    def contradict(a, alcoves):
        return sum(1 << j for j, b in enumerate(alcoves) if not weak_leq(a, b))

    monkeypatch.setattr(sweeps, "weak_leq_oracle", contradict)
    r = weak_order_sweep(3, 5, index_bound=4)
    assert (r.cases, r.failed) == (4096, 4096)
    assert r.failures[0] == (
        "weak order disagrees on (1, 1, 1, 1, 1, 1) vs (1, 1, 1, 1, 1, 1): "
        "index=True bfs=False"
    )
    _assert_pinned("weak_order_contradicting_search_n3_p5_index_bound4", r)


def test_weak_order_sweep_fails_exactly_the_weakly_ordered_pairs_when_none_is_reachable(
    monkeypatch,
):
    monkeypatch.setattr(sweeps, "up_reachable", lambda a, targets: 0)
    r = weak_order_sweep(3, 5, index_bound=4)
    assert (r.cases, r.failed) == (4096, 848)
    assert r.failures[0] == (
        "(1, 1, 1, 1, 1, 1) weakly below (1, 1, 1, 1, 1, 1) but not up-reachable"
    )
    _assert_pinned("weak_order_nothing_reachable_n3_p5_index_bound4", r)


def test_weak_order_sweep_fails_when_the_index_route_says_yes_on_every_pair(monkeypatch):
    # all-ones masks are wrong on the 4096 - 848 pairs that are not weakly
    # ordered: the search disagrees on each, and up_reachable refuses the
    # 2801 of them that raising cannot reach either
    monkeypatch.setattr(sweeps, "_weak_masks", lambda al: [(1 << len(al)) - 1] * len(al))
    r = weak_order_sweep(3, 5, index_bound=4)
    assert (r.cases, r.failed) == (4096, 3248 + 2801)
    assert r.failures[:2] == [
        "weak order disagrees on (1, 1, 2, 1, 1, 1) vs (1, 1, 1, 1, 1, 1): "
        "index=True bfs=False",
        "(1, 1, 2, 1, 1, 1) weakly below (1, 1, 1, 1, 1, 1) but not up-reachable",
    ]
    _assert_pinned("weak_order_all_ones_index_n3_p5_index_bound4", r)


def test_good_sup_sweep_small():
    r = good_sup_sweep(2, 3, box=6)
    assert r.ok and r.cases > 0


def test_reduction_sweep_rank_three_has_cases():
    # rank 2 has no non-good bases at all, so the first real cases need n=3
    r2 = reduction_sweep(2, 3, box=6)
    assert r2.ok
    r3 = reduction_sweep(3, 3, box=6, sample=200, seed=11)
    assert r3.ok and r3.cases > 0


NOT_APPLICABLE = "not applicable: A_1 and A_2 have no non-good chain basis"


def test_reduction_sweep_says_when_it_cannot_apply():
    r2 = reduction_sweep(2, 3, box=6)
    assert r2.ok and r2.cases == 0
    assert NOT_APPLICABLE in r2.reports
    r3 = reduction_sweep(3, 3, box=4)
    assert r3.ok and r3.cases > 0
    assert NOT_APPLICABLE not in r3.reports


def test_mu_sweep_small():
    r = mu_sweep(2, 5, box=10)
    assert r.ok and r.cases > 0


def test_mu_sweep_fails_a_point_whose_bases_are_not_all_built(monkeypatch):
    # construct_mu reads gamma off the point's alcove; a call that drops a
    # leg must not pass for the good bases the sweep counts from gamma itself
    built = sweeps.construct_mu
    monkeypatch.setattr(sweeps, "construct_mu", lambda pt, lam: built(pt, lam)[1:])
    r = mu_sweep(2, 3, box=3)
    # the 9 points of [1, 3]^2 hold 24 good bases, and every point lost one
    assert r.cases == 24
    assert r.failed == 9 and r.failures[0] == "mu built 0 of the 1 good bases at (1, 1)"


def test_lattice_sweep_small():
    r = lattice_sweep(2, 5, box=10)
    assert r.ok and r.cases > 0


def test_lattice_sweep_guards_small_p():
    with pytest.raises(PreconditionError):
        lattice_sweep(2, 2, box=4)


@pytest.mark.parametrize(
    "n, lo, hi, sample, seed",
    [(2, 1, 6, 5, 0), (3, 1, 10, 50, 3), (1, 0, 7, 3, 1), (4, 1, 10, 500, 7), (2, 1, 3, 9, 0)],
)
def test_sampled_points_match_sampling_the_full_list(n, lo, hi, sample, seed):
    full = integral_points(n, lo, hi)
    expected = full if len(full) <= sample else random.Random(seed).sample(full, sample)
    assert _sampled_points(n, lo, hi, sample, seed) == expected


def _refuse_points(*args):
    raise AssertionError("integral_points called")


def test_sampling_never_builds_the_box(monkeypatch):
    monkeypatch.setattr(sweeps, "integral_points", _refuse_points)
    pts = _sampled_points(5, 1, 14, 20, 0)
    assert len(set(pts)) == 20
    assert all(pt.is_integral() and min(pt.coords) >= 1 and max(pt.coords) <= 14 for pt in pts)
    r = good_sup_sweep(2, 3, box=6, sample=10, seed=1)
    assert r.ok and r.cases == 10


def test_good_sup_sweep_fails_when_gamma_is_not_upward_closed(monkeypatch):
    # (1,2) and (2,3) form a chain basis whose system also holds (1,3)
    holes = frozenset({RootA(1, 2), RootA(2, 3)})
    monkeypatch.setattr(sweeps, "gamma", lambda pt, p: holes)
    r = good_sup_sweep(2, 3, box=6)
    assert not r.ok
    assert any(f.endswith("is not an upper ideal: missing [(1, 3)]") for f in r.failures)


def test_good_sup_sweep_fails_when_s_is_not_monotone(monkeypatch):
    # a comparable pair whose s drops in dominance can only come from a
    # defect in s_partition, so the probe fails the sweep, not just reports
    monkeypatch.setattr(sweeps, "dominance_leq", lambda a, b: False)
    r = good_sup_sweep(2, 3, box=6)
    assert not r.ok and r.failures[0].startswith("s not monotone along weak order: ")
    assert r.reports[-1] == "monotonicity probe: 200 comparable pairs examined"


def _refuse(*args):
    raise PreconditionError("refused")


@pytest.mark.parametrize(
    "name, stub, sweep, first",
    [
        (
            "lower_closure_contains_via_stabilizer",
            lambda f, pts: 0,
            lambda: lclosure_sweep(2, 3, box=2),
            "routes disagree: facette (Wall(index=0), Wall(index=0), Wall(index=0)) "
            "point (0, 0) direct=True",
        ),
        (
            "construct_mu",
            _refuse,
            lambda: mu_sweep(2, 3, box=3),
            "mu failed at (1, 1): refused",
        ),
        (
            "facette_lattice_point",
            lambda f: sweeps.shifted_point((1, 1)),
            lambda: lattice_sweep(2, 3, box=3),
            "lattice point (1, 1) missed its facette",
        ),
    ],
)
def test_sweep_failures_print_points_as_coordinates(monkeypatch, name, stub, sweep, first):
    monkeypatch.setattr(sweeps, name, stub)
    r = sweep()
    assert r.failures[0].startswith(first)
    assert not any("Fraction(" in f for f in r.failures)


def test_good_sup_sweep_names_the_roots_missing_above_gamma(monkeypatch):
    # {(2,3)} generates no system outside itself, yet (1,3) lies above (2,3):
    # the ideal check fails once per point where a basis check finds nothing
    monkeypatch.setattr(sweeps, "gamma", lambda pt, p: frozenset({RootA(2, 3)}))
    r = good_sup_sweep(2, 3, box=3)
    holes = [f for f in r.failures if "upper ideal" in f]
    assert r.cases == len(holes) == 9
    assert all(f.endswith("is not an upper ideal: missing [(1, 3)]") for f in holes)
