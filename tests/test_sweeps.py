import random

import pytest

from alcove_cells import sweeps
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


@pytest.mark.parametrize("sweep", [reduction_sweep, mu_sweep])
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


def test_weak_order_sweep_small():
    r = weak_order_sweep(2, 3, index_bound=3)
    assert r.ok and r.cases > 0


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


def test_sampling_never_builds_the_box(monkeypatch):
    def refuse(*args):
        raise AssertionError("integral_points called while sampling")

    monkeypatch.setattr(sweeps, "integral_points", refuse)
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
    assert any("escapes gamma" in f for f in r.failures)
