from collections import deque
from dataclasses import FrozenInstanceError
from fractions import Fraction as Q
from itertools import product
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_cells import alcove
from alcove_cells.alcove import (
    AffineMap,
    Alcove,
    Between,
    Facette,
    Wall,
    _raise_step,
    _raising_graph,
    alcove_of,
    bottom_alcove,
    closure_contains,
    facette_of,
    interior_point,
    lower_closure_contains,
    lower_closure_contains_via_stabilizer,
    lower_walls,
    stabilizer_group,
    stabilizer_subroot_system,
    up_reachable,
    up_step_neighbors,
    upper_walls,
    weak_leq,
    weak_leq_oracle,
)
from alcove_cells.errors import PreconditionError, ResourceLimitError
from alcove_cells.rootsys import RootA, _located, positive_roots, shifted_point
from alcove_cells.sweeps import dominant_alcoves, facettes_meeting_box, weak_order_sweep


def _points(n, lo, hi):
    return [shifted_point(c) for c in product(range(lo, hi + 1), repeat=n)]


def test_wall_and_between_are_distinct():
    # regression: tuple-like equality here would merge distinct facettes
    assert Wall(1) != Between(1)
    assert len({Wall(1), Between(1)}) == 2


def test_alcove_of_known_values():
    assert alcove_of(shifted_point([6, 6]), 5).indices == (2, 3, 2)
    assert alcove_of(shifted_point([2, 2]), 5) == bottom_alcove(2, 5)
    assert alcove_of(shifted_point([Q(9, 2), Q(1, 2)]), 5).indices == (1, 2, 1)


def test_alcove_rejects_empty_region():
    with pytest.raises(PreconditionError):
        Alcove(2, 5, (1, 3, 1))


def test_alcove_rejects_non_integer_indices():
    # 1.9 used to be truncated to the realizable family (1, 2, 1)
    with pytest.raises(PreconditionError, match="integers"):
        Alcove(2, 5, (1.9, 2, 1))


def test_alcove_repr_and_constructor_messages():
    assert repr(Alcove(2, 5, (1, 1, 1))) == "Alcove(rank=2, p=5, indices=(1, 1, 1))"
    for idx, message in (
        ((1.9, 2, 1), "alcove indices must be integers, got (1.9, 2, 1)"),
        ((1, 2), "expected 3 indices for rank 2, got 2"),
        ((1, 3, 1), "index family (1, 3, 1) cuts out an empty region"),
    ):
        with pytest.raises(PreconditionError) as caught:
            Alcove(2, 5, idx)
        assert str(caught.value) == message


def test_equal_alcoves_hash_equal_and_differ_from_a_plain_facette():
    a = Alcove(2, 5, (2, 3, 2))
    b = alcove_of(shifted_point([6, 6]), 5)
    assert a == b and hash(a) == hash(b)
    assert a != Alcove(2, 3, (2, 3, 2))
    # the same codes as a plain facette: an alcove never equals one
    f = _located(Facette, rank=2, p=5, _codes=(3, 5, 3))
    assert a != f and f != a


def test_an_alcove_is_a_facette_that_stores_only_its_codes():
    lam = alcove_of(shifted_point([6, 6]), 5)
    made = [Alcove(2, 5, (2, 3, 2)), lam, *up_step_neighbors(lam), *dominant_alcoves(2, 5, 2)]
    for a in made:
        assert isinstance(a, Facette) and a.is_alcove()
        assert set(vars(a)) == {"rank", "p", "_codes"}
        assert a._codes == tuple(2 * v - 1 for v in a.indices)


def _floor_indices(pt, p):
    return tuple(int(pt.pairing(r) // p) + 1 for r in positive_roots(pt.rank))


def test_alcove_of_indices_are_the_pairing_floors_plus_one():
    for a in dominant_alcoves(3, 5, 4):
        pt = interior_point(a)
        assert alcove_of(pt, 5).indices == _floor_indices(pt, 5) == a.indices
    rng = Random(20)
    for _ in range(100):
        n, p = rng.randint(1, 4), rng.choice((2, 3, 5))
        coords = [Q(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(n)]
        coords[rng.randrange(n)] = -abs(coords[0]) - 1  # never dominant
        pt = shifted_point(coords)
        assert not pt.is_regular_dominant()
        assert alcove_of(pt, p).indices == _floor_indices(pt, p), (coords, p)


def test_facette_of_known_values():
    f = facette_of(shifted_point([Q(9, 2), Q(1, 2)]), 5)
    assert f.data == (Between(1), Wall(1), Between(1))
    assert f.wall_roots() == ((RootA(1, 3), 1),)
    st_vertex = facette_of(shifted_point([5, 5]), 5)
    assert st_vertex.data == (Wall(1), Wall(2), Wall(1))
    assert facette_of(shifted_point([6, 6]), 5).is_alcove()


def test_facette_rejects_empty_region():
    with pytest.raises(PreconditionError):
        # (1,2) pinned to 0 while (1,3) demands pairing > 5 with (2,3) < 5
        Alcove(2, 5, (0, 2, 1))
    with pytest.raises(PreconditionError):
        Facette(2, 5, (Wall(0), Wall(2), Between(1)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Alcove(2, 5, (1, Q(2), 1)),  # a non-int index
        lambda: Alcove(2, 5, (1, 2)),  # one index short
        lambda: Facette(2, 5, (Between(1), Wall(Q(1)), Between(1))),  # a non-int index
        lambda: Facette(2, 5, (Between(1), 1, Between(1))),  # not a datum
        lambda: Facette(2, 5, (Between(1), Between(1))),  # one datum short
    ],
)
def test_public_constructors_keep_their_checks(build):
    # alcove_of and facette_of skip these checks, and the realizability one
    # of the two tests above; the constructors must not
    with pytest.raises(PreconditionError):
        build()


def test_facettes_are_equal_exactly_when_their_data_are():
    fs = facettes_meeting_box(3, 3, 6)
    assert len(fs) == 293
    for f in fs:
        for g in fs:
            assert (f == g) == (f.data == g.data)
            if f == g:
                assert hash(f) == hash(g)
    assert len(set(fs)) == len(fs)


# all Wall(1) is empty beyond rank 1: (1,3) would pair to 2p, not p
@pytest.mark.parametrize("rank, m", [(1, 0), (1, 1), (3, 0)])
def test_a_wall_facette_differs_from_the_window_of_the_same_index(rank, m):
    # codes compare 2m with 2m - 1: the facettes must not merge in a set
    count = rank * (rank + 1) // 2
    walls = Facette(rank, 5, (Wall(m),) * count)
    windows = Facette(rank, 5, (Between(m),) * count)
    assert walls != windows
    assert len({walls, windows}) == 2


def test_a_facette_keeps_no_reference_to_its_callers_list():
    # a facette that read the caller's list after construction would change
    # its data, wall_roots and is_alcove under a mutation of that list, while
    # its equality and hash, which read the codes, stayed put
    family = (Between(1), Between(1), Between(1))
    lst = list(family)
    f = Facette(2, 3, lst)
    lst[0] = Wall(0)
    assert f.data == family == Facette(2, 3, family).data
    assert f.wall_roots() == () and f.is_alcove()
    assert f == Facette(2, 3, family) and f != Facette(2, 3, lst)


def test_facette_repr_prints_its_data():
    f = Facette(2, 3, (Between(1), Wall(1), Between(1)))
    assert repr(f) == (
        "Facette(rank=2, p=3, data=(Between(index=1), Wall(index=1), Between(index=1)))"
    )


@pytest.mark.parametrize("name, value", [("rank", 3), ("_codes", (1, 3, 1))])
def test_facette_fields_are_frozen(name, value):
    f = Facette(2, 3, (Between(1), Wall(1), Between(1)))
    with pytest.raises(FrozenInstanceError):
        setattr(f, name, value)


def test_wall_roots_and_is_alcove_read_the_data():
    fs = facettes_meeting_box(3, 3, 6)
    assert len(fs) == 293
    roots = positive_roots(3)
    for f in fs:
        walls = tuple((r, d.index) for r, d in zip(roots, f.data) if isinstance(d, Wall))
        assert f.wall_roots() == walls
        assert f.is_alcove() == all(isinstance(d, Between) for d in f.data)


def test_lower_closure_examples():
    c0 = bottom_alcove(2, 5)
    f66 = facette_of(shifted_point([6, 6]), 5)
    assert not lower_closure_contains(f66, shifted_point([5, 3]))
    assert lower_closure_contains(c0, shifted_point([0, 3]))
    assert lower_closure_contains(
        Alcove(2, 5, (1, 2, 1)), shifted_point([Q(9, 2), Q(1, 2)])
    )
    assert not lower_closure_contains(c0, shifted_point([5, 0]))


def test_closure_examples():
    c0 = bottom_alcove(2, 5)
    assert closure_contains(c0, shifted_point([0, 3]))
    assert closure_contains(c0, shifted_point([5, 0]))
    assert not closure_contains(c0, shifted_point([6, 0]))


def test_stabilizer_route_examples():
    c0 = bottom_alcove(2, 5)
    # bit j answers pts[j]; interior points have trivial stabilizer
    pts = [shifted_point([0, 3]), shifted_point([5, 0]), shifted_point([2, 2])]
    assert lower_closure_contains_via_stabilizer(c0, pts) == 0b101
    assert lower_closure_contains_via_stabilizer(c0, pts[::-1]) == 0b101
    assert lower_closure_contains_via_stabilizer(c0, pts[1:2]) == 0
    assert lower_closure_contains_via_stabilizer(c0, []) == 0


@pytest.mark.parametrize(
    "contains",
    [
        closure_contains,
        lower_closure_contains,
        lambda f, pt: lower_closure_contains_via_stabilizer(f, [pt]),
    ],
    ids=["closure_contains", "lower_closure_contains", "lower_closure_contains_via_stabilizer"],
)
def test_closure_predicates_refuse_a_point_of_another_rank(contains):
    # zip would pair a rank-3 point's first pairings with a rank-2 facette's
    # codes; the origin would pass both closures of the bottom alcove
    c0 = bottom_alcove(2, 5)
    plain = _located(Facette, rank=2, p=5, _codes=c0._codes)
    for f in (c0, plain, facette_of(shifted_point([5, 0]), 5)):
        for coords, rank in (([0, 0, 0], 3), ([0], 1)):
            with pytest.raises(PreconditionError) as caught:
                contains(f, shifted_point(coords))
            assert str(caught.value) == f"rank mismatch: point {rank}, facette 2"


def test_stabilizer_route_requires_closure_membership():
    # one point outside the closure refuses the whole row
    inside = shifted_point([0, 3])
    for pts in ([shifted_point([6, 6])], [inside, shifted_point([6, 6])]):
        with pytest.raises(PreconditionError):
            lower_closure_contains_via_stabilizer(bottom_alcove(2, 5), pts)


def test_interior_point_round_trip():
    for f in facettes_meeting_box(2, 3, 6):
        pt = interior_point(f)
        assert facette_of(pt, f.p) == f


def test_affine_map_identity_and_reflection():
    ident = AffineMap.identity(2)
    pt = shifted_point([3, 4])
    assert ident.apply(pt) == pt
    refl = AffineMap.reflection(2, RootA(1, 3), Q(5))
    on_wall = shifted_point([Q(9, 2), Q(1, 2)])
    assert refl.apply(on_wall) == on_wall
    moved = refl.apply(shifted_point([6, 6]))
    assert moved.pairing(RootA(1, 3)) == 10 - 12
    assert refl.compose(refl) == ident


@given(st.data())
@settings(max_examples=100)
def test_affine_map_compose_matches_apply(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    roots = positive_roots(n)

    def draw_map():
        r = data.draw(st.sampled_from(roots))
        v = data.draw(st.integers(min_value=-6, max_value=6))
        return AffineMap.reflection(n, r, Q(v))

    f, g = draw_map(), draw_map()
    coords = data.draw(
        st.lists(
            st.integers(min_value=-8, max_value=8), min_size=n, max_size=n
        )
    )
    pt = shifted_point(coords)
    assert f.compose(g).apply(pt) == f.apply(g.apply(pt))


def test_stabilizer_group_orders():
    assert len(stabilizer_group(shifted_point([6, 6]), 5)) == 1
    assert len(stabilizer_group(shifted_point([Q(9, 2), Q(1, 2)]), 5)) == 2
    assert len(stabilizer_group(shifted_point([5, 5]), 5)) == 6


def test_stabilizer_order_divides_weyl_order():
    for pt in _points(2, 0, 6):
        order = len(stabilizer_group(pt, 3))
        assert factorial(3) % order == 0


def test_stabilizer_subroot_system_known():
    assert stabilizer_subroot_system(shifted_point([5, 5]), 5) == frozenset(
        positive_roots(2)
    )
    assert stabilizer_subroot_system(shifted_point([6, 6]), 5) == frozenset()
    assert stabilizer_subroot_system(shifted_point([5, 3]), 5) == frozenset(
        {RootA(1, 2)}
    )


def test_walls_of_bottom_alcove():
    c0 = bottom_alcove(2, 5)
    assert upper_walls(c0) == frozenset({(RootA(1, 3), 1)})
    assert lower_walls(c0) == frozenset({(RootA(1, 2), 0), (RootA(2, 3), 0)})


def test_walls_of_second_alcove():
    a = Alcove(2, 5, (1, 2, 1))
    assert upper_walls(a) == frozenset({(RootA(1, 2), 1), (RootA(2, 3), 1)})
    assert lower_walls(a) == frozenset({(RootA(1, 3), 1)})


def test_wall_count_is_rank_plus_one():
    for a in dominant_alcoves(2, 5, 3):
        assert len(upper_walls(a)) + len(lower_walls(a)) == 3
    for a in dominant_alcoves(3, 3, 2):
        assert len(upper_walls(a)) + len(lower_walls(a)) == 4


def test_up_step_neighbors_of_bottom():
    c0 = bottom_alcove(2, 5)
    assert tuple(a.indices for a in up_step_neighbors(c0)) == ((1, 2, 1),)


def test_up_step_neighbors_raise_exactly_one_index():
    # adjacent alcoves share a codim-1 facet, so they differ in exactly
    # one index, by exactly +1
    for a in dominant_alcoves(2, 5, 3) + dominant_alcoves(3, 3, 2):
        for b in up_step_neighbors(a):
            deltas = [y - x for x, y in zip(a.indices, b.indices)]
            assert sorted(deltas) == [0] * (len(deltas) - 1) + [1]
        above = up_step_neighbors(a)
        assert up_reachable(a, above) == (1 << len(above)) - 1


def test_weak_leq_known_values():
    c_lam = Alcove(2, 5, (2, 3, 2))
    c_mu = Alcove(2, 5, (3, 4, 1))
    assert not weak_leq(c_lam, c_mu)
    assert not weak_leq(c_mu, c_lam)
    assert weak_leq(Alcove(2, 5, (1, 2, 1)), c_lam)
    for b in dominant_alcoves(2, 5, 3):
        assert weak_leq(bottom_alcove(2, 5), b)


def test_weak_leq_matches_oracle_small():
    alcoves = dominant_alcoves(2, 3, 3)
    for a in alcoves:
        row = weak_leq_oracle(a, alcoves)
        assert [bool(row >> j & 1) for j in range(len(alcoves))] == [
            weak_leq(a, b) for b in alcoves
        ]


def test_row_oracles_refuse_a_row_they_cannot_compare():
    # one alcove of another rank or p, or off the dominant chamber for the
    # weak order, refuses the whole row
    a = bottom_alcove(2, 3)
    row = dominant_alcoves(2, 3, 2)
    for bad in (bottom_alcove(2, 5), bottom_alcove(1, 3)):
        for oracle, name in ((weak_leq_oracle, "weak_leq_oracle"), (up_reachable, "up_reachable")):
            with pytest.raises(PreconditionError, match=f"{name} compares alcoves of equal rank"):
                oracle(a, row + [bad])
    below = Alcove(2, 3, (0, 1, 1))
    for source, targets in ((a, row + [below]), (below, row)):
        with pytest.raises(PreconditionError, match="defined on dominant alcoves only"):
            weak_leq_oracle(source, targets)
    assert up_reachable(below, [a]) == 1 and weak_leq_oracle(a, []) == 0


def test_bfs_depth_counts_separating_hyperplanes():
    # a shortest raising path from the bottom alcove crosses each of the
    # sum(m_alpha - 1) separating hyperplanes exactly once; pruning to
    # indices <= 3 cannot lengthen it since every step raises one index
    c0 = bottom_alcove(2, 5)
    targets = {a: sum(a.indices) - 3 for a in dominant_alcoves(2, 5, 3)}
    depth = {c0: 0}
    queue = deque([c0])
    while queue:
        cur = queue.popleft()
        for nxt in up_step_neighbors(cur):
            if nxt not in depth and all(v <= 3 for v in nxt.indices):
                depth[nxt] = depth[cur] + 1
                queue.append(nxt)
    for a, want in targets.items():
        assert depth[a] == want


def test_up_reachable_remark_pair():
    lam = alcove_of(shifted_point([6, 6]), 5)
    mu = alcove_of(shifted_point([14, 2]), 5)
    assert mu.indices == (3, 4, 1)
    assert up_reachable(lam, [mu, lam, mu]) == 0b111
    assert not weak_leq(lam, mu)
    assert up_reachable(lam, []) == 0


def test_up_reachable_extends_weak_order():
    alcoves = dominant_alcoves(2, 5, 3)
    for a in alcoves:
        above = [b for b in alcoves if weak_leq(a, b)]
        assert up_reachable(a, above) == (1 << len(above)) - 1


def test_up_reachable_at_rank_one_is_the_index_order():
    # at rank 1 the ceiling bound h < h(b) + R admits b itself with no slack
    alcoves = [Alcove(1, 5, (k,)) for k in range(-3, 4)]
    for a in alcoves:
        row = up_reachable(a, alcoves)
        assert [bool(row >> j & 1) for j in range(len(alcoves))] == [
            a.indices <= b.indices for b in alcoves
        ]


def test_raise_step_matches_geometric_reflection():
    for n, p in ((2, 5), (3, 3)):
        roots = positive_roots(n)
        for idx in product(range(-1, 3), repeat=len(roots)):
            try:
                a = Alcove(n, p, idx)
            except PreconditionError:
                continue
            pt = interior_point(_located(Facette, rank=n, p=p, _codes=a._codes))
            assert interior_point(a) == pt
            for pos, beta in enumerate(roots):
                refl = AffineMap.reflection(n, beta, Q(a.indices[pos] * p))
                image = alcove_of(refl.apply(pt), p)
                assert _raise_step(n, a._codes, pos) == image._codes


def test_oracle_bound_raises(monkeypatch):
    a = bottom_alcove(3, 3)
    b = alcove_of(shifted_point([5, 5, 5]), 3)
    assert b.indices == (2, 4, 6, 2, 4, 2)
    monkeypatch.setattr(alcove, "DEFAULT_BFS_BOUND", 2)
    with pytest.raises(ResourceLimitError):
        weak_leq_oracle(a, [b])


def test_up_reachable_bound_raises(monkeypatch):
    # the depth-first search from the bottom alcove holds 36 families in seen
    # when it meets b, so 36 is the least bound it finishes under; on a True
    # answer that count depends on the search order (a breadth-first search
    # held 93)
    a = bottom_alcove(3, 5)
    b = Alcove(3, 5, (1, 2, 3, 2, 3, 2))
    assert b in dominant_alcoves(3, 5, 4) and weak_leq(a, b)
    for bound in (1, 35):
        monkeypatch.setattr(alcove, "DEFAULT_BFS_BOUND", bound)
        with pytest.raises(ResourceLimitError, match=f"raising BFS exceeded bound {bound}"):
            up_reachable(a, [b])
    monkeypatch.setattr(alcove, "DEFAULT_BFS_BOUND", 36)
    assert up_reachable(a, [b]) == 1


def test_up_reachable_bound_on_a_false_answer(monkeypatch):
    # a False answer expands every family of the pruned region, whatever the
    # search order, so 440 is the least bound it finishes under in any order
    a = Alcove(3, 5, (1, 1, 4, 1, 3, 3))
    b = Alcove(3, 5, (1, 4, 4, 4, 4, 1))
    monkeypatch.setattr(alcove, "DEFAULT_BFS_BOUND", 439)
    with pytest.raises(ResourceLimitError, match="raising BFS exceeded bound 439"):
        up_reachable(a, [b])
    monkeypatch.setattr(alcove, "DEFAULT_BFS_BOUND", 440)
    assert up_reachable(a, [b]) == 0


def test_weak_leq_oracle_bound_raises(monkeypatch):
    # the search across upper walls from the bottom alcove holds 12 families
    # in seen when it meets b, the near stack's and the far stack's, so 12
    # is the least bound it finishes under
    a = bottom_alcove(3, 5)
    b = Alcove(3, 5, (1, 2, 3, 2, 3, 2))
    assert b in dominant_alcoves(3, 5, 4) and weak_leq(a, b)
    monkeypatch.setattr(alcove, "DEFAULT_BFS_BOUND", 11)
    with pytest.raises(ResourceLimitError, match="^weak-order BFS exceeded bound 11$"):
        weak_leq_oracle(a, [b])
    monkeypatch.setattr(alcove, "DEFAULT_BFS_BOUND", 12)
    assert weak_leq_oracle(a, [b]) == 1


def test_weak_order_sweep_raising_graph_size():
    # the sweep's 64 up_reachable calls, one per source and each pruned by
    # the largest of its targets' ceilings, intern 557 rank-3 families
    _raising_graph.cache_clear()
    assert weak_order_sweep(3, 5, 4).ok
    assert len(_raising_graph(3).families) == 557


@given(st.data())
@settings(max_examples=150)
def test_alcove_of_contains_its_point(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    p = data.draw(st.sampled_from([2, 3, 5]))
    coords = data.draw(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=12),
            min_size=n,
            max_size=n,
        )
    )
    pt = shifted_point(coords)
    a = alcove_of(pt, p)
    assert lower_closure_contains(a, pt)
    f = facette_of(pt, p)
    assert lower_closure_contains(f, pt)
    assert closure_contains(f, pt)
    if not stabilizer_subroot_system(pt, p):
        assert f.is_alcove()
        assert _located(Facette, rank=a.rank, p=a.p, _codes=a._codes) == f
