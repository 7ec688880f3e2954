"""The integer alcove kernel against the routes it replaced.

Realizability: the local split rule behind Alcove and Facette against
the Floyd-Warshall difference system over every family in fixed index
windows.  Point location: the integer-numerator forms of alcove_of,
facette_of, gamma, stabilizer_subroot_system and the closures against
the Fraction pairing formulas, on random rational points.  Stabilizers:
the class-permutation group against the Fraction closure of
stabilizer_group, and the integer cone test, one row per facette, against
the Fraction loop over AffineMap.apply.  Raising: up_reachable's
depth-first search on its interned raising graph, one row of targets per
source, against the BFS that recomputed every step and tested both bounds
for one pair, on dominant rows and on random rows off the dominant chamber,
and the floor bound it dropped against every family raised inside a
start's box.  Walls and up-steps: the split rule behind
upper_walls / lower_walls and the index transform behind up_step_neighbors
against a difference-system witness per root (with its order-2 stabilizer)
and the reflection of an interior point; the split-rule prune of
dominant_alcoves against the difference system on every prefix.  Chain
bases: the increasing-chain rule behind is_good_basis and
enumerate_good_bases, the next-pointer walk of chain_components and the
class sizes of d_partition against the pairwise bracket, union-find and
stabilizer-system routes they replaced; the set-partition walk
set_partitions_within behind s_partition_oracle_of and reduction_sweep
against the subset routes it replaced, and the explicit stack of
reduce_all against the recursion it replaced.  Box facettes, interior points and
lattice points: the split-rule generator behind facettes_meeting_box, its
box test on the gcd grid and the midpoint interior_point against the
Floyd-Warshall box search and the solver's feasibility and witness; the
closed-form facette_lattice_point against the coordinate-by-coordinate
lattice search (on window families, on every certificate leg's facette, and
on a facette whose integer bounds hold a positive cycle) and against the
Bellman-Ford longest paths it replaced (on random rational points).
The mu construction: the one integer loop of construct_mu against the
Fraction recursion over pt's alcove that it replaced.  Located families:
the alcoves and facettes of points and the walked families of
facettes_meeting_box and dominant_alcoves against the public constructors.
The family walk: _code_families against a brute-force filter of every
code tuple by _realizable.  The relation masks: _relation_masks against the
pairwise definition for any relation, asking it once per (root, row code,
distinct column value), and its three relations pair by pair against the
predicates they replace.  The closure masks, the lclosure sweep's closure
pairs, against closure_contains on every box facette and every facette next
to the box that misses it, at integral points and on batches that mix the
denominators 1, 2, 3 and 6.  The lower-closure masks, its direct route,
against lower_closure_contains on every (box facette, point) pair, on the
same points.  The weak masks, the weak-order sweep's index criterion,
against weak_leq on every pair of dominant alcoves in four windows, and
so are the rows of weak_leq_oracle, one search per source.
"""

import random
from collections import deque
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations, product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alcove_cells.alcove import (
    AffineMap,
    Alcove,
    Between,
    Facette,
    Wall,
    _class_permutations,
    _closing_order,
    _closure_masks,
    _code_families,
    _lower_closure_masks,
    _node_classes,
    _raise_step,
    _realizable,
    _relation_masks,
    _splits,
    _weak_masks,
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
from alcove_cells import cells, sweeps
from alcove_cells.cells import (
    comparable_pairs_of,
    d_partition,
    enumerate_good_bases,
    gamma,
    is_good_basis,
    positive_roots_of,
    reduce_all,
    reduce_step,
    s_partition,
    s_partition_oracle,
    set_partitions_within,
)
from alcove_cells.constraints import _base_system
from alcove_cells.errors import PreconditionError
from alcove_cells.partition import Partition, partition_of_basis, sup
from alcove_cells.rootsys import (
    RootA,
    ShiftedPoint,
    _located,
    chain_components,
    inverse_cartan_numerators,
    point_from_e,
    point_from_weight,
    positive_roots,
    root_leq,
    root_pairing,
    root_position,
    shifted_point,
)
from alcove_cells.support import construct_mu, facette_lattice_point, upper_bound_certificate
from alcove_cells.sweeps import (
    _box_windows,
    _meets_box,
    dominant_alcoves,
    facettes_meeting_box,
    good_sup_sweep,
    integral_points,
    reduction_sweep,
)

P = 2


def _accepts(cls, rank, data) -> bool:
    try:
        cls(rank, P, data)
    except PreconditionError:
        return False
    return True


def _options(lo, hi):
    return [Wall(m) for m in range(lo, hi + 1)] + [Between(m) for m in range(lo, hi + 1)]


def _bounds(d):
    """(low, high, open) of a datum's pairing interval, in units of p."""
    return (d.index, d.index, False) if isinstance(d, Wall) else (d.index - 1, d.index, True)


def _meets_sum(x, y, z) -> bool:
    """Whether the interval of z meets the sums of the intervals of x and y."""
    (xl, xh, xo), (yl, yh, yo), (zl, zh, zo) = _bounds(x), _bounds(y), _bounds(z)
    lo, hi, is_open = xl + yl, xh + yh, xo or yo
    if is_open and zo:
        return zl < hi and lo < zh
    if is_open:
        return lo < zl < hi
    if zo:
        return zl < lo < zh
    return zl == lo


def _families(rank, lo, hi, prune):
    """Every datum family over the window, or only those passing each split.

    With prune set, a split is checked by interval arithmetic as soon as its
    last root is assigned, so the walk visits only families that pass the
    local rule, formulated independently of the package.
    """
    count = len(positive_roots(rank))
    if not prune:
        yield from product(_options(lo, hi), repeat=count)
        return
    closing = [[] for _ in range(count)]
    for split in _splits(rank):
        closing[max(split)].append(split)
    chosen = []

    def walk(depth):
        if depth == count:
            yield tuple(chosen)
            return
        for d in _options(lo, hi):
            chosen.append(d)
            if all(_meets_sum(chosen[a], chosen[b], chosen[c]) for a, b, c in closing[depth]):
                yield from walk(depth + 1)
            chosen.pop()

    yield from walk(0)


@pytest.mark.parametrize(
    "rank, lo, hi, families, feasible",
    [(2, -2, 3, 1728, 162), (3, -1, 1, 46656, None), (3, 0, 2, 46656, None)],
)
def test_split_rule_matches_floyd_warshall_exhaustively(rank, lo, hi, families, feasible):
    seen = accepted = 0
    for data in _families(rank, lo, hi, prune=False):
        seen += 1
        rule = _accepts(Facette, rank, data)
        oracle = _base_system(rank, P, data).feasible()
        assert rule == oracle, data
        if all(isinstance(d, Between) for d in data):
            assert _accepts(Alcove, rank, tuple(d.index for d in data)) == oracle, data
        accepted += rule
    assert seen == families
    if feasible is not None:
        assert accepted == feasible


@pytest.mark.parametrize("rank, lo, hi, families", [(4, -1, 2, 12000), (5, 0, 1, 6492)])
def test_families_passing_the_split_rule_are_feasible(rank, lo, hi, families):
    seen = 0
    for data in _families(rank, lo, hi, prune=True):
        seen += 1
        assert _accepts(Facette, rank, data), data
        assert _base_system(rank, P, data).feasible(), data
    assert seen == families


# -- integer point location against the Fraction pairing formulas ----------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
points = st.lists(rationals, min_size=1, max_size=4).map(lambda cs: ShiftedPoint(tuple(cs)))
levels = st.integers(min_value=1, max_value=7)


@st.composite
def points_on_walls(draw):
    """(pt, p) with coordinates in (p/3)Z, so pt sits on many hyperplanes."""
    p = draw(st.integers(min_value=1, max_value=4))
    parts = st.tuples(st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3]))
    coords = draw(st.lists(parts, min_size=1, max_size=4))
    return ShiftedPoint(tuple(Q(k * p, d) for k, d in coords)), p


def _facette_by_fractions(pt, p):
    data = []
    for r in positive_roots(pt.rank):
        v = pt.pairing(r)
        data.append(Wall(int(v // p)) if v % p == 0 else Between(int(v // p) + 1))
    return tuple(data)


def _in_closure_by_fractions(data, pt, p, lower):
    for r, d in zip(positive_roots(pt.rank), data):
        v = pt.pairing(r)
        if isinstance(d, Wall):
            if v != d.index * p:
                return False
        else:
            below_top = v < d.index * p if lower else v <= d.index * p
            if not ((d.index - 1) * p <= v and below_top):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(pt=points, p=levels)
def test_point_location_matches_fraction_formulas(pt, p):
    roots = positive_roots(pt.rank)
    assert alcove_of(pt, p).indices == tuple(int(pt.pairing(r) // p) + 1 for r in roots)
    assert facette_of(pt, p).data == _facette_by_fractions(pt, p)
    assert stabilizer_subroot_system(pt, p) == frozenset(
        r for r in roots if pt.pairing(r) % p == 0
    )
    if pt.is_regular_dominant():
        assert gamma(pt, p) == frozenset(r for r in roots if pt.pairing(r) >= p)
    else:
        with pytest.raises(PreconditionError):
            gamma(pt, p)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=levels)
def test_closures_match_fraction_formulas(data, p):
    pt = data.draw(points)
    near = [c + data.draw(st.sampled_from([0, Q(1, 2), -Q(p, 3), p])) for c in pt.coords]
    f = facette_of(ShiftedPoint(tuple(near)), p)
    assert closure_contains(f, pt) == _in_closure_by_fractions(f.data, pt, p, lower=False)
    assert lower_closure_contains(f, pt) == _in_closure_by_fractions(f.data, pt, p, lower=True)
    a = alcove_of(ShiftedPoint(tuple(near)), p)
    windows = tuple(Between(v) for v in a.indices)
    assert closure_contains(a, pt) == _in_closure_by_fractions(windows, pt, p, lower=False)
    assert lower_closure_contains(a, pt) == _in_closure_by_fractions(windows, pt, p, lower=True)


@given(pt=points)
@example(pt=ShiftedPoint((Q(1, 2), Q(2, 3), Q(5, 12))))
@example(pt=ShiftedPoint((Q(1, 3), Q(0), Q(7, 4))))
@example(pt=ShiftedPoint((Q(5, 6), Q(-1, 4), Q(2))))
def test_pairings_keep_their_fraction_values(pt):
    prefix = [sum(pt.coords[:k], Q(0)) for k in range(pt.rank + 1)]
    for r in positive_roots(pt.rank):
        assert pt.pairing(r) == prefix[r.j - 1] - prefix[r.i - 1]
    assert pt.e_coords() == tuple(prefix[-1] - v for v in prefix)
    assert pt.is_integral() == all(c.denominator == 1 for c in pt.coords)
    assert pt.is_regular_dominant() == all(c > 0 for c in pt.coords)


# -- located alcoves and facettes against the checked constructors ---------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_located_families_match_the_checked_constructors_on_integral_windows(n, p):
    # the test below feeds the checked constructors the Fraction formulas on
    # random points; here they take the located family itself
    for pt in integral_points(n, 0, 2 * p):
        a, f = alcove_of(pt, p), facette_of(pt, p)
        checked_f = Facette(n, p, f.data)
        for located, checked in ((a, Alcove(n, p, a.indices)), (f, checked_f)):
            assert located == checked and hash(located) == hash(checked)
            assert vars(located) == vars(checked), (pt.coords, p)
        assert f.data == checked_f.data, (pt.coords, p)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(st.tuples(points, levels), points_on_walls()))
@example(case=(ShiftedPoint((Q(5, 2), Q(5, 3), Q(5, 6), Q(-5, 1))), 5))
def test_located_families_match_the_checked_constructors(case):
    """alcove_of and facette_of, built without the public checks, against
    the public constructors fed the Fraction formulas: equal, equally hashed,
    with the same fields (indices and _codes, or _codes), and facettes with
    the same decoded data."""
    pt, p = case
    indices = tuple(int(pt.pairing(r) // p) + 1 for r in positive_roots(pt.rank))
    f, checked_f = facette_of(pt, p), Facette(pt.rank, p, _facette_by_fractions(pt, p))
    for located, checked in ((alcove_of(pt, p), Alcove(pt.rank, p, indices)), (f, checked_f)):
        assert located == checked and hash(located) == hash(checked)
        assert vars(located) == vars(checked), (pt.coords, p)
    assert f.data == checked_f.data, (pt.coords, p)


def test_walked_families_match_the_checked_constructors():
    """facettes_meeting_box and dominant_alcoves locate the families that
    _code_families walks; the public constructors accept each one and build
    an equal, equally hashed object with the same fields and data.  The
    boxes include one coprime to p, (3, 3, 4)."""
    for n, p, hi in [(2, 3, 6), (3, 3, 4), (3, 5, 10), (4, 3, 6)]:
        for f in facettes_meeting_box(n, p, hi):
            checked = Facette(n, p, f.data)
            assert f == checked and hash(f) == hash(checked)
            assert vars(f) == vars(checked) and f.data == checked.data, (n, p, hi)
    for n, p, index_bound in [(2, 5, 3), (3, 3, 2), (3, 5, 4)]:
        for a in dominant_alcoves(n, p, index_bound):
            checked = Alcove(n, p, a.indices)
            assert a == checked and hash(a) == hash(checked)
            assert vars(a) == vars(checked), (n, p, index_bound)


# -- stabilizers: class permutations against the Fraction closure ---------


def _class_group(pt, p):
    """The class-permutation group as affine maps, each with the translation fixing pt."""
    e = pt.e_coords()
    perms = _class_permutations(_node_classes(pt, p))
    assert len(set(perms)) == len(perms)
    maps = set()
    for sigma in perms:
        inverse = [0] * len(sigma)
        for node, image in enumerate(sigma):
            inverse[image] = node
        trans = tuple(e[i] - e[inverse[i]] for i in range(len(sigma)))
        maps.add(AffineMap(pt.rank, tuple(image + 1 for image in sigma), trans))
    return maps


@pytest.mark.parametrize("rank", [2, 3])
def test_class_permutations_match_the_stabilizer_closure_on_a_box(rank):
    orders = set()
    for pt in integral_points(rank, 0, 6):
        group = stabilizer_group(pt, 3)
        assert _class_group(pt, 3) == group, pt.coords
        orders.add(len(group))
    # four prefix numerators among three residues mod 3 always share one
    assert orders == ({1, 2, 6} if rank == 2 else {2, 4, 6, 24})


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(st.tuples(points, levels), points_on_walls()))
def test_class_permutations_match_the_stabilizer_closure(case):
    pt, p = case
    assert _class_group(pt, p) == stabilizer_group(pt, p)


def _via_stabilizer_by_fractions(f, pt):
    """The stabilizer route as it ran on Fractions: apply every w to lam."""
    lam = interior_point(f)
    for w in stabilizer_group(pt, f.p):
        moved = w.apply(lam)
        diff = [a - b for a, b in zip(lam.coords, moved.coords)]
        for row in inverse_cartan_numerators(f.rank):
            if sum(c * d for c, d in zip(row, diff)) < 0:
                return False
    return True


@pytest.mark.parametrize("rank", [2, 3])
def test_stabilizer_route_matches_the_fraction_loop_on_the_lclosure_window(rank):
    # one row per facette, over the points of its closure in the box
    pts = integral_points(rank, 0, 6)
    answers = []
    for f in facettes_meeting_box(rank, 3, 6):
        row = [pt for pt in pts if closure_contains(f, pt)]
        fast = _bits(lower_closure_contains_via_stabilizer(f, row), len(row))
        assert fast == [_via_stabilizer_by_fractions(f, pt) for pt in row], f.data
        answers += fast
    assert True in answers and False in answers


def test_stabilizer_rows_read_each_point_apart():
    # a row mixes points whose classes differ; reusing the previous point's
    # classes or answer would move a bit
    f = bottom_alcove(3, 3)
    row = [pt for pt in integral_points(3, 0, 3) if closure_contains(f, pt)]
    fast = _bits(lower_closure_contains_via_stabilizer(f, row), len(row))
    assert fast == [_via_stabilizer_by_fractions(f, pt) for pt in row]
    assert len({_node_classes(pt, 3) for pt in row}) > 2 and len(set(fast)) == 2
    for j in range(len(row)):
        assert lower_closure_contains_via_stabilizer(f, row[j:]) == _pack(fast[j:])


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(st.tuples(points, levels), points_on_walls()),
    nudge=st.lists(st.sampled_from([0, Q(1, 997), -Q(1, 997)]), min_size=4, max_size=4),
)
def test_stabilizer_route_matches_the_fraction_loop(case, nudge):
    pt, p = case
    near = ShiftedPoint(tuple(c + d for c, d in zip(pt.coords, nudge)))
    f = facette_of(near, p)
    if closure_contains(f, pt):
        assert lower_closure_contains_via_stabilizer(f, [pt]) == _via_stabilizer_by_fractions(
            f, pt
        )


# -- raising reachability: memoized steps against the plain BFS -----------


def _up_reachable_plain(a, b):
    """up_reachable as it was, recomputing every step and both bounds on
    the indices that the code families decode to."""
    rank = a.rank
    if a._codes == b._codes:
        return True
    simple_pos = [root_position(rank)[RootA(k, k + 1)] for k in range(1, rank + 1)]
    numerators = inverse_cartan_numerators(rank)

    def floors_and_ceils(codes):
        idx = [(c + 1) // 2 for c in codes]
        lo = tuple(sum(c * (idx[sp] - 1) for c, sp in zip(row, simple_pos)) for row in numerators)
        hi = tuple(sum(c * idx[sp] for c, sp in zip(row, simple_pos)) for row in numerators)
        return lo, hi

    a_lo, _ = floors_and_ceils(a._codes)
    _, b_hi = floors_and_ceils(b._codes)
    seen = {a._codes}
    queue = deque([a._codes])
    while queue:
        cur = queue.popleft()
        for beta_pos in range(len(cur)):
            nxt = _raise_step(rank, cur, beta_pos)
            lo, hi = floors_and_ceils(nxt)
            if nxt in seen or not (
                all(h > al for h, al in zip(hi, a_lo)) and all(l < bh for l, bh in zip(lo, b_hi))
            ):
                continue
            if nxt == b._codes:
                return True
            seen.add(nxt)
            queue.append(nxt)
    return False


def test_up_reachable_matches_the_plain_bfs_on_every_pair():
    # one row per source over the whole window: the search pruned by the
    # largest ceiling of all the targets answers each pair as its own did
    alcoves = dominant_alcoves(2, 3, 4)
    answers = []
    for a in alcoves:
        fast = _bits(up_reachable(a, alcoves), len(alcoves))
        assert fast == [_up_reachable_plain(a, b) for b in alcoves], a.indices
        answers += fast
    assert set(answers) == {True, False}


def test_up_reachable_matches_the_plain_bfs_on_comparable_pairs():
    alcoves = dominant_alcoves(3, 5, 4)
    rows = [(a, [b for b in alcoves if weak_leq(a, b)]) for a in alcoves]
    assert sum(len(above) for _, above in rows) == 848
    for a, above in rows:
        fast = _bits(up_reachable(a, above), len(above))
        assert fast == [_up_reachable_plain(a, b) for b in above], a.indices


def test_up_reachable_matches_the_plain_bfs_off_the_dominant_chamber():
    # off the dominant chamber codes <= b's is not the raising order, so the
    # near/far split of the search only orders it; the answers must not move
    rng = random.Random(23)
    for rank, span, sources, width in ((2, 12, 120, 20), (3, 3, 60, 10)):

        def random_alcove():
            coords = [Q(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(rank)]
            return alcove_of(ShiftedPoint(coords), 3)

        rows = [(random_alcove(), [random_alcove() for _ in range(width)]) for _ in range(sources)]
        assert sum(not a.is_dominant() for a, _ in rows) > sources // 2
        answers = []
        for a, targets in rows:
            fast = _bits(up_reachable(a, targets), width)
            assert fast == [_up_reachable_plain(a, b) for b in targets], a.indices
            answers += fast
        assert set(answers) == {True, False}


def test_up_reachable_row_mixes_reached_and_unreached_targets():
    # the first target found must not end the search, and a target the
    # search cannot reach must neither stop it nor be reported
    a = Alcove(3, 5, (1, 2, 2, 1, 1, 1))
    targets = [
        Alcove(3, 5, (1, 1, 3, 1, 2, 2)),  # reached, though not weakly above a
        Alcove(3, 5, (1, 1, 2, 1, 2, 1)),
        a,
        bottom_alcove(3, 5),
        Alcove(3, 5, (1, 4, 4, 4, 4, 1)),
        Alcove(3, 5, (1, 1, 3, 1, 2, 2)),
    ]
    assert [_up_reachable_plain(a, b) for b in targets] == [True, False, True, False, True, True]
    assert up_reachable(a, targets) == 0b110101
    assert up_reachable(a, targets[1:2]) == 0 and up_reachable(a, []) == 0
    assert not weak_leq(a, targets[0])


def _ceilings_and_rows(rank):
    """A code family's ceilings h, the inverse-Cartan-weighted simple-root
    indices, and the row sums R, so that t_k lies strictly between h_k - R_k
    and h_k."""
    simple_pos = [root_position(rank)[RootA(k, k + 1)] for k in range(1, rank + 1)]
    numerators = inverse_cartan_numerators(rank)

    def ceilings(codes):
        idx = [(c + 1) // 2 for c in codes]
        return tuple(sum(c * idx[sp] for c, sp in zip(row, simple_pos)) for row in numerators)

    return ceilings, [sum(row) for row in numerators]


def _raised_within_box(a):
    """Every family one-step raises reach from a with ceilings h < h(a) + R."""
    rank = a.rank
    ceilings, rows = _ceilings_and_rows(rank)
    tops = [h + r for h, r in zip(ceilings(a._codes), rows)]
    seen = {a._codes}
    queue = deque([a._codes])
    while queue:
        cur = queue.popleft()
        for beta_pos in range(len(cur)):
            nxt = _raise_step(rank, cur, beta_pos)
            if nxt not in seen and all(h < t for h, t in zip(ceilings(nxt), tops)):
                seen.add(nxt)
                assert len(seen) < 10**5, "the raised families left every box"
                queue.append(nxt)
    return seen


def test_no_raised_family_falls_below_the_start_floor():
    # up_reachable tests no floor: raising never lowers t_k = (n+1)<x, omega_k>/p,
    # so every family raised from a keeps h_k > h_k(a) - R_k
    rng = random.Random(19)
    starts = dominant_alcoves(2, 3, 4) + dominant_alcoves(3, 5, 4)
    for rank in (2, 3):
        for _ in range(50):
            coords = [Q(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(rank)]
            starts.append(alcove_of(ShiftedPoint(coords), 3))
    assert sum(not a.is_dominant() for a in starts) > 50
    reached = 0
    for a in starts:
        ceilings, rows = _ceilings_and_rows(a.rank)
        floors = [h - r for h, r in zip(ceilings(a._codes), rows)]
        for codes in _raised_within_box(a):
            reached += 1
            assert all(h > f for h, f in zip(ceilings(codes), floors)), (a.indices, codes)
    assert reached > 10**4


# -- walls, up-steps and dominant alcoves against the Floyd-Warshall routes -


def _walls_by_witness(a, upper):
    """upper_walls / lower_walls as they were: a difference-system witness
    on each candidate facet, whose stabilizer must be the one reflection."""
    out = set()
    for pos, r in enumerate(positive_roots(a.rank)):
        m = a.indices[pos] if upper else a.indices[pos] - 1
        data = [Between(v) for v in a.indices]
        data[pos] = Wall(m)
        witness = _base_system(a.rank, a.p, data).witness()
        if witness is None:
            continue
        assert len(stabilizer_group(point_from_e(witness), a.p)) == 2, (a.indices, r)
        out.add((r, m))
    return frozenset(out)


def _up_steps_by_reflection(a):
    """up_step_neighbors as it was: reflect an interior point across each
    upper wall and locate its alcove."""
    x = interior_point(a)
    pos_of = root_position(a.rank)
    found = sorted(
        (pos_of[r], alcove_of(AffineMap.reflection(a.rank, r, m * a.p).apply(x), a.p).indices)
        for r, m in _walls_by_witness(a, True)
    )
    return tuple(idx for _, idx in found)


def _dominant_alcoves_by_floyd_warshall(n, p, index_bound):
    """dominant_alcoves as it was: every prefix pruned by the difference system."""
    count = len(positive_roots(n))
    out, chosen = [], []

    def walk(depth):
        if depth == count:
            out.append(tuple(chosen))
            return
        for idx in range(1, index_bound + 1):
            chosen.append(idx)
            if _base_system(n, p, [Between(v) for v in chosen]).feasible():
                walk(depth + 1)
            chosen.pop()

    walk(0)
    return out


@pytest.mark.parametrize("rank, lo, hi, count", [(2, -2, 3, 54), (3, -1, 3, 361), (4, 0, 2, 501)])
def test_walls_match_the_witness_route_on_every_alcove_of_a_window(rank, lo, hi, count):
    families = product(range(lo, hi + 1), repeat=len(positive_roots(rank)))
    alcoves = [Alcove(rank, P, idx) for idx in families if _accepts(Alcove, rank, idx)]
    assert len(alcoves) == count
    for a in alcoves:
        assert upper_walls(a) == _walls_by_witness(a, True), a.indices
        assert lower_walls(a) == _walls_by_witness(a, False), a.indices


DOMINANT_WINDOWS = [(2, 3, 6, 36), (3, 5, 5, 125), (4, 3, 3, 81)]


@pytest.mark.parametrize("n, p, index_bound, count", DOMINANT_WINDOWS)
def test_dominant_alcoves_match_the_floyd_warshall_prune(n, p, index_bound, count):
    fast = [a.indices for a in dominant_alcoves(n, p, index_bound)]
    assert len(fast) == count
    assert fast == _dominant_alcoves_by_floyd_warshall(n, p, index_bound)


@pytest.mark.parametrize("n, p, index_bound, count", DOMINANT_WINDOWS)
def test_up_steps_match_the_reflection_route(n, p, index_bound, count):
    alcoves = dominant_alcoves(n, p, index_bound)
    assert len(alcoves) == count
    for a in alcoves:
        fast = tuple(b.indices for b in up_step_neighbors(a))
        assert fast == _up_steps_by_reflection(a), a.indices


# -- chain bases: increasing root chains against the pairwise routes ------


def _chain_components_union_find(roots):
    """chain_components as it was: pairwise brackets, then union-find."""
    rs = list(roots)
    for a in range(len(rs)):
        for b in range(a + 1, len(rs)):
            if root_pairing(rs[a], rs[b]) not in (0, -1):
                return None
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in rs:
        parent.setdefault(r.i, r.i)
        parent.setdefault(r.j, r.j)
        parent[find(r.i)] = find(r.j)
    groups = {}
    for node in parent:
        groups.setdefault(find(node), set()).add(node)
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return tuple(comps)


def _is_good_basis_pairwise(roots):
    rs = tuple(roots)
    if _chain_components_union_find(rs) is None:
        return False
    return not any(root_leq(a, b) or root_leq(b, a) for a, b in combinations(rs, 2))


def _enumerate_good_bases_pairwise(scope):
    """enumerate_good_bases as it was: bracket and order test against every chosen root."""
    pool = sorted(set(scope))
    found = []

    def extend(start, chosen):
        found.append(frozenset(chosen))
        for k in range(start, len(pool)):
            r = pool[k]
            if all(
                root_pairing(c, r) in (0, -1) and not (root_leq(c, r) or root_leq(r, c))
                for c in chosen
            ):
                chosen.append(r)
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    found.sort(key=lambda b: (len(b), sorted(b)))
    return tuple(found)


def _subsets(roots):
    return [
        tuple(r for k, r in enumerate(roots) if mask >> k & 1) for mask in range(1 << len(roots))
    ]


def _upper_sets(n):
    """Every upward-closed set of positive roots: closed under (i, j) -> (i-1, j), (i, j+1)."""
    out = []
    for sub in _subsets(positive_roots(n)):
        s = set(sub)
        if all(
            (r.i == 1 or RootA(r.i - 1, r.j) in s) and (r.j == n + 1 or RootA(r.i, r.j + 1) in s)
            for r in s
        ):
            out.append(frozenset(s))
    return out


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_good_bases_match_the_pairwise_route_on_every_subset(rank):
    for sub in _subsets(positive_roots(rank)):
        assert is_good_basis(sub) == _is_good_basis_pairwise(sub), sub
        assert enumerate_good_bases(sub) == _enumerate_good_bases_pairwise(sub), sub


def test_good_bases_match_the_pairwise_route_on_every_upper_set_of_rank_five():
    uppers = _upper_sets(5)
    assert len(uppers) == 132  # Catalan(6): the upper sets are the antichains' closures
    for g in uppers:
        assert is_good_basis(g) == _is_good_basis_pairwise(g)
        bases = _enumerate_good_bases_pairwise(g)
        assert enumerate_good_bases(g) == bases, sorted(g)
        assert all(is_good_basis(b) for b in bases)


def test_chain_components_match_union_find_on_every_subset():
    answers = []
    for sub in _subsets(positive_roots(4)):
        expected = _chain_components_union_find(sub)
        assert chain_components(sub) == expected, sub
        assert chain_components(sub[::-1]) == expected, sub
        if sub:
            assert chain_components(sub + sub[:1]) is None
        answers.append(expected is None)
    assert True in answers and False in answers


def _d_partition_via_stabilizer(pt, p):
    """d_partition as it was: simple roots of the stabilizer system, then components."""
    system = stabilizer_subroot_system(pt, p)
    simple = [
        r
        for r in system
        if not any(
            RootA(r.i, k) in system and RootA(k, r.j) in system for k in range(r.i + 1, r.j)
        )
    ]
    comps = _chain_components_union_find(simple)
    assert comps is not None
    parts = sorted((len(c) for c in comps), reverse=True)
    return Partition(tuple(parts) + (1,) * (pt.rank + 1 - sum(parts)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_d_partition_matches_the_stabilizer_route_on_a_box(rank, p):
    seen = set()
    for pt in integral_points(rank, 0, 2 * p):
        d = d_partition(pt, p)
        assert d == _d_partition_via_stabilizer(pt, p), pt.coords
        seen.add(d)
    assert len(seen) > 1


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(st.tuples(points, levels), points_on_walls()))
def test_d_partition_matches_the_stabilizer_route(case):
    pt, p = case
    assert d_partition(pt, p) == _d_partition_via_stabilizer(pt, p)


# -- box facettes, interior points and lattice points against the routes ---
# -- they replaced: the Floyd-Warshall box search, the solver's witness and ---
# -- the coordinate-by-coordinate lattice search ----------------------------


def _facettes_meeting_box_by_floyd_warshall(n, p, hi):
    """facettes_meeting_box as it was: every prefix of a depth-first search
    in canonical root order pruned by the difference system with the box."""
    roots = positive_roots(n)
    out, chosen = [], []

    def candidates(r):
        top = hi * (r.j - r.i)
        opts = [Wall(m) for m in range(0, top // p + 1)]
        opts += [Between(idx) for idx in range(1, top // p + 2) if (idx - 1) * p < top]
        return opts

    def feasible_prefix():
        ds = _base_system(n, p, chosen)
        for k in range(n):
            ds.add_window(k, k + 1, 0, hi, strict=False)
        return ds.feasible()

    def walk(depth):
        if depth == len(roots):
            out.append(tuple(chosen))
            return
        for d in candidates(roots[depth]):
            chosen.append(d)
            if feasible_prefix():
                walk(depth + 1)
            chosen.pop()

    walk(0)
    return out


def _interior_point_by_witness(f):
    return point_from_e(_base_system(f.rank, f.p, f.data).witness())


def _boxes(p):
    return [-1, 0, 1, p - 1, p, 2 * p, 2 * p + 1]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_box_facettes_and_interior_points_match_the_floyd_warshall_routes(n, p):
    for hi in _boxes(p):
        fast = facettes_meeting_box(n, p, hi)
        assert [f.data for f in fast] == _facettes_meeting_box_by_floyd_warshall(n, p, hi), hi
        assert (len(fast) > 0) == (hi >= 0), hi
        for f in fast:
            assert interior_point(f) == _interior_point_by_witness(f), f.data


@pytest.mark.parametrize("n, p, hi, count", [(4, 3, 6, 3393), (4, 2, 3, 1870)])
def test_box_facettes_and_interior_points_match_at_rank_four(n, p, hi, count):
    fast = facettes_meeting_box(n, p, hi)
    assert len(fast) == count
    assert [f.data for f in fast] == _facettes_meeting_box_by_floyd_warshall(n, p, hi)
    for f in fast:
        assert interior_point(f) == _interior_point_by_witness(f), f.data


@pytest.mark.parametrize(
    "rank, lo, hi, count, p",
    [
        (2, -2, 3, 162, 2),
        (2, -2, 3, 162, 5),
        (3, -1, 1, 332, 2),
        (3, -1, 1, 332, 5),
        (3, 0, 2, 302, 3),
        (4, -1, 2, 12000, 2),
        (5, 0, 1, 6492, 5),
    ],
)
def test_interior_points_match_the_witness_on_the_realizability_windows(rank, lo, hi, count, p):
    families = list(_families(rank, lo, hi, prune=True))
    assert len(families) == count
    for data in families:
        f = Facette(rank, p, data)
        assert interior_point(f) == _interior_point_by_witness(f), data
    interior_point.cache_clear()


def _cell_meets(d, top):
    """Whether the pairing interval of d meets [0, top], in units of p."""
    lo, hi, is_open = _bounds(d)
    return lo < top and hi > 0 if is_open else 0 <= lo <= top


def _codes_of(data):
    return tuple(2 * d.index - isinstance(d, Between) for d in data)


@pytest.mark.parametrize(
    "rank, p, hi", [(2, 3, 4), (2, 5, 7), (2, 4, 6), (2, 5, 2), (3, 3, 4), (3, 5, 7), (3, 4, 6)]
)
def test_box_test_matches_the_solver_on_straddling_facettes(rank, p, hi):
    """Every realizable family in a window around the box: both answers occur.
    From rank 3 on, so do families whose every datum meets [0, span * hi]
    while the facette misses the box, which only the box test rejects."""
    answers, straddling = set(), 0
    for data in _families(rank, -1, 2 * hi // p + 2, prune=True):
        ds = _base_system(rank, p, data)
        for k in range(rank):
            ds.add_window(k, k + 1, 0, hi, strict=False)
        meets = _meets_box(rank, p, hi, _codes_of(data))
        assert meets == ds.feasible(), data
        answers.add(meets)
        spans = zip(positive_roots(rank), data)
        near = all(_cell_meets(d, Q(hi * (r.j - r.i), p)) for r, d in spans)
        straddling += near and not meets
    assert answers == {True, False}
    assert (straddling > 0) == (rank > 2)


# the lclosure sweep's windows: n <= 3 at p in {2, 3, 5}, each at box 2p and
# at a box coprime to p, one rank-4 window, and windows at p = 1, where no
# window of a root holds an integer
CLOSURE_WINDOWS = [
    (n, p, hi)
    for n in (1, 2, 3)
    for p, coprime in ((2, 3), (3, 4), (5, 7))
    for hi in (2 * p, coprime)
] + [(4, 3, 3), (1, 1, 2), (2, 1, 3), (3, 1, 2)]


@lru_cache(maxsize=None)
def _box_facettes(n, p, hi):
    return tuple(facettes_meeting_box(n, p, hi))


@lru_cache(maxsize=None)
def _widened_facettes(n, p, hi):
    """The families within the box's code windows widened by one code on each
    side: every facette whose closure holds a point of the box, whether it
    meets the box or not, since a closure holding a point of code d has code
    d - 1, d or d + 1 on each root."""
    wide = [range(w.start - 1, w.stop + 1) for w in _box_windows(n, p, hi)]
    return tuple(_located(Facette, rank=n, p=p, _codes=c) for c in _code_families(n, wide))


def _bits(mask, size):
    assert mask >> size == 0
    return [bool(mask >> j & 1) for j in range(size)]


def _pack(answers):
    """The bitmask whose bit j is answers[j]."""
    return sum(1 << j for j, answer in enumerate(answers) if answer)


def _assert_closure_masks_match_closure_contains(facettes, pts, p):
    """_closure_masks on the points' facette codes against closure_contains
    on every pair; every point lies in the closure of its own facette."""
    masks = _closure_masks(facettes, [facette_of(pt, p)._codes for pt in pts])
    assert len(masks) == len(facettes)
    for f, mask in zip(facettes, masks):
        assert _bits(mask, len(pts)) == [closure_contains(f, pt) for pt in pts], f.data
    mask_of = dict(zip(facettes, masks))
    assert all(mask_of[facette_of(pt, p)] >> j & 1 for j, pt in enumerate(pts))
    return mask_of


@pytest.mark.parametrize("n, p, hi", CLOSURE_WINDOWS)
def test_closure_masks_match_closure_contains_on_integral_windows(n, p, hi):
    """The closure pairs the lclosure sweep reads, on the box facettes and on
    the facettes next to the box that miss it."""
    rows = _widened_facettes(n, p, hi)
    mask_of = _assert_closure_masks_match_closure_contains(rows, integral_points(n, 0, hi), p)
    box = set(_box_facettes(n, p, hi))
    assert box <= set(rows)
    inside = sum(mask_of[f].bit_count() for f in box)
    total = sum(mask.bit_count() for mask in mask_of.values())
    assert inside > 0
    if (n, p, hi) == (3, 3, 6):
        # the sweep's 2579 closure pairs, and 2050 with facettes off the box
        assert (total, total - inside) == (4629, 2050)


def _draw_window_point(draw, n, p, hi, dens):
    """A point of the box [0, hi]^n whose coordinates share a denominator
    drawn from dens, half of them in (p / den)Z, so on many hyperplanes."""
    den = draw(st.sampled_from(dens))
    unit = p if draw(st.booleans()) else 1
    steps = st.integers(min_value=0, max_value=hi * den // unit)
    return ShiftedPoint(tuple(Q(unit * draw(steps), den) for _ in range(n)))


@st.composite
def point_batches_in_closure_windows(draw):
    """(window, pts): one to eight points of the window's box, each with its
    own denominator 1, 2, 3 or 6, drawn with half of its coordinates'
    numerators multiples of p, so on many hyperplanes."""
    n, p, hi = draw(st.sampled_from(CLOSURE_WINDOWS))
    size = draw(st.integers(min_value=1, max_value=8))
    return (n, p, hi), [_draw_window_point(draw, n, p, hi, [1, 2, 3, 6]) for _ in range(size)]


@settings(max_examples=200, deadline=None)
@given(case=point_batches_in_closure_windows())
@example(case=((3, 3, 6), [ShiftedPoint((Q(3, 2), Q(3, 2), Q(3)))]))
@example(case=((3, 5, 7), [ShiftedPoint((Q(5, 3), Q(10, 3), Q(5, 6)))]))
def test_closure_masks_match_closure_contains_on_mixed_denominators(case):
    """The code rule |d - c| <= c & 1 holds at any denominator, on the box
    facettes and off the box."""
    (n, p, hi), pts = case
    _assert_closure_masks_match_closure_contains(_widened_facettes(n, p, hi), pts, p)


def _assert_masks_match_lower_closure_contains(facettes, pts):
    masks = _lower_closure_masks(facettes, pts)
    assert len(masks) == len(facettes)
    for f, mask in zip(facettes, masks):
        assert _bits(mask, len(pts)) == [lower_closure_contains(f, pt) for pt in pts], f.data
    return masks


@pytest.mark.parametrize("n, p, hi", CLOSURE_WINDOWS)
def test_lower_closure_masks_match_lower_closure_contains_on_integral_windows(n, p, hi):
    box, pts = _box_facettes(n, p, hi), integral_points(n, 0, hi)
    masks = _assert_masks_match_lower_closure_contains(box, pts)
    # every point lies in the lower closure of its own facette
    mask_of = dict(zip(box, masks))
    assert all(mask_of[facette_of(pt, p)] >> j & 1 for j, pt in enumerate(pts))


@settings(max_examples=200, deadline=None)
@given(case=point_batches_in_closure_windows())
@example(
    case=((3, 3, 6), [
        ShiftedPoint((Q(3, 2), Q(3, 2), Q(3))),
        ShiftedPoint((3, 0, 3)),
        ShiftedPoint((Q(1), Q(2, 3), Q(7, 3))),
        ShiftedPoint((Q(1, 2), Q(5, 6), Q(2, 3))),
    ])
)
def test_lower_closure_masks_match_lower_closure_contains_on_mixed_denominators(case):
    """One call over points of denominators 1, 2, 3 and 6, each point's bit
    read at its own step den * p, compared on every box facette."""
    (n, p, hi), pts = case
    _assert_masks_match_lower_closure_contains(_box_facettes(n, p, hi), pts)


def test_lower_closure_masks_refuse_mixed_ranks_and_levels():
    box = list(_box_facettes(2, 3, 6))
    pt = shifted_point([1, 1])
    assert _lower_closure_masks([], [pt]) == []
    for facettes, pts in (
        (box, [pt, shifted_point([1, 1, 1])]),
        (box + [facette_of(pt, 5)], [pt]),
        (box + [facette_of(shifted_point([1]), 3)], [pt]),
    ):
        with pytest.raises(PreconditionError):
            _lower_closure_masks(facettes, pts)


@pytest.mark.parametrize(
    "n, p, index_bound, ordered",
    [(1, 2, 5, 15), (2, 3, 4, 90), (3, 5, 4, 848), (4, 3, 3, 1254)],
)
def test_weak_masks_match_weak_leq(n, p, index_bound, ordered):
    alcoves = dominant_alcoves(n, p, index_bound)
    masks = _weak_masks(alcoves)
    assert len(masks) == len(alcoves)
    for a, mask in zip(alcoves, masks):
        assert _bits(mask, len(alcoves)) == [weak_leq(a, b) for b in alcoves], a.indices
    # at (3, 5, 4) the weak-order sweep's 848 up_reachable calls
    assert sum(mask.bit_count() for mask in masks) == ordered


@pytest.mark.parametrize("n, p, index_bound", [(1, 2, 5), (2, 3, 4), (3, 5, 4), (4, 3, 3)])
def test_weak_rows_match_weak_leq(n, p, index_bound):
    # one search per source, over the whole window and over a reversed
    # window with a repeat, answers each pair as weak_leq does
    alcoves = dominant_alcoves(n, p, index_bound)
    shuffled = alcoves[::-1] + alcoves[:1]
    for a in alcoves:
        for row in (alcoves, shuffled):
            fast = _bits(weak_leq_oracle(a, row), len(row))
            assert fast == [weak_leq(a, b) for b in row], a.indices


def test_weak_masks_refuse_what_weak_leq_refuses():
    alcoves = dominant_alcoves(2, 3, 3)
    assert _weak_masks([]) == []
    for bad in (Alcove(2, 3, (0, 1, 1)), Alcove(2, 5, (1, 1, 1)), Alcove(1, 3, (1,))):
        with pytest.raises(PreconditionError):
            _weak_masks(alcoves + [bad])


@settings(max_examples=100, deadline=None)
@given(
    roots=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_relation_masks_match_the_pairwise_definition(roots, data):
    """Any relation, on any rows and columns: bit j of row k is the AND over
    roots, and related is asked once per (root, row code, distinct value)."""
    codes = st.lists(st.integers(-3, 3), min_size=roots, max_size=roots).map(tuple)
    rows = data.draw(st.lists(codes, max_size=6))
    columns = data.draw(st.lists(codes, max_size=9))
    asked = []

    def rule(c, v):
        return (c * v + c) % 3 != 1

    def related(c, v):
        asked.append((c, v))
        return rule(c, v)

    masks = _relation_masks(rows, columns, related)
    assert len(masks) == len(rows)
    for row, mask in zip(rows, masks):
        expected = [all(map(rule, row, col)) for col in columns]
        assert _bits(mask, len(columns)) == expected
    distinct = [len(set(values)) for values in zip(*columns)]
    row_codes = [len({row[pos] for row in rows}) for pos in range(len(distinct))]
    assert len(asked) == sum(map(mul, row_codes, distinct))


def _facette_lattice_point_by_search(f):
    """facette_lattice_point as it was: depth-first over the fundamental
    coordinates, each in the integers its simple-root datum allows, checking
    every root whose interval closes at the current depth."""
    rank, p = f.rank, f.p
    pos_of = root_position(rank)
    ranges = []
    for k in range(1, rank + 1):
        d = f.data[pos_of[RootA(k, k + 1)]]
        if isinstance(d, Wall):
            ranges.append(range(d.index * p, d.index * p + 1))
        else:
            ranges.append(range((d.index - 1) * p + 1, d.index * p))
    by_depth = [[] for _ in range(rank)]
    for r in positive_roots(rank):
        if r.j - r.i > 1:
            by_depth[r.j - 2].append((r.i, f.data[pos_of[r]]))
    prefix = [0] * (rank + 1)

    def admissible(depth):
        for i, d in by_depth[depth]:
            v = prefix[depth + 1] - prefix[i - 1]
            if isinstance(d, Wall):
                if v != d.index * p:
                    return False
            elif not (d.index - 1) * p < v < d.index * p:
                return False
        return True

    def search(depth):
        if depth == rank:
            return tuple(prefix[k + 1] - prefix[k] for k in range(rank))
        for v in ranges[depth]:
            prefix[depth + 1] = prefix[depth] + v
            if admissible(depth):
                hit = search(depth + 1)
                if hit is not None:
                    return hit
        return None

    coords = search(0)
    return None if coords is None else ShiftedPoint(tuple(Q(c) for c in coords))


def _facette_lattice_point_by_longest_paths(f):
    """facette_lattice_point as it was: the least integer solution of the
    facette's difference bounds lo <= X_b - X_a <= hi on the prefix sums, by
    Bellman-Ford longest paths from node 0, with an edge a -> b of weight lo
    and an edge b -> a of weight -hi per root; an empty window or a positive
    cycle (a round within n + 1 still moving a weight) leaves none."""
    p, n = f.p, f.rank
    x = [0] * (n + 1)
    edges = []
    for (i, j), c in zip(positive_roots(n), f._codes):
        w = c & 1
        lo, hi = (c - w) * p // 2 + w, (c + w) * p // 2 - w
        if lo > hi:
            return None
        if i == 1:
            x[j - 1] = lo
        edges += ((i - 1, j - 1, lo), (j - 1, i - 1, -hi))
    for _ in range(n + 1):
        moved = False
        for a, b, w in edges:
            if x[a] + w > x[b]:
                x[b] = x[a] + w
                moved = True
        if not moved:
            return ShiftedPoint(tuple(v - u for u, v in zip(x, x[1:])))
    return None


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_closed_form_lattice_points_match_longest_paths_on_random_rational_points(seed):
    """The facettes of 400 seeded random rational points: ranks 1-5, p 1-8,
    denominators 1, 2, 3, 6 and 12, coordinates of either sign, so many lie
    off the dominant chamber.  The closed form must equal the Bellman-Ford
    least solution, and the coordinate search too where it is cheap; both
    facettes with and without an integral point must occur."""
    rng = random.Random(seed)
    found = missing = 0
    for _ in range(400):
        rank, p, den = rng.randint(1, 5), rng.randint(1, 8), rng.choice((1, 2, 3, 6, 12))
        coords = [Q(rng.randint(-3 * p * den, 3 * p * den), den) for _ in range(rank)]
        f = facette_of(shifted_point(coords), p)
        fast = facette_lattice_point(f)
        assert fast == _facette_lattice_point_by_longest_paths(f), (coords, p)
        if rank <= 3:
            assert fast == _facette_lattice_point_by_search(f), (coords, p)
        if fast is not None:
            assert fast.is_integral() and facette_of(fast, p) == f
        found += fast is not None
        missing += fast is None
    assert found > 0 and missing > 0


def _lattice_points_against_the_search(facettes):
    """(found, missing): facettes with and without a lattice point, after
    checking facette_lattice_point against the search on each."""
    found = missing = 0
    for f in facettes:
        fast = facette_lattice_point(f)
        assert fast == _facette_lattice_point_by_search(f), f
        found += fast is not None
        missing += fast is None
    return found, missing


@pytest.mark.parametrize("rank, lo, hi", [(2, -2, 3), (3, -1, 2), (4, 0, 1)])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_lattice_points_match_the_coordinate_search(rank, lo, hi, p):
    """Every realizable family of the window; at p = 1 no window holds an
    integer, and at p = 2 each holds one."""
    families = (Facette(rank, p, data) for data in _families(rank, lo, hi, prune=True))
    found, missing = _lattice_points_against_the_search(families)
    assert found > 0 and (missing > 0) == (p < rank + 1)


def _certificate_inputs():
    for n, p in ((2, 5), (3, 4), (3, 5)):
        for pt in integral_points(n, 1, p + 1):
            yield pt, p
    rng = random.Random(16)
    for _ in range(50):
        yield point_from_weight(tuple(rng.randint(0, 14) for _ in range(4))), 5


def test_lattice_points_match_the_coordinate_search_on_certificate_legs():
    """The facette of every leg's mu, as upper_bound_certificate locates it
    before it takes the lattice point mu' there."""
    facettes = [
        facette_of(leg.mu, p)
        for pt, p in _certificate_inputs()
        for leg in upper_bound_certificate(pt, p).legs
    ]
    assert len(facettes) == 3784
    assert _lattice_points_against_the_search(facettes) == (3784, 0)


def test_lattice_point_misses_a_facette_whose_integer_bounds_hold_a_positive_cycle():
    """Rank 3, p = 3, every pairing in the window (-3, 0).  Each window holds
    the integers -2 and -1, and the point with coordinates -3/4 lies in the
    facette, but integers fail: x_1 + x_2 >= -2 and x_2 + x_3 >= -2 force
    every x_k = -1, and then x_1 + x_2 + x_3 = -3."""
    f = Facette(3, 3, [Between(0)] * 6)
    assert facette_of(shifted_point([Q(-3, 4)] * 3), 3) == f
    assert _lattice_points_against_the_search([f]) == (0, 1)


# -- all chain bases: the set-partition walk against the subset routes ----


def _walked_bases(g, n):
    """The bases of set_partitions_within(g, n): consecutive nodes of each block."""
    return [
        frozenset(RootA(u, v) for block in blocks for u, v in zip(block, block[1:]))
        for blocks in set_partitions_within(g, n)
    ]


def _assert_walk_matches_the_subset_route(g, n):
    """The walk lists each chain basis of g whose system lies inside g once."""
    bases = _walked_bases(g, n)
    want = [b for b in _chain_bases_by_combinations(g) if positive_roots_of(b) <= g]
    assert len(bases) == len(set(bases)) == len(want), sorted(g)
    assert set(bases) == set(want), sorted(g)
    return bases


def _chain_bases_by_combinations(g):
    """The sweeps' chain-basis route as it was: every subset of g, smallest
    first, kept when chain_components accepts it."""
    pool = sorted(g)
    return tuple(
        frozenset(combo)
        for size in range(len(pool) + 1)
        for combo in combinations(pool, size)
        if chain_components(combo) is not None
    )


def _s_by_mask_tables(g, n):
    """s_partition_oracle as it was: every subset of gamma as a bitmask over
    all positive roots, kept when it is a chain basis whose closure mask
    lies inside gamma's mask."""
    roots = positive_roots(n)
    pos_of = root_position(n)
    gmask = sum(1 << pos_of[r] for r in g)
    seen = set()
    sub = gmask
    while True:
        subset = tuple(roots[k] for k in range(len(roots)) if sub >> k & 1)
        if chain_components(subset) is not None:
            closure = sum(1 << pos_of[r] for r in positive_roots_of(subset))
            if closure & ~gmask == 0:
                seen.add(partition_of_basis(subset, n))
        if sub == 0:
            break
        sub = (sub - 1) & gmask
    return sup(list(seen))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_chain_bases_match_the_subset_route_on_every_subset(rank):
    subsets = _subsets(positive_roots(rank))
    for sub in subsets:
        _assert_walk_matches_the_subset_route(frozenset(sub), rank)
    assert len(subsets) == (2, 8, 64, 1024)[rank - 1]


def test_chain_bases_match_the_subset_route_on_every_upper_set_of_rank_five():
    uppers = _upper_sets(5)
    assert len(uppers) == 132
    for g in uppers:
        bases = _assert_walk_matches_the_subset_route(g, 5)
        assert set(enumerate_good_bases(g)) <= set(bases)


@pytest.mark.parametrize("n, bell", [(1, 2), (2, 5), (3, 15), (4, 52), (5, 203), (6, 877)])
def test_all_chain_bases_of_a_rank_are_the_set_partitions(n, bell):
    bases = _walked_bases(positive_roots(n), n)
    assert len(bases) == len(set(bases)) == bell
    assert all(chain_components(tuple(b)) is not None for b in bases)


def _reduce_all_by_recursion(basis, n):
    """reduce_all as it was: a recursive walk, first comparable pair first."""
    leaves, seen = [], set()

    def walk(b):
        pairs = comparable_pairs_of(b)
        if not pairs:
            if b not in seen:
                seen.add(b)
                leaves.append(b)
            return
        for out in reduce_step(b, pairs[0], n):
            walk(out)

    walk(frozenset(basis))
    return tuple(leaves)


@pytest.mark.parametrize("n, bad", [(4, 10), (5, 71)])
def test_reduce_all_matches_the_recursion_on_every_non_good_chain_basis(n, bad):
    bases = [b for b in _walked_bases(positive_roots(n), n) if not is_good_basis(b)]
    assert len(bases) == bad
    for basis in bases:
        assert reduce_all(basis, n) == _reduce_all_by_recursion(basis, n), sorted(basis)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_oracle_matches_the_mask_tables_on_every_subset(rank, monkeypatch):
    """Subsets that are not upward closed make the oracle's filter bite:
    a basis made of roots of g whose system leaves g must not count."""
    pt = shifted_point((1,) * rank)
    filtered = 0
    for sub in _subsets(positive_roots(rank)):
        g = frozenset(sub)
        monkeypatch.setattr(cells, "gamma", lambda pt, p: g)
        assert s_partition_oracle(pt, 1) == _s_by_mask_tables(g, rank), sub
        filtered += any(not positive_roots_of(b) <= g for b in _chain_bases_by_combinations(g))
    assert (filtered > 0) == (rank > 1)


@pytest.mark.parametrize("n, p", [(2, 3), (2, 5), (3, 3), (3, 5)])
def test_oracle_matches_the_mask_tables_on_the_criterion_four_windows(n, p):
    values = set()
    for pt in integral_points(n, 1, 2 * p):
        s = s_partition_oracle(pt, p)
        assert s == _s_by_mask_tables(gamma(pt, p), n), pt.coords
        values.add(s)
    assert len(values) > 2


@pytest.mark.parametrize("n, p", [(6, 3), (6, 7)])
def test_good_sup_sweep_runs_past_rank_five(n, p):
    r = good_sup_sweep(n, p, box=2)
    assert r.ok and r.cases == 64


@pytest.mark.parametrize("n, p, box, cases", [(4, 5, 10, 11), (6, 3, 2, 89), (6, 7, 3, 11)])
def test_reduction_sweep_case_counts(n, p, box, cases):
    r = reduction_sweep(n, p, box=box)
    assert r.ok and r.cases == cases


def test_gamma_check_runs_for_every_distinct_gamma(monkeypatch):
    """A gamma missing (1,3) beside (1,2) is no upper ideal; the first
    point's gamma has no such hole, so only a check made for every distinct
    gamma sees it, and it fails once per holed point.  The oracle runs on the
    sweep's gamma, so s_partition, which reads the true one, may also differ
    from it there; those points fail once more, as the subset route says."""
    n, p, hi = 3, 3, 6

    def holed(pt, p):
        g = gamma(pt, p)
        return g - {RootA(1, 3)} if {RootA(1, 2), RootA(2, 3)} <= g else g

    pts = integral_points(n, 1, hi)
    holes = sum(holed(pt, p) != gamma(pt, p) for pt in pts)
    mismatches = sum(s_partition(pt, p) != _s_by_mask_tables(holed(pt, p), n) for pt in pts)
    assert holed(pts[0], p) == gamma(pts[0], p) and holes == 96
    monkeypatch.setattr(sweeps, "gamma", holed)
    r = good_sup_sweep(n, p, box=hi)
    assert r.failed == holes + mismatches
    assert all(
        f.startswith("s mismatch") or f.endswith("not an upper ideal: missing [(1, 3)]")
        for f in r.failures[:-1]
    )


# -- the integer mu loop against the Fraction recursion ----------------------


def _mu_by_fraction_recursion(pt, basis, p):
    """construct_mu's coordinates as the Fraction recursion computed them.

    Peels the root with the smallest left end, solves the rest, then fixes
    the peeled coordinate so the peeled root's pairing is exactly p and
    sets the flat prefix to half its largest feasible bound; the windows
    are read from pt's alcove.
    """
    n = pt.rank
    lam = alcove_of(pt, p)
    pos = root_position(n)

    def rec(roots):
        if not roots:
            return [Q(1, n)] * n
        i1, j1 = roots[0]
        a = rec(roots[1:])
        a[i1 - 1] = p - sum(a[k - 1] for k in range(i1 + 1, j1))
        if i1 == 1:
            return a
        partial = sum(a[k - 1] for k in range(i1, j1 - 1))
        bounds = [Q(p - partial, i1 - 1)]
        for j in range(j1, n + 2):
            window = 1 if j == j1 else lam.indices[pos[RootA(j1, j)]]
            tail = sum(a[k - 1] for k in range(j1, j))
            bounds.append(Q(window * p - tail, i1 - 1))
        flat = min(bounds) / 2
        for k in range(i1 - 1):
            a[k] = flat
        return a

    return tuple(rec(sorted(basis)))


def _assert_mu_matches_the_recursion(pt, p):
    built = construct_mu(pt, alcove_of(pt, p))
    assert len(built) == len(enumerate_good_bases(gamma(pt, p)))
    for basis, mu, _, _ in built:
        want = _mu_by_fraction_recursion(pt, basis, p)
        assert mu.coords == want, (pt.coords, sorted(basis))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_integer_mu_matches_the_fraction_recursion_on_integral_windows(n, p):
    for pt in integral_points(n, 1, 2 * p):
        _assert_mu_matches_the_recursion(pt, p)


@st.composite
def rational_points(draw):
    """(pt, p): up to six coordinates k/d in (0, 2p] with mixed d up to 12."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    coord = st.integers(1, 12).flatmap(lambda d: st.integers(1, 2 * p * d).map(lambda k: Q(k, d)))
    return ShiftedPoint(tuple(draw(st.lists(coord, min_size=1, max_size=6)))), p


@settings(max_examples=300, deadline=None)
@given(case=rational_points())
def test_integer_mu_matches_the_fraction_recursion_on_rational_points(case):
    _assert_mu_matches_the_recursion(*case)


# -- the family walk against a brute-force filter -----------------------------


def _families_by_brute_force(rank, allowed):
    """Every code tuple of the allowed ranges that passes _realizable, in the
    order _code_families walks them: lexicographic over the closing order."""
    order = [pos for pos, _ in _closing_order(rank)]
    return sorted(
        (codes for codes in product(*allowed) if _realizable(rank, codes)),
        key=lambda codes: [codes[pos] for pos in order],
    )


def test_code_families_match_brute_force_on_random_ranges():
    """Ranges of step 1 and single-parity ranges of step 2, empty ones too.
    The pinned rank-2 window keeps the alcove with indices (1, 2, 1), whose
    simple root (2, 3) has code start(1, 3) - a - 1 = 1, the lowest code the
    later root (1, 3) of its node can still meet."""
    pinned = (2, [range(1, 2), range(3, 4), range(1, 2)])
    assert list(_code_families(*pinned)) == [(1, 3, 1)]
    rng = random.Random(14)
    found = 0
    for _ in range(400):
        rank = rng.choice((1, 2, 3))
        step, parity = rng.choice((1, 2)), rng.randrange(2)
        allowed = []
        for _ in range(rank * (rank + 1) // 2):
            lo = rng.randrange(-3, 8)
            lo += (parity - lo) % step
            allowed.append(range(lo, lo + step * rng.randrange(5 - rank // 3), step))
        families = list(_code_families(rank, allowed))
        assert families == _families_by_brute_force(rank, allowed), allowed
        found += len(families)
    assert found > 100


@pytest.mark.parametrize("rank, p, hi", [(2, 5, 7), (2, 3, 4), (3, 3, 4)])
def test_code_families_match_brute_force_on_coprime_box_windows(rank, p, hi, monkeypatch):
    """Every range list facettes_meeting_box walks: its coarse windows and the
    step-1 refinements of _meets_box, with gcd(p, hi) = 1."""
    seen = []

    def recording(r, allowed):
        seen.append((r, list(allowed)))
        return _code_families(r, allowed)

    monkeypatch.setattr(sweeps, "_code_families", recording)
    facettes_meeting_box(rank, p, hi)
    assert len(seen) > 20
    for r, allowed in seen:
        assert list(_code_families(r, allowed)) == _families_by_brute_force(r, allowed), allowed


@pytest.mark.parametrize(
    "rank, p, hi", [(2, 3, 6), (3, 3, 6), (4, 3, 6), (2, 5, 10), (3, 5, 10), (2, 5, 7), (3, 5, 7)]
)
def test_box_facettes_walk_the_refinement_only_when_p_does_not_divide_the_box(
    rank, p, hi, monkeypatch
):
    """facettes_meeting_box against the same families all filtered by
    _meets_box: equal on boxes that p divides, where it skips the walk as the
    walk keeps every family, and on coprime boxes, where it walks every
    family (at rank 3 the walk drops 6 of 174)."""
    windowed = list(_code_families(rank, _box_windows(rank, p, hi)))
    walked = [codes for codes in windowed if _meets_box(rank, p, hi, codes)]
    calls = []

    def counted(*args):
        calls.append(args)
        return _meets_box(*args)

    monkeypatch.setattr(sweeps, "_meets_box", counted)
    got = facettes_meeting_box(rank, p, hi)
    assert sorted(f._codes for f in got) == sorted(walked)
    if hi % p:
        assert len(calls) == len(windowed)
        assert rank == 2 or len(walked) < len(windowed)
    else:
        assert calls == [] and walked == windowed
