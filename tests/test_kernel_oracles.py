"""The integer alcove kernel against the routes it replaced.

Realizability: the local split rule behind Alcove and Facette against
the Floyd-Warshall difference system over every family in fixed index
windows.  Point location: the integer-numerator forms of alcove_of,
facette_of, gamma, stabilizer_subroot_system and the closures against
the Fraction pairing formulas, on random rational points.  Stabilizers:
the class-permutation group against the Fraction closure of
stabilizer_group, and the integer cone test against the Fraction loop
over AffineMap.apply.  Raising: the memoized up_reachable against the
BFS that recomputed every step.  Walls and up-steps: the split rule behind
upper_walls / lower_walls and the index transform behind up_step_neighbors
against a difference-system witness per root (with its order-2 stabilizer)
and the reflection of an interior point; the split-rule prune of
dominant_alcoves against the difference system on every prefix.  Chain
bases: the increasing-chain rule behind is_good_basis and
enumerate_good_bases, the next-pointer walk of chain_components and the
class sizes of d_partition against the pairwise bracket, union-find and
stabilizer-system routes they replaced; the set-partition walk of
chain_bases_in behind s_partition_oracle and the sweeps against the subset
routes it replaced.  Box facettes, interior points and
lattice points: the split-rule generator behind facettes_meeting_box, its
box test on the gcd grid, the midpoint interior_point and the first-family
facette_lattice_point against the Floyd-Warshall box search, the solver's
feasibility and witness, and the coordinate-by-coordinate lattice search.
"""

from collections import deque
from fractions import Fraction as Q
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_cells.alcove import (
    AffineMap,
    Alcove,
    Between,
    Facette,
    Wall,
    _class_permutations,
    _node_classes,
    _raise_step,
    _splits,
    alcove_of,
    closure_contains,
    facette_from_alcove,
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
)
from alcove_cells import cells, sweeps
from alcove_cells.cells import (
    chain_bases_in,
    d_partition,
    enumerate_good_bases,
    gamma,
    is_good_basis,
    positive_roots_of,
    s_partition_oracle,
)
from alcove_cells.constraints import _base_system
from alcove_cells.errors import PreconditionError
from alcove_cells.partition import Partition, partition_of_basis, sup
from alcove_cells.rootsys import (
    RootA,
    ShiftedPoint,
    chain_components,
    inverse_cartan_numerators,
    point_from_e,
    positive_roots,
    root_leq,
    root_pairing,
    root_position,
    shifted_point,
)
from alcove_cells.support import facette_lattice_point
from alcove_cells.sweeps import (
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


@given(pt=points)
def test_pairings_keep_their_fraction_values(pt):
    prefix = [sum(pt.coords[:k], Q(0)) for k in range(pt.rank + 1)]
    for r in positive_roots(pt.rank):
        assert pt.pairing(r) == prefix[r.j - 1] - prefix[r.i - 1]
    assert pt.e_coords() == tuple(prefix[-1] - v for v in prefix)
    assert pt.is_integral() == all(c.denominator == 1 for c in pt.coords)


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


@st.composite
def points_on_walls(draw):
    """(pt, p) with coordinates in (p/3)Z, so pt sits on many hyperplanes."""
    p = draw(st.integers(min_value=1, max_value=4))
    parts = st.tuples(st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3]))
    coords = draw(st.lists(parts, min_size=1, max_size=4))
    return ShiftedPoint(tuple(Q(k * p, d) for k, d in coords)), p


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
    pts = integral_points(rank, 0, 6)
    answers = []
    for f in facettes_meeting_box(rank, 3, 6):
        for pt in pts:
            if closure_contains(f, pt):
                fast = lower_closure_contains_via_stabilizer(f, pt)
                assert fast == _via_stabilizer_by_fractions(f, pt), (f.data, pt.coords)
                answers.append(fast)
    assert True in answers and False in answers


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
        assert lower_closure_contains_via_stabilizer(f, pt) == _via_stabilizer_by_fractions(
            f, pt
        )


# -- raising reachability: memoized steps against the plain BFS -----------


def _up_reachable_plain(a, b):
    """up_reachable as it was, recomputing every step and both bounds."""
    rank = a.rank
    if a.indices == b.indices:
        return True
    simple_pos = [root_position(rank)[RootA(k, k + 1)] for k in range(1, rank + 1)]
    numerators = inverse_cartan_numerators(rank)

    def floors_and_ceils(idx):
        lo = tuple(sum(c * (idx[sp] - 1) for c, sp in zip(row, simple_pos)) for row in numerators)
        hi = tuple(sum(c * idx[sp] for c, sp in zip(row, simple_pos)) for row in numerators)
        return lo, hi

    a_lo, _ = floors_and_ceils(a.indices)
    _, b_hi = floors_and_ceils(b.indices)
    seen = {a.indices}
    queue = deque([a.indices])
    while queue:
        cur = queue.popleft()
        for beta_pos in range(len(cur)):
            nxt = _raise_step(rank, cur, beta_pos)
            lo, hi = floors_and_ceils(nxt)
            if nxt in seen or not (
                all(h > al for h, al in zip(hi, a_lo)) and all(l < bh for l, bh in zip(lo, b_hi))
            ):
                continue
            if nxt == b.indices:
                return True
            seen.add(nxt)
            queue.append(nxt)
    return False


def test_up_reachable_matches_the_plain_bfs_on_every_pair():
    alcoves = dominant_alcoves(2, 3, 4)
    answers = [
        (up_reachable(a, b), _up_reachable_plain(a, b)) for a in alcoves for b in alcoves
    ]
    assert all(fast == plain for fast, plain in answers)
    assert {fast for fast, _ in answers} == {True, False}


def test_up_reachable_matches_the_plain_bfs_on_comparable_pairs():
    alcoves = dominant_alcoves(3, 5, 4)
    pairs = [(a, b) for a in alcoves for b in alcoves if weak_leq(a, b)]
    assert len(pairs) == 848
    for a, b in pairs:
        assert up_reachable(a, b) == _up_reachable_plain(a, b), (a.indices, b.indices)


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
    x = interior_point(facette_from_alcove(a))
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


@pytest.mark.parametrize("rank, lo, hi", [(2, -2, 3), (3, -1, 2), (4, 0, 1)])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_lattice_points_match_the_coordinate_search(rank, lo, hi, p):
    found = missing = 0
    for data in _families(rank, lo, hi, prune=True):
        f = Facette(rank, p, data)
        fast = facette_lattice_point(f)
        assert fast == _facette_lattice_point_by_search(f), data
        found += fast is not None
        missing += fast is None
    assert found > 0 and (missing > 0) == (p < rank + 1)


# -- all chain bases: the set-partition walk against the subset routes ----


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
        assert chain_bases_in(sub) == _chain_bases_by_combinations(sub), sub
    assert len(subsets) == (2, 8, 64, 1024)[rank - 1]


def test_chain_bases_match_the_subset_route_on_every_upper_set_of_rank_five():
    uppers = _upper_sets(5)
    assert len(uppers) == 132
    for g in uppers:
        bases = chain_bases_in(g)
        assert bases == _chain_bases_by_combinations(g), sorted(g)
        assert set(enumerate_good_bases(g)) <= set(bases)


@pytest.mark.parametrize("n, bell", [(1, 2), (2, 5), (3, 15), (4, 52), (5, 203), (6, 877)])
def test_all_chain_bases_of_a_rank_are_the_set_partitions(n, bell):
    bases = chain_bases_in(positive_roots(n))
    assert len(bases) == len(set(bases)) == bell
    assert all(chain_components(tuple(b)) is not None for b in bases)


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
        filtered += any(not positive_roots_of(b) <= g for b in chain_bases_in(g))
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
    """A gamma missing (1,3) beside (1,2) and (2,3) lets the basis of both
    escape; the first point's gamma has no such pair, so only a check made
    for every distinct gamma sees it, and it fails once per point."""
    n, p, hi = 3, 3, 6

    def holed(pt, p):
        g = gamma(pt, p)
        return g - {RootA(1, 3)} if {RootA(1, 2), RootA(2, 3)} <= g else g

    pts = integral_points(n, 1, hi)
    expected = sum(
        not positive_roots_of(b) <= holed(pt, p)
        for pt in pts
        for b in _chain_bases_by_combinations(holed(pt, p))
    )
    assert holed(pts[0], p) == gamma(pts[0], p) and expected > 0
    monkeypatch.setattr(sweeps, "gamma", holed)
    r = good_sup_sweep(n, p, box=hi)
    assert r.failed == expected
    assert all("escapes gamma" in f for f in r.failures[:-1])
