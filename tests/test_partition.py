import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_cells.cells import d_partition, set_partitions_within
from alcove_cells.errors import PreconditionError
from alcove_cells.partition import (
    Partition,
    _meet,
    dominance_leq,
    orbit_label,
    parse_partition,
    partition,
    partition_of_basis,
    partitions_of,
    sup,
    transpose,
)
from alcove_cells.rootsys import RootA, _located, chain_components, positive_roots, shifted_point


def _pairs(total):
    parts = partitions_of(total)
    return [(a, b) for a in parts for b in parts]


def test_partition_validation():
    with pytest.raises(PreconditionError):
        partition([2, 3])
    with pytest.raises(PreconditionError):
        partition([2, 0])
    with pytest.raises(PreconditionError):
        partition([])


def test_partition_rejects_non_integer_parts():
    # 3.9 + 1.5 used to be truncated to 3 + 1
    with pytest.raises(PreconditionError, match="integers"):
        partition([3.9, 1.5])


def test_str_renders_plus_separated():
    assert str(partition([4, 2])) == "4+2"
    assert str(partition([1, 1, 1])) == "1+1+1"


def test_parse_partition_accepts_three_forms():
    for text in ("4+2", "4,2", "[4,2]"):
        assert parse_partition(text) == partition([4, 2])
    with pytest.raises(PreconditionError):
        parse_partition("2+4")


def test_dominance_known_values():
    assert not dominance_leq(partition([3, 3]), partition([4, 1, 1]))
    assert not dominance_leq(partition([4, 1, 1]), partition([3, 3]))
    assert dominance_leq(partition([1] * 6), partition([6]))
    assert dominance_leq(partition([4, 1, 1]), partition([4, 2]))


def test_dominance_needs_equal_totals():
    with pytest.raises(PreconditionError):
        dominance_leq(partition([2]), partition([2, 1]))


@pytest.mark.parametrize("total", range(1, 9))
def test_dominance_is_partial_order(total):
    parts = partitions_of(total)
    for a in parts:
        assert dominance_leq(a, a)
    for a, b in _pairs(total):
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b
    for a, b in _pairs(total):
        if not dominance_leq(a, b):
            continue
        for c in parts:
            if dominance_leq(b, c):
                assert dominance_leq(a, c)


def test_transpose_known():
    assert transpose(partition([4, 2])) == partition([2, 2, 1, 1])
    assert transpose(partition([5])) == partition([1] * 5)
    assert transpose(partition([3])) == partition([1, 1, 1])


@pytest.mark.parametrize("total", range(1, 9))
def test_transpose_involution_and_order_reversal(total):
    for a, b in _pairs(total):
        assert transpose(transpose(a)) == a
        assert dominance_leq(a, b) == dominance_leq(transpose(b), transpose(a))


def test_sup_known_values():
    assert sup([partition([3, 3]), partition([4, 1, 1])]) == partition([4, 2])
    assert sup([partition([2, 1])]) == partition([2, 1])
    assert sup([partition([2, 1, 1]), partition([1, 1, 1, 1])]) == partition([2, 1, 1])


def test_sup_needs_prefix_max_repair():
    # prefix-max of (3,1,1,1) and (2,2,2) is (3,4,6,6): not weakly
    # decreasing differences, so the join must be repaired to (3,2,1)
    assert sup([partition([3, 1, 1, 1]), partition([2, 2, 2])]) == partition([3, 2, 1])


@pytest.mark.parametrize("total", range(1, 9))
def test_sup_is_least_upper_bound(total):
    parts = partitions_of(total)
    for a, b in _pairs(total):
        s = sup([a, b])
        assert dominance_leq(a, s) and dominance_leq(b, s)
        for c in parts:
            if dominance_leq(a, c) and dominance_leq(b, c):
                assert dominance_leq(s, c)


@given(st.data())
@settings(max_examples=100)
def test_sup_associative_commutative(data):
    total = data.draw(st.integers(min_value=2, max_value=8))
    parts = partitions_of(total)
    a = data.draw(st.sampled_from(parts))
    b = data.draw(st.sampled_from(parts))
    c = data.draw(st.sampled_from(parts))
    assert sup([a, b]) == sup([b, a])
    assert sup([sup([a, b]), c]) == sup([a, sup([b, c])])


def test_orbit_label_dims():
    assert orbit_label(partition([1, 1, 1])).dim == 0
    assert orbit_label(partition([3])).dim == 6
    assert orbit_label(partition([2, 1])).dim == 4
    assert orbit_label(partition([6])).dim == 30


def test_partition_of_basis_examples():
    basis = [RootA(1, 3), RootA(3, 4), RootA(4, 6), RootA(2, 5)]
    assert partition_of_basis(basis, 5) == partition([4, 2])
    assert partition_of_basis([], 5) == partition([1] * 6)
    split = [RootA(1, 3), RootA(3, 5), RootA(2, 4), RootA(4, 6)]
    assert partition_of_basis(split, 5) == partition([3, 3])


def test_partition_of_basis_rejects_invalid():
    with pytest.raises(PreconditionError):
        partition_of_basis([RootA(1, 2), RootA(1, 3)], 3)


def _partition_by_components(roots, n):
    """partition_of_basis as it was, from chain_components' node tuples:
    their sizes padded with 1s, or the message of the error it raised."""
    comps = chain_components(tuple(roots))
    if comps is None:
        return "is not a chain basis"
    for c in comps:
        if c[-1] > n + 1 or c[0] < 1:
            return f"node {c} outside A_{n}"
    parts = tuple(len(c) for c in comps)
    return parts + (1,) * (n + 1 - sum(parts))


def test_partition_of_basis_matches_the_chain_components():
    # root sets on the nodes 0..6, so that some leave A_4's nodes 1..5 and
    # some repeat an end; each refusal must name what the tuples named
    rng = random.Random(31)
    n = 4
    pool = [RootA(i, j) for i in range(7) for j in range(i + 1, 7)]
    seen = Counter()
    for _ in range(4000):
        roots = rng.sample(pool, rng.randint(0, 5))
        want = _partition_by_components(roots, n)
        if isinstance(want, str):
            with pytest.raises(PreconditionError) as exc:
                partition_of_basis(roots, n)
            assert want in str(exc.value), roots
            seen[want.split()[0]] += 1
        else:
            assert partition_of_basis(roots, n).parts == want, roots
            seen["kept"] += 1
    assert min(seen["kept"], seen["is"], seen["node"]) > 0, seen


def test_partitions_of_counts():
    # 1, 2, 3, 5, 7, 11, 15, 22 partitions of 1..8
    counts = [len(partitions_of(k)) for k in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]
    for total in range(1, 9):
        for a in partitions_of(total):
            assert a.total == total


# -- located partitions: the derived ones skip the checks they pass ----------


def _checked(q):
    """q rebuilt through the checked constructor, which raises unless q is a partition."""
    assert type(q.parts) is tuple
    return Partition(tuple(q.parts))


def test_a_located_partition_is_a_checked_one():
    for total in range(1, 9):
        checked = [Partition(q.parts) for q in partitions_of(total)]
        located = [_located(Partition, parts=q.parts) for q in checked]
        for a, b in zip(located, checked):
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        for (a, b), (c, d) in product(zip(located, checked), repeat=2):
            assert (a < c) == (b < d) == (a < d) == (b < c)
        assert partitions_of(total) == tuple(checked)


def test_every_derived_partition_passes_the_checks():
    rng = random.Random(15)
    for total in range(1, 9):
        family = partitions_of(total)
        for q in family:
            assert transpose(q) == _checked(transpose(q))
        for _ in range(60):
            ps = rng.sample(family, rng.randint(1, min(4, len(family))))
            join, meet = sup(ps), _meet(ps)
            assert join == _checked(join) and meet == _checked(meet)
            below = [c for c in family if all(dominance_leq(c, q) for q in ps)]
            assert all(dominance_leq(c, meet) for c in below) and meet in below


def test_component_and_class_partitions_pass_the_checks():
    for n in range(1, 6):
        for blocks in set_partitions_within(positive_roots(n), n):
            b = [RootA(u, v) for block in blocks for u, v in zip(block, block[1:])]
            q = partition_of_basis(b, n)
            assert q == _checked(q) and q.total == n + 1
    for p in (2, 3, 5):
        for coords in product(range(-2, 7), repeat=3):
            d = d_partition(shifted_point(coords), p)
            assert d == _checked(d) and d.total == 4
