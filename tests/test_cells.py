import gc
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove_cells.cells import (
    comparable_pairs_of,
    count_good_bases,
    d_partition,
    enumerate_good_bases,
    gamma,
    is_good_basis,
    is_subroot_basis,
    positive_roots_of,
    reduce_all,
    reduce_step,
    s_partition,
    s_partition_oracle,
    set_partitions_within,
    upward_closure,
)
from alcove_cells.errors import PreconditionError
from alcove_cells.partition import dominance_leq, partition, partition_of_basis, sup
from alcove_cells.rootsys import RootA, positive_roots, shifted_point


def test_gamma_known_values():
    assert gamma(shifted_point([6, 6]), 5) == frozenset(positive_roots(2))
    assert gamma(shifted_point([2, 2]), 5) == frozenset()
    assert gamma(shifted_point([14, 2]), 5) == frozenset({RootA(1, 2), RootA(1, 3)})


def test_gamma_requires_regular_dominant():
    with pytest.raises(PreconditionError):
        gamma(shifted_point([0, 3]), 5)


def test_is_subroot_basis_classification():
    assert is_subroot_basis({RootA(1, 6), RootA(2, 4), RootA(4, 7)})
    assert not is_subroot_basis({RootA(3, 6), RootA(3, 5)})
    assert is_subroot_basis(frozenset())


def test_is_good_basis_classification():
    assert not is_good_basis({RootA(1, 4), RootA(2, 3)})
    assert is_good_basis({RootA(1, 4), RootA(2, 5)})
    assert is_good_basis({RootA(2, 6)})


def test_positive_roots_of_chains():
    got = positive_roots_of([RootA(1, 3), RootA(3, 5)])
    assert got == frozenset({RootA(1, 3), RootA(3, 5), RootA(1, 5)})
    assert positive_roots_of([RootA(1, 2)]) == frozenset({RootA(1, 2)})
    chain = positive_roots_of([RootA(1, 3), RootA(3, 4), RootA(4, 6)])
    assert len(chain) == 6
    assert chain == frozenset(
        RootA(i, j)
        for i in (1, 3, 4, 6)
        for j in (1, 3, 4, 6)
        if i < j
    )


def test_upward_closure():
    assert upward_closure({RootA(2, 3)}, 2) == frozenset({RootA(2, 3), RootA(1, 3)})
    assert upward_closure(frozenset(), 4) == frozenset()
    assert upward_closure({RootA(1, 3)}, 3) == frozenset({RootA(1, 3), RootA(1, 4)})


def test_enumerate_good_bases_full_rank_two():
    got = enumerate_good_bases(positive_roots(2))
    assert got == (
        frozenset(),
        frozenset({RootA(1, 2)}),
        frozenset({RootA(1, 3)}),
        frozenset({RootA(2, 3)}),
        frozenset({RootA(1, 2), RootA(2, 3)}),
    )


def test_enumerate_good_bases_partial_scope():
    got = enumerate_good_bases({RootA(1, 2), RootA(1, 3)})
    assert got == (
        frozenset(),
        frozenset({RootA(1, 2)}),
        frozenset({RootA(1, 3)}),
    )
    assert enumerate_good_bases(frozenset()) == (frozenset(),)


def test_count_good_bases_matches_the_enumeration():
    # every scope of A_1..A_4 (all 2^10 subsets of A_4's roots), a seeded
    # sample of A_5's, and gamma of every point of [1, 6]^3 at p = 3
    scopes = [
        [r for k, r in enumerate(positive_roots(n)) if mask >> k & 1]
        for n in range(1, 5)
        for mask in range(1 << len(positive_roots(n)))
    ]
    rng = random.Random(5)
    scopes += [rng.sample(positive_roots(5), rng.randint(0, 15)) for _ in range(200)]
    scopes += [gamma(shifted_point(c), 3) for c in product(range(1, 7), repeat=3)]
    for scope in scopes:
        assert count_good_bases(scope) == len(enumerate_good_bases(scope)), scope
    # on every root of A_n the good bases are counted by the Catalan numbers
    assert [count_good_bases(positive_roots(n)) for n in range(1, 12)] == [
        2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
    ]


def test_s_partition_known_values():
    assert s_partition(shifted_point([6, 6]), 5) == partition([3])
    assert s_partition(shifted_point([14, 2]), 5) == partition([2, 1])
    assert s_partition(shifted_point([2, 2]), 5) == partition([1, 1, 1])


def test_s_partition_oracle_agrees_on_knowns():
    for coords in ([6, 6], [14, 2], [2, 2]):
        pt = shifted_point(coords)
        assert s_partition(pt, 5) == s_partition_oracle(pt, 5)


def test_s_partition_oracle_sweep_rank3():
    p = 5
    for coords in product(range(1, 2 * p + 1), repeat=3):
        pt = shifted_point(coords)
        assert s_partition(pt, p) == s_partition_oracle(pt, p)


def test_comparable_pairs():
    basis = frozenset({RootA(1, 3), RootA(3, 4), RootA(4, 6), RootA(2, 5)})
    assert len(comparable_pairs_of(basis)) == 1
    assert len(comparable_pairs_of(frozenset({RootA(1, 4), RootA(2, 5)}))) == 0
    assert len(comparable_pairs_of(frozenset({RootA(1, 4), RootA(2, 3)}))) == 1


def test_reduce_step_worked_example():
    basis = frozenset({RootA(1, 3), RootA(3, 4), RootA(4, 6), RootA(2, 5)})
    assert partition_of_basis(basis, 5) == partition([4, 2])
    swapped, deleted = reduce_step(basis, (RootA(2, 5), RootA(3, 4)), 5)
    assert swapped == frozenset(
        {RootA(1, 3), RootA(3, 5), RootA(2, 4), RootA(4, 6)}
    )
    assert partition_of_basis(swapped, 5) == partition([3, 3])
    assert deleted == frozenset({RootA(1, 3), RootA(3, 4), RootA(4, 6)})
    assert partition_of_basis(deleted, 5) == partition([4, 1, 1])
    assert sup(
        [partition_of_basis(swapped, 5), partition_of_basis(deleted, 5)]
    ) == partition([4, 2])


def test_reduce_step_rejects_bad_pairs():
    basis = frozenset({RootA(1, 3), RootA(3, 4), RootA(4, 6), RootA(2, 5)})
    with pytest.raises(PreconditionError):
        reduce_step(basis, (RootA(3, 4), RootA(2, 5)), 5)  # wrong orientation
    with pytest.raises(PreconditionError):
        reduce_step(basis, (RootA(2, 5), RootA(1, 3)), 5)  # incomparable
    with pytest.raises(PreconditionError):
        reduce_step(basis, (RootA(2, 5), RootA(2, 5)), 5)  # not distinct


def test_reduce_all_terminates_in_good_leaves():
    basis = frozenset({RootA(1, 3), RootA(3, 4), RootA(4, 6), RootA(2, 5)})
    leaves = reduce_all(basis, 5)
    assert leaves
    bound = upward_closure(positive_roots_of(basis), 5)
    for leaf in leaves:
        assert is_good_basis(leaf)
        assert positive_roots_of(leaf) <= bound
    leaf_sup = sup([partition_of_basis(leaf, 5) for leaf in leaves])
    assert dominance_leq(partition_of_basis(basis, 5), leaf_sup)


def test_reduce_all_fixes_good_bases():
    good = frozenset({RootA(1, 4), RootA(2, 5)})
    assert reduce_all(good, 4) == (good,)


def test_d_partition_known_values():
    assert d_partition(shifted_point([5, 5]), 5) == partition([3])
    assert d_partition(shifted_point([5, 3]), 5) == partition([2, 1])
    assert d_partition(shifted_point([6, 6]), 5) == partition([1, 1, 1])


@given(st.data())
@settings(max_examples=60)
def test_partition_of_basis_invariant_under_node_relabel(data):
    # a Weyl permutation of the epsilon indices preserves component sizes
    n = data.draw(st.integers(min_value=2, max_value=4))
    scope = positive_roots(n)
    basis = data.draw(st.sampled_from(enumerate_good_bases(scope)))
    perm = data.draw(st.permutations(range(1, n + 2)))

    relabeled = []
    for r in basis:
        u, v = perm[r.i - 1], perm[r.j - 1]
        relabeled.append(RootA(min(u, v), max(u, v)))
    if not is_subroot_basis(relabeled):
        return
    assert partition_of_basis(relabeled, n) == partition_of_basis(basis, n)


@given(st.data())
@settings(max_examples=60)
def test_good_basis_systems_stay_inside_gamma(data):
    n = data.draw(st.integers(min_value=2, max_value=3))
    p = data.draw(st.sampled_from([3, 5]))
    coords = data.draw(
        st.lists(st.integers(min_value=1, max_value=2 * p), min_size=n, max_size=n)
    )
    pt = shifted_point(coords)
    g = gamma(pt, p)
    for basis in enumerate_good_bases(g):
        assert positive_roots_of(basis) <= g


@pytest.mark.parametrize(
    "walk",
    [
        lambda: enumerate_good_bases(positive_roots(4)),
        lambda: set_partitions_within(positive_roots(4), 4),
        lambda: reduce_all(frozenset({RootA(1, 5), RootA(2, 3), RootA(3, 4)}), 4),
    ],
    ids=["enumerate_good_bases", "set_partitions_within", "reduce_all"],
)
def test_a_basis_walk_leaves_no_reference_cycle(walk):
    # the walks keep no self-referencing closure, so a call frees its frames,
    # lists and tuples by reference counting alone
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(walk()) > 1
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
