import random
import warnings
from fractions import Fraction as Q
from itertools import product

import pytest

from alcove_cells.alcove import alcove_of, bottom_alcove, facette_of, weak_leq
from alcove_cells.cells import enumerate_good_bases, gamma, positive_roots_of
from alcove_cells import cells, rootsys, support
from alcove_cells.errors import InvariantViolationError, PreconditionError
from alcove_cells.partition import dominance_leq, partition, partitions_of
from alcove_cells.rootsys import RootA, ShiftedPoint, point_from_weight, shifted_point
from alcove_cells.support import (
    CONJECTURE,
    THEOREM,
    construct_mu,
    facette_lattice_point,
    induced_support,
    tilting_support,
    upper_bound_certificate,
    weight_cell_of,
)


def _mu(pt, basis, p):
    [(mu, mu_facette, mu_alcove)] = construct_mu(pt, alcove_of(pt, p), [basis])
    assert mu_facette == facette_of(mu, p)
    assert mu_alcove == alcove_of(mu, p)
    return mu


def test_construct_mu_single_long_root():
    mu = _mu(shifted_point([6, 6]), {RootA(1, 3)}, 5)
    assert mu.coords == (Q(9, 2), Q(1, 2))
    assert alcove_of(mu, 5).indices == (1, 2, 1)
    assert weak_leq(alcove_of(mu, 5), alcove_of(shifted_point([6, 6]), 5))


def test_construct_mu_empty_basis():
    mu = _mu(shifted_point([6, 6]), frozenset(), 5)
    assert mu.coords == (Q(1, 2), Q(1, 2))
    assert alcove_of(mu, 5) == bottom_alcove(2, 5)


def test_construct_mu_two_simple_roots():
    pt = shifted_point([6, 6])
    mu = _mu(pt, {RootA(1, 2), RootA(2, 3)}, 5)
    assert mu.coords == (Q(5), Q(5))
    assert mu.pairing(RootA(1, 3)) == 10


def test_construct_mu_single_simple_root():
    mu = _mu(shifted_point([6, 6]), {RootA(1, 2)}, 5)
    assert mu.coords == (Q(5), Q(1, 2))


def test_construct_mu_walls_divisible_and_dominant():
    pt = shifted_point([8, 3, 6])
    p = 5
    for basis in enumerate_good_bases(gamma(pt, p)):
        mu = _mu(pt, basis, p)
        assert mu.is_regular_dominant()
        for r in positive_roots_of(basis):
            assert mu.pairing(r) % p == 0
        assert weak_leq(alcove_of(mu, p), alcove_of(pt, p))


def test_construct_mu_requires_membership():
    with pytest.raises(PreconditionError, match="does not lie inside gamma"):
        _mu(shifted_point([2, 2]), {RootA(1, 2)}, 5)
    # at (20, 2, 2, 2, 2) and p = 3, gamma holds (1, 2) and (3, 5) but not
    # (2, 3), and (5, 7) is not a root of A_4: the walk, in decreasing
    # order, must check every root, not only the first
    pt = shifted_point([20, 2, 2, 2, 2])
    for basis in ({RootA(1, 2), RootA(2, 3)}, {RootA(2, 3), RootA(3, 5)}, {RootA(5, 7)}):
        with pytest.raises(PreconditionError, match="does not lie inside gamma"):
            _mu(pt, basis, 3)


@pytest.mark.parametrize(
    "basis",
    [
        {RootA(1, 4), RootA(2, 3)},  # nested: the right ends do not decrease
        {RootA(1, 3), RootA(1, 4)},  # a shared left end
        {RootA(1, 4), RootA(2, 4)},  # a shared right end
        {RootA(1, 2), RootA(3, 4), RootA(2, 5)},  # a nested pair, not the first
    ],
)
def test_construct_mu_requires_good_basis(basis):
    # every root of A_4 is in gamma of (20, 20, 20, 20, 20) at p = 3, so only
    # the good-basis check can refuse these
    with pytest.raises(PreconditionError, match="is not a good basis"):
        _mu(shifted_point([20] * 5), basis, 3)
    # a basis that fails both checks is refused as not good, as before
    with pytest.raises(PreconditionError, match="is not a good basis"):
        _mu(shifted_point([20, 2, 2, 2, 2]), {RootA(1, 4), RootA(2, 3)}, 3)


def test_construct_mu_rejects_the_alcove_of_another_point():
    # (1,3) lies in gamma of (6,6) but not of (2,2) at p = 5, and the empty
    # basis passes every later check: only the alcove check can refuse them
    pt, other = shifted_point([2, 2]), shifted_point([6, 6])
    for basis in ({RootA(1, 3)}, frozenset()):
        with pytest.raises(PreconditionError, match="is not the alcove of"):
            construct_mu(pt, alcove_of(other, 5), [basis])
    # the point is checked once per call, before any basis, so also with none
    with pytest.raises(PreconditionError, match="is not the alcove of"):
        construct_mu(pt, alcove_of(other, 5), [])
    with pytest.raises(PreconditionError, match="rank mismatch"):
        construct_mu(pt, alcove_of(shifted_point([2, 2, 2]), 5), [frozenset()])


def test_construct_mu_refuses_a_point_off_the_chamber():
    # (1, 0) lies in the lower closure of its alcove but is not regular dominant
    pt = shifted_point([1, 0])
    with pytest.raises(PreconditionError, match="regular dominant"):
        construct_mu(pt, alcove_of(pt, 5), [])


def test_construct_mu_refuses_a_point_off_the_basis_walls(monkeypatch):
    # mu's construction, nudged by 1/D at the left end of one basis root,
    # leaves that root's pairing at kp + 1/D: the divisibility check must fire
    pt, p = point_from_weight((9, 9, 9, 9)), 5
    lam = alcove_of(pt, p)
    bases = [b for b in enumerate_good_bases(gamma(pt, p)) if b]
    assert len(bases) == 41
    for basis in bases:
        left = min(basis).i - 1

        def nudged(num, den, left=left):
            # one more unit on coordinate `left` raises every later prefix numerator
            moved = num[: left + 1] + tuple(v + 1 for v in num[left + 1 :])
            return rootsys._located_point(moved, den)

        monkeypatch.setattr(support, "_located_point", nudged)
        with pytest.raises(InvariantViolationError, match="not divisible"):
            construct_mu(pt, lam, [basis])


def test_construct_mu_refuses_a_point_above_lambda(monkeypatch):
    # mu's construction, raised by 100p on its first coordinate, keeps every
    # basis wall (the pairings of the roots (1, j) rise by 100p) and stays
    # regular dominant, but its alcove leaves the order ideal below lambda
    pt, p = point_from_weight((9, 9, 9, 9)), 5
    lam = alcove_of(pt, p)

    def raised(num, den):
        return rootsys._located_point((0, *(v + 100 * p * den for v in num[1:])), den)

    monkeypatch.setattr(support, "_located_point", raised)
    for basis in enumerate_good_bases(gamma(pt, p)):
        with pytest.raises(InvariantViolationError, match="not weakly below"):
            construct_mu(pt, lam, [basis])


def test_certificate_refuses_a_lattice_point_off_its_facette(monkeypatch):
    # an integral point of the bottom alcove lies in the empty basis' facette
    # alone: the membership check must refuse it at the next leg, before the
    # dominance check sees its d-partition
    pt, p = point_from_weight((9, 9, 9, 9)), 5
    monkeypatch.setattr(support, "facette_lattice_point", lambda f: shifted_point([1, 1, 1, 1]))
    assert len(enumerate_good_bases(gamma(pt, p))) == 42
    with pytest.raises(InvariantViolationError, match="left its facette"):
        upper_bound_certificate(pt, p)


def test_located_mu_and_lattice_points_equal_their_public_construction():
    # mu is located over the unreduced D and mu' from even codes over 1; both
    # must be the points the checked constructor makes from their coordinates
    cert = upper_bound_certificate(point_from_weight((9, 9, 9, 9)), 5)
    assert len(cert.legs) == 42
    for leg in cert.legs:
        for located in (leg.mu, leg.mu_prime):
            public = ShiftedPoint(located.coords)
            assert located == public and hash(located) == hash(public)
            assert (located._num, located._den, located.rank) == (
                public._num,
                public._den,
                public.rank,
            )
        assert leg.mu_prime.is_integral()


def test_certificate_locates_lambda_once_and_each_mu_once(monkeypatch):
    calls = {"gamma": 0, "alcove_of": 0, "facette_of": 0, "construct_mu": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for mod in (cells, support):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    cert = upper_bound_certificate(point_from_weight((9, 9, 9, 9)), 5)
    assert len(cert.legs) == 42
    # one gamma for the legs and the oracle, one alcove for lambda, and one
    # construct_mu call that locates every mu from its pairings; the one
    # facette_of per leg is the lattice point's membership check
    assert calls["gamma"] == 1
    assert calls["alcove_of"] == 1
    assert calls["construct_mu"] == 1
    assert calls["facette_of"] == len(cert.legs)
    for leg in cert.legs:
        assert leg.mu_alcove == alcove_of(leg.mu, 5)


def test_facette_lattice_point_known():
    f = facette_of(shifted_point([Q(9, 2), Q(1, 2)]), 5)
    got = facette_lattice_point(f)
    assert got is not None and got.coords == (Q(1), Q(4))
    c0 = facette_of(shifted_point([2, 2]), 5)
    got = facette_lattice_point(c0)
    assert got is not None and got.coords == (Q(1), Q(1))
    vertex = facette_of(shifted_point([5, 5]), 5)
    got = facette_lattice_point(vertex)
    assert got is not None and got.coords == (Q(5), Q(5))


def test_weight_cell_of_known():
    assert weight_cell_of(shifted_point([6, 6]), 5) == partition([1, 1, 1])
    assert weight_cell_of(shifted_point([14, 2]), 5) == partition([2, 1])
    assert weight_cell_of(shifted_point([2, 2]), 5) == partition([3])


def test_tilting_support_predictions():
    # partition field carries s; the orbit is labeled by its transpose
    pred = tilting_support(shifted_point([6, 6]), 5)
    assert pred.partition == partition([3])
    assert pred.orbit.partition == partition([1, 1, 1])
    assert pred.orbit.dim == 0
    assert pred.backing == THEOREM
    pred = tilting_support(shifted_point([14, 2]), 5)
    assert pred.partition == partition([2, 1])
    assert pred.orbit.dim == 4
    pred = tilting_support(shifted_point([2, 2]), 5)
    assert pred.partition == partition([1, 1, 1])
    assert pred.orbit.dim == 6


def test_tilting_support_warns_below_threshold():
    # the caveat is data: backing says conjecture, and no Python warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = tilting_support(point_from_weight([0, 0]), 3)
    assert pred.backing == CONJECTURE
    assert pred.partition == partition([1, 1, 1])
    # the certificate threshold p >= n+1 is met even though backing is not
    assert pred.upper_bound_applicable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = tilting_support(point_from_weight([0, 0]), 2)
    assert pred.backing == CONJECTURE
    assert not pred.upper_bound_applicable


def test_induced_support_predictions():
    pred = induced_support(shifted_point([5, 3]), 5)
    assert pred.partition == partition([2, 1])
    assert pred.orbit.dim == 4
    pred = induced_support(shifted_point([2, 2]), 5)
    assert pred.partition == partition([1, 1, 1])
    assert pred.orbit.partition == partition([3])
    pred = induced_support(shifted_point([5, 5]), 5)
    assert pred.partition == partition([3])
    assert pred.orbit.partition == partition([1, 1, 1])
    assert pred.orbit.dim == 0


def test_certificate_steinberg_adjacent():
    cert = upper_bound_certificate(shifted_point([6, 6]), 5)
    assert len(cert.legs) == 5
    assert cert.s == partition([3])
    for leg in cert.legs:
        assert dominance_leq(leg.pi, leg.d_mu_prime)
        assert facette_of(leg.mu_prime, 5) == facette_of(leg.mu, 5)
        assert weak_leq(leg.mu_alcove, leg.lambda_alcove)


def test_certificate_supremum_is_checked_against_the_all_bases_oracle(monkeypatch):
    """At weight 5,5 and p = 5 only the basis (1,2),(2,3) attains s = 3.

    With it dropped from the good-basis enumeration, the legs' supremum and
    s_partition both fall to 2+1; only an independent route sees the gap.
    """
    missing = frozenset({RootA(1, 2), RootA(2, 3)})

    def without_it(scope):
        return tuple(b for b in enumerate_good_bases(scope) if b != missing)

    monkeypatch.setattr(cells, "enumerate_good_bases", without_it)
    monkeypatch.setattr(support, "enumerate_good_bases", without_it)
    with pytest.raises(InvariantViolationError, match="disagrees with s"):
        upper_bound_certificate(point_from_weight((5, 5)), 5)


def test_certificate_bottom_weight():
    cert = upper_bound_certificate(shifted_point([2, 2]), 5)
    assert len(cert.legs) == 1
    assert cert.legs[0].basis == frozenset()
    assert cert.s == partition([1, 1, 1])


def test_certificate_remark_weight():
    cert = upper_bound_certificate(shifted_point([14, 2]), 5)
    assert len(cert.legs) == 3
    assert cert.s == partition([2, 1])


def test_certificate_guards_small_p():
    with pytest.raises(PreconditionError):
        upper_bound_certificate(shifted_point([2, 2]), 2)


def test_weight_cell_of_bottom_region():
    for coords in ([1, 1], [2, 2], [1, 2]):
        assert weight_cell_of(shifted_point(coords), 5) == partition([3])
    assert weight_cell_of(shifted_point([5, 5]), 5) != partition([3])


def test_weight_cell_of_zero_orbit_contains_remark_point():
    assert weight_cell_of(shifted_point([6, 6]), 5) == partition([1, 1, 1])


def test_weight_cell_of_labels_every_point_of_a_box():
    cells_of_3 = partitions_of(3)
    for coords in product(range(1, 7), repeat=2):
        assert weight_cell_of(shifted_point(coords), 3) in cells_of_3


def test_randomized_mu_postconditions_rank4():
    # sampled spot-check at (n+1, p) = (5, 7); the machine checks inside
    # construct_mu assert the contract on every call
    rng = random.Random(7)
    p = 7
    for _ in range(40):
        pt = shifted_point([rng.randint(1, 2 * p) for _ in range(4)])
        for basis in enumerate_good_bases(gamma(pt, p)):
            _mu(pt, basis, p)


def test_construct_mu_on_all_bases_equals_one_call_per_basis():
    # the point checks and the window table are shared by the bases of one
    # call; each basis must still get the mu, facette and alcove that a call
    # on it alone builds, at integral and at rational points
    rng = random.Random(25)
    built = 0
    for n in range(1, 6):
        for den in (1, 1, 2, 3, 6):
            p = rng.choice((2, 3, 5, 7))
            pt = shifted_point([Q(rng.randint(1, 2 * p * den), den) for _ in range(n)])
            lam = alcove_of(pt, p)
            bases = enumerate_good_bases(gamma(pt, p))
            together = construct_mu(pt, lam, bases)
            assert len(together) == len(bases)
            for basis, got in zip(bases, together):
                assert construct_mu(pt, lam, [basis]) == [got]
                mu, mu_facette, mu_alcove = got
                assert (mu_facette, mu_alcove) == (facette_of(mu, p), alcove_of(mu, p))
                assert (mu_facette._codes, mu_alcove._codes) == (
                    facette_of(mu, p)._codes,
                    alcove_of(mu, p)._codes,
                )
            built += len(bases)
    assert built > 200
