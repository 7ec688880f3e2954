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
    NO_RESULT,
    THEOREM,
    construct_mu,
    facette_lattice_point,
    induced_support,
    tilting_support,
    upper_bound_certificate,
    weight_cell_of,
)


def _mu(pt, basis, p):
    legs = {b: rest for b, *rest in construct_mu(pt, alcove_of(pt, p))}
    mu, mu_facette, mu_alcove = legs[frozenset(basis)]
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
    legs = construct_mu(pt, alcove_of(pt, p))
    assert len(legs) == 10
    for basis, mu, mu_facette, mu_alcove in legs:
        assert (mu_facette, mu_alcove) == (facette_of(mu, p), alcove_of(mu, p))
        assert mu.is_regular_dominant()
        for r in positive_roots_of(basis):
            assert mu.pairing(r) % p == 0
        assert weak_leq(alcove_of(mu, p), alcove_of(pt, p))


def test_construct_mu_rejects_the_alcove_of_another_point():
    # the alcove of (6,6) at p = 5 holds every root of A_2 in its gamma, that
    # of (2,2) none: the point is checked before any basis is built from it
    pt, other = shifted_point([2, 2]), shifted_point([6, 6])
    with pytest.raises(PreconditionError, match="is not the alcove of"):
        construct_mu(pt, alcove_of(other, 5))
    with pytest.raises(PreconditionError, match="is not the alcove of"):
        construct_mu(other, alcove_of(pt, 5))
    with pytest.raises(PreconditionError, match="rank mismatch"):
        construct_mu(pt, alcove_of(shifted_point([2, 2, 2]), 5))


def test_construct_mu_refuses_a_point_off_the_chamber():
    # (1, 0) lies in the lower closure of its alcove but is not regular dominant
    pt = shifted_point([1, 0])
    with pytest.raises(PreconditionError, match="regular dominant"):
        construct_mu(pt, alcove_of(pt, 5))


def _break_one_mu(monkeypatch, target, move):
    """Locate the mu built as target by move(num, den); every other mu as built."""

    def located(num, den):
        pt = rootsys._located_point(num, den)
        return rootsys._located_point(move(num, den), den) if pt == target else pt

    monkeypatch.setattr(support, "_located_point", located)


def test_construct_mu_refuses_a_point_off_the_basis_walls(monkeypatch):
    # one basis' mu, nudged by 1/D at the left end of its least root, leaves
    # that root's pairing at kp + 1/D: the divisibility check must fire and
    # name the basis
    pt, p = point_from_weight((9, 9, 9, 9)), 5
    lam = alcove_of(pt, p)
    legs = [leg for leg in construct_mu(pt, lam) if leg[0]]
    assert len(legs) == 41
    for basis, mu, _, _ in legs:
        left = min(basis).i - 1

        def nudged(num, den, left=left):
            # one more unit on coordinate `left` raises every later prefix numerator
            return num[: left + 1] + tuple(v + 1 for v in num[left + 1 :])

        _break_one_mu(monkeypatch, mu, nudged)
        with pytest.raises(InvariantViolationError, match="not divisible") as exc:
            construct_mu(pt, lam)
        assert str(exc.value).startswith(f"basis {sorted(basis)}: pairing at ")


def test_construct_mu_refuses_a_point_off_the_chamber_it_built(monkeypatch):
    # one basis' mu, its first coordinate dropped to 0, keeps the pairing of
    # every root (i, j) with i > 1, so the walls of a basis with no root
    # (1, j) stay, but mu is no longer regular dominant
    pt, p = point_from_weight((9, 9, 9, 9)), 5
    lam = alcove_of(pt, p)

    def dropped(num, den):
        return (0, 0, *(v - num[1] for v in num[2:]))

    legs = [leg for leg in construct_mu(pt, lam) if all(r.i > 1 for r in leg[0])]
    assert len(legs) == 14
    for basis, mu, _, _ in legs:
        _break_one_mu(monkeypatch, mu, dropped)
        with pytest.raises(InvariantViolationError, match="left the chamber") as exc:
            construct_mu(pt, lam)
        assert str(exc.value).startswith(f"basis {sorted(basis)}: constructed point ")


def test_construct_mu_refuses_a_point_above_lambda(monkeypatch):
    # one basis' mu, raised by 100p on its first coordinate, keeps every
    # basis wall (the pairings of the roots (1, j) rise by 100p) and stays
    # regular dominant, but its alcove leaves the order ideal below lambda
    pt, p = point_from_weight((9, 9, 9, 9)), 5
    lam = alcove_of(pt, p)

    def raised(num, den):
        return (0, *(v + 100 * p * den for v in num[1:]))

    legs = construct_mu(pt, lam)
    assert len(legs) == 42
    for basis, mu, _, _ in legs:
        _break_one_mu(monkeypatch, mu, raised)
        with pytest.raises(InvariantViolationError, match="not weakly below") as exc:
            construct_mu(pt, lam)
        assert str(exc.value).startswith(f"basis {sorted(basis)}: ")


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
    calls = {
        "gamma": 0,
        "alcove_of": 0,
        "facette_of": 0,
        "construct_mu": 0,
        "enumerate_good_bases": 0,
    }

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
    # one gamma for the oracle, one alcove for lambda, and one construct_mu
    # call that enumerates the good bases from lambda's codes and locates
    # every mu from its pairings; the one facette_of per leg is the lattice
    # point's membership check
    assert calls["gamma"] == 1
    assert calls["alcove_of"] == 1
    assert calls["construct_mu"] == 1
    assert calls["enumerate_good_bases"] == 1
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
    assert pred.backing == NO_RESULT
    assert not pred.upper_bound_applicable


@pytest.mark.parametrize(
    "n, p, backing",
    [
        (2, 4, NO_RESULT),  # composite, and p = n + 2
        (2, 9, NO_RESULT),  # composite, past n + 2
        (4, 6, NO_RESULT),  # composite, p = n + 2
        (2, 1, NO_RESULT),  # 1 is not a prime
        (11, 2, NO_RESULT),  # p < h = n + 1
        (3, 3, NO_RESULT),  # p < h
        (2, 3, CONJECTURE),  # p = h
        (4, 5, CONJECTURE),  # p = h
        (1, 3, CONJECTURE),  # p = n + 2
        (3, 5, CONJECTURE),  # p = n + 2
        (2, 5, THEOREM),  # p > n + 2
        (3, 7, THEOREM),  # p > n + 2
        (5, 11, THEOREM),  # p > n + 2, skipping the composite 8, 9, 10
        (2, 1_000_000_000_000_000_003, THEOREM),  # a prime far past n + 2
        (2, 3_215_031_751, NO_RESULT),  # a strong pseudoprime to the bases 2, 3, 5, 7
        # 1287836182261 * 2575672364521, the least composite that passes the
        # strong test to every prime base up to 41: the test's proven range ends there
        (2, 3_317_044_064_679_887_385_961_981, NO_RESULT),
    ],
)
def test_backing_names_the_result_that_covers_p(n, p, backing):
    # the rank-n point is SL_{n+1}: the paper proves SL_m at p > m + 1, that
    # is p > n + 2, and Humphreys' conjecture is stated for p >= h = n + 1
    weight = [0] * n
    assert tilting_support(point_from_weight(weight), p).backing == backing
    assert induced_support(point_from_weight(weight), p).backing == backing


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
        legs = construct_mu(pt, alcove_of(pt, p))
        assert [basis for basis, *_ in legs] == list(enumerate_good_bases(gamma(pt, p)))
        for _, mu, mu_facette, mu_alcove in legs:
            assert (mu_facette, mu_alcove) == (facette_of(mu, p), alcove_of(mu, p))


def test_construct_mu_builds_every_good_basis_of_gamma_in_order():
    # gamma is read off lam's codes, not computed from pt: the legs' bases
    # must be enumerate_good_bases(gamma(pt, p)), in its order, and each mu
    # located as facette_of and alcove_of locate it, at integral and at
    # rational points
    rng = random.Random(25)
    built = 0
    for n in range(1, 6):
        for den in (1, 1, 2, 3, 6):
            p = rng.choice((2, 3, 5, 7))
            pt = shifted_point([Q(rng.randint(1, 2 * p * den), den) for _ in range(n)])
            legs = construct_mu(pt, alcove_of(pt, p))
            assert [basis for basis, *_ in legs] == list(enumerate_good_bases(gamma(pt, p)))
            for _, mu, mu_facette, mu_alcove in legs:
                assert (mu_facette, mu_alcove) == (facette_of(mu, p), alcove_of(mu, p))
                assert (mu_facette._codes, mu_alcove._codes) == (
                    facette_of(mu, p)._codes,
                    alcove_of(mu, p)._codes,
                )
            built += len(legs)
    assert built > 200
