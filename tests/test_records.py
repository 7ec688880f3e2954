"""The package's value records behave as frozen dataclasses do.

Every record compares equal only to an instance of its own class, on its
compared fields, hashes as the tuple of those fields (so hash values, set
order and lru_cache keys are fixed), prints in the dataclass form unless it
defines its own repr, and refuses assignment with FrozenInstanceError.
SweepResult is the one mutable record: a sweep tallies into it.
"""

import copy
from dataclasses import FrozenInstanceError
from fractions import Fraction as Q

import pytest

from alcove_cells.alcove import AffineMap, Alcove, Between, Facette, Wall
from alcove_cells.partition import OrbitLabel, Partition, orbit_label
from alcove_cells.rootsys import ShiftedPoint, _located, point_from_weight
from alcove_cells.support import (
    CertificateLeg,
    SupportPrediction,
    UpperBoundCertificate,
    tilting_support,
    upper_bound_certificate,
)
from alcove_cells.sweeps import SweepResult


def _certificate():
    return upper_bound_certificate(point_from_weight((4, 2, 6)), 5)


# (class, a sample, its fields in declaration order, the compared fields)
def _frozen_records():
    cert = _certificate()
    return [
        (
            ShiftedPoint,
            ShiftedPoint((Q(1, 2), 3)),
            ("_num", "_den", "_pairs", "rank"),
            ("_num", "_den"),
        ),
        (Wall, Wall(2), ("index",), ("index",)),
        (Between, Between(2), ("index",), ("index",)),
        (Facette, Facette(2, 3, (Between(1), Wall(1), Between(1))), ("rank", "p", "_codes"), None),
        (Alcove, Alcove(2, 3, (1, 2, 1)), ("rank", "p", "_codes"), None),
        (AffineMap, AffineMap(2, (2, 1, 3), (Q(1, 2), 0, 1)), ("rank", "perm", "trans"), None),
        (Partition, Partition((3, 1, 1)), ("parts",), None),
        (OrbitLabel, orbit_label(Partition((2, 1))), ("partition", "dim"), None),
        (
            SupportPrediction,
            tilting_support(point_from_weight((1, 2)), 5),
            ("point", "p", "partition", "orbit", "backing", "upper_bound_applicable"),
            None,
        ),
        (
            CertificateLeg,
            cert.legs[0],
            ("basis", "pi", "mu", "mu_prime", "d_mu_prime", "mu_alcove", "lambda_alcove"),
            None,
        ),
        (UpperBoundCertificate, cert, ("point", "p", "s", "orbit", "legs"), None),
    ]


FROZEN = _frozen_records()
IDS = [cls.__name__ for cls, *_ in FROZEN]


def _compared(x, fields, compared):
    return tuple(getattr(x, name) for name in compared or fields)


@pytest.mark.parametrize("cls, x, fields, compared", FROZEN, ids=IDS)
def test_equality_holds_within_one_class_only(cls, x, fields, compared):
    assert type(x) is cls
    twin = _located(cls, **{name: getattr(x, name) for name in fields})
    assert twin == x and not twin != x
    sub = type("Sub", (cls,), {})
    stranger = _located(sub, **{name: getattr(x, name) for name in fields})
    assert stranger != x and x != stranger
    assert x != _compared(x, fields, compared)
    assert copy.copy(x) == x


@pytest.mark.parametrize("cls, x, fields, compared", FROZEN, ids=IDS)
def test_hash_is_that_of_the_compared_field_tuple(cls, x, fields, compared):
    assert hash(x) == hash(_compared(x, fields, compared))
    assert {x, copy.copy(x)} == {x}


@pytest.mark.parametrize("cls, x, fields, compared", FROZEN, ids=IDS)
def test_every_field_and_any_other_name_is_frozen(cls, x, fields, compared):
    for name in (*fields, "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, 0)
    for name in fields:
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    assert not hasattr(x, "extra")


# ShiftedPoint, Facette and Alcove print their decoded coordinates, data or
# indices instead (pinned by value below)
GENERATED_REPR = [case for case in FROZEN if case[0] not in (ShiftedPoint, Facette, Alcove)]


@pytest.mark.parametrize(
    "cls, x, fields, compared", GENERATED_REPR, ids=[case[0].__name__ for case in GENERATED_REPR]
)
def test_a_dataclass_form_repr_lists_every_field(cls, x, fields, compared):
    listed = ", ".join(f"{name}={getattr(x, name)!r}" for name in fields)
    assert repr(x) == f"{cls.__name__}({listed})"


def test_the_reprs_pinned_by_value():
    assert repr(ShiftedPoint((Q(1, 2), 3))) == (
        "ShiftedPoint(coords=(Fraction(1, 2), Fraction(3, 1)))"
    )
    assert repr(Wall(2)) == "Wall(index=2)"
    assert repr(Between(2)) == "Between(index=2)"
    assert repr(Facette(2, 3, (Between(1), Wall(1), Between(1)))) == (
        "Facette(rank=2, p=3, data=(Between(index=1), Wall(index=1), Between(index=1)))"
    )
    assert repr(Alcove(2, 3, (1, 2, 1))) == "Alcove(rank=2, p=3, indices=(1, 2, 1))"
    assert repr(AffineMap(1, (2, 1), (1, 0))) == (
        "AffineMap(rank=1, perm=(2, 1), trans=(Fraction(1, 1), Fraction(0, 1)))"
    )
    assert repr(Partition((3, 1, 1))) == "Partition(parts=(3, 1, 1))"
    assert repr(orbit_label(Partition((2, 1)))) == (
        "OrbitLabel(partition=Partition(parts=(2, 1)), dim=4)"
    )
    assert repr(SweepResult("s")) == (
        "SweepResult(name='s', cases=0, failures=[], reports=[], failed=0)"
    )


def test_a_wall_never_equals_the_window_of_its_index():
    assert Wall(1) != Between(1) and Between(1) != Wall(1)
    assert len({Wall(1), Between(1), Wall(1)}) == 2


def test_an_alcove_never_equals_the_facette_with_its_codes():
    a = Alcove(2, 3, (1, 2, 1))
    f = _located(Facette, rank=2, p=3, _codes=a._codes)
    assert a != f and f != a and hash(a) == hash(f)
    assert f == Facette(2, 3, f.data)


def test_a_point_compares_its_canonical_numerators_only():
    a = ShiftedPoint((Q(2, 2), 2))
    b = ShiftedPoint((1, 2))
    assert a == b and hash(a) == hash(b) == hash(((0, 1, 3), 1))
    assert ShiftedPoint((Q(1, 2), 1)) != ShiftedPoint((1, 2))


def test_partition_order_is_the_tuple_order_of_its_parts():
    a, b = Partition((2, 2)), Partition((3, 1))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a) and not (a < a)
    assert sorted([b, a, Partition((1, 1, 1, 1))]) == [Partition((1, 1, 1, 1)), a, b]
    with pytest.raises(TypeError):
        a < (3, 1)  # noqa: B015
    with pytest.raises(TypeError):
        a <= OrbitLabel(a, 0)  # noqa: B015


def test_partition_constructors_take_the_parts_by_position_or_keyword():
    assert Partition((2, 1)) == Partition(parts=(2, 1)) == Partition([2, 1])
    assert Partition([2, 1]).parts == (2, 1)
    for bad in ((), (2, "1"), (2, 0), (1, 2)):
        with pytest.raises(ValueError):
            Partition(bad)
    wrong = (((), {}), (((2,), (1,)), {}), (((2,),), {"parts": (2,)}), ((), {"part": (2,)}))
    for args, kwargs in wrong:
        with pytest.raises(TypeError):
            Partition(*args, **kwargs)


def test_affine_map_checks_and_normalizes_its_translation():
    m = AffineMap(rank=2, perm=(2, 1, 3), trans=(2, 1, 1))
    assert m.trans == (Q(1), Q(0), Q(0)) and all(type(v) is Q for v in m.trans)
    assert m == AffineMap(2, (2, 1, 3), (Q(1), 0, 0))
    with pytest.raises(ValueError):
        AffineMap(2, (1, 1, 3), (0, 0, 0))
    with pytest.raises(ValueError):
        AffineMap(2, (1, 2, 3), (0, 0))
    with pytest.raises(TypeError):
        AffineMap(2, (1, 2, 3))


def test_generated_constructors_take_fields_by_position_and_keyword():
    assert Wall(3) == Wall(index=3)
    assert OrbitLabel(Partition((2, 1)), 4) == OrbitLabel(dim=4, partition=Partition((2, 1)))
    leg = _certificate().legs[0]
    names = ("basis", "pi", "mu", "mu_prime", "d_mu_prime", "mu_alcove", "lambda_alcove")
    fields = {name: getattr(leg, name) for name in names}
    assert CertificateLeg(**fields) == leg
    assert CertificateLeg(*fields.values()) == leg
    for args, kwargs in (((), {}), ((1, 2), {}), ((1,), {"index": 1}), ((), {"idx": 1})):
        with pytest.raises(TypeError):
            Wall(*args, **kwargs)


def test_checked_constructors_still_refuse_bad_input():
    with pytest.raises(ValueError):
        ShiftedPoint(())
    with pytest.raises(ValueError):
        Facette(2, 3, (Wall(1), Wall(1), Wall(1)))
    with pytest.raises(ValueError):
        Alcove(2, 3, (1, 1, 2))


def test_a_sweep_result_is_mutable_and_owns_its_lists():
    a, b = SweepResult("a"), SweepResult("a")
    assert a == b and a.failures is not b.failures and a.reports is not b.reports
    a.fail("x")
    a.reports.append("r")
    a.cases += 3
    assert (a.failures, a.reports, a.cases, a.failed) == (["x"], ["r"], 3, 1)
    assert (b.failures, b.reports, b.cases, b.failed) == ([], [], 0, 0)
    assert a != b and a != ("a", 3, ["x"], ["r"], 1)
    with pytest.raises(TypeError):
        hash(a)
