"""Support-variety predictions and their combinatorial certificates.

The headline outputs: for an integral regular dominant point the
predicted tilting support is the orbit of the transposed s-partition,
and for any integral dominant point the induced-module support is the
orbit of the transposed d-partition.  The certificate pipeline backs the
tilting upper bound: for every good basis inside gamma it constructs an
exact rational point mu whose stabilizer system contains the basis'
system while its alcove stays weakly below, locates an integral point in
mu's facette, and compares partitions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product
from typing import Iterable, Optional, Sequence

from .alcove import (
    Alcove,
    Facette,
    _code_families,
    alcove_of,
    facette_of,
    weak_leq,
)
from .cells import (
    d_partition,
    enumerate_good_bases,
    gamma,
    is_good_basis,
    positive_roots_of,
    s_partition,
)
from .errors import InvariantViolationError, PreconditionError
from .partition import (
    OrbitLabel,
    Partition,
    dominance_leq,
    orbit_label,
    partition_of_basis,
    sup,
    transpose,
)
from .rootsys import RootA, ShiftedPoint, check_p, root_position

THEOREM = "theorem"
CONJECTURE = "conjecture"


@dataclass(frozen=True)
class SupportPrediction:
    """A predicted support variety, as a nilpotent orbit label."""

    point: ShiftedPoint
    p: int
    partition: Partition
    orbit: OrbitLabel
    backing: str
    upper_bound_applicable: bool


@dataclass(frozen=True)
class CertificateLeg:
    basis: frozenset[RootA]
    pi: Partition
    mu: ShiftedPoint
    mu_prime: ShiftedPoint
    d_mu_prime: Partition
    mu_alcove: Alcove
    lambda_alcove: Alcove


@dataclass(frozen=True)
class UpperBoundCertificate:
    point: ShiftedPoint
    p: int
    s: Partition
    orbit: OrbitLabel
    legs: tuple[CertificateLeg, ...]


def _require_integral_dominant(pt: ShiftedPoint, regular: bool) -> None:
    if not pt.is_integral():
        raise PreconditionError(f"{pt.coords} is not integral")
    if regular and not pt.is_regular_dominant():
        raise PreconditionError(f"{pt.coords} is not regular dominant")
    if not regular and any(c < 1 for c in pt.coords):
        raise PreconditionError(f"{pt.coords} is not dominant")


def _backing(rank: int, p: int) -> str:
    return THEOREM if p > rank + 1 else CONJECTURE


def tilting_support(pt: ShiftedPoint, p: int) -> SupportPrediction:
    """Predicted tilting-module support: the orbit of s(pt) transposed.

    Theorem-backed for p > n+1; for smaller p the same formula is the
    conjectural prediction and a warning is emitted.
    """
    check_p(p)
    _require_integral_dominant(pt, regular=True)
    if p <= pt.rank + 1:
        warnings.warn(
            f"p={p} is at most n+1={pt.rank + 1}: the prediction is conjecture-backed",
            stacklevel=2,
        )
    s = s_partition(pt, p)
    return SupportPrediction(
        point=pt,
        p=p,
        partition=s,
        orbit=orbit_label(transpose(s)),
        backing=_backing(pt.rank, p),
        upper_bound_applicable=p >= pt.rank + 1,
    )


def induced_support(pt: ShiftedPoint, p: int) -> SupportPrediction:
    """Predicted induced-module support: the orbit of d(pt) transposed."""
    check_p(p)
    _require_integral_dominant(pt, regular=False)
    d = d_partition(pt, p)
    return SupportPrediction(
        point=pt,
        p=p,
        partition=d,
        orbit=orbit_label(transpose(d)),
        backing=_backing(pt.rank, p),
        upper_bound_applicable=p >= pt.rank + 1,
    )


def weight_cell_of(pt: ShiftedPoint, p: int) -> Partition:
    """The weight-cell label: the transpose of the s-partition."""
    check_p(p)
    _require_integral_dominant(pt, regular=True)
    return transpose(s_partition(pt, p))


def _mu_coords(
    n: int, p: int, roots: Sequence[RootA], lam_alcove: Alcove
) -> list[Q]:
    """The recursive coordinate construction behind construct_mu.

    Peels the root with the smallest left endpoint, solves the rest, then
    fixes the peeled coordinate so the peeled root's pairing is exactly p
    and chooses the flat prefix value at half its largest feasible bound.
    The window bounds always reference the original outer alcove.
    """
    if not roots:
        return [Q(1, n)] * n
    i1, j1 = roots[0]
    a = _mu_coords(n, p, roots[1:], lam_alcove)
    a[i1 - 1] = p - sum(a[k - 1] for k in range(i1 + 1, j1))
    if i1 == 1:
        return a
    bounds = []
    partial = sum(a[k - 1] for k in range(i1, j1 - 1))
    bounds.append(Q(p - partial, i1 - 1))
    for j in range(j1, n + 2):
        window = 1 if j == j1 else lam_alcove.index_of(RootA(j1, j))
        tail = sum(a[k - 1] for k in range(j1, j))
        bounds.append(Q(window * p - tail, i1 - 1))
    flat = min(bounds) / 2
    for k in range(i1 - 1):
        a[k] = flat
    return a


def construct_mu(pt: ShiftedPoint, good: Iterable[RootA], p: int) -> ShiftedPoint:
    """An exact rational point whose walls carry a good basis' system.

    Given a good basis inside gamma(pt, p), produces mu with pairing
    divisible by p on every root of the generated system, with mu's
    alcove weakly below pt's, and mu regular dominant.  All three
    properties are machine-checked on every call.
    """
    check_p(p)
    basis = frozenset(good)
    if not is_good_basis(basis):
        raise PreconditionError(f"{sorted(basis)} is not a good basis")
    if not basis <= gamma(pt, p):
        raise PreconditionError(f"{sorted(basis)} does not lie inside gamma")
    n = pt.rank
    lam_alcove = alcove_of(pt, p)
    mu = ShiftedPoint(tuple(_mu_coords(n, p, sorted(basis), lam_alcove)))
    step = mu.denominator * p
    pairs = mu.pairing_numerators()
    pos_of = root_position(n)
    for beta in positive_roots_of(basis):
        if pairs[pos_of[beta]] % step:
            raise InvariantViolationError(
                f"pairing at {tuple(beta)} is {mu.pairing(beta)}, not divisible by {p}"
            )
    if not mu.is_regular_dominant():
        raise InvariantViolationError(f"constructed point {mu.coords} left the chamber")
    if not weak_leq(alcove_of(mu, p), lam_alcove):
        raise InvariantViolationError("constructed point's alcove is not weakly below")
    return mu


def facette_lattice_point(f: Facette) -> Optional[ShiftedPoint]:
    """The coordinate-lexicographically smallest integral point of f, if any.

    Integral pairings v are the even codes 2v at step 1: (c - 1) p + 2 up to
    (c + 1) p - 2 in a window of code c, p c on a wall.  _code_families fixes
    the simple roots in coordinate order, ascending, and with even codes each
    other root has the one candidate a + b: the first family is the answer.
    """
    p = f.p
    evens = [range(p * c - (c & 1) * (p - 2), p * c + (c & 1) * (p - 2) + 1, 2) for c in f._codes]
    for codes in _code_families(f.rank, evens):
        sums = (0, *codes[: f.rank])  # the roots (1, j): prefix sums of the coordinates
        return ShiftedPoint(tuple(Q((b - a) // 2) for a, b in zip(sums, sums[1:])))
    return None


def upper_bound_certificate(pt: ShiftedPoint, p: int) -> UpperBoundCertificate:
    """The per-good-basis certificate chain for the tilting upper bound.

    Requires p >= n+1.  Every leg is machine-checked: construct_mu checks
    that p divides the constructed point's pairing on every root of the
    basis' system (so its stabilizer system contains that system) and
    that its alcove is weakly below; here its facette must contain an
    integral point whose d-partition dominates the basis partition, and
    the supremum of basis partitions must reproduce the s-partition.
    """
    check_p(p)
    _require_integral_dominant(pt, regular=True)
    if p < pt.rank + 1:
        raise PreconditionError(
            f"the upper bound requires p >= n+1 = {pt.rank + 1}, got p={p}"
        )
    n = pt.rank
    lam_alcove = alcove_of(pt, p)
    legs = []
    pis = []
    for basis in enumerate_good_bases(gamma(pt, p)):
        mu = construct_mu(pt, basis, p)
        f = facette_of(mu, p)
        mu_prime = facette_lattice_point(f)
        if mu_prime is None:
            raise InvariantViolationError(f"no lattice point in the facette of {mu.coords}")
        if facette_of(mu_prime, p) != f:
            raise InvariantViolationError("lattice point left its facette")
        d_mu = d_partition(mu_prime, p)
        pi = partition_of_basis(basis, n)
        if not dominance_leq(pi, d_mu):
            raise InvariantViolationError(
                f"certificate leg failed: {pi} is not below {d_mu}"
            )
        pis.append(pi)
        legs.append(
            CertificateLeg(
                basis=basis,
                pi=pi,
                mu=mu,
                mu_prime=mu_prime,
                d_mu_prime=d_mu,
                mu_alcove=alcove_of(mu, p),
                lambda_alcove=lam_alcove,
            )
        )
    s = sup(pis)
    if s != s_partition(pt, p):
        raise InvariantViolationError("certificate supremum disagrees with s")
    return UpperBoundCertificate(
        point=pt, p=p, s=s, orbit=orbit_label(transpose(s)), legs=tuple(legs)
    )


def enumerate_cell(
    target: Partition, p: int, box: int
) -> tuple[ShiftedPoint, ...]:
    """All integral regular dominant points in [1, box]^n whose cell is target.

    The rank is read off the target's total; points are listed in
    lexicographic coordinate order.
    """
    check_p(p)
    if not isinstance(box, int) or box < 1:
        raise PreconditionError(f"box must be a positive integer, got {box!r}")
    n = target.total - 1
    if n < 1:
        raise PreconditionError("target must be a partition of n+1 with n >= 1")
    out = []
    for coords in product(range(1, box + 1), repeat=n):
        pt = ShiftedPoint(tuple(Q(c) for c in coords))
        if weight_cell_of(pt, p) == target:
            out.append(pt)
    return tuple(out)
