"""Support-variety predictions and their combinatorial certificates.

The headline outputs: for an integral regular dominant point the
predicted tilting support is the orbit of the transposed s-partition,
and for any integral dominant point the induced-module support is the
orbit of the transposed d-partition.  The certificate pipeline backs the
tilting upper bound: for every good basis inside gamma it constructs an
exact rational point mu whose stabilizer system contains the basis'
system while its alcove stays weakly below, locates an integral point in
mu's facette, and compares partitions; the supremum over the legs is
checked against the all-bases oracle.  mu is computed in one loop on
integer numerators over a denominator fixed up front, the lattice point
is read off its facette's codes in closed form (a fixed quotient by p per
prefix sum, plus the rank of the prefix sum's class of remainders), and
both are located from their prefix numerators, so the module builds no
Fraction at all.  A certificate makes one construct_mu call for all its
legs, which checks the point, reads gamma off its alcove's codes and
tables its windows once, and reads each mu's pairings once for both mu's
facette and mu's alcove; every later step of a leg reads integer tuples
(codes, prefix numerators, parts) and builds each of the leg's records once.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import prod
from operator import le
from typing import Optional

from .alcove import (
    Alcove,
    Facette,
    alcove_of,
    facette_of,
    lower_closure_contains,
)
from .cells import (
    d_partition,
    enumerate_good_bases,
    gamma,
    s_partition,
    s_partition_oracle_of,
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
from .rootsys import (
    RootA,
    ShiftedPoint,
    _located,
    _located_point,
    _Record,
    check_p,
    positive_roots,
    root_position,
)

THEOREM = "theorem"
CONJECTURE = "conjecture"
NO_RESULT = "none"


class SupportPrediction(_Record):
    """A predicted support variety, as a nilpotent orbit label."""

    point: ShiftedPoint
    p: int
    partition: Partition
    orbit: OrbitLabel
    backing: str
    upper_bound_applicable: bool


class CertificateLeg(_Record):
    basis: frozenset[RootA]
    pi: Partition
    mu: ShiftedPoint
    mu_prime: ShiftedPoint
    d_mu_prime: Partition
    mu_alcove: Alcove
    lambda_alcove: Alcove


class UpperBoundCertificate(_Record):
    point: ShiftedPoint
    p: int
    s: Partition
    orbit: OrbitLabel
    legs: tuple[CertificateLeg, ...]


def _require_integral_dominant(pt: ShiftedPoint, regular: bool) -> None:
    """An integral point is dominant (coordinates at least 1) iff it is regular dominant."""
    if not pt.is_integral():
        raise PreconditionError(f"{pt} is not integral")
    if not pt.is_regular_dominant():
        raise PreconditionError(f"{pt} is not {'regular ' if regular else ''}dominant")


def _is_prime(p: int) -> bool:
    """Primality by the strong test to the prime bases up to 41, exact below 3.3e24.

    No composite below 3,317,044,064,679,887,385,961,981 passes it for all
    of these bases (Sorenson and Webster, 2017); from there on the test is
    not proven, and p counts as not prime.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or p >= 3_317_044_064_679_887_385_961_981:
        return False
    if p in bases or any(p % b == 0 for b in bases):
        return p in bases
    odd, twos = p - 1, 0
    while not odd & 1:
        odd, twos = odd >> 1, twos + 1
    for b in bases:
        x = pow(b, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _backing(rank: int, p: int) -> str:
    """The result behind a prediction at rank n: the group SL_{n+1}, of Coxeter number h = n + 1.

    theorem: p prime and p > n + 2, where the source paper proves Humphreys'
    conjecture (for SL_m at p > m + 1).  conjecture: p prime and
    h <= p <= n + 2, inside the conjecture's range p >= h but outside the
    proof's.  none: p composite or p < h, where neither applies.
    """
    if not _is_prime(p) or p < rank + 1:
        return NO_RESULT
    return THEOREM if p > rank + 2 else CONJECTURE


def tilting_support(pt: ShiftedPoint, p: int) -> SupportPrediction:
    """Predicted tilting-module support: the orbit of s(pt) transposed.

    backing names the result behind it (_backing): theorem for prime
    p > n+2, conjecture for prime n+1 <= p <= n+2, none otherwise; the
    formula is the same in all three.
    """
    check_p(p)
    _require_integral_dominant(pt, regular=True)
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


def construct_mu(
    pt: ShiftedPoint, lam: Alcove
) -> list[tuple[frozenset[RootA], ShiftedPoint, Facette, Alcove]]:
    """Exact rational points whose walls carry good bases' systems, located.

    Takes pt with its alcove lam at the level p = lam.p, as the caller
    located it, and builds one mu for every good basis of gamma(pt, p), in
    enumerate_good_bases order.  gamma is read off lam's codes: alpha is in
    gamma iff its index floor(<pt, alpha> / p) + 1 is at least 2, i.e. iff
    its code 2 floor(<pt, alpha> / p) + 1 is at least 3.  Each mu has
    pairing divisible by p on every root of its basis' system, its alcove
    weakly below lam, and is regular dominant; the call returns
    (basis, mu, mu's facette, mu's alcove) per basis, so the caller need not
    locate mu again.  Checked once per call: lam must hold pt in its lower
    closure, i.e. be pt's alcove (an integer loop), and pt must be regular
    dominant.  The three properties of each mu are machine-checked.

    The roots (i, j) of a basis are taken in decreasing left end (a good
    basis has distinct left ends, and its right ends decrease with them),
    starting from the coordinates 1/n.  Each sets a_i so that
    a_i + ... + a_{j-1} = p, then, when i > 1, sets a_1 = ... = a_{i-1} to
    half the least of a_{j-1} / (i - 1) and (w_k p - a_j - ... - a_{k-1}) /
    (i - 1) for k = j, ..., n+1, where w_k = floor(<pt, eps_j - eps_k> / p)
    + 1 is pt's window at (j, k), read from pt's own prefix numerators
    (w_j = 1) and tabled once per call for every (j, k).

    The coordinates are integer numerators a over the one denominator
    D = n * prod 2(i - 1), the product over the basis roots with i > 1.
    Claim: when root (i, j) is reached, every numerator is a multiple of
    M, the product of 2(i' - 1) over the roots (i', j') with i' > 1 not yet
    done, this one included.  At the start every numerator is D / n, the
    full product.  M divides D, so a_i = p D - (a_{i+1} + ... + a_{j-1})
    is a multiple of M, and so is each bound's numerator: a_{j-1}, or
    w_k p D minus a sum of numerators.  Hence the flat value, the least
    numerator // 2(i - 1), is exact and a multiple of M / 2(i - 1), the M
    of the next root.  mu is located from the prefix sums of a over D, so
    no Fraction is built at all.

    mu's pairing numerators v are read once, over step = den(mu) * p: its
    facette code is d = floor(v / step) + ceil(v / step), as facette_of
    computes it, and its alcove code is d | 1 = 2 floor(v / step) + 1, as
    alcove_of computes it.  p divides a pairing iff its facette code is
    even.  Divisibility is checked on the basis roots alone, which is the
    same as checking it on every root of their system: a good basis is a
    union of chains (v_1, v_2), ..., (v_{m-1}, v_m), the system roots are
    the (v_a, v_b) with a < b, each is the sum of the chain roots
    (v_a, v_{a+1}), ..., (v_{b-1}, v_b), and the pairing is additive, so p
    divides it when p divides each summand; the basis is part of the system.
    """
    if not lower_closure_contains(lam, pt):
        raise PreconditionError(f"alcove {lam.indices} is not the alcove of {pt}")
    if not pt.is_regular_dominant():
        raise PreconditionError(f"construct_mu needs a regular dominant point, got {pt}")
    p, n = lam.p, pt.rank
    pos_of = root_position(n)
    num, width = pt._num, pt.denominator * p
    # windows[j - 1] lists w_k p for pt's windows w_k at (j, k), k = j, ..., n + 1
    windows = [tuple([((x - v) // width + 1) * p for x in num[k:]]) for k, v in enumerate(num)]
    g = [r for r, c in zip(positive_roots(n), lam._codes) if c >= 3]
    out = []
    for basis in enumerate_good_bases(g):
        roots = sorted(basis, reverse=True)
        den = n * prod([2 * (i - 1) for i, _ in roots if i > 1])
        a = [den // n] * n
        for i, j in roots:
            a[i - 1] = p * den - sum(a[i : j - 1])
            if i > 1:
                tails = accumulate(a[j - 1 :], initial=0)
                low = min(a[j - 2], *(w * den - t for w, t in zip(windows[j - 1], tails)))
                a[: i - 1] = [low // (2 * (i - 1))] * (i - 1)
        mu = _located_point(tuple(accumulate(a, initial=0)), den)
        step = mu._den * p
        codes = tuple([v // step - (-v // step) for v in mu._pairs])
        for beta in roots:
            if codes[pos_of[beta]] & 1:
                raise InvariantViolationError(
                    f"basis {sorted(basis)}: pairing at {tuple(beta)} is {mu.pairing(beta)}, "
                    f"not divisible by {p}"
                )
        if not mu.is_regular_dominant():
            raise InvariantViolationError(
                f"basis {sorted(basis)}: constructed point {mu} left the chamber"
            )
        mu_alcove = _located(Alcove, rank=n, p=p, _codes=tuple([d | 1 for d in codes]))
        # weak_leq on two alcoves it would accept: both are dominant, as mu and pt are
        if not all(map(le, mu_alcove._codes, lam._codes)):
            raise InvariantViolationError(
                f"basis {sorted(basis)}: constructed point's alcove is not weakly below"
            )
        out.append((basis, mu, _located(Facette, rank=n, p=p, _codes=codes), mu_alcove))
    return out


def facette_lattice_point(f: Facette) -> Optional[ShiftedPoint]:
    """The least integral point of f, below every other in each prefix sum, if any.

    An integral point is its prefix sums X_0 = 0, X_1, ..., X_n, and its
    pairing at the root (i, j) is X_b - X_a, with a = i - 1 < b = j - 1.
    Write X_v = p q_v + r_v with 0 <= r_v < p.  Then X_b - X_a is
    p (q_b - q_a) + (r_b - r_a) with |r_b - r_a| < p, so its code
    2 floor((X_b - X_a) / p) + [p does not divide it] is
    2 (q_b - q_a) + sign(r_b - r_a).  At a = 0, where q_0 = r_0 = 0, the code
    of (1, b + 1) is 2 q_b + [r_b > 0], so q_b is that code // 2, and then
    c_(a+1, b+1) - 2 (q_b - q_a) is the sign of r_b - r_a.  The same reading
    holds for every point of f, rational ones too, with p times the
    fractional parts of X_v / p for r_v: f fixes q, and it orders the nodes
    0, ..., n into classes of equal r, node 0's class lowest (r_0 = 0).

    Hence the integral points of f are exactly X = p q + r over the integer
    r with r_0 = 0 and r_v < p that are equal within each class of f and
    strictly increase from class to class: each such X has f's codes, by
    the same computation.  Such r are closed under componentwise min, and
    the least one gives the k-th class from the bottom the residue k, as r
    climbs by at least 1 per class from r_0 = 0.  It exists iff f has at
    most p classes; at p = 1 a window at any (1, j) already makes two.  The
    least point is below every other integral point of f in each X_v, so it
    is also their coordinate-lexicographic minimum, the coordinates
    X_k - X_{k-1} first differing where the prefix sums do.  Node v's class
    counts the nodes strictly below it, and its rank is that count's rank
    among the distinct counts.  f must be realizable, as Facette checks.
    """
    p, n, codes = f.p, f.rank, f._codes
    q = [0, *[c // 2 for c in codes[:n]]]
    below = [0] * (n + 1)
    # the roots (i, j) in canonical order are the node pairs (i - 1, j - 1) in this order
    for (a, b), c in zip(combinations(range(n + 1), 2), codes):
        sign = c - 2 * (q[b] - q[a])
        if sign:
            below[b if sign > 0 else a] += 1
    counts = sorted(set(below))
    if len(counts) > p:
        return None
    rank = {b: k for k, b in enumerate(counts)}
    return _located_point(tuple([p * v + rank[b] for v, b in zip(q, below)]), 1)


def upper_bound_certificate(pt: ShiftedPoint, p: int) -> UpperBoundCertificate:
    """The per-good-basis certificate chain for the tilting upper bound.

    Requires p >= n+1.  gamma is computed once, for the oracle, pt's alcove
    once, and one construct_mu call enumerates the good bases of gamma, read
    off that alcove's codes, and builds and locates every leg's mu.  Every
    leg is machine-checked: construct_mu checks that p divides the
    constructed point's pairing on every root of the basis' system (so its
    stabilizer system contains that system), that mu is regular dominant
    and that its alcove is weakly below; here its facette must contain an
    integral point whose d-partition dominates the basis partition, and the
    supremum of basis partitions must equal the all-bases oracle's s on the
    same gamma, which checks at this point that good bases suffice.
    """
    check_p(p)
    _require_integral_dominant(pt, regular=True)
    if p < pt.rank + 1:
        raise PreconditionError(
            f"the upper bound requires p >= n+1 = {pt.rank + 1}, got p={p}"
        )
    n = pt.rank
    g = gamma(pt, p)
    lam_alcove = alcove_of(pt, p)
    legs = []
    pis = []
    for basis, mu, f, mu_alcove in construct_mu(pt, lam_alcove):
        mu_prime = facette_lattice_point(f)
        if mu_prime is None:
            raise InvariantViolationError(f"no lattice point in the facette of {mu}")
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
            _located(
                CertificateLeg,
                basis=basis,
                pi=pi,
                mu=mu,
                mu_prime=mu_prime,
                d_mu_prime=d_mu,
                mu_alcove=mu_alcove,
                lambda_alcove=lam_alcove,
            )
        )
    s = sup(pis)
    if s != s_partition_oracle_of(g, n):
        raise InvariantViolationError("certificate supremum disagrees with s")
    return UpperBoundCertificate(
        point=pt, p=p, s=s, orbit=orbit_label(transpose(s)), legs=tuple(legs)
    )
