"""An independent checker for `alcove-cells certificate --format json` documents.

It imports the standard library only, never alcove_cells, and re-derives
every claim of a document from its raw integers and fraction strings, in
the document's own terms: a point is its rho-shifted coordinates, the
pairing of a root (i, j), 1 <= i < j <= n+1, is the sum of coordinates
i, ..., j-1, and roots run in lexicographic order.

check(doc) returns the list of the claims that fail, empty when the
certificate holds.  Per leg: the basis is good (no two roots share a left
end or a right end, and neither contains the other) and lies in Gamma, the
roots whose pairing with lambda is at least p; pi is the basis' chain
shape; mu is regular dominant and p divides its pairing on each basis
root; mu's alcove is the one printed and lies weakly below lambda's,
which is printed on every leg; mu_prime is integral and lies in mu's
facette; d(mu_prime) is the component sizes of the roots on which p
divides mu_prime's pairing; pi is dominated by d(mu_prime).  Completeness:
the legs are exactly the good bases inside Gamma, each once, found by
brute force over the subsets of Gamma; s is the join of the pi, found by
brute force over the partitions of n+1; the cell is the conjugate of s,
and orbit_dim is (n+1)^2 minus the sum of the squared parts of s.
"""

from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm


def _roots(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]


def _pairings(coords, n):
    """(every root's pairing numerator, their denominator): the pairing of
    (i, j) is the difference of the prefix sums at j-1 and i-1."""
    values = [Fraction(c) for c in coords]
    den = lcm(*(c.denominator for c in values))
    prefix = list(accumulate((int(c * den) for c in values), initial=0))
    return [prefix[j - 1] - prefix[i - 1] for i, j in _roots(n)], den


def _alcove(coords, p, n):
    values, den = _pairings(coords, n)
    return [v // (p * den) + 1 for v in values]


def _facette(coords, p, n):
    """Per root ("wall", m) when the pairing is m p, else ("window", index)."""
    values, den = _pairings(coords, n)
    step = p * den
    return [("window", v // step + 1) if v % step else ("wall", v // step) for v in values]


def _is_good(basis):
    for (a, b), (c, d) in combinations(basis, 2):
        if a == c or b == d:
            return False
        if (c <= a and b <= d) or (a <= c and d <= b):
            return False
    return True


def _component_sizes(edges, n):
    """Sizes of the connected components of the graph on nodes 1..n+1, largest first."""
    parent = list(range(n + 2))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    sizes = {}
    for v in range(1, n + 2):
        root = find(v)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values(), reverse=True)


def _dominated(a, b):
    """a <= b in dominance order, prefix sums padded with the total."""
    total = sum(a)
    length = max(len(a), len(b))
    sa = list(accumulate(a)) + [total] * (length - len(a))
    sb = list(accumulate(b)) + [total] * (length - len(b))
    return all(x <= y for x, y in zip(sa, sb))


def _partitions(total, cap=None):
    cap = total if cap is None else cap
    if total == 0:
        yield []
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield [first] + rest


def _join(parts_list, total):
    """The least partition of total dominating every one in parts_list."""
    upper = [q for q in _partitions(total) if all(_dominated(a, q) for a in parts_list)]
    least = [q for q in upper if all(_dominated(q, u) for u in upper)]
    return least[0] if len(least) == 1 else None


def _conjugate(parts):
    return [sum(1 for x in parts if x > k) for k in range(parts[0])]


def _good_bases(gamma, n):
    """Every good basis inside gamma; one has distinct left ends, so at most n roots."""
    pool = sorted(gamma)
    return {
        frozenset(subset)
        for size in range(min(n, len(pool)) + 1)
        for subset in combinations(pool, size)
        if _is_good(subset)
    }


def _input_point(doc):
    given = doc["input"]
    if "weight" in given:
        return [w + 1 for w in given["weight"]]
    return [Fraction(c) for c in given["shifted"]]


def check(doc):
    """The failing claims of one certificate document; empty when it holds."""
    n, p = doc["n"], doc["p"]
    lam = _input_point(doc)
    problems = []
    if len(lam) != n or not all(Fraction(c).denominator == 1 and c >= 1 for c in lam):
        return [f"lambda {lam} is not an integral regular dominant point of rank {n}"]
    lam_alcove = _alcove(lam, p, n)
    gamma = {r for r, v in zip(_roots(n), _pairings(lam, n)[0]) if v >= p}
    seen = set()
    pis = []
    for k, leg in enumerate(doc["legs"]):
        where = f"leg {k}"
        basis = [tuple(r) for r in leg["basis"]]
        key = frozenset(basis)
        if len(key) != len(basis) or key in seen:
            problems.append(f"{where}: basis {basis} repeats a root or a leg")
        seen.add(key)
        if not _is_good(basis):
            problems.append(f"{where}: basis {basis} is not good")
        if not key <= gamma:
            problems.append(f"{where}: basis {basis} leaves Gamma")
        if leg["pi"] != _component_sizes(basis, n):
            problems.append(f"{where}: pi {leg['pi']} is not the chain shape of {basis}")
        mu = [Fraction(c) for c in leg["mu"]]
        if len(mu) != n or not all(c > 0 for c in mu):
            problems.append(f"{where}: mu {leg['mu']} is not regular dominant")
        values, den = _pairings(mu, n)
        pairing = dict(zip(_roots(n), values))
        if any(pairing[r] % (p * den) for r in basis):
            problems.append(f"{where}: p does not divide mu's pairing on every basis root")
        if leg["mu_alcove"] != _alcove(mu, p, n):
            problems.append(f"{where}: mu_alcove {leg['mu_alcove']} is not mu's alcove")
        if leg["lambda_alcove"] != lam_alcove:
            problems.append(f"{where}: lambda_alcove {leg['lambda_alcove']} != {lam_alcove}")
        if any(a > b for a, b in zip(leg["mu_alcove"], lam_alcove)):
            problems.append(f"{where}: mu's alcove is not weakly below lambda's")
        mu_prime = leg["mu_prime"]
        if len(mu_prime) != n or not all(type(c) is int for c in mu_prime):
            problems.append(f"{where}: mu_prime {mu_prime} is not an integral point")
            continue
        if _facette(mu_prime, p, n) != _facette(mu, p, n):
            problems.append(f"{where}: mu_prime {mu_prime} is not in mu's facette")
        walls = [r for r, v in zip(_roots(n), _pairings(mu_prime, n)[0]) if v % p == 0]
        d = _component_sizes(walls, n)
        if leg["d_mu_prime"] != d:
            problems.append(f"{where}: d_mu_prime {leg['d_mu_prime']} != {d}")
        if not _dominated(leg["pi"], d):
            problems.append(f"{where}: pi {leg['pi']} is not dominated by d(mu_prime) {d}")
        pis.append(leg["pi"])
    if seen != _good_bases(gamma, n):
        problems.append("the legs are not exactly the good bases inside Gamma")
    s = _join(pis, n + 1) if pis else None
    if doc["s"] != s:
        problems.append(f"s {doc['s']} is not the join {s} of the legs' pi")
    if doc["cell"] != _conjugate(doc["s"]):
        problems.append(f"cell {doc['cell']} is not the conjugate of s")
    if doc["orbit_dim"] != (n + 1) ** 2 - sum(x * x for x in doc["s"]):
        problems.append(f"orbit_dim {doc['orbit_dim']} does not follow from s")
    return problems
