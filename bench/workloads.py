"""The three benchmark workloads: inputs, the timed item calls, output checks.

Sizes and items are fixed; the seed picks the order in which each pass
visits the items.  Every pass of a run gets the same items, so each item is
timed once per pass, at a different moment of the run.

Every check here runs after the timed loop of its pass has finished, so
the oracles it calls never warm a cache that a timed item uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

N, P = 4, 5
ATLAS_BOX = 10
CERT_COUNT = 120
CERT_MAX = 14
# The certificate weights are one fixed sample; the run's seed only orders
# the visits.  With a new sample per seed, the median certificate's
# good-basis count (its main cost) jumped between 28 and 32, an IQR of 13%
# of the median over 200 seeds, which would hide a real 10% regression.
CERT_DESIGN_SEED = "certificate-weights"
ATLAS_ORACLE_SAMPLE = 200
VERIFY_SUITES = (
    ("lclosure", ["verify", "lclosure", "--n", "3", "--p", "3", "--format", "json"], 100_499),
    (
        "weak-order",
        ["verify", "weak-order", "--n", "3", "--p", "5", "--index-bound", "4", "--format", "json"],
        4_096,
    ),
)
EXPECTED = Path(__file__).with_name("expected_atlas.json")

SIZES = {
    "atlas": {"n": N, "p": P, "box": ATLAS_BOX, "points": ATLAS_BOX**N},
    "certificate": {"n": N, "p": P, "weights": CERT_COUNT, "weight_range": [0, CERT_MAX]},
    "verify": {
        name: {"argv": argv, "cases": cases} for name, argv, cases in VERIFY_SUITES
    },
}


def make_inputs(workload: str) -> list:
    """Plain ints and argv lists for one pass; no alcove_cells object."""
    if workload == "atlas":
        return list(product(range(1, ATLAS_BOX + 1), repeat=N))
    if workload == "certificate":
        return latin_hypercube(random.Random(CERT_DESIGN_SEED), CERT_COUNT, N, CERT_MAX + 1)
    if workload == "verify":
        return [argv for _, argv, _ in VERIFY_SUITES]
    raise ValueError(f"unknown workload {workload!r}")


def visit_order(count: int, seed: int, pass_index: int) -> list[int]:
    """The seeded order in which pass `pass_index` visits the items."""
    order = list(range(count))
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order


def latin_hypercube(rng: random.Random, count: int, dims: int, values: int) -> list:
    """`count` points, each coordinate uniform in range(values).

    Every coordinate takes each value equally often (count / values times
    when it divides), so the sample spreads over the whole cube: certificate
    cost grows with the number of good bases, which depends on the
    coordinates' sizes.
    """
    columns = []
    for _ in range(dims):
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([k * values // count for k in strata])
    return list(zip(*columns))


def items_per_pass(workload: str) -> int:
    """Operations per pass: points, certificates, or suite runs."""
    if workload == "verify":
        return len(VERIFY_SUITES)
    return ATLAS_BOX**N if workload == "atlas" else CERT_COUNT


def work_of(workload: str) -> int:
    """Work units per pass: points, certificates, or sweep cases."""
    if workload == "verify":
        return sum(cases for _, _, cases in VERIFY_SUITES)
    return ATLAS_BOX**N if workload == "atlas" else CERT_COUNT


def item_runner(workload: str):
    """The timed call for one item; everything it does is inside the timing."""
    from alcove_cells import cli, rootsys, support

    if workload == "atlas":

        def run(coords):
            return support.weight_cell_of(rootsys.shifted_point(coords), P)

        return run

    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    if workload == "certificate":
        return lambda weight: run_cli(
            ["certificate", "--n", str(N), "--p", str(P), "--weight",
             ",".join(map(str, weight)), "--format", "json"]
        )
    return run_cli


# -- checks ------------------------------------------------------------------


def _conjugate(parts) -> list[int]:
    return [sum(1 for x in parts if x > k) for k in range(parts[0])] if parts else []


def _pairing(coords, i: int, j: int) -> Fraction:
    return sum((Fraction(c) for c in coords[i - 1 : j - 1]), Fraction(0))


def _roots(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]


def _facette_data(coords, p: int):
    out = []
    for i, j in _roots(len(coords)):
        v = _pairing(coords, i, j)
        out.append(("wall", v // p) if v % p == 0 else ("between", v // p + 1))
    return out


def _alcove_indices(coords, p: int) -> list[int]:
    return [int(_pairing(coords, i, j) // p) + 1 for i, j in _roots(len(coords))]


def check_atlas(inputs, outputs, seed: int, pass_index: int) -> list[str]:
    """Golden labels for every point, plus a seeded oracle re-check."""
    from alcove_cells.cells import s_partition_oracle
    from alcove_cells.partition import Partition
    from alcove_cells.rootsys import shifted_point

    expected = json.loads(EXPECTED.read_text())
    cells, labels = expected["cells"], expected["labels"]
    failures = {}
    for pos, (coords, out) in enumerate(zip(inputs, outputs)):
        if not isinstance(out, Partition):
            failures[pos] = f"point {coords}: {out!r}"
            continue
        golden = cells[int(labels[pos])]
        if ",".join(map(str, out.parts)) != golden:
            failures[pos] = f"point {coords}: cell {out} != golden {golden}"
    counts: dict[str, int] = {}
    for out in outputs:
        if isinstance(out, Partition):
            key = ",".join(map(str, out.parts))
            counts[key] = counts.get(key, 0) + 1
    if counts != expected["counts"] and not failures:
        failures[-1] = f"bucket counts {counts} != golden {expected['counts']}"
    rng = random.Random(f"oracle:{seed}:{pass_index}")
    for pos in rng.sample(range(len(inputs)), ATLAS_ORACLE_SAMPLE):
        out = outputs[pos]
        if pos in failures or not isinstance(out, Partition):
            continue
        want = _conjugate(s_partition_oracle(shifted_point(inputs[pos]), P).parts)
        if list(out.parts) != want:
            failures[pos] = f"point {inputs[pos]}: cell {out} != oracle {want}"
    return list(failures.values())


def check_certificate(inputs, outputs) -> list[str]:
    """Exit 0, s against the brute-force oracle, and every leg's invariants."""
    from alcove_cells.cells import s_partition_oracle
    from alcove_cells.rootsys import point_from_weight

    failures = []
    for weight, out in zip(inputs, outputs):
        try:
            problem = _certificate_problem(weight, out, s_partition_oracle, point_from_weight)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem:
            failures.append(f"weight {weight}: {problem}")
    return failures


def _certificate_problem(weight, out, s_oracle, point_from_weight):
    if not isinstance(out, tuple):
        return f"raised {out!r}"
    code, text = out
    if code != 0:
        return f"exit {code}"
    doc = json.loads(text)
    if doc["input"] != {"weight": list(weight)} or (doc["n"], doc["p"]) != (N, P):
        return "echoed input differs"
    want = list(s_oracle(point_from_weight(weight), P).parts)
    if doc["s"] != want:
        return f"s {doc['s']} != oracle {want}"
    if doc["cell"] != _conjugate(doc["s"]):
        return f"cell {doc['cell']} is not the conjugate of s"
    if not doc["legs"]:
        return "no legs"
    shifted = [w + 1 for w in weight]
    lam = _alcove_indices(shifted, P)
    for leg in doc["legs"]:
        mu = [Fraction(c) for c in leg["mu"]]
        mu_prime = leg["mu_prime"]
        if not all(type(c) is int for c in mu_prime):
            return f"mu_prime {mu_prime} is not integral"
        if _facette_data(mu_prime, P) != _facette_data(mu, P):
            return f"mu_prime {mu_prime} is not in the facette of mu {leg['mu']}"
        if leg["lambda_alcove"] != lam:
            return f"lambda_alcove {leg['lambda_alcove']} != {lam}"
        if leg["mu_alcove"] != _alcove_indices(mu, P):
            return f"mu_alcove {leg['mu_alcove']} is not the alcove of mu"
        if any(a > b for a, b in zip(leg["mu_alcove"], leg["lambda_alcove"])):
            return f"mu_alcove {leg['mu_alcove']} not below {leg['lambda_alcove']}"
    return None


def check_verify(outputs) -> list[str]:
    """Exit 0, ok true, and the exact case count of each suite."""
    failures = []
    for (name, _, cases), out in zip(VERIFY_SUITES, outputs):
        if not isinstance(out, tuple):
            failures.append(f"{name}: raised {out!r}")
            continue
        code, text = out
        try:
            doc = json.loads(text)
            suites = doc["suites"]
            got = [s["cases"] for s in suites]
            ok = doc["ok"] is True and all(s["ok"] is True for s in suites)
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"{name}: malformed output {exc!r}")
            continue
        if code != 0 or not ok:
            failures.append(f"{name}: exit {code} ok={doc.get('ok')}")
        elif got != [cases]:
            failures.append(f"{name}: cases {got} != [{cases}]")
    return failures


def check(workload: str, inputs, outputs, seed: int, pass_index: int) -> list[str]:
    if workload == "atlas":
        return check_atlas(inputs, outputs, seed, pass_index)
    if workload == "certificate":
        return check_certificate(inputs, outputs)
    return check_verify(outputs)
