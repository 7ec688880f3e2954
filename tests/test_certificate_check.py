"""The standalone certificate checker on the goldens and on seeded certificates.

certificate_check imports the standard library only, which an ast walk
shows; it must accept every certificate golden and every seeded
certificate at ranks 1-5, and refuse documents with one claim broken.
"""

import ast
import contextlib
import copy
import io
import json
import random
from pathlib import Path

import certificate_check
from alcove_cells.cli import main

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"


def _certificate(n, p, weight):
    buf = io.StringIO()
    argv = ["certificate", "--n", str(n), "--p", str(p), "--weight", ",".join(map(str, weight))]
    with contextlib.redirect_stdout(buf):
        assert main([*argv, "--format", "json"]) == 0, argv
    return json.loads(buf.getvalue())


def _seeded_certificates():
    """40 certificates per rank 1-5, at p = n+1, n+2 and the next level up,
    with weights up to 2p so that Gamma ranges from empty to every root."""
    rng = random.Random(14)
    for n in range(1, 6):
        for k in range(40):
            p = n + 1 + k % 3
            yield _certificate(n, p, [rng.randint(0, 2 * p) for _ in range(n)])


def test_the_checker_imports_nothing_from_the_package():
    tree = ast.parse((TESTS / "certificate_check.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"fractions", "itertools", "math"}


def test_the_checker_accepts_every_certificate_golden():
    docs = [json.loads(path.read_text()) for path in sorted(GOLDEN.glob("certificate_*.json"))]
    assert len(docs) == 8
    for doc in docs:
        assert certificate_check.check(doc) == [], doc["input"]
    assert sum(len(doc["legs"]) for doc in docs) > 100


def test_the_checker_accepts_seeded_certificates_at_ranks_one_to_five():
    legs = {}
    for doc in _seeded_certificates():
        assert certificate_check.check(doc) == [], (doc["n"], doc["p"], doc["input"])
        legs[doc["n"]] = legs.get(doc["n"], 0) + len(doc["legs"])
    assert sorted(legs) == [1, 2, 3, 4, 5]
    assert min(legs.values()) >= 40 and legs[5] > 1000


def _broken(doc):
    """Copies of doc with one claim broken each, named."""
    last = len(doc["legs"]) - 1
    edits = {
        "a leg dropped": lambda d: d["legs"].pop(),
        "a leg repeated": lambda d: d["legs"].append(copy.deepcopy(d["legs"][0])),
        "mu_prime moved": lambda d: d["legs"][last]["mu_prime"].__setitem__(0, d["legs"][last]["mu_prime"][0] + 1),
        "mu off the chamber": lambda d: d["legs"][last]["mu"].__setitem__(0, "0"),
        "pi not the chain shape": lambda d: d["legs"][last].__setitem__("pi", d["legs"][0]["d_mu_prime"]),
        "mu_alcove raised": lambda d: d["legs"][last]["mu_alcove"].__setitem__(0, 99),
        "lambda_alcove changed": lambda d: d["legs"][0]["lambda_alcove"].__setitem__(0, 0),
        "d_mu_prime changed": lambda d: d["legs"][last].__setitem__("d_mu_prime", [d["n"] + 1]),
        "s lowered": lambda d: d.__setitem__("s", [1] * (d["n"] + 1)),
        "orbit_dim off by one": lambda d: d.__setitem__("orbit_dim", d["orbit_dim"] + 1),
    }
    for name, edit in edits.items():
        out = copy.deepcopy(doc)
        edit(out)
        yield name, out


def test_the_checker_refuses_each_broken_claim():
    doc = json.loads((GOLDEN / "certificate_n4_p5_weight_6_2_9_3.json").read_text())
    assert certificate_check.check(doc) == []
    last = doc["legs"][-1]
    assert last["pi"] != doc["legs"][0]["d_mu_prime"] and last["d_mu_prime"] != [5]
    assert doc["s"] != [1] * 5
    for name, broken in _broken(doc):
        assert certificate_check.check(broken), name
