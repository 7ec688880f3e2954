"""Byte-for-byte CLI output against the committed corpus in tests/golden/.

Every case runs in all three output formats; the corpus file for a case
and format is ``<case>.<format>`` and holds the exact stdout of a run
that exits 0.  After a deliberate output change, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden.py

The three formats of each case are also parsed and compared field by
field: every field that two formats carry must read the same in both,
and the fields one format lacks are pinned in ONLY_IN.
"""

import contextlib
import csv
import functools
import io
import json
import re
from pathlib import Path

import pytest

from alcove_cells.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("human", "json", "csv")

CASES = {
    "cell_n2_p5_weight_5_5": ["cell", "--n", "2", "--p", "5", "--weight", "5,5"],
    "cell_n2_p3_shifted_10half_9third": [
        "cell", "--n", "2", "--p", "3", "--shifted", "10/2,9/3",
    ],
    "cell_n3_p5_weight_3_1_4": ["cell", "--n", "3", "--p", "5", "--weight", "3,1,4"],
    "cell_n4_p5_weight_6_2_9_3": [
        "cell", "--n", "4", "--p", "5", "--weight", "6,2,9,3",
    ],
    "alcove_n2_p5_shifted_9half_1half": [
        "alcove", "--n", "2", "--p", "5", "--shifted", "9/2,1/2",
    ],
    "alcove_n2_p3_shifted_3_3": ["alcove", "--n", "2", "--p", "3", "--shifted", "3,3"],
    "alcove_n3_p5_shifted_mixed": [
        "alcove", "--n", "3", "--p", "5", "--shifted", "1/3,5/6,7/2",
    ],
    "alcove_n3_p5_shifted_walls": [
        "alcove", "--n", "3", "--p", "5", "--shifted", "5/2,5/2,10/3",
    ],
    "alcove_n2_p4_shifted_nondominant": [
        "alcove", "--n", "2", "--p", "4", "--shifted=-7/2,9/4",
    ],
    "alcove_n3_p4_weight_3_3_3": ["alcove", "--n", "3", "--p", "4", "--weight", "3,3,3"],
    "alcove_n4_p5_shifted_mixed": [
        "alcove", "--n", "4", "--p", "5", "--shifted", "5/2,7/3,11/6,4",
    ],
    "certificate_n1_p2_weight_3": ["certificate", "--n", "1", "--p", "2", "--weight", "3"],
    "certificate_n2_p5_weight_5_5": [
        "certificate", "--n", "2", "--p", "5", "--weight", "5,5",
    ],
    "certificate_n3_p4_shifted_5_3_7": [
        "certificate", "--n", "3", "--p", "4", "--shifted", "5,3,7",
    ],
    "certificate_n3_p5_weight_4_2_6": [
        "certificate", "--n", "3", "--p", "5", "--weight", "4,2,6",
    ],
    "certificate_n4_p5_weight_6_2_9_3": [
        "certificate", "--n", "4", "--p", "5", "--weight", "6,2,9,3",
    ],
    "certificate_n4_p5_weight_9_9_9_9": [
        "certificate", "--n", "4", "--p", "5", "--weight", "9,9,9,9",
    ],
    "certificate_n5_p7_weight_3_9_1_12_5": [
        "certificate", "--n", "5", "--p", "7", "--weight", "3,9,1,12,5",
    ],
    "certificate_n6_p7_weight_1_1_1_1_1_1": [
        "certificate", "--n", "6", "--p", "7", "--weight", "1,1,1,1,1,1",
    ],
    "atlas_n2_p3_box_6": ["atlas", "--n", "2", "--p", "3", "--box", "6"],
    "atlas_n2_p5": ["atlas", "--n", "2", "--p", "5"],
    "atlas_n4_p5_box_3": ["atlas", "--n", "4", "--p", "5", "--box", "3"],
    "atlas_n3_p4_box_5": ["atlas", "--n", "3", "--p", "4", "--box", "5"],
    "verify_lclosure_n2_p3_box_4": [
        "verify", "lclosure", "--n", "2", "--p", "3", "--box", "4",
    ],
    "verify_lclosure_n3_p3": ["verify", "lclosure", "--n", "3", "--p", "3"],
    "verify_lclosure_n3_p5_box_7": [
        "verify", "lclosure", "--n", "3", "--p", "5", "--box", "7",
    ],
    "verify_lclosure_n4_p3_box_3": [
        "verify", "lclosure", "--n", "4", "--p", "3", "--box", "3",
    ],
    "verify_weak_order_n2_p3": ["verify", "weak-order", "--n", "2", "--p", "3"],
    "verify_weak_order_n3_p3_index_bound_5": [
        "verify", "weak-order", "--n", "3", "--p", "3", "--index-bound", "5",
    ],
    "verify_weak_order_n3_p5_index_bound_4": [
        "verify", "weak-order", "--n", "3", "--p", "5", "--index-bound", "4",
    ],
    "verify_weak_order_n4_p3_index_bound_3": [
        "verify", "weak-order", "--n", "4", "--p", "3", "--index-bound", "3",
    ],
    "verify_good_sup_n2_p3_box_6": [
        "verify", "good-sup", "--n", "2", "--p", "3", "--box", "6",
    ],
    "verify_good_sup_n3_p3_box_6": [
        "verify", "good-sup", "--n", "3", "--p", "3", "--box", "6",
    ],
    "verify_reduction_n3_p3_box_4": [
        "verify", "reduction", "--n", "3", "--p", "3", "--box", "4",
    ],
    "verify_reduction_n4_p5_box_10": [
        "verify", "reduction", "--n", "4", "--p", "5", "--box", "10",
    ],
    "verify_mu_n2_p5_box_6": ["verify", "mu", "--n", "2", "--p", "5", "--box", "6"],
    "verify_mu_n3_p3_box_6": ["verify", "mu", "--n", "3", "--p", "3", "--box", "6"],
    "verify_mu_n4_p5_box_6": ["verify", "mu", "--n", "4", "--p", "5", "--box", "6"],
    "verify_lattice_n2_p3_box_4": [
        "verify", "lattice", "--n", "2", "--p", "3", "--box", "4",
    ],
    "verify_lattice_n4_p5_box_7": [
        "verify", "lattice", "--n", "4", "--p", "5", "--box", "7",
    ],
    "verify_all_n2_p2_box_3": ["verify", "all", "--n", "2", "--p", "2", "--box", "3"],
    "verify_all_n2_p5": ["verify", "all", "--n", "2", "--p", "5"],
    "verify_all_n2_p3_box_4": ["verify", "all", "--n", "2", "--p", "3", "--box", "4"],
}


def render(argv: list[str], fmt: str) -> str:
    """Stdout of one CLI run; the run must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--format", fmt])
    if code != 0:
        raise AssertionError(f"{argv} --format {fmt} exited {code}")
    return buf.getvalue()


@functools.cache
def rendered(case: str, fmt: str) -> str:
    """render for a case, run once per process for the golden and parity tests."""
    return render(CASES[case], fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert rendered(case, fmt) == expected


def test_certificate_goldens_replay_in_one_process():
    # forward and then in reverse in one process: each run follows the runs
    # before it, so state one call leaves behind (a module-level cache, the
    # shared parser) must not change another call's bytes
    cases = [case for case in sorted(CASES) if case.startswith("certificate_")]
    runs = [(case, fmt) for case in cases for fmt in FORMATS]
    assert len(runs) == 24
    for case, fmt in runs + runs[::-1]:
        expected = (GOLDEN / f"{case}.{fmt}").read_bytes()
        assert render(CASES[case], fmt).encode("utf-8") == expected, (case, fmt)


def test_corpus_has_no_stray_files():
    expected = {f"{case}.{fmt}" for case in CASES for fmt in FORMATS}
    assert {path.name for path in GOLDEN.iterdir()} == expected


# Today's differences between the formats, pinned: per command, each field
# that not all three formats carry, and the formats that carry it.  A field
# not listed is in all three.  The spellings that differ are read by the
# parsers below, each where it is parsed: atlas writes a partition 2,1 in
# its JSON keys and CSV and 2+1 in human text, where cell and certificate
# write 3+1 in CSV and human text; JSON writes mu_prime as numbers; the
# human text says "none (...)" where CSV writes no row or "-"; verify's
# count of failures is "failed" in JSON and "failures" in CSV and human text.
ONLY_IN = {
    "cell": {
        "input": {"json"},
        "shifted_point": {"human"},
        "upper_bound_certificate_applicable": {"human"},
    },
    "alcove": {
        "input": {"json"},
        "shifted_point": {"human"},
        "roots": {"csv", "human"},
    },
    "certificate": {
        "n": {"json", "human"},
        "p": {"json", "human"},
        "input": {"json"},
        "shifted_point": {"human"},
        "leg_count": {"human"},
        "s": {"json", "human"},
        "cell": {"json", "human"},
        "orbit_dim": {"json", "human"},
    },
    "atlas": {
        "n": {"json", "human"},
        "p": {"json", "human"},
        "box": {"json", "human"},
        "weights": {"human"},
        # (cell, orbit_dim, count) for every partition, empty cells too
        "cells": {"json", "human"},
        # (cell, orbit_dim, weight) for every weight
        "weight_rows": {"json", "csv"},
    },
    "verify": {
        "reports": {"json", "human"},
        "first_failures": {"json", "human"},
        "ok": {"json", "human"},
    },
}

# the human labels that are not their field's name with spaces
LABELS = {"good basis attaining s": "good_basis", "d(mu_prime)": "d_mu_prime", "legs": "leg_count"}


def _roots(text):
    return [] if text == "-" else [[int(x) for x in t.strip("()").split(",")] for t in text.split()]


def _walls(text):
    if text in ("-", "none (interior point)"):
        return []
    return [[*_roots(root)[0], int(m)] for root, m in (t.split("=") for t in text.split())]


def _partition(text, sep="+"):
    return [int(x) for x in text.split(sep)]


def _ints(text):
    return [int(x) for x in text.split()]


TEXT = {
    **dict.fromkeys(["n", "p", "box", "weights", "orbit_dim", "leg_count"], int),
    **dict.fromkeys(["gamma", "roots", "stabilizer_system", "basis"], _roots),
    **dict.fromkeys(["walls", "upper_walls"], _walls),
    **dict.fromkeys(["s", "cell", "d", "pi", "d_mu_prime"], _partition),
    **dict.fromkeys(["alcove", "mu_alcove", "lambda_alcove"], _ints),
    **dict.fromkeys(["mu", "mu_prime", "shifted_point"], lambda text: text.split(",")),
    **dict.fromkeys(["backing", "upper_bound_certificate_applicable"], str),
}


def _read(pairs):
    """Fields from (field, text) pairs; good_basis rows gather into good_bases."""
    doc = {}
    for field, text in pairs:
        if field == "good_basis":
            bases = doc.setdefault("good_bases", [])
            if text != "none (supremum not attained)":
                bases.append(_roots(text))
        else:
            assert field not in doc, field
            doc[field] = TEXT[field](text)
    return doc


def parse_json(command, out):
    doc = json.loads(out)
    if command == "certificate":
        for leg in doc["legs"]:
            leg["mu_prime"] = [str(x) for x in leg["mu_prime"]]
    elif command == "atlas":
        cells = [(_partition(key, ","), c) for key, c in doc.pop("cells").items()]
        doc["cells"] = [[key, c["orbit_dim"], c["count"]] for key, c in cells]
        doc["weight_rows"] = [[key, c["orbit_dim"], w] for key, c in cells for w in c["weights"]]
    elif command == "verify":
        suites = doc.pop("suites")
        doc["suites"] = [[s["name"], s["cases"], s["failed"], s["ok"]] for s in suites]
        doc["reports"] = [s["reports"] for s in suites]
        doc["first_failures"] = [s["failures"][:1] for s in suites]
    return doc


def parse_csv(command, out):
    header, *rows = csv.reader(io.StringIO(out))
    if command == "certificate":
        return {"legs": [_read(zip(header, row)) for row in rows]}
    if command == "atlas":
        assert header == ["cell", "orbit_dim", "weight"]
        return {
            "weight_rows": [
                [_partition(cell, ","), int(dim), [int(x) for x in weight.split(",")]]
                for cell, dim, weight in rows
            ]
        }
    if command == "verify":
        assert header == ["name", "cases", "failures", "ok"]
        return {
            "suites": [[name, int(cases), int(failed), ok == "True"] for name, cases, failed, ok in rows]
        }
    assert header == ["field", "value"]
    doc = _read(rows)
    if command == "cell":
        doc.setdefault("good_bases", [])
    return doc


def parse_human(command, out):
    title, *lines = out.splitlines()
    doc = {key: int(value) for key, value in re.findall(r"  (\w+)=(\d+)", title)}
    if command == "atlas":
        pattern = r"cell (\S+): orbit dim (\d+), (\d+) weights"
        doc["cells"] = [
            [_partition(cell), int(dim), int(count)]
            for cell, dim, count in (re.fullmatch(pattern, line).groups() for line in lines)
        ]
        return doc
    if command == "verify":
        *lines, verdict = [title, *lines]
        assert verdict in ("verify: PASS", "verify: FAIL")
        doc = {"suites": [], "reports": [], "first_failures": [], "ok": verdict == "verify: PASS"}
        for line in lines:
            if line.startswith("  note: "):
                doc["reports"][-1].append(line[len("  note: "):])
            elif line.startswith("  first failure: "):
                doc["first_failures"][-1].append(line[len("  first failure: "):])
            else:
                pattern = r"(.*): cases=(\d+) failures=(\d+) (PASS|FAIL)"
                name, cases, failed, status = re.fullmatch(pattern, line).groups()
                doc["suites"].append([name, int(cases), int(failed), status == "PASS"])
                doc["reports"].append([])
                doc["first_failures"].append([])
        return doc
    pairs, legs = [], []
    for line in lines:
        if line.startswith("  basis "):
            legs.append([("basis", line[len("  basis "):])])
            continue
        label, text = line.strip().split(": ", 1)
        field = LABELS.get(label, label.replace(" ", "_"))
        (legs[-1] if line.startswith("    ") else pairs).append((field, text))
    doc.update(_read(pairs))
    if command == "certificate":
        doc["legs"] = [_read(leg) for leg in legs]
    return doc


PARSERS = {"json": parse_json, "csv": parse_csv, "human": parse_human}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_formats_agree_on_every_field_they_share(case):
    command = CASES[case][0]
    docs = {fmt: PARSERS[fmt](command, rendered(case, fmt)) for fmt in FORMATS}
    only_in = ONLY_IN[command]
    for field in sorted(set(only_in).union(*docs.values())):
        carriers = only_in.get(field, set(FORMATS))
        assert {fmt for fmt in FORMATS if field in docs[fmt]} == carriers, field
        values = {fmt: docs[fmt][field] for fmt in carriers}
        assert all(value == values[min(carriers)] for value in values.values()), (field, values)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            (GOLDEN / f"{case}.{fmt}").write_text(render(argv, fmt), encoding="utf-8")
