"""Byte-for-byte CLI output against the committed corpus in tests/golden/.

Every case runs in all three output formats; the corpus file for a case
and format is ``<case>.<format>`` and holds the exact stdout of a run
that exits 0.  After a deliberate output change, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert render(CASES[case], fmt) == expected


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            (GOLDEN / f"{case}.{fmt}").write_text(render(argv, fmt), encoding="utf-8")
