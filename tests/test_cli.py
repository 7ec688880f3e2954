import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alcove_cells import alcove, cli, sweeps
from alcove_cells.cli import build_parser, main
from alcove_cells.cells import count_good_bases, gamma
from alcove_cells.partition import partitions_of, transpose
from alcove_cells.rootsys import RootA, point_from_weight, shifted_point
from alcove_cells.support import upper_bound_certificate

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cell_json_schema_and_values(capsys):
    code, out, err = run(
        capsys, ["cell", "--n", "2", "--p", "5", "--weight", "5,5", "--format", "json"]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert sorted(doc) == [
        "backing",
        "cell",
        "gamma",
        "good_bases",
        "input",
        "n",
        "orbit_dim",
        "p",
        "s",
    ]
    assert doc["input"] == {"weight": [5, 5]}
    assert doc["gamma"] == [[1, 2], [1, 3], [2, 3]]
    assert doc["s"] == [3]
    assert doc["cell"] == [1, 1, 1]
    assert doc["orbit_dim"] == 0
    assert doc["backing"] == "theorem"


def test_cell_human_output(capsys):
    code, out, err = run(capsys, ["cell", "--n", "2", "--p", "5", "--weight", "0,0"])
    assert code == 0
    assert "3" in out and "orbit" in out.lower()


def test_cell_shifted_input(capsys):
    code, out, _ = run(
        capsys,
        ["cell", "--n", "2", "--p", "5", "--shifted", "15,3", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == {"shifted": ["15", "3"]}
    assert doc["cell"] == [2, 1]


def test_cell_rejects_wrong_length(capsys):
    code, _, err = run(capsys, ["cell", "--n", "2", "--p", "5", "--weight", "1,2,3"])
    assert code == 2 and err != ""


def test_cell_rejects_non_integer_entry(capsys):
    code, _, err = run(capsys, ["cell", "--n", "2", "--p", "5", "--weight", "1,x"])
    assert code == 2 and err != ""


def test_cell_rejects_non_integral_point(capsys):
    code, _, err = run(capsys, ["cell", "--n", "2", "--p", "5", "--shifted", "9/2,1/2"])
    assert code == 2 and "integral" in err


def test_a_rejected_point_prints_as_coordinates(capsys):
    code, out, err = run(capsys, ["certificate", "--n", "2", "--p", "5", "--shifted", "1/2,3"])
    assert (code, out) == (2, "")
    assert err == "alcove-cells: error: (1/2, 3) is not integral\n"


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_good_sup_failures_print_points_as_coordinates(capsys, monkeypatch, fmt):
    # a gamma holed below (1,3) fails good-sup at every point of the box
    monkeypatch.setattr(sweeps, "gamma", lambda pt, p: frozenset({RootA(2, 3)}))
    argv = ["verify", "good-sup", "--n", "2", "--p", "3", "--box", "3", "--format", fmt]
    code, out, _ = run(capsys, argv)
    assert code == 1 and "Fraction(" not in out
    if fmt == "json":
        (suite,) = json.loads(out)["suites"]
        assert suite["failures"][:2] == [
            "s mismatch at (1, 1): good-basis 1+1+1 brute-force 2+1",
            "gamma at (1, 1) is not an upper ideal: missing [(1, 3)]",
        ]


def test_cell_rejects_irregular_point(capsys):
    code, _, err = run(capsys, ["cell", "--n", "2", "--p", "5", "--shifted", "0,3"])
    assert code == 2 and err != ""


def test_cell_requires_an_input(capsys):
    code, _, err = run(capsys, ["cell", "--n", "2", "--p", "5"])
    assert code == 2 and err != ""


def test_cell_weight_and_shifted_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cell", "--n", "2", "--p", "5", "--weight", "5,5", "--shifted", "1,1"])
    assert exc.value.code == 2


def test_alcove_json(capsys):
    code, out, _ = run(
        capsys,
        ["alcove", "--n", "2", "--p", "5", "--shifted", "9/2,1/2", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alcove"] == [1, 2, 1]
    assert doc["walls"] == [[1, 3, 1]]
    assert doc["upper_walls"] == [[1, 2, 1], [2, 3, 1]]
    assert doc["d"] == [2, 1]


def test_alcove_vertex(capsys):
    code, out, _ = run(
        capsys,
        ["alcove", "--n", "2", "--p", "5", "--shifted", "5,5", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["stabilizer_system"] == [[1, 2], [1, 3], [2, 3]]
    assert doc["d"] == [3]


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, ["verify", "lclosure", "--n", "2", "--p", "3", "--box", "4"])
    assert code == 0
    assert "verify: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "weak-order", "--n", "2", "--p", "3", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["suites"][0]["cases"] > 0 and doc["suites"][0]["failures"] == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lclosure", "--n", "2", "--p", "3", "--box", "0"], "--box must be at least 1, got 0"),
        (["lattice", "--n", "2", "--p", "3", "--box", "0"], "--box must be at least 1, got 0"),
        (["good-sup", "--n", "2", "--p", "3", "--box", "0"], "--box must be at least 1, got 0"),
        (["mu", "--n", "2", "--p", "3", "--box", "0"], "--box must be at least 1, got 0"),
        (["all", "--n", "2", "--p", "3", "--box", "0"], "--box must be at least 1, got 0"),
        # a suite that reads no box still refuses one below 1
        (["weak-order", "--n", "2", "--p", "3", "--box", "0"], "--box must be at least 1"),
        (
            ["weak-order", "--n", "2", "--p", "3", "--index-bound", "0"],
            "--index-bound must be at least 1, got 0",
        ),
        (["lclosure", "--n", "2", "--p", "3", "--index-bound", "-1"], "--index-bound must be"),
        (["good-sup", "--n", "4", "--p", "3", "--box", "-10"], "--box must be at least 1, got -10"),
        (["reduction", "--n", "4", "--p", "3", "--box", "-10"], "--box must be at least 1"),
        (["mu", "--n", "4", "--p", "3", "--box", "-10"], "--box must be at least 1"),
    ],
)
def test_verify_empty_window_fails(capsys, monkeypatch, argv, message):
    # an empty window is refused up front with exit 2, before any sweep runs;
    # the sweeps' own empty-window FAIL is tested in test_sweeps.py
    def fail(*args):
        raise AssertionError("a sweep ran on a window the CLI should refuse")

    for name in ("lclosure", "weak_order", "good_sup", "reduction", "mu", "lattice"):
        monkeypatch.setattr(sweeps, f"{name}_sweep", fail)
    code, out, err = run(capsys, ["verify", *argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"alcove-cells: error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "fmt, line",
    [("human", "demo: cases=0 failures=50 FAIL"), ("csv", "demo,0,50,False"), ("json", None)],
)
def test_verify_reports_every_failure(capsys, monkeypatch, fmt, line):
    def failing(n, p, box):
        res = sweeps.SweepResult("demo")
        for k in range(50):
            res.fail(f"msg {k}")
        return res

    monkeypatch.setattr(sweeps, "lclosure_sweep", failing)
    code, out, _ = run(capsys, ["verify", "lclosure", "--n", "2", "--p", "3", "--format", fmt])
    assert code == 1
    if fmt == "json":
        (suite,) = json.loads(out)["suites"]
        assert suite["failed"] == 50 and len(suite["failures"]) == 20
    else:
        assert line in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["cell", "--weight", "5,5", "--seed", "1"],
        ["alcove", "--weight", "5,5", "--box", "6"],
        ["certificate", "--weight", "5,5", "--bfs-bound", "4"],
        ["verify", "weak-order", "--bfs-bound", "1"],
        ["atlas", "--index-bound", "2"],
        ["atlas", "--seed", "1"],
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "2", "--p", "5"])
    assert exc.value.code == 2


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense", "--n", "2", "--p", "3"])
    assert exc.value.code == 2


def test_verify_resource_limit_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(alcove, "DEFAULT_BFS_BOUND", 1)
    code, _, err = run(capsys, ["verify", "weak-order", "--n", "2", "--p", "3"])
    assert code == 1 and err == "alcove-cells: failure: weak-order BFS exceeded bound 1\n"


def test_atlas_counts_tile_box(capsys):
    code, out, _ = run(
        capsys, ["atlas", "--n", "2", "--p", "3", "--box", "6", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert sum(c["count"] for c in doc["cells"].values()) == 36
    for name, cell in doc["cells"].items():
        assert cell["count"] == len(cell["weights"])
        assert name.replace(",", "").isdigit()


def test_atlas_rejects_empty_box(capsys):
    code, _, err = run(capsys, ["atlas", "--n", "2", "--p", "3", "--box", "0"])
    assert code == 2 and err != ""


def _no_point_located(*args):
    raise AssertionError("atlas located a point before refusing")


def test_atlas_refuses_a_box_over_the_point_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "weight_cell_of", _no_point_located)
    code, out, err = run(capsys, ["atlas", "--n", "7", "--p", "5"])
    assert code == 2 and out == ""
    assert "10000000 points" in err and "1000000" in err


def test_atlas_refuses_a_box_past_the_good_basis_cap_before_any_point(capsys, monkeypatch):
    # one point, (1, ..., 1), well inside the point cap; at p = 2 its gamma
    # holds the 435 roots (i, j) with j - i >= 2 of A_30
    monkeypatch.setattr(cli, "weight_cell_of", _no_point_located)
    code, out, err = run(capsys, ["atlas", "--n", "30", "--p", "2", "--box", "1"])
    assert (code, out) == (2, "")
    assert err == (
        "alcove-cells: error: gamma (435 roots) holds 3814986502092304 good bases, "
        f"above the cap of {cli.GOOD_BASIS_CAP}; lower the weight or --n, or raise --p\n"
    )


def test_the_good_basis_count_refuses_a_large_gamma_quickly():
    # 19,900 roots in gamma: only a count near linear in |gamma| refuses within the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "alcove_cells.cli", "atlas", "--n", "200", "--p", "2", "--box", "1"],
        capture_output=True,
        env=_src_env(),
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "gamma (19900 roots) holds" in proc.stderr and "above the cap" in proc.stderr


def test_verify_lclosure_refuses_a_rank_five_window_quickly():
    # 48,965 facettes x 19^5 points: the refusal comes after the facettes are
    # enumerated and before any point or mask is built
    proc = subprocess.run(
        [sys.executable, "-m", "alcove_cells.cli", "verify", "lclosure", "--n", "5", "--p", "9"],
        capture_output=True,
        env=_src_env(),
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "alcove-cells: error: lclosure would check 121242187535 (facette, point) pairs "
        "(48965 facettes, [0, 18]^5 points), above the cap of 1000000000; "
        "lower --box or --n\n"
    )


def test_the_atlas_corner_bounds_the_good_bases_of_its_whole_box(capsys, monkeypatch):
    # gamma grows with every coordinate, so no point of [1, 4]^3 at p = 3 has
    # more good bases than the corner (4, 4, 4): a cap at the corner's count
    # lets the atlas run, one below refuses it
    n, p, box = 3, 3, 4
    corner = count_good_bases(gamma(shifted_point([box] * n), p))
    box_points = [shifted_point(c) for c in product(range(1, box + 1), repeat=n)]
    assert max(count_good_bases(gamma(pt, p)) for pt in box_points) == corner == 14
    argv = ["atlas", "--n", str(n), "--p", str(p), "--box", str(box)]
    monkeypatch.setattr(cli, "GOOD_BASIS_CAP", corner)
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(cli, "GOOD_BASIS_CAP", corner - 1)
    monkeypatch.setattr(cli, "weight_cell_of", _no_point_located)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and f"holds {corner} good bases" in err


def test_a_human_atlas_run_holds_no_json_document(monkeypatch):
    # every point of a 22,500-point box goes to one cell: the run holds that
    # bucket of weight tuples and no list per weight besides it
    box, cells = 150, partitions_of(3)
    monkeypatch.setattr(cli, "weight_cell_of", lambda pt, p: cells[0])
    argv = ["atlas", "--n", "2", "--p", "5", "--box", str(box)]
    with contextlib.redirect_stdout(_Discard()):
        # the parser and the rank-2 tables, built once per process
        assert main([*argv[:-1], "3"]) == 0
    tracemalloc.start()
    try:
        bucket = list(product(range(box), repeat=2))
        built = tracemalloc.get_traced_memory()[1]
        del bucket
        tracemalloc.reset_peak()
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv) == 0
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the bucket's growth by appends reads about 1.19; a JSON document
    # beside it, about 2.3
    assert run_peak <= 1.5 * built, (run_peak, built)


def test_atlas_deterministic(capsys):
    argv = ["atlas", "--n", "2", "--p", "5", "--box", "8", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_certificate_json(capsys):
    code, out, _ = run(
        capsys,
        ["certificate", "--n", "2", "--p", "5", "--weight", "5,5", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["legs"]) == 5
    assert doc["s"] == [3]
    for leg in doc["legs"]:
        assert set(leg) >= {"basis", "pi", "mu", "mu_prime", "d_mu_prime"}
        assert all(isinstance(c, str) for c in leg["mu"])
        assert all(isinstance(c, int) for c in leg["mu_prime"])


def _seed_certificate_doc(n, p, pt, weight_input):
    """The certificate's document as a dict of lists, before the legs were streamed."""
    cert = upper_bound_certificate(pt, p)
    lam = cert.legs[0].lambda_alcove.indices
    return {
        "n": n,
        "p": p,
        "input": {"weight": list(pt.weight())}
        if weight_input
        else {"shifted": list(pt.coord_strings())},
        "s": list(cert.s.parts),
        "cell": list(transpose(cert.s).parts),
        "orbit_dim": cert.orbit.dim,
        "legs": [
            {
                "basis": [[r.i, r.j] for r in sorted(leg.basis)],
                "pi": list(leg.pi.parts),
                "mu": list(leg.mu.coord_strings()),
                "mu_prime": [c + 1 for c in leg.mu_prime.weight()],
                "d_mu_prime": list(leg.d_mu_prime.parts),
                "mu_alcove": list(leg.mu_alcove.indices),
                "lambda_alcove": list(lam),
            }
            for leg in cert.legs
        ],
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_certificate_json_streams_the_bytes_json_dumps_writes(capsys, n):
    # the legs are written from per-certificate templates; the whole text
    # must be json.dumps(doc, indent=2) of the dict the CLI once built,
    # at p = n+1 (the least p a certificate takes), n+2 and 7
    rng = random.Random(n)
    for p in sorted({n + 1, n + 2, 7}):
        for weight_input in (True, False):
            for _ in range(3):
                coords = [rng.randint(1, 2 * p) for _ in range(n)]
                if weight_input:
                    text = ",".join(str(c - 1) for c in coords)
                    argv = ["--weight", text]
                    pt = point_from_weight([c - 1 for c in coords])
                else:
                    argv = ["--shifted", ",".join(map(str, coords))]
                    pt = shifted_point(coords)
                code, out, err = run(
                    capsys,
                    ["certificate", "--n", str(n), "--p", str(p), *argv, "--format", "json"],
                )
                assert (code, err) == (0, "")
                doc = _seed_certificate_doc(n, p, pt, weight_input)
                assert out == json.dumps(doc, indent=2) + "\n", (n, p, argv)


class _Discard:
    """A stdout that keeps nothing, so only the writer's own memory is traced."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_certificate_json_run_peaks_at_the_certificates_own_memory():
    # 454 legs, 569,086 bytes of JSON: the run holds the certificate and one
    # leg's text at a time, never the whole document
    weight = (6, 9, 4, 10, 5, 8, 7)
    argv = ["certificate", "--n", "7", "--p", "11", "--weight", "6,9,4,10,5,8,7", "--format", "json"]
    with contextlib.redirect_stdout(_Discard()):
        # the parser and the rank-7 root tables, built once per process
        assert main([*argv[:6], "0,0,0,0,0,0,0", "--format", "json"]) == 0
    tracemalloc.start()
    try:
        cert = upper_bound_certificate(point_from_weight(weight), 11)
        built = tracemalloc.get_traced_memory()[1]
        del cert
        tracemalloc.reset_peak()
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv) == 0
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run_peak <= 1.2 * built, (run_peak, built)


CAP_ARGV = {
    # 465 roots, every one in gamma: 14,544,636,039,226,909 good bases,
    # the Catalan number C_31, counted in milliseconds
    "cell": ["cell", "--n", "30", "--p", "2", "--weight", ",".join(["1"] * 30)],
    "certificate": ["certificate", "--n", "30", "--p", "31", "--weight", ",".join(["40"] * 30)],
}


@pytest.mark.parametrize("command", sorted(CAP_ARGV))
def test_a_gamma_over_the_good_basis_cap_is_refused_before_any_basis(capsys, monkeypatch, command):
    def fail(*args):
        raise AssertionError("a good basis was built before the refusal")

    for name in ("enumerate_good_bases", "tilting_support", "upper_bound_certificate"):
        monkeypatch.setattr(cli, name, fail)
    code, out, err = run(capsys, CAP_ARGV[command])
    assert (code, out) == (2, "")
    assert err == (
        "alcove-cells: error: gamma (465 roots) holds 14544636039226909 good bases, "
        f"above the cap of {cli.GOOD_BASIS_CAP}; lower the weight or --n, or raise --p\n"
    )


def test_the_good_basis_cap_is_inclusive_and_the_count_skipped_below_it(capsys, monkeypatch):
    # every root of A_4 is in gamma of (9, 9, 9, 9) at p = 5: 42 good bases
    argv = ["certificate", "--n", "4", "--p", "5", "--weight", "9,9,9,9", "--format", "json"]
    counted = []
    monkeypatch.setattr(cli, "count_good_bases", lambda g: counted.append(g) or 42)
    # 2^10 roots' worth of subsets is within the default cap: nothing is counted
    assert run(capsys, argv)[0] == 0 and counted == []
    monkeypatch.setattr(cli, "GOOD_BASIS_CAP", 42)
    code, out, _ = run(capsys, argv)
    assert code == 0 and len(json.loads(out)["legs"]) == 42 and len(counted) == 1
    monkeypatch.setattr(cli, "GOOD_BASIS_CAP", 41)
    code, out, err = run(capsys, ["cell", *argv[1:]])
    assert (code, out) == (2, "") and "holds 42 good bases, above the cap of 41" in err


def test_certificate_rejects_small_p(capsys):
    code, _, err = run(capsys, ["certificate", "--n", "2", "--p", "2", "--weight", "0,0"])
    assert code == 2 and err != ""


def test_certificate_csv(capsys):
    code, out, _ = run(
        capsys,
        ["certificate", "--n", "2", "--p", "5", "--weight", "1,1", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + one leg
    assert lines[0].split(",")[0] == "basis"


def test_rejects_bad_n(capsys):
    code, _, err = run(capsys, ["cell", "--n", "0", "--p", "5", "--weight", ""])
    assert code == 2 and err != ""


def test_cell_conjecture_caveat_is_a_structured_note(capsys):
    code, out, err = run(capsys, ["cell", "--n", "4", "--p", "5", "--weight", "6,2,9,3"])
    assert code == 0
    assert err == (
        "alcove-cells: note: p=5 is at most n+2=6: the prediction is conjecture-backed\n"
    )
    assert out == (GOLDEN / "cell_n4_p5_weight_6_2_9_3.human").read_text(encoding="utf-8")


CONJECTURE_NOTE = "the prediction is conjecture-backed"
NO_RESULT_NOTE = "no result backs the prediction"


@pytest.mark.parametrize(
    "n, p, weight, backing, note",
    [
        # p = n + 2: inside the conjecture's range, outside the paper's proof
        (3, 5, "3,1,4", "conjecture", f"p=5 is at most n+2=5: {CONJECTURE_NOTE}"),
        # composite p backs nothing, at p = n + 2 or past it
        (2, 4, "1,1", "none", f"p=4 is not a prime of at least n+1=3: {NO_RESULT_NOTE}"),
        (2, 9, "2,2", "none", f"p=9 is not a prime of at least n+1=3: {NO_RESULT_NOTE}"),
        # p < h
        (
            11, 2, "0" + ",0" * 10, "none",
            f"p=2 is not a prime of at least n+1=12: {NO_RESULT_NOTE}",
        ),
    ],
)
def test_cell_names_what_backs_a_prediction_the_paper_does_not_prove(
    capsys, n, p, weight, backing, note
):
    code, out, err = run(capsys, ["cell", "--n", str(n), "--p", str(p), "--weight", weight])
    assert code == 0 and err == f"alcove-cells: note: {note}\n"
    assert f"backing: {backing}\n" in out


def test_theorem_backed_cell_prints_no_note(capsys):
    code, _, err = run(capsys, ["cell", "--n", "2", "--p", "5", "--weight", "5,5"])
    assert code == 0 and err == ""


def test_negative_shifted_value_is_not_taken_for_an_option(capsys):
    joined = run(capsys, ["alcove", "--n", "2", "--p", "4", "--shifted=-7/2,9/4"])
    spaced = run(capsys, ["alcove", "--n", "2", "--p", "4", "--shifted", "-7/2,9/4"])
    assert joined[0] == 0 and "shifted point: -7/2,9/4" in joined[1]
    assert spaced == joined


def test_negative_weight_value_reaches_the_domain_check(capsys):
    code, out, err = run(capsys, ["cell", "--n", "2", "--p", "5", "--weight", "-1,2"])
    assert code == 2 and out == ""
    assert err == "alcove-cells: error: weight (-1, 2) is not dominant\n"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["cell", "--n", "2", "--p", "5", "--weight", "5,5"], "cell_n2_p5_weight_5_5"),
        (
            ["alcove", "--n", "2", "--p", "4", "--shifted", "-7/2,9/4"],
            "alcove_n2_p4_shifted_nondominant",
        ),
    ],
)
def test_module_entry_point_matches_golden(argv, golden):
    proc = subprocess.run(
        [sys.executable, "-m", "alcove_cells.cli", *argv],
        capture_output=True,
        env=_src_env(),
        check=False,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{golden}.human").read_bytes()


def test_runs_share_no_state_through_the_cached_parser(capsys):
    argv = ["verify", "good-sup", "--n", "2", "--p", "3"]
    assert run(capsys, [*argv, "--box", "4", "--seed", "3"])[0] == 0
    after = run(capsys, argv)
    assert after[0] == 0 and after[1].startswith("good-sup n=2 p=3 box=6: ")
    build_parser.cache_clear()
    assert run(capsys, argv) == after


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_a_certificate_run_builds_no_fraction(capsys, monkeypatch, fmt):
    # mu and mu' are printed from their prefix numerators, and every leg runs
    # on integers, so an integral weight builds no Fraction from input to output
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    argv = ["certificate", "--n", "4", "--p", "5", "--weight", "9,9,9,9", "--format", fmt]
    assert main(argv) == 0
    assert "mu" in capsys.readouterr().out
    assert built == []
    Fraction(1, 2)
    assert len(built) == 1


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh process, so the import is part of its run time;
    # dataclasses pulls in inspect, ast, dis and tokenize, csv is loaded only
    # by --format csv, and json (with json.decoder, json.scanner and _json)
    # only by the first JSON write
    probe = (
        "import sys; bare = set(sys.modules); import alcove_cells.cli; "
        "print(sorted({'csv', 'dataclasses', 'inspect', 'json'} & (set(sys.modules) - bare)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=_src_env(), check=True, text=True
    )
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_a_closed_stdout_ends_the_run_quietly_with_status_141(fmt):
    # the read end is closed before the child starts, so its first write (or
    # the flush main makes) meets EPIPE: no traceback, no "Exception ignored"
    argv = ["certificate", "--n", "4", "--p", "5", "--weight", "9,3,12,7", "--format", fmt]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "alcove_cells.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_src_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


ENTRIES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "x", "1/0", "--1", "3/", "nan", "inf", "1_0"]),  # malformed
    st.sampled_from(["9" * 40, "-" + "9" * 40, "9" * 5000, "1e5000", "1/" + "7" * 40]),  # huge
    st.sampled_from(["7/2", "-3/4", "10/3", "9/6"]),  # fractional
    st.sampled_from(["1.5", "-0.25", "2e3", "1.0"]),  # float
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["cell", "alcove", "verify", "atlas", "certificate"]))
    # the second strategy of each pair puts most runs past the n >= 1, p >= 1 check
    n = draw(st.integers(-1, 3) | st.integers(1, 3))
    argv = [command, "--n", str(n), "--p", str(draw(st.integers(-2, 9) | st.integers(1, 9)))]
    if command == "verify":
        argv[1:1] = [draw(st.sampled_from(cli.SUITES))]
        argv += ["--index-bound", str(draw(st.integers(-1, 3)))]
    if command in ("verify", "atlas"):
        # windows stay small: the default box of 2p reaches 18 at p = 9
        argv += ["--box", str(draw(st.integers(-1, 3)))]
    else:
        # mostly --weight, n entries and integers, so that most runs reach a report
        option = draw(st.sampled_from(["--weight", "--weight", "--shifted", None]))
        if option:
            size = draw(st.sampled_from([max(n, 0)] * 4 + [0, 4]))
            entry = st.one_of(st.integers(0, 12).map(str), st.integers(0, 12).map(str), ENTRIES)
            argv += [option, ",".join(draw(st.lists(entry, min_size=size, max_size=size)))]
    return [*argv, "--format", draw(st.sampled_from(["human", "json", "csv"]))]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argvs())
# numbers past the interpreter's default 4300-digit int-to-text limit
@example(["alcove", "--n", "1", "--p", "2", "--shifted", "1e5000", "--format", "human"])
@example(["alcove", "--n", "1", "--p", "2", "--weight", "9" * 4300, "--format", "json"])
@example(["certificate", "--n", "2", "--p", "3", "--weight", "9" * 5000 + ",0", "--format", "csv"])
def test_every_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and argv[-1] == "json":
        json.loads(out.getvalue())
    elif code == 0 and argv[-1] == "csv":
        header, *rows = csv.reader(io.StringIO(out.getvalue()), strict=True)
        assert all(len(row) == len(header) for row in rows), argv
