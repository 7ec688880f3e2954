import json
from pathlib import Path

import pytest

from alcove_cells import sweeps
from alcove_cells.cli import main


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
    "argv",
    [
        ["good-sup", "--n", "2", "--p", "3", "--box", "0"],
        ["mu", "--n", "2", "--p", "3", "--box", "0"],
        ["weak-order", "--n", "2", "--p", "3", "--index-bound", "0"],
    ],
)
def test_verify_empty_window_fails(capsys, argv):
    code, out, _ = run(capsys, ["verify", *argv])
    assert code == 1
    assert "cases=0 failures=1 FAIL" in out
    assert "first failure: empty window" in out
    assert out.endswith("verify: FAIL\n")


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
    monkeypatch.setenv("ALCOVE_CELLS_BFS_BOUND", "1")
    code, _, err = run(capsys, ["verify", "weak-order", "--n", "2", "--p", "3"])
    assert code == 1 and err != ""


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_verify_rejects_a_non_positive_bfs_bound(capsys, bound):
    code, out, err = run(
        capsys, ["verify", "weak-order", "--n", "2", "--p", "3", "--bfs-bound", bound]
    )
    assert code == 2 and out == ""
    assert err == f"alcove-cells: error: --bfs-bound must be positive, got {bound}\n"


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


def test_atlas_refuses_a_box_over_the_point_cap(capsys, monkeypatch):
    import alcove_cells.support

    def fail(*args):
        raise AssertionError("atlas located a point before refusing")

    monkeypatch.setattr(alcove_cells.support, "weight_cell_of", fail)
    code, out, err = run(capsys, ["atlas", "--n", "7", "--p", "5"])
    assert code == 2 and out == ""
    assert "10000000 points" in err and "1000000" in err


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
        "alcove-cells: note: p=5 is at most n+1=5: the prediction is conjecture-backed\n"
    )
    golden = Path(__file__).parent / "golden" / "cell_n4_p5_weight_6_2_9_3.human"
    assert out == golden.read_text(encoding="utf-8")


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
