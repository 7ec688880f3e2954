import ast
import sys
from fractions import Fraction as Q
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import alcove_cells
from alcove_cells.constraints import DifferenceSystem


def test_empty_system_feasible():
    ds = DifferenceSystem(3)
    assert ds.feasible()
    assert ds.witness() is not None


def test_single_window():
    ds = DifferenceSystem(2)
    ds.add_window(0, 1, 0, 5, strict=True)
    w = ds.witness()
    assert w is not None
    assert 0 < w[0] - w[1] < 5


def test_equality_pins_difference():
    ds = DifferenceSystem(2)
    ds.add_equal(0, 1, 7)
    w = ds.witness()
    assert w is not None
    assert w[0] - w[1] == 7


def test_conflicting_equalities_infeasible():
    ds = DifferenceSystem(2)
    ds.add_equal(0, 1, 7)
    ds.add_equal(0, 1, 8)
    assert not ds.feasible()
    assert ds.witness() is None


def test_disjoint_strict_windows_infeasible():
    ds = DifferenceSystem(2)
    ds.add_window(0, 1, 0, 1, strict=True)
    ds.add_window(0, 1, 1, 2, strict=True)
    assert not ds.feasible()


def test_transitive_tightening():
    # x-y < 2, y-z < 3 force x-z < 5; equality at 5 is then infeasible
    ds = DifferenceSystem(3)
    ds.add_upper(0, 1, Q(2), strict=True)
    ds.add_upper(1, 2, Q(3), strict=True)
    ds.add_equal(0, 2, 5)
    assert not ds.feasible()


def test_strict_cycle_infeasible():
    ds = DifferenceSystem(2)
    ds.add_upper(0, 1, Q(0), strict=True)
    ds.add_upper(1, 0, Q(0), strict=True)
    assert not ds.feasible()


def test_weak_zero_cycle_feasible():
    ds = DifferenceSystem(2)
    ds.add_upper(0, 1, Q(0), strict=False)
    ds.add_upper(1, 0, Q(0), strict=False)
    w = ds.witness()
    assert w is not None
    assert w[0] == w[1]


@given(st.data())
@settings(max_examples=200)
def test_witness_satisfies_every_constraint(data):
    size = data.draw(st.integers(min_value=2, max_value=5))
    ds = DifferenceSystem(size)
    constraints = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        i = data.draw(st.integers(min_value=0, max_value=size - 1))
        j = data.draw(st.integers(min_value=0, max_value=size - 1))
        if i == j:
            continue
        lo = data.draw(st.integers(min_value=-6, max_value=6))
        width = data.draw(st.integers(min_value=0, max_value=6))
        strict = data.draw(st.booleans())
        if width == 0 and not strict:
            ds.add_equal(i, j, lo)
            constraints.append((i, j, lo, lo, False))
        else:
            ds.add_window(i, j, lo, lo + width, strict=strict)
            constraints.append((i, j, lo, lo + width, strict))
    w = ds.witness()
    if w is None:
        assert not ds.feasible()
        return
    for i, j, lo, hi, strict in constraints:
        diff = w[i] - w[j]
        if strict:
            assert lo < diff < hi
        else:
            assert lo <= diff <= hi


def test_the_solver_is_loaded_but_only_tests_call_it():
    pkg = Path(alcove_cells.__file__).parent
    assert "alcove_cells.constraints" in sys.modules
    for path in pkg.glob("*.py"):
        if path.name in ("__init__.py", "constraints.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "constraints", path.name
                names = {alias.name for alias in node.names}
                assert not names & {"DifferenceSystem", "_base_system"}, path.name
