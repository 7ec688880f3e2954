import ast
import sys
from fractions import Fraction as Q
from itertools import product
from math import lcm
from pathlib import Path

import pytest
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


def _grid_solution_exists(size, constraints):
    """Search the grid (1/K)Z, K = size + 1, with x_0 = 0, for a solution
    of the constraints ((i, j), c, strict): x_i - x_j < c, or <= c.

    Integer bounds c in [-2, 2]: if the system is feasible, so is the one
    with each strict c replaced by the weak c - 1/K (a simple cycle has at
    most size < K strict steps, and its bounds sum to an integer), and the
    shortest-path solution of that system lies on the grid within
    (size - 1) * (2 + 1/K) of x_0.
    """
    k = size + 1
    reach = (size - 1) * (2 * k + 1)
    scaled = [(i, j, c * k, strict) for (i, j), c, strict in constraints]
    for rest in product(range(-reach, reach + 1), repeat=size - 1):
        t = (0,) + rest
        if all(t[i] - t[j] < c if strict else t[i] - t[j] <= c for i, j, c, strict in scaled):
            return True
    return False


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_feasibility_matches_a_grid_search(data):
    size = data.draw(st.integers(min_value=2, max_value=3))
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    constraints = data.draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(-2, 2), st.booleans()),
            max_size=2 * size,
        )
    )
    ds = DifferenceSystem(size)
    for (i, j), c, strict in constraints:
        ds.add_upper(i, j, c, strict)
    found = _grid_solution_exists(size, constraints)
    assert ds.feasible() == found, constraints
    assert (ds.witness() is not None) == found


def _strict_cycle(size, slack):
    """Bounds of the cycle x_0 - x_1 < c_0, ..., x_{size-1} - x_0 < c_{size-1}:
    c_k = (k + 1) / (k + 2) for k < size - 1, and a last bound that makes
    them sum to slack / D, D = lcm(2, ..., size + 1)."""
    head = [Q(k + 1, k + 2) for k in range(size - 1)]
    den = lcm(*(k + 2 for k in range(size)))
    return head + [Q(slack, den) - sum(head)], den


@pytest.mark.parametrize("size", [2, 3, 4, 5])
@pytest.mark.parametrize("close_midway", [False, True])
def test_strict_cycle_with_mixed_denominators_at_the_boundary(size, close_midway):
    for slack, feasible in ((1, True), (0, False)):
        bounds, den = _strict_cycle(size, slack)
        if slack:  # a sum of 1/D makes D the common denominator
            assert lcm(*(c.denominator for c in bounds)) == den
        ds = DifferenceSystem(size)
        for k, c in enumerate(bounds):
            ds.add_upper(k, (k + 1) % size, c, strict=True)
            if close_midway:
                ds.feasible()
        assert ds.feasible() == feasible, (size, slack)
        w = ds.witness()
        assert (w is not None) == feasible
        if w is not None:
            for k, c in enumerate(bounds):
                assert w[k] - w[(k + 1) % size] < c


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
