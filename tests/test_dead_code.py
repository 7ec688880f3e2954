"""No dead leftovers in the package: unused imports, unreferenced private helpers,
no module but the kernel and its oracle naming the facette datum format, no
module importing fractions but the points, the oracles and the CLI parser, and
no checked Partition(...) call but the two public constructors from input.

Read with the standard library's ast only.  An import counts as used when
its bound name occurs as a name anywhere in the module.  A module-level
private function or class (one underscore, not a dunder) counts as
referenced when its name occurs, as a name, an attribute or an imported
name, in any file of src/ or tests/ outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import alcove_cells

PACKAGE = Path(alcove_cells.__file__).parent
TESTS = Path(__file__).parent


def _modules():
    """(file name, syntax tree) of each package module but __init__.py."""
    paths = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    return [(path.name, ast.parse(path.read_text())) for path in paths]


def _names(tree):
    """Each occurrence of an identifier used as a name, attribute or import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _imported(tree):
    """Names bound by the module-level imports, except __future__ ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_import_in_the_package_modules():
    unused = []
    for name, tree in _modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {bound}" for bound in _imported(tree) if bound not in used]
    assert not unused


def test_every_private_helper_is_referenced():
    total = Counter()
    for path in [PACKAGE / "__init__.py", *TESTS.glob("*.py")]:
        total += _names(ast.parse(path.read_text()))
    modules = _modules()
    for _, tree in modules:
        total += _names(tree)
    orphans = []
    for module, tree in modules:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__"):
                if total[name] == _names(node)[name]:
                    orphans.append(f"{module}: {name}")
    assert not orphans


def test_only_the_kernel_and_its_oracle_name_the_datum_format():
    # a facette stores codes; Wall / Between data are decoded at the public
    # boundary of alcove.py and read by the difference-system oracle alone
    datum = {"Wall", "Between", "Datum"}
    leaks = [
        f"{module}: {name}"
        for module, tree in _modules()
        if module not in ("alcove.py", "constraints.py")
        for name in sorted(datum & set(_names(tree)))
    ]
    assert not leaks


def test_only_points_oracles_and_the_parser_import_fractions():
    # points decode Fraction coordinates on read (rootsys), the AffineMap
    # oracle builds them (alcove), the difference-system
    # oracle solves over them (constraints) and --shifted parses them (cli);
    # every other module runs on integer numerators
    allowed = {"rootsys.py", "alcove.py", "constraints.py", "cli.py"}
    importers = {
        module
        for module, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
    }
    assert importers - allowed == set()


def test_only_the_public_constructors_call_the_checked_partition():
    # Partition(...) checks its parts; partition() and parse_partition build
    # partitions from outside input, and every partition the package derives
    # (conjugates, joins, component counts, class sizes) is located
    callers = [
        f"{module}: {getattr(top, 'name', '<module>')}"
        for module, tree in _modules()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "Partition" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert sorted(callers) == ["partition.py: parse_partition", "partition.py: partition"]
