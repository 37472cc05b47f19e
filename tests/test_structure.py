"""Module structure: no private imports across modules, no lazy imports but the
oracle's and no import cycle, one place that tells the structure classes apart,
one discord angle search and none in `nonlocality`, a CLI that reads mutual
information from the genuine report, one binomial table, one Kronecker fold,
three builders of an `XState` and one corner-conjugate rule, no grid chunking
in the angle search, one version number, a `sweep` command whose every flag
lands in `SweepSpec` or names the output, no `strict` parameter, and no source
line wider than 109 columns."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symcorr
import symcorr.cli

SRC = Path(__file__).resolve().parents[1] / "src"


def _violations():
    found = set()
    for path in sorted((SRC / "symcorr").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    name = alias.name
                    if name.startswith("_") and not name.endswith("__"):
                        found.add(f"{path.name}:{node.lineno} imports private {node.module}.{name}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if not isinstance(inner, (ast.Import, ast.ImportFrom)):
                        continue
                    if isinstance(inner, ast.ImportFrom) and inner.level == 1 and inner.module == "oracle":
                        continue
                    found.add(f"{path.name}:{inner.lineno} imports inside {node.name}()")
    return sorted(found)


def test_no_private_cross_module_or_function_level_imports():
    assert _violations() == []


_CLASS_CHECKS = ("x_form", "require_permutation_symmetric")


def _class_check_references():
    """(inside symmetric_view, elsewhere) lists of the places in src/ that name a structure-class check."""
    inside, elsewhere = [], []
    for path in sorted((SRC / "symcorr").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        dispatch = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                    and fn.name == "symmetric_view" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in _CLASS_CHECKS:
                (inside if id(node) in dispatch else elsewhere).append(f"{path.name}:{node.lineno} {name}")
    return inside, elsewhere


def test_only_symmetric_view_tells_the_structure_classes_apart():
    """A second X-vs-dense fork would call `x_form` or `require_permutation_symmetric` itself."""
    inside, elsewhere = _class_check_references()
    assert sorted(ref.split()[-1] for ref in inside) == sorted(_CLASS_CHECKS)
    assert elsewhere == []


def test_grid_golden_min_is_the_only_angle_search():
    """Only `optim` names the golden section, so every discord angle search goes through its grid; and no
    module wraps a scalar objective in `np.vectorize`, which builds a ufunc per call."""
    found = []
    for path in sorted((SRC / "symcorr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", getattr(node, "name", None))
            if name == "vectorize" or (name == "golden_section_min" and path.name != "optim.py"):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert found == []


def test_nonlocality_uses_no_numerical_angle_search():
    """The Svetlichny coordinate step is exact, so `nonlocality` imports nothing from `optim`."""
    names = []
    for node in ast.walk(ast.parse((SRC / "symcorr" / "nonlocality.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert [name for name in names if name.split(".")[-1] == "optim"] == []


def test_import_leaves_scipy_optimize_unloaded():
    """`oracle` pulls in scipy.optimize, which is why it is only imported inside functions.

    No other scipy module loads with `import symcorr` either: the X-state
    kernels take their binomials from `qstate.binomials`, built with `math.comb`.
    """
    code = (
        "import sys, symcorr; a = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "import symcorr.oracle; print(a == [], 'scipy.optimize' in sys.modules, a)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[:2] == ["True", "True"], out.stdout


def test_no_source_line_exceeds_109_columns():
    long = [f"{path.name}:{number} has {len(line)}" for path in sorted((SRC / "symcorr").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 109]
    assert long == []


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["version"] == symcorr.__version__


def _relative_import_graph():
    """module -> the package modules it imports relatively, at module or function level."""
    modules = {path.stem for path in (SRC / "symcorr").glob("*.py")}
    graph = {}
    for module in modules:
        edges = graph.setdefault(module, set())
        for node in ast.walk(ast.parse((SRC / "symcorr" / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names if a.name in modules]
                edges.update(targets or ["__init__"])
    return graph


def test_relative_import_graph_is_acyclic():
    graph, done, path = _relative_import_graph(), set(), []

    def visit(module):
        assert module not in path, f"import cycle: {' -> '.join(path[path.index(module):] + [module])}"
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module]):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_rotation_angles_live_in_qstate():
    """Beside `rotation_matrix`, whose angles they tabulate; the old `global_discord` name still resolves."""
    old_home = importlib.import_module("symcorr.global_discord")
    assert symcorr.RotationAngles is old_home.RotationAngles is symcorr.qstate.RotationAngles
    assert symcorr.RotationAngles.__module__ == "symcorr.qstate"


def test_cli_takes_mutual_info_from_the_genuine_report():
    """The CLI names neither the dense per-cut mutual information nor the cut enumeration."""
    tree = ast.parse((SRC / "symcorr" / "cli.py").read_text())
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names & {"mutual_information", "enumerate_cuts"} == set()


def _uses(name):
    """(module, innermost enclosing function or None) of each variable, attribute or imported name in src/
    spelled `name`."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        spelled = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                   else node.name if isinstance(node, ast.alias) else None)
        if spelled == name:
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted((SRC / "symcorr").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def test_binomials_come_from_one_table():
    """`math.comb` is called only to fill `qstate.binomials`, the table every multiplicity is read from."""
    assert set(_uses("comb")) == {("qstate", "binomials")}


def test_no_module_imports_reduce():
    """Kronecker products of per-qubit factors go through `qstate.product_basis`, not `reduce(np.kron)`."""
    assert _uses("reduce") == []


def _calls(name):
    """(module, innermost enclosing function or None, receiver source or None) of each call in src/ of a
    function or method spelled `name`."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == name:
                found.append((module, function, None))
            elif isinstance(callee, ast.Attribute) and callee.attr == name:
                found.append((module, function, ast.unparse(callee.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted((SRC / "symcorr").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def test_x_states_are_built_in_three_places():
    """`XState` is built by `DensityMatrix.from_x`, by `XState.block` and by `x_form`, each validated by
    its constructor; `symmetric_view` builds none, and it and the Svetlichny corner entries, the only
    readers of `x_parts` outside `qstate`, take the held object as it is."""
    assert sorted(_calls("XState")) == [("qstate", "block", None), ("qstate", "from_x", None),
                                        ("xstate", "x_form", None)]
    readers = {use for use in _uses("x_parts") if use[0] != "qstate"}
    assert readers == {("xstate", "symmetric_view"), ("nonlocality", "_antidiagonal_entries")}


def test_the_corner_conjugate_is_written_once():
    """The (c*, c) pair, with its +0j for a real corner, comes from `XState.corner_pair`, which the dense
    build and the Svetlichny corner entries both read."""
    conjugates = [call for name in ("conjugate", "conj") for call in _calls(name) if "corner" in (call[2] or "")]
    assert conjugates == [("qstate", "corner_pair", "corner")]


def test_optim_defines_no_chunk_constant():
    """The angle search hands its whole grid to the objective; a dense objective slices its own scan."""
    tree = ast.parse((SRC / "symcorr" / "optim.py").read_text())
    names = [target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)]
    names += [node.target.id for node in tree.body if isinstance(node, ast.AnnAssign)]
    assert [name for name in names if "CHUNK" in name or "SLICE" in name] == []


def test_every_sweep_flag_lands_in_the_spec():
    """The `sweep` parser's destinations are `SweepSpec`'s fields plus `out` and `command`, so no flag can
    bypass the spec, and with it the sidecar."""
    args = symcorr.cli._build_parser().parse_args(
        ["sweep", "thermo", "--n", "3", "--start", "0", "--stop", "1", "--steps", "2",
         "--measure", "mutual_info", "--out", "unused.csv"])
    assert set(vars(args)) == {f.name for f in dataclasses.fields(symcorr.cli.SweepSpec)} | {"out", "command"}


def test_no_function_takes_a_strict_parameter():
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted((SRC / "symcorr").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and "strict" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
    assert found == []
