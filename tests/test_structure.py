"""Module structure: no private imports across modules, no lazy imports but the oracle's."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_optimize_unloaded():
    """`oracle` pulls in scipy.optimize, which is why it is only imported inside functions."""
    code = (
        "import sys, symcorr; a = 'scipy.optimize' in sys.modules; "
        "import symcorr.oracle; print(a, 'scipy.optimize' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
