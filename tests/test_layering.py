"""Layering rules of the package.

Every relative import of the package sits at module level: an import
inside a function hides a dependency from the reader and usually works
round an import cycle; the modules are layered so that none is needed.

Only the finite-population oracle draws random numbers; every other
module is deterministic.
"""

import ast
from pathlib import Path

import samplingdyn

PACKAGE_DIR = Path(samplingdyn.__file__).parent


def _function_level_relative_imports(tree: ast.Module) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found.append(f"{func.name}, line {node.lineno}")
    return found


def test_no_function_level_relative_imports():
    offenders = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found = _function_level_relative_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            offenders[path.name] = found
    assert not offenders, offenders


def _random_module_uses(tree: ast.Module) -> list[str]:
    """Calls into ``np.random``/``numpy.random`` and imports from ``numpy.random``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.startswith(("np.random.", "numpy.random.")):
                found.append(f"{name}, line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            found.append(f"from {node.module} import, line {node.lineno}")
    return found


def test_only_the_oracle_creates_random_generators():
    # a type annotation such as np.random.Generator is not a call
    offenders = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "oracle.py":
            continue
        found = _random_module_uses(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            offenders[path.name] = found
    assert not offenders, offenders
