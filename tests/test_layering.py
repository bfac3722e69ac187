"""Every relative import of the package sits at module level.

An import inside a function hides a dependency from the reader and usually
works round an import cycle; the modules are layered so that none is
needed.
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
