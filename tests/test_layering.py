"""Layering rules of the package.

Every relative import of the package sits at module level: an import
inside a function hides a dependency from the reader and usually works
round an import cycle; the modules are layered so that none is needed.

Only the finite-population oracle draws random numbers; every other
module is deterministic.

The API is pinned: the exports are the names the package docstring lists,
and a public top-level function or class that no other code of the
package uses is exported.
"""

import ast
import inspect
import re
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


def test_exports_are_the_names_the_package_docstring_lists():
    exported = {
        name for name in samplingdyn.__all__
        if not inspect.ismodule(getattr(samplingdyn, name))
    }
    listed = set(re.findall(r"``([A-Za-z_]\w*)``", samplingdyn.__doc__))
    assert exported == listed, (sorted(exported - listed), sorted(listed - exported))


# the package's API in sorted order: a change here is an API change, which
# CHANGES.md names
EXPORTS = (
    "BasinGrid", "ContractTieRule", "ContractingGame", "CoordinationGame", "DominanceProfile",
    "EmpiricalTrajectory", "Environment", "HawkDoveGame", "LogitResponse", "MinEffortGame",
    "MinEffortResponse", "NormalizationError", "NumericError", "Observation",
    "OriginalGameMatrix", "PureStateClassification", "ResponsePair", "SampleSizeDistribution",
    "SamplingResponse", "Stability", "StableInteriorSearch", "StationaryAnalysis",
    "StationaryState", "TheoremReport", "TieBreak", "Trajectory", "Verdict", "binomial_tail",
    "canonicalize", "check_homogeneous_uniqueness", "check_theorem3", "check_theorem4",
    "classify_pure_states", "contracting_pure_stability", "contracting_response_vector",
    "empirical_response", "estimate_basins", "find_stationary_one_pop",
    "find_stationary_two_pop", "integrate", "integrate_contracting", "label_basins",
    "miscoordination_probability", "normalize_general", "normalize_hawk_dove",
    "normalize_symmetric", "sampling_threshold", "simulate_population",
    "stable_interior_search", "to_dominance", "truncated_expectation",
)


def test_the_export_list_is_pinned():
    # the minimum-effort mixture search is stable_interior_search on a
    # MinEffortResponse, not a name of its own
    exported = sorted(
        name for name in samplingdyn.__all__
        if not inspect.ismodule(getattr(samplingdyn, name))
    )
    assert exported == sorted(EXPORTS) and len(EXPORTS) == 51


def test_no_module_imports_a_private_name_of_analysis():
    # the stability calls and the mixture search are analysis' own; the
    # other modules reach them through its public names
    offenders = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module == "analysis":
                private = [a.name for a in node.names if a.name.startswith("_")]
                if private:
                    offenders[path.name] = private
    assert not offenders, offenders


def _names_used(node: ast.AST) -> set[str]:
    """Every name read, attribute taken or name imported within ``node``."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_every_public_definition_is_used_in_the_package_or_exported():
    # __init__'s re-exports are the exports, not a use
    top_level = [
        (path.name, node)
        for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "__init__.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    used = [_names_used(node) for _, node in top_level]
    unused = [
        f"{module}: {node.name}"
        for i, (module, node) in enumerate(top_level)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in samplingdyn.__all__
        and not any(node.name in names for j, names in enumerate(used) if j != i)
    ]
    assert not unused, unused
