"""Numpy is the only runtime dependency: every import in the package is
of the standard library, numpy or the package itself.  Every exported
name exists."""

import ast
import importlib
import sys
from pathlib import Path

import vlcontrast

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "vlcontrast"
ALLOWED_ROOTS = frozenset(sys.stdlib_module_names) | {"numpy", "vlcontrast"}


def _foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import outside ALLOWED_ROOTS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in ALLOWED_ROOTS]
    return found


def test_rule_catches_a_stray_import():
    assert _foreign_imports(
        "import math\nimport numpy.linalg as la\nfrom . import gamma\n"
        "from .gamma import fit_gamma\nfrom scipy.special import gammaln\n"
        "import os, matplotlib.pyplot\n"
    ) == [(5, "scipy.special"), (6, "matplotlib.pyplot")]


def test_package_imports_only_stdlib_numpy_and_itself():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert PACKAGE_DIR / "gamma.py" in modules
    stray = {path.name: _foreign_imports(path.read_text(encoding="utf-8"))
             for path in modules}
    assert {name: found for name, found in stray.items() if found} == {}


def _missing_exports(module) -> list[str]:
    """Names in the module's `__all__` that `getattr` does not find on it."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_every_exported_name_resolves():
    modules = [vlcontrast] + [
        importlib.import_module(f"vlcontrast.{path.stem}")
        for path in sorted(PACKAGE_DIR.glob("*.py")) if not path.stem.startswith("_")]
    exporting = {module.__name__: module for module in modules
                 if hasattr(module, "__all__")}
    assert {"vlcontrast", "vlcontrast.alignment", "vlcontrast.synthgen"} <= set(exporting)
    assert {name: _missing_exports(module) for name, module in exporting.items()} == {
        name: [] for name in exporting}
