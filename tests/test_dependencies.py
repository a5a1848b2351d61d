"""Numpy is the only runtime dependency: every import in the package is
of the standard library, numpy or the package itself.  Inside the
package, each module imports only what `PACKAGE_LAYERS` allows it.
Every exported name exists, and a run imports no numpy module it does
not need."""

import ast
import importlib
import os
import subprocess
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


# The package modules each module may import; None allows any.  The
# analysis layers sit under `report`, and `synthgen` shares only
# `alignment` with them, so the generator never depends on the analysis.
PACKAGE_LAYERS = {
    "alignment": set(),
    "gamma": set(),
    "stattests": set(),
    "durations": {"alignment"},
    "features": {"alignment", "gamma", "stattests"},
    "synthgen": {"alignment"},
    "report": {"alignment", "durations", "features", "gamma", "stattests",
               "__version__"},
    "cli": None,
    "__init__": None,
    "__main__": None,
}


def _package_imports(source: str) -> set[str]:
    """The package modules (or, for `from . import name`, the names) that a
    module imports, by relative or absolute import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "vlcontrast":
                    continue
                module = module.removeprefix("vlcontrast").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("vlcontrast.")}
    return found


def test_layer_rule_reads_relative_and_absolute_imports():
    assert _package_imports(
        "import math\nfrom . import __version__, gamma\n"
        "from .alignment import CELLS\nfrom vlcontrast.report import run_analysis\n"
        "import vlcontrast.durations\nfrom numpy import floor\n"
    ) == {"__version__", "gamma", "alignment", "report", "durations"}


def test_package_imports_follow_the_layers():
    modules = {path.stem: path for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert set(modules) == set(PACKAGE_LAYERS)
    breaches = {}
    for name, path in modules.items():
        allowed = PACKAGE_LAYERS[name]
        if allowed is not None:
            extra = _package_imports(path.read_text(encoding="utf-8")) - allowed
            if extra:
                breaches[name] = sorted(extra)
    assert breaches == {}


# A run over a CTM and a TextGrid corpus with a comparison, in a fresh
# interpreter; prints whether numpy.ma was imported.
ANALYSIS_SCRIPT = """
import sys
from pathlib import Path
from vlcontrast.report import AnalysisConfig, CorpusSource, run_analysis
from vlcontrast.synthgen import CellSpec, CorpusSpec, generate_corpus

root = Path(sys.argv[1])
for seed, (cid, fmt) in enumerate((("c", "ctm"), ("t", "textgrid"))):
    spec = CorpusSpec(cid, seed=seed, cells=(CellSpec("a", "short", 6.0, 11.5, 200),
                                             CellSpec("a", "long", 7.0, 17.5, 100)),
                      utterance_size=10, emit_formats=(fmt,))
    (root / cid).mkdir()
    for name, text in generate_corpus(spec).files.items():
        (root / cid / name).write_text(text, encoding="utf-8")
run_analysis(AnalysisConfig(
    corpora=(CorpusSource("c", (str(root / "c"),), "ctm"),
             CorpusSource("t", (str(root / "t"),), "textgrid")),
    output_dir=str(root / "out"), comparisons=(("c", "t"),)))
print("numpy.ma" in sys.modules)
"""


def test_a_run_does_not_import_numpy_ma(tmp_path):
    # importing numpy.ma costs 13-22 ms, and a float np.unique does it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", ANALYSIS_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "t" / "plot_a.csv").is_file()
    assert done.stdout == "False\n"
