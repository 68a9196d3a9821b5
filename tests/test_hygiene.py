"""Source hygiene checks on the stdlib ast: unused imports and the public API."""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ottofridge

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; names in its __all__ count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_imports_are_found():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert unused_imports(tree) == ["math (line 1)", "path (line 2)"]


def loaded_after_cli_import(module: str, then: str = "") -> bool:
    """Whether a fresh interpreter holds ``module`` after importing
    ottofridge.cli and running the statements ``then``."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import ottofridge.cli\n"
            f"{then}\nprint({module!r} in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return done.stdout.strip() == "True"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize serves only the Nelder-Mead branch and the evolutionary
    # search, which import it when they run
    assert not loaded_after_cli_import("scipy.optimize")


def test_searched_sweep_leaves_scipy_optimize_unloaded():
    # the duration and cold-frequency searches (scaling._brent_max) and the
    # isochore-time search are the package's own
    sweep = ("from ottofridge.scaling import SweepSpec, temperature_sweep; "
             "temperature_sweep(SweepSpec('linear', t_max=1e-1, t_min=1e-1 * 10**-0.05, "
             "allocation='searched', optimize_omega_c=True))")
    assert not loaded_after_cli_import("scipy.optimize", sweep)


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg serves only dgeev, for a map the max-norm does not certify
    # or a spectral radius that is read; the one helper that calls it imports it
    assert not loaded_after_cli_import("scipy.linalg")


def test_every_source_module_is_loaded_before_the_tests():
    # conftest.py imports them all, so Hypothesis mines its constants from
    # the same modules whichever test files are selected
    names = {f"ottofridge.{module.name}" for module in pkgutil.iter_modules(ottofridge.__path__)}
    assert names <= set(sys.modules)


def test_every_public_name_resolves():
    missing = [name for name in ottofridge.__all__ if not hasattr(ottofridge, name)]
    assert missing == []
