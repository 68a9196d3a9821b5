"""Source hygiene checks on the stdlib ast: unused imports and the public API;
and which scipy modules a command loads."""

import ast
import contextlib
import io
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ottofridge
import ottofridge.cli

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
    return done.stdout.strip().splitlines()[-1] == "True"


def run_on(command: str, out: Path, config: dict | None = None, threads: int = 1) -> str:
    """Statements for loaded_after_cli_import that run ``command`` on
    ``config`` (the defaults when None) into ``out`` and check its exit
    status."""
    text = None if config is None else json.dumps(config)
    return (f"assert ottofridge.cli.run_command({command!r}, ottofridge.cli.parse_config("
            f"{text!r}), out={str(out)!r}, threads={threads}) == 0")


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


def test_cli_import_and_config_leave_scipy_unloaded():
    # every scipy module the package uses is imported by the first call that
    # needs it: scipy.special by the first Bessel ramp, scipy.linalg by dgeev
    # and scipy.optimize by Nelder-Mead and the evolutionary search
    assert not loaded_after_cli_import("scipy", "ottofridge.cli.parse_config(None)")


@pytest.mark.parametrize("command", ["critical", "simulate", "sweep"])
def test_commands_on_defaults_leave_scipy_special_unloaded(command, tmp_path):
    # the default cycle and sweep are three-jump: no Bessel ramp is built
    assert not loaded_after_cli_import("scipy.special", run_on(command, tmp_path))


@pytest.mark.parametrize("kind", ["linear", "exponential"])
def test_one_point_bessel_ramp_sweep_loads_scipy_special(kind, tmp_path):
    config = {"sweep": {"schedule": kind, "t_max": 1e-1, "t_min": 1e-1 * 10**-0.05}}
    assert loaded_after_cli_import("scipy.special", run_on("sweep", tmp_path, config))


def test_two_thread_linear_sweep_in_a_fresh_interpreter_writes_the_serial_files(tmp_path):
    # both threads build their first linear ramp before scipy.special is
    # bound, so both may bind it; the files still equal the serial run's
    config = {"sweep": {"schedule": "linear", "t_max": 1e-1, "t_min": 1e-1 * 10**-0.2}}
    threaded, serial = tmp_path / "threaded", tmp_path / "serial"
    assert loaded_after_cli_import("scipy.special", run_on("sweep", threaded, config, threads=2))
    with contextlib.redirect_stdout(io.StringIO()):
        assert ottofridge.cli.run_command("sweep", ottofridge.cli.parse_config(json.dumps(config)),
                                          out=str(serial), threads=1) == 0
    for name in ("sweep.csv", "sweep.dat"):
        assert (threaded / name).read_bytes() == (serial / name).read_bytes()


def test_racing_threads_bind_the_bessel_ufuncs_whole():
    # more threads than cores, with a short switch interval, build their
    # first exponential and linear ramp pairs at once in a fresh
    # interpreter: each finds the ufunc tuples whole and gets the serial maps
    racing = """
import sys, threading
from ottofridge.dynamics import exponential_ramp_pair, linear_ramp_pair
def pairs():
    return exponential_ramp_pair(100.0, 0.3, 40.0), linear_ramp_pair(100.0, 0.1, 40.0)
barrier, got = threading.Barrier(8), []
def build():
    barrier.wait(timeout=30)
    got.append(pairs())
threads = [threading.Thread(target=build) for _ in range(8)]
sys.setswitchinterval(1e-6)
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(0.005)
assert not any(t.is_alive() for t in threads)
assert got == [pairs()] * 8
"""
    assert loaded_after_cli_import("scipy.special", racing)


def test_every_source_module_is_loaded_before_the_tests():
    # conftest.py imports them all, so Hypothesis mines its constants from
    # the same modules whichever test files are selected
    names = {f"ottofridge.{module.name}" for module in pkgutil.iter_modules(ottofridge.__path__)}
    assert names <= set(sys.modules)


def test_every_public_name_resolves():
    missing = [name for name in ottofridge.__all__ if not hasattr(ottofridge, name)]
    assert missing == []
