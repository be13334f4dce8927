"""Every exported name resolves and has a caller; every import is used.

Each module's ``__all__`` and the package's re-exports are the public API.
Tools that walk ``__all__`` with ``getattr`` (the benchmark tracer does)
fail on a stale entry, so a deletion must take its export with it, and
likewise the imports only it used.  An export that only the tests call is
a test oracle, and it lives in the test that uses it.
"""

import ast
import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import freebeta
from freebeta.errors import FreeBetaError

MODULES = sorted(m.name for m in pkgutil.iter_modules(freebeta.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"freebeta.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


def _imported_names(tree: ast.Module) -> set[str]:
    """The names the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # the package's __init__ is not in MODULES: its imports are re-exports
    module = importlib.import_module(f"freebeta.{name}")
    tree = ast.parse(inspect.getsource(module))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = _imported_names(tree) - used - set(getattr(module, "__all__", ()))
    assert sorted(unused) == []


# the program: the package, the benchmark harness and the demos
CALLER_DIRS = ("src/freebeta", "perfbench", "demos")


@functools.cache
def _loaded_names() -> frozenset[str]:
    """Every name or attribute the program reads, in ``Load`` context."""
    root = Path(__file__).resolve().parent.parent
    names = set()
    for path in (p for d in CALLER_DIRS for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
    return frozenset(names)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller_outside_the_tests(name):
    module = importlib.import_module(f"freebeta.{name}")
    uncalled = set(getattr(module, "__all__", ())) - _loaded_names()
    assert sorted(uncalled) == []


def test_package_reexports_are_exported_by_their_module():
    for attr, value in vars(freebeta).items():
        if attr.startswith("_") or inspect.ismodule(value):
            continue
        home = importlib.import_module(value.__module__)
        assert attr in home.__all__, f"{attr} not in {home.__name__}.__all__"
        assert getattr(home, attr) is value


def test_cli_import_loads_no_scipy():
    """The package runs on numpy alone: importing the CLI loads no scipy."""
    src = os.path.dirname(os.path.dirname(freebeta.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, freebeta.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_errors_are_the_two_the_program_acts_on():
    """errors.py defines the two classes the CLI catches; no other module
    of the package defines an exception class."""
    defined = {}
    for name in MODULES:
        module = importlib.import_module(f"freebeta.{name}")
        for attr, value in vars(module).items():
            if (inspect.isclass(value) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                defined[f"{name}.{attr}"] = value.__bases__
    assert defined == {"errors.FreeBetaError": (ValueError,),
                       "errors.SizeLimitExceeded": (FreeBetaError,)}
