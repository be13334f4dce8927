"""Every exported name resolves.

Each module's ``__all__`` and the package's re-exports are the public API.
Tools that walk ``__all__`` with ``getattr`` (the benchmark tracer does)
fail on a stale entry, so a deletion must take its export with it.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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
