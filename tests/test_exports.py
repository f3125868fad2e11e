"""Every name in a module's ``__all__`` must exist, and be listed once.

A module without ``__all__`` (``partfusion.workers``) exports nothing to check.
The package exports exactly the union of its seven library modules' ``__all__``.
"""

import importlib
import pkgutil
import types
from collections import Counter

import pytest

import partfusion

MODULES = ["partfusion"] + [f"partfusion.{m.name}" for m in pkgutil.iter_modules(partfusion.__path__)]
LIBRARY = ["data", "fusion", "geometry", "matching", "protocols", "svm", "synth"]


def test_every_submodule_is_checked():
    assert {"partfusion.data", "partfusion.geometry", "partfusion.protocols", "partfusion.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_the_modules_exports():
    lists = [importlib.import_module(f"partfusion.{m}").__all__ for m in LIBRARY]
    assert partfusion.__all__ == [name for names in lists for name in names]
    owners = Counter(name for names in lists for name in names)
    assert [name for name, count in owners.items() if count > 1] == []


def test_every_public_package_attribute_is_exported():
    public = {
        name
        for name, value in vars(partfusion).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - {"annotations"} == set(partfusion.__all__)
    assert partfusion.write_synth is importlib.import_module("partfusion.synth").write_synth
