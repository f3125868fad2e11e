"""Every name in a module's ``__all__`` must exist, and be listed once.

A module without ``__all__`` (``partfusion.workers``) exports nothing to check.
"""

import importlib
import pkgutil
from collections import Counter

import pytest

import partfusion

MODULES = ["partfusion"] + [f"partfusion.{m.name}" for m in pkgutil.iter_modules(partfusion.__path__)]


def test_every_submodule_is_checked():
    assert {"partfusion.data", "partfusion.geometry", "partfusion.protocols", "partfusion.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []
