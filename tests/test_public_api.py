"""Every exported name resolves, and the package re-exports the defining objects.

A deletion that leaves a stale name in an ``__all__`` list, or a package-level
name that has drifted from the module it comes from, fails here.
"""

import importlib
import pkgutil

import pytest

import favard

MODULES = ["favard"] + [f"favard.{m.name}" for m in pkgutil.iter_modules(favard.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__, module
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_all_names_are_unique():
    for module in MODULES:
        names = importlib.import_module(module).__all__
        assert len(names) == len(set(names)), module


def test_package_names_are_the_module_objects():
    for name in favard.__all__:
        if name == "__version__":
            continue
        obj = getattr(favard, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name
        assert name in home.__all__, name
