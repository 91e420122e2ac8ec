"""Every exported name resolves, and the package re-exports the defining objects.

A deletion that leaves a stale name in an ``__all__`` list, or a package-level
name that has drifted from the module it comes from, fails here. The package
loads its names on first access; ``dir``, star imports and a bare import are
checked against that.
"""

import importlib
import pkgutil
import subprocess
import sys

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


def test_dir_lists_every_exported_name():
    assert set(favard.__all__) <= set(dir(favard))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from favard import *", namespace)
    assert set(favard.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        favard.no_such_name


def test_bare_import_loads_no_submodule(src_env):
    # names load on first access: a fresh interpreter's `import favard` imports nothing below it
    script = "import sys, favard; print(sorted(m for m in sys.modules if m.startswith('favard.')))"
    proc = subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
