"""Every function the benchmark tracer wraps still exists where the tracer looks for it.

``perfbench/tracer.py`` resolves each ``(module, "Class.attr" or "attr", name)``
entry of ``TARGETS`` through the owner's ``__dict__`` when a traced run starts,
so a renamed or removed function would only fail there. This test does the
same lookup, reading the tracer module without installing anything.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path, name", _targets())
def test_target_resolves_to_function(module_name, path, name):
    owner = importlib.import_module(module_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert inspect.isfunction(owner.__dict__.get(attr)), f"{name}: {module_name}.{path} is not a function"
