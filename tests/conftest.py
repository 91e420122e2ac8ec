import os
from pathlib import Path

import pytest


@pytest.fixture
def src_env():
    """The environment of a fresh interpreter that imports ``favard`` from this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
