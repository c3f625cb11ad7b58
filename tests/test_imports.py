"""Every module imports on its own, in a fresh interpreter, so an import cycle
between modules cannot hide behind an import order that happens to work."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import citytrails

MODULES = sorted(f"citytrails.{m.name}" for m in pkgutil.iter_modules(citytrails.__path__))


@pytest.mark.parametrize("module", ["citytrails"] + MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=str(Path(citytrails.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
