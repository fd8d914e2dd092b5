"""The package's public surface: every name in ``ellformal.__all__`` resolves,
and importing the package stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellformal


@pytest.mark.parametrize("name", ellformal.__all__)
def test_exported_name_resolves(name):
    assert hasattr(ellformal, name)


def test_import_loads_no_mpmath():
    # mpmath adds tens of ms to an import: only the work that needs it loads it
    paths = (str(Path(ellformal.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys, ellformal; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n")
