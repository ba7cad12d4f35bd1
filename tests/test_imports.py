"""Import footprint: the library needs only numpy and scipy.special."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isirate

HEAVY = ("scipy.optimize", "scipy.interpolate", "scipy.linalg", "scipy.fft", "scipy.sparse")


@pytest.mark.parametrize("module", ["isirate", "isirate.cli"])
def test_no_heavy_scipy_modules_on_import(module):
    # a fresh interpreter, since this one has imported SciPy's oracles; it
    # imports the same isirate as the tests
    src = str(Path(isirate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, {module}; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == []
