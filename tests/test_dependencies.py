"""The package runs on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import tilelab


def test_import_loads_no_scipy():
    src = str(Path(tilelab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, tilelab\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
