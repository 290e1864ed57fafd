"""The package runs on numpy alone, and keeps one clock."""

import os
import re
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


def test_only_the_event_core_keeps_a_clock():
    # One event loop times both the simulator and the cost model's prices.
    package = Path(tilelab.__file__).parent
    importers = sorted(
        path.name
        for path in package.glob("*.py")
        if re.search(r"^\s*(import|from)\s+heapq\b", path.read_text(), re.MULTILINE)
    )
    assert importers == ["timing.py"]
