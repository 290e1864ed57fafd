"""The package runs on numpy alone, keeps one clock, and its layers import
downward only."""

import ast
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


# The IR, its lowering, both executors, the machine model, the normal form,
# the printer and the verifier: none of them runs a pass, a benchmark, a
# report or the command line.
_CORE = ("ir", "lower", "interp", "sim", "timing", "machine", "normal_form", "printer", "verifier")
_UPPER = {"passes", "bench", "reports", "cli"}


def _runtime_imports(tree):
    """The package's modules that a module's code imports when it runs: every
    import, at the top or in a function, outside `if TYPE_CHECKING:`."""
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom):
            if (node.level == 1 and node.module is None) or node.module == "tilelab":
                names |= {alias.name for alias in node.names}  # from . import passes
            elif node.level == 1:
                names.add(node.module.partition(".")[0])
            elif node.module and node.module.startswith("tilelab."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("tilelab.")}
    return names


def test_the_core_layers_import_no_pass_bench_report_or_cli():
    package = Path(tilelab.__file__).parent
    upward = {
        name: sorted(_runtime_imports(ast.parse((package / f"{name}.py").read_text())) & _UPPER)
        for name in _CORE
    }
    assert upward == dict.fromkeys(_CORE, [])
