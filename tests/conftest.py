import numpy as np
import pytest

from tilelab.interp import interpret_functional
from tilelab.lower import lower
from tilelab.sim import simulate_timed
from tilelab.verifier import verify_module

_RESULTS: dict[str, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion metadata for the summary"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, title = marker.args
    if report.when == "call":
        _RESULTS[num] = (title, "PASS" if report.passed else "FAIL")
    elif report.when == "setup" and report.failed:
        _RESULTS[num] = (title, "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS, key=int):
        title, verdict = _RESULTS[num]
        terminalreporter.write_line(f"criterion {num}: {verdict} - {title}")


def _outcome(run):
    """Output bytes and timing of an executor run, or its error."""
    try:
        result = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    outputs, timing = result if isinstance(result, tuple) else (result, None)
    return {name: array.tobytes() for name, array in outputs.items()}, timing


@pytest.fixture
def verify():
    """verify_module(m, machine), asserting on the way that the verifier,
    the interpreter and the simulator give the same result on the module
    and on its schedule, and that lowering a schedule returns it as it is.
    Inputs are ones of every declared input buffer's shape."""

    def check(m, machine):
        diags = verify_module(m, machine)
        sched = lower(m)
        assert lower(sched) is sched
        assert verify_module(sched, machine) == diags
        inputs = {
            d.id: np.ones((d.rows, d.cols), np.float32)
            for d in m.buffers
            if d.id not in sched.written
        }
        for run in (
            lambda x: interpret_functional(x, inputs),
            lambda x: simulate_timed(x, inputs, machine),
        ):
            assert _outcome(lambda: run(m)) == _outcome(lambda: run(sched))
        return diags

    return check
