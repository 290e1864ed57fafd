from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from tilelab import bench, passes
from tilelab.interp import interpret_functional
from tilelab.ir import Compute, Copy, DmaStart, DmaWait, ForTiles, walk_module
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


def _forget_bench_memos():
    bench._records.clear()
    bench._last_inputs.clear()


@pytest.fixture(autouse=True)
def _fresh_bench_memos():
    """Each test starts with bench's table of runs and its kept inputs
    empty, so what it counts or patches does not depend on the test run
    before it."""
    _forget_bench_memos()


@contextmanager
def _forced_plan(candidate):
    """Every MT rung runs `candidate`'s plan, whatever the cost model picks.
    bench's table of runs and its kept inputs are emptied on entry and on
    exit, so no check reuses a schedule compiled under the other plan."""
    _forget_bench_memos()
    try:
        with mock.patch.object(passes, "choose_composition", lambda m, spec: candidate):
            yield
    finally:
        _forget_bench_memos()


@pytest.fixture(scope="session")
def forced_plan():
    """The forced-plan context manager (see _forced_plan)."""
    return _forced_plan


@pytest.fixture
def verify():
    """verify_module(m, machine), asserting on the way that the verifier,
    the interpreter and the simulator give the same result on the module
    and on its schedule, and that lowering a schedule returns it as it is.
    A module that lowering refuses must get at least one diagnostic.
    Inputs are ones of every declared input buffer's shape."""

    def check(m, machine):
        diags = verify_module(m, machine)
        try:
            sched = lower(m)
        except ValueError as exc:
            assert diags, f"lowering refuses a module the verifier accepts: {exc}"
            return diags
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


def _arm_role(op, ddr, dma_roles):
    """An arm op's role, by kind and direction: a copy or DMA into TCM is a
    prefetch, one into DDR (a buffer of `ddr`) a storeback, and a wait is
    named after the role in `dma_roles` of the DMA its tag belongs to."""
    if isinstance(op, (Copy, DmaStart)):
        return "storeback" if op.dst.base in ddr else "prefetch"
    if isinstance(op, DmaWait):
        return f"{dma_roles[op.tag]} wait"
    return "compute" if isinstance(op, Compute) else type(op).__name__


def _check_arm_order(m):
    """Asserts that every ping/pong arm of m is, in this order and nothing
    else: a wait on each input tile the compute reads, the prefetch of the
    next tile into the opposite buffers, the wait on the storeback issued
    two tiles back, the compute (or its vector body and scalar epilogue, see
    vectorize), and its storeback.  Returns the number of arms."""
    ddr = {d.id for d in m.buffers}
    starts = [op for _, op in walk_module(m) if isinstance(op, DmaStart)]
    dma_roles = {op.tag: _arm_role(op, ddr, {}) for op in starts}
    tag_of = {op.dst.base: op.tag for op in starts}
    arms = [
        arm
        for _, op in walk_module(m)
        if isinstance(op, ForTiles) and op.pong is not None
        for arm in (op.body, op.pong)
    ]
    for arm in arms:
        computes = [op for op in arm if isinstance(op, Compute)]
        reads = list(dict.fromkeys(v.base for v in computes[0].inputs))
        n = len(reads)
        assert [_arm_role(op, ddr, dma_roles) for op in arm] == (
            ["prefetch wait"] * n
            + ["prefetch"] * n
            + ["storeback wait"]
            + ["compute"] * len(computes)
            + ["storeback"]
        )
        assert [op.tag for op in arm[:n]] == [tag_of[base] for base in reads]
        prefetches = arm[n : 2 * n]
        assert all(op.only_if_iv_lt is not None for op in prefetches)
        assert not {op.dst.base for op in prefetches} & set(reads)
        wait, store = arm[2 * n], arm[-1]
        assert wait.tag == store.tag and wait.only_if_iv_ge == 2
        assert {op.output.base for op in computes} == {store.src.base}
    return len(arms)


@pytest.fixture(scope="session")
def arm_order():
    """The double-buffered arm order check (see _check_arm_order)."""
    return _check_arm_order
