"""One schedule per rung run: `bench` lowers each transformed module once,
and the verifier and both executors give the same results on a module and
on its schedule."""

import sys
from types import SimpleNamespace

import pytest

import tilelab.lower as lowering
from tilelab.bench import functional_check, run_rung
from tilelab.ir import TileModule, ops_per_element
from tilelab.kernels import build_kernel, gelu, vec_add_2d
from tilelab.lower import Schedule, lower
from tilelab.machine import MachineConfig, RUNG_ORDER
from tilelab.passes import PipelineSpec, run_pipeline
from tilelab.verifier import verify_module

CFG = MachineConfig()

# The kernels of test_golden.py.
GOLDEN_KERNELS = {
    "vec-add": vec_add_2d(),
    "gelu": gelu(),
    "gelu-fine": gelu(n=1 << 16, tile_elems=1024),
    "vec-add-anchor": vec_add_2d(64, 2048, 8),
    "vec-add-tail": vec_add_2d(rows=10, tile_rows=4),
}


def test_lowering_a_schedule_returns_it():
    m = build_kernel(gelu(n=4096, tile_elems=1024))
    sched = lower(m)
    assert sched.module is m
    assert lower(sched) is sched


@pytest.mark.parametrize("kernel", list(GOLDEN_KERNELS))
def test_golden_kernels_agree_on_their_schedules(verify, kernel):
    base = build_kernel(GOLDEN_KERNELS[kernel], tcm_capacity=CFG.tcm_capacity)
    for rung in RUNG_ORDER:
        assert verify(run_pipeline(base, PipelineSpec(rung, CFG)), CFG) == [], rung


@pytest.mark.parametrize("kernel", list(GOLDEN_KERNELS))
def test_lowered_computes_hold_their_cost_before_any_data_moves(kernel):
    """The simulator's compute cost comes from lowering, not from the first
    evaluation of the expression."""
    base = build_kernel(GOLDEN_KERNELS[kernel], tcm_capacity=CFG.tcm_capacity)
    for rung in RUNG_ORDER:
        sched = lower(run_pipeline(base, PipelineSpec(rung, CFG)))
        computes = [step for step, _ in lowering.walk(sched.body) if step.kind == "compute"]
        assert computes, rung
        for step in computes:
            assert step.fn is None
            assert step.ops_per_element == ops_per_element(step.op.expr), rung


def test_a_module_that_cannot_be_lowered_gets_a_diagnostic():
    m = TileModule("not-an-op", (), (SimpleNamespace(),))
    assert verify_module(m, CFG) == ["body[0]: unknown op namespace()"]


@pytest.fixture
def lowered(monkeypatch):
    """The modules lowered into new schedules, in call order, with `lower`
    wrapped wherever tilelab binds it."""
    built = []
    real = lowering.lower

    def counting(m):
        if not isinstance(m, Schedule):
            built.append(m)
        return real(m)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("tilelab"):
            if getattr(module, "lower", None) is real:
                monkeypatch.setattr(module, "lower", counting)
    return built


@pytest.mark.parametrize("rung", RUNG_ORDER, ids=lambda r: r.value)
def test_a_rung_run_lowers_its_module_once(lowered, rung):
    spec, fresh = gelu(n=1 << 14, tile_elems=1024), gelu(n=1 << 13, tile_elems=1024)
    transformed = [
        run_pipeline(build_kernel(k, tcm_capacity=CFG.tcm_capacity), PipelineSpec(rung, CFG))
        for k in (spec, fresh)
    ]
    run_rung(spec, rung, CFG)
    # The verifier, the simulator and the floor's transfer count share one
    # schedule.
    assert lowered == transformed[:1]
    lowered.clear()
    # A check right after a run of the same triple reuses its schedule.
    assert functional_check(spec, rung, CFG) == []
    assert lowered == []
    assert functional_check(fresh, rung, CFG) == []
    assert lowered == transformed[1:]
