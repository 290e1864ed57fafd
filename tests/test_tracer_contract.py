"""The benchmark's traced mode keeps working: `perfbench/tracer.py`, loaded
as it is, sees a span for every function it traces and fills each of its
observations from a small ladder, sweep and functional check."""

import importlib.util
import sys
from pathlib import Path

from tilelab import bench, reports
from tilelab.ir import dynamic_schedule
from tilelab.kernels import build_kernel, gelu
from tilelab.machine import MachineConfig, RUNG_ORDER
from tilelab.passes import PipelineSpec, run_pipeline

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_run_fills_every_observation():
    tracing = _load_tracer()
    cfg = MachineConfig()
    spec = gelu(n=1 << 14, tile_elems=1024)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ladder = bench.run_ladder(spec, cfg)
        sweep = bench.run_sweep(spec, (4096, 8192), cfg)
        for report in (ladder, sweep):
            reports.emit_csv(report)
            reports.emit_json(report)
            reports.emit_svg(report)
        failures = [f for rung in RUNG_ORDER for f in bench.functional_check(spec, rung, cfg)]
    finally:
        tracer.uninstall()
    assert failures == []
    assert not hasattr(bench.run_rung, "__wrapped__")

    traced = {name for _, name, _ in tracing.TRACED}
    assert traced <= {span.name for span in tracer.spans}

    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    modules = [run_pipeline(base, PipelineSpec(rung, cfg)) for rung in RUNG_ORDER]
    assert tracer.interp_ops == sum(sum(1 for _ in dynamic_schedule(m)) for m in modules)
    for rung in RUNG_ORDER:
        assert tracer.rung_runs[(spec, cfg, rung)].rung is rung
        assert tracer.ir_ops[(spec, cfg.lanes, cfg.threads, rung)] > 0
    assert tracer.report_bytes > 0
