"""Timed simulator: cost model, determinism, oracle equality, floors."""

import numpy as np
import pytest

from tilelab.bench import run_rung
from tilelab.interp import interpret_functional
from tilelab.ir import (
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    Binary,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    ForTiles,
    Input,
    MemSpace,
    TileModule,
    ViewRef,
    full_view,
)
from tilelab.kernels import (
    build_kernel,
    build_vec_add_2d,
    gelu,
    make_inputs,
    vec_add_2d,
)
from tilelab.machine import LadderRung, MachineConfig, RUNG_ORDER, collect_stats, latency_lower_bound
from tilelab.passes import (
    PipelineSpec,
    form_async_threads,
    form_virtual_threads,
    run_pipeline,
    vectorize,
)
from tilelab.sim import DeadlockError, simulate_timed
from tilelab.timing import AWAIT, BUSY, FORK, Core
from tilelab.verifier import verify_module

CFG = MachineConfig()


def _copy_module(elems: int) -> TileModule:
    t = BufferDecl("t", MemSpace.TCM, 1, elems)
    return TileModule(
        "one-copy",
        (BufferDecl("X", MemSpace.DDR, 1, elems),),
        (AllocTcm(t), Copy(src=ViewRef("X", 0, 0, 1, elems), dst=full_view(t)), DeallocTcm("t")),
    )


def _compute_module(elems: int, vector_factor: int) -> TileModule:
    t_in = BufferDecl("a", MemSpace.TCM, 1, elems)
    t_out = BufferDecl("b", MemSpace.TCM, 1, elems)
    # Expression add(in0, in0) has 3 nodes; +1 store = 4 ops per element.
    from tilelab.ir import Binary

    expr = Binary("add", Input(0), Input(0))
    return TileModule(
        "one-compute",
        (
            BufferDecl("X", MemSpace.DDR, 1, elems),
            BufferDecl("Y", MemSpace.DDR, 1, elems),
        ),
        (
            AllocTcm(t_in),
            Copy(src=ViewRef("X", 0, 0, 1, elems), dst=full_view(t_in)),
            AllocTcm(t_out),
            Compute((full_view(t_in),), full_view(t_out), expr, vector_factor=vector_factor),
            Copy(src=full_view(t_out), dst=ViewRef("Y", 0, 0, 1, elems)),
            DeallocTcm("a"),
            DeallocTcm("b"),
        ),
    )


def test_synchronous_copy_cost():
    x = {"X": np.zeros((1, 1024), np.float32)}
    _, at_bw8 = simulate_timed(_copy_module(1024), x, MachineConfig(dma_bandwidth=8))
    assert at_bw8.total_cycles == 64 + 4096 // 8  # 576
    _, at_default = simulate_timed(_copy_module(1024), x, CFG)
    assert at_default.total_cycles == 64 + 4096 // 512  # 72
    assert at_bw8.dma_busy_cycles == 576
    assert at_bw8.stall_cycles == 576


def test_compute_cost_scalar_and_vector():
    x = {"X": np.zeros((1, 1024), np.float32)}
    _, scalar = simulate_timed(_compute_module(1024, 1), x, CFG)
    _, vec = simulate_timed(_compute_module(1024, 32), x, CFG)
    assert scalar.compute_busy_cycles == 1024 * 4  # 4096
    assert vec.compute_busy_cycles == (1024 // 32) * 4  # 128
    assert scalar.compute_busy_cycles / vec.compute_busy_cycles == 32.0


def test_empty_module_is_free():
    _, report = simulate_timed(TileModule("empty", (), ()), {}, CFG)
    assert report.total_cycles == 0
    assert report.total_us == 0.0


def test_determinism_bit_for_bit():
    spec = vec_add_2d()
    m = run_pipeline(
        build_vec_add_2d(spec, tcm_capacity=CFG.tcm_capacity),
        PipelineSpec(LadderRung.VEC_MT_DB, CFG),
    )
    inputs = make_inputs(spec)
    out1, rep1 = simulate_timed(m, inputs, CFG)
    out2, rep2 = simulate_timed(m, inputs, CFG)
    assert rep1 == rep2
    for name in out1:
        assert np.array_equal(out1[name], out2[name])


@pytest.mark.parametrize("kind", ["vec-add-2d", "gelu"])
@pytest.mark.parametrize("rung", RUNG_ORDER)
def test_simulator_equals_interpreter(kind, rung):
    spec = vec_add_2d() if kind == "vec-add-2d" else gelu(n=262144)
    base = build_kernel(spec, tcm_capacity=CFG.tcm_capacity)
    m = run_pipeline(base, PipelineSpec(rung, CFG))
    inputs = make_inputs(spec)
    sim_out, report = simulate_timed(m, inputs, CFG)
    interp_out = interpret_functional(m, inputs)
    for name in interp_out:
        assert np.array_equal(sim_out[name], interp_out[name])
    stats = collect_stats(base)
    assert report.total_cycles >= latency_lower_bound(stats, CFG, rung)


@pytest.mark.parametrize(
    "cfg, cycles, floor",
    [(CFG, 1344, 608), (MachineConfig(lanes=8, threads=3), 4184, 3243)],
)
def test_db_mt_floor_uses_the_rows_it_forks_over(cfg, cycles, floor):
    # One GELU tile of 8 rows: vec-mt-db may split it into up to 8 sub-tiles
    # for per-thread pipelines, so the floor must divide compute by
    # min(threads, 8), not by the tile count.
    spec = gelu(n=4096, tile_elems=4096)
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    m = run_pipeline(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg))
    _, report = simulate_timed(m, make_inputs(spec), cfg)
    assert report.total_cycles == cycles
    assert latency_lower_bound(collect_stats(base), cfg, LadderRung.VEC_MT_DB) == floor


def test_mt_floor_uses_the_rows_it_forks_over():
    # Two 8-row GELU tiles: vec-mt splits them into halves and runs four
    # per-thread loops, so the floor divides compute by min(threads, 16)
    # contexts; by the tile count, the floor would be 9,728.
    spec = gelu(n=32768)
    base = build_kernel(spec, tcm_capacity=CFG.tcm_capacity)
    run = run_rung(spec, LadderRung.VEC_MT, CFG)
    assert run.timing.total_cycles == 5804
    assert sum(busy > 0 for busy in run.timing.per_thread_busy) == 4
    assert latency_lower_bound(collect_stats(base), CFG, LadderRung.VEC_MT) == 4864
    assert run.lower_bound == 4864


def test_mt_speedup_never_exceeds_thread_count():
    for rows in (8, 16, 64):
        spec = vec_add_2d(rows=rows, tile_rows=1)
        single = run_rung(spec, LadderRung.VEC, CFG)
        multi = run_rung(spec, LadderRung.VEC_MT, CFG)
        assert single.timing.total_cycles / multi.timing.total_cycles <= CFG.threads


def test_fork_join_overhead_accounting():
    spec = vec_add_2d()
    run = run_rung(spec, LadderRung.VEC_MT, CFG)
    # 4 regions forked once plus one barrier.
    assert run.timing.overhead_cycles == 4 * CFG.fork_cost + CFG.join_cost
    assert len(run.timing.per_thread_busy) == CFG.threads
    assert all(busy > 0 for busy in run.timing.per_thread_busy)


def test_schedule_independence_of_outputs():
    spec = vec_add_2d()
    m = run_pipeline(
        build_vec_add_2d(spec, tcm_capacity=CFG.tcm_capacity),
        PipelineSpec(LadderRung.VEC_MT, CFG),
    )
    # Reverse the creation order of the async regions within the group.
    regions = [op for op in m.body if isinstance(op, AsyncExecute)]
    tail = [op for op in m.body if not isinstance(op, AsyncExecute)]
    from dataclasses import replace

    permuted = replace(m, body=tuple(reversed(regions)) + tuple(tail))
    inputs = make_inputs(spec)
    out_a, _ = simulate_timed(m, inputs, CFG)
    out_b, _ = simulate_timed(permuted, inputs, CFG)
    assert np.array_equal(out_a["C"], out_b["C"])


def test_self_awaiting_region_deadlocks():
    region = AsyncExecute("g", (AwaitAll("g"),))
    m = TileModule("deadlock", (), (region, AwaitAll("g")))
    with pytest.raises(DeadlockError):
        simulate_timed(m, {}, CFG)


def _region(cycles):
    return iter([(BUSY, cycles, None)])


@pytest.mark.parametrize(
    "steps, cycles",
    [
        # Forked again after its group was joined (at 310): live again, so
        # the second await waits for the second run (ends at 420).
        (
            lambda: [
                (FORK, 100, ("g", _region(10))), (AWAIT, 0, "g"),
                (FORK, 100, ("g", _region(10))),
            ],
            620,
        ),
    ],
    ids=["forked-again"],
)
def test_a_group_waits_for_each_live_region_once(steps, cycles):
    assert Core(CFG).run(iter([*steps(), (AWAIT, 0, "g")])) == cycles  # fork 100, join 200


def test_a_fork_join_inside_a_loop_forks_each_iteration_anew():
    # Each iteration forks one region that doubles row i of X into Y, and
    # joins it before the next iteration forks again.
    cols = 64
    x, y = BufferDecl("X", MemSpace.DDR, 3, cols), BufferDecl("Y", MemSpace.DDR, 3, cols)
    t = BufferDecl("t", MemSpace.TCM, 1, cols)
    tile = full_view(t)
    region = AsyncExecute(
        "g",
        (
            AllocTcm(t),
            Copy(src=ViewRef("X", 1, 0, 1, cols), dst=tile),
            Compute((tile, tile), tile, Binary("add", Input(0), Input(1))),
            Copy(src=tile, dst=ViewRef("Y", 1, 0, 1, cols)),
            DeallocTcm("t"),
        ),
    )
    m = TileModule("loop-fork", (x, y), (ForTiles("i", 3, (region, AwaitAll("g"))),))
    assert verify_module(m, CFG) == []
    inputs = {"X": np.arange(3 * cols, dtype=np.float32).reshape(3, cols)}
    out, report = simulate_timed(m, inputs, CFG)
    assert np.array_equal(out["Y"], interpret_functional(m, inputs)["Y"])
    assert np.array_equal(out["Y"], 2 * inputs["X"])
    assert report.overhead_cycles == 3 * (CFG.fork_cost + CFG.join_cost)
    # Per iteration: fork 100, a 65-cycle copy each way, 64 elements of a
    # 4-op compute (256), join 200.
    assert report.total_cycles == 3 * (100 + 65 + 256 + 65 + 200) == 2058


def test_timing_report_invariants():
    for kind in ("vec-add-2d", "gelu"):
        spec = vec_add_2d() if kind == "vec-add-2d" else gelu(n=262144)
        for rung in RUNG_ORDER:
            run = run_rung(spec, rung, CFG)
            rep = run.timing
            assert rep.total_us > 0
            assert rep.dma_busy_cycles <= rep.total_cycles
            assert (
                rep.compute_busy_cycles + rep.stall_cycles + rep.overhead_cycles
                <= CFG.threads * rep.total_cycles
            )


def test_regions_beyond_the_workers_queue_for_a_free_one():
    # Four regions of two GELU tiles each; with fewer workers the extra
    # regions wait in the queue, so the same compute takes longer.
    spec = gelu(8 * 2048, 2048)
    m = form_async_threads(
        form_virtual_threads(vectorize(build_kernel(spec), 8), 4)
    )
    assert sum(isinstance(op, AsyncExecute) for op in m.body) == 4
    inputs = make_inputs(spec)
    reports = []
    for threads in (4, 2, 1):
        cfg = MachineConfig(lanes=8, threads=threads)
        assert verify_module(m, cfg) == []
        out, report = simulate_timed(m, inputs, cfg)
        assert np.array_equal(out["Y"], interpret_functional(m, inputs)["Y"])
        reports.append(report)
    assert len({r.compute_busy_cycles for r in reports}) == 1
    assert [r.total_cycles for r in reports] == [10828, 20556, 40492]
    # A freed worker takes the next queued region; the lowest-numbered idle
    # worker takes a new one.
    assert [r.stall_cycles for r in reports] == [1800, 1340, 1280]
    assert [r.per_thread_busy for r in reports] == [
        (10048, 10188, 10248, 10228),
        (20096, 20156),
        (40192,),
    ]


def test_a_group_already_done_at_the_await_joins_at_once():
    # The region is empty and finishes when forked; the control context's
    # long copy ends later, so the await finds the group done.
    elems = 65536
    t = BufferDecl("t", MemSpace.TCM, 1, elems)
    m = TileModule(
        "early-region",
        (BufferDecl("X", MemSpace.DDR, 1, elems),),
        (
            AsyncExecute("g", ()),
            AllocTcm(t),
            Copy(src=ViewRef("X", 0, 0, 1, elems), dst=full_view(t)),
            DeallocTcm("t"),
            AwaitAll("g"),
        ),
    )
    assert verify_module(m, CFG) == []
    _, report = simulate_timed(m, {"X": np.zeros((1, elems), np.float32)}, CFG)
    copy = CFG.dma_startup + 4 * elems // CFG.dma_bandwidth
    assert report.total_cycles == CFG.fork_cost + copy + CFG.join_cost
    assert report.overhead_cycles == CFG.fork_cost + CFG.join_cost
