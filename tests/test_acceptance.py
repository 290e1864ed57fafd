"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; a per-criterion PASS/FAIL
summary is printed at the end of the session (see conftest).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tilelab.bench import DEFAULT_SWEEP_SIZES, run_ladder, run_rung, run_sweep
from tilelab.interp import interpret_functional
from tilelab.ir import (
    Compute,
    Copy,
    DmaStart,
    DmaWait,
    dynamic_schedule,
)
from tilelab.kernels import build_vec_add_2d, gelu, make_inputs, reference_output, vec_add_2d
from tilelab.lower import lower
from tilelab.machine import (
    LadderRung,
    MachineConfig,
    RUNG_ORDER,
    collect_stats,
    latency_lower_bound,
)
from tilelab.passes import (
    PassError,
    PipelineSpec,
    db_stage1,
    db_stage2,
    partition_tiles,
    run_pipeline,
    vectorize,
)
from tilelab.sim import simulate_timed

CFG = MachineConfig()
SEEDS = (1, 2, 3)
KERNELS = (vec_add_2d(), gelu())


def _assert_matches_reference(spec, outputs, reference):
    for name, want in reference.items():
        got = outputs[name]
        if spec.kind.value == "vec-add-2d":
            assert np.array_equal(got, want), f"@{name} must match exactly"
        else:
            assert np.allclose(got, want, rtol=1e-6, atol=0.0), f"@{name} beyond 1e-6 relative"


@pytest.mark.criterion("1", "functional equivalence across kernels, rungs, and seeds")
def test_criterion_1_functional_equivalence():
    for spec in KERNELS:
        for seed in SEEDS:
            seeded = replace(spec, seed=seed)
            reference = reference_output(seeded, make_inputs(seeded))
            for rung in RUNG_ORDER:
                run = run_rung(seeded, rung, CFG)
                _assert_matches_reference(spec, run.outputs, reference)


@pytest.mark.criterion("2", "vec-add ladder strictly improves within calibrated bounds")
def test_criterion_2_ladder_monotonicity():
    report = run_ladder(vec_add_2d(), CFG)
    latency = {row.rung: row.latency_us for row in report.rows}
    assert latency["scalar"] > latency["vec"] > latency["vec-mt"] > latency["vec-mt-db"]
    scalar_over_vec = latency["scalar"] / latency["vec"]
    assert 8.0 <= scalar_over_vec <= 64.0, scalar_over_vec
    vec_over_mt = latency["vec"] / latency["vec-mt"]
    assert 1.01 <= vec_over_mt <= 4.0, vec_over_mt
    mt_over_db = latency["vec-mt"] / latency["vec-mt-db"]
    assert 1.01 <= mt_over_db <= 4.0, mt_over_db


@pytest.mark.criterion("3", "gelu sweep speedup is monotone, capped at threads, >= 3.2 at 1M")
def test_criterion_3_gelu_sweep():
    report = run_sweep(gelu(), DEFAULT_SWEEP_SIZES, CFG)
    speedups = [p.speedup for p in report.points]
    for earlier, later in zip(speedups, speedups[1:]):
        assert later >= 0.98 * earlier, (earlier, later)
    assert max(speedups) <= float(CFG.threads)
    assert report.points[-1].n_elements == 1_048_576
    assert speedups[-1] >= 3.2


@pytest.mark.criterion("4", "simulated latency never beats the analytic floor; memory-bound db rides the transfer floor")
def test_criterion_4_simulator_floor():
    for spec in KERNELS:
        for rung in RUNG_ORDER:
            run = run_rung(spec, rung, CFG)
            assert run.timing.total_cycles >= run.lower_bound, (spec.kind, rung)
    for n in DEFAULT_SWEEP_SIZES:
        spec = gelu(n=n)
        for rung in (LadderRung.VEC, LadderRung.VEC_MT):
            run = run_rung(spec, rung, CFG)
            assert run.timing.total_cycles >= run.lower_bound, (n, rung)

    memory_bound = MachineConfig(dma_bandwidth=1)
    spec = vec_add_2d()
    base = build_vec_add_2d(spec, tcm_capacity=memory_bound.tcm_capacity)
    module = lower(run_pipeline(base, PipelineSpec(LadderRung.VEC_MT_DB, memory_bound)))
    _, report = simulate_timed(module, make_inputs(spec), memory_bound)
    # The transfers the rung's own schedule moves, as run_rung's floor counts
    # them: a pick that merges tiles moves fewer than the kernel's tiles.
    stats = collect_stats(base, module)
    transfer_floor = stats.n_transfers * memory_bound.dma_startup + math.ceil(
        (stats.bytes_in + stats.bytes_out) / memory_bound.dma_bandwidth
    )
    assert report.total_cycles >= transfer_floor
    assert report.total_cycles <= 1.10 * transfer_floor, (report.total_cycles, transfer_floor)


@pytest.mark.criterion("5", "pass structural invariants hold exhaustively at small scale")
def test_criterion_5_structural_invariants():
    # Partition coverage, disjointness, contiguity and balance for all
    # T <= 64, threads <= 8.
    for tile_count in range(1, 65):
        for threads in range(1, 9):
            sets = partition_tiles(tile_count, threads)
            flat = [t for s in sets for t in s]
            assert sorted(flat) == list(range(tile_count))
            assert len(flat) == len(set(flat))
            for s in sets:
                assert all(b == a + 1 for a, b in zip(s, s[1:]))
            sizes = [len(s) for s in sets]
            assert max(sizes) - min(sizes) <= 1

    # Stage 1: dynamically executed prefetches equal the tile count.
    for tiles in (1, 2, 3, 8):
        module = db_stage1(build_vec_add_2d(vec_add_2d(rows=tiles, tile_rows=1)))
        ddr = {d.id for d in module.buffers}
        per_stream: dict[str, int] = {}
        for op, _ in dynamic_schedule(module):
            if isinstance(op, Copy) and op.src.base in ddr:
                stream = op.src.base
                per_stream[stream] = per_stream.get(stream, 0) + 1
        assert per_stream == {"A": tiles, "B": tiles}

    # Stage 2: balanced tags and a wait before every compute on all paths.
    for tiles in (1, 2, 3, 8):
        spec = vec_add_2d(rows=tiles, tile_rows=1)
        module = db_stage2(db_stage1(build_vec_add_2d(spec)))
        starts: dict[int, int] = {}
        waits: dict[int, int] = {}
        awaited: set[int] = set()
        start_tag_by_buffer: dict[str, int] = {}
        for op, _ in dynamic_schedule(module):
            if isinstance(op, DmaStart):
                starts[op.tag] = starts.get(op.tag, 0) + 1
                start_tag_by_buffer[op.dst.base] = op.tag
                awaited.discard(op.tag)
            elif isinstance(op, DmaWait):
                waits[op.tag] = waits.get(op.tag, 0) + 1
                awaited.add(op.tag)
            elif isinstance(op, Compute):
                for view in op.inputs:
                    tag = start_tag_by_buffer.get(view.base)
                    assert tag is not None and tag in awaited, "compute before dma.wait"
        assert starts == waits
        # The interpreter enforces residency as a hard error; this must pass.
        inputs = make_inputs(spec)
        assert np.array_equal(
            interpret_functional(module, inputs)["C"],
            reference_output(spec, inputs)["C"],
        )

    # Rejections.
    with pytest.raises(PassError):
        db_stage1(db_stage1(build_vec_add_2d(vec_add_2d())))
    with pytest.raises(PassError):
        db_stage2(build_vec_add_2d(vec_add_2d()))


@pytest.mark.criterion("6", "repeated ladder and sweep invocations are byte-identical")
def test_criterion_6_determinism(tmp_path):
    from tilelab.cli import main

    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"ladder_{tag}"
        assert main(["ladder", "--kernel", "vec-add-2d", "--out", str(out)]) == 0
        pairs.append(out)
    for name in ("ladder.csv", "ladder.svg", "ladder.json"):
        assert (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()

    pairs = []
    sizes = ",".join(str(n) for n in DEFAULT_SWEEP_SIZES)
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}"
        assert main(["sweep", "--kernel", "gelu", "--sizes", sizes, "--out", str(out)]) == 0
        pairs.append(out)
    for name in ("sweep.csv", "sweep_latency.svg", "sweep_speedup.svg", "sweep.json"):
        assert (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()


@pytest.mark.criterion("7", "double buffering overlaps where transfer and compute balance")
def test_criterion_7_db_bracket():
    spec = vec_add_2d()
    base = build_vec_add_2d(spec)
    stats = collect_stats(base)
    # Pick the bandwidth where the transfer and compute closed forms agree.
    cfg = MachineConfig(dma_bandwidth=97)
    t_dma = stats.n_transfers * cfg.dma_startup + math.ceil(
        (stats.bytes_in + stats.bytes_out) / cfg.dma_bandwidth
    )
    t_compute = math.ceil(stats.total_elements / cfg.lanes) * stats.ops_per_element
    assert abs(t_dma - t_compute) <= 0.10 * max(t_dma, t_compute)

    inputs = make_inputs(spec)
    single_buffered = run_pipeline(base, PipelineSpec(LadderRung.VEC, cfg))
    db_only = vectorize(db_stage2(db_stage1(base)), cfg.lanes)
    _, single_report = simulate_timed(single_buffered, inputs, cfg)
    _, db_report = simulate_timed(db_only, inputs, cfg)
    assert db_report.total_cycles <= 0.75 * single_report.total_cycles, (
        db_report.total_cycles,
        single_report.total_cycles,
    )
    # Single-buffered execution cannot overlap: it pays both terms in full.
    assert single_report.total_cycles >= t_dma + t_compute
    # The pipelined schedule sits inside the analytic bracket.
    lower = latency_lower_bound(stats, cfg, LadderRung.VEC)
    prologue = 2 * (cfg.dma_startup + math.ceil(stats.bytes_in / stats.tile_count / 2 / cfg.dma_bandwidth))
    assert lower + prologue <= db_report.total_cycles <= t_dma + t_compute + prologue
