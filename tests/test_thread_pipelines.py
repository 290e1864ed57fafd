"""vec-mt-db as per-thread pipelines: each thread double-buffers its own
block of tiles, with its own buffers and tags, over the shared channel; and
the rule that picks this composition or the in-tile fork."""

from dataclasses import replace

import pytest

from tilelab.bench import outputs_match, pipeline_for, run_rung
from tilelab.interp import interpret_functional
from tilelab.ir import AsyncExecute, Copy, DmaStart, DmaWait, ForTiles, TagRole, walk
from tilelab.kernels import build_kernel, gelu, make_inputs, reference_output, vec_add_2d
from tilelab.machine import (
    MachineConfig,
    LadderRung,
    RUNG_ORDER,
    collect_stats,
    latency_lower_bound,
)
from tilelab.passes import (
    MtPolicy,
    db_stage1,
    db_stage2,
    form_async_threads,
    form_virtual_threads,
    per_thread_pipelines,
    run_pipeline,
    vectorize,
)
from tilelab.sim import simulate_timed
from tilelab.verifier import verify_module

CFG = MachineConfig()


def _thread_pipelines(base, cfg):
    """The per-thread composition, whatever the selection rule says."""
    m = form_virtual_threads(base, MtPolicy(cfg.threads))
    if m is not base:
        m = form_async_threads(m)
    return vectorize(db_stage2(db_stage1(m)), cfg.lanes)


def _regions(m):
    return [op for op in m.body if isinstance(op, AsyncExecute)]


def _tags(body):
    return {
        op.tag.id for _, op in walk(body) if isinstance(op, (DmaStart, DmaWait))
    }


def _specs(tiles):
    # 2,048-element tiles: two of them reach the multi-threading size floor.
    yield gelu(n=tiles * 2048, tile_elems=2048)
    yield vec_add_2d(rows=tiles * 4, cols=512, tile_rows=4)
    yield vec_add_2d(rows=tiles * 4 + 3, cols=512, tile_rows=4)  # peeled tail


def _check(m, spec, cfg, inputs, reference, floor):
    assert verify_module(m, cfg) == []
    interp_out = interpret_functional(m, inputs)
    sim_out, report = simulate_timed(m, inputs, cfg)
    for name in reference:
        assert sim_out[name].tobytes() == interp_out[name].tobytes(), name
    assert outputs_match(spec.kind, sim_out, reference)
    assert report.total_cycles >= floor
    return report


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("tiles", range(1, 10))
def test_thread_pipelines_agree_with_the_reference(tiles, threads):
    cfg = MachineConfig(threads=threads)
    for spec in _specs(tiles):
        base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
        inputs = make_inputs(spec)
        reference = reference_output(spec, inputs)
        floor = latency_lower_bound(collect_stats(base), cfg, LadderRung.VEC_MT_DB)

        m = _thread_pipelines(base, cfg)
        report = _check(m, spec, cfg, inputs, reference, floor)
        regions = _regions(m)
        assert len(regions) == (min(threads, tiles) if tiles >= 2 else 0)
        assert report.overhead_cycles == (
            len(regions) * cfg.fork_cost + cfg.join_cost if regions else 0
        )
        seen = _tags(tuple(op for op in m.body if not isinstance(op, AsyncExecute)))
        for region in regions:
            # Each region pipelines its own loop: ping/pong prefetch plus
            # two storeback tags, shared with no other region.
            tags = _tags(region.body)
            assert len(tags) == 2 * (len(inputs) + 1)
            roles = {
                op.tag: op.tag.role for _, op in walk(region.body) if isinstance(op, DmaStart)
            }
            prologue = [op.tag for op in region.body if isinstance(op, DmaStart)]
            assert len(prologue) == len(inputs)
            assert [tag for tag, role in roles.items() if role is TagRole.PING] == prologue
            assert not tags & seen
            seen |= tags
            loops = [op for op in region.body if isinstance(op, ForTiles)]
            assert len(loops) == 1 and loops[0].toggle_init is True

        chosen = run_pipeline(base, pipeline_for(LadderRung.VEC_MT_DB, cfg))
        _check(chosen, spec, cfg, inputs, reference, floor)


def _in_tile(m):
    """True when some fork-join region sits inside the tile loop."""
    return any(
        isinstance(op, AsyncExecute) and "." in path for path, op in walk(m.body)
    )


@pytest.mark.parametrize(
    "spec, cfg, expected",
    [
        (gelu(), CFG, True),  # tie on balance: 16 x 8 rows either way
        (gelu(n=1 << 16, tile_elems=1024), CFG, True),  # tile too small for the in-tile fork
        (gelu(n=1 << 22, tile_elems=1024), CFG, True),
        (vec_add_2d(), CFG, False),  # per-thread ping/pong needs 12 MiB of 8 MiB TCM
        (gelu(n=5 * 16384), MachineConfig(lanes=8, threads=4), False),  # 16 rows vs 10
    ],
)
def test_selection_rule(spec, cfg, expected):
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    spec_db = pipeline_for(LadderRung.VEC_MT_DB, cfg)
    assert per_thread_pipelines(base, spec_db) is expected
    m = run_pipeline(base, spec_db)
    assert bool(_regions(m)) is expected
    assert _in_tile(m) is not expected


def test_vec_add_keeps_the_in_tile_fork_for_tcm_alone():
    base = build_kernel(vec_add_2d(), tcm_capacity=CFG.tcm_capacity)
    spec = pipeline_for(LadderRung.VEC_MT_DB, CFG)
    assert not per_thread_pipelines(base, spec)
    assert per_thread_pipelines(base, replace(spec, tcm_capacity=2 * CFG.tcm_capacity))


def test_five_tile_gelu_keeps_the_in_tile_fork_for_balance():
    cfg = MachineConfig(lanes=8, threads=4)
    base = build_kernel(gelu(n=5 * 16384), tcm_capacity=cfg.tcm_capacity)
    spec = pipeline_for(LadderRung.VEC_MT_DB, cfg)
    assert not per_thread_pipelines(base, replace(spec, tcm_capacity=1 << 40))
    inputs = make_inputs(gelu(n=5 * 16384))
    chosen = simulate_timed(run_pipeline(base, spec), inputs, cfg)[1]
    per_thread = simulate_timed(_thread_pipelines(base, cfg), inputs, cfg)[1]
    assert chosen.total_cycles < per_thread.total_cycles


@pytest.mark.parametrize(
    "spec, expected",
    [
        (gelu(n=3 * 2048, tile_elems=2048), False),  # in-tile declines: no fork beats one
        (gelu(n=2 * 16384), True),  # one fork beats one per tile
    ],
)
def test_a_tie_goes_to_fewer_forks(spec, expected):
    cfg = MachineConfig(threads=1)  # every composition leaves all rows on one thread
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    assert per_thread_pipelines(base, pipeline_for(LadderRung.VEC_MT_DB, cfg)) is expected
    m = run_pipeline(base, pipeline_for(LadderRung.VEC_MT_DB, cfg))
    forks = sum(1 for _, op in walk(m.body) if isinstance(op, AsyncExecute))
    assert forks == 1 if expected else forks == 0


def test_overlapping_tiles_keep_the_in_tile_fork():
    # Output tiles 2 rows apart but 4 rows tall: the tile loop cannot fork.
    base = build_kernel(vec_add_2d(rows=16, cols=1024, tile_rows=4))
    loop = base.body[0]
    body = tuple(
        replace(op, dst=replace(op.dst, row_scale=2))
        if isinstance(op, Copy) and op.dst.base == "C"
        else op
        for op in loop.body
    )
    m = replace(base, body=(replace(loop, body=body),))
    spec = pipeline_for(LadderRung.VEC_MT_DB, CFG)
    assert not per_thread_pipelines(m, spec)
    assert verify_module(run_pipeline(m, spec), CFG) == []


def test_default_gelu_ladder_is_strictly_monotone():
    spec = gelu()
    inputs = make_inputs(spec)
    cycles = [run_rung(spec, rung, CFG, inputs).timing.total_cycles for rung in RUNG_ORDER]
    assert cycles == sorted(cycles, reverse=True) and len(set(cycles)) == len(cycles), cycles
