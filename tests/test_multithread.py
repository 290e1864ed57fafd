"""Multi-threading passes: structured forall forming and fork-join lowering."""

from dataclasses import replace

import numpy as np
import pytest

from tilelab.bench import run_rung
from tilelab.interp import interpret_functional
from tilelab.ir import (
    AsyncExecute,
    AwaitAll,
    Forall,
    ForTiles,
    ViewRef,
    walk_module,
)
from tilelab.kernels import (
    build_kernel,
    build_vec_add_2d,
    gelu,
    make_inputs,
    reference_output,
    vec_add_2d,
)
from tilelab.machine import LadderRung, MachineConfig
from tilelab.passes import (
    PassError,
    PipelineSpec,
    choose_composition,
    compositions,
    db_stage1,
    db_stage2,
    form_async_threads,
    form_virtual_threads,
    partition_tiles,
    run_pipeline,
    vectorize,
)

THREADS = 4


def _build(rows, tile_rows=1):
    return build_vec_add_2d(vec_add_2d(rows=rows, tile_rows=tile_rows))


# -- form_virtual_threads ---------------------------------------------------- #


def test_even_tiles_pick_block():
    # A thread count forks that many threads, each at the loop's tile rows.
    m = form_virtual_threads(_build(8), THREADS)
    forall = m.body[0]
    assert isinstance(forall, Forall)
    assert forall.threads == (1, 1, 1, 1)


def test_uneven_tiles_pick_block_cyclic():
    # Uneven tiles no longer deal block-cyclic: the same balanced contiguous
    # split forks them, and every thread still gets 2 or 3 of the 10 tiles.
    m = form_virtual_threads(_build(10), THREADS)
    forall = m.body[0]
    assert isinstance(forall, Forall)
    assert forall.threads == (1, 1, 1, 1)


def test_a_fork_carries_each_threads_tile_rows():
    # Ten 1-row tiles on four threads: blocks of 3, 3, 2 and 2 rows, the
    # first and last threads each in one tile, the others in 1-row tiles.
    spec = vec_add_2d(rows=10, tile_rows=1)
    base = build_vec_add_2d(spec)
    m = form_virtual_threads(base, (3, 1, 1, 2))
    assert m.body[0].threads == (3, 1, 1, 2)
    lowered = form_async_threads(m)
    loops = [op.body[0] for op in lowered.body if isinstance(op, AsyncExecute)]
    assert [(loop.tile_count, loop.body[0].decl.rows) for loop in loops] == [
        (1, 3), (3, 1), (2, 1), (1, 2)
    ]
    out_rows = [
        tuple(op.dst.row_offset_at(j) for j in range(loop.tile_count))
        for loop in loops
        for op in loop.body
        if getattr(op, "dst", None) is not None and op.dst.base == "C"
    ]
    assert out_rows == [(0,), (3, 4, 5), (6, 7), (8,)]
    inputs = make_inputs(spec)
    out = interpret_functional(vectorize(lowered, 32), inputs)
    assert np.array_equal(out["C"], reference_output(spec, inputs)["C"])
    # Their live loop bodies add up: 3 + 1 + 1 + 2 rows of three buffers.
    need = 7 * 3 * 16384 * 4
    with pytest.raises(PassError, match=f"the tile fork needs {need} bytes .* 4 live copies"):
        form_virtual_threads(base, (3, 1, 1, 2), need - 1)


def test_below_min_tiles_unchanged():
    base = _build(8, tile_rows=8)  # single tile
    assert form_virtual_threads(base, THREADS) is base


def test_a_fork_is_declined_only_at_one_thread_or_one_tile():
    # However few elements the tiles hold, the fork is the cost model's to
    # decline by its price: the pass declines only one thread or one tile.
    small = build_vec_add_2d(vec_add_2d(rows=4, cols=8, tile_rows=1))  # 32 elements
    one_tile = build_vec_add_2d(vec_add_2d(rows=4, cols=8, tile_rows=4))
    assert isinstance(form_virtual_threads(small, THREADS).body[0], Forall)
    assert form_virtual_threads(small, 1) is small
    assert form_virtual_threads(one_tile, THREADS) is one_tile


def test_overlapping_outputs_rejected():
    base = _build(8)
    loop = base.body[0]
    body = list(loop.body)
    # Make the write-back land on the same rows every iteration.
    copy_out = body[-4]
    body[-4] = replace(copy_out, dst=ViewRef("C", 0, 0, 1, 16384))
    clash = replace(base, body=(replace(loop, body=tuple(body)),))
    with pytest.raises(PassError, match="cross-thread dependence"):
        form_virtual_threads(clash, THREADS)


def test_tile_fork_refuses_what_overflows_tcm():
    # One 8x256 vec-add tile (three 8 KiB buffers) fills a 24 KiB scratchpad,
    # so the bodies of the two tiles cannot be live at once.
    base = build_vec_add_2d(vec_add_2d(16, 256, 8))
    with pytest.raises(PassError, match="the tile fork needs 49152 bytes .* > capacity 24576"):
        form_virtual_threads(base, THREADS, 24576)
    assert isinstance(form_virtual_threads(base, THREADS, 49152).body[0], Forall)


def test_a_loop_whose_body_holds_a_loop_does_not_fork():
    base = _build(8)
    loop = base.body[0]
    nested = replace(loop, body=(ForTiles("j", 2, loop.body),))
    with pytest.raises(
        PassError,
        match="the tile fork requires the single-buffered normal form:"
        " loop body op 0: ForTiles differs from the normal form",
    ):
        form_virtual_threads(replace(base, body=(nested,)), THREADS)


def test_a_double_buffered_loop_does_not_fork():
    # The ping/pong loop alternates its two arms from one tile to the next.
    pipelined = vectorize(db_stage2(db_stage1(_build(8, tile_rows=2))), 32)
    with pytest.raises(
        PassError,
        match="the tile fork requires the single-buffered normal form:"
        " top-level loop is already a ping/pong loop",
    ):
        form_virtual_threads(pipelined, THREADS)


@pytest.mark.parametrize("threads", [0, -3])
def test_a_thread_count_below_one_is_refused(threads):
    with pytest.raises(PassError, match=f"threads must be >= 1, got {threads}"):
        form_virtual_threads(_build(8), threads)


def test_whole_tiles_that_overflow_tcm_split_or_stay_unforked(forced_plan):
    # Two 8x256 vec-add tiles (three 8 KiB buffers each) on a 24 KiB
    # scratchpad: neither a fork nor a ping/pong over whole tiles fits.
    cfg = MachineConfig(tcm_capacity=24576)
    spec = vec_add_2d(16, 256, 8)
    base = build_vec_add_2d(spec, tcm_capacity=cfg.tcm_capacity)
    vec = run_rung(spec, LadderRung.VEC, cfg).timing.total_cycles
    assert vec == 992
    # vec-mt declines its fork: unforked loops over whole and split tiles fit,
    # and so do forked loops over 4- and 8-way splits, but each costs more
    # than the unforked loop over whole tiles.
    spec_mt = PipelineSpec(LadderRung.VEC_MT, cfg)
    offered = [(c.rows, c.forks) for c in compositions(base, spec_mt)]
    assert offered == [(8, 0), (4, 0), (2, 0), (2, 1), (1, 0), (1, 1)]
    assert choose_composition(base, spec_mt).forks == 0
    assert run_rung(spec, LadderRung.VEC_MT, cfg).timing.total_cycles == vec
    four_way = next(c for c in compositions(base, spec_mt) if (c.rows, c.forks) == (2, 1))
    with forced_plan(four_way):
        forked = run_rung(spec, LadderRung.VEC_MT, cfg).timing.total_cycles
    assert forked == 1932
    # vec-mt-db runs one pipeline over 2-way splits, whose ping/pong fits.
    choice = choose_composition(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg))
    assert (choice.rows, choice.forks) == (4, 0)
    assert run_rung(spec, LadderRung.VEC_MT_DB, cfg).timing.total_cycles == 920


def test_a_rung_with_no_candidate_that_fits_fails_in_the_pass():
    # One-row tiles cannot split, and their ping/pong overflows 3 KiB.
    cfg = MachineConfig(tcm_capacity=3072)
    base = build_vec_add_2d(vec_add_2d(16, 256, 1), tcm_capacity=cfg.tcm_capacity)
    assert compositions(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg)) == ()
    with pytest.raises(PassError, match="double buffering needs 6144 bytes"):
        run_pipeline(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg))


@pytest.mark.parametrize(
    "spec, cfg, before, after",
    [
        # Each thread's first load queues behind the whole-tile loads of the
        # threads forked before it; 1-row sub-tiles shorten the queue.
        (vec_add_2d(), MachineConfig(), 52652, 46956),
        # Two tiles fill two of four threads; halves fill all four.
        (gelu(8192, 4096), MachineConfig(lanes=16, threads=4), 5456, 3192),
        # Five whole tiles leave one thread two of them; merged into four
        # 10-row tiles they deal out one each and pay fewer start-ups.
        (gelu(5 * 1024, 1024), MachineConfig(lanes=32, threads=4), 1804, 1508),
    ],
)
def test_vec_mt_cost_model_picks(forced_plan, spec, cfg, before, after):
    """vec-mt cycles of the candidate the cost model picks (`after`) and of
    the whole-tile fork a size floor alone used to take (`before`); the pick is
    the fastest candidate, each forced as compositions offers it, with every
    thread at the candidate's tile rows, and no thread of these re-tiles its
    block."""
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    cycles = {}
    for candidate in compositions(base, PipelineSpec(LadderRung.VEC_MT, cfg)):
        with forced_plan(candidate):
            run = run_rung(spec, LadderRung.VEC_MT, cfg)
        cycles[candidate.rows, candidate.forks] = run.timing.total_cycles
    assert cycles[8, 1] == before
    assert run_rung(spec, LadderRung.VEC_MT, cfg).timing.total_cycles == after
    assert after == min(cycles.values())


# -- partitions --------------------------------------------------------------- #


def test_block_partition_of_eight():
    assert partition_tiles(8, 4) == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_block_cyclic_partition_of_ten():
    # The first 10 % 4 threads get one tile more: regions of 3, 3, 2 and 2.
    assert partition_tiles(10, 4) == ((0, 1, 2), (3, 4, 5), (6, 7), (8, 9))


def test_partition_properties_exhaustive():
    for tile_count in range(1, 65):
        for threads in range(1, 9):
            sets = partition_tiles(tile_count, threads)
            flat = [t for s in sets for t in s]
            assert sorted(flat) == list(range(tile_count)), (tile_count, threads)
            assert len(flat) == len(set(flat))
            for s in sets:  # a run of consecutive tiles
                assert all(b == a + 1 for a, b in zip(s, s[1:])), (tile_count, threads)
            sizes = [len(s) for s in sets]
            assert max(sizes) - min(sizes) <= 1, (tile_count, threads)


# -- form_async_threads ------------------------------------------------------- #


def _thread_tile_sets(m):
    """Recover per-region tile indices from the lowered write-back views."""
    sets = []
    for _, op in walk_module(m):
        if isinstance(op, AsyncExecute):
            loop = op.body[0]
            assert isinstance(loop, ForTiles)
            copy_out = next(
                o
                for o in loop.body
                if hasattr(o, "dst") and getattr(o.dst, "base", None) == "C"
            )
            view = copy_out.dst
            # Tile index = row offset / tile rows for each local iteration.
            tiles = tuple(
                view.row_offset_at(j) // view.row_count for j in range(loop.tile_count)
            )
            sets.append(tiles)
    return sets


def test_block_lowering_tile_sets():
    m = form_async_threads(form_virtual_threads(_build(8), THREADS))
    assert _thread_tile_sets(m) == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert sum(1 for _, op in walk_module(m) if isinstance(op, AwaitAll)) == 1


def test_block_cyclic_lowering_tile_sets():
    m = form_async_threads(form_virtual_threads(_build(10), THREADS))
    assert _thread_tile_sets(m) == [(0, 1, 2), (3, 4, 5), (6, 7), (8, 9)]


def test_single_thread_degenerate_fork_join():
    # A fork over one worker only adds fork/join cycles: it is declined.
    base = _build(8)
    assert form_virtual_threads(base, 1) is base


def test_more_threads_than_tiles_skips_empty_regions():
    m = form_async_threads(form_virtual_threads(_build(2), THREADS))
    assert _thread_tile_sets(m) == [(0,), (1,)]


def test_fork_join_lowering_refuses_a_body_outside_the_normal_form():
    # A hand-built forall whose tile body leaves its output buffer live.
    base = _build(8)
    loop = base.body[0]
    forall = Forall(loop.iv, loop.tile_count, (1,) * THREADS, loop.body[:-1])
    with pytest.raises(
        PassError,
        match="fork-join lowering requires the single-buffered normal form:"
        " loop body op 9: end of body differs from the normal form",
    ):
        form_async_threads(replace(base, body=(forall,)))


@pytest.mark.parametrize(
    "threads, reason",
    [
        # Blocks of 3, 3, 2 and 2 rows: thread 1's 2-row tiles leave a row over.
        ((1, 2, 1, 1), "forall thread 1: cannot re-tile 3 loop rows into tiles of 2 rows"),
        ((1, 1, 1, 0), "forall thread 3: cannot re-tile 2 loop rows into tiles of 0 rows"),
        ((), "a forall over 10 tiles needs 1 to 10 threads, got 0"),
        ((1,) * 11, "a forall over 10 tiles needs 1 to 10 threads, got 11"),
    ],
    ids=["rows-do-not-divide", "zero-rows", "no-thread", "more-threads-than-tiles"],
)
def test_fork_join_lowering_refuses_threads_it_cannot_tile(threads, reason):
    base = _build(10)
    loop = base.body[0]
    forall = Forall(loop.iv, loop.tile_count, threads, loop.body)
    with pytest.raises(PassError, match=reason):
        form_async_threads(replace(base, body=(forall,)))


def test_no_forall_returns_input():
    m = _build(8)
    assert form_async_threads(m) is m


def test_lowered_module_preserves_semantics():
    for rows in (8, 10):
        spec = vec_add_2d(rows=rows, tile_rows=1)
        m = form_async_threads(
            form_virtual_threads(vectorize(build_vec_add_2d(spec), 32), THREADS)
        )
        inputs = make_inputs(spec)
        out = interpret_functional(m, inputs)
        assert np.array_equal(out["C"], reference_output(spec, inputs)["C"])
