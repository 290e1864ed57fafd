"""vec-mt-db as per-thread pipelines: each thread double-buffers its own
block of tiles, with its own buffers and tags, over the shared channel; the
re-tiling of the loop, which splits tiles for pipelines whose ping/pong
cannot hold whole tiles or overlaps better over smaller ones, and merges
them for vec-mt's per-thread loops; the floor of a re-tiled schedule; and
the cost model that picks a composition."""

from dataclasses import replace

import pytest

from tilelab import passes
from tilelab.bench import outputs_match, run_rung
from tilelab.interp import interpret_functional
from tilelab.ir import (
    AsyncExecute,
    Compute,
    Copy,
    DmaStart,
    DmaWait,
    ForTiles,
    ops_per_element,
    walk,
    walk_module,
)
from tilelab.kernels import build_kernel, gelu, make_inputs, reference_output, vec_add_2d
from tilelab.lower import lower
from tilelab.machine import (
    MachineConfig,
    LadderRung,
    RUNG_ORDER,
    collect_stats,
    compute_cycles,
    latency_lower_bound,
)
from tilelab.normal_form import match_block_explain, match_normal_form
from tilelab.passes import (
    Composition,
    PipelineSpec,
    PassError,
    choose_composition,
    compositions,
    db_stage1,
    db_stage2,
    form_async_threads,
    form_virtual_threads,
    partition_tiles,
    retile,
    run_pipeline,
    run_pipeline_stages,
    vectorize,
)
from tilelab.sim import simulate_timed
from tilelab.verifier import verify_module

CFG = MachineConfig()


def _thread_pipelines(base, cfg):
    """The per-thread composition, whatever the selection rule says."""
    m = form_virtual_threads(base, cfg.threads)
    if m is not base:
        m = form_async_threads(m)
    return vectorize(db_stage2(db_stage1(m)), cfg.lanes)


def _regions(m):
    return [op for op in m.body if isinstance(op, AsyncExecute)]


def _tags(body):
    return {
        op.tag for _, op in walk(body) if isinstance(op, (DmaStart, DmaWait))
    }


def _specs(tiles):
    # `tiles` tiles of 2,048 elements each.
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
        # One thread, or one tile, declines the fork.
        assert len(regions) == (min(threads, tiles) if tiles >= 2 and threads >= 2 else 0)
        assert report.overhead_cycles == (
            len(regions) * cfg.fork_cost + cfg.join_cost if regions else 0
        )
        seen = _tags(tuple(op for op in m.body if not isinstance(op, AsyncExecute)))
        for region in regions:
            # Each region pipelines its own loop: ping/pong prefetch plus
            # two storeback tags, shared with no other region.
            tags = _tags(region.body)
            assert len(tags) == 2 * (len(inputs) + 1)
            # A ping tag is one whose DMAs fill a ping buffer.
            ping = dict.fromkeys(
                op.tag
                for _, op in walk(region.body)
                if isinstance(op, DmaStart) and op.dst.base.endswith("_ping")
            )
            prologue = [op.tag for op in region.body if isinstance(op, DmaStart)]
            assert len(prologue) == len(inputs)
            assert list(ping) == prologue
            assert not tags & seen
            seen |= tags
            loops = [op for op in region.body if isinstance(op, ForTiles)]
            assert len(loops) == 1 and loops[0].pong is not None

        # The pick may merge tiles: its floor counts its own transfers.
        chosen = lower(run_pipeline(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg)))
        floor = latency_lower_bound(collect_stats(base, chosen), cfg, LadderRung.VEC_MT_DB)
        _check(chosen, spec, cfg, inputs, reference, floor)


def _region_tiles(m):
    """(tiles, rows of one tile) of each async region's loop."""
    return [(r.body[0].tile_count, r.body[0].body[0].decl.rows) for r in _regions(m)]


def _retiled_anchor(rung=LadderRung.VEC_MT):
    """The design grid's vec-add anchor and its stages at `rung`."""
    spec = vec_add_2d(64, 2048, 8)
    base = build_kernel(spec, tcm_capacity=CFG.tcm_capacity)
    stages = dict(run_pipeline_stages(base, PipelineSpec(rung, CFG)))
    return spec, stages


def _uniform(base, spec):
    """The candidate the cost model's plan refines: the one compositions
    offers at the plan's rows and fork, every thread at those rows."""
    plan = choose_composition(base, spec)
    return next(c for c in compositions(base, spec) if (c.rows, c.forks) == (plan.rows, plan.forks))


def test_each_thread_re_tiles_its_own_block(forced_plan):
    # Four threads of one 16-row tile each request the channel in lockstep
    # and queue behind each other; the first two threads split theirs into
    # two 8-row tiles, whose transfers interleave with the others'.
    spec, stages = _retiled_anchor()
    mt = PipelineSpec(LadderRung.VEC_MT, CFG)
    base = stages["initial"]
    uniform = _uniform(base, mt)
    assert uniform == Composition(16, 7276, (16, 16, 16, 16))
    assert choose_composition(base, mt) == Composition(16, 6956, (8, 8, 16, 16))
    with forced_plan(uniform):
        forked = dict(run_pipeline_stages(base, mt))["pipeline-async-threads"]
    m = stages["pipeline-async-threads"]
    assert _region_tiles(forked) == [(1, 16)] * 4
    assert _region_tiles(m) == [(2, 8), (2, 8), (1, 16), (1, 16)]
    inputs = make_inputs(spec)
    reference = reference_output(spec, inputs)
    before = _check(vectorize(forked, CFG.lanes), spec, CFG, inputs, reference, 0)
    after = _check(stages["vectorize"], spec, CFG, inputs, reference, 0)
    assert (before.total_cycles, after.total_cycles) == (7276, 6956)


def test_an_unforked_plan_leaves_the_fork_nothing_to_do():
    cfg = MachineConfig(lanes=64, threads=4)  # one unforked loop over one 15-row tile
    base = build_kernel(vec_add_2d(15, 448, 1, seed=1), tcm_capacity=cfg.tcm_capacity)
    spec = PipelineSpec(LadderRung.VEC_MT, cfg)
    plan = choose_composition(base, spec)
    assert (plan.rows, plan.threads, plan.forks) == (15, (), 0)
    assert plan in compositions(base, spec)
    stages = dict(run_pipeline_stages(base, spec))
    assert not _regions(stages["pipeline-threads"])
    assert stages["pipeline-async-threads"] is stages["pipeline-threads"]


def test_double_buffering_sums_the_ping_pong_of_every_region():
    """Regions of different tile rows need the ping and pong copies of each
    region's own loop body: the anchor's 8-, 8-, 16- and 16-row bodies (48
    rows of three 2,048-float buffers) need 2 x 48 x 24 KiB, not 2 x 4 x the
    16-row body, and the verifier accepts them at exactly that scratchpad."""
    spec, stages = _retiled_anchor()
    m = stages["pipeline-async-threads"]
    need = 2 * 48 * 3 * 2048 * 4
    with pytest.raises(PassError, match=f"double buffering needs {need} bytes of tcm for 8 live"):
        db_stage1(m, need - 1)
    cfg = replace(CFG, tcm_capacity=need)
    piped = vectorize(db_stage2(db_stage1(m, need)), cfg.lanes)
    inputs = make_inputs(spec)
    _check(piped, spec, cfg, inputs, reference_output(spec, inputs), 0)


def _forced(forced_plan, base, cfg, candidate):
    """The vec-mt-db module of `candidate`'s plan, whatever the cost model
    picks."""
    with forced_plan(candidate):
        return run_pipeline(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg))


@pytest.mark.parametrize(
    "spec, cfg, expected",
    [
        (gelu(), CFG, True),  # 156,508 over 1-row sub-tiles against 622,976 unforked
        (gelu(n=1 << 16, tile_elems=1024), CFG, True),
        (gelu(n=1 << 22, tile_elems=1024), CFG, True),
        # Memory-bound: the channel bounds every candidate, and one pipeline
        # over tiles merged in pairs, the largest whose ping/pong fits, moves
        # the fewest transfers with no fork/join.
        (vec_add_2d(), MachineConfig(dma_bandwidth=1), False),
        (gelu(n=5 * 16384), MachineConfig(lanes=8, threads=4), True),  # 49,500 vs 194,720
    ],
)
def test_selection_rule(spec, cfg, expected):
    """`expected`: per-thread pipelines, each forked at the top level."""
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    spec_db = PipelineSpec(LadderRung.VEC_MT_DB, cfg)
    assert choose_composition(base, spec_db).forks == expected
    m = run_pipeline(base, spec_db)
    regions = _regions(m)
    assert bool(regions) is expected
    assert sum(isinstance(op, AsyncExecute) for _, op in walk_module(m)) == len(regions)


def test_vec_add_splits_tiles_that_do_not_fit_tcm():
    # Per-thread ping/pong over whole 8-row tiles needs 12 MiB of 8 MiB TCM;
    # 2-row sub-tiles fit, and pay one fork/join in place of eight.  One
    # pipeline fits over tiles merged in pairs, but not in fours.  The first
    # two threads then split their blocks into 1-row tiles.
    base = build_kernel(vec_add_2d(), tcm_capacity=CFG.tcm_capacity)
    spec = PipelineSpec(LadderRung.VEC_MT_DB, CFG)
    splits = [(16, 0), (8, 0), (4, 0), (4, 1), (2, 0), (2, 1), (1, 0), (1, 1)]
    assert [(c.rows, c.forks) for c in compositions(base, spec)] == splits
    assert _uniform(base, spec) == Composition(2, 35948, (2, 2, 2, 2))
    assert choose_composition(base, spec) == Composition(2, 35500, (1, 1, 2, 2))
    roomy = replace(spec, machine=replace(CFG, tcm_capacity=2 * CFG.tcm_capacity))
    more = [(32, 0), (16, 0), (8, 0), (8, 1), *splits[2:]]
    assert [(c.rows, c.forks) for c in compositions(base, roomy)] == more
    m = run_pipeline(base, spec)
    regions = _regions(m)
    assert len(regions) == 4
    loops = [[op.tile_count for op in r.body if isinstance(op, ForTiles)] for r in regions]
    assert loops == [[16], [16], [8], [8]]
    assert simulate_timed(m, make_inputs(vec_add_2d()), CFG)[1].total_cycles == 35500


def test_five_tile_gelu_splits_its_tiles_for_balance():
    # Five whole tiles on four threads leave one thread two of them; forty
    # 1-row sub-tiles deal out ten to each.
    cfg = MachineConfig(lanes=8, threads=4)
    spec = gelu(n=5 * 16384)
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    choice = choose_composition(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg))
    assert (choice.rows, choice.forks) == (1, 1)
    inputs = make_inputs(spec)
    assert run_rung(spec, LadderRung.VEC_MT_DB, cfg).timing.total_cycles == 49500
    assert simulate_timed(_thread_pipelines(base, cfg), inputs, cfg)[1].total_cycles == 78508


# Ties on this machine: two 1-row tiles cost 2,075 cycles with no fork and
# with per-thread pipelines; 64 2-row tiles cost 3,078 as per-thread
# pipelines over whole tiles and over tiles merged in pairs.
TIE_CFG = MachineConfig(
    lanes=8, threads=2, dma_startup=1, dma_bandwidth=1024, fork_cost=100, join_cost=824
)


@pytest.mark.parametrize(
    "spec, expected",
    [
        (vec_add_2d(rows=2, cols=2048, tile_rows=1), False),  # no fork beats one
        (vec_add_2d(rows=128, cols=64, tile_rows=2), True),  # merged pairs beat whole tiles
    ],
)
def test_a_tie_goes_to_fewer_forks(spec, expected):
    """Then to more rows per tile, which moves fewer transfers."""
    base = build_kernel(spec, tcm_capacity=TIE_CFG.tcm_capacity)
    spec_db = PipelineSpec(LadderRung.VEC_MT_DB, TIE_CFG)
    candidates = compositions(base, spec_db)
    choice = choose_composition(base, spec_db)
    tied = [c for c in candidates if c.cycles == choice.cycles]
    assert len(tied) == 2 and choice == min(tied, key=lambda c: (c.forks, -c.rows))
    assert (choice.rows, choice.forks) == ((4, 1) if expected else (1, 0))
    m = run_pipeline(base, spec_db)
    forks = sum(1 for _, op in walk_module(m) if isinstance(op, AsyncExecute))
    assert forks == (TIE_CFG.threads if expected else 0)


def test_overlapping_tiles_run_one_pipeline():
    # Output tiles 2 rows apart but 4 rows tall: the tile loop can neither
    # fork nor split.
    base = build_kernel(vec_add_2d(rows=16, cols=1024, tile_rows=4))
    loop = base.body[0]
    body = tuple(
        replace(op, dst=replace(op.dst, row_scale=2))
        if isinstance(op, Copy) and op.dst.base == "C"
        else op
        for op in loop.body
    )
    m = replace(base, body=(replace(loop, body=body),))
    spec = PipelineSpec(LadderRung.VEC_MT_DB, CFG)
    assert [(c.rows, c.forks) for c in compositions(m, spec)] == [(4, 0)]
    assert verify_module(run_pipeline(m, spec), CFG) == []


# Two 4-row tiles and a peeled 2-row tail: 8 rows in the loop.
TAILED = vec_add_2d(rows=10, cols=256, tile_rows=4)


@pytest.mark.parametrize(
    "rows, tiles",
    [(1, 8), (2, 4), (8, 1)],  # split into single rows and into halves; merged into one
)
def test_retile_rebuilds_the_normal_form_loop(rows, tiles):
    base = build_kernel(TAILED)
    m = retile(base, rows)
    desc = match_normal_form(m)
    assert desc.loop.tile_count == tiles and m.body[1:] == base.body[1:]
    for view, decl in (*desc.inputs, desc.output):
        assert (view.row_scale, view.row_base, view.row_count, decl.rows) == (rows, 0, rows, rows)
    inputs = make_inputs(TAILED)
    got = interpret_functional(m, inputs)["C"]
    assert got.tobytes() == reference_output(TAILED, inputs)["C"].tobytes()


def test_retile_into_the_kernels_tile_returns_the_module():
    base = build_kernel(TAILED)
    assert retile(base, 4) is base
    gelu_base = build_kernel(gelu())  # 64 tiles of 8 rows
    assert retile(gelu_base, 8) is gelu_base
    assert match_normal_form(retile(gelu_base, 1)).loop.tile_count == 512
    assert match_normal_form(retile(gelu_base, 64)).loop.tile_count == 8


def _overlapping():
    """TAILED with output tiles 2 rows apart but 4 rows tall."""
    base = build_kernel(TAILED)
    loop = base.body[0]
    body = tuple(
        replace(op, dst=replace(op.dst, row_scale=2))
        if isinstance(op, Copy) and op.dst.base == "C"
        else op
        for op in loop.body
    )
    return replace(base, body=(replace(loop, body=body), *base.body[1:]))


@pytest.mark.parametrize(
    "make, rows, reason",
    [
        (lambda: build_kernel(TAILED), 3, "cannot re-tile 8 loop rows into tiles of 3 rows"),
        (lambda: build_kernel(TAILED), 0, "cannot re-tile 8 loop rows into tiles of 0 rows"),
        (lambda: build_kernel(gelu()), 3, "cannot re-tile 512 loop rows into tiles of 3 rows"),
        (_overlapping, 2, "a view is not a contiguous whole-row tile"),
        (
            lambda: db_stage1(build_kernel(TAILED)),
            2,
            "re-tiling requires the single-buffered normal form:"
            " top-level loop is already a ping/pong loop",
        ),
    ],
    ids=["3-rows", "0-rows", "gelu-3-rows", "overlapping", "db-stage1"],
)
def test_retile_refuses_with_a_reason(make, rows, reason):
    with pytest.raises(PassError, match=reason):
        retile(make(), rows)


@pytest.mark.parametrize(
    "spec, cfg, cycles, floor, old_floor",
    [
        (vec_add_2d(4, 8192, 2), MachineConfig(lanes=8, threads=4), 5548, 4096, 8192),
        (vec_add_2d(4, 2048, 2), MachineConfig(lanes=8, threads=4), 2044, 1024, 2048),
        (vec_add_2d(4, 8192, 2), MachineConfig(lanes=16, threads=4), 3500, 2048, 4096),
    ],
)
def test_split_tiles_keep_the_floor_certified(forced_plan, spec, cfg, cycles, floor, old_floor):
    """Two 2-row tiles split into four 1-row tiles run on four threads, where
    a floor over max(tiles, rows) = 2 contexts would be beaten."""
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    candidates = compositions(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg))
    m = _forced(forced_plan, base, cfg, next(c for c in candidates if (c.rows, c.forks) == (1, 1)))
    assert len(_regions(m)) == 4
    stats = collect_stats(base)
    got = latency_lower_bound(stats, cfg, LadderRung.VEC_MT_DB)
    assert got == floor and 2 * got == old_floor
    inputs = make_inputs(spec)
    report = _check(m, spec, cfg, inputs, reference_output(spec, inputs), got)
    assert report.total_cycles == cycles < old_floor


@pytest.mark.parametrize(
    "spec, cfg, rows, cycles, floor, kernel_floor",
    [
        (vec_add_2d(48, 572, 2, seed=1), MachineConfig(lanes=16, threads=2), 24, 4592, 3432, 5252),
        (vec_add_2d(64, 1305, 1, seed=1), MachineConfig(lanes=16, threads=3), 32, 12597, 6960, 14246),
        (vec_add_2d(15, 448, 1, seed=1), MachineConfig(lanes=64, threads=4), 15, 771, 350, 3038),
        (vec_add_2d(54, 1840, 2, seed=8), MachineConfig(lanes=32, threads=4), 6, 5950, 4057, 7513),
    ],
    ids=["48x572-2", "64x1305-1", "15x448-1", "54x1840-2"],
)
def test_merged_tiles_keep_the_schedule_floor_certified(spec, cfg, rows, cycles, floor, kernel_floor):
    """Design-grid draws whose vec-mt merges the kernel's tiles into tiles
    of `rows` rows, forked or not (15x448 runs one unforked loop over one
    tile; 64x1305's first thread then splits its own block into 16-row
    tiles, see choose_composition): the merged schedule pays the transfer
    start-up fewer times than the kernel's tiles would, so it beats a floor
    that counts the kernel's transfers, but not the floor of its own
    schedule."""
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    assert choose_composition(base, PipelineSpec(LadderRung.VEC_MT, cfg)).rows == rows
    run = run_rung(spec, LadderRung.VEC_MT, cfg)
    assert (run.timing.total_cycles, run.lower_bound) == (cycles, floor)
    assert run.timing.total_cycles >= run.lower_bound
    assert latency_lower_bound(collect_stats(base), cfg, LadderRung.VEC_MT) == kernel_floor > cycles


@pytest.mark.parametrize(
    "spec, cfg, before, after",
    [
        # Memory-bound: one pipeline over the 41 1-row tiles merged into one
        # pays the transfer start-up once per operand.
        (vec_add_2d(41, 160, 1), MachineConfig(lanes=8, threads=2), 8418, 3628),
        # Seven GELU tiles merged into four, one per thread, against the
        # seven whole tiles on four threads.
        (gelu(7 * 4096, 4096), MachineConfig(lanes=64, threads=4), 3212, 3028),
        # One pipeline over whole tiles, against one over 1-row sub-tiles,
        # which overlaps all but one row's first load and last store.
        (vec_add_2d(), MachineConfig(threads=1), 134336, 131648),
        # A single tile and a peeled tail: one pipeline over 3-way splits.
        (vec_add_2d(4, 1056, 3), MachineConfig(lanes=16, threads=4), 1542, 1494),
        # The design grid's GELU anchor: per-thread pipelines over its 8-row
        # tiles split in two, against the 4-way split that a closed form
        # priced lower (10,472 cycles).
        (gelu(16 * 4096, 4096), MachineConfig(), 10604, 10588),
    ],
)
def test_cost_model_picks(forced_plan, spec, cfg, before, after):
    """vec-mt-db cycles of the composition the cost model picks (`after`) and
    of the one an earlier rule picked (`before`): the busiest-thread row
    count, or the cost model before GELU tiles could split, before one
    pipeline could run over split tiles, and before it priced pipelines by
    replay and could merge tiles, each candidate forced with every thread at
    its tile rows.  The plan then lets each forked thread re-tile its own
    block, which is never slower (see
    test_each_thread_re_tiles_its_own_pipeline)."""
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    spec_db = PipelineSpec(LadderRung.VEC_MT_DB, cfg)
    inputs = make_inputs(spec)
    cycles = {
        c: simulate_timed(_forced(forced_plan, base, cfg, c), inputs, cfg)[1].total_cycles
        for c in compositions(base, spec_db)
    }
    assert before in cycles.values()
    assert cycles[_uniform(base, spec_db)] == after == min(cycles.values())
    assert run_rung(spec, LadderRung.VEC_MT_DB, cfg).timing.total_cycles <= after


@pytest.mark.parametrize(
    "spec, cfg, tiles, rows, before, after",
    [
        # One 14-row tile per thread: the second and third threads split
        # theirs into 2-row tiles, the fourth into 7-row tiles.
        (gelu(7 * 4096, 4096), MachineConfig(lanes=64, threads=4), 14, (14, 2, 2, 7), 3028, 2948),
        # The design grid's GELU anchor: eight 4-row tiles per thread, of
        # which the first and last threads split theirs in two.
        (gelu(16 * 4096, 4096), MachineConfig(), 4, (2, 4, 4, 2), 10588, 10556),
    ],
)
def test_each_thread_re_tiles_its_own_pipeline(forced_plan, spec, cfg, tiles, rows, before, after):
    """vec-mt-db's per-thread pipelines over the pick's tiles of `tiles` rows
    run `before`; re-tiled as the plan prices them, they run `after`."""
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    spec_db = PipelineSpec(LadderRung.VEC_MT_DB, cfg)
    pick = _uniform(base, spec_db)
    assert set(pick.threads) == {tiles}
    assert choose_composition(base, spec_db) == replace(pick, cycles=after, threads=rows)
    inputs = make_inputs(spec)
    assert simulate_timed(_forced(forced_plan, base, cfg, pick), inputs, cfg)[1].total_cycles == before
    assert run_rung(spec, LadderRung.VEC_MT_DB, cfg).timing.total_cycles == after


def _cut_prices(db, regions, forks):
    """The full price of `regions`, after checking it cut off at 1 and at
    half of it (both stop the run mid-way), just below it, at it and just
    past it: cut off at c <= p it is from c up to p, and past p it is p."""
    p = passes._price(CFG, db, regions, forks)
    for cutoff in (1, p // 2, p - 1, p, p + 1):
        got = passes._price(CFG, db, regions, forks, cutoff)
        assert cutoff <= got <= p if cutoff <= p else got == p, (regions, cutoff, got)
    return p


@pytest.mark.parametrize("rung", [LadderRung.VEC_MT, LadderRung.VEC_MT_DB])
@pytest.mark.parametrize("spec", [vec_add_2d(), gelu()])
def test_a_price_cut_off_below_it_reaches_the_cutoff(spec, rung):
    """The cutoff the plan's per-thread descent relies on, over every
    candidate."""
    base = build_kernel(spec, tcm_capacity=CFG.tcm_capacity)
    tilings = {rows: tile for rows, *tile in passes._tilings(match_normal_form(base), CFG)}
    db = rung is LadderRung.VEC_MT_DB
    for c in compositions(base, PipelineSpec(rung, CFG)):
        n, *tile = tilings[c.rows]
        blocks = partition_tiles(n, min(CFG.threads, n) if c.forks else 1)
        _cut_prices(db, [(len(block), *tile) for block in blocks], c.forks)


@pytest.mark.parametrize(
    "rung, rows, cycles",
    [(LadderRung.VEC_MT, (8, 8, 16, 16), 6956), (LadderRung.VEC_MT_DB, (8, 4, 8, 8), 5996)],
)
def test_a_price_of_re_tiled_threads_cut_off_reaches_the_cutoff(rung, rows, cycles):
    """The same over regions of different tiles: the vec-add anchor's
    threads as the plan re-tiles them at each MT rung."""
    _, stages = _retiled_anchor(rung)
    m = stages["pipeline-async-threads"]
    ddr = {d.id for d in m.buffers}
    regions = []
    for region in _regions(m):
        desc = match_block_explain(region.body, ddr)[0]
        own = desc.output[1].rows
        regions.append(next(tuple(t) for r, *t in passes._tilings(desc, CFG) if r == own))
    assert tuple(region[0] for region in regions) == tuple(16 // r for r in rows)
    plan = choose_composition(stages["initial"], PipelineSpec(rung, CFG))
    assert (plan.threads, plan.cycles) == (rows, cycles)
    assert _cut_prices(rung is LadderRung.VEC_MT_DB, regions, 1) == cycles


def test_the_cost_model_offers_no_tiling_that_vectorize_refuses():
    # A 6x6 tile at 32 lanes: its vector body of 32 elements ends mid-row.
    spec, cfg = vec_add_2d(29, 6, 6), MachineConfig(lanes=32, threads=4)
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    with pytest.raises(PassError, match="cannot split epilogue"):
        vectorize(base, cfg.lanes)
    for rung in (LadderRung.VEC_MT, LadderRung.VEC_MT_DB):
        assert 6 not in {c.rows for c in compositions(base, PipelineSpec(rung, cfg))}
    # One pipeline over the loop's 24 rows in 4-row tiles.
    run = run_rung(spec, LadderRung.VEC_MT_DB, cfg)
    assert run.timing.total_cycles == 1516


@pytest.mark.parametrize("lanes", [1, 3, 4, 8, 32])
@pytest.mark.parametrize("cols", [1, 4, 6, 8])
def test_the_cost_model_prices_the_computes_vectorize_emits(cols, lanes):
    """Over loops of 1 to 3 tiles of 1 to 4 rows: the kernel's own tile is
    offered exactly where vectorize accepts it, and every offered tiling is
    priced by the computes vectorize makes of its loop: a single part, or a
    vector body and a scalar epilogue split on or off a row boundary."""
    cfg = MachineConfig(lanes=lanes)
    for tile_rows in range(1, 5):
        for tiles in range(1, 4):
            base = build_kernel(vec_add_2d(tiles * tile_rows, cols, tile_rows))
            desc = match_normal_form(base)
            tilings = {rows: cs for rows, _, _, cs, _ in passes._tilings(desc, cfg)}
            try:
                vectorize(base, lanes)
            except PassError:
                assert tile_rows not in tilings
            else:
                assert tile_rows in tilings
            for rows, cs in tilings.items():
                m = vectorize(retile(base, rows), lanes)
                loop = next(op for op in m.body if isinstance(op, ForTiles))
                computes = [op for op in loop.body if isinstance(op, Compute)]
                got = [(c.output.elems, c.vector_factor) for c in computes]
                assert got == list(passes._vector_parts(rows * cols, lanes))
                assert cs == tuple(
                    compute_cycles(cfg, c.output.elems, ops_per_element(c.expr), c.vector_factor)
                    for c in computes
                ), (tile_rows, tiles, rows)


@pytest.mark.parametrize("rung", [LadderRung.VEC_MT, LadderRung.VEC_MT_DB])
@pytest.mark.parametrize("spec", [vec_add_2d(), gelu(), gelu(n=1 << 16, tile_elems=1024)])
def test_one_thread_declines_every_fork(spec, rung):
    cfg = MachineConfig(threads=1)
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    m = run_pipeline(base, PipelineSpec(rung, cfg))
    assert not any(isinstance(op, AsyncExecute) for _, op in walk_module(m))
    assert simulate_timed(m, make_inputs(spec), cfg)[1].overhead_cycles == 0


def test_default_gelu_ladder_is_strictly_monotone():
    spec = gelu()
    cycles = [run_rung(spec, rung, CFG).timing.total_cycles for rung in RUNG_ORDER]
    assert cycles == sorted(cycles, reverse=True) and len(set(cycles)) == len(cycles), cycles
