"""Property gate over generated specs and machines, every rung: a rung either
raises PassError for a reason the passes are known to give (see
_check_refusal), or its module is verifier-clean, the interpreter and the
simulator agree bit for bit, the simulator matches the reference, the run
does not beat the certified floor, and a rerun is byte-identical.  Every compute of the module runs at vector factor 1 or the
machine's lanes, and a forked module has at most the machine's threads of
async regions.  Every double-buffered arm a vec-mt-db module holds waits for
its tile before it prefetches the next (see conftest._check_arm_order).

At vec-mt and at vec-mt-db every composition candidate is also forced
through the stage table: each one that compiles passes the same checks, and
each one that refuses gives a known reason (see _known_reasons); each
one the cost model times on the simulator's own event core costs exactly
the cycles it simulates, and each one priced at its lower bound no more;
and the one the cost model picks compiles whenever another does, and is the
fastest.  Both gates pin draws that a closed-form price mispriced, so a
price that regresses on them fails here.  A candidate is forced by
patching choose_composition alone, every thread at the candidate's tile
rows; a third gate checks the plan the cost model makes of the pick at both
rungs, each forked thread at its own tile rows: its price is the simulated
cycles and at most the pick's.  Every run is checked against the floor of
its own schedule, whose transfers re-tiling changes (see collect_stats)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from tilelab.bench import outputs_match
from tilelab.interp import interpret_functional
from tilelab.ir import AsyncExecute, Compute, walk_module
from tilelab.kernels import (
    GeluVariant,
    KernelKind,
    build_kernel,
    gelu,
    make_inputs,
    reference_output,
    vec_add_2d,
)
from tilelab.lower import lower
from tilelab.machine import (
    RUNG_ORDER,
    LadderRung,
    MachineConfig,
    collect_stats,
    latency_lower_bound,
)
from tilelab.passes import (
    PassError,
    PipelineSpec,
    choose_composition,
    compositions,
    run_pipeline,
)
from tilelab.printer import print_module
from tilelab.sim import simulate_timed
from tilelab.verifier import verify_module


@st.composite
def vec_add_specs(draw, cols=(1, 5, 33, 64, 100, 160, 256, 512, 1000)):
    rows = draw(st.integers(1, 24))
    cols = draw(st.sampled_from(cols))
    tile_rows = draw(st.integers(1, rows))  # a short tail tile when it does not divide
    return vec_add_2d(rows, cols, tile_rows, seed=draw(st.integers(0, 9)))


@st.composite
def gelu_specs(draw, tile_elems=(7, 40, 200, 512, 1000, 1024, 2048, 4096)):
    tile_elems = draw(st.sampled_from(tile_elems))
    tiles = draw(st.integers(1, 8))
    variant = draw(st.sampled_from(list(GeluVariant)))
    return gelu(tiles * tile_elems, tile_elems, variant, seed=draw(st.integers(0, 9)))


@st.composite
def cases(draw, specs=st.one_of(vec_add_specs(), gelu_specs()), threads=st.integers(1, 5)):
    spec = draw(specs)
    # The smallest scratchpad the builder accepts (the f32 tiles of one loop
    # body), times a factor: small factors leave no room for the forks' or
    # pipelines' extra copies.
    if spec.kind is KernelKind.VEC_ADD_2D:
        tile_bytes = 3 * spec.tile_rows * spec.cols * 4
    else:
        tile_bytes = 2 * spec.tile_elems * 4
    cfg = MachineConfig(
        lanes=draw(st.sampled_from([1, 2, 3, 5, 8, 12, 16, 32, 64])),
        threads=draw(threads),
        scalar_unit_cost=draw(st.integers(1, 3)),
        vector_unit_cost=draw(st.integers(1, 6)),
        dma_bandwidth=draw(st.integers(1, 1024)),
        dma_startup=draw(st.integers(1, 200)),
        fork_cost=draw(st.integers(1, 300)),
        join_cost=draw(st.integers(1, 300)),
        tcm_capacity=tile_bytes * draw(st.integers(1, 12)),
    )
    return spec, cfg


def _run(spec, rung, cfg, inputs, arm_order):
    """(printed module, outputs, timing) of one rung, checked on the way."""
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    sched = lower(run_pipeline(base, PipelineSpec(rung, cfg)))
    assert verify_module(sched, cfg) == []
    ops = [op for _, op in walk_module(sched.module)]
    assert {op.vector_factor for op in ops if isinstance(op, Compute)} <= {1, cfg.lanes}
    assert sum(isinstance(op, AsyncExecute) for op in ops) <= cfg.threads
    if rung is LadderRung.VEC_MT_DB:
        assert arm_order(sched.module) >= 2
    interp_out = interpret_functional(sched, inputs)
    sim_out, timing = simulate_timed(sched, inputs, cfg)
    assert set(interp_out) == set(sim_out)
    for name in sim_out:
        assert interp_out[name].tobytes() == sim_out[name].tobytes(), name
    assert outputs_match(spec.kind, sim_out, reference_output(spec, inputs))
    assert timing.total_cycles >= latency_lower_bound(collect_stats(base, sched), cfg, rung)
    return print_module(sched.module), {k: v.tobytes() for k, v in sim_out.items()}, timing


def _known_reasons(rung):
    """The refusals the passes are known to give at a rung above scalar: the
    vector split of ROADMAP item 1 and, at vec-mt-db, ping and pong copies
    that overflow the scratchpad."""
    if rung is LadderRung.VEC_MT_DB:
        return ("cannot split epilogue", "double buffering needs")
    return ("cannot split epilogue",)


def _check_refusal(message, spec, rung, cfg):
    """A rung refuses only for a known reason (see _known_reasons), and the
    scalar rung never.  At both MT rungs a refusal that does not name the
    peeled tail's buffer comes only where the cost model has no candidate,
    so the passes never refuse the cost model's own pick."""
    assert rung is not LadderRung.SCALAR, message
    assert message.startswith(_known_reasons(rung)), (rung, message)
    if rung in (LadderRung.VEC_MT, LadderRung.VEC_MT_DB) and "_tail" not in message:
        base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
        assert choose_composition(base, PipelineSpec(rung, cfg)) is None, (rung, message)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(cases())
# A vec-mt-db arm whose compute is a vector body and a scalar epilogue.
@example(
    (
        vec_add_2d(6, 1, 3, seed=0),
        MachineConfig(
            lanes=2, threads=1, scalar_unit_cost=1, vector_unit_cost=1, dma_bandwidth=1,
            dma_startup=1, fork_cost=1, join_cost=1, tcm_capacity=72,
        ),
    )
)
def test_every_rung_runs_or_gives_a_reason(arm_order, case):
    spec, cfg = case
    inputs = make_inputs(spec)
    for rung in RUNG_ORDER:
        try:
            first = _run(spec, rung, cfg, inputs, arm_order)
        except PassError as exc:
            _check_refusal(str(exc), spec, rung, cfg)
            continue
        assert _run(spec, rung, cfg, inputs, arm_order) == first, rung


# Kernels of wide rows, on machines with threads to fork over: cases with
# several vec-mt and vec-mt-db candidates, whose forks may or may not pay.
forkable_cases = cases(
    st.one_of(vec_add_specs((160, 256, 512, 1000, 2048)), gelu_specs((512, 1024, 2048, 4096))),
    st.integers(2, 5),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cases())
def test_vec_mt_offers_every_vec_mt_db_candidate(case):
    """Both MT rungs offer the same tilings, forked by the same rule; only
    the ping/pong copies make vec-mt-db's scratchpad test stricter."""
    spec, cfg = case
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    keys = {
        rung: {(c.rows, c.forks) for c in compositions(base, PipelineSpec(rung, cfg))}
        for rung in (LadderRung.VEC_MT, LadderRung.VEC_MT_DB)
    }
    assert keys[LadderRung.VEC_MT] >= keys[LadderRung.VEC_MT_DB]


def _pick(base, spec):
    """The cost model's plan, and the candidate of compositions it refines:
    the one at the plan's rows and fork, every thread at those rows (None
    for both when there is no candidate)."""
    plan = choose_composition(base, spec)
    if plan is None:
        return None, None
    key = (plan.rows, plan.forks)
    return plan, next(c for c in compositions(base, spec) if (c.rows, c.forks) == key)


def _chosen_is_the_fastest(rung, case, arm_order, forced_plan):
    """Forces every candidate of the rung through the stage table, every
    thread at the candidate's tile rows: the candidate the cost model's plan
    refines is the fastest."""
    spec, cfg = case
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    spec_rung = PipelineSpec(rung, cfg)
    inputs = make_inputs(spec)
    cycles = {}
    for candidate in compositions(base, spec_rung):
        with forced_plan(candidate):
            try:
                _, _, timing = _run(spec, rung, cfg, inputs, arm_order)
            except PassError as exc:
                assert str(exc).startswith(_known_reasons(rung)), (candidate, str(exc))
                continue
        cycles[candidate] = timing.total_cycles
        if candidate.exact:
            assert candidate.cycles == timing.total_cycles, candidate
        else:
            assert candidate.cycles <= timing.total_cycles, candidate
    _, chosen = _pick(base, spec_rung)
    if cycles:
        assert cycles.get(chosen) == min(cycles.values()), (chosen, cycles)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(forkable_cases)
# Grid draws whose closed-form pick ran slowest against the fastest forced
# candidate: per-thread pipelines over 11-row tiles run 1,305 cycles where
# the pick ran 10,725, and per-thread pipelines over whole tiles 1,976
# against 2,092.
@example((vec_add_2d(55, 30, 1, seed=1), MachineConfig(lanes=5, threads=4)))
@example((gelu(8192, 2048, seed=1), MachineConfig(lanes=32, threads=4)))
# Survey draws that the deleted closed forms mispriced: per-thread pipelines
# whose first tile queues behind the regions forked before them, and one
# pipeline over split tiles.  The fastest forced candidates run 15,262, 208
# and 1,656 cycles.
@example(
    (
        vec_add_2d(19, 512, 6),
        MachineConfig(lanes=16, threads=2, dma_bandwidth=9, vector_unit_cost=5),
    )
)
@example(
    (
        gelu(512, 512),
        MachineConfig(
            lanes=64, threads=4, scalar_unit_cost=3, dma_bandwidth=117, dma_startup=19,
            tcm_capacity=12288,
        ),
    )
)
@example((gelu(5120, 1024), MachineConfig(lanes=64, threads=4, fork_cost=275)))
def test_the_chosen_composition_is_the_fastest(arm_order, forced_plan, case):
    _chosen_is_the_fastest(LadderRung.VEC_MT_DB, case, arm_order, forced_plan)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(forkable_cases)
# Draws of forkable_cases whose pick the closed form
# max(F(n, Xin, Xin + C + Xout) - Xin, fork + n*(Xin + Xout) + min(C, Xout)) + join
# put 5.1% to 7.3% over the fastest candidate; the exact price picks the fastest.
@example((vec_add_2d(21, 512, 10, seed=8), MachineConfig(8, 5, 3, 3, 633, 127, 199, 227, 614400)))
@example((vec_add_2d(18, 512, 8, seed=7), MachineConfig(16, 2, 2, 4, 18, 116, 7, 116, 540672)))
@example((gelu(8192, 1024, GeluVariant.ERF, 4), MachineConfig(64, 5, 1, 3, 34, 3, 16, 249, 73728)))
@example(
    (gelu(24576, 4096, GeluVariant.ERF, 9), MachineConfig(32, 5, 3, 3, 1023, 139, 195, 246, 196608))
)
@example((gelu(4096, 2048, GeluVariant.TANH, 8), MachineConfig(8, 4, 3, 5, 1, 75, 32, 74, 196608)))
@example((gelu(20480, 4096, GeluVariant.ERF, 2), MachineConfig(32, 3, 1, 2, 255, 75, 2, 2, 262144)))
@example((gelu(7168, 1024, GeluVariant.TANH, 7), MachineConfig(16, 2, 1, 6, 6, 6, 151, 263, 98304)))
# A merge: ten 2-row tiles re-tiled into four 5-row tiles run 3,356 cycles.
# Priced by the lower bound alone, the 4-row merge (3,159) would win and run
# 3,700, 10.3% over.
@example((vec_add_2d(20, 512, 2, seed=0), MachineConfig(32, 3, 3, 3, 812, 174, 199, 115, 110592)))
# Draws that a vec-mt-only rule kept unforked over the kernel's tiles: one
# GELU tile split into 2-row tiles and forked runs 3,224 cycles against
# 10,112, and 55 1-row tiles merged into five 11-row tiles and forked run
# 1,502 against 12,045.
@example((gelu(16384, 16384), MachineConfig()))
@example((vec_add_2d(55, 30, 1, seed=1), MachineConfig(lanes=5, threads=4)))
def test_the_chosen_vec_mt_composition_is_the_fastest(arm_order, forced_plan, case):
    _chosen_is_the_fastest(LadderRung.VEC_MT, case, arm_order, forced_plan)


@pytest.mark.parametrize("rung", [LadderRung.VEC_MT, LadderRung.VEC_MT_DB])
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(forkable_cases)
# The design grid's vec-add anchor: four threads of one 16-row tile each
# queue for the channel in lockstep (7,276 cycles); re-tiled, they run 6,956.
# At vec-mt-db, four pipelines over two 8-row tiles each run 6,124; the
# second thread splits its tiles in two, and they run 5,996.
@example((vec_add_2d(64, 2048, 8), MachineConfig()))
# Five 11-row tiles forked over four threads (1,502 cycles): the first
# thread merges its two into one 22-row tile and runs 1,176.
@example((vec_add_2d(55, 30, 1, seed=1), MachineConfig(lanes=5, threads=4)))
# Two pipelines over two 2-row tiles each fill the 4 KiB scratchpad; one
# 4-row tile would be cheaper, but its ping and pong do not fit beside the
# other thread's.
@example(
    (
        gelu(512, 512),
        MachineConfig(
            lanes=1, threads=2, dma_bandwidth=769, dma_startup=169, fork_cost=209,
            join_cost=266, tcm_capacity=4096,
        ),
    )
)
def test_retiled_threads_are_priced_exactly(arm_order, forced_plan, rung, case):
    """Every plan of both MT rungs (see choose_composition) runs exactly the
    cycles it is priced at, no more than the pick it refines, and not below
    its schedule floor (checked in _run); an unforked pick is left as it
    is, and a rung that refuses the plan refuses the pick too."""
    spec, cfg = case
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    spec_rung = PipelineSpec(rung, cfg)
    inputs = make_inputs(spec)
    plan, pick = _pick(base, spec_rung)
    try:
        _, _, timing = _run(spec, rung, cfg, inputs, arm_order)
    except PassError as exc:
        assert str(exc)
        with (
            forced_plan(pick),
            pytest.raises(PassError),
        ):
            _run(spec, rung, cfg, inputs, arm_order)
        return
    if plan is None or not plan.forks:
        assert plan == pick
        return
    assert plan.cycles == timing.total_cycles <= pick.cycles
