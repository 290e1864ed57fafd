"""Double buffering: structural pipelining (stage 1) and async DMA (stage 2)."""

import dataclasses
import hashlib

import numpy as np
import pytest

from tilelab.interp import interpret_functional
from tilelab.ir import (
    AllocTcm,
    Binary,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    DmaStart,
    DmaWait,
    ForTiles,
    Input,
    MemSpace,
    TileModule,
    ViewRef,
    dynamic_schedule,
    full_view,
    walk_module,
)
from tilelab.kernels import build_vec_add_2d, make_inputs, reference_output, vec_add_2d
from tilelab.lower import lower, walk
from tilelab.machine import LadderRung, MachineConfig
from tilelab.passes import (
    PassError,
    PipelineSpec,
    db_stage1,
    db_stage2,
    run_pipeline,
)
from tilelab.printer import print_module
from tilelab.sim import simulate_timed
from tilelab.verifier import verify_module

CFG = MachineConfig()


def _build(tiles):
    return build_vec_add_2d(vec_add_2d(rows=tiles, tile_rows=1))


def _is_prefetch(m, op):
    """A copy from a DDR buffer of m into TCM."""
    return isinstance(op, Copy) and op.dst.base not in {d.id for d in m.buffers}


# -- the ping/pong loop ------------------------------------------------------- #


def _ping_pong_loop(tiles):
    """A ping/pong loop over `tiles` one-row tiles of X into Y: the ping arm
    doubles its tile, the pong arm squares it."""

    def arm(op):
        t, u = (BufferDecl(name, MemSpace.TCM, 1, 8) for name in ("t", "u"))
        return (
            AllocTcm(t),
            Copy(ViewRef("X", 1, 0, 1, 8), full_view(t)),
            AllocTcm(u),
            Compute((full_view(t),), full_view(u), Binary(op, Input(0), Input(0))),
            Copy(full_view(u), ViewRef("Y", 1, 0, 1, 8)),
            DeallocTcm("t"),
            DeallocTcm("u"),
        )

    ddr = tuple(BufferDecl(name, MemSpace.DDR, tiles, 8) for name in ("X", "Y"))
    return TileModule("ping-pong", ddr, (ForTiles("i", tiles, arm("add"), arm("mul")),))


@pytest.mark.parametrize("tiles", [1, 2, 3, 5])
def test_a_ping_pong_loop_runs_ping_on_even_tiles_and_pong_on_odd_ones(verify, tiles):
    m = _ping_pong_loop(tiles)
    loop = m.body[0]
    computes = [(s.op, ivs) for s, ivs in walk(lower(m).body) if s.kind == "compute"]
    arms = (loop.body, loop.pong)
    assert computes == [(arms[i % 2][3], (("i", i),)) for i in range(tiles)]
    assert verify(m, CFG) == []
    x = np.arange(tiles * 8, dtype=np.float32).reshape(tiles, 8)
    got = interpret_functional(m, {"X": x})["Y"]
    assert got.tobytes() == simulate_timed(m, {"X": x}, CFG)[0]["Y"].tobytes()
    odd = np.arange(tiles)[:, None] % 2 == 1
    assert np.array_equal(got, np.where(odd, x * x, x + x))


# -- stage 1 ------------------------------------------------------------------ #


@pytest.mark.parametrize("tiles", [1, 2, 3, 8])
def test_dynamic_prefetch_count_equals_tile_count(tiles):
    m = db_stage1(_build(tiles))
    per_buffer: dict[str, int] = {}
    for op, _ in dynamic_schedule(m):
        if _is_prefetch(m, op):
            per_buffer[op.dst.base] = per_buffer.get(op.dst.base, 0) + 1
    # One prefetch per tile per input stream, split across ping/pong buffers.
    assert per_buffer.pop("tA_ping", 0) + per_buffer.pop("tA_pong", 0) == tiles
    assert per_buffer.pop("tB_ping", 0) + per_buffer.pop("tB_pong", 0) == tiles
    assert per_buffer == {}


def test_single_tile_loop_issues_no_inloop_prefetch():
    m = db_stage1(_build(1))
    in_loop = [op for op, ivs in dynamic_schedule(m) if _is_prefetch(m, op) and ivs]
    assert in_loop == []


def test_footprint_doubles():
    base = _build(8)
    before = sum(
        op.decl.nbytes for _, op in walk_module(base) if isinstance(op, AllocTcm)
    )
    after = sum(
        op.decl.nbytes for _, op in walk_module(db_stage1(base)) if isinstance(op, AllocTcm)
    )
    assert after == 2 * before


def test_each_stage1_arm_copies_in_computes_and_copies_out():
    m = db_stage1(_build(8))
    allocs = [op.decl for _, op in walk_module(m) if isinstance(op, AllocTcm)]
    space = {d.id: d.space for d in (*m.buffers, *allocs)}
    loops = [op for _, op in walk_module(m) if isinstance(op, ForTiles) and op.pong is not None]
    arms = [arm for op in loops for arm in (op.body, op.pong)]
    assert len(arms) == 2

    def direction(op):
        return space[op.src.base], space[op.dst.base]

    ddr, tcm = MemSpace.DDR, MemSpace.TCM
    for arm in arms:
        *prefetches, compute, storeback = arm
        assert isinstance(compute, Compute) and len(prefetches) == len(compute.inputs) == 2
        assert all(isinstance(op, Copy) and direction(op) == (ddr, tcm) for op in prefetches)
        assert isinstance(storeback, Copy) and direction(storeback) == (tcm, ddr)


def test_stage1_rejects_its_own_output():
    once = db_stage1(_build(8))
    with pytest.raises(PassError, match="normal form"):
        db_stage1(once)


def test_stage1_preserves_semantics():
    for tiles in (1, 2, 3, 8):
        spec = vec_add_2d(rows=tiles, tile_rows=1)
        m = db_stage1(build_vec_add_2d(spec))
        inputs = make_inputs(spec)
        assert np.array_equal(
            interpret_functional(m, inputs)["C"], reference_output(spec, inputs)["C"]
        )


# -- stage 2 ------------------------------------------------------------------ #


@pytest.mark.parametrize("composition", ["one-pipeline", "per-thread"])
def test_each_arm_waits_for_its_tile_before_prefetching_the_next(arm_order, composition):
    if composition == "one-pipeline":
        m, arms = db_stage2(db_stage1(_build(8))), 2
    else:
        # The design-grid vec-add anchor: four threads, each its own pipeline.
        cfg = MachineConfig(threads=4)
        base = build_vec_add_2d(vec_add_2d(64, 2048, 8))
        m, arms = run_pipeline(base, PipelineSpec(LadderRung.VEC_MT_DB, cfg)), 4 * 2
    assert arm_order(m) == arms


def test_ping_and_pong_tags_distinct_per_stream():
    m = db_stage2(db_stage1(_build(8)))
    starts = [op for _, op in walk_module(m) if isinstance(op, DmaStart)]
    # A tag's role follows from its DMAs' destinations: one TCM buffer for a
    # ping or pong prefetch, the DDR output for a storeback.
    into = {}
    for op in starts:
        into.setdefault(op.tag, set()).add(op.dst.base)
    tags = {op.dst.base: op.tag for op in starts}
    assert tags["tA_ping"] != tags["tA_pong"]
    assert into[tags["tA_ping"]] == {"tA_ping"}
    assert into[tags["tA_pong"]] == {"tA_pong"}
    storeback = {op.src.base: op.tag for op in starts if op.dst.base == "C"}
    assert storeback["tC_ping"] != storeback["tC_pong"]
    assert into[storeback["tC_ping"]] == into[storeback["tC_pong"]] == {"C"}


@pytest.mark.parametrize("tiles", [1, 2, 3, 8])
def test_tag_balance_on_the_dynamic_path(tiles):
    m = db_stage2(db_stage1(_build(tiles)))
    starts: dict[int, int] = {}
    waits: dict[int, int] = {}
    for op, _ in dynamic_schedule(m):
        if isinstance(op, DmaStart):
            starts[op.tag] = starts.get(op.tag, 0) + 1
        elif isinstance(op, DmaWait):
            waits[op.tag] = waits.get(op.tag, 0) + 1
    assert starts == waits
    assert verify_module(m, CFG) == []


def test_stage2_requires_a_ping_pong_loop():
    with pytest.raises(PassError, match="requires one ping/pong loop, found 0"):
        db_stage2(_build(8))


@pytest.mark.parametrize("tiles", [1, 3, 8])
def test_stage2_preserves_semantics(tiles):
    spec = vec_add_2d(rows=tiles, tile_rows=1)
    m = db_stage2(db_stage1(build_vec_add_2d(spec)))
    inputs = make_inputs(spec)
    assert np.array_equal(
        interpret_functional(m, inputs)["C"], reference_output(spec, inputs)["C"]
    )


def test_ping_pong_refuses_what_overflows_tcm():
    # Ping and pong copies of one 24 KiB tile body need twice the scratchpad.
    base = build_vec_add_2d(vec_add_2d(16, 256, 8))
    with pytest.raises(PassError, match="double buffering needs 49152 bytes .* > capacity 24576"):
        db_stage1(base, 24576)
    assert verify_module(db_stage1(base, 49152), MachineConfig(tcm_capacity=49152)) == []


# tiles -> first 16 hex digits of sha256(print_module) after db-stage1 and
# db-stage2, for one pipeline over 1-row tiles of a 64-column vec-add.
ONE_PIPELINE_IR = {
    1: ("5eebffd4e992a80d", "003883988a654308"),
    2: ("ca0f39d164679ff0", "521e701e957821a1"),
    3: ("ee52adeffac43b3e", "4996d100923d82fa"),
}


@pytest.mark.parametrize("tiles", sorted(ONE_PIPELINE_IR))
def test_one_pipeline_ir_is_pinned(tiles):
    # The stages run directly: the cost model merges these tiles into one.
    stage1 = db_stage1(build_vec_add_2d(vec_add_2d(rows=tiles, cols=64, tile_rows=1)))
    texts = [print_module(m) for m in (stage1, db_stage2(stage1))]
    digests = tuple(hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts)
    assert digests == ONE_PIPELINE_IR[tiles]
    # The final waits balance the storebacks: the ping arm runs ceil(T/2)
    # times, the pong arm floor(T/2), so at one tile the pong arm never runs.
    lines = texts[1].splitlines()
    after_loop = lines[lines.index("}") + 1 :]
    waits = [line for line in after_loop if line.startswith("dma.wait")]
    assert waits == ["dma.wait tag=4", "dma.wait tag=5"][: min(tiles, 2)]


def test_stage2_refuses_an_edited_pipeline():
    m = db_stage1(_build(8))
    index, loop = next((i, op) for i, op in enumerate(m.body) if isinstance(op, ForTiles))
    assert isinstance(loop.pong[2], Compute)
    # The pong arm computes into the ping output buffer.
    wrong = dataclasses.replace(loop.pong[2], output=loop.body[2].output)
    loop = dataclasses.replace(loop, pong=loop.pong[:2] + (wrong,) + loop.pong[3:])
    m = dataclasses.replace(m, body=m.body[:index] + (loop,) + m.body[index + 1 :])
    with pytest.raises(PassError, match=rf"body\[{index}\]\.pong\[2\] \(Compute\)"):
        db_stage2(m)
