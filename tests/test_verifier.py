"""Verifier: every invariant violation surfaces as a diagnostic."""

import numpy as np
import pytest

from tilelab.interp import InterpError, interpret_functional
from tilelab.ir import (
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    Binary,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    DmaStart,
    DmaWait,
    Forall,
    ForTiles,
    Input,
    MemSpace,
    TileModule,
    Unary,
    ViewRef,
    full_view,
)
from tilelab.kernels import (
    build_gelu,
    build_vec_add_2d,
    gelu,
    make_inputs,
    reference_output,
    vec_add_2d,
    vec_add_expr,
)
from tilelab.lower import lower
from tilelab.machine import MachineConfig, RUNG_ORDER
from tilelab.passes import (
    PipelineSpec,
    form_async_threads,
    form_virtual_threads,
    run_pipeline,
)
from tilelab.sim import simulate_timed
from tilelab.verifier import verify_module

CFG = MachineConfig()

DDR = lambda name, rows, cols: BufferDecl(name, MemSpace.DDR, rows, cols)
TCM = lambda name, rows, cols: BufferDecl(name, MemSpace.TCM, rows, cols)


def test_builders_verify_clean():
    assert verify_module(build_vec_add_2d(vec_add_2d()), CFG) == []
    assert verify_module(build_gelu(gelu()), CFG) == []


def test_all_rungs_verify_clean():
    for spec in (vec_add_2d(), gelu()):
        base = (
            build_vec_add_2d(spec, tcm_capacity=CFG.tcm_capacity)
            if spec.kind.value == "vec-add-2d"
            else build_gelu(spec, tcm_capacity=CFG.tcm_capacity)
        )
        for rung in RUNG_ORDER:
            transformed = run_pipeline(base, PipelineSpec(rung, CFG))
            assert verify_module(transformed, CFG) == [], rung


def test_unbalanced_tag_diagnostic(verify):
    t = TCM("t", 1, 16)
    m = TileModule(
        "bad-tag",
        (DDR("X", 1, 16),),
        (
            AllocTcm(t),
            DmaStart(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t), tag=3),
            DeallocTcm("t"),
        ),
    )
    diags = verify(m, CFG)
    assert any("unbalanced tag 3" in d for d in diags)


def test_a_tag_reused_with_another_destination(verify):
    t, u = TCM("t", 1, 16), TCM("u", 1, 16)
    m = TileModule(
        "retag",
        (DDR("X", 1, 16),),
        (
            AllocTcm(t),
            AllocTcm(u),
            DmaStart(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t), tag=2),
            DmaWait(2),
            DmaStart(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(u), tag=2),
            DmaWait(2),
            DeallocTcm("t"),
            DeallocTcm("u"),
        ),
    )
    assert verify(m, CFG) == ["body[4]: tag 2 reused with a different destination (@t vs @u)"]


def test_tcm_capacity_diagnostic_once(verify):
    # Two simultaneously-live 160 KiB buffers against a 256 KiB scratchpad.
    a, b = TCM("a", 1, 40960), TCM("b", 1, 40960)
    m = TileModule(
        "fat",
        (),
        (AllocTcm(a), AllocTcm(b), DeallocTcm("a"), DeallocTcm("b")),
    )
    diags = verify(m, MachineConfig(tcm_capacity=262144))
    capacity = [d for d in diags if "capacity" in d]
    assert len(capacity) == 1
    assert "327680" in capacity[0]
    # The same module fits a larger scratchpad.
    assert verify_module(m, MachineConfig(tcm_capacity=327680)) == []


def test_view_out_of_bounds(verify):
    t = TCM("t", 4, 8)
    m = TileModule(
        "oob",
        (DDR("X", 8, 8),),
        (
            ForTiles(
                "i",
                4,
                (
                    AllocTcm(t),
                    # offset 2*i + 1 reaches row 7 + 4 > 8 at i = 3
                    Copy(src=ViewRef("X", 2, 1, 4, 8), dst=full_view(t)),
                    DeallocTcm("t"),
                ),
            ),
        ),
    )
    diags = verify(m, CFG)
    assert any("out of bounds" in d for d in diags)


def test_transfer_shape_mismatch(verify):
    t = TCM("t", 1, 8)
    m = TileModule(
        "mismatch",
        (DDR("X", 1, 16),),
        (AllocTcm(t), Copy(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t)), DeallocTcm("t")),
    )
    diags = verify(m, CFG)
    assert any("shape mismatch" in d for d in diags)


def test_guard_outside_any_loop_flagged(verify):
    t = TCM("t", 1, 16)
    m = TileModule(
        "top-guard",
        (DDR("X", 1, 16),),
        (
            AllocTcm(t),
            Copy(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t), only_if_iv_lt=0),
            DeallocTcm("t"),
        ),
    )
    assert verify(m, CFG) == [
        "body[1]: guard on an induction variable outside any loop"
    ]


def test_vector_factor_floor(verify):
    t_in, t_out = TCM("a", 1, 8), TCM("b", 1, 8)
    m = TileModule(
        "vf",
        (),
        (
            AllocTcm(t_in),
            AllocTcm(t_out),
            Compute((full_view(t_in),), full_view(t_out), vec_add_expr(), vector_factor=0),
            DeallocTcm("a"),
            DeallocTcm("b"),
        ),
    )
    diags = verify(m, CFG)
    assert any("vector_factor" in d for d in diags)


@pytest.mark.parametrize(
    "expr, diag",
    [
        (Unary("sin", Input(0)), "body[3]: unknown unary op 'sin'"),
        (Binary("pow", Input(0), Input(0)), "body[3]: unknown binary op 'pow'"),
    ],
    ids=["sin", "pow"],
)
def test_unknown_expression_op_flagged(verify, expr, diag):
    t_in, t_out = TCM("tX", 1, 16), TCM("tY", 1, 16)
    m = TileModule(
        "unknown-op",
        (DDR("X", 1, 16), DDR("Y", 1, 16)),
        (
            AllocTcm(t_in),
            Copy(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t_in)),
            AllocTcm(t_out),
            Compute((full_view(t_in),), full_view(t_out), expr),
            Copy(src=full_view(t_out), dst=ViewRef("Y", 0, 0, 1, 16)),
            DeallocTcm("tX"),
            DeallocTcm("tY"),
        ),
    )
    assert verify(m, CFG) == [diag]
    with pytest.raises(InterpError, match="cannot evaluate expression node"):
        interpret_functional(m, {"X": np.zeros((1, 16), np.float32)})


def test_leaked_and_dead_tcm(verify):
    m = TileModule("leak", (), (AllocTcm(TCM("t", 1, 8)), DeallocTcm("nope")))
    diags = verify(m, CFG)
    assert any("not live" in d for d in diags)
    assert any("never deallocated" in d for d in diags)


def test_concurrent_async_regions_share_capacity(verify):
    # Four concurrent regions of ~1.5 MiB each exceed a 4 MiB scratchpad even
    # though each region alone fits.  The whole tiles are forked for the
    # default scratchpad: for the small one the tile fork refuses them
    # (test_multithread), and vec-mt forks split tiles that fit.
    small = MachineConfig(tcm_capacity=4_194_304)
    base = build_vec_add_2d(vec_add_2d())
    m = form_async_threads(form_virtual_threads(base, CFG.threads))
    diags = verify(m, small)
    assert any("concurrent async regions" in d for d in diags)
    assert verify_module(m, MachineConfig(tcm_capacity=8_388_608)) == []


def _fill(t: BufferDecl) -> tuple:
    """Allocates `t`, fills it from row 0 of @X and frees it."""
    return (AllocTcm(t), Copy(src=ViewRef("X", 0, 0, 1, t.cols), dst=full_view(t)), DeallocTcm(t.id))


def test_a_forked_region_holds_its_scratchpad_until_its_await(verify):
    """A region fills and frees 3,072 bytes; while it runs, the parent
    fills 3,072 bytes of its own, which a 4,096-byte scratchpad cannot hold
    at once.  Once the group's await has joined the region, it can, and a
    fork and its await inside one loop arm free the region's bytes before
    the next iteration forks again."""
    small = MachineConfig(tcm_capacity=4096)
    region = AsyncExecute("g", _fill(TCM("t", 1, 768)))
    parent = _fill(TCM("u", 1, 768))
    ddr = (DDR("X", 1, 768),)
    overlapping = TileModule("overlap", ddr, (region, *parent, AwaitAll("g")))
    assert verify(overlapping, small) == [
        "body[1]: tcm capacity exceeded: 6144 bytes live > capacity 4096"
    ]
    joined = TileModule("joined", ddr, (region, AwaitAll("g"), *parent))
    assert verify(joined, small) == []
    in_arm = TileModule("in-arm", ddr, (ForTiles("i", 2, (region, AwaitAll("g"), *parent)),))
    assert verify(in_arm, small) == []


def test_a_forked_group_is_awaited(verify):
    m = TileModule("unjoined", (), (AsyncExecute("g", ()),))
    assert verify(m, CFG) == ["body: async group @g is never awaited"]


def test_an_async_region_frees_what_it_allocates(verify):
    m = TileModule("leaky", (), (AsyncExecute("g", (AllocTcm(TCM("t", 1, 8)),)), AwaitAll("g")))
    assert verify(m, CFG) == ["body[0].body: async region leaks tcm allocations past its end"]


def test_a_forall_does_not_run(verify):
    """Ten one-row tiles dealt to four threads in blocks of 3, 3, 2 and 2
    rows, each thread at tile rows that divide its block: the verifier
    reports the forall, lowering and both executors refuse it, and what
    fork-join lowering makes of it runs.  The threads' rules are fork-join
    lowering's alone (test_multithread)."""
    spec = vec_add_2d(10, 64, 1)
    base = build_vec_add_2d(spec)
    loop = base.body[0]
    m = TileModule(base.name, base.buffers, (Forall(loop.iv, 10, (3, 3, 2, 1), loop.body),))
    diags = verify(m, CFG)
    assert len(diags) == 1 and diags[0].startswith("body[0]: ")
    assert "fork-join lowering" in diags[0]
    inputs = make_inputs(spec)
    for run in (
        lambda: lower(m),
        lambda: interpret_functional(m, inputs),
        lambda: simulate_timed(m, inputs, CFG),
    ):
        with pytest.raises(ValueError, match="fork-join lowering"):
            run()
    forked = form_async_threads(m)
    assert verify(forked, CFG) == []
    outputs, report = simulate_timed(forked, inputs, CFG)
    assert np.array_equal(outputs["C"], reference_output(spec, inputs)["C"])
    assert report.total_cycles == 1662


def test_two_top_level_loops_rejected(verify):
    m = TileModule("twoloops", (), (ForTiles("i", 1, ()), ForTiles("j", 1, ())))
    diags = verify(m, CFG)
    assert any("at most one top-level" in d for d in diags)


def test_diagnostics_are_ordered_and_deterministic(verify):
    t = TCM("t", 1, 8)
    m = TileModule(
        "multi",
        (DDR("X", 1, 16),),
        (
            AllocTcm(t),
            Copy(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t)),
            DmaStart(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t), tag=9),
        ),
    )
    first = verify(m, CFG)
    assert first == verify_module(m, CFG)
    assert len(first) >= 3


def _check_arm_leak(verify, leaking_arm):
    """A ping/pong loop over 4 tiles whose `leaking_arm` ("body" or "pong")
    also allocates @u and never frees it.  The allocation outlives the arm,
    so the arm's second run (the loop's third or fourth iteration) allocates
    @u again; both executors fail there."""
    t, u = TCM("t", 1, 8), TCM("u", 1, 8)
    arm = (
        AllocTcm(t),
        Copy(src=ViewRef("X", 1, 0, 1, 8), dst=full_view(t)),
        Copy(src=full_view(t), dst=ViewRef("Y", 1, 0, 1, 8)),
        DeallocTcm("t"),
    )
    leak = arm[:2] + (AllocTcm(u),) + arm[2:]
    ping, pong = (leak, arm) if leaking_arm == "body" else (arm, leak)
    m = TileModule("arm-leak", (DDR("X", 4, 8), DDR("Y", 4, 8)), (ForTiles("i", 4, ping, pong),))
    assert verify(m, CFG) == [
        f"body[0].{leaking_arm}: loop body must free every tcm buffer it allocates"
    ]
    with pytest.raises(InterpError, match="buffer @u already live"):
        interpret_functional(m, {"X": np.zeros((4, 8), np.float32)})


def test_tcm_allocated_in_the_ping_arm_must_be_freed(verify):
    """The ping arm: the loop's even iterations."""
    _check_arm_leak(verify, "body")


def test_tcm_allocated_in_the_pong_arm_must_be_freed(verify):
    _check_arm_leak(verify, "pong")


def test_a_non_op_in_a_body_is_an_unknown_op():
    m = TileModule("x", (), (Input(0),))
    assert verify_module(m, CFG) == ["body[0]: unknown op Input(index=0)"]

