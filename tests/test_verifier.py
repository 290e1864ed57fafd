"""Verifier: every invariant violation surfaces as a diagnostic."""

from tilelab.bench import pipeline_for
from tilelab.ir import (
    AllocTcm,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    DmaStart,
    DmaTag,
    FlipToggle,
    ForTiles,
    IfToggle,
    MemSpace,
    TileModule,
    ViewRef,
    full_view,
)
from tilelab.kernels import build_gelu, build_vec_add_2d, gelu, vec_add_2d, vec_add_expr
from tilelab.machine import LadderRung, MachineConfig, RUNG_ORDER
from tilelab.passes import run_pipeline
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
            transformed = run_pipeline(base, pipeline_for(rung, CFG))
            assert verify_module(transformed, CFG) == [], rung


def test_unbalanced_tag_diagnostic():
    t = TCM("t", 1, 16)
    m = TileModule(
        "bad-tag",
        (DDR("X", 1, 16),),
        (
            AllocTcm(t),
            DmaStart(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t), tag=DmaTag(3)),
            DeallocTcm("t"),
        ),
    )
    diags = verify_module(m, CFG)
    assert any("unbalanced tag 3" in d for d in diags)


def test_tcm_capacity_diagnostic_once():
    # Two simultaneously-live 160 KiB buffers against a 256 KiB scratchpad.
    a, b = TCM("a", 1, 40960), TCM("b", 1, 40960)
    m = TileModule(
        "fat",
        (),
        (AllocTcm(a), AllocTcm(b), DeallocTcm("a"), DeallocTcm("b")),
    )
    diags = verify_module(m, MachineConfig(tcm_capacity=262144))
    capacity = [d for d in diags if "capacity" in d]
    assert len(capacity) == 1
    assert "327680" in capacity[0]
    # The same module fits a larger scratchpad.
    assert verify_module(m, MachineConfig(tcm_capacity=327680)) == []


def test_view_out_of_bounds():
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
    diags = verify_module(m, CFG)
    assert any("out of bounds" in d for d in diags)


def test_transfer_shape_mismatch():
    t = TCM("t", 1, 8)
    m = TileModule(
        "mismatch",
        (DDR("X", 1, 16),),
        (AllocTcm(t), Copy(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t)), DeallocTcm("t")),
    )
    diags = verify_module(m, CFG)
    assert any("shape mismatch" in d for d in diags)


def test_toggle_ops_require_carried_toggle():
    m = TileModule(
        "toggle",
        (),
        (ForTiles("i", 2, (IfToggle((), ()), FlipToggle())),),
    )
    diags = verify_module(m, CFG)
    assert any("if_toggle" in d for d in diags)
    assert any("flip_toggle" in d for d in diags)


def test_guard_outside_any_loop_flagged():
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
    assert verify_module(m, CFG) == [
        "body[1]: guard on an induction variable outside any loop"
    ]


def test_vector_factor_floor():
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
    diags = verify_module(m, CFG)
    assert any("vector_factor" in d for d in diags)


def test_leaked_and_dead_tcm():
    m = TileModule("leak", (), (AllocTcm(TCM("t", 1, 8)), DeallocTcm("nope")))
    diags = verify_module(m, CFG)
    assert any("not live" in d for d in diags)
    assert any("never deallocated" in d for d in diags)


def test_concurrent_async_regions_share_capacity():
    # Four concurrent regions of ~1.5 MiB each exceed a 4 MiB scratchpad even
    # though each region alone fits.
    small = MachineConfig(tcm_capacity=4_194_304)
    base = build_vec_add_2d(vec_add_2d())
    m = run_pipeline(base, pipeline_for(LadderRung.VEC_MT, small))
    diags = verify_module(m, small)
    assert any("concurrent async regions" in d for d in diags)
    assert verify_module(m, MachineConfig(tcm_capacity=8_388_608)) == []


def test_two_top_level_loops_rejected():
    m = TileModule("twoloops", (), (ForTiles("i", 1, ()), ForTiles("j", 1, ())))
    diags = verify_module(m, CFG)
    assert any("at most one top-level" in d for d in diags)


def test_diagnostics_are_ordered_and_deterministic():
    t = TCM("t", 1, 8)
    m = TileModule(
        "multi",
        (DDR("X", 1, 16),),
        (
            AllocTcm(t),
            Copy(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t)),
            DmaStart(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t), tag=DmaTag(9)),
        ),
    )
    first = verify_module(m, CFG)
    assert first == verify_module(m, CFG)
    assert len(first) >= 3
