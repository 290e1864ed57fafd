"""Printer: deterministic, line-oriented, structurally injective."""

import dataclasses
from dataclasses import replace
from enum import Enum
from pathlib import Path

from tilelab.ir import (
    OP_TYPES,
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    Binary,
    BufferDecl,
    Compute,
    Const,
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
)
from tilelab.kernels import build_vec_add_2d, vec_add_2d
from tilelab.machine import LadderRung, MachineConfig
from tilelab.passes import PipelineSpec, db_stage1, db_stage2, run_pipeline
from tilelab.printer import print_module

CFG = MachineConfig()
README = Path(__file__).resolve().parents[1] / "README.md"


def _lines(m):
    return print_module(m).splitlines()


def test_empty_loop_prints_three_lines():
    m = TileModule("loop-only", (), (ForTiles("i", 4, ()),))
    lines = _lines(m)
    assert len(lines) == 3
    assert lines[0] == "for_tiles %i in 0..4 {"
    assert lines[2] == "}"


def test_fork_join_line_order():
    base = build_vec_add_2d(vec_add_2d(), tcm_capacity=CFG.tcm_capacity)
    m = run_pipeline(base, PipelineSpec(LadderRung.VEC_MT, CFG))
    text = print_module(m)
    first_exec = text.index("async.execute")
    first_await = text.index("await_all")
    assert first_exec < first_await


def test_guards_printed():
    base = build_vec_add_2d(vec_add_2d(), tcm_capacity=CFG.tcm_capacity)
    text = print_module(db_stage1(base))
    assert ", if %i < 7" in text


def test_identical_modules_print_identically():
    a = build_vec_add_2d(vec_add_2d(), tcm_capacity=CFG.tcm_capacity)
    b = build_vec_add_2d(vec_add_2d(), tcm_capacity=CFG.tcm_capacity)
    assert a == b
    assert print_module(a) == print_module(b)


def test_structural_change_changes_text():
    a = build_vec_add_2d(vec_add_2d())
    b = build_vec_add_2d(vec_add_2d(rows=64, tile_rows=4))
    c = run_pipeline(a, PipelineSpec(LadderRung.VEC, CFG))
    texts = [print_module(m) for m in (a, b, c)]
    assert len(set(texts)) == 3


def test_name_and_metadata_not_structural():
    a = build_vec_add_2d(vec_add_2d())
    renamed = replace(a, name="other")
    assert print_module(a) == print_module(renamed)


def test_readme_ir_example_is_printed_as_shown():
    """Every line of the README's IR text format excerpt appears, in order,
    in the printed default vec-add after both double-buffering stages."""
    text = README.read_text()
    section = text[text.index("## IR text format") :]
    start = section.index("```\n") + len("```\n")
    shown = section[start : section.index("```", start)].splitlines()
    assert len(shown) > 10
    base = build_vec_add_2d(vec_add_2d(), tcm_capacity=CFG.tcm_capacity)
    printed = iter(_lines(db_stage2(db_stage1(base))))
    for line in shown:
        if line.strip() != "...":
            assert line in printed, line


def _variants(value, optional=False):
    """Values that differ from `value` in exactly one leaf field: a string
    or number changed, an enum member swapped, a tuple's last element dropped
    or one element varied, and an optional field set to None."""
    if optional and value is not None:
        yield None
    if isinstance(value, Enum):
        yield next(member for member in type(value) if member is not value)
    elif isinstance(value, str):
        yield value + "x"
    elif isinstance(value, (int, float)):
        yield value + 1
    elif isinstance(value, tuple):
        yield value[:-1]
        for k, item in enumerate(value):
            for other in _variants(item):
                yield value[:k] + (other,) + value[k + 1 :]
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            for other in _variants(getattr(value, field.name), "None" in str(field.type)):
                yield replace(value, **{field.name: other})


_ROW = ViewRef("X", 1, 2, 1, 8)
# One op of every class, each optional field set so that unsetting it shows.
_SAMPLES = (
    ForTiles("i", 4, (DmaWait(0),), (DmaWait(1),)),
    Forall("i", 4, (2, 1), (DmaWait(0),)),
    AsyncExecute("g", (DmaWait(0),)),
    AwaitAll("g"),
    AllocTcm(BufferDecl("t", MemSpace.TCM, 2, 8)),
    DeallocTcm("t"),
    Copy(_ROW, ViewRef("t", 0, 0, 1, 8), only_if_iv_lt=3, only_if_iv_ge=1),
    DmaStart(_ROW, ViewRef("t", 0, 1, 1, 8), 5, only_if_iv_lt=3, only_if_iv_ge=1),
    DmaWait(5, only_if_iv_lt=3, only_if_iv_ge=1),
    Compute(
        (_ROW, ViewRef("Y", 0, 0, 1, 8)),
        ViewRef("t", 0, 0, 1, 8),
        Binary("add", Unary("tanh", Input(0)), Binary("mul", Input(1), Const(0.5))),
        vector_factor=4,
    ),
)


def test_every_field_of_every_op_shows_in_the_text():
    assert {type(op) for op in _SAMPLES} == OP_TYPES
    for op in _SAMPLES:
        text = print_module(TileModule("one-op", (), (op,)))
        variants = list(_variants(op))
        assert len(variants) >= len(dataclasses.fields(op)), op
        for other in variants:
            assert print_module(TileModule("one-op", (), (other,))) != text, other
