"""Printer: deterministic, line-oriented, structurally injective."""

from dataclasses import replace
from pathlib import Path

from tilelab.ir import ForTiles, TileModule
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
    first_add = text.index("add_to_group")
    first_await = text.index("await_all")
    assert first_exec < first_add < first_await


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
