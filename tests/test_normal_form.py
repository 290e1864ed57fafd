"""Normal-form matcher: exact match or no match, never partial."""

from dataclasses import replace

from tilelab.ir import AllocTcm, Copy, ForTiles
from tilelab.kernels import build_gelu, build_vec_add_2d, gelu, vec_add_2d
from tilelab.normal_form import match_normal_form, match_normal_form_explain
from tilelab.passes import db_stage1


def test_vec_add_matches_with_two_input_triples():
    desc = match_normal_form(build_vec_add_2d(vec_add_2d()))
    assert desc is not None
    assert len(desc.inputs) == 2
    assert desc.compute is not None


def test_gelu_matches_with_one_input_triple():
    desc = match_normal_form(build_gelu(gelu()))
    assert desc is not None
    assert len(desc.inputs) == 1


def test_short_tail_kernel_still_matches_the_loop():
    desc = match_normal_form(build_vec_add_2d(vec_add_2d(rows=10, tile_rows=4)))
    assert desc is not None
    assert desc.loop.tile_count == 2


def test_stage1_output_does_not_match():
    pipelined = db_stage1(build_vec_add_2d(vec_add_2d()))
    desc, reason = match_normal_form_explain(pipelined)
    assert desc is None
    assert reason  # names the first deviation


def test_copy_before_alloc_does_not_match():
    m = build_vec_add_2d(vec_add_2d())
    loop = m.body[0]
    assert isinstance(loop, ForTiles)
    body = list(loop.body)
    assert isinstance(body[0], AllocTcm) and isinstance(body[1], Copy)
    body[0], body[1] = body[1], body[0]
    reordered = replace(m, body=(replace(loop, body=tuple(body)),))
    assert match_normal_form(reordered) is None


def test_trailing_op_in_loop_body_does_not_match():
    m = build_vec_add_2d(vec_add_2d())
    loop = m.body[0]
    extended = replace(loop, body=loop.body + (loop.body[-1],))
    assert match_normal_form(replace(m, body=(extended,))) is None
