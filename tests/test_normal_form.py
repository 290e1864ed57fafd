"""Normal form: the builders construct it, the matcher accepts exactly what
`normal_form_tile` rebuilds, and double buffering consumes it."""

from dataclasses import replace

import pytest

from tilelab.bench import outputs_match
from tilelab.interp import interpret_functional
from tilelab.ir import AllocTcm, AsyncExecute, Copy, ForTiles, MemSpace
from tilelab.kernels import (
    build_gelu,
    build_kernel,
    build_vec_add_2d,
    gelu,
    make_inputs,
    reference_output,
    vec_add_2d,
)
from tilelab.machine import MachineConfig
from tilelab.normal_form import match_block_explain, match_normal_form, normal_form_tile
from tilelab.passes import (
    db_stage1,
    db_stage2,
    form_async_threads,
    form_virtual_threads,
    vectorize,
)
from tilelab.verifier import verify_module

CFG = MachineConfig()
SPECS = {
    "vec-add": vec_add_2d(),
    "vec-add-tail": vec_add_2d(rows=10, tile_rows=4),
    "gelu": gelu(),
    "gelu-fine": gelu(n=1 << 14, tile_elems=1024),
}


def _explain(m):
    return match_block_explain(m.body, {d.id for d in m.buffers})


def _with_loop_body(m, body):
    loop = m.body[0]
    assert isinstance(loop, ForTiles)
    return replace(m, body=(replace(loop, body=tuple(body)),) + m.body[1:])


def test_vec_add_matches_with_two_input_triples():
    desc = match_normal_form(build_vec_add_2d(vec_add_2d()))
    assert desc is not None
    assert [decl.id for _, decl in desc.inputs] == ["tA", "tB"]
    assert desc.output[0].base == "C" and desc.output[1].id == "tC"


def test_gelu_matches_with_one_input_triple():
    desc = match_normal_form(build_gelu(gelu()))
    assert desc is not None
    assert len(desc.inputs) == 1


def test_short_tail_kernel_still_matches_the_loop():
    desc = match_normal_form(build_vec_add_2d(vec_add_2d(rows=10, tile_rows=4)))
    assert desc is not None
    assert desc.loop.tile_count == 2


@pytest.mark.parametrize("kernel", list(SPECS))
def test_each_builder_loop_is_rebuilt_from_its_descriptor(kernel):
    desc = match_normal_form(build_kernel(SPECS[kernel]))
    assert desc is not None
    assert normal_form_tile(desc.inputs, desc.output, desc.compute.expr) == desc.loop.body


@pytest.mark.parametrize("kernel", list(SPECS))
def test_each_thread_loop_is_rebuilt_from_its_descriptor(kernel):
    base = build_kernel(SPECS[kernel])
    forked = form_async_threads(form_virtual_threads(base, 4))
    regions = [op for op in forked.body if isinstance(op, AsyncExecute)]
    assert regions
    ddr = {d.id for d in base.buffers}
    for region in regions:
        desc, reason = match_block_explain(region.body, ddr)
        assert desc is not None, reason
        assert normal_form_tile(desc.inputs, desc.output, desc.compute.expr) == desc.loop.body


@pytest.mark.parametrize("kernel", ["vec-add", "gelu"])
def test_a_vectorized_loop_is_double_buffered(kernel):
    spec = SPECS[kernel]
    m = db_stage2(db_stage1(vectorize(build_kernel(spec), 32)))
    assert verify_module(m, CFG) == []
    inputs = make_inputs(spec)
    got = interpret_functional(m, inputs)
    assert outputs_match(spec.kind, got, reference_output(spec, inputs))


def test_stage1_output_does_not_match():
    desc, reason = _explain(db_stage1(build_vec_add_2d(vec_add_2d())))
    assert desc is None
    assert reason == "top-level loop is already a ping/pong loop"


def test_copy_before_alloc_does_not_match():
    m = build_vec_add_2d(vec_add_2d())
    body = list(m.body[0].body)
    assert isinstance(body[0], AllocTcm) and isinstance(body[1], Copy)
    body[0], body[1] = body[1], body[0]
    assert _explain(_with_loop_body(m, body)) == (
        None,
        "loop body op 0: Copy differs from the normal form",
    )


def test_trailing_op_in_loop_body_does_not_match():
    m = build_vec_add_2d(vec_add_2d())
    body = m.body[0].body
    assert _explain(_with_loop_body(m, body + (body[-1],))) == (
        None,
        f"loop body op {len(body)}: DeallocTcm differs from the normal form",
    )


def test_a_missing_copy_out_does_not_match():
    m = build_gelu(gelu())
    body = m.body[0].body
    assert isinstance(body[4], Copy)
    assert _explain(_with_loop_body(m, body[:4] + body[5:])) == (
        None,
        "loop body op 4: DeallocTcm differs from the normal form",
    )


def test_a_guarded_copy_does_not_match():
    m = build_gelu(gelu())
    body = list(m.body[0].body)
    assert isinstance(body[1], Copy)
    body[1] = replace(body[1], only_if_iv_lt=1)
    assert _explain(_with_loop_body(m, body)) == (
        None,
        "loop body op 1: Copy differs from the normal form",
    )


def test_an_output_alloc_outside_tcm_does_not_match():
    m = build_gelu(gelu())
    desc = match_normal_form(m)
    view, decl = desc.output
    output = (view, replace(decl, space=MemSpace.DDR))
    body = normal_form_tile(desc.inputs, output, desc.compute.expr)
    assert _explain(_with_loop_body(m, body)) == (None, "alloc of @tY is not in tcm space")
