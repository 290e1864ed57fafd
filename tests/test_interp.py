"""Functional interpreter: values and hazard detection."""

import math
import random

import numpy as np
import pytest

from tilelab.interp import InterpError, interpret_functional
from tilelab.ir import (
    EXPR_OPS,
    AllocTcm,
    Binary,
    BufferDecl,
    Compute,
    Const,
    Copy,
    DeallocTcm,
    DmaStart,
    DmaWait,
    Input,
    MemSpace,
    TileModule,
    Unary,
    ViewRef,
    expr_nodes,
    full_view,
)
from tilelab.kernels import (
    GeluVariant,
    build_gelu,
    build_vec_add_2d,
    ddr_shape,
    gelu,
    gelu_expr,
    gelu_reference,
    make_inputs,
    vec_add_2d,
)
from tilelab.lower import compile_expr
from tilelab.machine import MachineConfig
from tilelab.sim import SimulationError, simulate_timed
from tilelab.verifier import verify_module


def test_vec_add_constant_inputs():
    spec = vec_add_2d(rows=8, tile_rows=1)
    m = build_vec_add_2d(spec)
    a = np.full((8, 16384), 1.0, np.float32)
    b = np.full((8, 16384), 2.0, np.float32)
    out = interpret_functional(m, {"A": a, "B": b})
    assert np.array_equal(out["C"], np.full((8, 16384), 3.0, np.float32))


def test_vec_add_ramp_cancellation():
    spec = vec_add_2d(rows=8, tile_rows=1)
    m = build_vec_add_2d(spec)
    ramp = np.arange(8 * 16384, dtype=np.float32).reshape(8, 16384)
    out = interpret_functional(m, {"A": ramp, "B": -ramp})
    assert np.array_equal(out["C"], np.zeros((8, 16384), np.float32))


def test_gelu_zero_is_zero():
    spec = gelu(n=16384)
    m = build_gelu(spec)
    zeros = np.zeros(ddr_shape(spec), np.float32)
    out = interpret_functional(m, {"X": zeros})
    assert np.array_equal(out["Y"], zeros)


def test_gelu_matches_double_precision_oracle():
    spec = gelu(n=65536)
    m = build_gelu(spec)
    inputs = make_inputs(spec)
    out = interpret_functional(m, inputs)["Y"].astype(np.float64)
    want = gelu_reference(inputs["X"].astype(np.float64), spec.gelu_variant)
    rel = np.abs(out - want) / np.maximum(np.abs(want), 1e-30)
    rel[want == 0.0] = np.abs(out[want == 0.0])
    assert float(rel.max()) <= 1e-6


def _dma_module(with_wait: bool) -> TileModule:
    t_in = BufferDecl("t_in", MemSpace.TCM, 1, 16)
    t_out = BufferDecl("t_out", MemSpace.TCM, 1, 16)
    body = [
        AllocTcm(t_in),
        AllocTcm(t_out),
        DmaStart(src=ViewRef("X", 0, 0, 1, 16), dst=full_view(t_in), tag=0),
    ]
    if with_wait:
        body.append(DmaWait(0))
    body += [
        Compute((full_view(t_in),), full_view(t_out), Input(0), vector_factor=1),
        Copy(src=full_view(t_out), dst=ViewRef("Y", 0, 0, 1, 16)),
        DeallocTcm("t_in"),
        DeallocTcm("t_out"),
    ]
    buffers = (
        BufferDecl("X", MemSpace.DDR, 1, 16),
        BufferDecl("Y", MemSpace.DDR, 1, 16),
    )
    return TileModule("dma", buffers, tuple(body))


def test_unawaited_dma_read_is_a_hard_error():
    x = {"X": np.arange(16, dtype=np.float32).reshape(1, 16)}
    with pytest.raises(InterpError, match="before\\s+dma.wait"):
        interpret_functional(_dma_module(with_wait=False), x)
    # The simulator shares the hazard model; its DMA is still in flight.
    with pytest.raises(SimulationError, match="before\\s+dma.wait"):
        simulate_timed(_dma_module(with_wait=False), x, MachineConfig())
    out = interpret_functional(_dma_module(with_wait=True), x)
    assert np.array_equal(out["Y"], x["X"])


def test_input_shape_mismatch_rejected():
    m = build_vec_add_2d(vec_add_2d(rows=8, tile_rows=1))
    good = np.zeros((8, 16384), np.float32)
    with pytest.raises(InterpError, match="shape"):
        interpret_functional(m, {"A": good, "B": np.zeros((4, 16384), np.float32)})


def test_input_name_mismatch_rejected():
    m = build_vec_add_2d(vec_add_2d(rows=8, tile_rows=1))
    good = np.zeros((8, 16384), np.float32)
    with pytest.raises(InterpError, match="mismatch"):
        interpret_functional(m, {"A": good})
    with pytest.raises(InterpError, match="mismatch"):
        interpret_functional(m, {"A": good, "B": good, "C": good})


_REFERENCE_OPS = {
    "tanh": np.tanh,
    "erf": np.vectorize(math.erf, otypes=[np.float64]),
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "max": np.maximum,
}


def _tree_eval(e, xs):
    """Node-by-node tree evaluation with scalar constants: the reference the
    compiled closures must reproduce bit for bit."""
    if isinstance(e, Input):
        return xs[e.index]
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Unary):
        return _REFERENCE_OPS[e.op](_tree_eval(e.a, xs))
    return _REFERENCE_OPS[e.op](_tree_eval(e.a, xs), _tree_eval(e.b, xs))


def _random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return Const(rng.choice([0.0, -1.5, 0.044715, 3.0]))
        return Input(rng.randrange(2))
    if rng.random() < 0.3:
        return Unary(rng.choice(tuple(EXPR_OPS[Unary])), _random_expr(rng, depth - 1))
    op = rng.choice(tuple(EXPR_OPS[Binary]))
    return Binary(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _generated_exprs() -> list:
    """Both GELU trees, then 200 seeded random trees over the op table."""
    rng = random.Random(7)
    return [gelu_expr(v) for v in GeluVariant] + [_random_expr(rng, 5) for _ in range(200)]


def test_compiled_expressions_match_tree_evaluation():
    values = np.random.default_rng(7).uniform(-4.0, 4.0, (2, 257))
    xs = [values[0], values[1]]
    with np.errstate(all="ignore"):
        for e in _generated_exprs():
            got = np.broadcast_to(np.asarray(compile_expr(e)(xs), np.float64), 257)
            want = np.broadcast_to(np.asarray(_tree_eval(e, xs), np.float64), 257)
            assert got.tobytes() == want.tobytes(), e


def _one_tile(expr, n_inputs: int, cols: int) -> TileModule:
    """A scalar one-tile module: copy the inputs in, compute, copy out."""
    t_ins = [BufferDecl(f"t{k}", MemSpace.TCM, 1, cols) for k in range(n_inputs)]
    t_out = BufferDecl("tY", MemSpace.TCM, 1, cols)
    body = []
    for k, t in enumerate(t_ins):
        body += [AllocTcm(t), Copy(src=ViewRef(f"X{k}", 0, 0, 1, cols), dst=full_view(t))]
    body += [
        AllocTcm(t_out),
        Compute(tuple(full_view(t) for t in t_ins), full_view(t_out), expr),
        Copy(src=full_view(t_out), dst=ViewRef("Y", 0, 0, 1, cols)),
    ]
    body += [DeallocTcm(t.id) for t in (*t_ins, t_out)]
    buffers = [BufferDecl(f"X{k}", MemSpace.DDR, 1, cols) for k in range(n_inputs)]
    buffers.append(BufferDecl("Y", MemSpace.DDR, 1, cols))
    return TileModule("expr", tuple(buffers), tuple(body))


def test_interpreter_equals_simulator_over_generated_expressions():
    cfg = MachineConfig()
    values = np.random.default_rng(7).uniform(-4.0, 4.0, (2, 1, 257)).astype(np.float32)
    exprs = _generated_exprs()
    clean = 0
    with np.errstate(all="ignore"):
        for i, e in enumerate(exprs):
            used = [node.index for node in expr_nodes(e) if isinstance(node, Input)]
            n_inputs = max(used, default=-1) + 1
            m = _one_tile(e, n_inputs, 257)
            if verify_module(m, cfg):
                assert i >= 2, f"GELU tree {e} must verify clean"
                continue
            clean += 1
            inputs = {f"X{k}": values[k] for k in range(n_inputs)}
            got = interpret_functional(m, inputs)["Y"]
            sim_out, _ = simulate_timed(m, inputs, cfg)
            assert got.tobytes() == sim_out["Y"].tobytes(), e
    assert clean > len(exprs) // 2
