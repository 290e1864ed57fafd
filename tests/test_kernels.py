"""Kernel builders and reference oracles."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from tilelab.interp import interpret_functional
from tilelab.ir import Compute, Copy, ForTiles
from tilelab.kernels import (
    GeluVariant,
    build_gelu,
    build_vec_add_2d,
    ddr_shape,
    gelu,
    gelu_reference,
    make_inputs,
    reference_output,
    uniform_f32,
    vec_add_2d,
)
from tilelab.normal_form import match_normal_form


def test_default_vec_add_has_eight_tiles():
    m = build_vec_add_2d(vec_add_2d())
    assert isinstance(m.body[0], ForTiles)
    assert m.body[0].tile_count == 8  # 64 rows / 8 rows per tile


def test_one_row_tiles_give_sixty_four_tiles():
    m = build_vec_add_2d(vec_add_2d(rows=64, tile_rows=1))
    assert m.body[0].tile_count == 64


def test_tile_rows_larger_than_rows_rejected():
    with pytest.raises(ValueError):
        build_vec_add_2d(vec_add_2d(rows=4, tile_rows=8))


def test_capacity_bound_tile_height():
    # A 256 KiB scratchpad holds exactly one 64 KiB row per live buffer
    # (two inputs + one output), so two-row tiles do not fit.
    with pytest.raises(ValueError):
        build_vec_add_2d(vec_add_2d(rows=64, tile_rows=2), tcm_capacity=262144)


def test_gelu_largest_sweep_point_shape():
    m = build_gelu(gelu(n=1_048_576))
    assert ddr_shape(gelu(n=1_048_576)) == (512, 2048)
    assert m.buffers[0].elems == 1_048_576
    assert m.body[0].tile_count == 64


def test_gelu_small_sizes_fold_into_one_tile():
    assert ddr_shape(gelu(n=4096)) == (8, 512)
    assert build_gelu(gelu(n=4096)).body[0].tile_count == 1


def test_gelu_indivisible_size_rejected():
    with pytest.raises(ValueError, match="divide"):
        build_gelu(gelu(n=20000))


@pytest.mark.parametrize(
    "spec",
    [
        gelu(n=0),
        gelu(n=-4096),
        gelu(n=4096, tile_elems=0),
        gelu(n=4096, tile_elems=-1024),
        vec_add_2d(rows=0),
        vec_add_2d(cols=-8),
    ],
)
def test_non_positive_sizes_rejected(spec):
    with pytest.raises(ValueError, match=">= 1"):
        ddr_shape(spec)
    with pytest.raises(ValueError, match=">= 1"):
        make_inputs(spec)


def test_gelu_capacity_check():
    with pytest.raises(ValueError, match="capacity"):
        build_gelu(gelu(), tcm_capacity=65536)


def test_gelu_point_values():
    x = np.array([0.0, 1.0, 8.0], dtype=np.float64)
    y = gelu_reference(x, GeluVariant.TANH)
    assert y[0] == 0.0
    assert round(float(y[1]), 6) == 0.841192
    assert abs(float(y[2]) - 8.0) < 1e-4


def test_tanh_and_erf_variants_agree_on_the_input_range():
    x = uniform_f32(11, 200_000).astype(np.float64)
    gap = np.abs(gelu_reference(x, GeluVariant.TANH) - gelu_reference(x, GeluVariant.ERF))
    assert float(gap.max()) < 3e-3


@pytest.mark.parametrize(
    "spec",
    [vec_add_2d(), vec_add_2d(rows=10, tile_rows=4), gelu(n=262144), gelu(n=262144, variant=GeluVariant.ERF)],
    ids=["vec-add", "vec-add-tail", "gelu-tanh", "gelu-erf"],
)
def test_reference_equals_scalar_interpreter(spec):
    m = build_vec_add_2d(spec) if spec.kind.value == "vec-add-2d" else build_gelu(spec)
    inputs = make_inputs(spec)
    got = interpret_functional(m, inputs)
    want = reference_output(spec, inputs)
    for name in want:
        assert np.array_equal(got[name], want[name])


def test_builders_emit_normal_form():
    assert match_normal_form(build_vec_add_2d(vec_add_2d())) is not None
    assert match_normal_form(build_gelu(gelu())) is not None
    assert match_normal_form(build_vec_add_2d(vec_add_2d(rows=10, tile_rows=4))) is not None


def test_output_tiles_partition_the_output_buffer():
    m = build_vec_add_2d(vec_add_2d())
    loop = m.body[0]
    copy_out = next(
        op for op in loop.body if isinstance(op, Copy) and op.dst.base == "C"
    )
    view = copy_out.dst
    assert abs(view.row_scale) >= view.row_count
    covered = set()
    for i in range(loop.tile_count):
        off = view.row_offset_at(i)
        rows = set(range(off, off + view.row_count))
        assert not rows & covered
        covered |= rows
    assert covered == set(range(m.buffers[2].rows))


def test_short_tail_tile_emitted_after_the_loop():
    m = build_vec_add_2d(vec_add_2d(rows=10, tile_rows=4))
    assert m.body[0].tile_count == 2
    tail_computes = [op for op in m.body[1:] if isinstance(op, Compute)]
    assert len(tail_computes) == 1
    assert tail_computes[0].output.elems == 2 * 16384


def _sha256_of(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


# sha256 over the input arrays, then over the reference outputs, in name order.
PINNED_HOST_DATA = {
    "vec-add": (
        vec_add_2d(),
        "beebb8ef6822e04853819aa39e7427ea833cc9315184bdf5a5114d21196f8422",
        "9cdcb9618c425c55dff4e2302e2efbb3841265e573ef3c6a7fc41238cfd9a514",
    ),
    "gelu-tanh": (
        gelu(),
        "e3939289fffced70179edd698ddf9a0ae45c4a8cbe28279d3c595ae1b4792909",
        "592cdbfcbc8ecae5628ec6edabfd52c50f084bbab3b3dec3f364186d1de0bb2b",
    ),
    "gelu-erf-2^16": (
        gelu(n=1 << 16, variant=GeluVariant.ERF),
        "2eb3a4ed9be02b7c2f6746df3c4f141085d2d27f0c65ce17363f9f828d7cc3e3",
        "c180286c9e6cfbd38bacfdd1ab205adfd8851055f81ffb3f6c77d4d01271fa5c",
    ),
    "vec-add-7x33": (
        vec_add_2d(7, 33, 7),
        "3492ab1832e07a1503ba689ef5990449f946ef738a5d4181132ac97d01d57090",
        "e2ce5516298adb28ed4a8f9b76813ae23fbf17529713c68e9827fa383803dd1b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_HOST_DATA))
def test_inputs_and_reference_bytes_pinned(name):
    spec, inputs_sha, reference_sha = PINNED_HOST_DATA[name]
    inputs = make_inputs(spec)
    reference = reference_output(spec, inputs)
    shape = ddr_shape(spec)
    for arrays in (inputs, reference):
        assert all(a.dtype == np.float32 and a.shape == shape for a in arrays.values())
    assert _sha256_of(inputs) == inputs_sha
    assert _sha256_of(reference) == reference_sha


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_host_data_layer_has_no_full_size_temporaries():
    # A 4M-element GELU: the inputs and the reference each need 16 MiB;
    # generating them in host blocks keeps every temporary cache-sized.
    spec = gelu(1 << 22, 1024)
    slack = 2 << 20
    inputs, peak = _traced_peak(lambda: make_inputs(spec))
    assert peak <= sum(a.nbytes for a in inputs.values()) + slack
    reference, peak = _traced_peak(lambda: reference_output(spec, inputs))
    assert peak <= sum(a.nbytes for a in reference.values()) + slack
