"""Benchmark kernel builders, reference oracles, and deterministic inputs.

Two kernels: a bandwidth-heavy 2D vector addition and the GELU activation
(tanh approximation by default, erf variant for cross-checking).  Builders
emit untransformed modules in the single-buffered normal form; inputs come
from a SplitMix64 stream so identical seeds give identical arrays on every
platform.  Inputs and the reference are computed in fixed host blocks, so
their temporaries stay small at any array size.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable

import numpy as np

from .ir import (
    EXPR_OPS,
    Binary,
    BufferDecl,
    Const,
    Expr,
    ForTiles,
    Input,
    MemSpace,
    Op,
    TileModule,
    Unary,
    ViewRef,
)
from .normal_form import normal_form_tile


class KernelKind(str, Enum):
    VEC_ADD_2D = "vec-add-2d"
    GELU = "gelu"


class GeluVariant(str, Enum):
    TANH = "tanh"
    ERF = "erf"


SQRT_2_OVER_PI = 0.7978845608028654
GELU_CUBIC_COEFF = 0.044715
INV_SQRT_2 = 0.7071067811865476

INPUT_LO = -4.0
INPUT_HI = 4.0


@dataclass(frozen=True, slots=True)
class KernelSpec:
    kind: KernelKind
    rows: int = 64
    cols: int = 16384
    tile_rows: int = 8
    tile_elems: int = 16384
    gelu_variant: GeluVariant = GeluVariant.TANH
    seed: int = 1

    def to_json_dict(self) -> dict:
        """Every field in declaration order, an enum as its value."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.value if isinstance(v, Enum) else v for k, v in values.items()}


def vec_add_2d(rows: int = 64, cols: int = 16384, tile_rows: int = 8, seed: int = 1) -> KernelSpec:
    return KernelSpec(KernelKind.VEC_ADD_2D, rows=rows, cols=cols, tile_rows=tile_rows, seed=seed)


def gelu(
    n: int = 1_048_576,
    tile_elems: int = 16384,
    variant: GeluVariant = GeluVariant.TANH,
    seed: int = 1,
) -> KernelSpec:
    return KernelSpec(
        KernelKind.GELU, rows=1, cols=n, tile_elems=tile_elems, gelu_variant=variant, seed=seed
    )


# --------------------------------------------------------------------------- #
# Deterministic inputs (SplitMix64)
# --------------------------------------------------------------------------- #

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


# Elements per host block: the generator and the reference work on blocks
# this long so their temporaries stay cache-sized whatever the array size.
_BLOCK = 1 << 15


def splitmix64_values(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Stream values [offset, offset + count) of SplitMix64(seed), vectorized;
    the state advance is linear so any window evaluates directly.  Mixes in
    place: the result array plus one temporary."""
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        z *= np.uint64(_SM_GAMMA)
        z += np.uint64(seed & _U64)
        for shift, mul in ((30, _SM_MIX1), (27, _SM_MIX2)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mul)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return z


def _top24_to_f32(bits: np.ndarray, out: np.ndarray) -> None:
    """Maps 24-bit integers to INPUT_LO + bits * 2^-21 in f32.  Every step is
    exact in f32, so this equals the float64 form
    INPUT_LO + (INPUT_HI - INPUT_LO) * (bits / 2^24) rounded to f32."""
    out[...] = bits
    out *= np.float32((INPUT_HI - INPUT_LO) / (1 << 24))
    out += np.float32(INPUT_LO)


def uniform_f32(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """F32 values uniform in [-4, 4) from the top 24 bits of the stream;
    every value is exactly representable, so the arrays are platform-stable.
    Generated in blocks of _BLOCK elements."""
    out = np.empty(count, dtype=np.float32)
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        bits = splitmix64_values(seed, hi - lo, offset + lo)
        bits >>= np.uint64(40)
        _top24_to_f32(bits, out[lo:hi])
    return out


def make_inputs(spec: KernelSpec) -> dict[str, np.ndarray]:
    """Named input arrays shaped like the module's DDR declarations, drawn
    from the spec's seed."""
    shape = ddr_shape(spec)
    count = shape[0] * shape[1]
    if spec.kind is KernelKind.VEC_ADD_2D:
        return {
            "A": uniform_f32(spec.seed, count).reshape(shape),
            "B": uniform_f32(spec.seed, count, offset=count).reshape(shape),
        }
    return {"X": uniform_f32(spec.seed, count).reshape(shape)}


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


def vec_add_expr() -> Expr:
    return Binary("add", Input(0), Input(1))


def gelu_expr(variant: GeluVariant = GeluVariant.TANH) -> Expr:
    x = Input(0)
    if variant is GeluVariant.TANH:
        cubic = Binary("mul", Const(GELU_CUBIC_COEFF), Binary("mul", x, Binary("mul", x, x)))
        inner = Binary("mul", Const(SQRT_2_OVER_PI), Binary("add", x, cubic))
        gate = Binary("add", Const(1.0), Unary("tanh", inner))
    else:
        gate = Binary("add", Const(1.0), Unary("erf", Binary("mul", x, Const(INV_SQRT_2))))
    return Binary("mul", Const(0.5), Binary("mul", x, gate))


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #


def _gelu_tile(spec: KernelSpec) -> tuple[int, int]:
    """(rows, cols) of a GELU tile: tile_elems elements, or all of them when
    there are fewer, in 8 whole rows when 8 divides them and in one row
    otherwise."""
    n = spec.cols
    if n < 1 or spec.tile_elems < 1:
        raise ValueError(
            f"element count and tile_elems must be >= 1, got {n} and {spec.tile_elems}"
        )
    eff = min(spec.tile_elems, n)
    if n % eff != 0:
        raise ValueError(f"tile_elems {spec.tile_elems} must divide the element count {n}")
    rows = 8 if eff % 8 == 0 else 1
    return rows, eff // rows


def ddr_shape(spec: KernelSpec) -> tuple[int, int]:
    """Declared DDR buffer shape.  The 1D GELU array has the columns of its
    tile, so a tile is whole rows, as in vec-add."""
    if spec.kind is KernelKind.VEC_ADD_2D:
        if spec.rows < 1 or spec.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {spec.rows}x{spec.cols}")
        return (spec.rows, spec.cols)
    _, cols = _gelu_tile(spec)
    return (spec.cols // cols, cols)


def _require_tcm(tile: str, operands, tcm_capacity: int | None, knob: str) -> None:
    """Rejects a tile whose operands' TCM buffers do not fit together."""
    footprint = sum(decl.nbytes for _, decl in operands)
    if tcm_capacity is not None and footprint > tcm_capacity:
        raise ValueError(
            f"tile of {tile} needs {footprint} tcm bytes"
            f" (> capacity {tcm_capacity}); reduce {knob}"
        )


def _build_row_tiles(
    spec: KernelSpec,
    names: str,
    expr: Expr,
    tile_rows: int,
    tcm_capacity: int | None,
    tile: str,
    knob: str,
) -> TileModule:
    """`names` are one-letter DDR arrays of ddr_shape(spec), the inputs and
    then the output: output = expr(inputs) over tiles of tile_rows whole
    rows, each array's tile staged in TCM buffer t<name>.  When tile_rows
    does not divide the row count, a short final tile is peeled after the
    loop.  `tile` and `knob` name the tile and its size option in the error
    of a tile that does not fit tcm_capacity."""
    *inputs, output = names
    rows, cols = ddr_shape(spec)
    full_tiles, tail_rows = divmod(rows, tile_rows)

    def operands(row_scale: int, row_base: int, count: int, suffix: str):
        """(inputs, output) of a tile of `count` rows."""

        def operand(name: str):
            view = ViewRef(name, row_scale, row_base, count, cols)
            return view, BufferDecl(f"t{name}{suffix}", MemSpace.TCM, count, cols)

        return tuple(operand(name) for name in inputs), operand(output)

    ins, out = operands(tile_rows, 0, tile_rows, "")
    _require_tcm(tile, (*ins, out), tcm_capacity, knob)

    buffers = tuple(BufferDecl(b, MemSpace.DDR, rows, cols) for b in names)
    body: list[Op] = [ForTiles("i", full_tiles, normal_form_tile(ins, out, expr))]
    if tail_rows:
        ins, out = operands(0, full_tiles * tile_rows, tail_rows, "_tail")
        body.extend(normal_form_tile(ins, out, expr))
    return TileModule(spec.kind.value, buffers, tuple(body), kernel=spec)


def build_vec_add_2d(spec: KernelSpec, tcm_capacity: int | None = None) -> TileModule:
    """C = A + B over whole-row tiles of tile_rows rows.  When tile_rows does
    not divide the row count, a short final tile is peeled after the loop."""
    if spec.kind is not KernelKind.VEC_ADD_2D:
        raise ValueError(f"expected a vec-add-2d spec, got {spec.kind.value}")
    if spec.tile_rows < 1 or spec.tile_rows > spec.rows:
        raise ValueError(f"tile_rows {spec.tile_rows} must be in [1, rows={spec.rows}]")
    expr, tile = vec_add_expr(), f"{spec.tile_rows} rows"
    return _build_row_tiles(spec, "ABC", expr, spec.tile_rows, tcm_capacity, tile, "tile_rows")


def build_gelu(spec: KernelSpec, tcm_capacity: int | None = None) -> TileModule:
    """Y = GELU(X) over tiles of tile_elems elements, each in whole rows (see
    ddr_shape): 8 rows when 8 divides the tile, so per-thread pipelines can
    split it by rows, and one row otherwise."""
    if spec.kind is not KernelKind.GELU:
        raise ValueError(f"expected a gelu spec, got {spec.kind.value}")
    if spec.rows != 1:
        raise ValueError("gelu is one-dimensional: spec.rows must be 1")
    rows, cols = _gelu_tile(spec)
    expr, tile = gelu_expr(spec.gelu_variant), f"{rows * cols} elements"
    return _build_row_tiles(spec, "XY", expr, rows, tcm_capacity, tile, "tile_elems")


def build_kernel(spec: KernelSpec, tcm_capacity: int | None = None) -> TileModule:
    if spec.kind is KernelKind.VEC_ADD_2D:
        return build_vec_add_2d(spec, tcm_capacity)
    return build_gelu(spec, tcm_capacity)


# --------------------------------------------------------------------------- #
# Reference oracle
# --------------------------------------------------------------------------- #


def gelu_reference(x64: np.ndarray, variant: GeluVariant) -> np.ndarray:
    """Double-precision GELU with the same association as the expression tree."""
    if variant is GeluVariant.TANH:
        cubic = GELU_CUBIC_COEFF * (x64 * (x64 * x64))
        return 0.5 * (x64 * (1.0 + np.tanh(SQRT_2_OVER_PI * (x64 + cubic))))
    return 0.5 * (x64 * (1.0 + EXPR_OPS[Unary]["erf"](x64 * INV_SQRT_2)))


def _blockwise(
    fn: Callable[..., np.ndarray], args: tuple[np.ndarray, ...], shape: tuple[int, int]
) -> np.ndarray:
    """fn over float64 copies of the arguments, _BLOCK elements at a time,
    each block rounded into one f32 result."""
    flat = [a.reshape(-1) for a in args]
    out = np.empty(shape, dtype=np.float32)
    out_flat = out.reshape(-1)
    for lo in range(0, out_flat.size, _BLOCK):
        hi = lo + _BLOCK
        out_flat[lo:hi] = fn(*(a[lo:hi].astype(np.float64) for a in flat))
    return out


def reference_output(spec: KernelSpec, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Element-by-element double-precision evaluation, each element rounded to
    f32 once; no tiling and no IR.  Evaluated in host blocks of _BLOCK
    elements, which cannot change any element."""
    shape = ddr_shape(spec)
    if spec.kind is KernelKind.VEC_ADD_2D:
        a, b = np.asarray(inputs["A"]), np.asarray(inputs["B"])
        if a.shape != shape or b.shape != shape:
            raise ValueError(f"inputs must have shape {shape}, got {a.shape} and {b.shape}")
        return {"C": _blockwise(np.add, (a, b), shape)}
    x = np.asarray(inputs["X"])
    if x.shape != shape:
        raise ValueError(f"input must have shape {shape}, got {x.shape}")
    variant = spec.gelu_variant
    return {"Y": _blockwise(lambda x64: gelu_reference(x64, variant), (x,), shape)}
