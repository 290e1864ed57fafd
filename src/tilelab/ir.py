"""Tile-level IR: buffers in explicit memory spaces, tiled loops, synchronous
copies, asynchronous DMA, fork-join ops, and elementwise compute regions.

Modules are built programmatically (there is no parser), are immutable after
construction, and print to a stable line-oriented text form (see printer).
Control flow is deliberately static: loop trip counts are constants, the only
conditionals are a double-buffered loop's choice of arm by the parity of its
iteration and integer bounds tests on the induction variable, so every module
has exactly one dynamic schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .kernels import KernelSpec
    from .lower import Schedule


class MemSpace(str, Enum):
    DDR = "ddr"
    TCM = "tcm"


# The stored element: every buffer holds f32 values, ELEM_DTYPE.itemsize
# bytes each.
ELEM_DTYPE = np.dtype(np.float32)


@dataclass(frozen=True, slots=True)
class BufferDecl:
    id: str
    space: MemSpace
    rows: int
    cols: int

    @property
    def elems(self) -> int:
        return self.rows * self.cols

    @property
    def nbytes(self) -> int:
        return self.elems * ELEM_DTYPE.itemsize


@dataclass(frozen=True, slots=True)
class ViewRef:
    """Whole-row window of a 2D buffer.

    The row offset is affine in the nearest enclosing loop induction
    variable: ``row_scale * iv + row_base``.  Outside any loop the scale
    must be zero.  Columns are always a prefix of the buffer row.
    """

    base: str
    row_scale: int
    row_base: int
    row_count: int
    col_count: int

    @property
    def elems(self) -> int:
        return self.row_count * self.col_count

    def row_offset_at(self, iv: int) -> int:
        return self.row_scale * iv + self.row_base


def full_view(decl: BufferDecl) -> ViewRef:
    return ViewRef(decl.id, 0, 0, decl.rows, decl.cols)


# --------------------------------------------------------------------------- #
# Elementwise expression trees
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Input:
    index: int


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    a: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    a: "Expr"
    b: "Expr"


Expr = Union[Input, Const, Unary, Binary]

_erf_objects = np.frompyfunc(math.erf, 1, 1)


def _erf(x):
    """The error function element-wise, in float64, from the standard library."""
    return np.asarray(_erf_objects(x), dtype=np.float64)


# The expression language, read by lowering, the verifier and the GELU
# reference: operator node type -> op name -> numpy function over float64.
EXPR_OPS: dict[type, dict[str, Callable[..., np.ndarray]]] = {
    Unary: {"tanh": np.tanh, "erf": _erf},
    Binary: {
        "add": np.add,
        "sub": np.subtract,
        "mul": np.multiply,
        "div": np.divide,
        "max": np.maximum,
    },
}


def expr_nodes(e: Expr) -> Iterator[Expr]:
    """Pre-order walk over an expression tree."""
    yield e
    if isinstance(e, (Unary, Binary)):
        yield from expr_nodes(e.a)
    if isinstance(e, Binary):
        yield from expr_nodes(e.b)


def ops_per_element(e: Expr) -> int:
    """Unit operations one element of a compute costs: every expression node
    (input loads included) plus the store."""
    return _node_count(e) + 1


def _node_count(e: Expr) -> int:
    """The number of nodes expr_nodes visits, counted without a generator."""
    if isinstance(e, Binary):
        return 1 + _node_count(e.a) + _node_count(e.b)
    if isinstance(e, Unary):
        return 1 + _node_count(e.a)
    return 1


# --------------------------------------------------------------------------- #
# Ops
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class ForTiles:
    iv: str
    tile_count: int
    body: tuple["Op", ...]
    # A double-buffered loop's second arm: even iterations run `body` (ping),
    # odd ones `pong`.  None: every iteration runs `body`.
    pong: tuple["Op", ...] | None = None


@dataclass(frozen=True, slots=True)
class Forall:
    iv: str
    tile_count: int
    # Each thread's tile rows, in thread order: thread t runs its block of
    # the tiles (see passes.partition_tiles) in tiles of threads[t] rows.
    threads: tuple[int, ...]
    body: tuple["Op", ...]


@dataclass(frozen=True, slots=True)
class AsyncExecute:
    """A forked region; the AwaitAll of `group` joins it."""

    group: str
    body: tuple["Op", ...]


@dataclass(frozen=True, slots=True)
class AwaitAll:
    group: str


@dataclass(frozen=True, slots=True)
class AllocTcm:
    decl: BufferDecl


@dataclass(frozen=True, slots=True)
class DeallocTcm:
    buffer_id: str


@dataclass(frozen=True, slots=True)
class Copy:
    src: ViewRef
    dst: ViewRef
    # Bounds tests on the nearest enclosing induction variable; the op
    # executes only when every set guard holds.
    only_if_iv_lt: int | None = None
    only_if_iv_ge: int | None = None


@dataclass(frozen=True, slots=True)
class DmaStart:
    src: ViewRef
    dst: ViewRef
    tag: int
    only_if_iv_lt: int | None = None
    only_if_iv_ge: int | None = None


@dataclass(frozen=True, slots=True)
class DmaWait:
    tag: int
    only_if_iv_lt: int | None = None
    only_if_iv_ge: int | None = None


@dataclass(frozen=True, slots=True)
class Compute:
    inputs: tuple[ViewRef, ...]
    output: ViewRef
    expr: Expr
    vector_factor: int = 1


Op = Union[
    ForTiles,
    Forall,
    AsyncExecute,
    AwaitAll,
    AllocTcm,
    DeallocTcm,
    Copy,
    DmaStart,
    DmaWait,
    Compute,
]

# The op classes; lowering dispatches on the exact class of an op.
OP_TYPES = frozenset(Op.__args__)
GUARDED_OPS = (Copy, DmaStart, DmaWait)


@dataclass(frozen=True, slots=True)
class TileModule:
    name: str
    buffers: tuple[BufferDecl, ...]
    body: tuple[Op, ...]
    kernel: "KernelSpec | None" = None


# --------------------------------------------------------------------------- #
# Traversal
# --------------------------------------------------------------------------- #


def op_regions(op: Op) -> tuple[tuple[str, tuple[Op, ...]], ...]:
    """Named sub-regions of an op, for structural walks."""
    if isinstance(op, ForTiles) and op.pong is not None:
        return (("body", op.body), ("pong", op.pong))
    if isinstance(op, (ForTiles, Forall, AsyncExecute)):
        return (("body", op.body),)
    return ()


def walk(body: tuple[Op, ...], prefix: str = "body") -> Iterator[tuple[str, Op]]:
    """Pre-order walk yielding (position, op); positions look like
    ``body[2].pong[0]`` and give diagnostics a stable order."""
    for i, op in enumerate(body):
        path = f"{prefix}[{i}]"
        yield path, op
        for region_name, region in op_regions(op):
            yield from walk(region, f"{path}.{region_name}")


def walk_module(m: TileModule) -> Iterator[tuple[str, Op]]:
    yield from walk(m.body)


def dynamic_schedule(
    m: TileModule | Schedule,
) -> Iterator[tuple[Op, tuple[tuple[str, int], ...]]]:
    """The module's single dynamic execution order: (op, iv_bindings) for
    every op instance that executes, with loops iterated, each
    double-buffered loop's arm picked by parity, guards applied, and async
    regions inline in creation order.  A view over the walker of the lowered
    schedule that both executors run; takes the module or its schedule."""
    from .lower import lower, walk  # lower builds on this module

    for step, ivs in walk(lower(m).body):
        yield step.op, ivs
