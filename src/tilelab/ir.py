"""Tile-level IR: buffers in explicit memory spaces, tiled loops, synchronous
copies, asynchronous DMA, fork-join ops, and elementwise compute regions.

Modules are built programmatically (there is no parser), are immutable after
construction, and print to a stable line-oriented text form (see printer).
Control flow is deliberately static: loop trip counts are constants, the only
conditionals are the loop-carried ping/pong toggle and integer bounds tests on
the induction variable, so every module has exactly one dynamic schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .kernels import KernelSpec


class MemSpace(str, Enum):
    DDR = "ddr"
    TCM = "tcm"


@dataclass(frozen=True, slots=True)
class ElemType:
    kind: str = "f32"

    @property
    def size_bytes(self) -> int:
        return 4


F32 = ElemType("f32")


@dataclass(frozen=True, slots=True)
class BufferDecl:
    id: str
    space: MemSpace
    rows: int
    cols: int
    elem: ElemType = F32

    @property
    def elems(self) -> int:
        return self.rows * self.cols

    @property
    def nbytes(self) -> int:
        return self.elems * self.elem.size_bytes


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

UNARY_OPS = ("tanh", "erf")
BINARY_OPS = ("add", "sub", "mul", "div", "max")


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


def expr_node_count(e: Expr) -> int:
    if isinstance(e, (Input, Const)):
        return 1
    if isinstance(e, Unary):
        return 1 + expr_node_count(e.a)
    if isinstance(e, Binary):
        return 1 + expr_node_count(e.a) + expr_node_count(e.b)
    raise TypeError(f"not an expression node: {e!r}")


def expr_input_indices(e: Expr) -> set[int]:
    if isinstance(e, Input):
        return {e.index}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Unary):
        return expr_input_indices(e.a)
    return expr_input_indices(e.a) | expr_input_indices(e.b)


# --------------------------------------------------------------------------- #
# Ops
# --------------------------------------------------------------------------- #

ANCHOR_PREFETCH = "db.prefetch"
ANCHOR_COMPUTE = "db.compute"
ANCHOR_STOREBACK = "db.storeback"
ANCHORS = (ANCHOR_PREFETCH, ANCHOR_COMPUTE, ANCHOR_STOREBACK)


class DistPolicy(str, Enum):
    BLOCK = "block"
    BLOCK_CYCLIC = "block_cyclic"


class TagRole(str, Enum):
    PING = "ping"
    PONG = "pong"
    STOREBACK = "storeback"
    PLAIN = "plain"


@dataclass(frozen=True, slots=True)
class DmaTag:
    id: int
    role: TagRole = TagRole.PLAIN


@dataclass(frozen=True, slots=True)
class ForTiles:
    iv: str
    tile_count: int
    body: tuple["Op", ...]
    # A non-None value enables the loop-carried ping/pong toggle;
    # True means "ping is current" on the first iteration.
    toggle_init: bool | None = None
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class Forall:
    iv: str
    tile_count: int
    policy: DistPolicy
    threads: int
    body: tuple["Op", ...]
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class AsyncExecute:
    token: str
    body: tuple["Op", ...]
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class AddToGroup:
    token: str
    group: str
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class AwaitAll:
    group: str
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class AllocTcm:
    decl: BufferDecl
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class DeallocTcm:
    buffer_id: str
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class Copy:
    src: ViewRef
    dst: ViewRef
    anchor: str | None = None
    # Bounds tests on the nearest enclosing induction variable; the op
    # executes only when every set guard holds.
    only_if_iv_lt: int | None = None
    only_if_iv_ge: int | None = None


@dataclass(frozen=True, slots=True)
class DmaStart:
    src: ViewRef
    dst: ViewRef
    tag: DmaTag
    anchor: str | None = None
    only_if_iv_lt: int | None = None
    only_if_iv_ge: int | None = None


@dataclass(frozen=True, slots=True)
class DmaWait:
    tag: DmaTag
    anchor: str | None = None
    only_if_iv_lt: int | None = None
    only_if_iv_ge: int | None = None


@dataclass(frozen=True, slots=True)
class Compute:
    inputs: tuple[ViewRef, ...]
    output: ViewRef
    expr: Expr
    vector_factor: int = 1
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class IfToggle:
    then_body: tuple["Op", ...]
    else_body: tuple["Op", ...]
    anchor: str | None = None


@dataclass(frozen=True, slots=True)
class FlipToggle:
    anchor: str | None = None


Op = Union[
    ForTiles,
    Forall,
    AsyncExecute,
    AddToGroup,
    AwaitAll,
    AllocTcm,
    DeallocTcm,
    Copy,
    DmaStart,
    DmaWait,
    Compute,
    IfToggle,
    FlipToggle,
]

GUARDED_OPS = (Copy, DmaStart, DmaWait)


@dataclass(frozen=True, slots=True)
class TileModule:
    name: str
    buffers: tuple[BufferDecl, ...]
    body: tuple[Op, ...]
    kernel: "KernelSpec | None" = None
    rung: str = "scalar"


# --------------------------------------------------------------------------- #
# Traversal
# --------------------------------------------------------------------------- #


def op_regions(op: Op) -> tuple[tuple[str, tuple[Op, ...]], ...]:
    """Named sub-regions of an op, for structural walks."""
    if isinstance(op, (ForTiles, Forall, AsyncExecute)):
        return (("body", op.body),)
    if isinstance(op, IfToggle):
        return (("then", op.then_body), ("else", op.else_body))
    return ()


def walk(body: tuple[Op, ...], prefix: str = "body") -> Iterator[tuple[str, Op]]:
    """Pre-order walk yielding (position, op); positions look like
    ``body[2].then[0]`` and give diagnostics a stable order."""
    for i, op in enumerate(body):
        path = f"{prefix}[{i}]"
        yield path, op
        for region_name, region in op_regions(op):
            yield from walk(region, f"{path}.{region_name}")


def walk_module(m: TileModule) -> Iterator[tuple[str, Op]]:
    yield from walk(m.body)


def dynamic_schedule(m: TileModule) -> Iterator[tuple[Op, tuple[tuple[str, int], ...]]]:
    """The module's single dynamic execution order: (op, iv_bindings) for
    every op instance that executes, with loops iterated, toggle state
    tracked, guards applied, and async regions inline in creation order.
    A view over the walker of the lowered schedule that both executors run."""
    from .lower import lower, walk  # lower builds on this module

    for step, ivs in walk(lower(m).body):
        yield step.op, ivs
