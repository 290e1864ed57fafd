"""Lowering: each module resolved once into the Schedule both executors run.

`lower` turns every static op into a step: views become (base, row_scale,
row_base, rows, cols) tuples, transfers carry their byte count, guarded ops
their iv bounds, async regions their sub-schedule, and a compute step its
expression as a closure over the same ufuncs in the same order, compiled on
first execution.  Loops stay loops.  `walk` is the one control-flow walker
(loops, toggles, guards); `ArrayStore` and `HazardTracker` are the buffer
state and the in-flight transfer model both executors share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.special import erf as _erf

from . import ir


class InterpError(RuntimeError):
    pass


View = tuple[str, int, int, int, int]  # base, row_scale, row_base, rows, cols
Region = tuple[str, int, int]  # buffer id, row lo, row hi
Ivs = tuple[tuple[str, int], ...]  # enclosing induction variables, outermost first


@dataclass(slots=True, eq=False)
class Step:
    """One lowered op.  `kind` names what executors do with it; what a kind
    needs beyond the fields below is read from `op`.  Not frozen: lowering
    runs for every execution and every dynamic_schedule walk."""

    op: ir.Op
    kind: str
    # Guarded ops run when guard[0] <= iv < guard[1] for the nearest
    # enclosing iv.  Outside any loop a guard never filters (the verifier
    # flags such guards).
    guard: tuple[float, float] | None


@dataclass(slots=True, eq=False)
class Loop(Step):
    count: int
    toggle: bool | None  # initial ping/pong state; None: no toggle
    body: tuple[Step, ...]


@dataclass(slots=True, eq=False)
class Branch(Step):
    body: tuple[Step, ...]  # an async region, or the then-arm of if_toggle
    orelse: tuple[Step, ...] = ()


@dataclass(slots=True, eq=False)
class Transfer(Step):
    src: View
    dst: View
    nbytes: int
    tag: int | None  # None: synchronous copy


@dataclass(slots=True, eq=False)
class Compute(Step):
    inputs: tuple[View, ...]
    output: View
    elems: int
    vector_factor: int
    # Set on first execution, so walks that execute nothing compile nothing.
    fn: Callable[[list[np.ndarray]], np.ndarray] | None = None
    ops_per_element: int = 0  # expression nodes + the store

    def compiled(self) -> Callable[[list[np.ndarray]], np.ndarray]:
        if self.fn is None:
            self.fn = compile_expr(self.op.expr)
            self.ops_per_element = ir.expr_node_count(self.op.expr) + 1
        return self.fn


@dataclass(frozen=True, slots=True)
class Schedule:
    buffers: tuple[ir.BufferDecl, ...]
    written: tuple[str, ...]  # DDR buffers some op writes, in declaration order
    body: tuple[Step, ...]


_UNARY = {"tanh": np.tanh, "erf": _erf}
_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "max": np.maximum,
}


def compile_expr(e: ir.Expr) -> Callable[[list[np.ndarray]], np.ndarray]:
    """A closure evaluating the tree over float64 operands, node by node in
    the tree's order.  Unknown ops fail when evaluated, not when compiled."""
    if isinstance(e, ir.Input):
        index = e.index
        return lambda xs: xs[index]
    if isinstance(e, ir.Const):
        value = np.array(e.value, dtype=np.float64)  # 0-d: cheaper ufunc dispatch than a scalar
        return lambda xs: value
    if isinstance(e, ir.Unary) and e.op in _UNARY:
        fn, a = _UNARY[e.op], compile_expr(e.a)
        return lambda xs: fn(a(xs))
    if isinstance(e, ir.Binary) and e.op in _BINARY:
        fn, a, b = _BINARY[e.op], compile_expr(e.a), compile_expr(e.b)
        return lambda xs: fn(a(xs), b(xs))

    def fail(xs):
        raise InterpError(f"cannot evaluate expression node {e!r}")

    return fail


def _view(v: ir.ViewRef) -> View:
    return (v.base, v.row_scale, v.row_base, v.row_count, v.col_count)


def _guard(op: ir.Op) -> tuple[float, float] | None:
    lt, ge = op.only_if_iv_lt, op.only_if_iv_ge
    if lt is None and ge is None:
        return None
    return (-math.inf if ge is None else ge, math.inf if lt is None else lt)


_PLAIN = {
    ir.FlipToggle: "flip",
    ir.AddToGroup: "add_to_group",
    ir.AwaitAll: "await",
    ir.AllocTcm: "alloc",
    ir.DeallocTcm: "dealloc",
    ir.DmaWait: "wait",
}


def lower(m: ir.TileModule) -> Schedule:
    decls = {d.id: d for d in m.buffers}  # grows with each alloc, in program order
    written: set[str] = set()

    def block(ops: tuple[ir.Op, ...]) -> tuple[Step, ...]:
        return tuple([one(op) for op in ops])

    def one(op: ir.Op) -> Step:
        cls = type(op)
        if cls is ir.Copy or cls is ir.DmaStart:
            # An unknown source fails at resolution, before its size is used.
            src = decls.get(op.src.base)
            nbytes = op.src.elems * src.elem.size_bytes if src is not None else 0
            tag = op.tag.id if cls is ir.DmaStart else None
            written.add(op.dst.base)
            return Transfer(op, "transfer", _guard(op), _view(op.src), _view(op.dst), nbytes, tag)
        kind = _PLAIN.get(cls)
        if kind is not None:
            if cls is ir.AllocTcm:
                decls[op.decl.id] = op.decl
            return Step(op, kind, _guard(op) if cls is ir.DmaWait else None)
        if cls is ir.Compute:
            written.add(op.output.base)
            ins, out = tuple([_view(v) for v in op.inputs]), _view(op.output)
            return Compute(op, "compute", None, ins, out, op.output.elems, op.vector_factor)
        if cls is ir.ForTiles or cls is ir.Forall:
            toggle = op.toggle_init if cls is ir.ForTiles else None
            return Loop(op, "loop", None, op.tile_count, toggle, block(op.body))
        if cls is ir.IfToggle:
            return Branch(op, "if_toggle", None, block(op.then_body), block(op.else_body))
        if cls is ir.AsyncExecute:
            return Branch(op, "async", None, block(op.body))
        raise ValueError(f"unknown op {op!r}")

    body = block(m.body)
    return Schedule(m.buffers, tuple(d.id for d in m.buffers if d.id in written), body)


def walk(
    block: tuple[Step, ...], ivs: Ivs = (), toggles: list[bool] | None = None, inline: bool = True
) -> Iterator[tuple[Step, Ivs]]:
    """The single dynamic execution order of a block.

    Yields (step, ivs) for every step instance that executes, with loops
    iterated, the innermost toggle in `toggles` tracked, and guards applied.
    With `inline`, async regions are walked in place in creation order;
    otherwise their bodies are left to the caller (the simulator spawns a
    context over each).
    """
    if toggles is None:
        toggles = []
    iv = ivs[-1][1] if ivs else None
    for step in block:
        guard = step.guard
        if guard is not None and iv is not None and not guard[0] <= iv < guard[1]:
            continue
        yield step, ivs
        kind = step.kind
        if kind == "loop":
            if step.toggle is not None:
                toggles.append(step.toggle)
            name = step.op.iv
            for v in range(step.count):
                yield from walk(step.body, ivs + ((name, v),), toggles, inline)
            if step.toggle is not None:
                toggles.pop()
        elif kind == "if_toggle":
            if not toggles:
                raise ValueError("if_toggle outside a toggled loop")
            yield from walk(step.body if toggles[-1] else step.orelse, ivs, toggles, inline)
        elif kind == "flip":
            if not toggles:
                raise ValueError("flip_toggle outside a toggled loop")
            toggles[-1] = not toggles[-1]
        elif kind == "async" and inline:
            yield from walk(step.body, ivs, toggles, inline)


class HazardTracker:
    """Transfers whose regions may not be touched yet, as (tag, src, dst,
    done) entries.  The interpreter adds DMA entries with done None and
    clears them at dma.wait; the simulator adds every transfer with its
    completion cycle and removes it at completion."""

    __slots__ = ("entries", "error")

    def __init__(self, error: type[Exception]):
        self.entries: list[tuple[int | None, Region, Region, int | None]] = []
        self.error = error

    def pending(self, tag: int) -> bool:
        for entry in self.entries:
            if entry[0] == tag:
                return True
        return False

    def clear(self, tag: int) -> None:
        self.entries = [e for e in self.entries if e[0] != tag]

    def check(self, reads, writes, t: int = 0) -> None:
        for tag, src, dst, done in self.entries:
            if done is not None and done <= t:
                continue
            base, lo, hi = dst
            for r in reads:
                if r[0] == base and r[1] < hi and lo < r[2]:
                    raise self.error(
                        f"read of @{r[0]} rows [{r[1]}, {r[2]}) before dma.wait:"
                        f" in-flight transfer (tag {tag}) writes it"
                    )
            for w in writes:
                for region, verb in ((dst, "writes"), (src, "reads")):
                    if w[0] == region[0] and w[1] < region[2] and region[1] < w[2]:
                        raise self.error(
                            f"write to @{w[0]} rows [{w[1]}, {w[2]}) before dma.wait:"
                            f" in-flight transfer (tag {tag}) {verb} it"
                        )


def _nans(decl: ir.BufferDecl) -> tuple[np.ndarray, int, int]:
    data = np.empty(decl.rows * decl.cols, dtype=np.float32)
    data.fill(np.nan)
    return data, decl.rows, decl.cols


class ArrayStore:
    """Buffer state plus view resolution, shared by the functional
    interpreter and the timed simulator.  Each buffer is kept flat with its
    shape, so a full-width window is a 1-D slice.  Written buffers start as
    NaN so a read of never-written data poisons the output visibly."""

    def __init__(self, sched: Schedule, inputs: dict[str, np.ndarray]):
        self.written = sched.written
        expected = {d.id for d in sched.buffers if d.id not in self.written}
        if set(inputs) != expected:
            raise InterpError(
                f"input buffers mismatch: expected {sorted(expected)}, got {sorted(inputs)}"
            )
        self.env: dict[str, tuple[np.ndarray, int, int]] = {}  # id -> (flat data, rows, cols)
        for d in sched.buffers:
            if d.id in self.written:
                self.env[d.id] = _nans(d)
            else:
                arr = np.asarray(inputs[d.id], dtype=np.float32)
                if arr.shape != (d.rows, d.cols):
                    raise InterpError(
                        f"input @{d.id} has shape {arr.shape}, declared {(d.rows, d.cols)}"
                    )
                self.env[d.id] = (arr.reshape(-1), d.rows, d.cols)  # never written

    def resolve(self, view: View, ivs: Ivs) -> tuple[Region, np.ndarray]:
        """The view's region and its window: 1-D when the view spans whole
        buffer rows, else 2-D."""
        base, scale, row_base, rows, cols = view
        if scale == 0:
            lo = row_base
        elif ivs:
            lo = scale * ivs[-1][1] + row_base
        else:
            raise InterpError(f"view of @{base} uses an induction variable outside any loop")
        buf = self.env.get(base)
        if buf is None:
            raise InterpError(f"view references unknown or dead buffer @{base}")
        data, nrows, ncols = buf
        hi = lo + rows
        if lo < 0 or hi > nrows or cols > ncols:
            raise InterpError(
                f"view of @{base} out of bounds at runtime: rows [{lo}, {hi}) of {nrows}"
            )
        win = data[lo * ncols : hi * ncols]
        if cols != ncols:
            win = win.reshape(rows, ncols)[:, :cols]
        return (base, lo, hi), win

    def alloc(self, op: ir.AllocTcm) -> None:
        if op.decl.id in self.env:
            raise InterpError(f"buffer @{op.decl.id} already live")
        self.env[op.decl.id] = _nans(op.decl)

    def dealloc(self, op: ir.DeallocTcm) -> None:
        if self.env.pop(op.buffer_id, None) is None:
            raise InterpError(f"dealloc of dead buffer @{op.buffer_id}")

    def transfer(self, step: Transfer, ivs: Ivs, hazards: HazardTracker, t: int = 0):
        """Checks and moves the data of one transfer; returns (src, dst)."""
        src, src_win = self.resolve(step.src, ivs)
        dst, dst_win = self.resolve(step.dst, ivs)
        if hazards.entries:
            hazards.check((src,), (dst,), t)
        if src_win.ndim == 2 or dst_win.ndim == 2:
            src_win = src_win.reshape(dst_win.shape)
        dst_win[...] = src_win
        return src, dst

    def compute(self, step: Compute, ivs: Ivs, hazards: HazardTracker, t: int = 0) -> None:
        """Evaluates in double precision and rounds to f32 on the store."""
        ins = [self.resolve(v, ivs) for v in step.inputs]
        out, out_win = self.resolve(step.output, ivs)
        if hazards.entries:
            hazards.check([r for r, _ in ins], (out,), t)
        result = step.compiled()([w.ravel().astype(np.float64) for _, w in ins])
        if result.shape != (step.elems,):  # constants only, or operands that broadcast
            result = np.broadcast_to(np.asarray(result, dtype=np.float64), step.elems)
        out_win[...] = result if out_win.ndim == 1 else result.reshape(out_win.shape)

    def outputs(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.written:
            data, rows, cols = self.env[name]
            out[name] = data.reshape(rows, cols)
        return out
