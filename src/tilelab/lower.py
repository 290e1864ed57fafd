"""Lowering: each module resolved once into the Schedule both executors run.

`lower` turns every static op into a step: views become (base, row_scale,
row_base, rows, cols) tuples, transfers carry their byte count, guarded ops
their iv bounds, async regions their sub-schedule, and a compute step its
expression as a closure over the functions of `ir.EXPR_OPS`, compiled on
first execution.  Loops stay loops, a double-buffered loop with both its
arms.  A forall is the tile fork's plan, not a program: `lower` refuses
it, since fork-join lowering (`passes.form_async_threads`) is the one
reader of its threads.  `walk` is the one control-flow walker (loops,
arms, guards); `ArrayStore` and `HazardTracker` are the buffer state and
the in-flight transfer model both executors share.

A rung run lowers its transformed module once and hands the schedule to the
verifier's tag-balance walk and to both executors.  `lower` returns a
schedule it is given unchanged, so each of them takes a module or its
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import ir


class InterpError(RuntimeError):
    pass


View = tuple[str, int, int, int, int]  # base, row_scale, row_base, rows, cols
Region = tuple[str, int, int]  # buffer id, row lo, row hi
Ivs = tuple[tuple[str, int], ...]  # enclosing induction variables, outermost first


@dataclass(slots=True, eq=False)
class Step:
    """One lowered op.  `kind` names what executors do with it; what a kind
    needs beyond the fields below is read from `op`.  Not frozen, so a
    compute step can keep the closure it compiles on first execution for
    every later run of the same schedule."""

    op: ir.Op
    kind: str
    # Guarded ops run when guard[0] <= iv < guard[1] for the nearest
    # enclosing iv.  Outside any loop a guard never filters (the verifier
    # flags such guards).
    guard: tuple[float, float] | None


@dataclass(slots=True, eq=False)
class Loop(Step):
    count: int
    body: tuple[Step, ...]  # even iterations' arm: ping
    pong: tuple[Step, ...] | None  # odd iterations' arm; None: `body`


@dataclass(slots=True, eq=False)
class Async(Step):
    body: tuple[Step, ...]  # the region's sub-schedule


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
    ops_per_element: int  # expression nodes + the store
    # Set on first execution, so walks that execute nothing compile nothing.
    fn: Callable[[list[np.ndarray]], np.ndarray] | None = None

    def compiled(self) -> Callable[[list[np.ndarray]], np.ndarray]:
        if self.fn is None:
            self.fn = compile_expr(self.op.expr)
        return self.fn


@dataclass(frozen=True, slots=True)
class Schedule:
    """A lowered module: the module itself, for its buffer declarations and
    structural checks, and the steps the executors run."""

    module: ir.TileModule
    written: tuple[str, ...]  # DDR buffers some op writes, in declaration order
    body: tuple[Step, ...]


def compile_expr(e: ir.Expr) -> Callable[[list[np.ndarray]], np.ndarray]:
    """A closure evaluating the tree over float64 operands, node by node in
    the tree's order.  Unknown ops fail when evaluated, not when compiled."""
    if isinstance(e, ir.Input):
        index = e.index
        return lambda xs: xs[index]
    if isinstance(e, ir.Const):
        value = np.array(e.value, dtype=np.float64)  # 0-d: cheaper ufunc dispatch than a scalar
        return lambda xs: value
    if isinstance(e, ir.Unary) and e.op in ir.EXPR_OPS[ir.Unary]:
        fn, a = ir.EXPR_OPS[ir.Unary][e.op], compile_expr(e.a)
        return lambda xs: fn(a(xs))
    if isinstance(e, ir.Binary) and e.op in ir.EXPR_OPS[ir.Binary]:
        fn, a, b = ir.EXPR_OPS[ir.Binary][e.op], compile_expr(e.a), compile_expr(e.b)
        return lambda xs: fn(a(xs), b(xs))

    def fail(xs):
        raise InterpError(f"cannot evaluate expression node {e!r}")

    return fail


def _view(v: ir.ViewRef) -> View:
    return (v.base, v.row_scale, v.row_base, v.row_count, v.col_count)


def iv_guard(op: ir.Op) -> tuple[float, float] | None:
    """The [lo, hi) bounds on the nearest enclosing iv within which a
    guarded op runs (see walk), None when it has no guard."""
    lt, ge = op.only_if_iv_lt, op.only_if_iv_ge
    if lt is None and ge is None:
        return None
    return (-math.inf if ge is None else ge, math.inf if lt is None else lt)


_PLAIN = {
    ir.AwaitAll: "await",
    ir.AllocTcm: "alloc",
    ir.DeallocTcm: "dealloc",
    ir.DmaWait: "wait",
}


def lower(m: ir.TileModule | Schedule) -> Schedule:
    """The module's schedule; a schedule is returned as it is."""
    if isinstance(m, Schedule):
        return m
    written: set[str] = set()

    def block(ops: tuple[ir.Op, ...]) -> tuple[Step, ...]:
        return tuple([one(op) for op in ops])

    def one(op: ir.Op) -> Step:
        cls = type(op)
        if cls is ir.Copy or cls is ir.DmaStart:
            nbytes = op.src.elems * ir.ELEM_DTYPE.itemsize
            tag = op.tag if cls is ir.DmaStart else None
            written.add(op.dst.base)
            return Transfer(op, "transfer", iv_guard(op), _view(op.src), _view(op.dst), nbytes, tag)
        kind = _PLAIN.get(cls)
        if kind is not None:
            return Step(op, kind, iv_guard(op) if cls is ir.DmaWait else None)
        if cls is ir.Compute:
            written.add(op.output.base)
            ins, out = tuple([_view(v) for v in op.inputs]), _view(op.output)
            cost = (op.output.elems, op.vector_factor, ir.ops_per_element(op.expr))
            return Compute(op, "compute", None, ins, out, *cost)
        if cls is ir.ForTiles:
            pong = None if op.pong is None else block(op.pong)
            return Loop(op, "loop", None, op.tile_count, block(op.body), pong)
        if cls is ir.AsyncExecute:
            return Async(op, "async", None, block(op.body))
        if cls is ir.Forall:
            raise ValueError(
                f"forall %{op.iv} does not run: fork-join lowering"
                " (form_async_threads) turns it into async regions first"
            )
        raise ValueError(f"unknown op {op!r}")

    body = block(m.body)
    return Schedule(m, tuple(d.id for d in m.buffers if d.id in written), body)


def walk(block: tuple[Step, ...], ivs: Ivs = (), inline: bool = True) -> Iterator[tuple[Step, Ivs]]:
    """The single dynamic execution order of a block.

    Yields (step, ivs) for every step instance that executes, with loops
    iterated (a double-buffered loop runs its ping arm on even iterations and
    its pong arm on odd ones) and guards applied.  With `inline`, async
    regions are walked in place in creation order; otherwise their bodies are
    left to the caller (the simulator spawns a context over each).
    """
    iv = ivs[-1][1] if ivs else None
    for step in block:
        guard = step.guard
        if guard is not None and iv is not None and not guard[0] <= iv < guard[1]:
            continue
        yield step, ivs
        kind = step.kind
        if kind == "loop":
            name = step.op.iv
            arms = (step.body, step.body if step.pong is None else step.pong)
            for v in range(step.count):
                yield from walk(arms[v & 1], ivs + ((name, v),), inline)
        elif kind == "async" and inline:
            yield from walk(step.body, ivs, inline)


class HazardTracker:
    """Transfers whose regions may not be touched yet, as (tag, src, dst,
    done) entries.  The interpreter adds DMA entries with done None and
    clears them at dma.wait; the simulator adds every transfer at issue with
    the cycle it ends and expires it by that cycle: `check` skips an ended
    entry, and the simulator drops ended entries as new ones enter."""

    __slots__ = ("entries", "error")

    def __init__(self, error: type[Exception]):
        self.entries: list[tuple[int | None, Region, Region, int | None]] = []
        self.error = error

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
    data = np.empty(decl.rows * decl.cols, dtype=ir.ELEM_DTYPE)
    data.fill(np.nan)
    return data, decl.rows, decl.cols


class ArrayStore:
    """Buffer state plus view resolution, shared by the functional
    interpreter and the timed simulator.  Each buffer is kept flat with its
    shape, so a full-width window is a 1-D slice.  Written buffers start as
    NaN so a read of never-written data poisons the output visibly."""

    def __init__(self, sched: Schedule, inputs: dict[str, np.ndarray]):
        self.written = sched.written
        buffers = sched.module.buffers
        expected = {d.id for d in buffers if d.id not in self.written}
        if set(inputs) != expected:
            raise InterpError(
                f"input buffers mismatch: expected {sorted(expected)}, got {sorted(inputs)}"
            )
        self.env: dict[str, tuple[np.ndarray, int, int]] = {}  # id -> (flat data, rows, cols)
        for d in buffers:
            if d.id in self.written:
                self.env[d.id] = _nans(d)
            else:
                arr = np.asarray(inputs[d.id], dtype=ir.ELEM_DTYPE)
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
