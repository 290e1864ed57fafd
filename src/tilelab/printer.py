"""Deterministic line-oriented textual form of a tile module.

Two structurally equal modules print byte-identically, and every structural
field appears in the text, so equal text implies equal (buffers, body).
Module name and metadata are intentionally not printed.  The format is stable
and documented in the README; there is no parser.
"""

from __future__ import annotations

from .ir import (
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    Binary,
    BufferDecl,
    Compute,
    Const,
    Copy,
    DeallocTcm,
    DmaStart,
    DmaWait,
    Expr,
    Forall,
    ForTiles,
    Input,
    Op,
    TileModule,
    Unary,
    ViewRef,
)

_INDENT = "  "
_EMPTY_MARK = "// empty"


def _decl(d: BufferDecl) -> str:
    return f"{d.space.value}<{d.rows}x{d.cols}xf32>"


def _offset(view: ViewRef, iv: str | None) -> str:
    if view.row_scale == 0:
        return str(view.row_base)
    name = iv if iv is not None else "?"
    term = f"{view.row_scale}*%{name}"
    if view.row_base == 0:
        return term
    return f"{term}{view.row_base:+d}"


def _view(view: ViewRef, iv: str | None) -> str:
    return f"@{view.base}[{_offset(view, iv)} : {view.row_count} x {view.col_count}]"


def _expr(e: Expr) -> str:
    if isinstance(e, Input):
        return f"(in {e.index})"
    if isinstance(e, Const):
        return f"(const {e.value!r})"
    if isinstance(e, Unary):
        return f"({e.op} {_expr(e.a)})"
    if isinstance(e, Binary):
        return f"({e.op} {_expr(e.a)} {_expr(e.b)})"
    raise TypeError(f"not an expression node: {e!r}")


def _guards(op: Copy | DmaStart | DmaWait, iv: str | None) -> str:
    parts = []
    name = iv if iv is not None else "?"
    if op.only_if_iv_lt is not None:
        parts.append(f", if %{name} < {op.only_if_iv_lt}")
    if op.only_if_iv_ge is not None:
        parts.append(f", if %{name} >= {op.only_if_iv_ge}")
    return "".join(parts)


def _emit(lines: list[str], body: tuple[Op, ...], depth: int, iv: str | None) -> None:
    pad = _INDENT * depth
    if not body:
        lines.append(f"{pad}{_EMPTY_MARK}")
        return
    for op in body:
        if isinstance(op, ForTiles):
            ping = "" if op.pong is None else " ping"
            lines.append(f"{pad}for_tiles %{op.iv} in 0..{op.tile_count}{ping} {{")
            _emit(lines, op.body, depth + 1, op.iv)
            if op.pong is not None:
                lines.append(f"{pad}}} pong {{")
                _emit(lines, op.pong, depth + 1, op.iv)
            lines.append(f"{pad}}}")
        elif isinstance(op, Forall):
            rows = ", ".join(map(str, op.threads))
            lines.append(f"{pad}forall %{op.iv} in 0..{op.tile_count} thread_rows=[{rows}] {{")
            _emit(lines, op.body, depth + 1, op.iv)
            lines.append(f"{pad}}}")
        elif isinstance(op, AsyncExecute):
            lines.append(f"{pad}async.execute @{op.group} {{")
            _emit(lines, op.body, depth + 1, iv)
            lines.append(f"{pad}}}")
        elif isinstance(op, AwaitAll):
            lines.append(f"{pad}async.await_all @{op.group}")
        elif isinstance(op, AllocTcm):
            lines.append(f"{pad}tcm.alloc @{op.decl.id} : {_decl(op.decl)}")
        elif isinstance(op, DeallocTcm):
            lines.append(f"{pad}tcm.dealloc @{op.buffer_id}")
        elif isinstance(op, Copy):
            lines.append(f"{pad}copy {_view(op.src, iv)} -> {_view(op.dst, iv)}{_guards(op, iv)}")
        elif isinstance(op, DmaStart):
            lines.append(
                f"{pad}dma.start {_view(op.src, iv)} -> {_view(op.dst, iv)}, "
                f"tag={op.tag}{_guards(op, iv)}"
            )
        elif isinstance(op, DmaWait):
            lines.append(f"{pad}dma.wait tag={op.tag}{_guards(op, iv)}")
        elif isinstance(op, Compute):
            ins = ", ".join(_view(v, iv) for v in op.inputs)
            out = _view(op.output, iv)
            lines.append(f"{pad}compute {_expr(op.expr)} [{ins}] -> {out} vf={op.vector_factor}")
        else:
            raise TypeError(f"unknown op: {op!r}")


def print_module(m: TileModule) -> str:
    lines: list[str] = []
    for d in m.buffers:
        lines.append(f"buffer @{d.id} : {_decl(d)}")
    _emit(lines, m.body, 0, None)
    return "\n".join(lines) + "\n"
