"""The single-buffered tiled-loop normal form: the loop body the kernel
builders emit, and the one loop the tile fork, fork-join lowering,
re-tiling and double buffering consume.

`normal_form_tile` is its one definition: per input an alloc + copy-in
pair, the output alloc, one compute over whole buffers, the copy-out, then
the deallocs in allocation order.  The builders, re-tiling and fork-join
lowering build every such loop body with it.  The matcher reads the
operands off a loop body and accepts it only when `normal_form_tile`
rebuilds that body exactly, so a module that has already been pipelined (a
ping/pong loop) deliberately fails to match.  The loop may sit in the module
body or in any other block, such as the body of one thread's async region.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    AllocTcm,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    Expr,
    ForTiles,
    MemSpace,
    Op,
    TileModule,
    ViewRef,
    full_view,
)

# One operand of a tile: its DDR view and the TCM buffer it is staged in.
Operand = tuple[ViewRef, BufferDecl]


@dataclass(frozen=True, slots=True)
class NormalFormDescriptor:
    loop: ForTiles
    loop_index: int  # position of the loop in its block
    inputs: tuple[Operand, ...]
    compute: Compute
    output: Operand


def normal_form_tile(
    inputs: tuple[Operand, ...],
    output: Operand,
    expr: Expr,
    vector_factor: int = 1,
) -> tuple[Op, ...]:
    """The single-buffered body of one tile: each input allocated and copied
    in, the output allocated, computed over whole buffers and copied out,
    then every buffer freed in allocation order."""
    ops: list[Op] = []
    for ddr_view, decl in inputs:
        ops.append(AllocTcm(decl))
        ops.append(Copy(src=ddr_view, dst=full_view(decl)))
    out_view, out_decl = output
    ops.append(AllocTcm(out_decl))
    ops.append(
        Compute(
            inputs=tuple(full_view(d) for _, d in inputs),
            output=full_view(out_decl),
            expr=expr,
            vector_factor=vector_factor,
        )
    )
    ops.append(Copy(src=full_view(out_decl), dst=out_view))
    for _, decl in (*inputs, output):
        ops.append(DeallocTcm(decl.id))
    return tuple(ops)


def match_normal_form(m: TileModule) -> NormalFormDescriptor | None:
    desc, _ = match_block_explain(m.body, {d.id for d in m.buffers})
    return desc


def match_block_explain(
    block: tuple[Op, ...], ddr: set[str]
) -> tuple[NormalFormDescriptor | None, str]:
    """The normal-form loop of one block, or None and the reason it does not
    match; `ddr` names the module buffers.  The vector factor of the compute
    is not part of the form, so a vectorized loop still matches."""
    loops = [(i, op) for i, op in enumerate(block) if isinstance(op, ForTiles)]
    if len(loops) != 1:
        return None, f"expected exactly one top-level tiled loop, found {len(loops)}"
    loop_index, loop = loops[0]
    if loop.pong is not None:
        return None, "top-level loop is already a ping/pong loop"

    body = loop.body

    def at(i: int) -> Op | None:
        return body[i] if i < len(body) else None

    def differs(i: int) -> tuple[None, str]:
        found = type(body[i]).__name__ if i < len(body) else "end of body"
        return None, f"loop body op {i}: {found} differs from the normal form"

    # Operands: the leading alloc + copy-in pairs, then the output alloc, the
    # compute and the copy-out.  A missing copy-out leaves the output view
    # None, which no body matches.
    pos = 0
    while isinstance(at(pos), AllocTcm) and isinstance(at(pos + 1), Copy):
        pos += 2
    if pos == 0:
        return differs(0)
    for k, kind in enumerate((AllocTcm, Compute)):
        if not isinstance(at(pos + k), kind):
            return differs(pos + k)
    inputs = tuple((body[i + 1].src, body[i].decl) for i in range(0, pos, 2))
    compute, copy_out = body[pos + 1], at(pos + 2)
    output = (copy_out.dst if isinstance(copy_out, Copy) else None, body[pos].decl)

    rebuilt = normal_form_tile(inputs, output, compute.expr, compute.vector_factor)
    if body != rebuilt:
        diff = [i for i, (op, want) in enumerate(zip(body, rebuilt)) if op != want]
        return differs(diff[0] if diff else min(len(body), len(rebuilt)))
    for view, decl in (*inputs, output):
        if decl.space is not MemSpace.TCM:
            return None, f"alloc of @{decl.id} is not in tcm space"
        if view.base not in ddr:
            return None, f"@{view.base} is not a ddr buffer"
    return NormalFormDescriptor(loop, loop_index, inputs, compute, output), ""
