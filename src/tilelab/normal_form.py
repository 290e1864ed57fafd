"""Matcher for the single-buffered tiled-loop normal form that the kernel
builders emit and that the double-buffering rewrite consumes.

The pattern is matched exactly or not at all: per input an alloc + copy-in
pair, one output alloc, one compute, one copy-out, then the deallocs in
allocation order.  A module that has already been pipelined (alternating
ping/pong sub-kernels) deliberately fails to match.  The loop may sit in the
module body or in any other block, such as the body of one thread's async
region.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    AllocTcm,
    Compute,
    Copy,
    DeallocTcm,
    ForTiles,
    MemSpace,
    Op,
    TileModule,
    ViewRef,
    full_view,
)


@dataclass(frozen=True, slots=True)
class InputGroup:
    ddr_view: ViewRef
    alloc: AllocTcm


@dataclass(frozen=True, slots=True)
class OutputGroup:
    alloc: AllocTcm
    ddr_view: ViewRef


@dataclass(frozen=True, slots=True)
class NormalFormDescriptor:
    loop: ForTiles
    loop_index: int  # position of the loop in its block
    inputs: tuple[InputGroup, ...]
    compute: Compute
    output: OutputGroup


def _is_full_tcm_view(view: ViewRef, alloc: AllocTcm) -> bool:
    return view == full_view(alloc.decl)


def match_normal_form(m: TileModule) -> NormalFormDescriptor | None:
    desc, _ = match_normal_form_explain(m)
    return desc


def match_normal_form_explain(m: TileModule) -> tuple[NormalFormDescriptor | None, str]:
    """Match plus the first deviation from the pattern, for pass errors."""
    return match_block_explain(m.body, {d.id for d in m.buffers})


def match_block_explain(
    block: tuple[Op, ...], ddr: set[str]
) -> tuple[NormalFormDescriptor | None, str]:
    """The normal-form loop of one block; `ddr` names the module buffers."""
    loops = [(i, op) for i, op in enumerate(block) if isinstance(op, ForTiles)]
    if len(loops) != 1:
        return None, f"expected exactly one top-level tiled loop, found {len(loops)}"
    loop_index, loop = loops[0]
    if loop.toggle_init is not None:
        return None, "top-level loop already carries a ping/pong toggle"

    body = loop.body
    pos = 0

    def kind(op) -> str:
        return type(op).__name__

    # Input groups: alloc immediately followed by a copy into the whole buffer.
    inputs: list[InputGroup] = []
    while (
        pos + 1 < len(body)
        and isinstance(body[pos], AllocTcm)
        and isinstance(body[pos + 1], Copy)
        and body[pos + 1].dst.base == body[pos].decl.id
    ):
        alloc, copy_in = body[pos], body[pos + 1]
        if alloc.decl.space is not MemSpace.TCM:
            return None, f"loop body op {pos}: alloc of @{alloc.decl.id} is not in tcm space"
        if copy_in.src.base not in ddr:
            return None, f"loop body op {pos + 1}: copy-in source @{copy_in.src.base} is not a ddr buffer"
        if not _is_full_tcm_view(copy_in.dst, alloc):
            return None, f"loop body op {pos + 1}: copy-in must fill the whole tcm buffer @{alloc.decl.id}"
        inputs.append(InputGroup(copy_in.src, alloc))
        pos += 2
    if not inputs:
        found = kind(body[pos]) if pos < len(body) else "end of body"
        return None, f"loop body op {pos}: expected alloc + copy-in input group, found {found}"

    # One output alloc.
    if pos >= len(body) or not isinstance(body[pos], AllocTcm):
        found = kind(body[pos]) if pos < len(body) else "end of body"
        return None, f"loop body op {pos}: expected output tcm alloc, found {found}"
    out_alloc = body[pos]
    pos += 1

    # One compute reading the input buffers in order, writing the output buffer.
    if pos >= len(body) or not isinstance(body[pos], Compute):
        found = kind(body[pos]) if pos < len(body) else "end of body"
        return None, f"loop body op {pos}: expected compute, found {found}"
    compute = body[pos]
    expected_in = tuple(full_view(g.alloc.decl) for g in inputs)
    if compute.inputs != expected_in:
        return None, f"loop body op {pos}: compute must read the copied-in tcm buffers in order"
    if not _is_full_tcm_view(compute.output, out_alloc):
        return None, f"loop body op {pos}: compute must write the whole output buffer @{out_alloc.decl.id}"
    pos += 1

    # Write-back to ddr.
    if pos >= len(body) or not isinstance(body[pos], Copy):
        found = kind(body[pos]) if pos < len(body) else "end of body"
        return None, f"loop body op {pos}: expected copy-out, found {found}"
    copy_out = body[pos]
    if not _is_full_tcm_view(copy_out.src, out_alloc):
        return None, f"loop body op {pos}: copy-out must read the whole output buffer @{out_alloc.decl.id}"
    if copy_out.dst.base not in ddr:
        return None, f"loop body op {pos}: copy-out destination @{copy_out.dst.base} is not a ddr buffer"
    pos += 1

    # Deallocs in allocation order.
    alloc_order = [g.alloc.decl.id for g in inputs] + [out_alloc.decl.id]
    for buffer_id in alloc_order:
        if pos >= len(body) or not isinstance(body[pos], DeallocTcm):
            found = kind(body[pos]) if pos < len(body) else "end of body"
            return None, f"loop body op {pos}: expected dealloc of @{buffer_id}, found {found}"
        if body[pos].buffer_id != buffer_id:
            return None, (
                f"loop body op {pos}: deallocs out of allocation order"
                f" (expected @{buffer_id}, found @{body[pos].buffer_id})"
            )
        pos += 1

    if pos != len(body):
        return None, f"loop body op {pos}: trailing op {kind(body[pos])} after the write-back sequence"

    desc = NormalFormDescriptor(
        loop=loop,
        loop_index=loop_index,
        inputs=tuple(inputs),
        compute=compute,
        output=OutputGroup(out_alloc, copy_out.dst),
    )
    return desc, ""
