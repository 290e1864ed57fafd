"""Rewrite passes over tile modules and the rung-keyed pipeline driver.

Five transformations: vectorize, form_virtual_threads (structured parallel
loop), form_async_threads (fork-join lowering), and the two double-buffering
stages (structural pipelining, then asynchronous DMA).  Every pass takes a
module and returns a fresh module; inputs are never mutated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .ir import (
    ANCHOR_COMPUTE,
    ANCHOR_PREFETCH,
    ANCHOR_STOREBACK,
    AddToGroup,
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    DistPolicy,
    DmaStart,
    DmaTag,
    DmaWait,
    FlipToggle,
    Forall,
    ForTiles,
    IfToggle,
    MemSpace,
    Op,
    TagRole,
    TileModule,
    ViewRef,
    full_view,
    walk,
    walk_module,
)
from .machine import LadderRung
from .normal_form import match_normal_form_explain


class PassError(ValueError):
    """A pass precondition does not hold for the given module."""


@dataclass(frozen=True, slots=True)
class MtProfitability:
    """Size floor below which multi-threading is declined."""

    min_tiles: int = 2
    min_total_elements: int = 4096

    def __post_init__(self) -> None:
        if self.min_tiles < 1 or self.min_total_elements < 1:
            raise ValueError("profitability thresholds must be >= 1")


@dataclass(frozen=True, slots=True)
class MtPolicy:
    """Thread count plus an optional distribution override; with kind=None the
    pass picks block for evenly dividing tile counts and block-cyclic
    otherwise (balances uneven ranges)."""

    threads: int = 4
    kind: DistPolicy | None = None

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True, slots=True)
class PipelineSpec:
    rung: LadderRung
    lanes: int = 32
    mt: MtPolicy = MtPolicy()
    profitability: MtProfitability = MtProfitability()
    storeback_async: bool = True

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")


# --------------------------------------------------------------------------- #
# Structural rewrite helper
# --------------------------------------------------------------------------- #


def _rewrite(body: tuple[Op, ...], fn) -> tuple[Op, ...]:
    """Applies fn top-down; fn returns a replacement op sequence or None to
    keep the op and recurse into its regions."""
    out: list[Op] = []
    for op in body:
        repl = fn(op)
        if repl is not None:
            out.extend(repl)
            continue
        if isinstance(op, (ForTiles, Forall, AsyncExecute)):
            op = replace(op, body=_rewrite(op.body, fn))
        elif isinstance(op, IfToggle):
            op = replace(
                op,
                then_body=_rewrite(op.then_body, fn),
                else_body=_rewrite(op.else_body, fn),
            )
        out.append(op)
    return tuple(out)


def _has_anchor(m: TileModule, anchor: str) -> bool:
    return any(op.anchor == anchor for _, op in walk_module(m))


# --------------------------------------------------------------------------- #
# Vectorize
# --------------------------------------------------------------------------- #


def vectorize(m: TileModule, lanes: int) -> TileModule:
    """Sets every compute region's vector factor to `lanes`; a region whose
    element count is not a multiple of lanes is split into a vector body over
    the largest multiple plus a scalar epilogue over the remainder."""
    if lanes < 1:
        raise PassError(f"lanes must be >= 1, got {lanes}")
    for _, op in walk_module(m):
        if isinstance(op, Compute) and op.vector_factor != 1:
            raise PassError("module already vectorized: found compute with vector_factor != 1")
    if lanes == 1:
        return m

    def fn(op: Op):
        if isinstance(op, Compute):
            return _vectorize_compute(op, lanes)
        return None

    return replace(m, body=_rewrite(m.body, fn))


def _vectorize_compute(op: Compute, lanes: int) -> tuple[Op, ...]:
    total = op.output.elems
    main = (total // lanes) * lanes
    if main == 0:
        return (op,)  # smaller than one vector: stays scalar
    if main == total:
        return (replace(op, vector_factor=lanes),)
    # The remainder split happens at row granularity; views are whole-row
    # windows, so the split point must land on a row boundary of every view.
    for view in (*op.inputs, op.output):
        if main % view.col_count != 0:
            raise PassError(
                f"cannot split epilogue: {main} elements is not a whole number"
                f" of rows of @{view.base} ({view.col_count} cols)"
            )

    def head(view: ViewRef) -> ViewRef:
        rows = main // view.col_count
        return replace(view, row_count=rows)

    def tail(view: ViewRef) -> ViewRef:
        rows = main // view.col_count
        return replace(view, row_base=view.row_base + rows, row_count=view.row_count - rows)

    vec = replace(
        op,
        inputs=tuple(head(v) for v in op.inputs),
        output=head(op.output),
        vector_factor=lanes,
    )
    epilogue = replace(
        op,
        inputs=tuple(tail(v) for v in op.inputs),
        output=tail(op.output),
        vector_factor=1,
    )
    return (vec, epilogue)


# --------------------------------------------------------------------------- #
# Multi-threading stage 1: structured parallel loop
# --------------------------------------------------------------------------- #


def partition_tiles(
    tile_count: int, threads: int, kind: DistPolicy
) -> tuple[tuple[int, ...], ...]:
    """Per-thread tile assignments; the union is exactly [0, tile_count) and
    the sets are pairwise disjoint."""
    if tile_count < 0 or threads < 1:
        raise ValueError("tile_count must be >= 0 and threads >= 1")
    if kind is DistPolicy.BLOCK:
        chunk = math.ceil(tile_count / threads) if tile_count else 0
        return tuple(
            tuple(range(t * chunk, min((t + 1) * chunk, tile_count))) for t in range(threads)
        )
    return tuple(tuple(range(t, tile_count, threads)) for t in range(threads))


def _pick_policy(tile_count: int, policy: MtPolicy) -> DistPolicy:
    if policy.kind is not None:
        return policy.kind
    return DistPolicy.BLOCK if tile_count % policy.threads == 0 else DistPolicy.BLOCK_CYCLIC


def form_virtual_threads(
    m: TileModule, policy: MtPolicy, prof: MtProfitability = MtProfitability()
) -> TileModule:
    """Rewrites the tiled loop into an explicitly parallel forall when the
    size-based profitability heuristic accepts; otherwise returns the module
    unchanged.  On double-buffered modules the rewrite targets the compute
    region's sub-tiles instead of the outer ping/pong loop."""
    if _has_anchor(m, ANCHOR_COMPUTE):
        return _form_virtual_threads_in_db(m, policy, prof)

    loops = [(i, op) for i, op in enumerate(m.body) if isinstance(op, ForTiles)]
    if not loops:
        raise PassError("no top-level tiled loop to parallelize")
    index, loop = loops[0]
    if loop.toggle_init is not None:
        raise PassError("cannot parallelize a loop with a carried toggle")

    tile_elems = _written_ddr_elems_per_iteration(m, loop)
    if loop.tile_count < prof.min_tiles or loop.tile_count * tile_elems < prof.min_total_elements:
        return m

    _check_output_disjointness(m, loop)
    kind = _pick_policy(loop.tile_count, policy)
    forall = Forall(loop.iv, loop.tile_count, kind, policy.threads, loop.body)
    body = m.body[:index] + (forall,) + m.body[index + 1 :]
    return replace(m, body=body)


def _written_ddr_views(m: TileModule, body: tuple[Op, ...]) -> list[ViewRef]:
    """DDR views written by ops binding to the enclosing loop's iv (ops under
    a nested loop bind elsewhere and are skipped)."""
    ddr = {d.id for d in m.buffers}
    views: list[ViewRef] = []
    for op in body:
        if isinstance(op, (ForTiles, Forall)):
            continue
        if isinstance(op, (AsyncExecute,)):
            views.extend(_written_ddr_views(m, op.body))
        elif isinstance(op, IfToggle):
            views.extend(_written_ddr_views(m, op.then_body))
            views.extend(_written_ddr_views(m, op.else_body))
        elif isinstance(op, (Copy, DmaStart)) and op.dst.base in ddr:
            views.append(op.dst)
        elif isinstance(op, Compute) and op.output.base in ddr:
            views.append(op.output)
    return views


def _written_ddr_elems_per_iteration(m: TileModule, loop: ForTiles) -> int:
    return sum(v.elems for v in _written_ddr_views(m, loop.body))


def _check_output_disjointness(m: TileModule, loop: ForTiles) -> None:
    for view in _written_ddr_views(m, loop.body):
        if abs(view.row_scale) < view.row_count:
            raise PassError(
                f"cross-thread dependence: output view of @{view.base} overlaps"
                f" across iterations (stride {view.row_scale} < {view.row_count} rows)"
            )


def _form_virtual_threads_in_db(
    m: TileModule, policy: MtPolicy, prof: MtProfitability
) -> TileModule:
    decls = {
        op.decl.id: op.decl for _, op in walk_module(m) if isinstance(op, AllocTcm)
    }
    changed = False

    def fn(op: Op):
        nonlocal changed
        if not (isinstance(op, Compute) and op.anchor == ANCHOR_COMPUTE):
            return None
        views = (*op.inputs, op.output)
        shapes = set()
        for view in views:
            decl = decls.get(view.base)
            if decl is None or view != full_view(decl):
                return (op,)  # only whole resident tiles are sub-tiled
            shapes.add((decl.rows, decl.cols))
        if len(shapes) != 1:
            return (op,)
        rows, cols = shapes.pop()
        if rows < prof.min_tiles or op.output.elems < prof.min_total_elements:
            return (op,)
        kind = _pick_policy(rows, policy)
        row_of = lambda v: ViewRef(v.base, 1, 0, 1, cols)
        sub = replace(
            op,
            inputs=tuple(row_of(v) for v in op.inputs),
            output=row_of(op.output),
            anchor=None,
        )
        changed = True
        return (Forall("s", rows, kind, policy.threads, (sub,), anchor=ANCHOR_COMPUTE),)

    body = _rewrite(m.body, fn)
    if not changed:
        return m
    return replace(m, body=body)


# --------------------------------------------------------------------------- #
# Multi-threading stage 2: fork-join lowering
# --------------------------------------------------------------------------- #


def form_async_threads(m: TileModule) -> TileModule:
    """Lowers every forall to the canonical fork-join skeleton: one async
    region per thread of the forall over its assigned tiles, tokens collected
    into a group, and an await-all barrier."""
    if not any(isinstance(op, Forall) for _, op in walk_module(m)):
        raise PassError("no forall to lower to fork-join form")
    counter = itertools.count()

    def fn(op: Op):
        if isinstance(op, Forall):
            return _lower_forall(op, next(counter))
        return None

    return replace(m, body=_rewrite(m.body, fn))


def _lower_forall(forall: Forall, index: int) -> tuple[Op, ...]:
    threads = forall.threads
    if threads < 1:
        raise PassError(f"forall threads must be >= 1, got {threads}")
    sets = partition_tiles(forall.tile_count, threads, forall.policy)
    step = threads if forall.policy is DistPolicy.BLOCK_CYCLIC else 1
    group = f"g{index}"
    ops: list[Op] = []
    for t, tiles in enumerate(sets):
        if not tiles:
            continue
        body = _remap_views(forall.body, step, tiles[0])
        # Regions run concurrently, so per-tile scratch allocations need
        # per-thread buffer identities.
        body = _rename_tcm(body, f"_w{t}")
        token = f"{group}t{t}"
        ops.append(
            AsyncExecute(
                token,
                (ForTiles(f"{forall.iv}{t}", len(tiles), body),),
                anchor=forall.anchor,
            )
        )
        ops.append(AddToGroup(token, group))
    ops.append(AwaitAll(group))
    return tuple(ops)


def _rename_tcm(body: tuple[Op, ...], suffix: str) -> tuple[Op, ...]:
    """Appends a suffix to every TCM buffer allocated within the body and to
    the views that reference it; buffers owned by enclosing scopes keep
    their names."""
    owned = {op.decl.id for _, op in walk(body) if isinstance(op, AllocTcm)}
    if not owned:
        return body

    def rename_view(view: ViewRef) -> ViewRef:
        if view.base in owned:
            return replace(view, base=view.base + suffix)
        return view

    def fn(op: Op):
        if isinstance(op, AllocTcm) and op.decl.id in owned:
            return (replace(op, decl=replace(op.decl, id=op.decl.id + suffix)),)
        if isinstance(op, DeallocTcm) and op.buffer_id in owned:
            return (replace(op, buffer_id=op.buffer_id + suffix),)
        if isinstance(op, (Copy, DmaStart)):
            return (replace(op, src=rename_view(op.src), dst=rename_view(op.dst)),)
        if isinstance(op, Compute):
            return (
                replace(
                    op,
                    inputs=tuple(rename_view(v) for v in op.inputs),
                    output=rename_view(op.output),
                ),
            )
        return None

    return _rewrite(body, fn)


def _remap_views(body: tuple[Op, ...], step: int, start: int) -> tuple[Op, ...]:
    """Substitutes iv -> start + step * j into every view bound to the loop
    being lowered; views under a nested loop bind to that loop and are left
    alone."""

    def remap(view: ViewRef) -> ViewRef:
        return replace(
            view,
            row_scale=view.row_scale * step,
            row_base=view.row_scale * start + view.row_base,
        )

    out: list[Op] = []
    for op in body:
        if isinstance(op, (ForTiles, Forall)):
            out.append(op)
            continue
        if isinstance(op, AsyncExecute):
            out.append(replace(op, body=_remap_views(op.body, step, start)))
            continue
        if isinstance(op, IfToggle):
            out.append(
                replace(
                    op,
                    then_body=_remap_views(op.then_body, step, start),
                    else_body=_remap_views(op.else_body, step, start),
                )
            )
            continue
        if isinstance(op, (Copy, DmaStart, DmaWait)):
            if op.only_if_iv_lt is not None or op.only_if_iv_ge is not None:
                raise PassError("cannot lower a guarded op inside a forall body")
        if isinstance(op, Copy) or isinstance(op, DmaStart):
            op = replace(op, src=remap(op.src), dst=remap(op.dst))
        elif isinstance(op, Compute):
            op = replace(
                op,
                inputs=tuple(remap(v) for v in op.inputs),
                output=remap(op.output),
            )
        out.append(op)
    return tuple(out)


# --------------------------------------------------------------------------- #
# Double buffering stage 1: structural pipelining
# --------------------------------------------------------------------------- #


def db_stage1(m: TileModule) -> TileModule:
    """Rebuilds the single-buffered loop into a ping/pong pipeline: a prologue
    prefetches tile 0 into ping buffers, each iteration prefetches the next
    tile into the opposite buffer while computing on the current one, and
    storeback rematerializes subviews at the current induction variable.
    Anchor attributes mark the prefetch/compute/storeback roles for stage 2."""
    desc, reason = match_normal_form_explain(m)
    if desc is None:
        raise PassError(f"double buffering requires the single-buffered normal form: {reason}")
    loop = desc.loop
    tile_count = loop.tile_count

    originals = [g.alloc.decl for g in desc.inputs] + [desc.output.alloc.decl]

    def side_decl(decl: BufferDecl, side: str) -> BufferDecl:
        return BufferDecl(f"{decl.id}_{side}", MemSpace.TCM, decl.rows, decl.cols, decl.elem)

    ping = {d.id: side_decl(d, "ping") for d in originals}
    pong = {d.id: side_decl(d, "pong") for d in originals}

    prologue: list[Op] = []
    for d in originals:
        prologue.append(AllocTcm(ping[d.id]))
        prologue.append(AllocTcm(pong[d.id]))
    for g in desc.inputs:
        first_tile = replace(g.ddr_view, row_scale=0, row_base=g.ddr_view.row_base)
        prologue.append(
            Copy(src=first_tile, dst=full_view(ping[g.alloc.decl.id]), anchor=ANCHOR_PREFETCH)
        )

    out_id = desc.output.alloc.decl.id

    def arm(current: dict[str, BufferDecl], opposite: dict[str, BufferDecl]) -> tuple[Op, ...]:
        ops: list[Op] = []
        for g in desc.inputs:
            next_tile = replace(g.ddr_view, row_base=g.ddr_view.row_base + g.ddr_view.row_scale)
            ops.append(
                Copy(
                    src=next_tile,
                    dst=full_view(opposite[g.alloc.decl.id]),
                    anchor=ANCHOR_PREFETCH,
                    only_if_iv_lt=tile_count - 1,
                )
            )
        ops.append(
            replace(
                desc.compute,
                inputs=tuple(full_view(current[g.alloc.decl.id]) for g in desc.inputs),
                output=full_view(current[out_id]),
                anchor=ANCHOR_COMPUTE,
            )
        )
        ops.append(
            Copy(src=full_view(current[out_id]), dst=desc.output.ddr_view, anchor=ANCHOR_STOREBACK)
        )
        return tuple(ops)

    pipelined = ForTiles(
        loop.iv,
        tile_count,
        (IfToggle(arm(ping, pong), arm(pong, ping)), FlipToggle()),
        toggle_init=True,
    )
    epilogue: list[Op] = []
    for d in originals:
        epilogue.append(DeallocTcm(ping[d.id].id))
        epilogue.append(DeallocTcm(pong[d.id].id))

    body = (
        m.body[: desc.loop_index]
        + tuple(prologue)
        + (pipelined,)
        + tuple(epilogue)
        + m.body[desc.loop_index + 1 :]
    )
    return replace(m, body=body)


# --------------------------------------------------------------------------- #
# Double buffering stage 2: asynchronous DMA
# --------------------------------------------------------------------------- #


def db_stage2(m: TileModule, storeback_async: bool = True) -> TileModule:
    """Replaces anchored synchronous copies with tagged DMA: prefetches get
    distinct ping/pong tags per destination buffer with waits inserted
    immediately before compute; storebacks get their own tags with waits
    before the next reuse of the source buffer and final balancing waits in
    the epilogue.  Matches anchors only, never raw structure."""
    prefetch_dsts: list[str] = []
    top_level_dsts: set[str] = set()
    storeback_srcs: list[str] = []
    saw_compute = False
    for path, op in walk_module(m):
        if isinstance(op, Copy) and op.anchor == ANCHOR_PREFETCH:
            if op.dst.base not in prefetch_dsts:
                prefetch_dsts.append(op.dst.base)
            if "." not in path:
                top_level_dsts.add(op.dst.base)
        elif isinstance(op, Copy) and op.anchor == ANCHOR_STOREBACK:
            if op.src.base not in storeback_srcs:
                storeback_srcs.append(op.src.base)
        elif op.anchor == ANCHOR_COMPUTE:
            saw_compute = True
    if not prefetch_dsts or not saw_compute:
        raise PassError(
            "async DMA stage requires a pipelined module with prefetch/compute anchors"
        )

    next_id = itertools.count()
    prefetch_tag = {
        base: DmaTag(
            next(next_id),
            TagRole.PING if base in top_level_dsts else TagRole.PONG,
        )
        for base in prefetch_dsts
    }
    storeback_tag = (
        {base: DmaTag(next(next_id), TagRole.STOREBACK) for base in storeback_srcs}
        if storeback_async
        else {}
    )

    def fn(op: Op):
        if isinstance(op, Copy) and op.anchor == ANCHOR_PREFETCH:
            return (
                DmaStart(
                    src=op.src,
                    dst=op.dst,
                    tag=prefetch_tag[op.dst.base],
                    anchor=op.anchor,
                    only_if_iv_lt=op.only_if_iv_lt,
                    only_if_iv_ge=op.only_if_iv_ge,
                ),
            )
        if isinstance(op, Copy) and op.anchor == ANCHOR_STOREBACK and storeback_async:
            return (
                DmaStart(src=op.src, dst=op.dst, tag=storeback_tag[op.src.base], anchor=op.anchor),
            )
        if isinstance(op, Compute) and op.anchor == ANCHOR_COMPUTE:
            waits: list[Op] = [
                DmaWait(prefetch_tag[v.base])
                for v in op.inputs
                if v.base in prefetch_tag
            ]
            if op.output.base in storeback_tag:
                waits.append(DmaWait(storeback_tag[op.output.base], only_if_iv_ge=2))
            return (*waits, op)
        return None

    body = _rewrite(m.body, fn)

    if storeback_tag:
        # Balance the outstanding storebacks: the ping-side arm runs
        # ceil(T/2) times, the pong side floor(T/2); each needs one final
        # wait when it ran at all.
        loop_positions = [
            (i, op)
            for i, op in enumerate(body)
            if isinstance(op, ForTiles) and op.toggle_init is not None
        ]
        if len(loop_positions) != 1:
            raise PassError("expected exactly one pipelined loop with a carried toggle")
        index, loop = loop_positions[0]
        final_waits: list[Op] = []
        for arm_rank, base in enumerate(storeback_srcs):
            executions = (
                math.ceil(loop.tile_count / 2) if arm_rank == 0 else loop.tile_count // 2
            )
            if executions >= 1:
                final_waits.append(DmaWait(storeback_tag[base]))
        body = body[: index + 1] + tuple(final_waits) + body[index + 1 :]

    return replace(m, body=body)


# --------------------------------------------------------------------------- #
# Pipeline driver
# --------------------------------------------------------------------------- #

STAGE_INITIAL = "initial"

_RUNG_STAGES: dict[LadderRung, tuple[str, ...]] = {
    LadderRung.SCALAR: (),
    LadderRung.VEC: ("vectorize",),
    LadderRung.VEC_MT: ("vectorize", "form-virtual-threads", "form-async-threads"),
    LadderRung.VEC_MT_DB: (
        "db-stage1",
        "db-stage2",
        "vectorize",
        "form-virtual-threads",
        "form-async-threads",
    ),
}


def pipeline_stage_names(rung: LadderRung) -> tuple[str, ...]:
    return _RUNG_STAGES[rung]


def run_pipeline_stages(
    m: TileModule, spec: PipelineSpec
) -> list[tuple[str, TileModule]]:
    """Runs the rung's pass list, recording the module after every stage."""
    stages: list[tuple[str, TileModule]] = [(STAGE_INITIAL, m)]
    current = m
    for name in pipeline_stage_names(spec.rung):
        if name == "vectorize":
            current = vectorize(current, spec.lanes)
        elif name == "form-virtual-threads":
            current = form_virtual_threads(current, spec.mt, spec.profitability)
        elif name == "form-async-threads":
            # The profitability heuristic may have declined; fork-join
            # lowering then has nothing to do and the rung degenerates to
            # the previous one.
            if any(isinstance(op, Forall) for _, op in walk_module(current)):
                current = form_async_threads(current)
        elif name == "db-stage1":
            current = db_stage1(current)
        elif name == "db-stage2":
            current = db_stage2(current, spec.storeback_async)
        stages.append((name, current))
    return stages


def run_pipeline(m: TileModule, spec: PipelineSpec) -> TileModule:
    """Applies the rung's pass pipeline; the scalar rung is the identity."""
    if spec.rung is LadderRung.SCALAR:
        return m
    final = run_pipeline_stages(m, spec)[-1][1]
    return replace(final, rung=spec.rung.value)
