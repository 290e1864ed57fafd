"""Rewrite passes over tile modules and the rung-keyed pipeline driver.

Six transformations: vectorize, split_tiles (tiles split k ways by rows),
form_virtual_threads (the tile fork: a structured parallel loop),
form_async_threads (fork-join lowering), and the two double-buffering stages
(structural pipelining, then asynchronous DMA).  The driver runs them as the
named stages of _STAGES, `vectorize`, `pipeline-threads` (split_tiles and
the tile fork, as choose_composition picks), `pipeline-async-threads`,
`db-stage1` and `db-stage2`, in the order _RUNG_STAGES gives each rung.
Every pass takes a module and returns a new one, or its input when it has
nothing to do; inputs are never mutated.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

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
    DmaStart,
    DmaTag,
    DmaWait,
    FlipToggle,
    Forall,
    ForTiles,
    IfToggle,
    Op,
    TagRole,
    TileModule,
    ViewRef,
    full_view,
    ops_per_element,
    walk,
)
from .machine import LadderRung, MachineConfig, compute_cycles, transfer_cycles
from .normal_form import (
    NormalFormDescriptor,
    Operand,
    match_block_explain,
    match_normal_form,
    normal_form_tile,
)


class PassError(ValueError):
    """A pass precondition does not hold for the given module."""


# Size floor below which multi-threading is declined: fewer parallel tiles
# than MT_MIN_TILES, or fewer written elements in all of them together than
# MT_MIN_ELEMENTS.  vec-mt counts the kernel's whole tiles, vec-mt-db its
# split tiles one each.  A one-thread machine declines every fork.
MT_MIN_TILES = 2
MT_MIN_ELEMENTS = 4096


@dataclass(frozen=True, slots=True)
class PipelineSpec:
    """The rung and the machine its passes read: the machine's lanes are the
    vector width, its threads the fork width, its scratchpad bounds every
    pass, and its timing fields price the vec-mt and vec-mt-db compositions
    (see choose_composition)."""

    rung: LadderRung
    machine: MachineConfig = MachineConfig()

    @property
    def lanes(self) -> int:
        return self.machine.lanes

    @property
    def mt(self) -> MachineConfig:
        """The machine, whose `threads` the multi-threading passes fork over."""
        return self.machine


# --------------------------------------------------------------------------- #
# Structural rewrite helper
# --------------------------------------------------------------------------- #


def _rewrite(body: tuple[Op, ...], fn) -> tuple[Op, ...]:
    """Applies fn top-down; fn returns a replacement op sequence or None to
    keep the op and recurse into its regions.  A region whose ops all come
    back unchanged keeps its op, and a body whose ops all come back
    unchanged is returned as it is."""
    out: list[Op] = []
    changed = False
    for op in body:
        repl = fn(op)
        if repl is None:
            if isinstance(op, (ForTiles, Forall, AsyncExecute)):
                inner = _rewrite(op.body, fn)
                repl = (op,) if inner is op.body else (replace(op, body=inner),)
            elif isinstance(op, IfToggle):
                then, other = _rewrite(op.then_body, fn), _rewrite(op.else_body, fn)
                same = then is op.then_body and other is op.else_body
                repl = (op,) if same else (replace(op, then_body=then, else_body=other),)
            else:
                repl = (op,)
        changed = changed or len(repl) != 1 or repl[0] is not op
        out.extend(repl)
    return tuple(out) if changed else body


def _rewrite_module(m: TileModule, fn) -> TileModule:
    """_rewrite over the module body: the module itself when nothing changed."""
    body = _rewrite(m.body, fn)
    return m if body is m.body else replace(m, body=body)


def _map_views(op: Op, fn) -> Op | None:
    """The op with fn applied to every view it reads or writes; None for an
    op without views."""
    if isinstance(op, (Copy, DmaStart)):
        return replace(op, src=fn(op.src), dst=fn(op.dst))
    if isinstance(op, Compute):
        return replace(op, inputs=tuple(fn(v) for v in op.inputs), output=fn(op.output))
    return None


def _loop_body_bytes(loop: ForTiles) -> int:
    """TCM bytes one iteration of a tile loop allocates: what each copy of
    the loop body that is live at the same time needs."""
    return sum(op.decl.nbytes for op in loop.body if isinstance(op, AllocTcm))


def _require_tcm(what: str, copies: int, loop: ForTiles, tcm_capacity: int) -> None:
    need = copies * _loop_body_bytes(loop)
    if need > tcm_capacity:
        raise PassError(
            f"{what} needs {need} bytes of tcm for {copies} live copies of the loop body"
            f" > capacity {tcm_capacity}"
        )


# --------------------------------------------------------------------------- #
# Vectorize
# --------------------------------------------------------------------------- #


def vectorize(m: TileModule, lanes: int) -> TileModule:
    """Sets every compute region's vector factor to `lanes`; a region whose
    element count is not a multiple of lanes is split into a vector body over
    the largest multiple plus a scalar epilogue over the remainder."""
    if lanes < 1:
        raise PassError(f"lanes must be >= 1, got {lanes}")

    def fn(op: Op):
        if not isinstance(op, Compute):
            return None
        if op.vector_factor != 1:
            raise PassError("module already vectorized: found compute with vector_factor != 1")
        return _vectorize_compute(op, lanes)

    return _rewrite_module(m, fn)


def _gets_epilogue(elems: int, lanes: int) -> bool:
    """Whether vectorize splits a compute of `elems` elements into a vector
    body and a scalar epilogue: it spans more than one vector, and lanes do
    not divide it."""
    return elems > lanes and elems % lanes != 0


def _vectorize_compute(op: Compute, lanes: int) -> tuple[Op, ...]:
    total = op.output.elems
    if lanes == 1 or total < lanes:
        return (op,)  # one lane, or smaller than one vector: stays scalar
    if not _gets_epilogue(total, lanes):
        return (replace(op, vector_factor=lanes),)
    main = (total // lanes) * lanes
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

    return (
        replace(_map_views(op, head), vector_factor=lanes),
        replace(_map_views(op, tail), vector_factor=1),
    )


# --------------------------------------------------------------------------- #
# Multi-threading stage 1: structured parallel loop
# --------------------------------------------------------------------------- #


def partition_tiles(tile_count: int, threads: int) -> tuple[tuple[int, ...], ...]:
    """Per-thread tile assignments, OpenMP's schedule(static): contiguous
    blocks in thread order, the first tile_count % threads of them one tile
    longer.  The union is exactly [0, tile_count), the sets are pairwise
    disjoint, and their sizes differ by at most one."""
    if tile_count < 0 or threads < 1:
        raise ValueError("tile_count must be >= 0 and threads >= 1")
    q, r = divmod(tile_count, threads)
    starts = [t * q + min(t, r) for t in range(threads + 1)]
    return tuple(tuple(range(starts[t], starts[t + 1])) for t in range(threads))


def _require_flat(body: tuple[Op, ...]) -> None:
    """The tile fork forks only loop bodies without a loop, a toggle or an
    async region."""
    for op in body:
        if isinstance(op, (ForTiles, Forall, IfToggle, FlipToggle, AsyncExecute)):
            raise PassError(
                f"cannot parallelize a loop whose body holds a {type(op).__name__}:"
                " the tile fork forks only flat loop bodies"
            )


def form_virtual_threads(
    m: TileModule, threads: int, tcm_capacity: int = MachineConfig().tcm_capacity
) -> TileModule:
    """Rewrites the tiled loop into an explicitly parallel forall over
    `threads` unless there is one thread or the loop is below the
    MT_MIN_TILES / MT_MIN_ELEMENTS size floor, which returns the module
    unchanged.  The threads' copies of the loop body are live at once and
    must fit `tcm_capacity` together.  Run before double buffering, each
    thread later pipelines its own block of tiles.  Only a flat loop body
    forks: a double-buffered loop, which carries a toggle, or a body holding
    a loop, a toggle or an async region raises PassError."""
    loops = [(i, op) for i, op in enumerate(m.body) if isinstance(op, ForTiles)]
    if not loops:
        raise PassError("no top-level tiled loop to parallelize")
    index, loop = loops[0]
    if loop.toggle_init is not None:
        raise PassError("cannot parallelize a loop with a carried toggle")
    _require_flat(loop.body)

    views = _written_ddr_views(m, loop.body)
    if _declines_fork(loop.tile_count, sum(v.elems for v in views), threads):
        return m
    for view in views:
        if abs(view.row_scale) < view.row_count:
            raise PassError(
                f"cross-thread dependence: output view of @{view.base} overlaps"
                f" across iterations (stride {view.row_scale} < {view.row_count} rows)"
            )
    _require_tcm("the tile fork", min(threads, loop.tile_count), loop, tcm_capacity)

    forall = Forall(loop.iv, loop.tile_count, threads, loop.body)
    body = m.body[:index] + (forall,) + m.body[index + 1 :]
    return replace(m, body=body)


def _declines_fork(parallel: int, elems_each: int, threads: int) -> bool:
    """The profitability floor: one thread, which a fork cannot pay for;
    fewer than MT_MIN_TILES parallel units; or fewer than MT_MIN_ELEMENTS
    written elements in all of them together."""
    return threads < 2 or parallel < MT_MIN_TILES or parallel * elems_each < MT_MIN_ELEMENTS


def _written_ddr_views(m: TileModule, body: tuple[Op, ...]) -> list[ViewRef]:
    """DDR views written by the ops of a flat loop body."""
    ddr = {d.id for d in m.buffers}
    written = (
        op.output if isinstance(op, Compute) else op.dst
        for op in body
        if isinstance(op, (Copy, DmaStart, Compute))
    )
    return [view for view in written if view.base in ddr]


def _whole_row_tiles(operands: tuple[Operand, ...], k: int) -> bool:
    """Whether every operand is a contiguous whole-row tile, its DDR view
    the rows and columns of its buffer, and k divides those rows."""
    return all(
        v.row_scale == v.row_count == d.rows and v.col_count == d.cols and d.rows % k == 0
        for v, d in operands
    )


def split_tiles(m: TileModule, k: int) -> TileModule:
    """The normal-form loop over tiles split `k` ways by rows: `k` times the
    iterations, each over a tile of rows/k rows, its body rebuilt by
    normal_form_tile with views and buffers of that many rows.  Every DDR
    view must be a contiguous whole-row tile and k must divide its rows (see
    _whole_row_tiles).  k = 1 returns the module."""
    desc, reason = match_block_explain(m.body, {d.id for d in m.buffers})
    if desc is None:
        raise PassError(f"splitting tiles requires the single-buffered normal form: {reason}")
    if k < 1:
        raise PassError(f"split factor must be >= 1, got {k}")
    if k == 1:
        return m
    if not _whole_row_tiles((*desc.inputs, desc.output), k):
        raise PassError(f"cannot split tiles {k} ways: a view is not {k} whole-row sub-tiles")

    def split(operand: Operand) -> Operand:
        view, decl = operand
        rows = decl.rows // k
        return replace(view, row_scale=rows, row_count=rows), replace(decl, rows=rows)

    body = normal_form_tile(
        tuple(split(op) for op in desc.inputs),
        split(desc.output),
        desc.compute.expr,
        desc.compute.vector_factor,
    )
    loop = ForTiles(desc.loop.iv, desc.loop.tile_count * k, body)
    index = desc.loop_index
    return replace(m, body=m.body[:index] + (loop,) + m.body[index + 1 :])


@dataclass(frozen=True, slots=True)
class Composition:
    """One vec-mt or vec-mt-db candidate and its cost: the tiles split
    `split` ways by rows (see split_tiles; 1 keeps them whole), then run by
    one loop or one pipeline over them all (`forks` 0), or forked so each
    thread runs a block of them through its own loop or pipeline (`forks`
    1: one fork/join per run).  `transfers` counts the DMA transfers of the
    tile loop."""

    split: int
    cycles: int
    forks: int
    transfers: int


def _vectorized_cycles(cfg: MachineConfig, elems: int, per_element: int, lanes: int) -> int:
    """Compute cycles of a whole-buffer compute after vectorize: the vector
    body and the scalar epilogue, or all scalar below one vector."""
    if lanes == 1 or elems < lanes:
        return compute_cycles(cfg, elems, per_element, 1)
    rest = elems % lanes
    vector = compute_cycles(cfg, elems - rest, per_element, lanes)
    return vector + compute_cycles(cfg, rest, per_element, 1)


def _forked_cycles(cfg: MachineConfig, units: int, threads: int, x_in: int, unit: int) -> int:
    """When the last region of a fork over `units` units of `unit` compute
    cycles finishes, join excluded.  Units are dealt out as partition_tiles
    deals tiles, so the first r of the Tu = min(threads, units) regions get
    one more.  Region j (from 1) starts j forks in and has its first unit
    once the channel has moved `x_in` for it, behind the first loads of the
    regions before it."""
    used = min(threads, units)
    q, r = divmod(units, used)

    def ready(j: int) -> int:
        return max(cfg.fork_cost + j * x_in, j * cfg.fork_cost + x_in)

    return max(ready(used) + q * unit, ready(r) + (q + 1) * unit if r else 0)


def _forked_loops_cycles(
    cfg: MachineConfig, units: int, threads: int, x_ins: tuple[int, ...], c: int, x_out: int
) -> int:
    """When the last region of a fork over `units` units of the
    single-buffered loop finishes, join excluded.  Units are dealt out as in
    _forked_cycles, and region j (from 1) starts j forks in.  A unit copies
    its inputs in one at a time (`x_ins` cycles each), computes for `c` and
    copies its output back (`x_out`).  Every copy blocks its region and
    queues on the one FIFO channel behind the copies requested before it, so
    the regions' loops are replayed in time order, an event per copy and per
    compute.  A tie goes to the event scheduled first; a region's start,
    scheduled as it is forked, loses every tie.  Both as in the simulator."""
    used = min(threads, units)
    q, r = divmod(units, used)
    steps = (*((True, x) for x in x_ins), (False, c), (True, x_out))  # (a copy?, cycles)
    left = [q + (j < r) for j in range(used)]
    # (time, a region's start, order scheduled, region, next step)
    events = [((j + 1) * cfg.fork_cost, True, j, j, 0) for j in range(used)]
    order = itertools.count(used)
    channel_free = end = 0
    while events:
        t, _, _, j, step = heapq.heappop(events)
        if step == len(steps):
            left[j] -= 1
            if not left[j]:
                end = t
                continue
            step = 0
        copy, cycles = steps[step]
        if copy:
            t = channel_free = max(t, channel_free) + cycles
        else:
            t += cycles
        heapq.heappush(events, (t, False, next(order), j, step + 1))
    return end


def _splits(desc: NormalFormDescriptor, cfg: MachineConfig, lanes: int) -> Iterator[tuple]:
    """(k, n, input transfer cycles, compute cycles, output transfer cycles)
    of each sub-tile for every k the tiles split into: whole-row tiles (see
    _whole_row_tiles) and no scalar epilogue in the sub-tile.  k = 1 always."""
    compute = desc.compute
    rows, elems = compute.output.row_count, compute.output.elems
    per_element = ops_per_element(compute.expr)
    operands = (*desc.inputs, desc.output)
    for k in range(1, rows + 1):
        if k > 1 and (not _whole_row_tiles(operands, k) or _gets_epilogue(elems // k, lanes)):
            continue
        x_ins = tuple(transfer_cycles(cfg, decl.nbytes // k) for _, decl in desc.inputs)
        x_out = transfer_cycles(cfg, desc.output[1].nbytes // k)
        c = _vectorized_cycles(cfg, elems // k, per_element, lanes)
        yield k, desc.loop.tile_count * k, x_ins, c, x_out


def compositions(m: TileModule, spec: PipelineSpec) -> tuple[Composition, ...]:
    """The vec-mt or vec-mt-db candidates of an untransformed module, each
    priced from the normal-form loop and the machine's cost forms; no pass
    runs.  The tiles split k ways as _splits allows.  With Xin and Xout one
    sub-tile's input and output transfer cycles, C its compute, n = N*k
    sub-tiles of N tiles, T the threads and F(n, x, c) the end of a fork
    over n units of c cycles whose regions each first load x (see
    _forked_cycles):

    vec-mt offers the unforked loop over whole tiles, N*(Xin + C + Xout),
    so a fork that cannot pay is declined; and, where the tile fork forks
    the whole tiles and min(T, n) copies of the split loop body fit the
    scratchpad, per-thread loops over each split, their copies replayed on
    the channel (see _forked_loops_cycles) plus the join.  A fork whose
    lower bound exceeds the price of a candidate before it is priced at
    that bound, which no replay can beat:

        per-thread loop  max(F(n, 0, Xin + C + Xout), fork + n*(Xin + Xout)) + join

    vec-mt-db offers one pipeline where its ping/pong copies of the loop
    body fit the scratchpad, and per-thread pipelines where the tile fork
    forks the split tiles and 2 * min(T, n) copies fit:

        one pipeline  max(Xin + n*C + Xout, n*(Xin + Xout), n*Xin + (n-1)*Xout + C)
        per-thread    max(F(n, Xin, C) + Xout, fork + n*(Xin + Xout)) + join

    The last term of one pipeline is the channel moving every input and all
    outputs but the last before the last sub-tile computes.  A module
    outside the normal form has no candidates."""
    desc = match_normal_form(m)
    if desc is None:
        return ()
    cfg, threads = spec.machine, spec.machine.threads
    out_view = desc.output[0]
    forkable = abs(out_view.row_scale) >= out_view.row_count  # output tiles do not overlap
    body_bytes = _loop_body_bytes(desc.loop)
    operands = len(desc.inputs) + 1
    splits = list(_splits(desc, cfg, cfg.lanes))

    if spec.rung is not LadderRung.VEC_MT_DB:
        _, tiles, x_ins, c, x_out = splits[0]
        best = tiles * (sum(x_ins) + c + x_out)
        candidates = [Composition(1, best, 0, tiles * operands)]
        if not forkable or _declines_fork(tiles, out_view.elems, threads):
            return tuple(candidates)
        for k, n, x_ins, c, x_out in splits:
            if min(threads, n) * body_bytes // k > cfg.tcm_capacity:
                continue
            x_in = sum(x_ins)
            unit = x_in + c + x_out
            cycles = max(_forked_cycles(cfg, n, threads, 0, unit), cfg.fork_cost + n * (x_in + x_out))
            cycles += cfg.join_cost
            if cycles <= best:  # else the lower bound already loses: no replay
                cycles = _forked_loops_cycles(cfg, n, threads, x_ins, c, x_out) + cfg.join_cost
                best = min(best, cycles)
            candidates.append(Composition(k, cycles, 1, n * operands))
        return tuple(candidates)

    candidates = []
    for k, n, x_ins, c, x_out in splits:
        x_in = sum(x_ins)
        if 2 * body_bytes // k <= cfg.tcm_capacity:
            cycles = max(x_in + n * c + x_out, n * (x_in + x_out), n * x_in + (n - 1) * x_out + c)
            candidates.append(Composition(k, cycles, 0, n * operands))
        if (
            forkable
            and not _declines_fork(n, out_view.elems // k, threads)
            and 2 * min(threads, n) * body_bytes // k <= cfg.tcm_capacity
        ):
            last = _forked_cycles(cfg, n, threads, x_in, c) + x_out
            cycles = max(last, cfg.fork_cost + n * (x_in + x_out)) + cfg.join_cost
            candidates.append(Composition(k, cycles, 1, n * operands))
    return tuple(candidates)


def choose_composition(m: TileModule, spec: PipelineSpec) -> Composition | None:
    """The cheapest candidate of the rung (see compositions); a tie goes to
    fewer fork/joins, then to fewer transfers.  None when there is no
    candidate: outside the normal form, or at vec-mt-db where none fits the
    scratchpad."""
    candidates = compositions(m, spec)
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.cycles, c.forks, c.transfers))


# --------------------------------------------------------------------------- #
# Multi-threading stage 2: fork-join lowering
# --------------------------------------------------------------------------- #


def form_async_threads(m: TileModule) -> TileModule:
    """Lowers every forall to the canonical fork-join skeleton: one async
    region per thread of the forall over its assigned tiles, tokens collected
    into a group, and an await-all barrier.  A module without a forall is
    returned as it is."""
    counter = itertools.count()

    def fn(op: Op):
        if isinstance(op, Forall):
            return _lower_forall(op, next(counter))
        return None

    return _rewrite_module(m, fn)


def _lower_forall(forall: Forall, index: int) -> tuple[Op, ...]:
    threads = forall.threads
    if threads < 1:
        raise PassError(f"forall threads must be >= 1, got {threads}")
    _require_flat(forall.body)
    sets = partition_tiles(forall.tile_count, threads)
    # Regions run concurrently, so per-tile scratch allocations need
    # per-thread buffer identities.
    owned = {op.decl.id for op in forall.body if isinstance(op, AllocTcm)}
    group = f"g{index}"
    ops: list[Op] = []
    for t, tiles in enumerate(sets):
        if not tiles:
            continue
        body = _thread_body(forall.body, tiles[0], owned, f"_w{t}")
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


def _thread_body(body: tuple[Op, ...], start: int, owned: set[str], suffix: str) -> tuple[Op, ...]:
    """One thread's copy of a flat forall body: iv -> start + j in every
    view, and `suffix` on every TCM buffer in `owned` (allocated within the
    body)."""

    def view_of(view: ViewRef) -> ViewRef:
        if view.base in owned:
            view = replace(view, base=view.base + suffix)
        return replace(view, row_base=view.row_scale * start + view.row_base)

    def one(op: Op) -> Op:
        if isinstance(op, AllocTcm) and op.decl.id in owned:
            return replace(op, decl=replace(op.decl, id=op.decl.id + suffix))
        if isinstance(op, DeallocTcm) and op.buffer_id in owned:
            return replace(op, buffer_id=op.buffer_id + suffix)
        if isinstance(op, (Copy, DmaStart, DmaWait)) and (
            op.only_if_iv_lt is not None or op.only_if_iv_ge is not None
        ):
            raise PassError("cannot lower a guarded op inside a forall body")
        mapped = _map_views(op, view_of)
        return op if mapped is None else mapped

    return tuple(one(op) for op in body)


# --------------------------------------------------------------------------- #
# Double buffering stage 1: structural pipelining
# --------------------------------------------------------------------------- #


def db_stage1(m: TileModule, tcm_capacity: int = MachineConfig().tcm_capacity) -> TileModule:
    """Rebuilds each single-buffered loop into a ping/pong pipeline: a
    prologue prefetches the loop's first tile into ping buffers, and each
    arm of the loop prefetches the next tile into the opposite buffers,
    computes on the current ones and stores back, rematerializing subviews
    at the current induction variable (db_stage2 moves the wait for the
    current tile ahead of the prefetch).  A forked module pipelines the loop
    of every async region, each over its own block of tiles; otherwise the
    module body holds the one loop.  Anchor attributes mark the
    prefetch/compute/storeback roles for stage 2.  The ping and pong copies
    of every pipeline's loop body are live at once and must fit
    `tcm_capacity` together."""
    ddr = {d.id for d in m.buffers}
    copies = 2 * max(1, sum(isinstance(op, AsyncExecute) for op in m.body))

    def pipeline(block: tuple[Op, ...]) -> tuple[Op, ...]:
        return _pipeline_loop(block, ddr, copies, tcm_capacity)

    return replace(m, body=_per_pipeline(m.body, pipeline))


def _per_pipeline(body: tuple[Op, ...], fn) -> tuple[Op, ...]:
    """fn applied to each pipeline block: the body of every async region
    when the body forks, else the body itself."""
    if not any(isinstance(op, AsyncExecute) for op in body):
        return fn(body)
    return tuple(
        replace(op, body=fn(op.body)) if isinstance(op, AsyncExecute) else op for op in body
    )


def _pipeline_loop(
    block: tuple[Op, ...], ddr: set[str], copies: int, tcm_capacity: int
) -> tuple[Op, ...]:
    desc, reason = match_block_explain(block, ddr)
    if desc is None:
        raise PassError(f"double buffering requires the single-buffered normal form: {reason}")
    loop = desc.loop
    _require_tcm("double buffering", copies, loop, tcm_capacity)
    tile_count = loop.tile_count

    originals = [decl for _, decl in (*desc.inputs, desc.output)]

    ping = {d.id: replace(d, id=f"{d.id}_ping") for d in originals}
    pong = {d.id: replace(d, id=f"{d.id}_pong") for d in originals}

    prologue: list[Op] = []
    for d in originals:
        prologue.append(AllocTcm(ping[d.id]))
        prologue.append(AllocTcm(pong[d.id]))
    for view, decl in desc.inputs:
        first_tile = replace(view, row_scale=0)
        prologue.append(Copy(src=first_tile, dst=full_view(ping[decl.id]), anchor=ANCHOR_PREFETCH))

    out_view, out_decl = desc.output

    def arm(current: dict[str, BufferDecl], opposite: dict[str, BufferDecl]) -> tuple[Op, ...]:
        ops: list[Op] = []
        for view, decl in desc.inputs:
            next_tile = replace(view, row_base=view.row_base + view.row_scale)
            ops.append(
                Copy(
                    src=next_tile,
                    dst=full_view(opposite[decl.id]),
                    anchor=ANCHOR_PREFETCH,
                    only_if_iv_lt=tile_count - 1,
                )
            )
        ops.append(
            replace(
                desc.compute,
                inputs=tuple(full_view(current[decl.id]) for _, decl in desc.inputs),
                output=full_view(current[out_decl.id]),
                anchor=ANCHOR_COMPUTE,
            )
        )
        ops.append(
            Copy(src=full_view(current[out_decl.id]), dst=out_view, anchor=ANCHOR_STOREBACK)
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

    return (
        block[: desc.loop_index]
        + tuple(prologue)
        + (pipelined,)
        + tuple(epilogue)
        + block[desc.loop_index + 1 :]
    )


# --------------------------------------------------------------------------- #
# Double buffering stage 2: asynchronous DMA
# --------------------------------------------------------------------------- #


def db_stage2(m: TileModule) -> TileModule:
    """Replaces anchored synchronous copies with tagged DMA, pipeline by
    pipeline (see db_stage1): prefetches get distinct ping/pong tags per
    destination buffer, storebacks their own tags.  Each arm of the ping/pong
    loop waits for the current tile's inputs, issues the next tile's
    prefetch, waits for the storeback issued two tiles back from the buffer
    it is about to overwrite, then computes and stores back; final balancing
    waits follow the pipeline's loop.  Waiting before prefetching keeps the
    single FIFO channel in the order tiles are needed when several
    pipelines share it, and costs one pipeline nothing: its prefetch would
    queue behind the current tile anyway.  Tags are distinct across
    pipelines.  Rewrites anchored ops and the arms of the toggle that holds
    them."""
    next_id = itertools.count()
    return replace(m, body=_per_pipeline(m.body, lambda block: _async_dma(block, next_id)))


def _async_dma(block: tuple[Op, ...], next_id: Iterator[int]) -> tuple[Op, ...]:
    prefetch_dsts: list[str] = []
    storeback_srcs: list[str] = []
    saw_compute = False
    for _, op in walk(block):
        if isinstance(op, Copy) and op.anchor == ANCHOR_PREFETCH:
            if op.dst.base not in prefetch_dsts:
                prefetch_dsts.append(op.dst.base)
        elif isinstance(op, Copy) and op.anchor == ANCHOR_STOREBACK:
            if op.src.base not in storeback_srcs:
                storeback_srcs.append(op.src.base)
        elif op.anchor == ANCHOR_COMPUTE:
            saw_compute = True
    if not prefetch_dsts or not saw_compute:
        raise PassError(
            "async DMA stage requires a pipelined module with prefetch/compute anchors"
        )

    # PING: prefetched before the loop, at the block's top level.
    ping = {
        op.dst.base for op in block if isinstance(op, Copy) and op.anchor == ANCHOR_PREFETCH
    }
    prefetch_tag = {
        base: DmaTag(next(next_id), TagRole.PING if base in ping else TagRole.PONG)
        for base in prefetch_dsts
    }
    storeback_tag = {base: DmaTag(next(next_id), TagRole.STOREBACK) for base in storeback_srcs}

    def arm(body: tuple[Op, ...]) -> tuple[Op, ...]:
        reads = [
            v.base
            for op in body
            if isinstance(op, Compute) and op.anchor == ANCHOR_COMPUTE
            for v in op.inputs
        ]
        waits = tuple(DmaWait(prefetch_tag[base]) for base in reads if base in prefetch_tag)
        return waits + _rewrite(body, fn)

    def fn(op: Op):
        if isinstance(op, IfToggle):
            return (replace(op, then_body=arm(op.then_body), else_body=arm(op.else_body)),)
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
        if isinstance(op, Copy) and op.anchor == ANCHOR_STOREBACK:
            return (
                DmaStart(src=op.src, dst=op.dst, tag=storeback_tag[op.src.base], anchor=op.anchor),
            )
        if isinstance(op, Compute) and op.anchor == ANCHOR_COMPUTE:
            if op.output.base in storeback_tag:
                return (DmaWait(storeback_tag[op.output.base], only_if_iv_ge=2), op)
        return None

    body = _rewrite(block, fn)
    if not storeback_tag:
        return body

    # Balance the outstanding storebacks: the ping-side arm runs ceil(T/2)
    # times, the pong side floor(T/2); each needs one final wait when it ran
    # at all.
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
        executions = math.ceil(loop.tile_count / 2) if arm_rank == 0 else loop.tile_count // 2
        if executions >= 1:
            final_waits.append(DmaWait(storeback_tag[base]))
    return body[: index + 1] + tuple(final_waits) + body[index + 1 :]


# --------------------------------------------------------------------------- #
# Pipeline driver
# --------------------------------------------------------------------------- #

STAGE_INITIAL = "initial"

# Stage name -> pass call.  The lambdas look the passes up in this module's
# globals at call time, so a rebinding of a pass (for tracing) takes effect.
_STAGES: dict[str, Callable[[TileModule, PipelineSpec], TileModule]] = {
    "vectorize": lambda m, spec: vectorize(m, spec.machine.lanes),
    # vec-mt and vec-mt-db: the tiles are split as the cost model's pick
    # says and, for a fork, each thread gets a block of them to run.
    "pipeline-threads": lambda m, spec: _pipeline_threads(m, spec, choose_composition(m, spec)),
    # An unforked pick leaves fork-join lowering nothing to do.
    "pipeline-async-threads": lambda m, spec: form_async_threads(m),
    "db-stage1": lambda m, spec: db_stage1(m, spec.machine.tcm_capacity),
    "db-stage2": lambda m, spec: db_stage2(m),
}


def _pipeline_threads(m: TileModule, spec: PipelineSpec, choice: Composition | None) -> TileModule:
    """The tiles split as `choice` says, then forked by the tile fork when it
    forks; the module itself when there is no candidate."""
    if choice is None:
        return m
    m = split_tiles(m, choice.split)
    cfg = spec.machine
    return form_virtual_threads(m, cfg.threads, cfg.tcm_capacity) if choice.forks else m


# vec-mt and vec-mt-db fork in the first two stages; an unforked loop or one
# pipeline leaves the second stage nothing to do.
_RUNG_STAGES: dict[LadderRung, tuple[str, ...]] = {
    LadderRung.SCALAR: (),
    LadderRung.VEC: ("vectorize",),
    LadderRung.VEC_MT: ("pipeline-threads", "pipeline-async-threads", "vectorize"),
    LadderRung.VEC_MT_DB: (
        "pipeline-threads",
        "pipeline-async-threads",
        "db-stage1",
        "db-stage2",
        "vectorize",
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
        current = _STAGES[name](current, spec)
        stages.append((name, current))
    return stages


def run_pipeline(m: TileModule, spec: PipelineSpec) -> TileModule:
    """Applies the rung's pass pipeline; the scalar rung is the identity."""
    return run_pipeline_stages(m, spec)[-1][1]
