"""Rewrite passes over tile modules and the rung-keyed pipeline driver.

Six transformations: vectorize, retile (the loop's tiles split or merged by
rows), form_virtual_threads (the tile fork: a structured parallel loop),
form_async_threads (fork-join lowering), and the two double-buffering stages
(structural pipelining, then asynchronous DMA).  The driver runs them as the
named stages of _STAGES, `vectorize`, `pipeline-threads` (retile and the
tile fork, as choose_composition picks), `pipeline-async-threads`,
`db-stage1` and `db-stage2`, in the order _RUNG_STAGES gives each rung.
Every pass takes a module and returns a new one, or its input when it has
nothing to do; inputs are never mutated.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .ir import (
    AddToGroup,
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    DmaStart,
    DmaWait,
    Expr,
    FlipToggle,
    Forall,
    ForTiles,
    IfToggle,
    Op,
    TileModule,
    ViewRef,
    full_view,
    op_regions,
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
    the largest multiple plus a scalar epilogue over the remainder.  The
    split is by rows, so it raises PassError (`cannot split epilogue`)
    unless the vector body ends on a row boundary of every view; ROADMAP
    item 1 holds the fix."""
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


def _contiguous_tiles(operands: tuple[Operand, ...], rows: int) -> bool:
    """Whether every operand is a contiguous whole-row tile of `rows` rows:
    its DDR view the rows and columns of its buffer, one tile after another."""
    return all(
        v.row_scale == v.row_count == d.rows == rows and v.col_count == d.cols
        for v, d in operands
    )


def retile(m: TileModule, rows: int) -> TileModule:
    """The normal-form loop over tiles of `rows` whole rows: the loop's rows,
    its tiles times the rows of one, dealt out `rows` at a time, each body
    rebuilt by normal_form_tile with views and buffers of that many rows.
    Fewer rows than the kernel's tile split it, more merge consecutive tiles;
    a peeled tail tile is untouched.  `rows` must divide the loop's rows and
    every DDR view must be a contiguous whole-row tile (see
    _contiguous_tiles).  The rows of the kernel's tile return the module."""
    desc, reason = match_block_explain(m.body, {d.id for d in m.buffers})
    if desc is None:
        raise PassError(f"re-tiling requires the single-buffered normal form: {reason}")
    tile_rows = desc.output[1].rows
    loop_rows = desc.loop.tile_count * tile_rows
    if rows < 1 or loop_rows % rows:
        raise PassError(f"cannot re-tile {loop_rows} loop rows into tiles of {rows} rows")
    if rows == tile_rows:
        return m
    if not _contiguous_tiles((*desc.inputs, desc.output), tile_rows):
        raise PassError(
            f"cannot re-tile into {rows}-row tiles: a view is not a contiguous whole-row tile"
        )

    def resize(operand: Operand) -> Operand:
        view, decl = operand
        return replace(view, row_scale=rows, row_count=rows), replace(decl, rows=rows)

    body = normal_form_tile(
        tuple(resize(op) for op in desc.inputs),
        resize(desc.output),
        desc.compute.expr,
        desc.compute.vector_factor,
    )
    loop = ForTiles(desc.loop.iv, loop_rows // rows, body)
    index = desc.loop_index
    return replace(m, body=m.body[:index] + (loop,) + m.body[index + 1 :])


@dataclass(frozen=True, slots=True)
class Composition:
    """One vec-mt or vec-mt-db candidate and its cost: the loop re-tiled into
    tiles of `rows` rows (see retile; the kernel's tile rows keep its tiles),
    then run by one loop or one pipeline over them all (`forks` 0), or
    forked so each thread runs a block of them through its own loop or
    pipeline (`forks` 1: one fork/join per run)."""

    rows: int
    cycles: int
    forks: int


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


def _tilings(desc: NormalFormDescriptor, cfg: MachineConfig, merges: bool) -> Iterator[tuple]:
    """(rows, n, input transfer cycles, compute cycles, output transfer
    cycles) of one tile for each tiling the loop may be re-tiled into, most
    rows first: the kernel's own tile, and tiles of every whole number of
    rows that divides its rows or, with `merges`, the loop's rows.  Each
    of those is a contiguous whole-row tile (see _contiguous_tiles) with no
    scalar epilogue (see _gets_epilogue); n is the tiles of the loop."""
    compute, (_, out) = desc.compute, desc.output
    tile_rows, cols = out.rows, out.cols
    loop_rows = desc.loop.tile_count * tile_rows
    per_element = ops_per_element(compute.expr)
    contiguous = _contiguous_tiles((*desc.inputs, desc.output), tile_rows)
    family = loop_rows if merges else tile_rows
    for rows in range(family, 0, -1):
        if family % rows or (
            rows != tile_rows and (not contiguous or _gets_epilogue(rows * cols, cfg.lanes))
        ):
            continue
        x_ins = tuple(transfer_cycles(cfg, d.nbytes * rows // tile_rows) for _, d in desc.inputs)
        x_out = transfer_cycles(cfg, out.nbytes * rows // tile_rows)
        c = _vectorized_cycles(cfg, rows * cols, per_element, cfg.lanes)
        yield rows, loop_rows // rows, x_ins, c, x_out


def compositions(m: TileModule, spec: PipelineSpec) -> tuple[Composition, ...]:
    """The vec-mt or vec-mt-db candidates of an untransformed module, each
    priced from the normal-form loop and the machine's cost forms; no pass
    runs.  The loop is re-tiled as _tilings allows: vec-mt-db splits the
    kernel's tiles by rows, and vec-mt also merges them.  With Xin and Xout
    one tile's input and output transfer cycles, C its compute, n the tiles
    of the loop, T the threads and F(n, x, c) the end of a fork over n units
    of c cycles whose regions each first load x (see _forked_cycles):

    vec-mt offers the unforked loop over the kernel's tiles, N*(Xin + C +
    Xout), so a fork that cannot pay is declined; and, where the tile fork
    forks the kernel's N tiles, per-thread loops over each tiling that
    leaves at least min(T, N) tiles and whose min(T, n) copies of the loop
    body fit the scratchpad, their copies replayed on the channel (see
    _forked_loops_cycles) plus the join.  Fewer, larger tiles pay the
    transfer start-up fewer times.  A fork whose lower bound exceeds the
    price of a candidate before it is priced at that bound, which no replay
    can beat:

        per-thread loop  max(F(n, 0, Xin + C + Xout), fork + n*(Xin + Xout)) + join

    vec-mt-db offers one pipeline where its ping/pong copies of the loop
    body fit the scratchpad, and per-thread pipelines where the tile fork
    forks the split tiles and 2 * min(T, n) copies fit:

        one pipeline  max(Xin + n*C + Xout, n*(Xin + Xout), n*Xin + (n-1)*Xout + C)
        per-thread    max(F(n, Xin, C) + Xout, fork + n*(Xin + Xout)) + join

    The last term of one pipeline is the channel moving every input and all
    outputs but the last before the last tile computes.  A module outside
    the normal form has no candidates."""
    desc = match_normal_form(m)
    if desc is None:
        return ()
    cfg, threads = spec.machine, spec.machine.threads
    out_view, out = desc.output
    forkable = abs(out_view.row_scale) >= out_view.row_count  # output tiles do not overlap
    body_bytes = _loop_body_bytes(desc.loop)

    def fits(copies: int, rows: int) -> bool:
        return copies * body_bytes * rows // out.rows <= cfg.tcm_capacity

    if spec.rung is not LadderRung.VEC_MT_DB:
        tilings = list(_tilings(desc, cfg, merges=True))
        _, tiles, x_ins, c, x_out = next(t for t in tilings if t[0] == out.rows)
        best = tiles * (sum(x_ins) + c + x_out)
        candidates = [Composition(out.rows, best, 0)]
        if not forkable or _declines_fork(tiles, out_view.elems, threads):
            return tuple(candidates)
        for rows, n, x_ins, c, x_out in tilings:
            if n < min(threads, tiles) or not fits(min(threads, n), rows):
                continue
            x_in = sum(x_ins)
            unit = x_in + c + x_out
            cycles = max(_forked_cycles(cfg, n, threads, 0, unit), cfg.fork_cost + n * (x_in + x_out))
            cycles += cfg.join_cost
            if cycles <= best:  # else the lower bound already loses: no replay
                cycles = _forked_loops_cycles(cfg, n, threads, x_ins, c, x_out) + cfg.join_cost
                best = min(best, cycles)
            candidates.append(Composition(rows, cycles, 1))
        return tuple(candidates)

    candidates = []
    for rows, n, x_ins, c, x_out in _tilings(desc, cfg, merges=False):
        x_in = sum(x_ins)
        if fits(2, rows):
            cycles = max(x_in + n * c + x_out, n * (x_in + x_out), n * x_in + (n - 1) * x_out + c)
            candidates.append(Composition(rows, cycles, 0))
        if (
            forkable
            and not _declines_fork(n, out_view.elems * rows // out.rows, threads)
            and fits(2 * min(threads, n), rows)
        ):
            last = _forked_cycles(cfg, n, threads, x_in, c) + x_out
            cycles = max(last, cfg.fork_cost + n * (x_in + x_out)) + cfg.join_cost
            candidates.append(Composition(rows, cycles, 1))
    return tuple(candidates)


def choose_composition(m: TileModule, spec: PipelineSpec) -> Composition | None:
    """The cheapest candidate of the rung (see compositions); a tie goes to
    fewer fork/joins, then to more rows per tile, which moves fewer
    transfers.  None when there is no candidate: outside the normal form,
    or at vec-mt-db where none fits the scratchpad."""
    candidates = compositions(m, spec)
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.cycles, c.forks, -c.rows))


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
        ops.append(AsyncExecute(token, (ForTiles(f"{forall.iv}{t}", len(tiles), body),)))
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
# Double buffering: one ping/pong pipeline, with copies (stage 1) then DMA (stage 2)
# --------------------------------------------------------------------------- #


def db_stage1(m: TileModule, tcm_capacity: int = MachineConfig().tcm_capacity) -> TileModule:
    """Rebuilds each single-buffered loop into its ping/pong pipeline with
    synchronous copies (see _ping_pong).  A forked module pipelines the loop
    of every async region, each over its own block of tiles; otherwise the
    module body holds the one loop.  The ping and pong copies of every
    pipeline's loop body are live at once and must fit `tcm_capacity`
    together."""
    ddr = {d.id for d in m.buffers}
    copies = 2 * max(1, sum(isinstance(op, AsyncExecute) for op in m.body))

    def pipeline(block: tuple[Op, ...]) -> tuple[Op, ...]:
        desc, reason = match_block_explain(block, ddr)
        if desc is None:
            raise PassError(f"double buffering requires the single-buffered normal form: {reason}")
        _require_tcm("double buffering", copies, desc.loop, tcm_capacity)
        return block[: desc.loop_index] + _ping_pong(desc) + block[desc.loop_index + 1 :]

    return replace(m, body=_per_pipeline(m.body, pipeline))


def db_stage2(m: TileModule) -> TileModule:
    """Rebuilds each db_stage1 pipeline with tagged DMA in place of its
    copies (see _ping_pong).  The operands are read off the ping arm and the
    prologue's ping allocs, and the pipeline is accepted only if db_stage1
    builds it exactly from them; otherwise PassError names the first op that
    differs.  Tags are distinct across pipelines."""
    next_tag = 0

    def pipeline(block: tuple[Op, ...]) -> tuple[Op, ...]:
        nonlocal next_tag
        desc = _read_pipeline(block)
        sync = _ping_pong(desc)
        loop_at = next(i for i, op in enumerate(sync) if isinstance(op, ForTiles))
        start = max(0, desc.loop_index - loop_at)
        end = start + len(sync)
        if block[start:end] != sync:
            where = _first_difference(block, block[:start] + sync + block[end:])
            raise PassError(f"async DMA stage: {where} differs from db_stage1's pipeline")
        first_tag, next_tag = next_tag, next_tag + 2 * (len(desc.inputs) + 1)
        return block[:start] + _ping_pong(desc, first_tag) + block[end:]

    return replace(m, body=_per_pipeline(m.body, pipeline))


def _per_pipeline(body: tuple[Op, ...], fn) -> tuple[Op, ...]:
    """fn applied to each pipeline block: the body of every async region
    when the body forks, else the body itself."""
    if not any(isinstance(op, AsyncExecute) for op in body):
        return fn(body)
    return tuple(
        AsyncExecute(op.token, fn(op.body)) if isinstance(op, AsyncExecute) else op
        for op in body
    )


def _ping_pong(desc: NormalFormDescriptor, first_tag: int | None = None) -> tuple[Op, ...]:
    """The ping/pong pipeline that replaces a normal-form loop in its block.
    A prologue allocates a ping and a pong copy of every buffer and
    prefetches the first tile into ping; each arm of the toggled loop
    prefetches the next tile into the opposite buffers, computes on the
    current ones and stores back; an epilogue frees the buffers.

    With `first_tag` every copy is a DMA start, its tags numbered from
    first_tag per input's ping buffer, per input's pong buffer, then for the
    ping and the pong storeback.  Each arm waits for its current tile's
    inputs before it prefetches: that keeps the one FIFO channel in the order
    tiles are needed when pipelines share it, and costs one pipeline nothing.
    It then waits for the storeback issued two tiles back from the buffer it
    overwrites.  After the loop, each arm that ran waits for its last
    storeback: the ping arm runs ceil(T/2) times, the pong arm floor(T/2).

    The ops are immutable, so a pipeline is built once and shared by every
    later call with equal operands (see _pipeline): db_stage2 gets back the
    very ops db_stage1 built, so its exact-match check finds them identical
    without walking them."""
    loop, compute = desc.loop, desc.compute
    return _pipeline(
        loop.iv,
        loop.tile_count,
        desc.inputs,
        desc.output,
        compute.expr,
        compute.vector_factor,
        first_tag,
    )


# The pipelines of the last few modules: both stages of one module, and the
# same module compiled again, hit; a memo of every pipeline a design grid
# builds would hold megabytes of ops.
@functools.lru_cache(maxsize=64)
def _pipeline(
    iv: str,
    tiles: int,
    inputs: tuple[Operand, ...],
    output: Operand,
    expr: Expr,
    vector_factor: int,
    first_tag: int | None,
) -> tuple[Op, ...]:
    """_ping_pong's pipeline, from the fields of the descriptor it reads."""
    decls = [decl for _, decl in (*inputs, output)]
    ping = {d.id: BufferDecl(f"{d.id}_ping", d.space, d.rows, d.cols) for d in decls}
    pong = {d.id: BufferDecl(f"{d.id}_pong", d.space, d.rows, d.cols) for d in decls}
    whole = {b.id: full_view(b) for b in (*ping.values(), *pong.values())}
    out_view, out = output
    following = [
        ViewRef(v.base, v.row_scale, v.row_base + v.row_scale, v.row_count, v.col_count)
        for v, _ in inputs
    ]
    # TCM buffer id -> tag of the DMA that fills or drains it; empty for copies.
    tag: dict[str, int] = {}
    if first_tag is not None:
        moved = [buffers[d.id] for buffers in (ping, pong) for _, d in inputs]
        tags = itertools.count(first_tag)
        tag = {b.id: next(tags) for b in (*moved, ping[out.id], pong[out.id])}

    def move(src: ViewRef, dst: ViewRef, only_if_iv_lt: int | None = None) -> Op:
        if not tag:
            return Copy(src, dst, only_if_iv_lt)
        tcm = dst.base if dst.base in tag else src.base
        return DmaStart(src, dst, tag[tcm], only_if_iv_lt)

    def arm(current: dict[str, BufferDecl], opposite: dict[str, BufferDecl]) -> tuple[Op, ...]:
        reads = tuple(whole[current[d.id].id] for _, d in inputs)
        result = whole[current[out.id].id]
        ops: list[Op] = [DmaWait(tag[v.base]) for v in reads if tag]
        for view, (_, d) in zip(following, inputs):
            ops.append(move(view, whole[opposite[d.id].id], tiles - 1))
        if tag:
            ops.append(DmaWait(tag[result.base], only_if_iv_ge=2))
        ops.append(Compute(reads, result, expr, vector_factor))
        ops.append(move(result, out_view))
        return tuple(ops)

    ops: list[Op] = [AllocTcm(buffers[d.id]) for d in decls for buffers in (ping, pong)]
    for v, d in inputs:
        first = ViewRef(v.base, 0, v.row_base, v.row_count, v.col_count)
        ops.append(move(first, whole[ping[d.id].id]))
    body = (IfToggle(arm(ping, pong), arm(pong, ping)), FlipToggle())
    ops.append(ForTiles(iv, tiles, body, toggle_init=True))
    runs = ((ping, (tiles + 1) // 2), (pong, tiles // 2))
    ops.extend(DmaWait(tag[buffers[out.id].id]) for buffers, n in runs if n and tag)
    ops.extend(DeallocTcm(buffers[d.id].id) for d in decls for buffers in (ping, pong))
    return tuple(ops)


def _read_pipeline(block: tuple[Op, ...]) -> NormalFormDescriptor:
    """The normal-form loop db_stage1 would have built the block's pipeline
    from, at the position of the toggled loop: the operands read off its
    ping arm and the prologue's ping allocs."""
    loops = [
        i for i, op in enumerate(block) if isinstance(op, ForTiles) and op.toggle_init is not None
    ]
    if len(loops) != 1:
        raise PassError(f"async DMA stage requires one toggled loop, found {len(loops)}")
    index, loop = loops[0], block[loops[0]]
    toggle = loop.body[0] if loop.body else None
    arm = toggle.then_body if isinstance(toggle, IfToggle) else ()
    prefetches, (compute, storeback) = arm[:-2], (None, None, *arm)[-2:]
    shaped = isinstance(compute, Compute) and isinstance(storeback, Copy)
    if not shaped or not all(isinstance(op, Copy) for op in prefetches):
        raise PassError("async DMA stage: the ping arm is not prefetches, compute and storeback")
    allocs = {op.decl.id: op.decl for op in block[:index] if isinstance(op, AllocTcm)}

    def unping(base: str) -> BufferDecl:
        if base not in allocs:
            raise PassError(f"async DMA stage: no alloc of @{base} before the pipelined loop")
        d = allocs[base]
        return BufferDecl(d.id.removesuffix("_ping"), d.space, d.rows, d.cols)

    inputs = []
    for s, read in zip((p.src for p in prefetches), compute.inputs):  # s: the next tile
        view = ViewRef(s.base, s.row_scale, s.row_base - s.row_scale, s.row_count, s.col_count)
        inputs.append((view, unping(read.base)))
    output = (storeback.dst, unping(compute.output.base))
    return NormalFormDescriptor(loop, index, tuple(inputs), compute, output)


def _first_difference(got: tuple[Op, ...], want: tuple[Op, ...]) -> str:
    """Where `got` first differs from `want`, as a walk position and op kind:
    the first differing op with no regions or of another kind, else the
    first differing op."""
    pairs = itertools.zip_longest(walk(got), walk(want), fillvalue=(None, None))
    diffs = [(path or where, op, ref) for (path, op), (where, ref) in pairs if op != ref]
    leaves = (d for d in diffs if type(d[1]) is not type(d[2]) or not op_regions(d[1]))
    path, op, _ = next(leaves, diffs[0])
    return f"{path} ({type(op).__name__ if op is not None else 'end of block'})"


# --------------------------------------------------------------------------- #
# Pipeline driver
# --------------------------------------------------------------------------- #

STAGE_INITIAL = "initial"

# Stage name -> pass call.  The lambdas look the passes up in this module's
# globals at call time, so a rebinding of a pass (for tracing) takes effect.
_STAGES: dict[str, Callable[[TileModule, PipelineSpec], TileModule]] = {
    "vectorize": lambda m, spec: vectorize(m, spec.machine.lanes),
    # vec-mt and vec-mt-db: the loop is re-tiled as the cost model's pick
    # says and, for a fork, each thread gets a block of its tiles to run.
    "pipeline-threads": lambda m, spec: _pipeline_threads(m, spec, choose_composition(m, spec)),
    # An unforked pick leaves fork-join lowering nothing to do.
    "pipeline-async-threads": lambda m, spec: form_async_threads(m),
    "db-stage1": lambda m, spec: db_stage1(m, spec.machine.tcm_capacity),
    "db-stage2": lambda m, spec: db_stage2(m),
}


def _pipeline_threads(m: TileModule, spec: PipelineSpec, choice: Composition | None) -> TileModule:
    """The loop re-tiled as `choice` says, then forked by the tile fork when
    it forks; the module itself when there is no candidate."""
    if choice is None:
        return m
    m = retile(m, choice.rows)
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
