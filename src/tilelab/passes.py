"""Rewrite passes over tile modules and the rung-keyed pipeline driver.

Six transformations: vectorize, retile (the loop's tiles split or merged
by rows), form_virtual_threads (the tile fork: a structured parallel loop
that carries each thread's tile rows), form_async_threads (fork-join
lowering: each thread's loop over its own block, in its own tiles), and the
two double-buffering stages (structural pipelining, then asynchronous DMA).
The driver runs them as the named stages of _STAGES, `vectorize`,
`pipeline-threads` (retile and the tile fork, as the plan choose_composition
makes says: one search that prices both multi-threaded rungs' candidates by
timing their steps on the simulator's own event core, see timing.Core, and
then each forked thread's tile rows), `pipeline-async-threads`, `db-stage1`
and `db-stage2`, in the order _RUNG_STAGES gives each rung.  Every pass
takes a module and returns a new one, or its input when it has nothing to
do; inputs are never mutated.  Passes build loops rather than patch them:
every loop a pass emits is built by normal_form_tile (re-tiling, fork-join
lowering, see _tile_loop) or _pipeline (double buffering) from the operands
of a matched normal-form loop, and the cost model prices the computes
vectorize makes by the same rule, _vector_parts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from .ir import (
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    DmaStart,
    DmaWait,
    ELEM_DTYPE,
    Expr,
    Forall,
    ForTiles,
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
from .timing import AWAIT, BUSY, COPY, DMA, FORK, WAIT, Core


class PassError(ValueError):
    """A pass precondition does not hold for the given module."""


# Fewer parallel tiles than this leave nothing to fork: both MT rungs count
# the re-tiled tiles, split or merged.  A one-thread machine declines every
# fork; any other fork that cannot pay is declined by its price.
MT_MIN_TILES = 2


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
            regions = op_regions(op)
            inner = {name: _rewrite(region, fn) for name, region in regions}
            same = all(inner[name] is region for name, region in regions)
            repl = (op,) if same else (replace(op, **inner),)
        changed = changed or len(repl) != 1 or repl[0] is not op
        out.extend(repl)
    return tuple(out) if changed else body


def _rewrite_module(m: TileModule, fn) -> TileModule:
    """_rewrite over the module body: the module itself when nothing changed."""
    body = _rewrite(m.body, fn)
    return m if body is m.body else replace(m, body=body)


def _loop_body_bytes(loop: ForTiles) -> int:
    """TCM bytes one iteration of a tile loop allocates: what each copy of
    the loop body that is live at the same time needs."""
    return sum(op.decl.nbytes for op in loop.body if isinstance(op, AllocTcm))


def _require_tcm(what: str, copies: int, need: int, tcm_capacity: int) -> None:
    """Raises PassError unless `need` bytes, the live copies of the loop
    bodies together, fit the scratchpad."""
    if need > tcm_capacity:
        raise PassError(
            f"{what} needs {need} bytes of tcm for {copies} live copies of the loop body"
            f" > capacity {tcm_capacity}"
        )


# --------------------------------------------------------------------------- #
# Vectorize
# --------------------------------------------------------------------------- #


def vectorize(m: TileModule, lanes: int) -> TileModule:
    """Splits every compute region into the parts of _vector_parts: at
    vector factor `lanes`, a region whose element count is not a multiple of
    lanes becomes a vector body over the largest multiple plus a scalar
    epilogue over the remainder.  The split is by rows, so it raises
    PassError (`cannot split epilogue`) unless the vector body ends on a row
    boundary of every view; ROADMAP item 1 holds the fix."""
    if lanes < 1:
        raise PassError(f"lanes must be >= 1, got {lanes}")

    def fn(op: Op):
        if not isinstance(op, Compute):
            return None
        if op.vector_factor != 1:
            raise PassError("module already vectorized: found compute with vector_factor != 1")
        return _vectorize_compute(op, lanes)

    return _rewrite_module(m, fn)


def _vector_parts(elems: int, lanes: int) -> tuple[tuple[int, int], ...]:
    """(elements, vector factor) of each compute vectorize makes of one over
    `elems` elements, in order: one scalar part with one lane or below one
    vector, else the largest multiple of lanes at `lanes` and any remainder
    as a scalar epilogue.  The cost model prices these parts (see _tilings
    and _tail_cycles)."""
    if lanes == 1 or elems < lanes:
        return ((elems, 1),)
    rest = elems % lanes
    return ((elems - rest, lanes), (rest, 1)) if rest else ((elems, lanes),)


def _vectorize_compute(op: Compute, lanes: int) -> tuple[Op, ...]:
    parts = _vector_parts(op.output.elems, lanes)
    if len(parts) == 1:
        factor = parts[0][1]
        return (op,) if factor == 1 else (replace(op, vector_factor=factor),)
    (main, factor), (_, scalar) = parts
    for view in (*op.inputs, op.output):
        if main % view.col_count:
            raise PassError(
                f"cannot split epilogue: {main} elements is not a whole number"
                f" of rows of @{view.base} ({view.col_count} cols)"
            )

    def head(view: ViewRef) -> ViewRef:
        return replace(view, row_count=main // view.col_count)

    def tail(view: ViewRef) -> ViewRef:
        rows = main // view.col_count
        return replace(view, row_base=view.row_base + rows, row_count=view.row_count - rows)

    return tuple(
        replace(op, inputs=tuple(map(part, op.inputs)), output=part(op.output), vector_factor=f)
        for part, f in ((head, factor), (tail, scalar))
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


def form_virtual_threads(
    m: TileModule,
    threads: int | tuple[int, ...],
    tcm_capacity: int = MachineConfig().tcm_capacity,
) -> TileModule:
    """Rewrites the normal-form loop into an explicitly parallel forall
    unless the fork is declined (see _declines_fork), which returns the
    module unchanged.  `threads` is each thread's tile rows, one entry per
    thread, or a thread count: that many threads, at most one per tile, each
    at the loop's own tile rows.  Each thread runs its block of the loop's
    tiles (see partition_tiles) in tiles of its own rows (see
    form_async_threads); the threads' copies of their loop bodies are live
    at once and must fit `tcm_capacity` together.  Run before double
    buffering, each thread later pipelines its own block.  Only the
    single-buffered normal form forks: any other module, a ping/pong loop
    among them, raises PassError with the reason it does not match."""
    if isinstance(threads, int) and threads < 1:
        raise PassError(f"threads must be >= 1, got {threads}")
    desc, reason = match_block_explain(m.body, {d.id for d in m.buffers})
    if desc is None:
        raise PassError(f"the tile fork requires the single-buffered normal form: {reason}")
    loop, tile_rows = desc.loop, desc.output[1].rows
    if isinstance(threads, int):
        threads = (tile_rows,) * min(threads, loop.tile_count)
    if _declines_fork(loop.tile_count, len(threads)):
        return m
    view = desc.output[0]
    if abs(view.row_scale) < view.row_count:
        raise PassError(
            f"cross-thread dependence: output view of @{view.base} overlaps"
            f" across iterations (stride {view.row_scale} < {view.row_count} rows)"
        )
    need = sum(_loop_body_bytes(loop) * rows // tile_rows for rows in threads)
    _require_tcm("the tile fork", len(threads), need, tcm_capacity)

    forall = Forall(loop.iv, loop.tile_count, threads, loop.body)
    index = desc.loop_index
    return replace(m, body=m.body[:index] + (forall,) + m.body[index + 1 :])


def _declines_fork(tiles: int, threads: int) -> bool:
    """Whether a loop of `tiles` tiles is not forked at all: one thread, or
    fewer than MT_MIN_TILES tiles.  Both MT rungs price every other fork
    (see compositions)."""
    return threads < 2 or tiles < MT_MIN_TILES


def _contiguous_tiles(operands: tuple[Operand, ...], rows: int) -> bool:
    """Whether every operand is a contiguous whole-row tile of `rows` rows:
    its DDR view the rows and columns of its buffer, one tile after another."""
    return all(
        v.row_scale == v.row_count == d.rows == rows and v.col_count == d.cols
        for v, d in operands
    )


def retile(m: TileModule, rows: int) -> TileModule:
    """The module with its normal-form loop re-tiled into tiles of `rows`
    whole rows (see _tile_loop): fewer rows than the loop's tile split it,
    more merge consecutive tiles; a peeled tail tile is untouched.  The rows
    of the kernel's tile return the module."""
    desc, reason = match_block_explain(m.body, {d.id for d in m.buffers})
    if desc is None:
        raise PassError(f"re-tiling requires the single-buffered normal form: {reason}")
    if rows == desc.output[1].rows:
        return m
    loop = _tile_loop(desc, range(desc.loop.tile_count), rows, desc.loop.iv)
    index = desc.loop_index
    return replace(m, body=m.body[:index] + (loop,) + m.body[index + 1 :])


def _tile_loop(
    desc: NormalFormDescriptor, tiles: Sequence[int], rows: int, iv: str, suffix: str = "",
    who: str = "",
) -> ForTiles:
    """A loop `iv` over the rows of the matched loop's consecutive `tiles`,
    in tiles of `rows` whole rows: each body rebuilt by normal_form_tile
    from the loop's operands, each DDR view shifted to the first tile's rows
    and each TCM buffer renamed with `suffix`, both resized to `rows` when
    that is not the loop's tile rows.  `rows` must divide the tiles' rows
    and, to resize, every DDR view must be a contiguous whole-row tile (see
    _contiguous_tiles); otherwise PassError, its message led by `who`."""
    tile_rows = desc.output[1].rows
    loop_rows = len(tiles) * tile_rows
    if rows < 1 or loop_rows % rows:
        raise PassError(f"{who}cannot re-tile {loop_rows} loop rows into tiles of {rows} rows")
    resize = rows != tile_rows
    if resize and not _contiguous_tiles((*desc.inputs, desc.output), tile_rows):
        raise PassError(
            f"{who}cannot re-tile into {rows}-row tiles: a view is not a contiguous whole-row tile"
        )

    def own(operand: Operand) -> Operand:
        view, decl = operand
        view = replace(view, row_base=view.row_scale * tiles[0] + view.row_base)
        decl = replace(decl, id=decl.id + suffix)
        if resize:
            return replace(view, row_scale=rows, row_count=rows), replace(decl, rows=rows)
        return view, decl

    ins, out = tuple(own(op) for op in desc.inputs), own(desc.output)
    body = normal_form_tile(ins, out, desc.compute.expr, desc.compute.vector_factor)
    return ForTiles(iv, loop_rows // rows, body)


@dataclass(frozen=True, slots=True)
class Composition:
    """One vec-mt or vec-mt-db plan and its cost: the loop re-tiled into
    tiles of `rows` rows (see retile; the kernel's tile rows keep its tiles),
    then run by one loop or one pipeline over them all (`threads` empty), or
    forked so each thread runs a block of them (see partition_tiles) through
    its own loop or pipeline, thread t in tiles of threads[t] rows (one
    fork/join per run).  `cycles` are those the simulator runs or, when not
    `exact`, a lower bound on them that already exceeds another candidate's
    (see compositions)."""

    rows: int
    cycles: int
    threads: tuple[int, ...] = ()
    exact: bool = True

    @property
    def forks(self) -> int:
        """Fork/joins per run: 1 for a forked plan, else 0."""
        return 1 if self.threads else 0


def _steps(
    db: bool, n: int, x_ins: tuple, cs: tuple, x_out: int, region: int, join: int
) -> Iterator:
    """The event core's steps of one loop over n tiles (see normal_form_tile)
    or, with `db`, of _ping_pong's pipeline with DMA and tags (region, k):
    arm i waits for its inputs, prefetches tile i + 1, waits for the
    storeback of tile i - 2, computes and stores back; each arm that ran
    waits for its last storeback.  Each compute carries a certified lower
    bound on the cycles the run still needs after it (see timing.Core.run):
    the context's remaining computes and, for a loop, its own remaining
    synchronous copies, or, for a pipeline, only its final storeback, plus
    `join`, the join a forked region's end still waits for; the tail is
    left out."""
    per_tile = sum(cs) + (0 if db else sum(x_ins) + x_out)  # a later tile's share
    after = [sum(cs[k + 1 :]) + x_out + join for k in range(len(cs))]
    rest = n * per_tile
    if not db:
        ins, out = [(COPY, x, None) for x in x_ins], (COPY, x_out, None)
        for _ in range(n):
            rest -= per_tile
            yield from ins
            for c, a in zip(cs, after):
                yield BUSY, c, rest + a
            yield out
        return
    k = len(x_ins)
    loads = [[(DMA, x, (region, 2 * j + p)) for j, x in enumerate(x_ins)] for p in (0, 1)]
    waits = [[(WAIT, 0, (region, 2 * j + p)) for j in range(k)] for p in (0, 1)]
    stored = [(WAIT, 0, (region, 2 * k + p)) for p in (0, 1)]
    stores = [(DMA, x_out, (region, 2 * k + p)) for p in (0, 1)]
    yield from loads[0]
    for i in range(n):
        p = i % 2
        rest -= per_tile
        yield from waits[p]
        if i < n - 1:
            yield from loads[1 - p]
        if i >= 2:
            yield stored[p]
        for c, a in zip(cs, after):
            yield BUSY, c, rest + a
        yield stores[p]
    yield from stored[: min(n, 2)]


def _tilings(desc: NormalFormDescriptor, cfg: MachineConfig) -> Iterator[tuple]:
    """(rows, n, input transfer, compute and output transfer cycles) of one
    tile of each tiling the loop may be re-tiled into, most rows first: every
    whole number of rows that divides the loop's rows, each a contiguous
    whole-row tile (see _contiguous_tiles) whose compute vectorize leaves
    one part (see _vector_parts), and the kernel's own tile unless vectorize
    refuses its compute; n is the tiles of the loop, and the compute cycles
    are those of the parts."""
    compute, (_, out) = desc.compute, desc.output
    tile_rows, cols = out.rows, out.cols
    loop_rows = desc.loop.tile_count * tile_rows
    per_element = ops_per_element(compute.expr)
    contiguous = _contiguous_tiles((*desc.inputs, desc.output), tile_rows)
    for rows in range(loop_rows, 0, -1):
        if loop_rows % rows:
            continue
        parts = _vector_parts(rows * cols, cfg.lanes)
        # The kernel's own tile is refused where its vector part ends mid-row.
        if (parts[0][0] % cols) if rows == tile_rows else (not contiguous or len(parts) > 1):
            continue
        x_ins = tuple(transfer_cycles(cfg, d.nbytes * rows // tile_rows) for _, d in desc.inputs)
        x_out = transfer_cycles(cfg, out.nbytes * rows // tile_rows)
        cs = tuple(compute_cycles(cfg, e, per_element, v) for e, v in parts)
        yield rows, loop_rows // rows, x_ins, cs, x_out


def _tail_cycles(cfg: MachineConfig, ops: tuple[Op, ...]) -> int:
    """Cycles of the copies and computes among `ops`, one after another on an
    idle channel: the peeled tail, which the control context runs alone
    outside the loop or the fork."""
    tail = 0
    for op in ops:
        if isinstance(op, Copy):
            tail += transfer_cycles(cfg, op.src.elems * ELEM_DTYPE.itemsize)
        elif isinstance(op, Compute):
            per_element = ops_per_element(op.expr)
            parts = _vector_parts(op.output.elems, cfg.lanes)
            tail += sum(compute_cycles(cfg, e, per_element, v) for e, v in parts)
    return tail


def _bound(cfg: MachineConfig, db: bool, regions: tuple, forks: int) -> int:
    """A certified lower bound on the cycles of `regions`, (n, input
    transfer, compute and output transfer cycles of one tile) per loop or
    pipeline in fork order, without the tail.  With Xin, C and Xout one
    tile's input transfers, computes and output transfer, region j (from 0)
    of n tiles is forked (j + 1) * fork in (no fork: one region, fork = join
    = 0), and the bound is
        max(latest region end, fork + sum of n*(Xin + Xout)) + join, where
        region end = (j + 1)*fork + n*(Xin + C + Xout) for a loop, and
                     (j + 1)*fork + Xin + n*C + Xout for a pipeline."""
    fork, join = (cfg.fork_cost, cfg.join_cost) if forks else (0, 0)
    latest = channel = 0
    for j, (n, x_ins, cs, x_out) in enumerate(regions):
        x_in, c = sum(x_ins), sum(cs)
        end = x_in + n * c + x_out if db else n * (x_in + c + x_out)
        latest = max(latest, (j + 1) * fork + end)
        channel += n * (x_in + x_out)
    return max(latest, fork + channel) + join


def _price(
    cfg: MachineConfig, db: bool, regions: tuple, forks: int, cutoff: float = float("inf")
) -> int:
    """The cycles the simulator runs `regions` in (as _bound reads them),
    without the tail: one loop or pipeline in the control context, or each
    forked in order into one group and then awaited, timed by the
    simulator's own event core (see timing.Core.run, which may stop at
    `cutoff` and then returns a value from cutoff up to the cycles)."""
    join = cfg.join_cost if forks else 0
    steps = [_steps(db, *region, j, join) for j, region in enumerate(regions)]
    if not forks:
        return Core(cfg).run(steps[0], cutoff)
    forked = [(FORK, cfg.fork_cost, (0, region)) for region in steps]
    return Core(cfg).run(iter([*forked, (AWAIT, 0, 0)]), cutoff)


def compositions(m: TileModule, spec: PipelineSpec) -> tuple[Composition, ...]:
    """The vec-mt or vec-mt-db candidates of an untransformed module over the
    tilings of _tilings, in order; no pass runs.  Over each tiling of n
    tiles both rungs offer one loop (vec-mt) or one pipeline (vec-mt-db), so
    a fork that cannot pay is declined by its price, and, unless the tile
    fork declines n tiles (see _declines_fork), per-thread loops or
    pipelines over them.  Each is offered where its live copies of the loop
    body fit the scratchpad: one per loop and two per pipeline, of which a
    fork over T threads runs min(T, n).

    A price is the candidate's steps timed by the simulator's event core
    (see _price), plus the peeled tail (see _tail_cycles).  Candidates are
    timed in order of a certified lower bound (see _bound); one whose bound
    exceeds the cheapest price so far is priced at its bound."""
    desc = match_normal_form(m)
    if desc is None:
        return ()
    cfg, threads = spec.machine, spec.machine.threads
    db = spec.rung is LadderRung.VEC_MT_DB
    out_view, out = desc.output
    body_bytes = _loop_body_bytes(desc.loop)
    forkable = abs(out_view.row_scale) >= out_view.row_count  # output tiles do not overlap
    tail = _tail_cycles(cfg, m.body[: desc.loop_index] + m.body[desc.loop_index + 1 :])

    offered = []  # (bound, rows, forks, regions)
    for rows, n, *tile in _tilings(desc, cfg):
        for forks, ok in ((0, True), (1, forkable and not _declines_fork(n, threads))):
            used = min(threads, n) if forks else 1
            if not ok or (1 + db) * used * body_bytes * rows // out.rows > cfg.tcm_capacity:
                continue
            regions = [(len(block), *tile) for block in partition_tiles(n, used)]
            offered.append((_bound(cfg, db, regions, forks) + tail, rows, forks, regions))

    prices, best = {}, float("inf")
    for bound, rows, forks, regions in sorted(offered, key=lambda o: o[:3]):
        threads = (rows,) * len(regions) if forks else ()
        if bound > best:
            prices[rows, forks] = Composition(rows, bound, threads, exact=False)
            continue
        cycles = _price(cfg, db, regions, forks) + tail
        prices[rows, forks] = Composition(rows, cycles, threads)
        best = min(best, cycles)
    return tuple(prices[o[1:3]] for o in offered)


def choose_composition(m: TileModule, spec: PipelineSpec) -> Composition | None:
    """The rung's plan: the cheapest candidate (see compositions), a tie
    going to fewer fork/joins, then to more rows per tile, which moves fewer
    transfers; a forked pick then with each thread's tile rows refined (see
    _refine).  None when there is no candidate: outside the normal form, or
    at vec-mt-db where none fits the scratchpad."""
    candidates = compositions(m, spec)
    if not candidates:
        return None
    pick = min(candidates, key=lambda c: (c.cycles, c.forks, -c.rows))
    return _refine(m, spec, pick) if pick.forks else pick


def _refine(m: TileModule, spec: PipelineSpec, pick: Composition) -> Composition:
    """The forked pick with each thread's tile rows, as the rung runs them:
    vec-mt as loops, vec-mt-db as the pipelines double buffering makes of
    them.  Each thread may re-tile its block of the pick's tiles (see
    partition_tiles) into any tiling of _tilings.  A coordinate descent from
    the pick visits the threads in fork order and tries every tiling of
    each.  A trial is timed (see _price, plus the tail) only where the
    threads' live loop bodies fit the scratchpad together (each thread's
    ping and pong at vec-mt-db, as db_stage1 counts them) and its bound (see
    _bound) is below the cheapest price so far; the timing stops once it
    cannot end below that price, and the trial is kept only when it is
    strictly cheaper.  Rounds repeat until one keeps nothing."""
    cfg = spec.machine
    db = spec.rung is LadderRung.VEC_MT_DB
    desc = match_normal_form(retile(m, pick.rows))
    body_bytes = (1 + db) * _loop_body_bytes(desc.loop)
    # Per thread, each tiling's rows -> (its loop as _bound reads it, TCM
    # bytes of its live loop bodies).
    options = []
    for block in partition_tiles(desc.loop.tile_count, len(pick.threads)):
        region = replace(desc, loop=replace(desc.loop, tile_count=len(block)))
        tilings = _tilings(region, cfg)
        options.append({rows: (loop, body_bytes * rows // pick.rows) for rows, *loop in tilings})
    tail = _tail_cycles(cfg, m.body[: desc.loop_index] + m.body[desc.loop_index + 1 :])
    # The cheapest candidate is never priced at its bound (see compositions).
    plan, best, kept = pick.threads, pick.cycles, True
    # A trial seen before cannot be strictly cheaper than the best price now:
    # it was refused, kept and since bettered, or it is the pick.
    seen = {plan}
    while kept:
        kept = False
        for j, opts in enumerate(options):
            for rows in opts:
                trial = (*plan[:j], rows, *plan[j + 1 :])
                if trial in seen:
                    continue
                seen.add(trial)
                loops, need = zip(*(options[t][r] for t, r in enumerate(trial)))
                if sum(need) <= cfg.tcm_capacity and _bound(cfg, db, loops, 1) + tail < best:
                    cycles = _price(cfg, db, loops, 1, best - tail) + tail
                    if cycles < best:
                        best, plan, kept = cycles, trial, True
    return replace(pick, cycles=best, threads=plan)


# --------------------------------------------------------------------------- #
# Multi-threading stage 2: fork-join lowering
# --------------------------------------------------------------------------- #


def form_async_threads(m: TileModule) -> TileModule:
    """Lowers every forall to the canonical fork-join skeleton: one async
    region per thread of the forall, running its block of tiles in tiles of
    its own rows, each naming the group that one await-all barrier joins.
    A module without a forall is returned as it is.  A forall body must be a
    single-buffered normal-form tile (see normal_form_tile), which each
    thread's loop is rebuilt from."""
    ddr = {d.id for d in m.buffers}
    counter = itertools.count()

    def fn(op: Op):
        if isinstance(op, Forall):
            return _lower_forall(op, next(counter), ddr)
        return None

    return _rewrite_module(m, fn)


def _lower_forall(forall: Forall, index: int, ddr: set[str]) -> tuple[Op, ...]:
    """One async region per thread: a loop over its block (see
    partition_tiles) in tiles of the thread's rows, whose body
    normal_form_tile builds from the forall body's operands (see
    _tile_loop), the TCM buffers renamed `_w{t}`, since the regions run
    concurrently.  PassError names a thread whose rows do not divide its
    block's rows."""
    tiles, threads = forall.tile_count, len(forall.threads)
    if not 1 <= threads <= tiles:
        raise PassError(f"a forall over {tiles} tiles needs 1 to {tiles} threads, got {threads}")
    loop = ForTiles(forall.iv, tiles, forall.body)
    desc, reason = match_block_explain((loop,), ddr)
    if desc is None:
        raise PassError(f"fork-join lowering requires the single-buffered normal form: {reason}")
    group = f"g{index}"
    ops: list[Op] = []
    blocks = partition_tiles(tiles, threads)
    for t, (block, rows) in enumerate(zip(blocks, forall.threads)):
        loop = _tile_loop(desc, block, rows, f"{forall.iv}{t}", f"_w{t}", f"forall thread {t}: ")
        ops.append(AsyncExecute(group, (loop,)))
    return (*ops, AwaitAll(group))


# --------------------------------------------------------------------------- #
# Double buffering: one ping/pong pipeline, with copies (stage 1) then DMA (stage 2)
# --------------------------------------------------------------------------- #


def db_stage1(m: TileModule, tcm_capacity: int = MachineConfig().tcm_capacity) -> TileModule:
    """Rebuilds each single-buffered loop into its ping/pong pipeline with
    synchronous copies (see _ping_pong).  A forked module pipelines the loop
    of every async region, each over its own block of tiles; otherwise the
    module body holds the one loop.  The ping and pong copies of every
    pipeline's own loop body are live at once and must fit `tcm_capacity`
    together."""
    ddr = {d.id for d in m.buffers}
    body_bytes = []

    def pipeline(block: tuple[Op, ...]) -> tuple[Op, ...]:
        desc, reason = match_block_explain(block, ddr)
        if desc is None:
            raise PassError(f"double buffering requires the single-buffered normal form: {reason}")
        body_bytes.append(_loop_body_bytes(desc.loop))
        return block[: desc.loop_index] + _ping_pong(desc) + block[desc.loop_index + 1 :]

    body = _per_pipeline(m.body, pipeline)
    _require_tcm("double buffering", 2 * len(body_bytes), 2 * sum(body_bytes), tcm_capacity)
    return replace(m, body=body)


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
        AsyncExecute(op.group, fn(op.body)) if isinstance(op, AsyncExecute) else op
        for op in body
    )


def _ping_pong(desc: NormalFormDescriptor, first_tag: int | None = None) -> tuple[Op, ...]:
    """The ping/pong pipeline that replaces a normal-form loop in its block.
    A prologue allocates a ping and a pong copy of every buffer and
    prefetches the first tile into ping; each arm of the ping/pong loop
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
    fields = (desc.inputs, desc.output, compute.expr, compute.vector_factor, first_tag)
    return _pipeline(loop.iv, loop.tile_count, *fields)


# The pipelines of the last few modules: both stages of one module, and the
# same module compiled again, hit; a memo of every pipeline a design grid
# builds would hold megabytes of ops.
@functools.lru_cache(maxsize=64)
def _pipeline(
    iv: str, tiles: int, inputs: tuple[Operand, ...], output: Operand, expr: Expr,
    vector_factor: int, first_tag: int | None,
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
    ops.append(ForTiles(iv, tiles, arm(ping, pong), arm(pong, ping)))
    runs = ((ping, (tiles + 1) // 2), (pong, tiles // 2))
    ops.extend(DmaWait(tag[buffers[out.id].id]) for buffers, n in runs if n and tag)
    ops.extend(DeallocTcm(buffers[d.id].id) for d in decls for buffers in (ping, pong))
    return tuple(ops)


def _read_pipeline(block: tuple[Op, ...]) -> NormalFormDescriptor:
    """The normal-form loop db_stage1 would have built the block's pipeline
    from, at the position of the ping/pong loop: the operands read off its
    ping arm and the prologue's ping allocs."""
    loops = [i for i, op in enumerate(block) if isinstance(op, ForTiles) and op.pong is not None]
    if len(loops) != 1:
        raise PassError(f"async DMA stage requires one ping/pong loop, found {len(loops)}")
    index, loop = loops[0], block[loops[0]]
    prefetches, (compute, storeback) = loop.body[:-2], (None, None, *loop.body)[-2:]
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
    # vec-mt and vec-mt-db: the loop is re-tiled as the cost model's plan
    # says and, for a fork, each thread gets a block of its tiles to run in
    # tiles of its own rows.
    "pipeline-threads": lambda m, spec: _pipeline_threads(m, spec, choose_composition(m, spec)),
    # An unforked plan leaves fork-join lowering nothing to do.
    "pipeline-async-threads": lambda m, spec: form_async_threads(m),
    "db-stage1": lambda m, spec: db_stage1(m, spec.machine.tcm_capacity),
    "db-stage2": lambda m, spec: db_stage2(m),
}


def _pipeline_threads(m: TileModule, spec: PipelineSpec, choice: Composition | None) -> TileModule:
    """The loop re-tiled as `choice` says, then forked by the tile fork into
    its threads' tile rows when it forks; the module itself when there is
    no candidate."""
    if choice is None:
        return m
    m = retile(m, choice.rows)
    cfg = spec.machine
    return form_virtual_threads(m, choice.threads, cfg.tcm_capacity) if choice.forks else m


# vec-mt and vec-mt-db fork in the first two stages, each thread in its own
# tiles; an unforked loop leaves the second nothing to do.  The rungs differ
# only by the two double-buffering stages.
_RUNG_STAGES: dict[LadderRung, tuple[str, ...]] = {
    LadderRung.SCALAR: (),
    LadderRung.VEC: ("vectorize",),
    LadderRung.VEC_MT: ("pipeline-threads", "pipeline-async-threads", "vectorize"),
    LadderRung.VEC_MT_DB: (
        "pipeline-threads", "pipeline-async-threads", "db-stage1", "db-stage2", "vectorize"
    ),
}


def pipeline_stage_names(rung: LadderRung) -> tuple[str, ...]:
    return _RUNG_STAGES[rung]


def run_pipeline_stages(m: TileModule, spec: PipelineSpec) -> list[tuple[str, TileModule]]:
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
