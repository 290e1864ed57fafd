"""Deterministic discrete-event timed simulator of the modeled NPU.

Architecture: one control context runs the module top level, `threads`
worker contexts execute fork-join regions, and a single transfer channel
serves synchronous copies and asynchronous DMA in FIFO order.  A context is
a walk over a block of the lowered schedule; an async step spawns a new
context over its sub-schedule.  The engine advances a single event heap
keyed by (time, creation sequence), so identical inputs replay identically,
bit for bit.

Costs: a transfer is dma_startup + ceil(bytes / dma_bandwidth) channel
cycles; a synchronous copy additionally blocks its context for the whole
queueing + transfer window; compute over E elements at vector factor v is
ceil(E / v) * ops_per_element unit cycles; fork_cost is charged on the
dispatching context per region and join_cost at every await-all barrier.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .ir import TileModule
from .lower import ArrayStore, HazardTracker, Ivs, Schedule, Step, lower, walk
from .machine import MachineConfig, TimingReport, compute_cycles, cycles_to_us, transfer_cycles


class SimulationError(RuntimeError):
    pass


class DeadlockError(SimulationError):
    pass


class _Ctx:
    __slots__ = ("name", "gen", "toggles", "worker", "block_start")

    def __init__(self, name: str, body: tuple[Step, ...], ivs: Ivs, toggles: list[bool]):
        self.name = name
        self.toggles = toggles  # the walk's live toggle stack, copied at each spawn
        self.gen: Iterator[tuple[Step, Ivs]] = walk(body, ivs, toggles, inline=False)
        self.worker: "_Worker | None" = None
        self.block_start = 0


class _Worker:
    __slots__ = ("idle", "region_start", "busy")

    def __init__(self):
        self.idle = True
        self.region_start = 0
        self.busy = 0


@dataclass
class _Token:
    done: bool = False
    group: str | None = None


@dataclass
class _Group:
    members: set[str] = field(default_factory=set)
    waiter: _Ctx | None = None


class _Engine:
    def __init__(
        self, m: TileModule | Schedule, inputs: dict[str, np.ndarray], cfg: MachineConfig
    ):
        sched = lower(m)
        self.cfg = cfg
        self.store = ArrayStore(sched, inputs)
        self.hazards = HazardTracker(SimulationError)
        self.heap: list[tuple[int, int, Callable[[int], None]]] = []
        self.seq = itertools.count()
        self.t_max = 0
        # One shared transfer channel, FIFO by request time.
        self.channel_free_at = 0
        self.dma_busy = 0
        self.tag_waiters: dict[int, list[_Ctx]] = {}
        self.workers = [_Worker() for _ in range(cfg.threads)]
        self.pending_regions: deque[_Ctx] = deque()
        self.tokens: dict[str, _Token] = {}
        self.groups: dict[str, _Group] = {}
        self.compute_busy = 0
        self.overhead = 0
        self.stall = 0
        self.main = _Ctx("control", sched.body, (), [])
        self.main_done = False

    # -- event heap ------------------------------------------------------- #

    def push(self, t: int, fn: Callable[[int], None]) -> None:
        heapq.heappush(self.heap, (t, next(self.seq), fn))

    def wake(self, ctx: _Ctx, t: int) -> None:
        self.push(t, lambda t2: self.resume(ctx, t2))

    def run(self) -> None:
        self.wake(self.main, 0)
        while self.heap:
            t, _, fn = heapq.heappop(self.heap)
            self.t_max = max(self.t_max, t)
            fn(t)
        if not self.main_done or any(not tok.done for tok in self.tokens.values()):
            blocked = [name for name, tok in self.tokens.items() if not tok.done]
            raise DeadlockError(
                "simulation deadlocked: no runnable context and the program is"
                f" incomplete (control done={self.main_done}, stuck regions={blocked})"
            )

    # -- transfer channel --------------------------------------------------- #

    def _channel_request(self, t: int, nbytes: int) -> int:
        cost = transfer_cycles(self.cfg, nbytes)
        start = max(t, self.channel_free_at)
        done = start + cost
        self.channel_free_at = done
        self.dma_busy += cost
        return done

    def _complete(self, entry: tuple, t: int, issuer: _Ctx | None = None) -> None:
        """Ends a transfer; a synchronous copy's issuer resumes right away."""
        self.hazards.entries.remove(entry)
        tag = entry[0]
        if issuer is not None:
            self.resume(issuer, t)
        elif not self.hazards.pending(tag):
            for ctx in self.tag_waiters.pop(tag, []):
                self.stall += t - ctx.block_start
                self.wake(ctx, t)

    # -- context scheduling -------------------------------------------------- #

    def resume(self, ctx: _Ctx, t: int) -> None:
        cfg, store, hazards = self.cfg, self.store, self.hazards
        for step, ivs in ctx.gen:
            kind = step.kind
            if kind == "compute":
                store.compute(step, ivs, hazards, t)
                cost = compute_cycles(cfg, step.elems, step.ops_per_element, step.vector_factor)
                self.compute_busy += cost
                self.wake(ctx, t + cost)
                return
            if kind == "transfer":
                src, dst = store.transfer(step, ivs, hazards, t)
                done = self._channel_request(t, step.nbytes)
                entry = (step.tag, src, dst, done)
                hazards.entries.append(entry)
                if step.tag is None:  # a synchronous copy blocks its context
                    self.stall += done - t
                    self.push(done, lambda t2: self._complete(entry, t2, ctx))
                    return
                self.push(done, lambda t2, e=entry: self._complete(e, t2))
            elif kind == "wait":
                tag = step.op.tag
                if hazards.pending(tag):
                    ctx.block_start = t
                    self.tag_waiters.setdefault(tag, []).append(ctx)
                    return
            elif kind == "alloc":
                store.alloc(step.op)
            elif kind == "dealloc":
                store.dealloc(step.op)
            elif kind == "async":
                region = _Ctx(step.op.token, step.body, ivs, list(ctx.toggles))
                self.overhead += cfg.fork_cost
                self.push(t + cfg.fork_cost, lambda t2: self._spawn(ctx, region, t2))
                return
            elif kind == "add_to_group":
                op = step.op
                tok = self.tokens.get(op.token)
                if tok is None:
                    raise SimulationError(f"add_to_group of unknown token %{op.token}")
                tok.group = op.group
                self.groups.setdefault(op.group, _Group()).members.add(op.token)
            elif kind == "await":
                g = self.groups.setdefault(step.op.group, _Group())
                if self._group_done(g):
                    self._join(ctx, t)
                else:
                    g.waiter = ctx
                return
        self._ctx_done(ctx, t)

    def _spawn(self, parent: _Ctx, region: _Ctx, t: int) -> None:
        self.tokens[region.name] = _Token()
        self._dispatch(region, t)
        self.resume(parent, t)

    def _join(self, ctx: _Ctx, t: int) -> None:
        self.overhead += self.cfg.join_cost
        self.wake(ctx, t + self.cfg.join_cost)

    def _group_done(self, g: _Group) -> bool:
        return all(self.tokens[t].done for t in g.members)

    def _dispatch(self, ctx: _Ctx, t: int) -> None:
        for w in self.workers:
            if w.idle:
                self._start_region(w, ctx, t)
                return
        self.pending_regions.append(ctx)

    def _start_region(self, w: _Worker, ctx: _Ctx, t: int) -> None:
        w.idle = False
        w.region_start = t
        ctx.worker = w
        self.wake(ctx, t)

    def _ctx_done(self, ctx: _Ctx, t: int) -> None:
        if ctx is self.main:
            self.main_done = True
            return
        w = ctx.worker
        w.busy += t - w.region_start
        tok = self.tokens[ctx.name]
        tok.done = True
        if tok.group is not None:
            g = self.groups[tok.group]
            if g.waiter is not None and self._group_done(g):
                waiter, g.waiter = g.waiter, None
                self.push(t, lambda t2: self._join(waiter, t2))
        if self.pending_regions:
            self._start_region(w, self.pending_regions.popleft(), t)
        else:
            w.idle = True


def simulate_timed(
    m: TileModule | Schedule, inputs: dict[str, np.ndarray], cfg: MachineConfig
) -> tuple[dict[str, np.ndarray], TimingReport]:
    """Runs the module (or its schedule) on the timed machine model; returns
    the written DDR buffers (bit-identical to the functional interpreter for
    hazard-free modules) and the latency report."""
    engine = _Engine(m, inputs, cfg)
    engine.run()
    report = TimingReport(
        total_cycles=engine.t_max,
        total_us=cycles_to_us(engine.t_max, cfg),
        compute_busy_cycles=engine.compute_busy,
        dma_busy_cycles=engine.dma_busy,
        stall_cycles=engine.stall,
        overhead_cycles=engine.overhead,
        per_thread_busy=tuple(w.busy for w in engine.workers),
    )
    return engine.store.outputs(), report
