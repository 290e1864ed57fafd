"""The event core that times both the simulator and the cost model.

A context is an iterator of (kind, cycles, arg) steps, drawn one at a time
at the cycle the core reaches it:

    BUSY   runs for `cycles` (a compute); an `arg` that is not None is a
           certified lower bound on the cycles the run still needs after the
           step ends, so the run stops at once where it cannot end below
           the cutoff (see Core.run);
    COPY   queues `cycles` on the channel and blocks until the transfer ends;
    DMA    queues `cycles` on the channel under tag `arg` and goes on;
    WAIT   blocks until no DMA tagged `arg` is in flight;
    FORK   charges `cycles`, then starts region arg = (group, steps) on the
           lowest-numbered idle worker, or queues it for the next one free;
           the region counts as live in `group` until it ends;
    AWAIT  blocks until group `arg` has no live region, then charges join_cost.

One control context starts at cycle 0; `threads` workers run the forked
regions.  The one transfer channel serves copies and DMA in FIFO order by
request.  Events run in (time, order scheduled), so identical inputs time
identically, bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Iterator

from .machine import MachineConfig, TimingReport, cycles_to_us

BUSY, COPY, DMA, WAIT, FORK, AWAIT = range(6)
# What an event does: resume a context, end the DMA of a tag, start a forked
# region (and resume its parent at once), or join an awaited group.
_RESUME, _LANDED, _FORKED, _JOINED = range(4)


class SimulationError(RuntimeError):
    pass


class DeadlockError(SimulationError):
    pass


class _Context:
    __slots__ = ("steps", "group", "worker", "since")

    def __init__(self, steps: Iterator[tuple], group=None):
        self.steps = steps
        self.group = group  # the group a forked region is live in
        self.worker = 0
        self.since = 0  # the cycle a wait began


class Core:
    """One timed run.  `now` is the cycle of the event being run and
    `channel` the cycle the transfer channel frees up, so a step's source
    can see when the transfer it is about to request will end."""

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.now = self.channel = 0
        self.heap: list[tuple] = []
        self.order = itertools.count()
        self.started: list = [None] * cfg.threads  # a worker's region began; None: idle
        self.busy = [0] * cfg.threads
        self.queued: deque[_Context] = deque()
        self.live: dict = {}  # group -> its forked regions that have not ended
        self.awaiting: dict = {}  # group -> the context awaiting it
        self.compute_busy = self.dma_busy = self.stall = self.overhead = 0
        self.control: _Context | None = None  # None once the control context ends

    def _push(self, t: int, what: int, arg) -> None:
        heapq.heappush(self.heap, (t, next(self.order), what, arg))

    def run(self, control: Iterator[tuple], cutoff: float = float("inf")) -> int:
        """The cycle the last event runs at.  Events come in time order, so
        the run stops at the first at or after `cutoff` and returns its
        time, which the end is not below.  It also stops where a BUSY step
        ending at e carries a bound b with e + b >= cutoff, and returns
        e + b: the end is not below that either (a branch-and-bound cut, as
        Land and Doig's).  Either way a cut run returns a value in
        [cutoff, the end]."""
        heap, order, push, pop = self.heap, self.order, heapq.heappush, heapq.heappop
        in_flight, waiters, join = {}, {}, self.cfg.join_cost  # in_flight: DMA tag -> count
        compute = dma = stall = overhead = t = 0
        self.control = _Context(control)
        push(heap, (0, next(order), _RESUME, self.control))
        while heap:
            t, _, what, ctx = pop(heap)
            if t >= cutoff:
                break
            self.now = t
            if what == _LANDED:  # `ctx` is the tag
                left = in_flight[ctx] = in_flight[ctx] - 1
                if not left:
                    for waiter in waiters.pop(ctx, ()):
                        stall += t - waiter.since
                        push(heap, (t, next(order), _RESUME, waiter))
                continue
            if what:
                if what == _JOINED:
                    overhead += join
                    push(heap, (t + join, next(order), _RESUME, ctx))
                    continue
                ctx, region = ctx  # _FORKED
                self._fork(region)
            for kind, cycles, arg in ctx.steps:
                if kind == BUSY:
                    compute += cycles
                    if arg is not None and t + cycles + arg >= cutoff:
                        heap.clear()
                        t += cycles + arg
                        break
                    push(heap, (t + cycles, next(order), _RESUME, ctx))
                    break
                if kind == COPY or kind == DMA:
                    channel = self.channel
                    end = self.channel = (channel if channel > t else t) + cycles
                    dma += cycles
                    if kind == COPY:
                        stall += end - t
                        push(heap, (end, next(order), _RESUME, ctx))
                        break
                    in_flight[arg] = in_flight.get(arg, 0) + 1
                    push(heap, (end, next(order), _LANDED, arg))
                elif kind == WAIT:
                    if in_flight.get(arg):
                        ctx.since = t
                        waiters.setdefault(arg, []).append(ctx)
                        break
                elif kind == FORK:
                    overhead += cycles
                    region = _Context(arg[1], arg[0])
                    push(heap, (t + cycles, next(order), _FORKED, (ctx, region)))
                    break
                else:  # AWAIT
                    if not self.live.get(arg):
                        overhead += join
                        push(heap, (t + join, next(order), _RESUME, ctx))
                    else:
                        self.awaiting[arg] = ctx
                    break
            else:
                self._finish(ctx)
        self.compute_busy, self.dma_busy, self.stall, self.overhead = compute, dma, stall, overhead
        if t >= cutoff:
            return t
        stuck = [group for group, regions in self.live.items() if regions]
        if self.control is not None or stuck:
            raise DeadlockError(
                "simulation deadlocked: no runnable context and the program is"
                f" incomplete (control done={self.control is None}, groups still live={stuck})"
            )
        return t

    def report(self) -> TimingReport:
        return TimingReport(
            self.now, cycles_to_us(self.now, self.cfg), self.compute_busy, self.dma_busy,
            self.stall, self.overhead, tuple(self.busy),
        )

    def _fork(self, region: _Context) -> None:
        """A fork lands: the region is live in its group and starts on the
        lowest-numbered idle worker, or queues for the next one free."""
        self.live[region.group] = self.live.get(region.group, 0) + 1
        for w, since in enumerate(self.started):
            if since is None:
                self._start(w, region)
                return
        self.queued.append(region)

    def _start(self, w: int, region: _Context) -> None:
        self.started[w] = self.now
        region.worker = w
        self._push(self.now, _RESUME, region)

    def _finish(self, ctx: _Context) -> None:
        if ctx is self.control:
            self.control = None
            return
        w = ctx.worker
        self.busy[w] += self.now - self.started[w]
        group = ctx.group
        self.live[group] -= 1
        if not self.live[group] and group in self.awaiting:
            self._push(self.now, _JOINED, self.awaiting.pop(group))
        if self.queued:
            self._start(w, self.queued.popleft())
        else:
            self.started[w] = None
