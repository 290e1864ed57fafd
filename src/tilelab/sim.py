"""Deterministic discrete-event timed simulator of the modeled NPU.

Architecture: one control context runs the module top level, `threads`
worker contexts execute fork-join regions, and a single transfer channel
serves synchronous copies and asynchronous DMA in FIFO order.  A context is
a walk over a block of the lowered schedule; an async step forks a new
context over its sub-schedule.  `timing.Core`, the same event core that
prices the cost model's candidates, times the walks; each step's data moves
under the hazard checks at the cycle the core reaches it, so identical
inputs run identically, bit for bit.

Costs: a transfer is dma_startup + ceil(bytes / dma_bandwidth) channel
cycles; a synchronous copy additionally blocks its context for the whole
queueing + transfer window; compute over E elements at vector factor v is
ceil(E / v) * ops_per_element unit cycles; fork_cost is charged on the
dispatching context per region and join_cost at every await-all barrier.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .ir import TileModule
from .lower import ArrayStore, HazardTracker, Ivs, Schedule, Step, lower, walk
from .machine import MachineConfig, TimingReport, compute_cycles, transfer_cycles
from .timing import AWAIT, BUSY, COPY, DMA, FORK, WAIT, Core, DeadlockError, SimulationError

__all__ = ["DeadlockError", "SimulationError", "simulate_timed"]


def _context(
    core: Core, store: ArrayStore, hazards: HazardTracker, block: tuple[Step, ...], ivs: Ivs
) -> Iterator[tuple]:
    """The core's steps of one context's walk over `block`.  A transfer
    enters the hazards at issue with the cycle it will end, and entries
    that have ended are dropped as the next one enters."""
    cfg = core.cfg
    for step, ivs in walk(block, ivs, inline=False):
        kind = step.kind
        if kind == "compute":
            store.compute(step, ivs, hazards, core.now)
            cost = compute_cycles(cfg, step.elems, step.ops_per_element, step.vector_factor)
            yield BUSY, cost, None
        elif kind == "transfer":
            now = core.now
            src, dst = store.transfer(step, ivs, hazards, now)
            cost = transfer_cycles(cfg, step.nbytes)
            hazards.entries = [e for e in hazards.entries if e[3] > now]
            hazards.entries.append((step.tag, src, dst, max(now, core.channel) + cost))
            yield (COPY if step.tag is None else DMA), cost, step.tag
        elif kind == "wait":
            yield WAIT, 0, step.op.tag
        elif kind == "alloc":
            store.alloc(step.op)
        elif kind == "dealloc":
            store.dealloc(step.op)
        elif kind == "async":
            region = _context(core, store, hazards, step.body, ivs)
            yield FORK, cfg.fork_cost, (step.op.group, region)
        elif kind == "await":
            yield AWAIT, 0, step.op.group


def simulate_timed(
    m: TileModule | Schedule, inputs: dict[str, np.ndarray], cfg: MachineConfig
) -> tuple[dict[str, np.ndarray], TimingReport]:
    """Runs the module (or its schedule) on the timed machine model; returns
    the written DDR buffers (bit-identical to the functional interpreter for
    hazard-free modules) and the latency report."""
    sched = lower(m)
    store = ArrayStore(sched, inputs)
    core = Core(cfg)
    core.run(_context(core, store, HazardTracker(SimulationError), sched.body, ()))
    return store.outputs(), core.report()
