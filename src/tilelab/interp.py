"""Functional interpreter: the correctness oracle for every transformed module.

Executes the lowered schedule in program order with async regions run inline
in creation order.  Expressions are evaluated in double precision and
rounded to f32 per store.  Reading a region whose pending DMA has not been
awaited is a hard error, as is overwriting the source or destination of an
in-flight transfer, so incorrectly scheduled pipelines fail loudly instead of
producing stale data.
"""

from __future__ import annotations

import numpy as np

from .ir import TileModule
from .lower import ArrayStore, HazardTracker, InterpError, lower, walk

__all__ = ["InterpError", "interpret_functional"]


def interpret_functional(
    m: TileModule, inputs: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Runs the module on named input arrays and returns the written DDR
    buffers.  Data moves at transfer issue; waits only clear the hazard."""
    sched = lower(m)
    store = ArrayStore(sched, inputs)
    hazards = HazardTracker(InterpError)
    for step, ivs in walk(sched.body):
        kind = step.kind
        if kind == "compute":
            store.compute(step, ivs, hazards)
        elif kind == "transfer":
            src, dst = store.transfer(step, ivs, hazards)
            if step.tag is not None:
                hazards.entries.append((step.tag, src, dst, None))
        elif kind == "wait":
            hazards.clear(step.op.tag.id)
        elif kind == "alloc":
            store.alloc(step.op)
        elif kind == "dealloc":
            store.dealloc(step.op)
    return store.outputs()
