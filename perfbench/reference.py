"""Fixed reference work that gauges how fast the host is right now.

run.py starts this script as a child process and times rounds of it
after every timed pass of a workload.  Pass times divided by reference
times do not move when the whole host speeds up or slows down, which on a
shared machine it does by tens of percent from minute to minute.

The round never imports tilelab and never changes, so a change to tilelab
cannot move it.  It mixes the three kinds of host work a tilelab pass does:
an event loop over Python generators (the simulator and interpreter),
many numpy operations on small tiles (per-tile execution), and a few
large fresh arrays through `scipy.special.erf` (kernel inputs and the
GELU reference).

Protocol: every line read from standard input runs one round; the round's
seconds are written back as one line.  The script ends at end of input.
"""

from __future__ import annotations

import heapq
import sys
import time

import numpy as np
from scipy import special

TILE = 1024
TILES = 640
LARGE = 1 << 20


def _worker(index: int, tiles: list[np.ndarray], out: list[np.ndarray]):
    for k in range(index, len(tiles), 4):
        x = tiles[k]
        y = x * x
        y = y * x
        y = y * 0.044715 + x
        y = np.tanh(y * 0.7978845608)
        y = (y + 1.0) * x
        out[k] = y * 0.5
        yield 3 + (k & 7)


def _event_loop(tiles: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = [None] * len(tiles)  # type: ignore[list-item]
    queue = [(0, i, _worker(i, tiles, out)) for i in range(4)]
    heapq.heapify(queue)
    while queue:
        t, i, gen = heapq.heappop(queue)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        heapq.heappush(queue, (t + delay, i, gen))
    return out


def one_round(rng: np.random.Generator) -> float:
    start = time.perf_counter()
    tiles = [rng.standard_normal(TILE, dtype=np.float32) for _ in range(TILES)]
    small = _event_loop(tiles)
    for _ in range(6):
        x = rng.standard_normal(LARGE)
        y = 0.5 * x * (1.0 + special.erf(x / np.sqrt(2.0)))
        if not np.isfinite(y).all() or len(small) != TILES:
            raise RuntimeError("reference round produced a wrong result")
    return time.perf_counter() - start


def main() -> int:
    rng = np.random.default_rng(0)
    for _ in sys.stdin:
        print(repr(one_round(rng)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
