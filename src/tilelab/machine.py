"""Machine model of the simulated edge NPU: timing parameters, cost forms,
kernel statistics, and the analytic latency floor.

All timing parameters live in one flat MachineConfig so a run is fully
described by (kernel spec, rung, machine config, seed).  The defaults are
calibration knobs for the bundled benchmarks, not measurements of any
physical device.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from decimal import Decimal, ROUND_HALF_EVEN
from enum import Enum
from pathlib import Path
from typing import Mapping

from .ir import Compute, ForTiles, TileModule, expr_node_count, walk_module
from .lower import lower, walk


class LadderRung(str, Enum):
    SCALAR = "scalar"
    VEC = "vec"
    VEC_MT = "vec-mt"
    VEC_MT_DB = "vec-mt-db"


RUNG_ORDER = (LadderRung.SCALAR, LadderRung.VEC, LadderRung.VEC_MT, LadderRung.VEC_MT_DB)

_CONFIG_FIELDS = (
    "lanes",
    "threads",
    "scalar_unit_cost",
    "vector_unit_cost",
    "dma_bandwidth",
    "dma_startup",
    "fork_cost",
    "join_cost",
    "tcm_capacity",
    "clock_hz",
)


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Timing parameters of the simulated NPU.

    lanes              vector width used by the vectorizer
    threads            hardware worker contexts available to fork-join regions
    scalar_unit_cost   cycles per element-op at vector_factor 1
    vector_unit_cost   cycles per lanes-wide op
    dma_bandwidth      bytes per cycle moved by the (single) transfer channel
    dma_startup        fixed cycles per transfer
    fork_cost          cycles charged to the dispatching context per region
    join_cost          cycles charged at an await-all barrier
    tcm_capacity       scratchpad bytes available to simultaneously-live tiles
    clock_hz           cycles per second, for microsecond reporting
    """

    lanes: int = 32
    threads: int = 4
    scalar_unit_cost: int = 1
    vector_unit_cost: int = 1
    dma_bandwidth: int = 512
    dma_startup: int = 64
    fork_cost: int = 100
    join_cost: int = 200
    tcm_capacity: int = 8_388_608
    clock_hz: float = 1e9

    def __post_init__(self) -> None:
        for name in _CONFIG_FIELDS:
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"machine config field {name} must be positive, got {value}")

    @property
    def digest(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_json_dict(self) -> dict:
        return asdict(self)


def machine_config_from_dict(data: Mapping) -> MachineConfig:
    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"unknown machine config keys: {', '.join(unknown)}")
    return MachineConfig(**data)


def load_machine_config(path: str | Path) -> MachineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("machine config must be a flat JSON object")
    return machine_config_from_dict(data)


# --------------------------------------------------------------------------- #
# Cost forms
# --------------------------------------------------------------------------- #


def transfer_cycles(cfg: MachineConfig, nbytes: int) -> int:
    """Cost of one transfer on the channel: startup plus bandwidth share."""
    return cfg.dma_startup + math.ceil(nbytes / cfg.dma_bandwidth)


def compute_cycles(cfg: MachineConfig, elems: int, ops_per_element: int, vector_factor: int) -> int:
    unit = cfg.scalar_unit_cost if vector_factor == 1 else cfg.vector_unit_cost
    return math.ceil(elems / vector_factor) * ops_per_element * unit


def cycles_to_us(cycles: int, cfg: MachineConfig) -> float:
    """Cycles to microseconds, round-half-even at 3 decimal places."""
    us = Decimal(cycles) / Decimal(repr(cfg.clock_hz)) * Decimal(10) ** 6
    return float(us.quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN))


# --------------------------------------------------------------------------- #
# Kernel statistics and the analytic floor
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class KernelStats:
    total_elements: int
    ops_per_element: int  # expression nodes (input loads included) + the store
    bytes_in: int
    bytes_out: int
    tile_count: int
    n_transfers: int


def collect_stats(m: TileModule) -> KernelStats:
    """Derive kernel statistics from an untransformed (single-buffered) module.

    The transfer count is the number of dynamically executed copies, which is
    invariant across the rung pipelines (double buffering re-times transfers
    but does not change how many tiles move).
    """
    sched = lower(m)
    written = set(sched.written)
    bytes_out = sum(d.nbytes for d in m.buffers if d.id in written)
    bytes_in = sum(d.nbytes for d in m.buffers if d.id not in written)
    total_elements = sum(d.elems for d in m.buffers if d.id in written)

    ops_per_element = 0
    for _, op in walk_module(m):
        if isinstance(op, Compute):
            ops_per_element = expr_node_count(op.expr) + 1
            break

    tile_count = 0
    for op in m.body:
        if isinstance(op, ForTiles):
            tile_count += op.tile_count
        elif isinstance(op, Compute):
            tile_count += 1  # peeled tail tile

    n_transfers = sum(1 for step, _ in walk(sched.body) if step.kind == "transfer")
    return KernelStats(
        total_elements=total_elements,
        ops_per_element=ops_per_element,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        tile_count=tile_count,
        n_transfers=n_transfers,
    )


def latency_lower_bound(stats: KernelStats, cfg: MachineConfig, rung: LadderRung) -> int:
    """Certified floor on simulated latency: max of the transfer-channel time
    and the per-context compute time at the rung's vector factor."""
    t_dma = stats.n_transfers * cfg.dma_startup + math.ceil(
        (stats.bytes_in + stats.bytes_out) / cfg.dma_bandwidth
    )
    vector_factor = 1 if rung == LadderRung.SCALAR else cfg.lanes
    t_compute = compute_cycles(cfg, stats.total_elements, stats.ops_per_element, vector_factor)
    if rung in (LadderRung.VEC_MT, LadderRung.VEC_MT_DB):
        t_compute = math.ceil(t_compute / min(cfg.threads, max(stats.tile_count, 1)))
    return max(t_dma, t_compute)


# --------------------------------------------------------------------------- #
# Timing report
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class TimingReport:
    """Latency and phase breakdown of one timed simulation.

    compute_busy counts Compute cycles on any context; dma_busy counts busy
    cycles of the single transfer channel; stall counts cycles contexts spend
    blocked on data movement (synchronous copies and DMA waits); overhead
    counts the fixed fork/join charges.  per_thread_busy is wall occupancy of
    each worker context (dispatch to region completion); the control context
    that runs sequential code is not a worker.
    """

    total_cycles: int
    total_us: float
    compute_busy_cycles: int
    dma_busy_cycles: int
    stall_cycles: int
    overhead_cycles: int
    per_thread_busy: tuple[int, ...]
