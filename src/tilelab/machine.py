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
import sys
from dataclasses import asdict, dataclass, fields
from decimal import Decimal, ROUND_HALF_EVEN
from enum import Enum
from pathlib import Path
from typing import Mapping

from .ir import Compute, ForTiles, TileModule, ops_per_element, walk_module
from .lower import Schedule, lower, walk


class LadderRung(str, Enum):
    SCALAR = "scalar"
    VEC = "vec"
    VEC_MT = "vec-mt"
    VEC_MT_DB = "vec-mt-db"


RUNG_ORDER = (LadderRung.SCALAR, LadderRung.VEC, LadderRung.VEC_MT, LadderRung.VEC_MT_DB)


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
        for name in [f.name for f in fields(self)]:
            value = getattr(self, name)
            if name == "clock_hz":
                # An int past the float range is not finite once converted.
                ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
                kind = "a finite number"
            else:
                ok = isinstance(value, int)
                kind = "an integer"
            if not ok or isinstance(value, bool):
                raise ValueError(f"machine config field {name} must be {kind}, got {value!r}")
            if value <= 0:
                raise ValueError(f"machine config field {name} must be positive, got {value}")
        # One spelling per clock, so equal configs share a digest and JSON form.
        object.__setattr__(self, "clock_hz", float(self.clock_hz))

    @property
    def digest(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_json_dict(self) -> dict:
        return asdict(self)


def machine_config_from_dict(data: Mapping) -> MachineConfig:
    unknown = sorted(set(data) - {f.name for f in fields(MachineConfig)})
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
    tile_rows: int  # rows of the kernel's tile, before any re-tiling
    n_transfers: int


def collect_stats(m: TileModule, sched: Schedule | None = None) -> KernelStats:
    """Derive kernel statistics from an untransformed (single-buffered) module.

    The transfer count is the number of dynamically executed transfers of
    `sched`, the lowered schedule of a rung's transformed module, or of m's
    own schedule without one.  It is not invariant across the rung
    pipelines: double buffering only re-times transfers, but a rung that
    re-tiles the loop moves the same bytes in more or fewer of them.  Every
    other field describes m.
    """
    if sched is None:
        sched = lower(m)
    written = set(sched.written)
    bytes_out = sum(d.nbytes for d in m.buffers if d.id in written)
    bytes_in = sum(d.nbytes for d in m.buffers if d.id not in written)
    total_elements = sum(d.elems for d in m.buffers if d.id in written)

    per_element = tile_rows = 0
    for _, op in walk_module(m):
        if isinstance(op, Compute):
            per_element = ops_per_element(op.expr)
            tile_rows = op.output.row_count
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
        ops_per_element=per_element,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        tile_count=tile_count,
        tile_rows=tile_rows,
        n_transfers=n_transfers,
    )


def latency_lower_bound(stats: KernelStats, cfg: MachineConfig, rung: LadderRung) -> int:
    """Certified floor on simulated latency: max of the transfer-channel time
    and the per-context compute time at the rung's vector factor.  Every
    transfer the stats count pays the start-up on the one channel, so stats
    that count a rung's own schedule (see collect_stats) keep the floor
    certified when the rung re-tiles the loop.  Vector rungs run computes
    smaller than one vector, and epilogues, scalar, so where a vector op
    costs more than a scalar one each element is charged the cheaper of the
    two units.  vec-mt and vec-mt-db give each thread a block of tiles,
    which may be split by rows, to loop or pipeline over, so their compute
    splits over at most min(threads, tiles x rows of a resident tile)
    contexts."""
    t_dma = stats.n_transfers * cfg.dma_startup + math.ceil(
        (stats.bytes_in + stats.bytes_out) / cfg.dma_bandwidth
    )
    elems, per_element = stats.total_elements, stats.ops_per_element
    if rung == LadderRung.SCALAR:
        t_compute = compute_cycles(cfg, elems, per_element, 1)
    elif cfg.vector_unit_cost > cfg.scalar_unit_cost:
        vector = math.ceil(elems * cfg.vector_unit_cost / cfg.lanes)
        t_compute = per_element * min(elems * cfg.scalar_unit_cost, vector)
    else:
        t_compute = compute_cycles(cfg, elems, per_element, cfg.lanes)
    if rung in (LadderRung.VEC_MT, LadderRung.VEC_MT_DB):
        parallel = max(stats.tile_count * stats.tile_rows, 1)
        t_compute = math.ceil(t_compute / min(cfg.threads, parallel))
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
