"""Benchmark harness: the ablation ladder and the size sweep.

Every rung is rebuilt from the same kernel spec, transformed, lowered once,
verified, and simulated; a report is only produced when every rung's
outputs match the scalar rung (exactly for vec-add, within 1e-6 relative for
GELU).  A rung run is one memoized call (see _run), so a check right after
a run of the same (kernel, rung, machine) reuses that run's compile, inputs
and simulation.  A run that leaves the memo unchecked, as a ladder's or a
sweep's earlier rungs do, leaves a record of its schedule and a digest of
its outputs, from which its later check needs no second compile or, when
the interpreter agrees, simulation (see functional_check).
Bundled reference numbers from a hardware measurement of the same ladder
ride along as metadata for qualitative comparison; the simulator makes no
attempt to reproduce absolute microseconds.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace
from decimal import Decimal, ROUND_HALF_EVEN

import numpy as np

from .interp import interpret_functional
from .kernels import KernelKind, KernelSpec, build_kernel, make_inputs, reference_output
from .lower import Schedule, lower
from .machine import (
    LadderRung,
    MachineConfig,
    RUNG_ORDER,
    TimingReport,
    collect_stats,
    latency_lower_bound,
)
from .passes import PipelineSpec, run_pipeline
from .sim import simulate_timed
from .verifier import verify_module

GELU_RTOL = 1e-6

HARDWARE_REFERENCE_LADDER = {
    "latency_us": {"scalar": 132479.0, "vec": 3210.0, "vec-mt": 3000.0, "vec-mt-db": 2689.0},
    "ratios": {"scalar/vec": 41.3, "vec/vec-mt": 1.07, "vec-mt/vec-mt-db": 1.12},
}

HARDWARE_REFERENCE_SWEEP_POINT = {
    "n_elements": 1_048_576,
    "single_us": 12947.0,
    "multi_us": 3313.0,
    "speedup": 3.91,
}

DEFAULT_SWEEP_SIZES = tuple(4096 * (1 << k) for k in range(9))  # 4096 .. 1,048,576


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class LadderRow:
    rung: str
    latency_us: float
    speedup_vs_scalar: float


@dataclass(frozen=True, slots=True)
class LadderReport:
    kernel: KernelSpec
    machine: MachineConfig
    rows: tuple[LadderRow, ...]
    hardware_reference: dict


@dataclass(frozen=True, slots=True)
class SweepPoint:
    n_elements: int
    single_us: float
    multi_us: float
    speedup: float


@dataclass(frozen=True, slots=True)
class SweepReport:
    kernel: KernelSpec
    machine: MachineConfig
    points: tuple[SweepPoint, ...]
    hardware_reference: dict


def round3(value: float) -> float:
    """Reporting precision: half-even at 3 decimal places."""
    return float(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN))


def outputs_match(kind: KernelKind, got: dict, want: dict) -> bool:
    """Same names and shapes, then exact equality for vec-add and GELU within
    GELU_RTOL.  The shape check keeps allclose from broadcasting.  GELU tries
    exact equality first, which accepts the same pairs as allclose alone: both
    reject NaN, and allclose accepts any array equal to its counterpart."""
    if set(got) != set(want):
        return False
    for name in want:
        if np.shape(got[name]) != np.shape(want[name]):
            return False
        if np.array_equal(got[name], want[name]):
            continue
        if kind is KernelKind.VEC_ADD_2D or not np.allclose(
            got[name], want[name], rtol=GELU_RTOL, atol=0.0
        ):
            return False
    return True


@dataclass(frozen=True, slots=True)
class RungRun:
    rung: LadderRung
    outputs: dict
    timing: TimingReport
    lower_bound: int


def _memo_last(dropped=lambda args, result: None):
    """A one-entry memo of a pure function: a call with the last call's
    arguments returns its result; any other first empties the slot, so two
    results are never live together (lru_cache evicts after).  `clear`
    empties the slot, handing what it held to `dropped`; `take` removes the
    result of some arguments from the slot and returns it, or None, without
    handing it on."""

    def decorate(fn):
        slot: dict = {}

        def clear():
            for item in slot.items():
                dropped(*item)
            slot.clear()

        @functools.wraps(fn)
        def memo(*args):
            if args not in slot:
                clear()
                slot[args] = fn(*args)
            return slot[args]

        memo.clear = clear
        memo.take = lambda *args: slot.pop(args, None)
        return memo

    return decorate


@_memo_last()
def _inputs(kernel: KernelSpec) -> dict[str, np.ndarray]:
    """The kernel's inputs, read-only, so a write raises instead of
    corrupting a later check; no op writes an input (see lower.ArrayStore)."""
    inputs = make_inputs(kernel)
    for array in inputs.values():
        array.flags.writeable = False
    return inputs


# Records of the clean runs that left _run's slot unchecked, by
# (kernel, rung, machine), oldest first and at most RECORDS: the schedule and
# the digest of the outputs, which functional_check reads in place of the
# outputs.  A ladder leaves 4 and the default sweep 18.
RECORDS = 32
_records: dict[tuple, tuple[Schedule, str]] = {}


def _digest(outputs: dict[str, np.ndarray]) -> str:
    """sha256 over the outputs' names, shapes, dtypes and bytes."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        array = np.ascontiguousarray(outputs[name])
        h.update(f"{name}|{array.shape}|{array.dtype.str}|".encode())
        h.update(array)
    return h.hexdigest()


def _record(key: tuple, ran: tuple) -> None:
    """Records a run as it leaves _run's slot, when it is clean."""
    _, sched, _, sim = ran
    if sim is None:
        return
    _records.pop(key, None)
    _records[key] = (sched, _digest(sim[0]))
    if len(_records) > RECORDS:
        del _records[next(iter(_records))]


@_memo_last(_record)
def _run(kernel: KernelSpec, rung: LadderRung, cfg: MachineConfig) -> tuple:
    """Build -> transform -> lower -> verify -> simulate, the one path of a
    rung run.  Returns the built kernel, the schedule, which the interpreter
    shares with the simulator, the verifier's diagnostics, and, when there
    are none, the simulator's outputs, read-only like the inputs, and
    timing."""
    base = build_kernel(kernel, tcm_capacity=cfg.tcm_capacity)
    sched = lower(run_pipeline(base, PipelineSpec(rung, cfg)))
    diagnostics = tuple(verify_module(sched, cfg))
    if diagnostics:
        return base, sched, diagnostics, None
    outputs, timing = simulate_timed(sched, _inputs(kernel), cfg)
    for array in outputs.values():
        array.flags.writeable = False
    return base, sched, diagnostics, (outputs, timing)


def run_rung(kernel: KernelSpec, rung: LadderRung, cfg: MachineConfig) -> RungRun:
    """Build -> transform -> lower -> verify -> simulate for one rung, and
    the floor of its schedule."""
    base, sched, diagnostics, sim = _run(kernel, rung, cfg)
    if diagnostics:
        raise BenchError(
            f"rung {rung.value}: transformed module failed verification: {diagnostics[0]}"
        )
    outputs, timing = sim
    floor = latency_lower_bound(collect_stats(base, sched), cfg, rung)
    return RungRun(rung, outputs, timing, floor)


def run_ladder(kernel: KernelSpec, cfg: MachineConfig) -> LadderReport:
    """All four rungs on one kernel, gated on functional equivalence with the
    scalar rung.  Each later rung is compared with the scalar outputs once it
    is simulated, then dropped, so two rungs' outputs are live, not four.  The
    first divergence is raised after the loop, so a later rung's failure wins."""
    scalar_outputs = diverged = None
    timings: list[TimingReport] = []
    for rung in RUNG_ORDER:
        try:
            run = run_rung(kernel, rung, cfg)
        except Exception as exc:
            raise BenchError(f"rung {rung.value} failed: {exc}") from exc
        timings.append(run.timing)
        if scalar_outputs is None:
            scalar_outputs = run.outputs
        elif diverged is None and not outputs_match(kernel.kind, run.outputs, scalar_outputs):
            diverged = rung
        del run  # else its outputs stay live through the next rung's run
    if diverged is not None:
        raise BenchError(
            f"rung {diverged.value}: outputs diverge from the scalar rung; report aborted"
        )
    scalar_us = timings[0].total_us
    rows = tuple(
        LadderRow(
            rung=rung.value,
            latency_us=timing.total_us,
            speedup_vs_scalar=round3(scalar_us / timing.total_us),
        )
        for rung, timing in zip(RUNG_ORDER, timings)
    )
    return LadderReport(kernel, cfg, rows, HARDWARE_REFERENCE_LADDER)


def run_sweep(kernel: KernelSpec, sizes: tuple[int, ...], cfg: MachineConfig) -> SweepReport:
    """Single-thread (vec) vs multi-thread (vec+mt) latency per problem size."""
    if kernel.kind is not KernelKind.GELU:
        raise BenchError("the size sweep is defined for the gelu kernel")
    if not sizes:
        raise BenchError("sweep sizes must be nonempty")
    if list(sizes) != sorted(set(sizes)):
        raise BenchError("sweep sizes must be strictly ascending")
    points = tuple(_sweep_point(replace(kernel, cols=n), cfg) for n in sizes)
    return SweepReport(kernel, cfg, points, HARDWARE_REFERENCE_SWEEP_POINT)


def _sweep_point(kernel: KernelSpec, cfg: MachineConfig) -> SweepPoint:
    """One sweep point, whose arrays die before the next point's are drawn."""
    single = run_rung(kernel, LadderRung.VEC, cfg)
    multi = run_rung(kernel, LadderRung.VEC_MT, cfg)
    if not outputs_match(kernel.kind, multi.outputs, single.outputs):
        raise BenchError(f"sweep point {kernel.cols}: multi-thread outputs diverge; report aborted")
    single_us, multi_us = single.timing.total_us, multi.timing.total_us
    return SweepPoint(kernel.cols, single_us, multi_us, round3(single_us / multi_us))


def functional_check(kernel: KernelSpec, rung: LadderRung, cfg: MachineConfig) -> list[str]:
    """End-to-end equivalence for one (kernel, rung): interpreter vs timed
    simulator vs double-precision reference.  Returns failure descriptions.

    The check takes the run of its triple out of bench, so a checked run is
    never recorded.  The slot's run (see _run) gives it the simulator's
    outputs.  Else a record of the run (see _record) gives the schedule the
    interpreter runs, after the slot is emptied so that its outputs are not
    live beside the check's: when the interpreter's outputs hash to the
    record's digest they are the simulator's bit for bit, and on any other
    digest the simulator runs the schedule again.  Else the check makes a
    fresh run.  The interpreter's outputs are dropped once compared exactly,
    before the reference is computed."""
    key = (kernel, rung, cfg)
    ran, digest = _run.take(*key), None
    if ran is None:
        _run.clear()  # records the slot's run and frees its outputs
        if key in _records:
            sched, digest = _records.pop(key)
            ran = None, sched, (), None  # only clean runs are recorded
        else:
            ran = _run.__wrapped__(*key)  # a fresh run, not kept in the slot
    _, sched, diagnostics, sim = ran
    if diagnostics:
        return [f"verifier: {d}" for d in diagnostics]
    inputs = _inputs(kernel)
    interp_out = interpret_functional(sched, inputs)
    if digest is None:
        sim_out = sim[0]
    elif _digest(interp_out) == digest:
        sim_out = interp_out  # so array_equal fails exactly where a NaN is
    else:
        sim_out = simulate_timed(sched, inputs, cfg)[0]
    differ = {name for name in sim_out if not np.array_equal(interp_out[name], sim_out[name])}
    del interp_out
    ref = reference_output(kernel, inputs)
    failures: list[str] = []
    for name in ref:
        if name in differ:
            failures.append(f"@{name}: interpreter and simulator outputs differ")
        if not outputs_match(kernel.kind, {name: sim_out[name]}, {name: ref[name]}):
            failures.append(f"@{name}: simulator output diverges from the reference")
    return failures
