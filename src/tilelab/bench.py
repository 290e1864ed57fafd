"""Benchmark harness: the ablation ladder and the size sweep.

Every rung is rebuilt from the same kernel spec, transformed, lowered once,
verified, and simulated; a report is only produced when every rung's
outputs match the scalar rung (exactly for vec-add, within 1e-6 relative for
GELU).  Each clean rung run leaves a record in one table of runs (see
_records), which the check of the same (kernel, rung, machine) reads in
place of a second compile.  The newest record keeps the simulator's
outputs, so a check right after its run compares them as they are; an
older one keeps their digest, so a check after a ladder or a sweep
simulates again only when the interpreter's outputs hash apart from it
(see functional_check).
Bundled reference numbers from a hardware measurement of the same ladder
ride along as metadata for qualitative comparison; the simulator makes no
attempt to reproduce absolute microseconds.
"""

from __future__ import annotations

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


_last_inputs: dict[KernelSpec, dict[str, np.ndarray]] = {}


def _inputs(kernel: KernelSpec) -> dict[str, np.ndarray]:
    """The kernel's inputs, read-only, so a write raises instead of
    corrupting a later check; no op writes an input (see lower.ArrayStore).
    The last kernel's inputs are kept and dropped before another kernel's
    are drawn, so two kernels' inputs are never live together."""
    if kernel not in _last_inputs:
        _last_inputs.clear()
        inputs = make_inputs(kernel)
        for array in inputs.values():
            array.flags.writeable = False
        _last_inputs[kernel] = inputs
    return _last_inputs[kernel]


# The one table of runs: the clean run_rung runs that no check has read yet,
# by (kernel, rung, machine), oldest first and at most RECORDS.  A record
# holds the schedule and the simulator's outputs, which only the newest
# keeps, until bench runs or checks anything else; every other record holds
# their digest instead (see _forget_outputs).  A ladder leaves 4 records and
# the default sweep 18.
RECORDS = 32
_records: dict[tuple, tuple[Schedule, dict[str, np.ndarray] | str]] = {}


def _digest(outputs: dict[str, np.ndarray]) -> str:
    """sha256 over the outputs' names, shapes, dtypes and bytes."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        array = np.ascontiguousarray(outputs[name])
        h.update(f"{name}|{array.shape}|{array.dtype.str}|".encode())
        h.update(array)
    return h.hexdigest()


def _forget_outputs() -> None:
    """Replaces the newest record's outputs, if it still holds them, with
    their digest, so that they are not live beside the next run's or
    check's arrays."""
    if _records:
        key = next(reversed(_records))
        sched, outputs = _records[key]
        if not isinstance(outputs, str):
            _records[key] = sched, _digest(outputs)


def _run(kernel: KernelSpec, rung: LadderRung, cfg: MachineConfig) -> tuple:
    """Build -> transform -> lower -> verify -> simulate, the one path of a
    rung run, once the newest record's outputs are forgotten.  Returns the
    built kernel, the schedule, which the interpreter shares with the
    simulator, the verifier's diagnostics, and, when there are none, the
    simulator's outputs, read-only like the inputs, and timing."""
    _forget_outputs()
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
    the floor of its schedule.  The run is recorded, with its outputs, as
    the newest in the table of runs (see _records); a run the verifier
    rejects raises and leaves no record."""
    base, sched, diagnostics, sim = _run(kernel, rung, cfg)
    if diagnostics:
        raise BenchError(
            f"rung {rung.value}: transformed module failed verification: {diagnostics[0]}"
        )
    outputs, timing = sim
    key = (kernel, rung, cfg)
    _records.pop(key, None)
    _records[key] = sched, outputs
    if len(_records) > RECORDS:
        del _records[next(iter(_records))]
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
    return LadderReport(kernel, cfg, rows)


def run_sweep(kernel: KernelSpec, sizes: tuple[int, ...], cfg: MachineConfig) -> SweepReport:
    """Single-thread (vec) vs multi-thread (vec+mt) latency per problem size."""
    if kernel.kind is not KernelKind.GELU:
        raise BenchError("the size sweep is defined for the gelu kernel")
    if not sizes:
        raise BenchError("sweep sizes must be nonempty")
    if list(sizes) != sorted(set(sizes)):
        raise BenchError("sweep sizes must be strictly ascending")
    points = tuple(_sweep_point(replace(kernel, cols=n), cfg) for n in sizes)
    return SweepReport(kernel, cfg, points)


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

    The check pops the record of its triple (see _records) and forgets the
    newest remaining record's outputs, so that no other run's outputs are
    live beside its own.  A record with outputs gives the simulator's
    outputs as they are.  A record with a digest gives the schedule the
    interpreter runs: when the interpreter's outputs hash to the digest they
    are the simulator's bit for bit, and on any other digest the simulator
    runs the schedule again.  With no record the check makes a fresh run,
    which it does not record.  The interpreter's outputs are dropped once
    compared exactly, before the reference is computed."""
    record = _records.pop((kernel, rung, cfg), None)
    _forget_outputs()
    if record is None:
        _, sched, diagnostics, sim = _run(kernel, rung, cfg)
        if diagnostics:
            return [f"verifier: {d}" for d in diagnostics]
        record = sched, sim[0]
    sched, held = record
    inputs = _inputs(kernel)
    interp_out = interpret_functional(sched, inputs)
    if not isinstance(held, str):
        sim_out = held
    elif _digest(interp_out) == held:
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
