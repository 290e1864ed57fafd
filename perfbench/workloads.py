"""The benchmark's workloads and the per-case checks one pass makes.

Each workload is built from the benchmark seed: the seed picks the input
values of every kernel and, for `design_grid`, the drawn cases.  tilelab
only receives the resulting specs, machine configs and inputs.

A case is one (kernel spec, machine config, rung).  Every case checks that
the interpreter and the simulator agree bit for bit and that the simulator
matches the double-precision reference (both through `functional_check`),
and that the simulated cycles are not below `latency_lower_bound`.  A case
that fails is counted by reason and the pass goes on.
"""

from __future__ import annotations

import math
import random
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable

from tilelab import bench, reports
from tilelab.bench import BenchError
from tilelab.kernels import KernelKind, KernelSpec, gelu, vec_add_2d
from tilelab.machine import RUNG_ORDER, LadderRung, MachineConfig, latency_lower_bound
from tilelab.passes import PassError

OK = "ok"
# Why a case failed.  pass_error and floor are known defects of the program
# (a pass refused the case; the simulator beat the certified floor); the
# rest mean a wrong or missing result.
REASONS = ("pass_error", "verifier", "mismatch", "floor", "error")
RESULT_FAILURES = ("verifier", "mismatch", "error")

# The stress point of the fine-tile GELU ladder.
FINE_N = 1 << 22
FINE_TILE_ELEMS = 1024

# design_grid: every machine config of the grid, and DRAWS_PER_CONFIG cases
# of each kernel per config, Latin-hypercube stratified per config.
GRID_LANES = (5, 8, 16, 32, 64)
GRID_THREADS = (1, 2, 3, 4)
GRID_MAX_ROWS = 64
GRID_MAX_COLS = 2048
GRID_TILE_ELEMS = (1024, 2048, 4096, 8192, 16384)
GRID_MAX_GELU_TILES = 8
DRAWS_PER_CONFIG = 8


@dataclass
class PassResult:
    """What one pass of a workload produced and checked."""

    outcomes: Counter = field(default_factory=Counter)
    # Every simulated value, keyed by case: the determinism guard compares them.
    values: dict[str, object] = field(default_factory=dict)
    ladder_cycles: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    ladder_floors: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    speedups: list[float] = field(default_factory=list)
    ladder_reports: list = field(default_factory=list)
    sweep_reports: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def success_ratio(self) -> float:
        """Cases that passed every check / cases attempted."""
        return self.outcomes[OK] / self.attempted

    def record(
        self,
        spec: KernelSpec,
        cfg: MachineConfig,
        rung: LadderRung,
        outcome: str,
        cycles: int | None,
        floor: int | None,
        ladder: bool = False,
    ) -> None:
        self.outcomes[outcome] += 1
        self.values[f"{case_label(spec)}|{cfg.digest}|{rung.value}"] = (outcome, cycles, floor)
        if ladder and cycles is not None:
            self.ladder_cycles[rung.value].append(cycles)
            self.ladder_floors[rung.value].append(floor)

    def note_error(self, exc: BaseException) -> None:
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception_only(exc)).strip())


def case_label(spec: KernelSpec) -> str:
    if spec.kind is KernelKind.VEC_ADD_2D:
        return f"vec-add-2d:{spec.rows}x{spec.cols}/{spec.tile_rows}"
    return f"gelu:{spec.cols}/{spec.tile_elems}"


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    configs: tuple[MachineConfig, ...]
    # Cases whose cycles feed the cycles.* metrics and the per-rung breakdowns.
    ladder_cases: tuple[tuple[KernelSpec, MachineConfig], ...]
    body: Callable[[PassResult], None]

    def run_pass(self) -> PassResult:
        result = PassResult()
        self.body(result)
        return result


# --------------------------------------------------------------------------- #
# Per-case checks
# --------------------------------------------------------------------------- #


def _functional(spec: KernelSpec, rung: LadderRung, cfg: MachineConfig, result: PassResult) -> str:
    """interp == sim bit for bit and sim vs reference, classified."""
    try:
        failures = bench.functional_check(spec, rung, cfg)
    except PassError:
        return "pass_error"
    except Exception as exc:  # a case boundary: record it and go on
        result.note_error(exc)
        return "error"
    if not failures:
        return OK
    return "verifier" if failures[0].startswith("verifier:") else "mismatch"


def _emit(report) -> None:
    reports.emit_csv(report)
    reports.emit_json(report)
    reports.emit_svg(report)


def _report_cycles(latency_us: float, cfg: MachineConfig) -> int:
    return round(latency_us * cfg.clock_hz / 1e6)


def _check_reported(
    result: PassResult,
    spec: KernelSpec,
    cfg: MachineConfig,
    cycles: dict[str, int],
    rungs: tuple[LadderRung, ...],
    ladder: bool,
) -> None:
    """Checks the rungs of a report whose cycles came from the report rows."""
    stats = bench.collect_stats(bench.build_kernel(spec, tcm_capacity=cfg.tcm_capacity))
    for rung in rungs:
        floor = latency_lower_bound(stats, cfg, rung)
        got = cycles.get(rung.value)
        outcome = _functional(spec, rung, cfg, result)
        if outcome == OK:
            outcome = "error" if got is None else ("floor" if got < floor else OK)
        result.record(spec, cfg, rung, outcome, got, floor, ladder)


def _ladder(result: PassResult, spec: KernelSpec, cfg: MachineConfig) -> dict[str, int]:
    try:
        report = bench.run_ladder(spec, cfg)
    except Exception as exc:  # the rungs are still checked one by one below
        result.note_error(exc)
        cycles = {}
    else:
        _emit(report)
        result.ladder_reports.append(report)
        cycles = {row.rung: _report_cycles(row.latency_us, cfg) for row in report.rows}
    _check_reported(result, spec, cfg, cycles, RUNG_ORDER, ladder=True)
    return cycles


def _grid_case(result: PassResult, spec: KernelSpec, cfg: MachineConfig, ladder: bool) -> dict:
    cycles: dict[str, int] = {}
    for rung in RUNG_ORDER:
        got = floor = None
        try:
            run = bench.run_rung(spec, rung, cfg)
        except PassError:
            outcome = "pass_error"
        except BenchError as exc:
            outcome = "verifier" if "failed verification" in str(exc) else "error"
            if outcome == "error":
                result.note_error(exc)
        except Exception as exc:  # a case boundary: record it and go on
            result.note_error(exc)
            outcome = "error"
        else:
            got, floor = run.timing.total_cycles, run.lower_bound
            cycles[rung.value] = got
            outcome = _functional(spec, rung, cfg, result)
            if outcome == OK and got < floor:
                outcome = "floor"
        result.record(spec, cfg, rung, outcome, got, floor, ladder)
    return cycles


def _vec_over_mt(cycles: dict[str, int]) -> float | None:
    if "vec" in cycles and "vec-mt" in cycles:
        return cycles["vec"] / cycles["vec-mt"]
    return None


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


def paper_reports(seed: int) -> Workload:
    """The three reports PAPER.md reproduces, each followed by a functional
    check of every rung and by CSV/JSON/SVG emission."""
    cfg = MachineConfig()
    add_spec, gelu_spec = vec_add_2d(seed=seed), gelu(seed=seed)

    def body(result: PassResult) -> None:
        _ladder(result, add_spec, cfg)
        _ladder(result, gelu_spec, cfg)
        try:
            sweep = bench.run_sweep(gelu_spec, bench.DEFAULT_SWEEP_SIZES, cfg)
        except Exception as exc:
            result.note_error(exc)
            result.outcomes["error"] += 2 * len(bench.DEFAULT_SWEEP_SIZES)
            return
        _emit(sweep)
        result.sweep_reports.append(sweep)
        for point in sweep.points:
            cycles = {
                "vec": _report_cycles(point.single_us, cfg),
                "vec-mt": _report_cycles(point.multi_us, cfg),
            }
            spec_n = replace(gelu_spec, cols=point.n_elements)
            rungs = (LadderRung.VEC, LadderRung.VEC_MT)
            _check_reported(result, spec_n, cfg, cycles, rungs, ladder=False)
            result.speedups.append(point.single_us / point.multi_us)
            result.values[f"sweep:{point.n_elements}|speedup"] = point.speedup

    return Workload("paper_reports", seed, (cfg,), ((add_spec, cfg), (gelu_spec, cfg)), body)


def ladder_fine(seed: int) -> Workload:
    """The GELU ladder at n=2^22 with 1024-element tiles (4,096 tiles)."""
    cfg = MachineConfig()
    spec = gelu(FINE_N, FINE_TILE_ELEMS, seed=seed)

    def body(result: PassResult) -> None:
        ratio = _vec_over_mt(_ladder(result, spec, cfg))
        if ratio is not None:
            result.speedups.append(ratio)

    return Workload("ladder_fine", seed, (cfg,), ((spec, cfg),), body)


def _latin(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    """n points in [0, 1)^dims with exactly one point in each of the n
    equal strata of every dimension."""
    columns = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        columns.append([(s + rng.random()) / n for s in strata])
    return list(zip(*columns))


def grid_draw(seed: int) -> list[tuple[KernelSpec, MachineConfig]]:
    """Small valid cases over every grid machine config: vec-add-2d with
    ragged rows and tails, and GELU with 1 to GRID_MAX_GELU_TILES tiles."""
    rng = random.Random(seed)
    cases = []
    for lanes in GRID_LANES:
        for threads in GRID_THREADS:
            cfg = MachineConfig(lanes=lanes, threads=threads)
            for a, b, c in _latin(rng, DRAWS_PER_CONFIG, 3):
                rows = 1 + int(a * GRID_MAX_ROWS)
                cols = 1 + int(b * GRID_MAX_COLS)
                tile_rows = min(rows, int((rows + 1) ** c))  # log-uniform in [1, rows]
                cases.append((vec_add_2d(rows, cols, tile_rows, seed=seed), cfg))
            for a, b in _latin(rng, DRAWS_PER_CONFIG, 2):
                tile_elems = GRID_TILE_ELEMS[int(a * len(GRID_TILE_ELEMS))]
                tiles = 1 + int(b * GRID_MAX_GELU_TILES)
                cases.append((gelu(tiles * tile_elems, tile_elems, seed=seed), cfg))
    return cases


def design_grid(seed: int) -> Workload:
    """A seeded draw of small cases, each through all four rungs, plus two
    fixed anchor ladders on the default machine that feed cycles.*."""
    default = MachineConfig()
    anchors = (
        (vec_add_2d(64, GRID_MAX_COLS, 8, seed=seed), default),
        (gelu(16 * 4096, 4096, seed=seed), default),
    )
    draw = grid_draw(seed)

    def body(result: PassResult) -> None:
        for spec, cfg in anchors:
            ratio = _vec_over_mt(_grid_case(result, spec, cfg, ladder=True))
            if spec.kind is KernelKind.GELU and ratio is not None:
                result.speedups.append(ratio)
        for spec, cfg in draw:
            _grid_case(result, spec, cfg, ladder=False)

    configs = tuple(dict.fromkeys([default, *(cfg for _, cfg in draw)]))
    return Workload("design_grid", seed, configs, anchors, body)


WORKLOADS = {"paper_reports": paper_reports, "ladder_fine": ladder_fine, "design_grid": design_grid}
