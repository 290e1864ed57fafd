"""Bench harness and report emitters."""

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tilelab import bench
from tilelab.bench import (
    DEFAULT_SWEEP_SIZES,
    BenchError,
    RungRun,
    HARDWARE_REFERENCE_LADDER,
    HARDWARE_REFERENCE_SWEEP_POINT,
    functional_check,
    outputs_match,
    round3,
    run_ladder,
    run_sweep,
)
from tilelab.kernels import KernelKind, gelu, make_inputs, vec_add_2d
from tilelab.machine import RUNG_ORDER, LadderRung, MachineConfig
from tilelab.reports import emit_csv, emit_json, emit_svg, ladder_svg, sweep_latency_svg

CFG = MachineConfig()

# Small but non-degenerate kernels keep this module fast.
LADDER_KERNEL = vec_add_2d()
SWEEP_SIZES = (16384, 65536, 262144)


@pytest.fixture(scope="module")
def ladder_report():
    return run_ladder(LADDER_KERNEL, CFG)


@pytest.fixture(scope="module")
def sweep_report():
    return run_sweep(gelu(), SWEEP_SIZES, CFG)


def test_ladder_row_order_and_scalar_speedup(ladder_report):
    assert [r.rung for r in ladder_report.rows] == ["scalar", "vec", "vec-mt", "vec-mt-db"]
    assert ladder_report.rows[0].speedup_vs_scalar == 1.0
    assert json.loads(emit_json(ladder_report))["hardware_reference"] == HARDWARE_REFERENCE_LADDER


def test_ladder_csv_shape(ladder_report):
    text = emit_csv(ladder_report)
    lines = text.splitlines()
    assert lines[0] == "rung,latency_us,speedup_vs_scalar"
    assert len(lines) == 5
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_sweep_csv_shape(sweep_report):
    lines = emit_csv(sweep_report).splitlines()
    assert lines[0] == "n_elements,single_us,multi_us,speedup"
    assert len(lines) == 1 + len(SWEEP_SIZES)


def test_single_point_sweep_is_two_lines():
    report = run_sweep(gelu(), (16384,), CFG)
    assert len(emit_csv(report).splitlines()) == 2


def test_csv_round_trip(ladder_report, sweep_report):
    lines = emit_csv(ladder_report).splitlines()[1:]
    parsed = [(r, float(a), float(b)) for r, a, b in (line.split(",") for line in lines)]
    for row, (rung, latency, speedup) in zip(ladder_report.rows, parsed):
        assert (row.rung, row.latency_us, row.speedup_vs_scalar) == (rung, latency, speedup)
    lines = emit_csv(sweep_report).splitlines()[1:]
    for point, line in zip(sweep_report.points, lines):
        n, single, multi, speedup = line.split(",")
        assert (point.n_elements, point.single_us, point.multi_us, point.speedup) == (
            int(n),
            float(single),
            float(multi),
            float(speedup),
        )


def test_emitted_speedup_is_quotient_of_emitted_latencies(ladder_report, sweep_report):
    for line in emit_csv(ladder_report).splitlines()[1:]:
        _, latency, speedup = line.split(",")
        scalar = ladder_report.rows[0].latency_us
        assert float(speedup) == round3(scalar / float(latency))
    for line in emit_csv(sweep_report).splitlines()[1:]:
        _, single, multi, speedup = line.split(",")
        assert float(speedup) == round3(float(single) / float(multi))


def test_ladder_svg_has_four_bars(ladder_report):
    svg = ladder_svg(ladder_report)
    assert svg.count('<rect class="bar"') == 4


def test_sweep_latency_svg_has_two_series(sweep_report):
    assert sweep_latency_svg(sweep_report).count("<polyline") == 2


def test_svg_deterministic(ladder_report, sweep_report):
    assert emit_svg(ladder_report) == emit_svg(ladder_report)
    assert emit_svg(sweep_report) == emit_svg(sweep_report)


def test_json_carries_machine_and_kernel(ladder_report):
    payload = json.loads(emit_json(ladder_report))
    assert payload["machine"] == CFG.to_json_dict()
    assert payload["kernel"]["kind"] == "vec-add-2d"
    assert payload["machine_digest"] == CFG.digest
    assert payload["hardware_reference"]["ratios"]["scalar/vec"] == 41.3
    assert len(payload["rows"]) == 4


def test_sweep_reference_metadata(sweep_report):
    payload = json.loads(emit_json(sweep_report))
    assert payload["hardware_reference"] == HARDWARE_REFERENCE_SWEEP_POINT
    assert payload["hardware_reference"]["speedup"] == 3.91


def test_sweep_rejects_bad_arguments():
    with pytest.raises(BenchError, match="gelu"):
        run_sweep(vec_add_2d(), (16384,), CFG)
    with pytest.raises(BenchError, match="nonempty"):
        run_sweep(gelu(), (), CFG)
    with pytest.raises(BenchError, match="ascending"):
        run_sweep(gelu(), (65536, 16384), CFG)


def test_degenerate_single_tile_ladder():
    report = run_ladder(vec_add_2d(rows=8, tile_rows=8), CFG)
    by_rung = {r.rung: r.latency_us for r in report.rows}
    # The one tile is split by rows and forked, which pays even at one tile;
    # each thread then re-tiles its own rows, so the threads stop queueing
    # for the channel in lockstep.
    assert by_rung["vec-mt"] == 6.956 < by_rung["vec"] == 19.648


def test_default_sweep_speedups_are_pinned():
    # The three single-tile points (4,096 to 16,384 elements) split their
    # tile and fork it too, so fork/join is amortized from the smallest size.
    # From 131,072 elements the threads' loops re-tile their own blocks.
    report = run_sweep(gelu(), DEFAULT_SWEEP_SIZES, CFG)
    speedups = [p.speedup for p in report.points]
    assert speedups == [1.941, 2.591, 3.136, 3.484, 3.681, 3.811, 3.891, 3.939, 3.968]


def test_gelu_ladder_passes_the_functional_gate():
    report = run_ladder(gelu(n=131072), CFG)
    assert len(report.rows) == 4
    assert all(r.latency_us > 0 for r in report.rows)


def _gelu_like() -> np.ndarray:
    return np.linspace(-4.0, 4.0, 1024, dtype=np.float32).reshape(8, 128)


def test_outputs_match_identical_arrays_pass():
    y = _gelu_like()
    assert outputs_match(KernelKind.GELU, {"Y": y}, {"Y": y.copy()})
    assert outputs_match(KernelKind.VEC_ADD_2D, {"C": y}, {"C": y.copy()})


def test_outputs_match_rejects_nan_even_where_expected_holds_nan():
    y = _gelu_like()
    y[3, 5] = np.nan
    assert not outputs_match(KernelKind.GELU, {"Y": y}, {"Y": y.copy()})


def test_outputs_match_gelu_tolerance():
    want = _gelu_like()
    one_ulp = want.copy()
    one_ulp[2, 7] = np.nextafter(one_ulp[2, 7], np.float32(np.inf))
    assert not np.array_equal(one_ulp, want)
    assert outputs_match(KernelKind.GELU, {"Y": one_ulp}, {"Y": want})
    off = want.copy()
    off[2, 7] = want[2, 7] * np.float32(1 + 1e-5)
    assert not outputs_match(KernelKind.GELU, {"Y": off}, {"Y": want})


def test_outputs_match_missing_key_fails():
    y = _gelu_like()
    assert not outputs_match(KernelKind.GELU, {}, {"Y": y})
    assert not outputs_match(KernelKind.GELU, {"Y": y, "Z": y}, {"Y": y})


def test_outputs_match_vec_add_is_exact():
    want = _gelu_like()
    got = want.copy()
    got[0, 1] = np.nextafter(got[0, 1], np.float32(np.inf))
    assert not outputs_match(KernelKind.VEC_ADD_2D, {"C": got}, {"C": want})


def test_outputs_match_rejects_a_shape_mismatch():
    row = np.linspace(-4.0, 4.0, 4, dtype=np.float32)
    pairs = [
        (row.reshape(1, 4), np.stack([row, row])),
        (row, np.stack([row, row])),
        (np.float32(0.5), np.full((2, 4), 0.5, dtype=np.float32)),
    ]
    for kind in KernelKind:
        for got, want in pairs:
            assert not outputs_match(kind, {"Y": got}, {"Y": want})
            assert not outputs_match(kind, {"Y": want}, {"Y": got})


# --------------------------------------------------------------------------- #
# Error paths: which failure a check reports, and in which order
# --------------------------------------------------------------------------- #

SMALL_GELU = gelu(n=1024, tile_elems=256)


def _fake_rungs(monkeypatch, outputs_of):
    """Replaces run_rung with one that returns outputs_of(kernel, rung), or
    raises it when it is an exception."""

    def run_rung(kernel, rung, cfg):
        out = outputs_of(kernel, rung)
        if isinstance(out, Exception):
            raise out
        return RungRun(rung, out, SimpleNamespace(total_us=1.0), 0)

    monkeypatch.setattr(bench, "run_rung", run_rung)


def test_ladder_reports_a_failed_rung_over_an_earlier_divergence(monkeypatch):
    zeros, ones = np.zeros((1, 4), np.float32), np.ones((1, 4), np.float32)
    outputs = {
        LadderRung.SCALAR: {"Y": zeros},
        LadderRung.VEC: {"Y": ones},
        LadderRung.VEC_MT: {"Y": zeros},
        LadderRung.VEC_MT_DB: RuntimeError("boom"),
    }
    _fake_rungs(monkeypatch, lambda kernel, rung: outputs[rung])
    with pytest.raises(BenchError, match=r"^rung vec-mt-db failed: boom$"):
        run_ladder(SMALL_GELU, CFG)


def test_ladder_names_the_first_diverging_rung(monkeypatch):
    zeros, ones = np.zeros((1, 4), np.float32), np.ones((1, 4), np.float32)
    outputs = {LadderRung.SCALAR: zeros, LadderRung.VEC: ones, LadderRung.VEC_MT: ones}
    _fake_rungs(monkeypatch, lambda kernel, rung: {"Y": outputs.get(rung, zeros)})
    with pytest.raises(BenchError) as info:
        run_ladder(SMALL_GELU, CFG)
    assert str(info.value) == "rung vec: outputs diverge from the scalar rung; report aborted"


def test_sweep_names_the_diverging_point(monkeypatch):
    def outputs_of(kernel, rung):
        y = np.zeros((1, kernel.cols), np.float32)
        if kernel.cols == 8192 and rung is LadderRung.VEC_MT:
            y[0, 3] = 1.0
        return {"Y": y}

    _fake_rungs(monkeypatch, outputs_of)
    with pytest.raises(BenchError) as info:
        run_sweep(gelu(), (4096, 8192, 16384), CFG)
    assert str(info.value) == "sweep point 8192: multi-thread outputs diverge; report aborted"


def _fake_executors(monkeypatch, interp, sim, ref):
    """interp, sim and ref map an output name to an offset added to the input."""
    calls = []

    def outputs(offsets, inputs):
        return {name: inputs["X"] + np.float32(k) for name, k in offsets.items()}

    def interpret_functional(sched, inputs):
        calls.append("interp")
        if isinstance(interp, Exception):
            raise interp
        return outputs(interp, inputs)

    def simulate_timed(sched, inputs, cfg):
        calls.append("sim")
        return outputs(sim, inputs), None

    def reference_output(kernel, inputs):
        calls.append("ref")
        return outputs(ref, inputs)

    monkeypatch.setattr(bench, "interpret_functional", interpret_functional)
    monkeypatch.setattr(bench, "simulate_timed", simulate_timed)
    monkeypatch.setattr(bench, "reference_output", reference_output)
    return calls


DIFFER = "interpreter and simulator outputs differ"
DIVERGES = "simulator output diverges from the reference"


@pytest.mark.parametrize(
    "interp, ref, want",
    [
        ({"Y": 1, "Z": 0}, {"Y": 0, "Z": 0}, ["@Y: " + DIFFER]),
        ({"Y": 0, "Z": 0}, {"Y": 0, "Z": 1}, ["@Z: " + DIVERGES]),
        (
            {"Y": 2, "Z": 2},
            {"Y": 1, "Z": 1},
            ["@Y: " + DIFFER, "@Y: " + DIVERGES, "@Z: " + DIFFER, "@Z: " + DIVERGES],
        ),
    ],
    ids=["interp-sim", "sim-reference", "both"],
)
def test_functional_check_failure_lists(monkeypatch, interp, ref, want):
    calls = _fake_executors(monkeypatch, interp, {"Y": 0, "Z": 0}, ref)
    assert functional_check(SMALL_GELU, LadderRung.VEC, CFG) == want
    assert calls == ["sim", "interp", "ref"]


def test_functional_check_raises_the_interpreter_error_before_the_reference(monkeypatch):
    calls = _fake_executors(monkeypatch, ValueError("interp broke"), {"Y": 0}, {"Y": 0})
    with pytest.raises(ValueError, match="interp broke"):
        functional_check(SMALL_GELU, LadderRung.VEC, CFG)
    assert calls == ["sim", "interp"]


# --------------------------------------------------------------------------- #
# Host memory: a check holds its inputs and the two results it compares
# --------------------------------------------------------------------------- #

# Both kernels have 16 MiB outputs; 65536-element GELU tiles keep the traced
# runs short.
MEMORY_KERNELS = [gelu(1 << 22, 65536), vec_add_2d(1024, 4096, 16)]
SLACK = 8 << 20


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _two_results_bound(kernel) -> int:
    inputs = make_inputs(kernel)
    output_bytes = 4 * kernel.rows * kernel.cols
    return sum(a.nbytes for a in inputs.values()) + 2 * output_bytes + SLACK


@pytest.mark.parametrize("kernel", MEMORY_KERNELS, ids=lambda k: k.kind.value)
def test_ladder_holds_the_inputs_and_two_outputs(kernel):
    assert _traced_peak(lambda: run_ladder(kernel, CFG)) <= _two_results_bound(kernel)


@pytest.mark.parametrize("kernel", MEMORY_KERNELS, ids=lambda k: k.kind.value)
def test_functional_check_holds_the_inputs_and_two_outputs(kernel):
    bound = _two_results_bound(kernel)
    for rung in RUNG_ORDER:
        assert _traced_peak(lambda: functional_check(kernel, rung, CFG)) <= bound, rung


@pytest.mark.parametrize("kernel", MEMORY_KERNELS, ids=lambda k: k.kind.value)
def test_a_ladder_and_its_checks_hold_the_inputs_and_two_outputs(kernel):
    """One region over the whole flow, so the outputs the newest record
    holds between calls count against the next call's peak."""

    def ladder_then_checks():
        run_ladder(kernel, CFG)
        for rung in RUNG_ORDER:
            assert functional_check(kernel, rung, CFG) == [], rung

    assert _traced_peak(ladder_then_checks) <= _two_results_bound(kernel)


def test_sweep_point_holds_the_inputs_and_two_outputs():
    n = 1 << 22
    bound = _two_results_bound(gelu(n))
    assert _traced_peak(lambda: run_sweep(gelu(), (n // 2, n), CFG)) <= bound


# --------------------------------------------------------------------------- #
# The table of runs: a check reads the run that made its number
# --------------------------------------------------------------------------- #

COUNTED = (
    "build_kernel",
    "run_pipeline",
    "verify_module",
    "make_inputs",
    "simulate_timed",
    "interpret_functional",
    "collect_stats",
    "_digest",
)


def _counted(monkeypatch, names=COUNTED):
    """Counts the calls bench makes to each of `names`."""
    calls = dict.fromkeys(names, 0)
    for name in calls:

        def counting(*args, _name=name, _real=getattr(bench, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(bench, name, counting)
    return calls


def _counts(**calls) -> dict:
    """What _counted reads after `calls`: 0 for every name not given."""
    assert set(calls) <= set(COUNTED)
    return {name: calls.get(name, 0) for name in COUNTED}


def test_a_check_right_after_a_run_reuses_its_compile_and_inputs(monkeypatch):
    calls = _counted(monkeypatch)
    # A check with no run before it (the CLI's verify) compiles and
    # simulates once, and computes no floor.
    assert functional_check(SMALL_GELU, LadderRung.VEC, CFG) == []
    assert calls == _counts(
        build_kernel=1,
        run_pipeline=1,
        verify_module=1,
        make_inputs=1,
        simulate_timed=1,
        interpret_functional=1,
    )
    bench.run_rung(SMALL_GELU, LadderRung.VEC_MT, CFG)
    assert functional_check(SMALL_GELU, LadderRung.VEC_MT, CFG) == []
    # The run's record keeps its outputs, so the check hashes nothing.
    assert calls == _counts(
        build_kernel=2,
        run_pipeline=2,
        verify_module=2,
        make_inputs=1,
        simulate_timed=2,
        interpret_functional=2,
        collect_stats=1,
        _digest=0,
    )


@pytest.mark.parametrize(
    "between, draws",
    [((SMALL_GELU, LadderRung.VEC_MT), 1), ((gelu(n=2048, tile_elems=256), LadderRung.VEC), 3)],
    ids=["other-rung", "other-kernel"],
)
def test_each_memo_holds_one_entry(monkeypatch, between, draws):
    """The run between digests the first's outputs, and the check reads the
    first's record: neither compiles nor simulates again.  The check digests
    the outputs of the run between, then the interpreter's."""
    calls = _counted(monkeypatch)
    bench.run_rung(SMALL_GELU, LadderRung.VEC, CFG)
    bench.run_rung(*between, CFG)
    assert functional_check(SMALL_GELU, LadderRung.VEC, CFG) == []
    assert calls == _counts(
        build_kernel=2,
        run_pipeline=2,
        verify_module=2,
        make_inputs=draws,
        simulate_timed=2,
        interpret_functional=1,
        collect_stats=2,
        _digest=3,
    )


def test_a_ladder_draws_its_inputs_once_for_its_rungs_and_checks(monkeypatch):
    calls = _counted(monkeypatch)
    run_ladder(SMALL_GELU, CFG)
    for rung in RUNG_ORDER:
        assert functional_check(SMALL_GELU, rung, CFG) == [], rung
    # Each check reads its rung's record: one compile and simulation a rung.
    assert calls == _counts(
        build_kernel=4,
        run_pipeline=4,
        verify_module=4,
        make_inputs=1,
        simulate_timed=4,
        interpret_functional=4,
        collect_stats=4,
        _digest=8,
    )
    assert bench._records == {}


def _with_x(monkeypatch, value):
    """make_inputs with X[0, 0] set to `value`."""
    real = bench.make_inputs

    def make_inputs(kernel):
        inputs = real(kernel)
        inputs["X"][0, 0] = value
        return inputs

    monkeypatch.setattr(bench, "make_inputs", make_inputs)


def _interpreter_then(monkeypatch, change):
    """interpret_functional with change() applied to its output Y."""
    real = bench.interpret_functional

    def interpret_functional(sched, inputs):
        outputs = real(sched, inputs)
        return {**outputs, "Y": change(outputs["Y"])}

    monkeypatch.setattr(bench, "interpret_functional", interpret_functional)


def _one_ulp_up(y):
    y = y.copy()
    y[0, 0] = np.nextafter(y[0, 0], np.float32(np.inf))
    return y


def test_a_check_after_a_ladder_reports_a_planted_divergence(monkeypatch):
    run_ladder(SMALL_GELU, CFG)
    _interpreter_then(monkeypatch, _one_ulp_up)
    calls = _counted(monkeypatch)
    assert functional_check(SMALL_GELU, LadderRung.VEC, CFG) == ["@Y: " + DIFFER]
    # The digests differ, so the record's schedule is simulated once more.
    assert calls == _counts(simulate_timed=1, interpret_functional=1, _digest=2)


def test_a_check_after_a_ladder_reports_the_same_nan_in_both_outputs(monkeypatch):
    _with_x(monkeypatch, np.nan)
    with pytest.raises(BenchError, match="diverge from the scalar rung"):
        run_ladder(SMALL_GELU, CFG)
    calls = _counted(monkeypatch)
    for rung in RUNG_ORDER:
        assert functional_check(SMALL_GELU, rung, CFG) == ["@Y: " + DIFFER, "@Y: " + DIVERGES]
    # Equal digests: the outputs are bit for bit the same, NaN included.
    assert calls == _counts(interpret_functional=4, _digest=5)


def test_a_check_after_a_ladder_accepts_a_zero_of_the_other_sign(monkeypatch):
    _with_x(monkeypatch, 0.0)
    run_ladder(SMALL_GELU, CFG)
    _interpreter_then(monkeypatch, lambda y: np.where(y == 0, -y, y))
    calls = _counted(monkeypatch)
    assert functional_check(SMALL_GELU, LadderRung.VEC, CFG) == []
    # -0.0 hashes apart from +0.0, so the simulator runs again, and the
    # exact comparison accepts them as equal.
    assert calls == _counts(simulate_timed=1, interpret_functional=1, _digest=2)


def test_a_check_of_a_record_past_the_bound_makes_a_fresh_run(monkeypatch):
    run_ladder(SMALL_GELU, CFG)
    others = [(gelu(n=256 * k, tile_elems=256), rung) for k in range(5, 13) for rung in RUNG_ORDER]
    for kernel, rung in others[: bench.RECORDS - 3]:
        bench.run_rung(kernel, rung, CFG)
    calls = _counted(monkeypatch)
    # The ladder's four runs and these are recorded, one more than RECORDS,
    # so the oldest record, the scalar rung's, is dropped and the vec rung's
    # is not; the check records nothing.
    assert functional_check(SMALL_GELU, LadderRung.SCALAR, CFG) == []
    assert len(bench._records) == bench.RECORDS
    assert calls == _counts(
        build_kernel=1,
        run_pipeline=1,
        verify_module=1,
        make_inputs=1,
        simulate_timed=1,
        interpret_functional=1,
        _digest=1,
    )
    assert functional_check(SMALL_GELU, LadderRung.VEC, CFG) == []
    assert calls == _counts(
        build_kernel=1,
        run_pipeline=1,
        verify_module=1,
        make_inputs=1,
        simulate_timed=1,
        interpret_functional=2,
        _digest=2,
    )


def test_a_paper_reports_pass_runs_each_checked_rung_once(monkeypatch):
    """The benchmark's paper_reports workload, imported read-only: its two
    ladders and its sweep run 26 rungs, and each check reads its rung's
    record, so no rung is compiled or simulated twice in a pass."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    names = ("run_pipeline", "simulate_timed", "interpret_functional", "_digest")
    calls = _counted(monkeypatch, names)
    assert workloads.paper_reports(1).run_pass().outcomes == {"ok": 26}
    assert calls == {
        "run_pipeline": 26,
        "simulate_timed": 26,
        "interpret_functional": 26,
        "_digest": 52,
    }


def test_a_rejected_run_leaves_no_record_and_its_check_compiles_again(monkeypatch):
    bench.run_rung(SMALL_GELU, LadderRung.VEC, CFG)
    monkeypatch.setattr(bench, "verify_module", lambda sched, cfg: ["planted fault"])
    calls = _counted(monkeypatch)
    with pytest.raises(BenchError, match="failed verification: planted fault"):
        bench.run_rung(SMALL_GELU, LadderRung.VEC_MT, CFG)
    assert list(bench._records) == [(SMALL_GELU, LadderRung.VEC, CFG)]
    # The rejected run digested the clean run's outputs before it built.
    _, held = bench._records[(SMALL_GELU, LadderRung.VEC, CFG)]
    assert isinstance(held, str)
    assert functional_check(SMALL_GELU, LadderRung.VEC_MT, CFG) == ["verifier: planted fault"]
    assert calls == _counts(build_kernel=2, run_pipeline=2, verify_module=2, _digest=1)


def test_the_inputs_bench_draws_are_read_only(monkeypatch):
    drawn = []
    real = bench.make_inputs
    monkeypatch.setattr(bench, "make_inputs", lambda kernel: drawn.append(real(kernel)) or drawn[-1])
    bench.run_rung(SMALL_GELU, LadderRung.VEC, CFG)
    (inputs,) = drawn
    with pytest.raises(ValueError, match="read-only"):
        inputs["X"][0, 0] = 1.0


def test_a_runs_outputs_are_read_only():
    run = bench.run_rung(SMALL_GELU, LadderRung.VEC, CFG)
    with pytest.raises(ValueError, match="read-only"):
        run.outputs["Y"][0, 0] = 1.0


def test_make_inputs_still_returns_writable_arrays():
    bench.run_rung(SMALL_GELU, LadderRung.VEC, CFG)
    inputs = make_inputs(SMALL_GELU)
    inputs["X"][0, 0] = 1.0
    assert make_inputs(SMALL_GELU)["X"][0, 0] != 1.0
