"""Bench harness and report emitters."""

import json

import numpy as np
import pytest

from tilelab.bench import (
    DEFAULT_SWEEP_SIZES,
    BenchError,
    HARDWARE_REFERENCE_LADDER,
    HARDWARE_REFERENCE_SWEEP_POINT,
    outputs_match,
    round3,
    run_ladder,
    run_sweep,
)
from tilelab.kernels import KernelKind, gelu, vec_add_2d
from tilelab.machine import MachineConfig
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
    assert ladder_report.hardware_reference == HARDWARE_REFERENCE_LADDER


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
    assert sweep_report.hardware_reference == HARDWARE_REFERENCE_SWEEP_POINT
    payload = json.loads(emit_json(sweep_report))
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
