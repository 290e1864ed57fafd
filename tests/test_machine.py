"""Machine config, unit conversion, statistics, and the analytic floor."""

import json
import math

import pytest

from tilelab.bench import run_rung
from tilelab.kernels import build_gelu, build_vec_add_2d, gelu, vec_add_2d
from tilelab.machine import (
    RUNG_ORDER,
    KernelStats,
    LadderRung,
    MachineConfig,
    collect_stats,
    cycles_to_us,
    latency_lower_bound,
    load_machine_config,
    machine_config_from_dict,
)


def test_cycles_to_us_unit_cases():
    cfg = MachineConfig()  # 1 GHz
    assert cycles_to_us(1000, cfg) == 1.000
    assert cycles_to_us(0, cfg) == 0.000


def test_cycles_to_us_half_even():
    # 12345 cycles at 2 GHz is exactly 6.1725 us; half-even gives 6.172
    # (confirmed against a decimal-arithmetic expansion).
    cfg = MachineConfig(clock_hz=2e9)
    assert cycles_to_us(12345, cfg) == 6.172


def test_config_json_round_trip(tmp_path):
    cfg = MachineConfig(dma_bandwidth=64, threads=2)
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    assert load_machine_config(path) == cfg


def test_unknown_config_keys_rejected():
    with pytest.raises(ValueError, match="unknown machine config keys"):
        machine_config_from_dict({"lanes": 32, "bananas": 1})


def test_nonpositive_config_rejected():
    with pytest.raises(ValueError):
        MachineConfig(dma_bandwidth=0)
    with pytest.raises(ValueError):
        MachineConfig(threads=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("threads", 2.5),
        ("dma_bandwidth", "512"),
        ("lanes", 8.5),
        ("lanes", True),
        ("fork_cost", None),
        ("clock_hz", float("nan")),
        ("clock_hz", float("inf")),
        ("clock_hz", "1e9"),
        ("clock_hz", True),
    ],
)
def test_malformed_config_values_rejected(field, value):
    with pytest.raises(ValueError, match=f"machine config field {field} must be"):
        machine_config_from_dict({field: value})


def test_a_clock_past_the_float_range_is_rejected():
    with pytest.raises(ValueError, match="field clock_hz must be a finite number"):
        MachineConfig(clock_hz=10**400)


def test_integer_clock_accepted():
    assert MachineConfig(clock_hz=1_000_000_000).clock_hz == 1_000_000_000


def test_digest_tracks_content():
    assert MachineConfig().digest == MachineConfig().digest
    assert MachineConfig().digest != MachineConfig(threads=2).digest


def test_an_integer_clock_has_the_digest_of_the_equal_float(tmp_path):
    path = tmp_path / "machine.json"
    path.write_text('{"clock_hz": 1000000000}')
    for cfg in (MachineConfig(clock_hz=10**9), load_machine_config(path)):
        assert cfg == MachineConfig()
        assert cfg.digest == MachineConfig().digest
        assert cfg.to_json_dict() == MachineConfig().to_json_dict()
    assert len(MachineConfig().digest) == 12


def test_collect_stats_vec_add_defaults():
    stats = collect_stats(build_vec_add_2d(vec_add_2d()))
    assert stats.total_elements == 1_048_576
    assert stats.ops_per_element == 4  # two loads + add + store
    assert stats.bytes_in == 2 * 4_194_304
    assert stats.bytes_out == 4_194_304
    assert stats.tile_count == 8
    assert stats.tile_rows == 8
    assert stats.n_transfers == 24  # 3 per tile


def test_collect_stats_gelu():
    stats = collect_stats(build_gelu(gelu()))
    assert stats.total_elements == 1_048_576
    assert stats.ops_per_element == 19
    assert stats.n_transfers == 128
    assert stats.tile_count == 64
    assert stats.tile_rows == 8  # resident tiles are shaped (8, 2048)


def test_lower_bound_closed_forms():
    cfg = MachineConfig()
    stats = collect_stats(build_vec_add_2d(vec_add_2d()))
    t_dma = 24 * cfg.dma_startup + math.ceil(12_582_912 / cfg.dma_bandwidth)
    assert t_dma == 26112
    t_compute_vec = math.ceil(1_048_576 / 32) * 4
    assert latency_lower_bound(stats, cfg, LadderRung.VEC) == max(t_dma, t_compute_vec) == 131072
    assert latency_lower_bound(stats, cfg, LadderRung.SCALAR) == 1_048_576 * 4
    assert latency_lower_bound(stats, cfg, LadderRung.VEC_MT) == max(t_dma, 131072 // 4)
    # vec-mt-db forks over the 8 rows of a tile, and min(threads, 8) == 4.
    assert latency_lower_bound(stats, cfg, LadderRung.VEC_MT_DB) == max(t_dma, 131072 // 4)


def test_lower_bound_limit_regimes():
    stats = KernelStats(
        total_elements=1_048_576,
        ops_per_element=4,
        bytes_in=8_388_608,
        bytes_out=4_194_304,
        tile_count=8,
        tile_rows=8,
        n_transfers=24,
    )
    memory_bound = MachineConfig(dma_bandwidth=1)
    bound = latency_lower_bound(stats, memory_bound, LadderRung.VEC)
    assert bound == 24 * 64 + 12_582_912  # transfer term dominates
    compute_bound = MachineConfig(dma_bandwidth=10**6)
    bound = latency_lower_bound(stats, compute_bound, LadderRung.VEC)
    assert bound == math.ceil(1_048_576 / 32) * 4  # compute term dominates


def test_floor_charges_the_cheaper_unit_when_vector_ops_cost_more():
    # A one-element GELU computes scalar at every rung (smaller than one
    # vector), so a vector op costing two scalar ops must not raise the floor:
    # 19 ops at scalar cost 1, not ceil(1 / 32) vector ops at cost 2.
    cfg = MachineConfig(vector_unit_cost=2, dma_startup=1)
    stats = collect_stats(build_gelu(gelu(1, 1)))
    for rung in RUNG_ORDER:
        run = run_rung(gelu(1, 1), rung, cfg)
        assert run.lower_bound == latency_lower_bound(stats, cfg, rung) == 19, rung
        assert run.timing.total_cycles >= run.lower_bound, rung
    # Where every element runs vectorized the term is the one of equal costs.
    stats = collect_stats(build_vec_add_2d(vec_add_2d()))
    costly = MachineConfig(vector_unit_cost=2, dma_bandwidth=10**6)
    assert latency_lower_bound(stats, costly, LadderRung.VEC) == 1_048_576 // 32 * 2 * 4
