"""Golden regression: every TimingReport field and interp == sim bit for bit,
for all four rungs of three kernels on the default machine, and the printed
IR after every pipeline stage of every rung.

The vec-add and GELU rows are the ROADMAP baseline ladders: vec-add's
vec-mt runs per-thread loops over its 8-row tiles split into single rows,
and its vec-mt-db per-thread pipelines over 2-row sub-tiles, which fit the
scratchpad where whole tiles do not, of which the first two threads split
theirs again into single rows; GELU's vec-mt runs per-thread loops over
its 8-row tiles merged in pairs, and its vec-mt-db per-thread pipelines
over its 8-row tiles split into single rows.  The fine-tile GELU row
exercises many small tiles: vec-mt merges its 64 tiles into four, one per
thread, so each thread pays the transfer start-up once per operand, and
vec-mt-db pipelines them merged in pairs, eight per thread, where the
first and last threads split their blocks back into 16 whole tiles.
The vec-add anchor of the benchmark's design grid runs four per-thread
pipelines that share one memory-bound channel, the second over its two
8-row tiles split into four 4-row tiles, and four per-thread loops over
its 8-row tiles merged in pairs.  The IR table adds a vec-add with a peeled tail tile,
whose vec-mt and vec-mt-db split its two tiles into 2-row and 1-row
sub-tiles.  Each thread's own tile rows are the plan's: pipeline-threads
prints them on the forall, and pipeline-async-threads builds each thread's
loop in them.  Any change to these numbers or hashes is a behaviour change.
"""

import hashlib

import pytest

from tilelab.interp import interpret_functional
from tilelab.kernels import build_kernel, gelu, make_inputs, vec_add_2d
from tilelab.normal_form import match_block_explain
from tilelab.ir import AsyncExecute
from tilelab.machine import LadderRung, MachineConfig, RUNG_ORDER, TimingReport
from tilelab.passes import PipelineSpec, run_pipeline, run_pipeline_stages
from tilelab.printer import print_module
from tilelab.sim import simulate_timed

CFG = MachineConfig()

KERNELS = {
    "vec-add": vec_add_2d(),
    "gelu": gelu(),
    "gelu-fine": gelu(n=1 << 16, tile_elems=1024),
    "vec-add-anchor": vec_add_2d(64, 2048, 8),
}

# (kernel, rung) -> TimingReport fields in declaration order.
GOLDEN = {
    ("vec-add", "scalar"): (4220416, 4220.416, 4194304, 26112, 26112, 0, (0, 0, 0, 0)),
    ("vec-add", "vec"): (157184, 157.184, 131072, 26112, 26112, 0, (0, 0, 0, 0)),
    ("vec-add", "vec-mt"): (46956, 46.956, 131072, 36864, 51048, 600, (44800, 45084, 45880, 46356)),
    ("vec-add", "vec-mt-db"): (35500, 35.5, 131072, 33792, 7336, 600, (34304, 34780, 34424, 34900)),
    ("gelu", "scalar"): (19947520, 19947.52, 19922944, 24576, 24576, 0, (0, 0, 0, 0)),
    ("gelu", "vec"): (647168, 647.168, 622592, 24576, 24576, 0, (0, 0, 0, 0)),
    ("gelu", "vec-mt"): (163116, 163.116, 622592, 19840, 23400, 600, (160768, 162716, 160184, 162324)),
    ("gelu", "vec-mt-db"): (156508, 156.508, 622592, 81920, 840, 600, (155808, 155868, 155848, 155908)),
    ("gelu-fine", "scalar"): (1254400, 1254.4, 1245184, 9216, 9216, 0, (0, 0, 0, 0)),
    ("gelu-fine", "vec"): (48128, 48.128, 38912, 9216, 9216, 0, (0, 0, 0, 0)),
    ("gelu-fine", "vec-mt"): (10988, 10.988, 38912, 1536, 2088, 600, (10112, 10204, 10296, 10388)),
    ("gelu-fine", "vec-mt-db"): (10556, 10.556, 38912, 7168, 760, 600, (9872, 9932, 9912, 9956)),
    ("vec-add-anchor", "scalar"): (528896, 528.896, 524288, 4608, 4608, 0, (0, 0, 0, 0)),
    ("vec-add-anchor", "vec"): (20992, 20.992, 16384, 4608, 4608, 0, (0, 0, 0, 0)),
    ("vec-add-anchor", "vec-mt"): (6956, 6.956, 16384, 4224, 7592, 600, (5440, 6236, 5944, 6356)),
    ("vec-add-anchor", "vec-mt-db"): (5996, 5.996, 16384, 4992, 4136, 600, (4672, 5340, 5112, 5396)),
}


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_golden_ladder(kernel):
    spec = KERNELS[kernel]
    base = build_kernel(spec, tcm_capacity=CFG.tcm_capacity)
    inputs = make_inputs(spec)
    for rung in RUNG_ORDER:
        module = run_pipeline(base, PipelineSpec(rung, CFG))
        sim_out, report = simulate_timed(module, inputs, CFG)
        assert report == TimingReport(*GOLDEN[(kernel, rung.value)]), rung
        interp_out = interpret_functional(module, inputs)
        assert set(sim_out) == set(interp_out)
        for name in interp_out:
            assert sim_out[name].tobytes() == interp_out[name].tobytes(), (rung, name)


IR_KERNELS = {**KERNELS, "vec-add-tail": vec_add_2d(rows=10, tile_rows=4)}

# (kernel, rung) -> (stage, first 16 hex digits of sha256(print_module)) per
# stage of run_pipeline_stages.
GOLDEN_IR = {
    ("vec-add", "scalar"): (
        ("initial", "1de75a2bc474d3ec"),
    ),
    ("vec-add", "vec"): (
        ("initial", "1de75a2bc474d3ec"),
        ("vectorize", "1f5bfcaea10d5eea"),
    ),
    ("vec-add", "vec-mt"): (
        ("initial", "1de75a2bc474d3ec"),
        ("pipeline-threads", "4b23665e443c39db"),
        ("pipeline-async-threads", "0f4a6ccf658f1e64"),
        ("vectorize", "cb5742bf8a5b969c"),
    ),
    ("vec-add", "vec-mt-db"): (
        ("initial", "1de75a2bc474d3ec"),
        ("pipeline-threads", "6a0aa4666fb47dc5"),
        ("pipeline-async-threads", "8c08456da2a6a99e"),
        ("db-stage1", "f3b3fc34ab7f0892"),
        ("db-stage2", "f3e7f3235ea565b9"),
        ("vectorize", "e8ca6dcff7031348"),
    ),
    ("gelu", "scalar"): (
        ("initial", "7a47c4ba35d7c422"),
    ),
    ("gelu", "vec"): (
        ("initial", "7a47c4ba35d7c422"),
        ("vectorize", "64ed083e1a0fdfe7"),
    ),
    ("gelu", "vec-mt"): (
        ("initial", "7a47c4ba35d7c422"),
        ("pipeline-threads", "06aac2767e8a4887"),
        ("pipeline-async-threads", "a705fe712af8f6e5"),
        ("vectorize", "9a5494de2ef1f929"),
    ),
    ("gelu", "vec-mt-db"): (
        ("initial", "7a47c4ba35d7c422"),
        ("pipeline-threads", "667ef5e667ae1e41"),
        ("pipeline-async-threads", "9fa4a783b5953958"),
        ("db-stage1", "57400f288fbea294"),
        ("db-stage2", "87e1d3da17ac1faa"),
        ("vectorize", "7abfcc3b11340e4b"),
    ),
    ("gelu-fine", "scalar"): (
        ("initial", "bd97a6592f32b7ef"),
    ),
    ("gelu-fine", "vec"): (
        ("initial", "bd97a6592f32b7ef"),
        ("vectorize", "8bdde77ffe5622d2"),
    ),
    ("gelu-fine", "vec-mt"): (
        ("initial", "bd97a6592f32b7ef"),
        ("pipeline-threads", "cfa75c4f8fa7c939"),
        ("pipeline-async-threads", "e01b110edc0db214"),
        ("vectorize", "f897a5850cf3b099"),
    ),
    ("gelu-fine", "vec-mt-db"): (
        ("initial", "bd97a6592f32b7ef"),
        ("pipeline-threads", "09832675c2a60645"),
        ("pipeline-async-threads", "6c271e6edf445e19"),
        ("db-stage1", "72cb2730e8179ad9"),
        ("db-stage2", "f71ab58d74cecf61"),
        ("vectorize", "0343e929e802ce41"),
    ),
    ("vec-add-anchor", "scalar"): (
        ("initial", "9e518f2423292b27"),
    ),
    ("vec-add-anchor", "vec"): (
        ("initial", "9e518f2423292b27"),
        ("vectorize", "5f5167db7e65937c"),
    ),
    ("vec-add-anchor", "vec-mt"): (
        ("initial", "9e518f2423292b27"),
        ("pipeline-threads", "8b3f8b2051f5fe82"),
        ("pipeline-async-threads", "52a98f13ce88ac34"),
        ("vectorize", "244b13d7accbf3b6"),
    ),
    ("vec-add-anchor", "vec-mt-db"): (
        ("initial", "9e518f2423292b27"),
        ("pipeline-threads", "480e18889734a4f9"),
        ("pipeline-async-threads", "2ef182e3360f4069"),
        ("db-stage1", "95cab50d3b371567"),
        ("db-stage2", "cde26e461a846b86"),
        ("vectorize", "6bd95a6e156c71c8"),
    ),
    ("vec-add-tail", "scalar"): (
        ("initial", "7f24fa145afb9f54"),
    ),
    ("vec-add-tail", "vec"): (
        ("initial", "7f24fa145afb9f54"),
        ("vectorize", "2d4ee5b21b84a0b5"),
    ),
    ("vec-add-tail", "vec-mt"): (
        ("initial", "7f24fa145afb9f54"),
        ("pipeline-threads", "59ae850dd84be96b"),
        ("pipeline-async-threads", "3200c10c82221d78"),
        ("vectorize", "9cfc93d6f78ba564"),
    ),
    ("vec-add-tail", "vec-mt-db"): (
        ("initial", "7f24fa145afb9f54"),
        ("pipeline-threads", "07001dbafbbd9b7e"),
        ("pipeline-async-threads", "50ab6a9282486df4"),
        ("db-stage1", "91b824a8aebedc04"),
        ("db-stage2", "9179b7b0b2884a57"),
        ("vectorize", "07b3027f72f80c55"),
    ),
}


@pytest.mark.parametrize("kernel", list(IR_KERNELS))
def test_golden_ir(kernel):
    base = build_kernel(IR_KERNELS[kernel], tcm_capacity=CFG.tcm_capacity)
    for rung in RUNG_ORDER:
        stages = run_pipeline_stages(base, PipelineSpec(rung, CFG))
        got = tuple(
            (name, hashlib.sha256(print_module(m).encode()).hexdigest()[:16])
            for name, m in stages
        )
        assert got == GOLDEN_IR[(kernel, rung.value)], rung


@pytest.mark.parametrize("rung", [LadderRung.VEC_MT, LadderRung.VEC_MT_DB])
@pytest.mark.parametrize("kernel", list(IR_KERNELS))
def test_every_forked_region_is_a_normal_form_loop(kernel, rung):
    """Fork-join lowering builds each thread's loop with normal_form_tile."""
    base = build_kernel(IR_KERNELS[kernel], tcm_capacity=CFG.tcm_capacity)
    forked = dict(run_pipeline_stages(base, PipelineSpec(rung, CFG)))["pipeline-async-threads"]
    regions = [op for op in forked.body if isinstance(op, AsyncExecute)]
    assert regions
    ddr = {d.id for d in base.buffers}
    for region in regions:
        desc, reason = match_block_explain(region.body, ddr)
        assert desc is not None, reason
