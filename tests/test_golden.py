"""Golden regression: every TimingReport field and interp == sim bit for bit,
for all four rungs of three kernels on the default machine, and the printed
IR after every pipeline stage of every rung.

The vec-add and GELU rows are the ROADMAP baseline ladders (vec-add's
vec-mt-db runs per-thread pipelines over its tiles split into 2-row
sub-tiles, which fit the scratchpad where whole tiles do not); the
fine-tile GELU row exercises many small tiles, too small for the in-tile
fork, which vec-mt-db runs as per-thread pipelines; the vec-add anchor of
the benchmark's design grid runs four per-thread pipelines that share one
memory-bound channel; the IR table adds a vec-add with a peeled tail tile,
whose vec-mt-db splits its two tiles into 1-row sub-tiles.  Any change
to these numbers or hashes is a behaviour change.
"""

import hashlib

import pytest

from tilelab.bench import pipeline_for
from tilelab.interp import interpret_functional
from tilelab.kernels import build_kernel, gelu, make_inputs, vec_add_2d
from tilelab.machine import MachineConfig, RUNG_ORDER, TimingReport
from tilelab.passes import run_pipeline, run_pipeline_stages
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
    ("vec-add", "vec-mt"): (52652, 52.652, 131072, 26112, 67944, 600, (46912, 48988, 51064, 52052)),
    ("vec-add", "vec-mt-db"): (35948, 35.948, 131072, 30720, 7080, 600, (33728, 34268, 34808, 35348)),
    ("gelu", "scalar"): (19947520, 19947.52, 19922944, 24576, 24576, 0, (0, 0, 0, 0)),
    ("gelu", "vec"): (647168, 647.168, 622592, 24576, 24576, 0, (0, 0, 0, 0)),
    ("gelu", "vec-mt"): (165932, 165.932, 622592, 24576, 32232, 600, (161984, 162268, 165240, 165332)),
    ("gelu", "vec-mt-db"): (157100, 157.1, 622592, 24576, 2472, 600, (156032, 156124, 156408, 156500)),
    ("gelu-fine", "scalar"): (1254400, 1254.4, 1245184, 9216, 9216, 0, (0, 0, 0, 0)),
    ("gelu-fine", "vec"): (48128, 48.128, 38912, 9216, 9216, 0, (0, 0, 0, 0)),
    ("gelu-fine", "vec-mt"): (13844, 13.844, 38912, 9216, 13408, 600, (12792, 13156, 13128, 13244)),
    ("gelu-fine", "vec-mt-db"): (10604, 10.604, 38912, 9216, 768, 600, (9872, 9916, 9888, 10004)),
    ("vec-add-anchor", "scalar"): (528896, 528.896, 524288, 4608, 4608, 0, (0, 0, 0, 0)),
    ("vec-add-anchor", "vec"): (20992, 20.992, 16384, 4608, 4608, 0, (0, 0, 0, 0)),
    ("vec-add-anchor", "vec-mt"): (7468, 7.468, 16384, 4608, 9192, 600, (5440, 6492, 6776, 6868)),
    ("vec-add-anchor", "vec-mt-db"): (6124, 6.124, 16384, 4608, 4008, 600, (4672, 4956, 5240, 5524)),
}


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_golden_ladder(kernel):
    spec = KERNELS[kernel]
    base = build_kernel(spec, tcm_capacity=CFG.tcm_capacity)
    inputs = make_inputs(spec)
    for rung in RUNG_ORDER:
        module = run_pipeline(base, pipeline_for(rung, CFG))
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
        ("vectorize", "1f5bfcaea10d5eea"),
        ("form-virtual-threads", "bff43ed5d9dfaa76"),
        ("form-async-threads", "071d430360ceeea1"),
    ),
    ("vec-add", "vec-mt-db"): (
        ("initial", "1de75a2bc474d3ec"),
        ("pipeline-threads", "4163dbdce047e24b"),
        ("pipeline-async-threads", "e37ab05c50e61611"),
        ("db-stage1", "5a3526ec65d6a773"),
        ("db-stage2", "fa4ba5033b52c19b"),
        ("vectorize", "8350e51a7303e551"),
        ("form-virtual-threads", "8350e51a7303e551"),
        ("form-async-threads", "8350e51a7303e551"),
    ),
    ("gelu", "scalar"): (
        ("initial", "24e1a6d2315ef087"),
    ),
    ("gelu", "vec"): (
        ("initial", "24e1a6d2315ef087"),
        ("vectorize", "c46d63f768cad64a"),
    ),
    ("gelu", "vec-mt"): (
        ("initial", "24e1a6d2315ef087"),
        ("vectorize", "c46d63f768cad64a"),
        ("form-virtual-threads", "36b494f43b1a9e9b"),
        ("form-async-threads", "dccd120c97cbe260"),
    ),
    ("gelu", "vec-mt-db"): (
        ("initial", "24e1a6d2315ef087"),
        ("pipeline-threads", "c862157410fe5ab3"),
        ("pipeline-async-threads", "16b04692e69a79f9"),
        ("db-stage1", "044f97249205f455"),
        ("db-stage2", "8c86f6d07481d4f8"),
        ("vectorize", "5c05b8ea6697ed9e"),
        ("form-virtual-threads", "5c05b8ea6697ed9e"),
        ("form-async-threads", "5c05b8ea6697ed9e"),
    ),
    ("gelu-fine", "scalar"): (
        ("initial", "d8ec0175b740b0e9"),
    ),
    ("gelu-fine", "vec"): (
        ("initial", "d8ec0175b740b0e9"),
        ("vectorize", "31fd9ff5b5fbbe79"),
    ),
    ("gelu-fine", "vec-mt"): (
        ("initial", "d8ec0175b740b0e9"),
        ("vectorize", "31fd9ff5b5fbbe79"),
        ("form-virtual-threads", "9518ba0d7c55321a"),
        ("form-async-threads", "ae5131869d92b81c"),
    ),
    ("gelu-fine", "vec-mt-db"): (
        ("initial", "d8ec0175b740b0e9"),
        ("pipeline-threads", "1d490969a1a630e4"),
        ("pipeline-async-threads", "53e494b2c62cd489"),
        ("db-stage1", "84a913ff274cf863"),
        ("db-stage2", "c93b444b07da28ca"),
        ("vectorize", "c0ab2c1e11ec3f75"),
        ("form-virtual-threads", "c0ab2c1e11ec3f75"),
        ("form-async-threads", "c0ab2c1e11ec3f75"),
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
        ("vectorize", "5f5167db7e65937c"),
        ("form-virtual-threads", "6756ea5d7be985f9"),
        ("form-async-threads", "907b0a0a40a8b67f"),
    ),
    ("vec-add-anchor", "vec-mt-db"): (
        ("initial", "9e518f2423292b27"),
        ("pipeline-threads", "a09927f4a3c56b9f"),
        ("pipeline-async-threads", "c97642d70438ff75"),
        ("db-stage1", "67cb44fd9288a5ab"),
        ("db-stage2", "a524ec34f9f61893"),
        ("vectorize", "1f00827a304ca9ed"),
        ("form-virtual-threads", "1f00827a304ca9ed"),
        ("form-async-threads", "1f00827a304ca9ed"),
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
        ("vectorize", "2d4ee5b21b84a0b5"),
        ("form-virtual-threads", "9c4f17256c11b04d"),
        ("form-async-threads", "32e1bdf31c3b2d69"),
    ),
    ("vec-add-tail", "vec-mt-db"): (
        ("initial", "7f24fa145afb9f54"),
        ("pipeline-threads", "25739acd98a87852"),
        ("pipeline-async-threads", "3b39c6534fdd5166"),
        ("db-stage1", "5ee5171ea90f96fb"),
        ("db-stage2", "18a4224921c395ce"),
        ("vectorize", "ae276d9a9e4760d9"),
        ("form-virtual-threads", "ae276d9a9e4760d9"),
        ("form-async-threads", "ae276d9a9e4760d9"),
    ),
}


@pytest.mark.parametrize("kernel", list(IR_KERNELS))
def test_golden_ir(kernel):
    base = build_kernel(IR_KERNELS[kernel], tcm_capacity=CFG.tcm_capacity)
    for rung in RUNG_ORDER:
        stages = run_pipeline_stages(base, pipeline_for(rung, CFG))
        got = tuple(
            (name, hashlib.sha256(print_module(m).encode()).hexdigest()[:16])
            for name, m in stages
        )
        assert got == GOLDEN_IR[(kernel, rung.value)], rung
