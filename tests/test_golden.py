"""Golden regression: every TimingReport field and interp == sim bit for bit,
for all four rungs of three kernels on the default machine.

The vec-add and GELU rows are the ROADMAP baseline ladders; the fine-tile
GELU row exercises many small tiles (and the MT profitability decline at
vec-mt-db).  Any change to these numbers is a behaviour change.
"""

import pytest

from tilelab.bench import pipeline_for
from tilelab.interp import interpret_functional
from tilelab.kernels import build_kernel, gelu, make_inputs, vec_add_2d
from tilelab.machine import MachineConfig, RUNG_ORDER, TimingReport
from tilelab.passes import run_pipeline
from tilelab.sim import simulate_timed

CFG = MachineConfig()

KERNELS = {
    "vec-add": vec_add_2d(),
    "gelu": gelu(),
    "gelu-fine": gelu(n=1 << 16, tile_elems=1024),
}

# (kernel, rung) -> TimingReport fields in declaration order.
GOLDEN = {
    ("vec-add", "scalar"): (4220416, 4220.416, 4194304, 26112, 26112, 0, (0, 0, 0, 0)),
    ("vec-add", "vec"): (157184, 157.184, 131072, 26112, 26112, 0, (0, 0, 0, 0)),
    ("vec-add", "vec-mt"): (52652, 52.652, 131072, 26112, 67944, 600, (46912, 48988, 51064, 52052)),
    ("vec-add", "vec-mt-db"): (40832, 40.832, 131072, 26112, 3264, 4800, (32768, 32768, 32768, 32768)),
    ("gelu", "scalar"): (19947520, 19947.52, 19922944, 24576, 24576, 0, (0, 0, 0, 0)),
    ("gelu", "vec"): (647168, 647.168, 622592, 24576, 24576, 0, (0, 0, 0, 0)),
    ("gelu", "vec-mt"): (165932, 165.932, 622592, 24576, 32232, 600, (161984, 162268, 165240, 165332)),
    ("gelu", "vec-mt-db"): (194432, 194.432, 622592, 24576, 384, 38400, (155648, 155648, 155648, 155648)),
    ("gelu-fine", "scalar"): (1254400, 1254.4, 1245184, 9216, 9216, 0, (0, 0, 0, 0)),
    ("gelu-fine", "vec"): (48128, 48.128, 38912, 9216, 9216, 0, (0, 0, 0, 0)),
    ("gelu-fine", "vec-mt"): (13844, 13.844, 38912, 9216, 13408, 600, (12792, 13156, 13128, 13244)),
    ("gelu-fine", "vec-mt-db"): (39056, 39.056, 38912, 9216, 144, 0, (0, 0, 0, 0)),
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
