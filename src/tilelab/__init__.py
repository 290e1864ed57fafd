"""tilelab: a desk-scale compiler laboratory.

A small tile-level IR, rewrite passes for vectorization, two-stage
multi-threading, and two-stage double buffering, a functional interpreter,
a deterministic timed simulator of an edge NPU, and a benchmark harness
that reproduces an ablation-ladder and size-sweep methodology.
"""

from .bench import (
    BenchError,
    DEFAULT_SWEEP_SIZES,
    LadderReport,
    LadderRow,
    SweepPoint,
    SweepReport,
    run_ladder,
    run_rung,
    run_sweep,
)
from .interp import InterpError, interpret_functional
from .ir import TileModule
from .kernels import (
    GeluVariant,
    KernelKind,
    KernelSpec,
    build_gelu,
    build_kernel,
    build_vec_add_2d,
    gelu,
    make_inputs,
    reference_output,
    vec_add_2d,
)
from .machine import (
    KernelStats,
    LadderRung,
    MachineConfig,
    TimingReport,
    collect_stats,
    cycles_to_us,
    latency_lower_bound,
    load_machine_config,
)
from .normal_form import NormalFormDescriptor, match_normal_form
from .passes import (
    Composition,
    PassError,
    PipelineSpec,
    choose_composition,
    compositions,
    db_stage1,
    db_stage2,
    form_async_threads,
    form_virtual_threads,
    partition_tiles,
    retile,
    run_pipeline,
    vectorize,
)
from .printer import print_module
from .sim import DeadlockError, SimulationError, simulate_timed
from .verifier import verify_module

__version__ = "0.1.0"

__all__ = [
    "BenchError",
    "Composition",
    "DEFAULT_SWEEP_SIZES",
    "DeadlockError",
    "GeluVariant",
    "InterpError",
    "KernelKind",
    "KernelSpec",
    "KernelStats",
    "LadderReport",
    "LadderRow",
    "LadderRung",
    "MachineConfig",
    "NormalFormDescriptor",
    "PassError",
    "PipelineSpec",
    "SimulationError",
    "SweepPoint",
    "SweepReport",
    "TileModule",
    "TimingReport",
    "build_gelu",
    "build_kernel",
    "build_vec_add_2d",
    "choose_composition",
    "collect_stats",
    "compositions",
    "cycles_to_us",
    "db_stage1",
    "db_stage2",
    "form_async_threads",
    "form_virtual_threads",
    "gelu",
    "interpret_functional",
    "latency_lower_bound",
    "load_machine_config",
    "make_inputs",
    "match_normal_form",
    "partition_tiles",
    "print_module",
    "reference_output",
    "retile",
    "run_ladder",
    "run_pipeline",
    "run_rung",
    "run_sweep",
    "simulate_timed",
    "vec_add_2d",
    "vectorize",
    "verify_module",
]
