"""tilelab benchmark: host time, simulated cycles and failures per workload.

Usage, from the root of a tilelab checkout:

    python3 perfbench/run.py --workload paper_reports --seed 1 --seconds 30 --trace 0

One run makes one warm-up pass of the workload, then repeats timed passes
for `--seconds`; after each pass it times rounds of fixed reference work
in a child process (reference.py) and one import of tilelab in a fresh
interpreter (set-up).  Every pass checks every case (see workloads.py) and
must reproduce the warm-up pass's simulated values exactly.  With
`--trace 0` the result holds the end-to-end metrics; with `--trace 1`
untraced and traced passes alternate and the result holds the per-layer
metrics of the fastest traced pass.  Human-readable lines come first; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"  # run state and traces; never committed

# The speed of a shared host drifts by tens of percent from minute to
# minute, far more than the bounds allow.  So one round of fixed reference
# work (reference.py) is timed after every pass, and the end-to-end host
# times are reported in seconds of a host on which one reference round takes
# REFERENCE_S: the run's median sample * REFERENCE_S / its median reference
# round.  The raw samples and the reference rounds are printed beside them.
# After a pass, reference rounds run for about REFERENCE_SHARE of its time,
# so that long passes get as many rounds as their length calls for.
REFERENCE_S = 0.35
REFERENCE_SHARE = 0.25
SETUP_SAMPLES = 7
MIN_PASSES = 3

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import tilelab\n"
    "elapsed = time.perf_counter() - t0\n"
    "print(elapsed, tilelab.__file__)\n"
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper_reports", "ladder_fine", "design_grid")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Seconds to import tilelab in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed, module_file = proc.stdout.split()
    if Path(module_file).resolve().parent != (SRC / "tilelab").resolve():
        raise RuntimeError(f"imported tilelab from {module_file}, not from {SRC}")
    return float(elapsed)


def _code_digest() -> str:
    """Digest of the sources whose behaviour the simulated values depend on."""
    import numpy
    import scipy

    h = hashlib.sha256(f"{sys.version}|{numpy.__version__}|{scipy.__version__}".encode())
    for path in sorted([*SRC.glob("tilelab/*.py"), *ROOT.glob("perfbench/*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _value_digest(values: dict) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True, default=str).encode()).hexdigest()


def _differences(first: dict, other: dict) -> int:
    return sum(1 for key in first.keys() | other.keys() if first.get(key) != other.get(key))


def _matches_earlier_runs(key: str, values: dict) -> bool:
    """Determinism across runs: the first run of (code, workload, seed, mode)
    in this checkout records a digest of its simulated values; every later
    run must reproduce it."""
    path = OUT_DIR / "digests.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    digest = _value_digest(values)
    if key in stored:
        return stored[key] == digest
    stored[key] = digest
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _provenance(workload) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": workload.seed,
        "machine_digests": [cfg.digest for cfg in workload.configs],
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} min {min(values):.4f} max {max(values):.4f} n={len(values)}"


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #


def _at_reference(samples: list[float], references: list[float]) -> float:
    """Median seconds of `samples`, scaled to a host on which one reference
    round takes REFERENCE_S."""
    return statistics.median(samples) * REFERENCE_S / statistics.median(references)


def end_to_end_metrics(result, wall_s: float, setup_s: float) -> dict[str, float]:
    from tilelab.machine import RUNG_ORDER
    from workloads import geomean

    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for rung in RUNG_ORDER:
        cycles = result.ladder_cycles.get(rung.value)
        if cycles:
            metrics[f"cycles.{rung.value}"] = geomean(cycles)
    if result.speedups:
        metrics["sweep.speedup"] = geomean(result.speedups)
    metrics["success_ratio"] = result.success_ratio
    return metrics


# (metric, traced function names whose summed span time it reports)
_TIMED = (
    ("kernels.make_inputs_s", ("make_inputs",)),
    ("kernels.reference_s", ("reference_output",)),
    ("kernels.build_s", ("build_kernel",)),
    ("passes.vectorize_s", ("vectorize",)),
    ("passes.form_virtual_threads_s", ("form_virtual_threads",)),
    ("passes.form_async_threads_s", ("form_async_threads",)),
    ("passes.db_stage1_s", ("db_stage1",)),
    ("passes.db_stage2_s", ("db_stage2",)),
    ("verifier.verify_s", ("verify_module",)),
    ("interp.run_s", ("interpret_functional",)),
    ("sim.run_s", ("simulate_timed",)),
    ("machine.collect_stats_s", ("collect_stats",)),
    ("reports.emit_s", ("emit_csv", "emit_json", "emit_svg")),
)

# Traced metrics that are simulated or counted, not timed: the determinism
# guard requires them to repeat exactly.
_EXACT_PREFIXES = (
    "sim.overhead_cycles.",
    "sim.stall_cycles.",
    "sim.compute_busy_cycles.",
    "sim.dma_busy_cycles.",
    "sim.thread_imbalance.",
    "passes.ir_ops.",
    "passes.mt_declined",
    "interp.ops",
    "reports.bytes",
)


def _exact(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if k.startswith(_EXACT_PREFIXES)}


def _imbalance(per_thread_busy: tuple[int, ...]) -> float:
    mean = sum(per_thread_busy) / len(per_thread_busy) if per_thread_busy else 0
    return max(per_thread_busy) / mean if mean else 1.0


def traced_metrics(workload, tracer, wall_ns: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    from tilelab.machine import RUNG_ORDER, LadderRung
    from workloads import geomean

    out: dict[str, float] = {}
    totals = tracer.total_ns()
    for metric, names in _TIMED:
        out[metric] = sum(totals.get(name, 0) for name in names) / 1e9
    out["passes.mt_declined"] = tracer.mt_declined
    out["interp.ops"] = tracer.interp_ops
    out["interp.ns_per_op"] = totals.get("interpret_functional", 0) / max(tracer.interp_ops, 1)
    out["sim.ns_per_op"] = totals.get("simulate_timed", 0) / max(tracer.sim_ops, 1)
    out["reports.bytes"] = tracer.report_bytes
    for rung in RUNG_ORDER:
        runs = [
            tracer.rung_runs[key]
            for spec, cfg in workload.ladder_cases
            if (key := (spec, cfg, rung)) in tracer.rung_runs
        ]
        r = rung.value
        out[f"passes.ir_ops.{r}"] = sum(
            tracer.ir_ops.get((spec, cfg.lanes, cfg.threads, rung), 0)
            for spec, cfg in workload.ladder_cases
        )
        out[f"sim.overhead_cycles.{r}"] = sum(run.timing.overhead_cycles for run in runs)
        out[f"sim.stall_cycles.{r}"] = sum(run.timing.stall_cycles for run in runs)
        out[f"sim.compute_busy_cycles.{r}"] = sum(run.timing.compute_busy_cycles for run in runs)
        out[f"sim.dma_busy_cycles.{r}"] = sum(run.timing.dma_busy_cycles for run in runs)
        if rung in (LadderRung.VEC_MT, LadderRung.VEC_MT_DB) and runs:
            out[f"sim.thread_imbalance.{r}"] = geomean(
                [_imbalance(run.timing.per_thread_busy) for run in runs]
            )
    for layer, ns in tracer.self_times(wall_ns).items():
        out[f"self.{layer}_s"] = ns / 1e9
    out["trace.wall_s"] = wall_ns / 1e9
    return out


def case_metrics(result) -> dict[str, float]:
    """Failure counts by reason and the floor diagnostics of the ladder cases."""
    from tilelab.machine import RUNG_ORDER
    from workloads import geomean

    out = {
        "passes.pass_errors": result.outcomes["pass_error"],
        "verifier.diagnostics": result.outcomes["verifier"],
        "bench.mismatches": result.outcomes["mismatch"],
        "bench.errors": result.outcomes["error"],
        "machine.floor_violations": result.outcomes["floor"],
        "fail_ratio": 1 - result.success_ratio,
    }
    for rung in RUNG_ORDER:
        cycles = result.ladder_cycles.get(rung.value, [])
        floors = result.ladder_floors.get(rung.value, [])
        out[f"machine.floor_cycles.{rung.value}"] = sum(floors)
        if cycles:
            out[f"machine.floor_gap.{rung.value}"] = geomean(
                [c / f for c, f in zip(cycles, floors)]
            )
    return out


# --------------------------------------------------------------------------- #
# Human-readable report
# --------------------------------------------------------------------------- #


def _print_cases(result) -> None:
    from workloads import OK, REASONS

    reasons = ", ".join(f"{r} {result.outcomes[r]}" for r in REASONS)
    print(f"cases: attempted {result.attempted}, ok {result.outcomes[OK]}, "
          f"fail_ratio {1 - result.success_ratio:.4f} ({reasons})")
    for message in result.errors:
        print(f"  error: {message}")
    for rung, cycles in result.ladder_cycles.items():
        floors = result.ladder_floors[rung]
        pairs = ", ".join(f"{c:,} / {f:,}" for c, f in zip(cycles, floors))
        print(f"  ladder {rung}: cycles / floor {pairs}")


def _print_hardware_reference(result) -> None:
    """Simulated ladder ratios and the 1M sweep speedup beside the bundled
    hardware numbers.  Qualitative only: the machine model is a calibrated
    abstraction, not a cycle model of the measured device."""
    from tilelab.bench import HARDWARE_REFERENCE_LADDER, HARDWARE_REFERENCE_SWEEP_POINT

    if not (result.ladder_reports or result.sweep_reports):
        return
    print("hardware reference (qualitative; the machine model is a calibrated abstraction):")
    for report in result.ladder_reports:
        latency = {row.rung: row.latency_us for row in report.rows}
        for name, hw in HARDWARE_REFERENCE_LADDER["ratios"].items():
            hi, lo = name.split("/")
            sim = latency[hi] / latency[lo]
            print(f"  {report.kernel.kind.value} {name}: simulated {sim:.3f}"
                  f" hardware {hw:.3f} relative error {sim / hw - 1:+.3f}")
    point = HARDWARE_REFERENCE_SWEEP_POINT
    for report in result.sweep_reports:
        for p in report.points:
            if p.n_elements == point["n_elements"]:
                sim = p.single_us / p.multi_us
                print(f"  sweep speedup at n={p.n_elements}: simulated {sim:.3f}"
                      f" hardware {point['speedup']:.3f}"
                      f" relative error {sim / point['speedup'] - 1:+.3f}")


# --------------------------------------------------------------------------- #
# Main
# --------------------------------------------------------------------------- #


class HostGauge:
    """The reference process: one round of fixed work per `round_s` call.

    It runs only between passes, never beside them, and is stopped and
    waited for on every way out of `with`."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def rounds(self, seconds: float) -> list[float]:
        """Rounds until together they take `seconds`, and at least one."""
        times = [self.round_s()]
        while sum(times) < seconds:
            times.append(self.round_s())
        return times

    def round_s(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended (exit code {self._proc.wait()})")
        return float(line)

    def __enter__(self) -> "HostGauge":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
        except OSError:  # the process has already gone
            pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _timed_pass(workload, tracer=None):
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter_ns()
        result = workload.run_pass()
        wall_ns = time.perf_counter_ns() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, wall_ns, start


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "tilelab" / "__init__.py").is_file():
        print(f"perfbench: no tilelab sources under {SRC}; run it from a tilelab checkout",
              file=sys.stderr)
        return 2
    import_seconds()  # fills the bytecode cache; not a sample
    sys.path.insert(0, str(SRC))
    from tracer import Tracer, chrome_trace
    from workloads import RESULT_FAILURES, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    walls: list[float] = []  # untraced pass seconds
    setups: list[float] = []  # fresh-interpreter import seconds
    references: list[float] = []  # reference round seconds
    traced: list[tuple[int, dict, int, list]] = []  # (wall_ns, metrics, start_ns, spans)
    drift = 0
    with HostGauge() as gauge:
        baseline, _, _ = _timed_pass(workload)  # warm-up: caches fill, lazy set-up ends
        gauge.round_s()  # warm-up of the reference process
        deadline = time.perf_counter() + args.seconds
        while True:
            trace_this = tracer is not None and len(traced) < len(walls)
            result, wall_ns, start = _timed_pass(workload, tracer if trace_this else None)
            drift += _differences(baseline.values, result.values)
            if trace_this:
                metrics = traced_metrics(workload, tracer, wall_ns)
                if traced:
                    drift += _differences(_exact(traced[0][1]), _exact(metrics))
                traced.append((wall_ns, metrics, start, tracer.spans))
            else:
                walls.append(wall_ns / 1e9)
            references.extend(gauge.rounds(REFERENCE_SHARE * wall_ns / 1e9))
            setups.append(import_seconds())
            enough = len(walls) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
            if enough and time.perf_counter() >= deadline:
                break
        while len(setups) < SETUP_SAMPLES:
            references.append(gauge.round_s())
            setups.append(import_seconds())

    wall_s = _at_reference(walls, references)
    setup_s = _at_reference(setups, references)
    values = dict(baseline.values)
    if args.trace:
        wall_ns, metrics, start, spans = min(traced, key=lambda item: item[0])
        values.update(_exact(metrics))
        metrics.update(case_metrics(baseline))
        metrics["trace.untraced_wall_s"] = min(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{workload.name}_seed{workload.seed}.json"
        trace_path.write_text(json.dumps(chrome_trace(spans, start)))
    else:
        metrics = end_to_end_metrics(baseline, wall_s, setup_s)

    # BENCHMARK.json lists the metrics each mode reports, with their units.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    key = f"{_code_digest()}|{workload.name}|{workload.seed}|trace={args.trace}"
    if not _matches_earlier_runs(key, values):
        print("determinism: simulated values differ from an earlier run of this code and seed")
        drift += 1
    failed = sum(baseline.outcomes[r] for r in RESULT_FAILURES) + drift + len(missing)

    print(f"perfbench {workload.name} seed={workload.seed} trace={args.trace}")
    print(f"provenance {json.dumps(_provenance(workload), sort_keys=True)}")
    print(f"reference round s (host speed): {_spread(references)}")
    print(f"setup_s raw (fresh-interpreter import): {_spread(setups)}")
    print(f"untraced pass wall_s raw: {_spread(walls)}")
    print(f"at reference speed: wall_s {wall_s:.4f} setup_s {setup_s:.4f}")
    if args.trace:
        print(f"traced pass wall_s raw: {_spread([w / 1e9 for w, *_ in traced])}")
        print(f"spans of the fastest traced pass: {trace_path.relative_to(ROOT)}")
    _print_cases(baseline)
    if drift:
        print(f"determinism: {drift} simulated values changed between passes or runs")
    _print_hardware_reference(baseline)
    if missing:
        print(f"missing metrics: {', '.join(missing)}")

    payload = {
        "correct": failed == 0,
        "attempted": baseline.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed
            if m["name"] in metrics
        },
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
