"""Span tracing for the benchmark's traced run.

`Tracer.install` rebinds the public functions that tilelab's entry points
call (in the `tilelab.bench`, `tilelab.passes` and `tilelab.reports`
namespaces) to wrappers that record one span per call: name, layer, start,
end and the enclosing span.  Spans stay in memory; a layer's self time is
the duration of its spans minus the part their child spans cover.

Observations that need extra work (dynamic op counts, IR sizes, captured
timing reports) run in hooks after the span has closed.  Their cost is
charged to no layer, so it shows in the unattributed remainder and in the
tracing overhead, never in a layer's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from tilelab import bench, passes, reports
from tilelab.ir import dynamic_schedule, walk_module

LAYERS = ("kernels", "passes", "verifier", "interp", "sim", "machine", "bench", "reports")

# (namespace, function name, layer).  `ir` and `printer` are data and text
# helpers and `cli` is a shell over `bench`, so none of them is traced.
TRACED = (
    (bench, "make_inputs", "kernels"),
    (bench, "reference_output", "kernels"),
    (bench, "build_kernel", "kernels"),
    (bench, "run_pipeline", "passes"),
    (passes, "vectorize", "passes"),
    (passes, "form_virtual_threads", "passes"),
    (passes, "form_async_threads", "passes"),
    (passes, "db_stage1", "passes"),
    (passes, "db_stage2", "passes"),
    (bench, "verify_module", "verifier"),
    (bench, "interpret_functional", "interp"),
    (bench, "simulate_timed", "sim"),
    (bench, "collect_stats", "machine"),
    (bench, "run_ladder", "bench"),
    (bench, "run_sweep", "bench"),
    (bench, "run_rung", "bench"),
    (bench, "functional_check", "bench"),
    (bench, "outputs_match", "bench"),
    (reports, "emit_csv", "reports"),
    (reports, "emit_json", "reports"),
    (reports, "emit_svg", "reports"),
)


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    parent: int  # index of the enclosing span, -1 at top level
    start: int = 0  # perf_counter_ns
    end: int = 0
    excluded: int = 0  # hook time under this span, charged to no layer


class Tracer:
    """Records spans and per-call observations for one pass at a time."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.interp_ops = 0
        self.sim_ops = 0
        self.mt_declined = 0
        self.report_bytes = 0
        self.rung_runs: dict[tuple, object] = {}  # (spec, cfg, rung) -> RungRun
        self.ir_ops: dict[tuple, int] = {}  # (spec, lanes, threads, rung) -> op count
        self._op_counts: dict[int, tuple[object, int]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for namespace, name, layer in TRACED:
            original = getattr(namespace, name)
            self._saved.append((namespace, name, original))
            setattr(namespace, name, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._saved):
            setattr(namespace, name, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str):
        hook = getattr(self, f"_on_{name}", None)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = Span(name, layer, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                if stack:
                    spans[stack[-1]].excluded += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observation hooks (run outside the span they observe) --------------

    def _dynamic_ops(self, module) -> int:
        cached = self._op_counts.get(id(module))
        if cached is None:
            cached = (module, sum(1 for _ in dynamic_schedule(module)))
            self._op_counts[id(module)] = cached  # keeps the module alive
        return cached[1]

    def _on_interpret_functional(self, args, result) -> None:
        self.interp_ops += self._dynamic_ops(args[0])

    def _on_simulate_timed(self, args, result) -> None:
        self.sim_ops += self._dynamic_ops(args[0])

    def _on_run_rung(self, args, result) -> None:
        kernel, rung, cfg = args[:3]
        self.rung_runs[(kernel, cfg, rung)] = result

    def _on_run_pipeline(self, args, result) -> None:
        base, spec = args
        key = (base.kernel, spec.lanes, spec.mt.threads, spec.rung)
        self.ir_ops[key] = sum(1 for _ in walk_module(result))

    def _on_form_virtual_threads(self, args, result) -> None:
        if result is args[0]:
            self.mt_declined += 1

    def _on_emit_csv(self, args, result) -> None:
        self.report_bytes += len(result.encode())

    _on_emit_json = _on_emit_csv

    def _on_emit_svg(self, args, result) -> None:
        self.report_bytes += sum(len(text.encode()) for text in result.values())

    # -- aggregation --------------------------------------------------------

    def self_times(self, wall_ns: int) -> dict[str, int]:
        """Self time per layer plus `unattributed`, in ns; sums to wall_ns."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end - span.start
        out = dict.fromkeys(LAYERS, 0)
        for span, children in zip(self.spans, child_ns):
            out[span.layer] += span.end - span.start - children - span.excluded
        out["unattributed"] = wall_ns - sum(out.values())
        return out

    def total_ns(self) -> dict[str, int]:
        """Summed span duration per traced function name."""
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += span.end - span.start
        return out


def chrome_trace(spans: list[Span], origin_ns: int) -> dict:
    """Spans as Chrome Trace Event JSON (viewable in Perfetto)."""
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (span.start - origin_ns) / 1000,
            "dur": (span.end - span.start) / 1000,
            "args": {"id": index, "parent": span.parent},
        }
        for index, span in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
