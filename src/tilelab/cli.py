"""Command-line harness.

Subcommands: `ladder` runs the four-rung ablation and writes reports,
`sweep` runs the single- vs multi-thread size sweep, `dump-ir` prints the
module text after a chosen pipeline stage, and `verify` checks functional
equivalence end to end.  Exit codes: 0 success, 1 verification or run
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    BenchError,
    DEFAULT_SWEEP_SIZES,
    functional_check,
    run_ladder,
    run_sweep,
)
from .kernels import KernelKind, KernelSpec, build_kernel, gelu, vec_add_2d
from .machine import LadderRung, MachineConfig, load_machine_config
from .passes import STAGE_INITIAL, PipelineSpec, pipeline_stage_names, run_pipeline_stages
from .printer import print_module
from .reports import emit_csv, emit_json, emit_svg, write_report_files

_KERNELS = tuple(k.value for k in KernelKind)
_RUNGS = tuple(r.value for r in LadderRung)
_STAGES = (
    STAGE_INITIAL,
    *dict.fromkeys(name for rung in LadderRung for name in pipeline_stage_names(rung)),
    "final",
)


def _kernel_spec(name: str) -> KernelSpec:
    if name == KernelKind.VEC_ADD_2D.value:
        return vec_add_2d()
    return gelu()


def _machine(args: argparse.Namespace) -> MachineConfig:
    if args.machine is None:
        return MachineConfig()
    return load_machine_config(args.machine)


def _formats(raw: str) -> tuple[str, ...]:
    formats = tuple(part.strip() for part in raw.split(",") if part.strip())
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            raise argparse.ArgumentTypeError(f"unknown format {fmt!r}")
    if not formats:
        raise argparse.ArgumentTypeError("at least one format is required")
    return formats


def _sizes(raw: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"sizes must be integers: {exc}")
    if not sizes:
        raise argparse.ArgumentTypeError("at least one size is required")
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"sizes must be >= 1, got {min(sizes)}")
    if list(sizes) != sorted(set(sizes)):
        raise argparse.ArgumentTypeError(f"sizes must be strictly ascending, got {raw}")
    return sizes


def _repeat(raw: str) -> int:
    try:
        count = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"repeat must be an integer, got {raw!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"repeat must be >= 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilelab",
        description="Tile-IR rewrite lab with a timed edge-NPU simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ladder = sub.add_parser("ladder", help="run the four-rung ablation ladder")
    ladder.add_argument("--kernel", choices=_KERNELS, required=True)
    ladder.add_argument("--machine", type=Path, default=None, help="machine config JSON")
    ladder.add_argument("--out", type=Path, required=True, help="output directory")
    ladder.add_argument("--format", type=_formats, default=("csv", "json", "svg"))
    ladder.add_argument("--repeat", type=_repeat, default=1, help="re-run and require identical bytes")

    sweep = sub.add_parser("sweep", help="run the single- vs multi-thread size sweep")
    sweep.add_argument("--kernel", choices=(KernelKind.GELU.value,), required=True)
    sweep.add_argument("--sizes", type=_sizes, default=DEFAULT_SWEEP_SIZES)
    sweep.add_argument("--machine", type=Path, default=None)
    sweep.add_argument("--out", type=Path, required=True)
    sweep.add_argument("--format", type=_formats, default=("csv", "json", "svg"))
    sweep.add_argument("--repeat", type=_repeat, default=1)

    dump = sub.add_parser("dump-ir", help="print the module text after a pipeline stage")
    dump.add_argument("--kernel", choices=_KERNELS, required=True)
    dump.add_argument("--rung", choices=_RUNGS, required=True)
    dump.add_argument("--stage", choices=_STAGES, default="final")
    dump.add_argument("--machine", type=Path, default=None)

    verify = sub.add_parser("verify", help="check functional equivalence for a rung")
    verify.add_argument("--kernel", choices=_KERNELS, required=True)
    verify.add_argument("--rung", choices=_RUNGS, required=True)
    verify.add_argument("--machine", type=Path, default=None)

    return parser


def _emit_payload(report) -> dict[str, str]:
    payload = {"csv": emit_csv(report), "json": emit_json(report)}
    payload.update({f"svg:{name}": text for name, text in emit_svg(report).items()})
    return payload


def _run_report(args: argparse.Namespace, runner) -> int:
    cfg = _machine(args)
    report = runner(cfg)
    if args.repeat > 1:
        first = _emit_payload(report)
        for _ in range(args.repeat - 1):
            if _emit_payload(runner(cfg)) != first:
                print("error: repeated runs produced different bytes", file=sys.stderr)
                return 1
    paths = write_report_files(report, args.out, args.format)
    for path in paths:
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "ladder":
            kernel = _kernel_spec(args.kernel)
            return _run_report(args, lambda cfg: run_ladder(kernel, cfg))
        if args.command == "sweep":
            kernel = _kernel_spec(args.kernel)
            return _run_report(args, lambda cfg: run_sweep(kernel, args.sizes, cfg))
        if args.command == "dump-ir":
            cfg = _machine(args)
            rung = LadderRung(args.rung)
            stages = run_pipeline_stages(
                build_kernel(_kernel_spec(args.kernel), tcm_capacity=cfg.tcm_capacity),
                PipelineSpec(rung, cfg),
            )
            wanted = args.stage
            if wanted == "final":
                module = stages[-1][1]
            else:
                valid = (STAGE_INITIAL,) + pipeline_stage_names(rung)
                if wanted not in valid:
                    print(
                        f"error: stage {wanted!r} is not part of the {rung.value} pipeline"
                        f" (stages: {', '.join(valid)})",
                        file=sys.stderr,
                    )
                    return 2
                module = dict(stages)[wanted]
            sys.stdout.write(print_module(module))
            return 0
        if args.command == "verify":
            cfg = _machine(args)
            failures = functional_check(_kernel_spec(args.kernel), LadderRung(args.rung), cfg)
            if failures:
                for failure in failures:
                    print(f"FAIL {args.kernel} {args.rung}: {failure}", file=sys.stderr)
                return 1
            print(f"OK {args.kernel} {args.rung}: outputs match the reference")
            return 0
    except (BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
