"""Differential survey: every rung of a fixed set of cases, one JSON line per
rung run, and a comparison of two such surveys.

The cases are the benchmark's design-grid draws (`perfbench.workloads.
grid_draw`, read only) of seeds 1, 7 and 8, the two design-grid anchors of
each seed, the default vec-add and GELU, and GELU over 2^16 elements in
1,024-element tiles: 969 cases, 3,876 rung runs.  Each line holds the
case label, seed, machine digest and rung; the printed IR's sha256 (first
16 hex digits) after every pass stage, and the final module's under
"final"; then either the PassError message, or every TimingReport field,
the schedule floor, a sha256 of the outputs and the functional_check
failures.

    python tools/survey.py --out survey.jsonl
    python tools/survey.py --compare before.jsonl after.jsonl

The survey runs the tilelab of the checkout it sits in: to survey another
checkout, run a copy of this file placed in that checkout's `tools/`.
`--compare` counts the runs whose behaviour is identical and each kind of
difference, and lists the largest cycle moves each way.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import case_label, grid_draw  # noqa: E402
from tilelab import bench  # noqa: E402
from tilelab.kernels import build_kernel, gelu, vec_add_2d  # noqa: E402
from tilelab.machine import RUNG_ORDER, MachineConfig  # noqa: E402
from tilelab.passes import PassError, PipelineSpec, run_pipeline_stages  # noqa: E402
from tilelab.printer import print_module  # noqa: E402

SEEDS = (1, 7, 8)
# Fields of a run that are its behaviour; the stage hashes are not, since
# the stage list itself may change.  A run that does not compile has a
# PassError message or, where the verifier rejects its module, an error.
BEHAVIOUR = ("final", "pass_error", "error", "timing", "floor", "outputs", "functional")
# What --compare reports of two runs that both compile, field by field.
FIELDS = (
    ("timing", "timing changed"),
    ("floor", "floor moved"),
    ("outputs", "output changed"),
    ("functional", "functional_check changed"),
    ("final", "IR changed: final"),
)
KINDS = (
    "identical", "faster", "slower", "newly compiling", "newly refused", "message changed",
    *(kind for _, kind in FIELDS), "only in A", "only in B",
)
TOP = 5


def survey_cases(seeds=SEEDS) -> list:
    """(kernel spec, machine config) of every surveyed case, in order."""
    default = MachineConfig()
    cases = []
    for seed in seeds:
        cases += grid_draw(seed)
        cases += [
            (vec_add_2d(64, 2048, 8, seed=seed), default),
            (gelu(16 * 4096, 4096, seed=seed), default),
        ]
    return cases + [(vec_add_2d(), default), (gelu(), default), (gelu(1 << 16, 1024), default)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def survey_run(spec, cfg, rung) -> dict:
    """One rung run of one case, as survey lines record it."""
    record = {
        "case": case_label(spec), "seed": spec.seed, "machine": cfg.digest, "rung": rung.value
    }
    base = build_kernel(spec, tcm_capacity=cfg.tcm_capacity)
    try:
        stages = run_pipeline_stages(base, PipelineSpec(rung, cfg))
    except PassError as exc:
        return {**record, "pass_error": str(exc)}
    record["stages"] = {name: _sha(print_module(m).encode()) for name, m in stages}
    record["final"] = _sha(print_module(stages[-1][1]).encode())
    try:
        run = bench.run_rung(spec, rung, cfg)
    except bench.BenchError as exc:
        return {**record, "error": str(exc)}
    outputs = b"".join(n.encode() + run.outputs[n].tobytes() for n in sorted(run.outputs))
    record["timing"] = dataclasses.asdict(run.timing)
    record["floor"] = run.lower_bound
    record["outputs"] = _sha(outputs)
    record["functional"] = bench.functional_check(spec, rung, cfg)
    return record


def survey_lines(cases):
    """One sorted JSON line per rung run of every case."""
    for spec, cfg in cases:
        for rung in RUNG_ORDER:
            yield json.dumps(survey_run(spec, cfg, rung), sort_keys=True)


def _key(record: dict) -> tuple:
    return record["case"], record["seed"], record["machine"], record["rung"]


def _failure(record: dict) -> str | None:
    """Why the run does not compile, or None when it does."""
    return record.get("pass_error", record.get("error"))


def differences(a_lines, b_lines) -> tuple[Counter, list]:
    """Counts of each kind of difference between two surveys (see KINDS),
    and the (cycle move, key, before, after) of every run both compile
    whose cycles moved."""
    a = {_key(r): r for r in map(json.loads, a_lines)}
    b = {_key(r): r for r in map(json.loads, b_lines)}
    counts, moves = Counter(dict.fromkeys(KINDS, 0)), []
    counts["only in A"] = len(a.keys() - b.keys())
    counts["only in B"] = len(b.keys() - a.keys())
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        counts["identical"] += all(x.get(f) == y.get(f) for f in BEHAVIOUR)
        fx, fy = _failure(x), _failure(y)
        if fx is not None or fy is not None:
            if fx is None or fy is None:
                counts["newly compiling" if fy is None else "newly refused"] += 1
            else:
                counts["message changed"] += fx != fy
            continue
        cx, cy = x["timing"]["total_cycles"], y["timing"]["total_cycles"]
        if cx != cy:
            counts["faster" if cy < cx else "slower"] += 1
            moves.append((cy - cx, key, cx, cy))
        for field, kind in FIELDS:
            counts[kind] += x[field] != y[field]
        for stage in sorted(x["stages"].keys() | y["stages"].keys()):
            hx, hy = x["stages"].get(stage), y["stages"].get(stage)
            if hx is None or hy is None:
                counts[f"stage only in {'B' if hx is None else 'A'}: {stage}"] += 1
            else:
                counts[f"IR changed: {stage}"] += hx != hy
    return counts, sorted(moves)


def compare_report(a_lines, b_lines) -> str:
    """differences as text: every count, then the largest gains and losses
    in cycles."""
    counts, moves = differences(a_lines, b_lines)
    kinds = [*KINDS, *sorted(counts.keys() - set(KINDS))]
    lines = [f"{kind}: {counts[kind]}" for kind in kinds]
    gains = [m for m in moves if m[0] < 0][:TOP]
    losses = [m for m in reversed(moves) if m[0] > 0][:TOP]
    for title, picked in (("largest gains", gains), ("largest losses", losses)):
        lines.append(f"{title}:")
        for delta, (case, seed, machine, rung), before, after in picked:
            lines.append(f"  {case} seed {seed} machine {machine} {rung}: {before} -> {after}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the survey here (default: stdout)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (path.read_text().splitlines() for path in args.compare)
        sys.stdout.write(compare_report(a, b))
        return 0
    text = "".join(line + "\n" for line in survey_lines(survey_cases()))
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
