"""The differential survey, `tools/survey.py`: a rerun writes the same bytes,
a survey compared with itself shows no change, and a changed run is
counted by its kind."""

import importlib.util
import json
import sys
from pathlib import Path

from tilelab.kernels import gelu, vec_add_2d
from tilelab.machine import MachineConfig

SURVEY = Path(__file__).resolve().parents[1] / "tools" / "survey.py"

# A forked vec-add, a GELU on two threads, and a case whose vec and MT rungs
# refuse (a 6x6 tile's 32-lane vector body ends mid-row).
CASES = [
    (vec_add_2d(8, 64, 1), MachineConfig(lanes=8, threads=4)),
    (gelu(4096, 1024), MachineConfig(lanes=8, threads=2)),
    (vec_add_2d(29, 6, 6), MachineConfig(lanes=32, threads=4)),
]


def _load_survey():
    spec = importlib.util.spec_from_file_location("tools_survey", SURVEY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_the_survey_covers_the_grounding_cases():
    # Three seeds of 320 grid draws, two anchors per seed, and three defaults.
    assert len(_load_survey().survey_cases()) == 969


def test_a_rerun_is_byte_identical_and_compares_unchanged():
    survey = _load_survey()
    first = list(survey.survey_lines(CASES))
    assert list(survey.survey_lines(CASES)) == first
    records = [json.loads(line) for line in first]
    assert len(records) == 4 * len(CASES)
    assert any("pass_error" in r for r in records)
    assert all(r["functional"] == [] and "final" in r for r in records if "timing" in r)
    counts, moves = survey.differences(first, first)
    assert counts["identical"] == len(first) and moves == []
    assert {kind for kind, n in counts.items() if n} == {"identical"}
    report = survey.compare_report(first, first)
    assert report.startswith(f"identical: {len(first)}\nfaster: 0\nslower: 0\n")


def test_compare_counts_each_kind_of_change():
    survey = _load_survey()
    before = list(survey.survey_lines(CASES[:1]))
    records = [json.loads(line) for line in before]
    mt = records[2]
    assert mt["rung"] == "vec-mt" and mt["stages"]["pipeline-async-threads"]
    slower = {**mt["timing"], "total_cycles": mt["timing"]["total_cycles"] + 7}
    records[2] = {**mt, "timing": slower, "floor": mt["floor"] + 1}
    del records[2]["stages"]["pipeline-async-threads"]
    records[3] = {key: records[3][key] for key in ("case", "seed", "machine", "rung")}
    records[3]["pass_error"] = "refused"
    after = [json.dumps(r, sort_keys=True) for r in records]
    counts, moves = survey.differences(before, after)
    changed = {kind: n for kind, n in counts.items() if n}
    assert changed == {
        "identical": 2, "slower": 1, "newly refused": 1, "timing changed": 1, "floor moved": 1,
        "stage only in A: pipeline-async-threads": 1,
    }
    assert [(delta, rung) for delta, (_, _, _, rung), _, _ in moves] == [(7, "vec-mt")]
    assert "largest losses:\n  vec-add-2d:8x64/1 seed 1" in survey.compare_report(before, after)
