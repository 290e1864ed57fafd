"""Command-line interface: subcommands, exit codes, file outputs."""

import json

import pytest

from tilelab.cli import build_parser, main
from tilelab.machine import MachineConfig


def test_ladder_writes_reports(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["ladder", "--kernel", "vec-add-2d", "--out", str(out)])
    assert code == 0
    assert (out / "ladder.csv").exists()
    assert (out / "ladder.json").exists()
    assert (out / "ladder.svg").exists()
    assert "wrote" in capsys.readouterr().out


def test_format_subset(tmp_path):
    out = tmp_path / "r"
    code = main(["ladder", "--kernel", "vec-add-2d", "--out", str(out), "--format", "csv"])
    assert code == 0
    assert (out / "ladder.csv").exists()
    assert not (out / "ladder.json").exists()


def test_sweep_writes_reports(tmp_path):
    out = tmp_path / "s"
    code = main(
        ["sweep", "--kernel", "gelu", "--sizes", "16384,65536", "--out", str(out)]
    )
    assert code == 0
    assert (out / "sweep.csv").exists()
    assert (out / "sweep_latency.svg").exists()
    assert (out / "sweep_speedup.svg").exists()


def test_sweep_rejects_vec_add(tmp_path, capsys):
    code = main(["sweep", "--kernel", "vec-add-2d", "--out", str(tmp_path)])
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    code = main(["ladder", "--kernel", "vec-add-2d", "--out", str(tmp_path), "--frobnicate"])
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_verify_ok(capsys):
    code = main(["verify", "--kernel", "gelu", "--rung", "vec-mt-db"])
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_verify_all_rungs_vec_add(capsys):
    for rung in ("scalar", "vec", "vec-mt", "vec-mt-db"):
        assert main(["verify", "--kernel", "vec-add-2d", "--rung", rung]) == 0


def test_dump_ir_initial_and_final(capsys):
    assert main(["dump-ir", "--kernel", "vec-add-2d", "--rung", "vec-mt-db"]) == 0
    final = capsys.readouterr().out
    assert "dma.start" in final and "async.execute" in final
    assert main(["dump-ir", "--kernel", "vec-add-2d", "--rung", "vec-mt-db", "--stage", "db-stage1"]) == 0
    stage1 = capsys.readouterr().out
    assert "[db.prefetch]" in stage1 and "dma.start" not in stage1


def test_dump_ir_stage_not_in_pipeline(capsys):
    code = main(["dump-ir", "--kernel", "vec-add-2d", "--rung", "vec", "--stage", "db-stage1"])
    assert code == 2
    assert "not part of" in capsys.readouterr().err


def test_machine_config_flag(tmp_path):
    config = tmp_path / "m.json"
    config.write_text(json.dumps(MachineConfig(threads=2).to_json_dict()))
    out = tmp_path / "r"
    code = main(
        ["ladder", "--kernel", "vec-add-2d", "--machine", str(config), "--out", str(out)]
    )
    assert code == 0
    assert json.loads((out / "ladder.json").read_text())["machine"]["threads"] == 2


def test_bad_machine_config_is_a_run_failure(tmp_path, capsys):
    config = tmp_path / "m.json"
    config.write_text('{"bananas": 1}')
    code = main(["ladder", "--kernel", "vec-add-2d", "--machine", str(config), "--out", str(tmp_path / "r")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_repeat_flag_checks_identity(tmp_path):
    out = tmp_path / "r"
    code = main(["ladder", "--kernel", "vec-add-2d", "--out", str(out), "--repeat", "2"])
    assert code == 0


@pytest.mark.parametrize(
    "stage",
    [
        "initial",
        "db-stage1",
        "db-stage2",
        "vectorize",
        "form-virtual-threads",
        "form-async-threads",
        "final",
    ],
)
def test_every_stage_choice_accepted(stage):
    args = build_parser().parse_args(
        ["dump-ir", "--kernel", "vec-add-2d", "--rung", "vec-mt-db", "--stage", stage]
    )
    assert args.stage == stage
