"""Command-line interface: subcommands, exit codes, file outputs."""

import json

import pytest

from tilelab.cli import build_parser, main
from tilelab.machine import LadderRung, MachineConfig
from tilelab.passes import STAGE_INITIAL, pipeline_stage_names


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


@pytest.mark.parametrize("sizes", ["0,4096", "-4096", "4096,0"])
def test_sweep_rejects_non_positive_sizes(tmp_path, capsys, sizes):
    code = main(["sweep", "--kernel", "gelu", "--sizes", sizes, "--out", str(tmp_path / "s")])
    assert code == 2
    assert "sizes must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("sizes", ["8192,4096", "4096,4096", "4096,16384,8192"])
def test_sweep_rejects_sizes_out_of_order(tmp_path, capsys, sizes):
    code = main(["sweep", "--kernel", "gelu", "--sizes", sizes, "--out", str(tmp_path / "s")])
    assert code == 2
    assert f"sizes must be strictly ascending, got {sizes}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["ladder", "sweep"])
@pytest.mark.parametrize("repeat", ["0", "-3", "two"])
def test_bad_repeat_is_usage_error(tmp_path, capsys, command, repeat):
    kernel = "gelu" if command == "sweep" else "vec-add-2d"
    code = main([command, "--kernel", kernel, "--out", str(tmp_path / "r"), "--repeat", repeat])
    assert code == 2
    assert "repeat must be" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


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
    assert " ping {" in stage1 and "} pong {" in stage1 and "dma.start" not in stage1


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


@pytest.mark.parametrize(
    "config, field",
    [
        ('{"threads": 2.5}', "threads"),
        ('{"dma_bandwidth": "512"}', "dma_bandwidth"),
        ('{"lanes": 8.5}', "lanes"),
        ('{"lanes": true}', "lanes"),
        ('{"clock_hz": NaN}', "clock_hz"),
    ],
)
def test_malformed_machine_config_value_is_a_run_failure(tmp_path, capsys, config, field):
    path = tmp_path / "m.json"
    path.write_text(config)
    code = main(["verify", "--kernel", "gelu", "--rung", "vec-mt", "--machine", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"field {field} must be" in err


def test_a_clock_past_the_float_range_is_a_run_failure(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"clock_hz": 1' + "0" * 400 + "}")
    code = main(["verify", "--kernel", "gelu", "--rung", "vec-mt", "--machine", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "field clock_hz must be a finite number" in err


def test_repeat_flag_checks_identity(tmp_path):
    out = tmp_path / "r"
    code = main(["ladder", "--kernel", "vec-add-2d", "--out", str(out), "--repeat", "2"])
    assert code == 0


@pytest.mark.parametrize(
    "stage",
    [
        "initial",
        "pipeline-threads",
        "pipeline-async-threads",
        "db-stage1",
        "db-stage2",
        "vectorize",
        "final",
    ],
)
def test_every_stage_choice_accepted(stage):
    args = build_parser().parse_args(
        ["dump-ir", "--kernel", "vec-add-2d", "--rung", "vec-mt-db", "--stage", stage]
    )
    assert args.stage == stage


@pytest.mark.parametrize("stage", ["form-virtual-threads", "form-async-threads"])
def test_a_stage_in_no_rung_is_no_choice(stage):
    # vec-mt forks in pipeline-threads and pipeline-async-threads, as vec-mt-db does.
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["dump-ir", "--kernel", "vec-add-2d", "--rung", "vec-mt", "--stage", stage]
        )


def test_stage_lists_per_rung():
    # Both MT rungs fork in pipeline-threads, each thread at its own tile
    # rows, and lower the fork; they differ only by the two double-buffering
    # stages.
    assert {rung.value: pipeline_stage_names(rung) for rung in LadderRung} == {
        "scalar": (),
        "vec": ("vectorize",),
        "vec-mt": ("pipeline-threads", "pipeline-async-threads", "vectorize"),
        "vec-mt-db": (
            "pipeline-threads", "pipeline-async-threads", "db-stage1", "db-stage2", "vectorize"
        ),
    }


def _is_subsequence(short, long):
    rest = iter(long)
    return all(name in rest for name in short)


def test_stage_lists_nest():
    """Each rung adds its mechanism's stages to the rung below: vec-mt-db is
    vec-mt with the two double-buffering stages inserted before vectorize,
    and vec's one stage runs, in order, in both MT rungs."""
    vec, mt, db = (
        pipeline_stage_names(rung)
        for rung in (LadderRung.VEC, LadderRung.VEC_MT, LadderRung.VEC_MT_DB)
    )
    at = mt.index("vectorize")
    assert db == (*mt[:at], "db-stage1", "db-stage2", *mt[at:])
    assert pipeline_stage_names(LadderRung.SCALAR) == ()
    assert _is_subsequence(vec, mt) and _is_subsequence(vec, db)


def test_dump_ir_of_a_stage_outside_the_rung_is_an_error(capsys):
    args = ["dump-ir", "--kernel", "gelu", "--stage", "db-stage1", "--rung"]
    assert main([*args, "vec-mt-db"]) == 0
    assert capsys.readouterr().out.startswith("buffer @")
    assert main([*args, "vec-mt"]) == 2
    assert "not part of the vec-mt pipeline" in capsys.readouterr().err


def test_stage_names_are_static_and_duplicate_free():
    parser = build_parser()
    for rung in LadderRung:
        names = pipeline_stage_names(rung)
        assert len(set(names)) == len(names), rung
        assert STAGE_INITIAL not in names and "final" not in names
        for name in names:
            args = parser.parse_args(
                ["dump-ir", "--kernel", "gelu", "--rung", rung.value, "--stage", name]
            )
            assert args.stage == name


@pytest.mark.parametrize("kernel", ["vec-add-2d", "gelu"])
def test_dump_ir_every_vec_mt_db_stage(capsys, kernel):
    for stage in (STAGE_INITIAL, *pipeline_stage_names(LadderRung.VEC_MT_DB), "final"):
        assert main(["dump-ir", "--kernel", kernel, "--rung", "vec-mt-db", "--stage", stage]) == 0
        assert capsys.readouterr().out.startswith("buffer @")
