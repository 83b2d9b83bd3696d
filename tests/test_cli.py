from dataclasses import replace

import pytest

from atmarl import cli
from atmarl.agents import PretrainConfig
from atmarl.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from atmarl.config import default_scenario, write_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    write_scenario(default_scenario(), path)
    return path


@pytest.fixture()
def quick_pretrain(monkeypatch):
    """Shrink pre-training so the CLI path stays fast."""
    plan_from_args = cli._plan_from_args
    quick = PretrainConfig(episodes=60, episode_length=10)
    monkeypatch.setattr(cli, "_plan_from_args", lambda args: replace(plan_from_args(args), pretrain_cfg=quick))


def run_cli(*args):
    return main([str(a) for a in args])


def test_cli_rejects_unknown_approach(scenario_file, tmp_path):
    rc = run_cli("evaluate", "--scenario", scenario_file, "--out", tmp_path, "--approach", "Wat")
    assert rc == EXIT_CONFIG


def test_cli_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nbandwidth_mbps = -3\n\n[service:cv0]\nkind = CV\ndemand_mbps = 1\nue_count = 1\n")
    rc = run_cli("full", "--scenario", bad, "--out", tmp_path / "out")
    assert rc == EXIT_CONFIG


def test_cli_evaluate_without_checkpoint_fails_with_stage_code(scenario_file, tmp_path):
    rc = run_cli(
        "evaluate", "--scenario", scenario_file, "--out", tmp_path / "out",
        "--approach", "ATMARL", "--seed", 1,
    )
    assert rc == EXIT_STAGE


def test_cli_pretrain_then_evaluate_baseline(scenario_file, tmp_path, quick_pretrain):
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        rc = run_cli("pretrain", "--scenario", scenario_file, "--out", out)
    assert rc == EXIT_OK
    assert (out / "pretrain.ckpt").exists()
    assert (out / "pretrain_log.csv").exists()

    rc = run_cli(
        "evaluate", "--scenario", scenario_file, "--out", out, "--approach", "RuleBased",
        "--seed", 1, "--episode-length", 12,
    )
    assert rc == EXIT_OK
    assert (out / "trace_RuleBased_seed1.csv").exists()
    assert (out / "summary.csv").exists()


def test_cli_shift_flag_parsing(scenario_file, tmp_path, quick_pretrain):
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        assert run_cli("pretrain", "--scenario", scenario_file, "--out", out) == EXIT_OK
    rc = run_cli(
        "evaluate", "--scenario", scenario_file, "--out", out, "--approach", "NaiveParallel",
        "--seed", 2, "--episode-length", 20, "--shift", "5:gaussian,12:gamma",
    )
    assert rc == EXIT_OK
    text = (out / "trace_NaiveParallel_seed2.csv").read_text()
    assert "Gaussian" in text and "Gamma" in text
