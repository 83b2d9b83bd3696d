import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from atmarl import cli
from atmarl.agents import PretrainConfig
from atmarl.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from atmarl.config import default_scenario, write_scenario
from atmarl.experiments import SUPERVISOR_EPISODES, uniform_comparison_plan


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


def test_cli_default_plan_trains_the_canonical_budget(scenario_file, tmp_path):
    args = cli.build_parser().parse_args(["full", "--scenario", str(scenario_file), "--out", str(tmp_path)])
    plan = cli._plan_from_args(args)
    canonical = uniform_comparison_plan()
    assert plan.train_cfg == canonical.train_cfg
    assert plan.train_cfg.episodes == SUPERVISOR_EPISODES
    assert plan.episode_length == canonical.episode_length
    assert plan.seeds == canonical.seeds


def test_cli_options_override_the_plan_defaults(scenario_file, tmp_path):
    args = cli.build_parser().parse_args(
        ["full", "--scenario", str(scenario_file), "--out", str(tmp_path), "--episodes", "7",
         "--episode-length", "50", "--shift", "45:gamma", "--seed", "4"]
    )
    plan = cli._plan_from_args(args)
    assert (plan.train_cfg.episodes, plan.episode_length, plan.seeds) == (7, 50, (4,))


def test_cli_rejects_unknown_approach(scenario_file, tmp_path):
    rc = run_cli("evaluate", "--scenario", scenario_file, "--out", tmp_path, "--approach", "Wat")
    assert rc == EXIT_CONFIG


def test_cli_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nbandwidth_mbps = -3\n\n[service:cv0]\nkind = CV\ndemand_mbps = 1\nue_count = 1\n")
    rc = run_cli("full", "--scenario", bad, "--out", tmp_path / "out")
    assert rc == EXIT_CONFIG


def test_cli_rejects_negative_shift(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("full", "--scenario", scenario_file, "--out", out, "--shift=-3:gamma")
    assert rc == EXIT_CONFIG
    assert "config error: shift timesteps must fall inside the episode" in capsys.readouterr().err
    assert not (out / "pretrain.ckpt").exists()


@pytest.mark.parametrize("verb", ["evaluate", "full"])
def test_cli_rejects_negative_seed_before_any_stage(scenario_file, tmp_path, capsys, verb):
    # numpy would refuse it only when evaluation starts, after pre-training and training under full
    out = tmp_path / "out"
    rc = run_cli(verb, "--scenario", scenario_file, "--out", out, "--seed", 1, "--seed", -1)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: evaluation seed must be non-negative, got -1"], err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("full", "--approach", "Oracle"),
        ("full", "--checkpoint", "d"),
        ("pretrain", "--episodes", 3),
        ("evaluate", "--episodes", 3),
        ("train-supervisor", "--seed", 1),
    ],
    ids=["full-approach", "full-checkpoint", "pretrain-episodes", "evaluate-episodes", "train-seed"],
)
def test_cli_refuses_an_option_the_verb_does_not_read(scenario_file, tmp_path, capsys, args):
    verb, *option = args
    with pytest.raises(SystemExit) as exited:
        run_cli(verb, "--scenario", scenario_file, "--out", tmp_path / "out", *option)
    assert exited.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.ini"]


def test_cli_verbs_take_the_documented_options(capsys):
    values = {
        "--approach": "ATMARL", "--seed": "1", "--episodes": "1", "--checkpoint": "d", "--shift": "1:gamma",
        "--episode-length": "2", "--eval-distribution": "gaussian",
    }
    parser = cli.build_parser()
    taken = {}
    for verb in ("pretrain", "train-supervisor", "evaluate", "full"):
        taken[verb] = []
        for option, value in values.items():
            try:
                parser.parse_args([verb, "--scenario", "s.ini", "--out", "o", option, value])
            except SystemExit as exited:
                assert exited.code == EXIT_CONFIG
            else:
                taken[verb].append(option)
    capsys.readouterr()
    assert taken == {
        "pretrain": [],
        "train-supervisor": ["--approach", "--episodes", "--checkpoint", "--eval-distribution"],
        "evaluate": ["--approach", "--seed", "--checkpoint", "--shift", "--episode-length", "--eval-distribution"],
        "full": ["--seed", "--episodes", "--shift", "--episode-length", "--eval-distribution"],
    }


def test_cli_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    examples = block.replace("\\\n", " ").splitlines()
    assert len(examples) == 5, examples
    for line in examples:
        prog, *argv = shlex.split(line)
        assert prog == "atmarl"
        cli.build_parser().parse_args(argv)


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


@pytest.mark.parametrize(
    "args",
    [
        ("train-supervisor", "--episodes", -3),
        ("train-supervisor", "--episodes", 0),
        ("evaluate", "--episode-length", 0),
        ("full", "--episode-length", -2),
    ],
    ids=["negative-episodes", "zero-episodes", "zero-length", "negative-length"],
)
def test_cli_rejects_non_positive_counts(scenario_file, tmp_path, capsys, args):
    verb, *option = args
    rc = run_cli(verb, "--scenario", scenario_file, "--out", tmp_path / "out", *option)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not list((tmp_path / "out").glob("*"))


def _first_block_line_end(data):
    start = data.index(b"\nblock ") + 1
    return start, data.index(b"\n", start)


def _garble_value(data):
    _, end = _first_block_line_end(data)
    body = bytearray(data)
    body[end + 5] ^= 0x01  # one bit of the first block's first value
    return bytes(body)


def _garble_shape(data):
    start, end = _first_block_line_end(data)
    fields = data[start:end].split(b" ")
    fields[3] = b"8x"
    return data[:start] + b" ".join(fields) + data[end:]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_garble_value, "checksum mismatch"),
        (_garble_shape, "garbled shape declaration"),
        (lambda data: data[:-100], "value bytes and a newline"),
    ],
    ids=["garbled-value", "garbled-shape", "truncated-block"],
)
def test_cli_evaluate_on_corrupted_pretrain_checkpoint_exits_with_stage_code(
    scenario_file, tmp_path, quick_pretrain, capsys, corrupt, message
):
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        assert run_cli("pretrain", "--scenario", scenario_file, "--out", out) == EXIT_OK
    ckpt = out / "pretrain.ckpt"
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    capsys.readouterr()
    rc = run_cli("evaluate", "--scenario", scenario_file, "--out", out, "--approach", "RuleBased", "--seed", 1)
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "block " in err[0] and message in err[0], err


def test_cli_evaluate_on_another_intent_count_exits_with_stage_code(scenario_file, tmp_path, quick_pretrain, capsys):
    five = tmp_path / "five.ini"
    write_scenario(default_scenario(five_intents=True), five)
    out = tmp_path / "out"
    # the uncontended five-intent slice clears the pre-training reward floor
    assert run_cli("pretrain", "--scenario", five, "--out", out) == EXIT_OK
    capsys.readouterr()
    rc = run_cli("evaluate", "--scenario", scenario_file, "--out", out, "--approach", "RuleBased", "--seed", 1)
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "made for 5 intents, the plan's scenario has 3" in err[0], err
    assert not list(out.glob("trace_*.csv"))


def _mislabel_mode(out):
    ckpt = out / "supervisor_atmarl.ckpt"
    data = ckpt.read_bytes()
    assert b"\nmeta mode agent\n" in data
    ckpt.write_bytes(data.replace(b"\nmeta mode agent\n", b"\nmeta mode bogus\n"))
    return "ATMARL", "supervisor_atmarl.ckpt holds a policy of goal mode 'bogus', the approach needs 'agent'"


def _agent_policy_for_goal_halving(out):
    (out / "supervisor_case1.ckpt").write_bytes((out / "supervisor_atmarl.ckpt").read_bytes())
    return "GoalHalving", "supervisor_case1.ckpt holds a policy of goal mode 'agent', the approach needs 'service'"


@pytest.mark.parametrize("mislabel", [_mislabel_mode, _agent_policy_for_goal_halving], ids=["unknown-mode", "other-mode"])
def test_cli_evaluate_on_a_policy_of_another_goal_mode_exits_with_stage_code(
    scenario_file, tmp_path, quick_pretrain, capsys, mislabel
):
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        assert run_cli("pretrain", "--scenario", scenario_file, "--out", out) == EXIT_OK
    assert run_cli("train-supervisor", "--scenario", scenario_file, "--out", out, "--episodes", 1) == EXIT_OK
    approach, message = mislabel(out)
    capsys.readouterr()
    rc = run_cli("evaluate", "--scenario", scenario_file, "--out", out, "--approach", approach, "--seed", 1)
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert message in err[0], err
    assert not list(out.glob("trace_*.csv"))
