import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atmarl import harness, supervisor
from atmarl.agents import GOAL_LEVELS, PretrainConfig, agent_roster, goal_value
from atmarl.checkpoint import load_checkpoint, save_checkpoint
from atmarl.baselines import SWITCH_PERIOD
from atmarl.config import default_scenario, load_scenario, write_scenario
from atmarl.errors import CheckpointError, ScenarioError, ShapeMismatchError
from atmarl.harness import (
    Approach,
    Artifacts,
    EpisodeTrace,
    ExperimentPlan,
    evaluate_episode,
    load_policy,
    load_pretrain,
    run_pipeline,
    stage_pretrain,
    stage_train_supervisor,
    summarize,
)
from atmarl.slice_sim import DistributionKind, DistributionSpec
from atmarl.supervisor import (
    TUPLE_DIM,
    EpisodeTape,
    GoalMode,
    TrainConfig,
    create_policy,
    forward_step,
    rollout_episode,
)
from oracles import csv_writer_trace

QUICK_PRETRAIN = PretrainConfig(episodes=120, episode_length=12)
QUICK_TRAIN = TrainConfig(episodes=8, episode_length=12)


def quick_plan(**kwargs):
    defaults = dict(
        scenario=default_scenario(),
        approaches=(Approach.RULE_BASED, Approach.NAIVE_PARALLEL),
        seeds=(1, 2),
        episode_length=12,
        pretrain_cfg=QUICK_PRETRAIN,
        train_cfg=QUICK_TRAIN,
    )
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


def run_quick(plan, out):
    """``run_pipeline`` under the quick pre-training, which misses its reward floor."""
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        return run_pipeline(plan, out)


@pytest.fixture(scope="module")
def pipeline_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    plan = quick_plan(approaches=(Approach.ATMARL, Approach.RULE_BASED))
    return plan, run_quick(plan, out)


# ---------------------------------------------------------------------------
# plan validation


def test_plan_rejects_empty_seeds():
    with pytest.raises(ScenarioError):
        quick_plan(seeds=())


@pytest.mark.parametrize(
    "bad",
    [
        {"episode_length": 0},
        {"train_cfg": TrainConfig(episodes=0)},
        {"train_cfg": TrainConfig(episodes=-3)},
        {"train_cfg": TrainConfig(episodes=2, episode_length=0)},
        {"pretrain_cfg": PretrainConfig(episodes=0)},
    ],
    ids=["eval-length", "train-episodes", "negative-train-episodes", "train-length", "pretrain-episodes"],
)
def test_plan_rejects_non_positive_counts(bad):
    with pytest.raises(ScenarioError, match="positive"):
        quick_plan(**bad)


@pytest.mark.parametrize(
    "bad, name",
    [({"seeds": (1, -1)}, "evaluation seed"), ({"train_seed": -1}, "train_seed"), ({"pretrain_seed": -2}, "pretrain_seed")],
    ids=["eval-seed", "train-seed", "pretrain-seed"],
)
def test_plan_rejects_negative_seeds(bad, name):
    # numpy refuses a negative seed only when the stage that draws from it starts
    with pytest.raises(ScenarioError, match=f"{name} must be non-negative"):
        quick_plan(**bad)


def test_plan_rejects_nonincreasing_shifts():
    gauss = DistributionSpec.of(DistributionKind.GAUSSIAN)
    with pytest.raises(ScenarioError):
        quick_plan(shift_schedule=((8, gauss), (4, gauss)))


def test_plan_rejects_shift_beyond_episode():
    gauss = DistributionSpec.of(DistributionKind.GAUSSIAN)
    with pytest.raises(ScenarioError):
        quick_plan(shift_schedule=((20, gauss),), episode_length=12)


def test_plan_rejects_negative_shift():
    # the engine counts steps from 0, so a shift at t < 0 would never apply
    gamma = DistributionSpec.of(DistributionKind.GAMMA)
    with pytest.raises(ScenarioError, match="inside the episode"):
        quick_plan(shift_schedule=((-3, gamma),))


# ---------------------------------------------------------------------------
# scenario files


def test_scenario_round_trip(tmp_path):
    cfg = default_scenario()
    path = tmp_path / "scenario.ini"
    write_scenario(cfg, path)
    loaded = load_scenario(path)
    assert loaded == cfg


def test_scenario_exact_keys(tmp_path):
    path = tmp_path / "scn.ini"
    path.write_text(
        "[scenario]\n"
        "bandwidth_mbps = 10.0\n"
        "distribution = gaussian\n"
        "dist_weights = 0.2 0.3 0.3 0.2\n"
        "noise_pct = 4.0\n"
        "seed = 11\n"  # a key older files carry; it is ignored
        "\n"
        "[service:cv0]\n"
        "kind = CV\n"
        "demand_mbps = 0.5\n"
        "ue_count = 10\n"
        "kpi_target = 4.2\n"
    )
    cfg = load_scenario(path)
    assert cfg.bandwidth_mbps == 10.0
    assert cfg.distribution.kind is DistributionKind.GAUSSIAN
    assert cfg.distribution.weights == (0.2, 0.3, 0.3, 0.2)
    assert cfg.noise_pct == 4.0
    assert cfg.services[0].kpi_target == 4.2


def test_scenario_missing_file_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.ini")


# ---------------------------------------------------------------------------
# traces


def test_trace_row_count_and_columns(pipeline_result):
    plan, result = pipeline_result
    trace = result.traces[0]
    assert len(trace.rows) == plan.episode_length
    assert trace.columns[0] == "t"
    names = [s.name for s in plan.scenario.services]
    for name in names:
        assert f"kpi_{name}" in trace.columns
    assert trace.columns[-4:] == ["reward", "active_priority", "active_mbr", "dist_kind"]
    goal_cols = [c for c in trace.columns if c.startswith("goal_")]
    knob_cols = [c for c in trace.columns if c.startswith("knob_")]
    assert len(goal_cols) == len(knob_cols) == 2 * len(names)


def test_rule_based_one_system_per_step(pipeline_result):
    plan, result = pipeline_result
    rb = [t for t in result.traces if t.approach is Approach.RULE_BASED][0]
    ap = rb.columns.index("active_priority")
    am = rb.columns.index("active_mbr")
    for i, row in enumerate(rb.rows):
        assert int(row[ap]) + int(row[am]) == 1
        expected_priority = ((i // SWITCH_PERIOD) % 2) == 0
        assert bool(row[ap]) == expected_priority


def test_atmarl_both_systems_active(pipeline_result):
    plan, result = pipeline_result
    atm = [t for t in result.traces if t.approach is Approach.ATMARL][0]
    ap = atm.columns.index("active_priority")
    am = atm.columns.index("active_mbr")
    assert all(int(r[ap]) == 1 and int(r[am]) == 1 for r in atm.rows)


def test_shift_visible_in_trace(tmp_path):
    plan = quick_plan(
        approaches=(Approach.RULE_BASED,),
        seeds=(1,),
        episode_length=14,
        shift_schedule=(
            (5, DistributionSpec.of(DistributionKind.GAUSSIAN)),
            (9, DistributionSpec.of(DistributionKind.GAMMA)),
        ),
    )
    result = run_quick(plan, tmp_path)
    trace = result.traces[0]
    kinds = [row[trace.columns.index("dist_kind")] for row in trace.rows]
    assert kinds[4] == "Uniform"
    assert kinds[5] == "Gaussian"
    assert kinds[8] == "Gaussian"
    assert kinds[9] == "Gamma"
    assert kinds[-1] == "Gamma"


# ---------------------------------------------------------------------------
# summary and report


def test_summary_complete_and_sorted(pipeline_result):
    plan, result = pipeline_result
    pairs = [(r.approach, r.kpi) for r in result.summary]
    assert len(pairs) == len(set(pairs))
    expected = {(a.value, s.name) for a in plan.approaches for s in plan.scenario.services}
    assert set(pairs) == expected
    assert pairs == sorted(pairs, key=lambda p: (p[1], p[0]))


def test_summary_csv_layout(pipeline_result):
    plan, result = pipeline_result
    with open(result.out_dir / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["approach", "kpi", "iae_mean", "iae_std", "conv_time_mean", "oscillation_mean"]
    assert len(rows) == 1 + len(result.summary)


def test_plot_script_emitted(pipeline_result):
    _, result = pipeline_result
    script = (result.out_dir / "plot_kpis.py").read_text()
    assert "matplotlib" in script
    assert "kpi_comparison.png" in script


def test_trace_csv_files_written(pipeline_result):
    plan, result = pipeline_result
    for approach in plan.approaches:
        for seed in plan.seeds:
            assert (result.out_dir / f"trace_{approach.value}_seed{seed}.csv").exists()


def test_train_log_holds_each_episodes_stats_and_losses(tmp_path, monkeypatch):
    # every row of train_log_<approach>.csv is one episode's TrainStats entry,
    # whose losses are those episode_gradients returned for that episode
    plan = quick_plan(approaches=(Approach.GOAL_HALVING,))
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        artifacts = stage_pretrain(plan, tmp_path)
    returned, losses = [], []
    real_train, real_gradients = harness.train_supervisor, supervisor.episode_gradients

    def train(*args):
        returned.append(real_train(*args))
        return returned[-1]

    def gradients(*args):
        acc, terms = real_gradients(*args)
        losses.append(terms)
        return acc, terms

    monkeypatch.setattr(harness, "train_supervisor", train)
    monkeypatch.setattr(supervisor, "episode_gradients", gradients)
    stage_train_supervisor(plan, artifacts, Approach.GOAL_HALVING, tmp_path)
    stats = returned[0]
    with open(tmp_path / "train_log_GoalHalving.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "reward", "grad_norm", "actor_loss", "critic_loss", "entropy"]
    assert [int(row[0]) for row in rows[1:]] == list(range(QUICK_TRAIN.episodes))
    columns = [[float(row[j]) for row in rows[1:]] for j in range(1, 6)]
    assert columns == [stats.episode_rewards, stats.grad_norms, stats.actor_losses, stats.critic_losses, stats.entropies]
    assert stats.actor_losses == [terms["actor"] for terms in losses]
    assert stats.critic_losses == [terms["critic"] for terms in losses]
    assert stats.entropies == [terms["entropy"] for terms in losses]


# ---------------------------------------------------------------------------
# determinism and checkpoint hygiene


def five_intent_training_plan():
    """Two training episodes of the default 40 steps on the five-intent slice."""
    return quick_plan(
        scenario=default_scenario(five_intents=True),
        approaches=(Approach.ATMARL,),
        train_cfg=TrainConfig(episodes=2, episode_length=40),
    )


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the five-intent fusion layer 0's weight gradient, 64 x 40 x 325, is the
    # largest product canonical training runs; what training writes must keep
    # its bits whatever the BLAS pool size. (OpenBLAS keeps a product of this
    # size on one thread; at 200 steps it splits it and the bits move.)
    plan = five_intent_training_plan()
    stage_pretrain(plan, tmp_path)
    tests = Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path[:0] = [{str(tests.parent / 'src')!r}, {str(tests)!r}]; "
        "from pathlib import Path; from test_harness import five_intent_training_plan; "
        "from atmarl.harness import Approach, load_pretrain, stage_train_supervisor; "
        f"plan = five_intent_training_plan(); pre = Path({str(tmp_path)!r}); "
        "stage_train_supervisor(plan, load_pretrain(plan, pre), Approach.ATMARL, Path(sys.argv[1]))"
    )
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written["1"]) == ["supervisor_atmarl.ckpt", "train_log_ATMARL.csv"]
    assert written["1"] == written["2"]


def test_pipeline_byte_identical_reruns(tmp_path):
    plan = quick_plan(approaches=(Approach.ATMARL, Approach.RULE_BASED))
    res_a = run_quick(plan, tmp_path / "a")
    res_b = run_quick(plan, tmp_path / "b")
    for name in ["summary.csv"] + [
        f"trace_{a.value}_seed{s}.csv" for a in plan.approaches for s in plan.seeds
    ]:
        assert (res_a.out_dir / name).read_bytes() == (res_b.out_dir / name).read_bytes(), name


def test_full_run_into_a_used_directory_equals_a_fresh_run(tmp_path):
    # a full run reads no checkpoint: another plan's files in its directory are overwritten, never reused
    def tiny_plan(seed):
        return quick_plan(
            scenario=default_scenario(five_intents=True),  # clears the pre-training reward floor
            approaches=(Approach.ATMARL, Approach.GOAL_HALVING, Approach.RULE_BASED),
            train_seed=seed,
            pretrain_seed=seed,
            pretrain_cfg=PretrainConfig(episodes=2, episode_length=2),
            train_cfg=TrainConfig(episodes=1, episode_length=2),
        )

    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    used, fresh = tmp_path / "used", tmp_path / "fresh"
    run_pipeline(tiny_plan(5), used)
    before = files(used)
    run_pipeline(tiny_plan(6), used)
    run_pipeline(tiny_plan(6), fresh)
    after = files(fresh)
    assert {"pretrain.ckpt", "supervisor_atmarl.ckpt", "supervisor_case1.ckpt", "summary.csv"} <= set(after)
    assert files(used) == after
    assert sorted(before) == sorted(after)
    # the seeds change every checkpoint, so a reused one would show
    assert all(before[name] != after[name] for name in after if name.endswith(".ckpt"))


def test_evaluation_matches_greedy_training_rollout(pipeline_result):
    # an ATMARL evaluation episode is the supervisor-training rollout run greedily
    plan, result = pipeline_result
    artifacts = load_pretrain(plan, result.out_dir)
    load_policy(plan, artifacts, Approach.ATMARL, result.out_dir)
    seed = plan.seeds[0]
    trace = evaluate_episode(plan, artifacts, Approach.ATMARL, seed)
    config = plan.eval_scenario
    traj = rollout_episode(
        artifacts.policies[Approach.ATMARL.value],
        config,
        artifacts.qtables,
        artifacts.policy_capabilities[Approach.ATMARL.value],
        np.random.default_rng(seed),
        plan.episode_length,
        explore=False,
    )
    reward = trace.columns.index("reward")
    assert [row[reward] for row in trace.rows] == traj.rewards
    roster = agent_roster(config)
    goal_cols = [trace.columns.index(f"goal_{a.key}") for a in roster]
    sampled = [
        [goal_value(config.services[a.intent_index].kpi_kind, level) for a, level in zip(roster, levels)]
        for levels in traj.sampled_levels
    ]
    assert [[row[c] for c in goal_cols] for row in trace.rows] == sampled


def test_evaluation_does_not_mutate_checkpoints(tmp_path):
    plan = quick_plan(approaches=(Approach.ATMARL,), seeds=(1,))
    result = run_quick(plan, tmp_path)
    ckpts = sorted(tmp_path.glob("*.ckpt"))
    before = {p.name: p.read_bytes() for p in ckpts}
    artifacts = load_pretrain(plan, tmp_path)
    load_policy(plan, artifacts, Approach.ATMARL, tmp_path)
    evaluate_episode(plan, artifacts, Approach.ATMARL, seed=3)
    after = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("*.ckpt"))}
    assert before == after


def test_load_policy_sets_what_forward_step_reads(pipeline_result):
    plan, result = pipeline_result
    artifacts = load_pretrain(plan, result.out_dir)
    load_policy(plan, artifacts, Approach.ATMARL, result.out_dir)
    loaded = artifacts.policies[Approach.ATMARL.value]
    _, arrays = load_checkpoint(result.out_dir / "supervisor_atmarl.ckpt")
    for j, cell in enumerate(loaded.gru):
        # the fused z/r gate arrays the forward reads hold the checkpoint's per-gate blocks
        for gate, fused in (("Wz", cell.Wzr[0]), ("Wr", cell.Wzr[1]), ("bz", cell.bzr[0]), ("br", cell.bzr[1])):
            assert fused.tobytes() == arrays[f"policy.gru_l{j}.{gate}"].tobytes(), (j, gate)
    n = len(loaded.agents)
    # load_policy starts from this initialisation and overwrites every block
    fresh = create_policy(np.random.default_rng(0), plan.scenario)
    rows = []
    for policy in (fresh, loaded):
        tape = EpisodeTape(policy, 1)
        tape.start(np.array([0.75, 0.25, 0.25]))
        tape.gammas[0] = np.full((n, GOAL_LEVELS), 0.5)
        tape.tuples[0] = np.full((n, TUPLE_DIM), 0.25)
        for h, value in zip(tape.hidden(0), (0.3, -0.2)):
            h[...] = value
        forward_step(policy, tape, 0)
        rows.append((tape.logits[0], tape.hidden(1)[1]))
    (before_logits, before_h2), (after_logits, after_h2) = rows
    assert not np.array_equal(before_logits, after_logits)
    assert not np.array_equal(before_h2, after_h2)


def test_checkpoint_round_trip_reproduces_trace(tmp_path):
    plan = quick_plan(approaches=(Approach.ATMARL,), seeds=(4,))
    result = run_quick(plan, tmp_path)
    artifacts = load_pretrain(plan, tmp_path)
    load_policy(plan, artifacts, Approach.ATMARL, tmp_path)
    replay = evaluate_episode(plan, artifacts, Approach.ATMARL, seed=4)
    original = result.traces[0]
    assert replay.rows == original.rows


def test_generalization_plan_evaluates_under_other_distribution(tmp_path):
    plan = quick_plan(
        approaches=(Approach.RULE_BASED,),
        seeds=(1,),
        eval_distribution=DistributionSpec.of(DistributionKind.GAUSSIAN),
    )
    result = run_quick(plan, tmp_path)
    trace = result.traces[0]
    kinds = {row[trace.columns.index("dist_kind")] for row in trace.rows}
    assert kinds == {"Gaussian"}


# ---------------------------------------------------------------------------
# evaluation without training-only work


def test_greedy_evaluation_never_reads_the_critic(pipeline_result):
    plan, result = pipeline_result
    artifacts = load_pretrain(plan, result.out_dir)
    rng = np.random.default_rng(60)
    for approach, mode in ((Approach.ATMARL, GoalMode.AGENT_LEVEL), (Approach.GOAL_HALVING, GoalMode.SERVICE_LEVEL)):
        artifacts.policies[approach.value] = create_policy(rng, plan.scenario, mode=mode)
        artifacts.policy_capabilities[approach.value] = artifacts.capabilities
    approaches = (Approach.ATMARL, Approach.GOAL_HALVING)
    before = {(a, s): evaluate_episode(plan, artifacts, a, s).rows for a in approaches for s in plan.seeds}
    for approach in approaches:
        for layer in artifacts.policies[approach.value].critic:
            layer.weights[...] = np.nan
            layer.bias[...] = np.nan
    after = {(a, s): evaluate_episode(plan, artifacts, a, s).rows for a in approaches for s in plan.seeds}
    assert after == before

    class Unreadable(list):
        def __iter__(self):
            raise AssertionError("the critic was read")

    for approach in approaches:
        artifacts.policies[approach.value].critic = Unreadable()
    assert {(a, s): evaluate_episode(plan, artifacts, a, s).rows for a in approaches for s in plan.seeds} == before


def _trace_of(rows):
    columns = ["t", "kpi_a", "kpi_b", "reward", "active", "dist_kind"]
    return EpisodeTrace(columns=columns, rows=rows, approach=Approach.ATMARL, seed=1)


@pytest.mark.parametrize(
    "rows",
    [
        [
            [0, float("nan"), float("inf"), -0.0, 1, "Uniform"],
            [1, float("-inf"), 1e-300, 123456789.0, 0, "Gaussian"],
            [2, 0.1 + 0.2, -1e300, 5e-324, 1, "Gamma"],
            [3, 4.0, 2.0, -1.0, 0, "Uniform"],
        ],
        [],
    ],
    ids=["special-values", "no-rows"],
)
def test_trace_csv_equals_per_value_csv_writer(tmp_path, rows):
    trace = _trace_of(rows)
    trace.to_csv(tmp_path / "got.csv")
    csv_writer_trace(trace, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_emitted_traces_equal_per_value_csv_writer(pipeline_result, tmp_path):
    plan, result = pipeline_result
    for trace in result.traces:
        name = f"trace_{trace.approach.value}_seed{trace.seed}.csv"
        csv_writer_trace(trace, tmp_path / name)
        assert (result.out_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name


# ---------------------------------------------------------------------------
# checkpoints made for another intent count


@pytest.fixture(scope="module")
def five_intent_checkpoints(tmp_path_factory):
    """``pretrain.ckpt`` and ``supervisor_atmarl.ckpt`` of a tiny five-intent plan."""
    out = tmp_path_factory.mktemp("five")
    plan = quick_plan(
        scenario=default_scenario(five_intents=True),
        pretrain_cfg=PretrainConfig(episodes=2, episode_length=2),
        train_cfg=TrainConfig(episodes=1, episode_length=2),
    )
    artifacts = stage_pretrain(plan, out)  # the uncontended five-intent slice clears the reward floor
    stage_train_supervisor(plan, artifacts, Approach.ATMARL, out)
    return out


def test_load_pretrain_rejects_another_intent_count(five_intent_checkpoints):
    with pytest.raises(CheckpointError, match="pretrain.ckpt was made for 5 intents, the plan's scenario has 3"):
        load_pretrain(quick_plan(), five_intent_checkpoints)


def test_load_policy_rejects_another_intent_count(five_intent_checkpoints):
    artifacts = Artifacts(qtables={}, capabilities={})
    with pytest.raises(CheckpointError, match="supervisor_atmarl.ckpt was made for 5 intents, the plan's scenario has 3"):
        load_policy(quick_plan(), artifacts, Approach.ATMARL, five_intent_checkpoints)
    assert artifacts.policies == {}


# ---------------------------------------------------------------------------
# checkpoints of the per-agent and per-head layout


def _per_copy_blocks(arrays):
    """The blocks of the layout before stacked blocks: one per agent or head copy, as ``policy.enc3_l0.W``."""
    out = {}
    for name, arr in arrays.items():
        layer, _, param = name.removeprefix("policy.").partition(".")
        if layer.startswith("enc_"):
            out.update({f"policy.enc{i}{layer[3:]}.{param}": a for i, a in enumerate(arr)})
        elif layer in ("mrg", "head"):
            out.update({f"policy.{layer}{i}.{param}": a for i, a in enumerate(arr)})
        else:
            out[name] = arr
    return out


def test_per_copy_layout_checkpoint_is_refused(pipeline_result, tmp_path):
    plan, result = pipeline_result
    shutil.copy(result.out_dir / "pretrain.ckpt", tmp_path)
    meta, arrays = load_checkpoint(result.out_dir / "supervisor_atmarl.ckpt")
    old = _per_copy_blocks(arrays)
    assert "policy.enc5_l1.b" in old and "policy.head5.W" in old and "policy.enc_l0.W" not in old
    save_checkpoint(tmp_path / "supervisor_atmarl.ckpt", old, meta=meta)
    artifacts = load_pretrain(plan, tmp_path)
    with pytest.raises(ShapeMismatchError, match="policy.enc_l0.W"):
        load_policy(plan, artifacts, Approach.ATMARL, tmp_path)
    assert artifacts.policies == {}
