import copy
from dataclasses import replace

import numpy as np
import pytest

from atmarl import slice_sim, supervisor
from atmarl.agents import (
    BOTH_PLANES,
    GOAL_LEVELS,
    CapabilityVector,
    KnobAction,
    PretrainConfig,
    SystemKind,
    estimate_capabilities,
    goal_value,
    normalize_kpi,
    observe,
    pretrain_system,
)
from atmarl.config import default_scenario
from atmarl.errors import TrainingDivergence
from atmarl.nn import OptimizerState, adam_step, stack_forward
from atmarl.slice_sim import KpiKind
from oracles import (
    assert_reordered_sum,
    critic_step,
    episode_loss,
    per_head_act,
    per_step_episode_gradients,
    per_view_gradient_norm,
)
from atmarl.supervisor import (
    DISCOUNT,
    LEARNING_RATE,
    ActorHidden,
    EpisodeTrajectory,
    GoalMode,
    PolicyDims,
    PolicyGoals,
    TrainConfig,
    act,
    create_policy,
    discounted_returns,
    encode_capabilities,
    episode_gradients,
    forward_step,
    fuse,
    gradient_norm,
    merge,
    rollout_episode,
    score_contexts,
    supervisor_reward,
    train_supervisor,
)

TOY_DIMS = PolicyDims(encoder=4, merger=4, fusion=6, gru=6)


def toy_policy(seed=0, mode=GoalMode.AGENT_LEVEL, five=False):
    cfg = default_scenario(five_intents=five)
    rng = np.random.default_rng(seed)
    return cfg, create_policy(rng, cfg, mode=mode, dims=TOY_DIMS)


def zero_policy(policy):
    for arr in policy.named_params().values():
        arr[...] = 0.0
    return policy


# ---------------------------------------------------------------------------
# encode / merge / fuse


def test_encode_zero_params_is_bias_path():
    cfg, policy = toy_policy()
    zero_policy(policy)
    latents, _ = encode_capabilities(policy, np.full((6, GOAL_LEVELS), 0.7))
    np.testing.assert_allclose(latents[0], np.tanh(np.zeros(TOY_DIMS.encoder)))


def test_encode_distinct_agents_distinct_latents():
    cfg, policy = toy_policy(seed=3)
    gamma = np.linspace(0.1, 0.9, GOAL_LEVELS)
    latents, _ = encode_capabilities(policy, np.tile(gamma, (6, 1)))
    assert not np.allclose(latents[0], latents[1])


def test_encode_sensitive_to_capability_change():
    cfg, policy = toy_policy(seed=4)
    gammas = np.full((6, GOAL_LEVELS), 0.5)
    bumped = gammas.copy()
    bumped[0, 3] += 0.1
    a, _ = encode_capabilities(policy, gammas)
    b, _ = encode_capabilities(policy, bumped)
    assert not np.allclose(a[0], b[0])


def test_merge_zero_params_closed_form():
    cfg, policy = toy_policy()
    zero_policy(policy)
    out, _ = merge(policy, np.zeros((6, TOY_DIMS.encoder)), np.zeros((6, 8)))
    np.testing.assert_allclose(out[0], np.zeros(TOY_DIMS.merger))


def test_merge_distinct_agents_distinct_outputs():
    cfg, policy = toy_policy(seed=5)
    latents = np.full((6, TOY_DIMS.encoder), 0.2)
    tuples = np.full((6, 8), 0.3)
    out, _ = merge(policy, latents, tuples)
    assert not np.allclose(out[0], out[1])


def test_merge_sensitive_to_tuple():
    cfg, policy = toy_policy(seed=6)
    latents = np.full((6, TOY_DIMS.encoder), 0.2)
    a, _ = merge(policy, latents, np.zeros((6, 8)))
    b, _ = merge(policy, latents, np.ones((6, 8)) * 0.5)
    assert not np.allclose(a[0], b[0])


def test_fuse_orders_matter():
    cfg, policy = toy_policy(seed=7)
    m1 = np.full(TOY_DIMS.merger, 0.4)
    m2 = np.full(TOY_DIMS.merger, -0.3)
    rest = [np.zeros(TOY_DIMS.merger) for _ in range(4)]
    targets = np.array([0.75, 0.25, 0.25])
    a, _ = fuse(policy, np.array([m1, m2] + rest), targets)
    b, _ = fuse(policy, np.array([m2, m1] + rest), targets)
    assert not np.allclose(a, b)


def test_fuse_zero_closed_form():
    cfg, policy = toy_policy()
    zero_policy(policy)
    out, _ = fuse(policy, np.zeros((6, TOY_DIMS.merger)), np.zeros(3))
    np.testing.assert_allclose(out, np.zeros(TOY_DIMS.fusion))


def test_fuse_sensitive_to_global_targets():
    cfg, policy = toy_policy(seed=8)
    ms = np.full((6, TOY_DIMS.merger), 0.1)
    a, _ = fuse(policy, ms, np.array([0.75, 0.25, 0.25]))
    b, _ = fuse(policy, ms, np.array([0.9, 0.25, 0.25]))
    assert not np.allclose(a, b)


def test_fuse_rejects_wrong_embedding_count():
    cfg, policy = toy_policy()
    with pytest.raises(ValueError):
        fuse(policy, np.zeros((3, TOY_DIMS.merger)), np.zeros(3))


# ---------------------------------------------------------------------------
# act


def _act_inputs(cfg, policy):
    n = len(policy.agents)
    gammas = np.full((n, GOAL_LEVELS), 0.5)
    tuples = np.full((n, 8), 0.25)
    targets = np.array([normalize_kpi(s.kpi_kind, s.kpi_target) for s in cfg.services])
    return gammas, tuples, targets


def test_act_emits_six_goals_for_three_intents():
    cfg, policy = toy_policy(seed=9)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    levels, _ = act(policy, gammas, tuples, targets, ActorHidden.zeros(TOY_DIMS.gru), np.random.default_rng(0), True)
    assert len(levels) == 6
    assert all(isinstance(level, int) and 1 <= level <= GOAL_LEVELS for level in levels)


def test_act_emits_ten_goals_for_five_intents():
    cfg, policy = toy_policy(seed=10, five=True)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    levels, _ = act(policy, gammas, tuples, targets, ActorHidden.zeros(TOY_DIMS.gru), np.random.default_rng(0), True)
    assert len(levels) == 10


def test_act_deterministic_under_seed():
    cfg, policy = toy_policy(seed=11)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    a, _ = act(policy, gammas, tuples, targets, ActorHidden.zeros(TOY_DIMS.gru), np.random.default_rng(3), True)
    b, _ = act(policy, gammas, tuples, targets, ActorHidden.zeros(TOY_DIMS.gru), np.random.default_rng(3), True)
    assert a == b


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("explore", [True, False])
def test_act_equals_per_head_oracle(mode, explore):
    cfg, policy = toy_policy(seed=15, mode=mode)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    hidden = ActorHidden.zeros(TOY_DIMS.gru)
    for tie in (False, True):
        if tie:
            # every head ties at its top rungs; greedy takes the first maximum
            policy.heads.weights[...] = 0.0
            policy.heads.bias[...] = [0.5, 1.0, 0.2, 1.0, 1.0, -0.3, 1.0, 0.0]
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            levels, fwd = act(policy, gammas, tuples, targets, hidden, rng, explore)
            assert levels == per_head_act(fwd.logits, ref_rng, explore)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if tie and not explore:
                assert set(levels) == {2}


def test_act_greedy_rejects_non_finite_logits():
    cfg, policy = toy_policy(seed=16)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    policy.heads.bias[2, 5] = np.nan
    with pytest.raises(FloatingPointError):
        act(policy, gammas, tuples, targets, ActorHidden.zeros(TOY_DIMS.gru), np.random.default_rng(0), False)


def test_hidden_state_evolves_under_constant_context():
    cfg, policy = toy_policy(seed=13)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    hidden = ActorHidden.zeros(TOY_DIMS.gru)
    previous = hidden.h2.copy()
    for _ in range(3):
        fwd = forward_step(policy, gammas, tuples, targets, hidden)
        assert not np.allclose(fwd.hidden.h2, previous)
        previous = fwd.hidden.h2.copy()
        hidden = fwd.hidden


def _policy_goals(cfg, policy, explore, seed=2):
    """A ``PolicyGoals`` and the engine's opening observations for it."""
    caps = {a.key: CapabilityVector.prior() for a in policy.agents}
    source = PolicyGoals(policy, cfg, caps, np.random.default_rng(seed), explore)
    state = slice_sim.init_scenario(cfg)
    report = slice_sim.evaluate_kpis(state, slice_sim.offered_loads(state, None))
    seen = {a.key: observe(state, report, a, cfg.services[a.intent_index].kpi_target) for a in policy.agents}
    return source, seen, {key: KnobAction.HOLD for key in seen}


def test_service_mode_broadcasts_one_level_per_intent():
    cfg, policy = toy_policy(seed=14, mode=GoalMode.SERVICE_LEVEL)
    source, seen, last_action = _policy_goals(cfg, policy, explore=True)
    for t in range(10):
        goals, _ = source(t, seen, last_action)
        assert len(source.levels) == 3
        assert len(goals) == 6
        assert source.agent_levels == source.levels + source.levels
        for k in range(3):
            assert goals[f"priority_{k}"] == goals[f"mbr_{k}"]


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("five", [False, True])
@pytest.mark.parametrize("explore", [True, False])
def test_policy_goals_are_the_goal_values_of_each_agents_head(mode, five, explore):
    cfg, policy = toy_policy(seed=17, mode=mode, five=five)
    source, seen, last_action = _policy_goals(cfg, policy, explore)
    k = cfg.intent_count
    for t in range(10):
        goals, planes = source(t, seen, last_action)
        assert planes == BOTH_PLANES
        levels = source.levels
        assert len(levels) == policy.n_heads
        # head i drives agent i, or in service mode the intent's head drives both planes
        heads = list(range(2 * k)) if mode is GoalMode.AGENT_LEVEL else list(range(k)) * 2
        assert source.agent_levels == [levels[h] for h in heads]
        assert list(goals) == [a.key for a in policy.agents]
        for agent, level in zip(policy.agents, source.agent_levels):
            value = goal_value(cfg.services[agent.intent_index].kpi_kind, level)
            assert goals[agent.key] == value and type(goals[agent.key]) is float


# ---------------------------------------------------------------------------
# parameter names: checkpoints, Adam and gradient clipping address them


def _layer_names(prefixes):
    return [f"{p}.{n}" for p in prefixes for n in ("W", "b")]


def _expected_param_names(n_agents, n_heads):
    gru = [f"gru_l{j}.{n}" for j in range(2) for n in ("Wz", "Wr", "Wn", "bz", "br", "bn")]
    return (
        _layer_names(f"enc{i}_l{j}" for i in range(n_agents) for j in range(2))
        + _layer_names(f"mrg{i}" for i in range(n_agents))
        + _layer_names(f"fus_l{j}" for j in range(3))
        + gru
        + _layer_names(f"head{i}" for i in range(n_heads))
        + _layer_names(f"crit_l{j}" for j in range(2))
    )


@pytest.mark.parametrize("mode,n_heads", [(GoalMode.AGENT_LEVEL, 6), (GoalMode.SERVICE_LEVEL, 3)])
def test_named_params_names_order_and_shapes(mode, n_heads):
    cfg, policy = toy_policy(mode=mode)
    params = policy.named_params()
    assert list(params) == _expected_param_names(6, n_heads)
    d = TOY_DIMS
    fusion_in = 6 * d.merger + 3
    expected = {
        "enc0_l0.W": (d.encoder, GOAL_LEVELS),
        "enc0_l0.b": (d.encoder,),
        "enc5_l1.W": (d.encoder, d.encoder),
        "mrg5.W": (d.merger, d.encoder + 8),
        "mrg5.b": (d.merger,),
        "fus_l0.W": (d.fusion, fusion_in),
        "fus_l2.b": (d.fusion,),
        "gru_l0.Wz": (d.gru, d.fusion + d.gru),
        "gru_l1.bn": (d.gru,),
        f"head{n_heads - 1}.W": (GOAL_LEVELS, d.gru),
        f"head{n_heads - 1}.b": (GOAL_LEVELS,),
        "crit_l0.W": (d.fusion, d.fusion),
        "crit_l1.W": (1, d.fusion),
        "crit_l1.b": (1,),
    }
    for name, shape in expected.items():
        assert params[name].shape == shape, name


@pytest.mark.parametrize(
    "name",
    ["enc3_l0.W", "enc3_l1.b", "mrg3.W", "mrg3.b", "head3.W", "head3.b", "fus_l0.W"]
    + [f"gru_l{j}.{gate}" for j in range(2) for gate in ("Wz", "Wr", "bz", "br")],
)
def test_named_params_write_through_to_forward(name):
    cfg, policy = toy_policy(seed=15)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    # a nonzero hidden state, or the reset gate would multiply zeros
    hidden = ActorHidden(h1=np.full(TOY_DIMS.gru, 0.3), h2=np.full(TOY_DIMS.gru, -0.2))
    before = forward_step(policy, gammas, tuples, targets, hidden)
    policy.named_params()[name][...] += 0.5
    after = forward_step(policy, gammas, tuples, targets, hidden)
    assert not np.array_equal(before.logits, after.logits)


@pytest.mark.parametrize("mode", list(GoalMode))
def test_layer_params_hold_every_parameter_once(mode):
    cfg, policy = toy_policy(mode=mode)
    layers = policy.layer_params()
    views = policy.named_params()
    assert len(layers) == 30
    assert sum(arr.size for arr in layers.values()) == sum(arr.size for arr in views.values())
    for name, view in views.items():
        owners = [key for key, arr in layers.items() if np.shares_memory(arr, view)]
        assert len(owners) == 1, name


@pytest.mark.parametrize("mode", list(GoalMode))
def test_gradient_norm_equals_per_view_oracle(mode):
    # default dims, as trained: each view's squares summed alone, added in checkpoint order
    cfg = default_scenario()
    rng = np.random.default_rng(23)
    policy = create_policy(rng, cfg, mode=mode)
    for _ in range(5):
        grads = policy.zeros_like()
        for g in grads.layer_params().values():
            g[...] = rng.normal(scale=rng.uniform(1e-4, 10.0), size=g.shape)
        assert gradient_norm(grads).tobytes() == per_view_gradient_norm(grads).tobytes()
    traj = _random_trajectory(policy, cfg, 12, rng)
    returns = discounted_returns(traj.rewards, DISCOUNT)
    acc, _ = episode_gradients(policy, traj, returns - traj.values, returns)
    assert gradient_norm(acc).tobytes() == per_view_gradient_norm(acc).tobytes()


@pytest.mark.parametrize("mode", list(GoalMode))
def test_zeros_like_keeps_the_layout_and_shares_nothing(mode):
    cfg, policy = toy_policy(seed=24, mode=mode)
    zeros = policy.zeros_like()
    assert zeros.agents == policy.agents and zeros.mode is policy.mode
    got, want = zeros.named_params(), policy.named_params()
    assert list(got) == list(want)
    for name, arr in got.items():
        assert arr.shape == want[name].shape and not arr.any(), name
        assert not np.shares_memory(arr, want[name]), name


@pytest.mark.parametrize("mode", list(GoalMode))
def test_stacked_update_equals_per_view_update(mode):
    # the clip scaling and Adam are elementwise: updating each stacked layer
    # array gives the bits of updating each agent's and head's view
    cfg, policy = toy_policy(seed=21, mode=mode)
    rng = np.random.default_rng(22)
    by_view, by_layer = copy.deepcopy(policy), copy.deepcopy(policy)
    view_opt, layer_opt = OptimizerState(lr=LEARNING_RATE), OptimizerState(lr=LEARNING_RATE)
    for scale in (0.37, 1.0, 2e-3):
        grads = copy.deepcopy(policy)
        for g in grads.layer_params().values():
            g[...] = rng.normal(scale=rng.uniform(1e-3, 10.0), size=g.shape)
        per_view = copy.deepcopy(grads).named_params()
        stacked = grads.layer_params()
        for g in per_view.values():
            g *= scale
        for g in stacked.values():
            g *= scale
        adam_step(by_view.named_params(), per_view, view_opt)
        adam_step(by_layer.layer_params(), stacked, layer_opt)
    after_views = {k: v.tobytes() for k, v in by_view.named_params().items()}
    assert after_views == {k: v.tobytes() for k, v in by_layer.named_params().items()}
    assert after_views != {k: v.tobytes() for k, v in policy.named_params().items()}


# ---------------------------------------------------------------------------
# supervisor reward


def _report(kpis):
    n = len(kpis)
    return slice_sim.KpiReport(
        kpi=np.array(kpis, dtype=np.float64),
        offered_per_gnb=np.zeros((n, 4)),
        served_per_gnb=np.zeros((n, 4)),
        congestion=0.0,
    )


def test_reward_bonus_when_all_met():
    assert supervisor_reward(_report([4.5, 1.0, 0.5]), default_scenario().services) == 1.0


def test_reward_single_qoe_shortfall():
    assert supervisor_reward(_report([3.6, 1.0, 0.5]), default_scenario().services) == pytest.approx(-0.1)


def test_reward_sums_deviations():
    assert supervisor_reward(_report([2.0, 4.0, 1.0]), default_scenario().services) == pytest.approx(-1.5)


# ---------------------------------------------------------------------------
# end-to-end gradient check (toy episode)


def test_actor_critic_gradients_match_finite_differences():
    # 1 intent -> 2 agents, 3-step episode, tiny dims
    cfg = default_scenario()
    cfg = replace(cfg, services=cfg.services[:1])
    rng = np.random.default_rng(42)
    dims = PolicyDims(encoder=3, merger=3, fusion=4, gru=4)
    policy = create_policy(rng, cfg, dims=dims)

    T = 3
    traj = EpisodeTrajectory(targets=np.array([0.75]))
    hidden = ActorHidden.zeros(dims.gru)
    for t in range(T):
        gammas = np.array([rng.uniform(0.2, 0.8, GOAL_LEVELS) for _ in range(2)])
        tuples = np.array([rng.uniform(0.0, 1.0, 8) for _ in range(2)])
        fwd = forward_step(policy, gammas, tuples, traj.targets, hidden)
        hidden = fwd.hidden
        traj.gammas.append(gammas)
        traj.tuples.append(tuples)
        traj.sampled_levels.append([int(rng.integers(1, GOAL_LEVELS + 1)) for _ in range(2)])
        traj.rewards.append(float(rng.normal()))
        traj.forwards.append(fwd)
    score_contexts(policy, traj)

    returns = discounted_returns(traj.rewards, DISCOUNT)
    advantages = np.array([0.7, -1.2, 0.4])  # fixed constants, as in the update rule

    grads = episode_gradients(policy, traj, advantages, returns)[0].named_params()

    params = policy.named_params()
    h = 1e-5
    worst = 0.0
    for name, arr in params.items():
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            plus = episode_loss(policy, traj, advantages, returns)
            arr[idx] = orig - h
            minus = episode_loss(policy, traj, advantages, returns)
            arr[idx] = orig
            fd[idx] = (plus - minus) / (2 * h)
            it.iternext()
        denom = max(np.linalg.norm(grads[name]), np.linalg.norm(fd), 1e-10)
        err = np.linalg.norm(grads[name] - fd) / denom
        worst = max(worst, err)
        assert err < 1e-3, f"gradient mismatch for {name}: {err:.2e}"
    assert worst < 1e-3


def _random_trajectory(policy, cfg, steps, rng):
    traj = EpisodeTrajectory(targets=np.array([normalize_kpi(s.kpi_kind, s.kpi_target) for s in cfg.services]))
    hidden = ActorHidden.zeros(policy.dims.gru)
    n = len(policy.agents)
    for _ in range(steps):
        gammas = rng.uniform(0.0, 1.0, (n, GOAL_LEVELS))
        tuples = rng.uniform(0.0, 1.0, (n, 8))
        fwd = forward_step(policy, gammas, tuples, traj.targets, hidden)
        hidden = fwd.hidden
        traj.gammas.append(gammas)
        traj.tuples.append(tuples)
        traj.sampled_levels.append(rng.integers(1, GOAL_LEVELS + 1, policy.n_heads).tolist())
        traj.rewards.append(float(rng.normal()))
        traj.forwards.append(fwd)
    score_contexts(policy, traj)
    return traj


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("steps", [1, 7, 40])
def test_batched_critic_equals_per_step_critic(mode, steps):
    # default dims; the critic over all contexts at once, bit for bit against one context at a time
    cfg = default_scenario()
    rng = np.random.default_rng(300 + steps)
    policy = create_policy(rng, cfg, mode=mode)
    traj = _random_trajectory(policy, cfg, steps, rng)
    assert traj.values.shape == (steps,)
    for t, fwd in enumerate(traj.forwards):
        context = fwd.fus_caches[-1][2]
        v, caches = stack_forward(policy.critic, context)
        assert traj.values[t].tobytes() == v[0].tobytes(), t
        assert float(traj.values[t]) == critic_step(policy, context)[0], t
        for j, cache in enumerate(caches):
            for part, batched in zip(cache, traj.crit_caches[j]):
                assert batched[t].tobytes() == part.tobytes(), (t, j)


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("steps", [1, 7, 12, 40])
def test_episode_gradients_equal_per_step_oracle(mode, steps):
    # default dims, as trained; the loss terms bit for bit, each gradient
    # (a sum over the steps) within the bound of a reordered sum
    cfg = default_scenario()
    rng = np.random.default_rng(400 + steps)
    policy = create_policy(rng, cfg, mode=mode)
    traj = _random_trajectory(policy, cfg, steps, rng)
    returns = discounted_returns(traj.rewards, DISCOUNT)
    advantages = returns - traj.values
    if steps > 1:
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    acc, losses = episode_gradients(policy, traj, advantages, returns)
    grads = acc.named_params()
    ref_grads, ref_abs, ref_losses = per_step_episode_gradients(policy, traj, advantages, returns)
    assert list(grads) == list(ref_grads)
    for name in ref_grads:
        assert_reordered_sum(grads[name], ref_grads[name], ref_abs[name], steps, name)
    assert losses == ref_losses


def test_episode_gradients_called_twice_return_the_same_gradients():
    # each call starts from fresh zeroed accumulators; nothing carries over
    cfg = default_scenario()
    rng = np.random.default_rng(410)
    policy = create_policy(rng, cfg)
    traj = _random_trajectory(policy, cfg, 12, rng)
    returns = discounted_returns(traj.rewards, DISCOUNT)
    advantages = returns - traj.values
    first, first_losses = episode_gradients(policy, traj, advantages, returns)
    second, second_losses = episode_gradients(policy, traj, advantages, returns)
    assert first_losses == second_losses
    after = second.named_params()
    for name, grad in first.named_params().items():
        assert grad.tobytes() == after[name].tobytes(), name
        assert not np.shares_memory(grad, after[name]), name


# ---------------------------------------------------------------------------
# training basics


@pytest.fixture(scope="module")
def tiny_system():
    cfg = default_scenario()
    rng = np.random.default_rng(50)
    quick = PretrainConfig(episodes=120, episode_length=12)
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        pri = pretrain_system(SystemKind.PRIORITY, cfg, rng, quick)
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        mbr = pretrain_system(SystemKind.MBR, cfg, rng, quick)
    qtables = {**pri.qtables, **mbr.qtables}
    caps = estimate_capabilities(pri.logs + mbr.logs, cfg)
    return cfg, qtables, caps


def test_train_supervisor_freezes_qtables(tiny_system):
    cfg, qtables, caps = tiny_system
    before = {k: t.values.tobytes() for k, t in qtables.items()}
    rng = np.random.default_rng(1)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    train_supervisor(policy, cfg, qtables, {k: _copy_cap(v) for k, v in caps.items()}, rng,
                     TrainConfig(episodes=4, episode_length=10))
    after = {k: t.values.tobytes() for k, t in qtables.items()}
    assert before == after


def _copy_cap(vec):
    return CapabilityVector(rho=vec.rho.copy(), from_data=vec.from_data.copy())


def test_rollout_both_systems_act_each_step(tiny_system):
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(2)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    traj = rollout_episode(policy, cfg, qtables, caps, rng, episode_length=12, explore=True)
    assert len(traj) == 12
    # greedy tabular agents acting from the default state must have moved
    # at least one knob in each plane within the first steps of some episode
    # (weak check: the trajectory recorded actions through its tuples)
    assert all(len(ts) == 6 for ts in traj.tuples)


def test_rollout_observes_each_agent_once_per_report(tiny_system, calls_to):
    # the opening report and the one after each of the 12 steps, 6 agents each
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(2)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    observed = calls_to("observe")
    rollout_episode(policy, cfg, qtables, caps, rng, episode_length=12, explore=True)
    assert len(observed) == 6 * (12 + 1)


def test_train_supervisor_runs_and_tracks_rewards(tiny_system):
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(3)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    stats = train_supervisor(
        policy, cfg, qtables, {k: _copy_cap(v) for k, v in caps.items()}, rng,
        TrainConfig(episodes=6, episode_length=10),
    )
    assert len(stats.episode_rewards) == 6
    assert all(np.isfinite(r) for r in stats.episode_rewards)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_raises_before_any_update(tiny_system, monkeypatch, bad):
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(4)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    before = {k: v.tobytes() for k, v in policy.named_params().items()}
    real = supervisor.episode_gradients

    def poisoned(*args):
        acc, losses = real(*args)
        acc.named_params()["fus_l1.W"].flat[0] = bad
        return acc, losses

    monkeypatch.setattr(supervisor, "episode_gradients", poisoned)
    with pytest.raises(TrainingDivergence, match="non-finite gradients"):
        train_supervisor(
            policy, cfg, qtables, {k: _copy_cap(v) for k, v in caps.items()}, rng,
            TrainConfig(episodes=1, episode_length=6),
        )
    assert {k: v.tobytes() for k, v in policy.named_params().items()} == before
