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
    roster_members,
)
from atmarl.config import default_scenario
from atmarl.errors import TrainingDivergence
from atmarl.nn import dense_forward, stack_forward
from atmarl.slice_sim import KpiKind
from oracles import (
    assert_reordered_sum,
    critic_step,
    episode_loss,
    per_head_act,
    per_step_episode_gradients,
    per_step_forward,
    per_view_gradient_norm,
)
from atmarl.supervisor import (
    DISCOUNT,
    EpisodeTape,
    EpisodeTrajectory,
    GoalMode,
    PolicyDims,
    PolicyGoals,
    TUPLE_DIM,
    TrainConfig,
    act,
    create_policy,
    discounted_returns,
    episode_gradients,
    forward_step,
    gradient_norm,
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
# encode / merge / fuse, each part run on its rows of a one-step tape


def _targets(cfg):
    return np.array([normalize_kpi(s.kpi_kind, s.kpi_target) for s in cfg.services])


def encode_capabilities(policy, gammas):
    tape = EpisodeTape(policy, 1)
    tape.gammas[0] = gammas
    stack_forward(policy.encoders, tape.enc, 0)
    return tape.latents[0]


def merge(policy, latents, tuples):
    tape = EpisodeTape(policy, 1)
    tape.latents[0] = latents
    tape.tuples[0] = tuples
    x, pre, out = tape.mrg
    return dense_forward(policy.merger, x[0], pre[0], out[0])


def fuse(policy, embeddings, targets, tape=None):
    tape = tape or EpisodeTape(policy, 1)
    tape.start(targets)
    tape.mrg[2][0] = embeddings  # the merger's output rows are the fusion input
    return stack_forward(policy.fusion, tape.fus, 0)


def test_encode_zero_params_is_bias_path():
    cfg, policy = toy_policy()
    zero_policy(policy)
    latents = encode_capabilities(policy, np.full((6, GOAL_LEVELS), 0.7))
    np.testing.assert_allclose(latents[0], np.tanh(np.zeros(TOY_DIMS.encoder)))


def test_encode_distinct_agents_distinct_latents():
    cfg, policy = toy_policy(seed=3)
    gamma = np.linspace(0.1, 0.9, GOAL_LEVELS)
    latents = encode_capabilities(policy, np.tile(gamma, (6, 1)))
    assert not np.allclose(latents[0], latents[1])


def test_encode_sensitive_to_capability_change():
    cfg, policy = toy_policy(seed=4)
    gammas = np.full((6, GOAL_LEVELS), 0.5)
    bumped = gammas.copy()
    bumped[0, 3] += 0.1
    a = encode_capabilities(policy, gammas)
    b = encode_capabilities(policy, bumped)
    assert not np.allclose(a[0], b[0])


def test_merge_zero_params_closed_form():
    cfg, policy = toy_policy()
    zero_policy(policy)
    out = merge(policy, np.zeros((6, TOY_DIMS.encoder)), np.zeros((6, 8)))
    np.testing.assert_allclose(out[0], np.zeros(TOY_DIMS.merger))


def test_merge_distinct_agents_distinct_outputs():
    cfg, policy = toy_policy(seed=5)
    latents = np.full((6, TOY_DIMS.encoder), 0.2)
    tuples = np.full((6, 8), 0.3)
    out = merge(policy, latents, tuples)
    assert not np.allclose(out[0], out[1])


def test_merge_sensitive_to_tuple():
    cfg, policy = toy_policy(seed=6)
    latents = np.full((6, TOY_DIMS.encoder), 0.2)
    a = merge(policy, latents, np.zeros((6, 8)))
    b = merge(policy, latents, np.ones((6, 8)) * 0.5)
    assert not np.allclose(a[0], b[0])


def test_fuse_orders_matter():
    cfg, policy = toy_policy(seed=7)
    m1 = np.full(TOY_DIMS.merger, 0.4)
    m2 = np.full(TOY_DIMS.merger, -0.3)
    rest = [np.zeros(TOY_DIMS.merger) for _ in range(4)]
    targets = np.array([0.75, 0.25, 0.25])
    a = fuse(policy, np.array([m1, m2] + rest), targets)
    b = fuse(policy, np.array([m2, m1] + rest), targets)
    assert not np.allclose(a, b)


def test_fuse_zero_closed_form():
    cfg, policy = toy_policy()
    zero_policy(policy)
    out = fuse(policy, np.zeros((6, TOY_DIMS.merger)), np.zeros(3))
    np.testing.assert_allclose(out, np.zeros(TOY_DIMS.fusion))


def test_fuse_sensitive_to_global_targets():
    cfg, policy = toy_policy(seed=8)
    ms = np.full((6, TOY_DIMS.merger), 0.1)
    a = fuse(policy, ms, np.array([0.75, 0.25, 0.25]))
    b = fuse(policy, ms, np.array([0.9, 0.25, 0.25]))
    assert not np.allclose(a, b)


def test_fuse_rejects_wrong_embedding_count():
    # the rows of a one-intent policy's tape hold 2 embeddings and 1 target
    cfg, policy = toy_policy()
    small = create_policy(np.random.default_rng(0), replace(cfg, services=cfg.services[:1]), dims=TOY_DIMS)
    with pytest.raises(ValueError):
        fuse(policy, np.zeros((2, TOY_DIMS.merger)), np.zeros(1), tape=EpisodeTape(small, 1))


# ---------------------------------------------------------------------------
# act


def _act_inputs(cfg, policy):
    n = len(policy.agents)
    gammas = np.full((n, GOAL_LEVELS), 0.5)
    tuples = np.full((n, 8), 0.25)
    return gammas, tuples, _targets(cfg)


def _one_step_tape(policy, gammas, tuples, targets, hidden=(0.0, 0.0)):
    """A one-step tape holding the leaf inputs and the hidden states step 0 starts from."""
    tape = EpisodeTape(policy, 1)
    tape.start(targets)
    for h, value in zip(tape.hidden(0), hidden):
        h[...] = value
    tape.gammas[0] = gammas
    tape.tuples[0] = tuples
    return tape


def _act(policy, gammas, tuples, targets, rng, explore):
    """``act`` on step 0 of a one-step tape from zero hidden states; returns (levels, tape)."""
    tape = _one_step_tape(policy, gammas, tuples, targets)
    return act(tape, 0, rng, explore), tape


def test_act_emits_six_goals_for_three_intents():
    cfg, policy = toy_policy(seed=9)
    levels, _ = _act(policy, *_act_inputs(cfg, policy), np.random.default_rng(0), True)
    assert len(levels) == 6
    assert all(isinstance(level, int) and 1 <= level <= GOAL_LEVELS for level in levels)


def test_act_emits_ten_goals_for_five_intents():
    cfg, policy = toy_policy(seed=10, five=True)
    levels, _ = _act(policy, *_act_inputs(cfg, policy), np.random.default_rng(0), True)
    assert len(levels) == 10


def test_act_deterministic_under_seed():
    cfg, policy = toy_policy(seed=11)
    inputs = _act_inputs(cfg, policy)
    a, _ = _act(policy, *inputs, np.random.default_rng(3), True)
    b, _ = _act(policy, *inputs, np.random.default_rng(3), True)
    assert a == b


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("explore", [True, False])
def test_act_equals_per_head_oracle(mode, explore):
    cfg, policy = toy_policy(seed=15, mode=mode)
    inputs = _act_inputs(cfg, policy)
    for tie in (False, True):
        if tie:
            # every head ties at its top rungs; greedy takes the first maximum
            policy.heads.weights[...] = 0.0
            policy.heads.bias[...] = [0.5, 1.0, 0.2, 1.0, 1.0, -0.3, 1.0, 0.0]
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            levels, tape = _act(policy, *inputs, rng, explore)
            assert levels == per_head_act(tape.logits[0], ref_rng, explore)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if tie and not explore:
                assert set(levels) == {2}


def test_act_greedy_rejects_non_finite_logits():
    cfg, policy = toy_policy(seed=16)
    policy.heads.bias[2, 5] = np.nan
    with pytest.raises(FloatingPointError):
        _act(policy, *_act_inputs(cfg, policy), np.random.default_rng(0), False)


def test_hidden_state_evolves_under_constant_context():
    cfg, policy = toy_policy(seed=13)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    tape = EpisodeTape(policy, 3)
    tape.start(targets)
    tape.gammas[...] = gammas
    tape.tuples[...] = tuples
    for t in range(3):
        forward_step(tape, t)
        assert not np.allclose(tape.hidden(t + 1)[1], tape.hidden(t)[1])


@pytest.mark.parametrize("encode", [True, False], ids=["encode", "reuse-latents"])
@pytest.mark.parametrize("five", [False, True], ids=["3-intents", "5-intents"])
def test_prebuilt_forward_equals_per_step_oracle(five, encode):
    # default dims: forward_step's prebuilt calls against the forward on fresh,
    # concatenated arrays, every written row bit for bit; without encode,
    # every step after the first reuses step 0's latents of fixed capabilities
    # and reads no capability row (they stay NaN)
    cfg = default_scenario(five_intents=five)
    rng = np.random.default_rng(440 + five)
    policy = create_policy(rng, cfg)
    n, steps = len(policy.agents), 12
    tape = EpisodeTape(policy, steps)
    tape.gammas[...] = np.nan
    tape.start(_targets(cfg))
    gammas = rng.uniform(0.0, 1.0, (n, GOAL_LEVELS))
    h1 = h2 = np.zeros(policy.dims.gru)
    for t in range(steps):
        step_encodes = encode or t == 0
        if step_encodes:
            tape.gammas[t] = gammas
        tape.tuples[t] = rng.uniform(0.0, 1.0, (n, TUPLE_DIM))
        logits = forward_step(tape, t, step_encodes)
        ref, h1, h2, caches = per_step_forward(policy, gammas, tape.tuples[t], tape.targets[t], h1, h2)
        assert logits.tobytes() == ref.tobytes(), t
        assert tape.latents[t].tobytes() == caches["enc"][-1][2].tobytes(), t
        assert tape.contexts[t].tobytes() == caches["fus"][-1][2].tobytes(), t
        for h, ref_h in zip(tape.hidden(t + 1), (h1, h2)):
            assert h.tobytes() == ref_h.tobytes(), t
    assert np.isnan(tape.gammas[1:]).all() != encode


def test_step_0_encodes_its_own_capabilities_even_without_encode():
    # the last row holds another episode's latents: step 0 reads row 0's
    # capabilities, never copies them, and writes the bytes of encoding
    cfg, policy = toy_policy(seed=23)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    used = EpisodeTape(policy, 3)
    used.start(targets)
    for t in range(3):
        used.gammas[t], used.tuples[t] = gammas + 0.25, tuples
        forward_step(used, t)
    fresh = EpisodeTape(policy, 3)
    for tape in (used, fresh):
        tape.start(targets)
        tape.gammas[0], tape.tuples[0] = gammas, tuples
    forward_step(used, 0, False)
    forward_step(fresh, 0)
    assert used.latents[0].tobytes() != used.latents[-1].tobytes()

    def row_0(tape):
        return [tape.logits[0], tape.contexts[0], *tape.hidden(1), *(arr[0] for cache in tape.enc for arr in cache)]

    for got, want in zip(row_0(used), row_0(fresh)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("five", [False, True], ids=["3-intents", "5-intents"])
def test_dot_equals_matmul_on_every_2d_weight_the_calls_use(five):
    # the prebuilt calls run each 2-D matrix-vector product through np.dot, where
    # the per-step code ran np.matmul: the fusion layers and each cell's
    # candidate weight forward, each cell's transposed gate weights in BPTT
    cfg = default_scenario(five_intents=five)
    rng = np.random.default_rng(450 + five)
    policy = create_policy(rng, cfg)
    weights = [layer.weights for layer in policy.fusion] + [cell.Wn for cell in policy.gru]
    weights += [w.T for cell in policy.gru for w in (cell.Wn, cell.Wz, cell.Wr)]
    for w in weights:
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(1e-3, 10.0), size=w.shape[1])
            out = np.empty(w.shape[0])
            np.dot(w, x, out)
            assert out.tobytes() == np.matmul(w, x).tobytes() == np.matmul(w, x[:, None])[:, 0].tobytes()


def _policy_goals(cfg, policy, explore, seed=2):
    """A ``PolicyGoals`` on a 10-step tape and the engine's opening observations for it."""
    caps = {a.key: CapabilityVector.prior() for a in policy.agents}
    source = PolicyGoals(EpisodeTape(policy, 10), cfg, caps, np.random.default_rng(seed), explore)
    state = slice_sim.init_scenario(cfg)
    report = slice_sim.evaluate_kpis(state, slice_sim.offered_loads(state, None))
    members = roster_members(cfg)
    targets = {m.key: cfg.services[m.intent].kpi_target for m in members}
    seen = observe(state, report.kpi.tolist(), report.congestion, members, targets)
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


def _expected_param_shapes(n_heads):
    """The 30 parameter arrays in order; a stacked layer's copies lead its shapes."""
    d, agents = TOY_DIMS, 6
    cat0, cat1 = d.fusion + d.gru, 2 * d.gru
    return {
        "enc_l0.W": (agents, d.encoder, GOAL_LEVELS),
        "enc_l0.b": (agents, d.encoder),
        "enc_l1.W": (agents, d.encoder, d.encoder),
        "enc_l1.b": (agents, d.encoder),
        "mrg.W": (agents, d.merger, d.encoder + 8),
        "mrg.b": (agents, d.merger),
        "fus_l0.W": (d.fusion, agents * d.merger + 3),
        "fus_l0.b": (d.fusion,),
        "fus_l1.W": (d.fusion, d.fusion),
        "fus_l1.b": (d.fusion,),
        "fus_l2.W": (d.fusion, d.fusion),
        "fus_l2.b": (d.fusion,),
        **{f"gru_l0.{gate}": (d.gru, cat0) for gate in ("Wz", "Wr", "Wn")},
        **{f"gru_l0.{gate}": (d.gru,) for gate in ("bz", "br", "bn")},
        **{f"gru_l1.{gate}": (d.gru, cat1) for gate in ("Wz", "Wr", "Wn")},
        **{f"gru_l1.{gate}": (d.gru,) for gate in ("bz", "br", "bn")},
        "head.W": (n_heads, GOAL_LEVELS, d.gru),
        "head.b": (n_heads, GOAL_LEVELS),
        "crit_l0.W": (d.fusion, d.fusion),
        "crit_l0.b": (d.fusion,),
        "crit_l1.W": (1, d.fusion),
        "crit_l1.b": (1,),
    }


@pytest.mark.parametrize("mode,n_heads", [(GoalMode.AGENT_LEVEL, 6), (GoalMode.SERVICE_LEVEL, 3)])
def test_named_params_names_order_and_shapes(mode, n_heads):
    cfg, policy = toy_policy(mode=mode)
    params = policy.named_params()
    assert [(name, arr.shape) for name, arr in params.items()] == list(_expected_param_shapes(n_heads).items())


# a stacked array's case writes only copy 3 of it, agent 3's or head 3's, and is named for that copy
_WRITE_THROUGH = {
    "enc3_l0.W": ("enc_l0.W", 3),
    "enc3_l1.b": ("enc_l1.b", 3),
    "mrg3.W": ("mrg.W", 3),
    "mrg3.b": ("mrg.b", 3),
    "head3.W": ("head.W", 3),
    "head3.b": ("head.b", 3),
    "fus_l0.W": ("fus_l0.W", ...),
    **{f"gru_l{j}.{gate}": (f"gru_l{j}.{gate}", ...) for j in range(2) for gate in ("Wz", "Wr", "bz", "br")},
}


@pytest.mark.parametrize("name", list(_WRITE_THROUGH))
def test_named_params_write_through_to_forward(name):
    cfg, policy = toy_policy(seed=15)
    # a nonzero hidden state, or the reset gate would multiply zeros
    tape = _one_step_tape(policy, *_act_inputs(cfg, policy), hidden=(0.3, -0.2))
    before = forward_step(tape, 0).copy()
    key, index = _WRITE_THROUGH[name]
    policy.named_params()[key][index] += 0.5
    after = forward_step(tape, 0)
    assert not np.array_equal(before, after)


@pytest.mark.parametrize("mode", list(GoalMode))
def test_named_params_are_30_arrays_sharing_no_memory(mode):
    cfg, policy = toy_policy(mode=mode)
    arrays = list(policy.named_params().values())
    assert len(arrays) == 30
    for i, arr in enumerate(arrays):
        for other in arrays[i + 1 :]:
            assert not np.shares_memory(arr, other)
    # and together they hold every parameter of every layer
    dense = [*policy.encoders, policy.merger, *policy.fusion, policy.heads, *policy.critic]
    held = sum(layer.weights.size + layer.bias.size for layer in dense)
    held += sum(cell.Wzr.size + cell.bzr.size + cell.Wn.size + cell.bn.size for cell in policy.gru)
    assert sum(arr.size for arr in arrays) == held


@pytest.mark.parametrize("mode", list(GoalMode))
def test_gradient_norm_equals_per_view_oracle(mode):
    # default dims, as trained: each per-agent or per-head view's squares summed
    # alone, added in the oracle's order. A reordered sum changes the norm's
    # bits in about one draw of ten, so 100 draws catch a changed order
    cfg = default_scenario()
    rng = np.random.default_rng(23)
    policy = create_policy(rng, cfg, mode=mode)
    for _ in range(100):
        grads = policy.zeros_like()
        for g in grads.named_params().values():
            g[...] = rng.normal(scale=rng.uniform(1e-4, 10.0), size=g.shape)
        assert gradient_norm(grads).tobytes() == per_view_gradient_norm(grads).tobytes()
    traj = _random_trajectory(policy, cfg, 12, rng)
    returns = discounted_returns(traj.rewards, DISCOUNT)
    acc, _ = episode_gradients(traj, returns - traj.values, returns, policy.zeros_like())
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


# ---------------------------------------------------------------------------
# supervisor reward


def test_reward_bonus_when_all_met():
    assert supervisor_reward([4.5, 1.0, 0.5], default_scenario().services) == 1.0


def test_reward_single_qoe_shortfall():
    assert supervisor_reward([3.6, 1.0, 0.5], default_scenario().services) == pytest.approx(-0.1)


def test_reward_sums_deviations():
    assert supervisor_reward([2.0, 4.0, 1.0], default_scenario().services) == pytest.approx(-1.5)


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
    traj = EpisodeTrajectory(tape=EpisodeTape(policy, T))
    traj.tape.start(np.array([0.75]))
    for t in range(T):
        traj.tape.gammas[t] = [rng.uniform(0.2, 0.8, GOAL_LEVELS) for _ in range(2)]
        traj.tape.tuples[t] = [rng.uniform(0.0, 1.0, 8) for _ in range(2)]
        forward_step(traj.tape, t)
        traj.sampled_levels.append([int(rng.integers(1, GOAL_LEVELS + 1)) for _ in range(2)])
        traj.rewards.append(float(rng.normal()))
    score_contexts(traj)

    returns = discounted_returns(traj.rewards, DISCOUNT)
    advantages = np.array([0.7, -1.2, 0.4])  # fixed constants, as in the update rule

    grads = episode_gradients(traj, advantages, returns, policy.zeros_like())[0].named_params()

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


def _random_trajectory(policy, cfg, steps, rng, tape=None):
    """A scored trajectory of random leaf inputs, written on ``tape`` (else a new one of ``steps`` rows)."""
    traj = EpisodeTrajectory(tape=tape or EpisodeTape(policy, steps))
    traj.tape.start(_targets(cfg))
    n = len(policy.agents)
    for t in range(steps):
        traj.tape.gammas[t] = rng.uniform(0.0, 1.0, (n, GOAL_LEVELS))
        traj.tape.tuples[t] = rng.uniform(0.0, 1.0, (n, 8))
        forward_step(traj.tape, t)
        traj.sampled_levels.append(rng.integers(1, GOAL_LEVELS + 1, policy.n_heads).tolist())
        traj.rewards.append(float(rng.normal()))
    score_contexts(traj)
    return traj


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("steps", [1, 7, 40])
def test_batched_critic_equals_per_step_critic(mode, steps):
    # default dims; the critic over all contexts at once, into the tape's
    # critic rows, bit for bit against one context at a time
    cfg = default_scenario()
    rng = np.random.default_rng(300 + steps)
    policy = create_policy(rng, cfg, mode=mode)
    traj = _random_trajectory(policy, cfg, steps, rng)
    assert traj.values.shape == (steps,)
    for t in range(steps):
        value, caches = critic_step(policy, traj.tape.contexts[t])
        assert traj.values[t].tobytes() == np.float64(value).tobytes(), t
        for j, cache in enumerate(caches):
            for part, batched in zip(cache, traj.tape.crit[j]):
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

    acc, losses = episode_gradients(traj, advantages, returns, policy.zeros_like())
    grads = acc.named_params()
    ref_grads, ref_abs, ref_losses = per_step_episode_gradients(policy, traj, advantages, returns)
    assert list(grads) == list(ref_grads)
    for name in ref_grads:
        assert_reordered_sum(grads[name], ref_grads[name], ref_abs[name], steps, name)
    assert losses == ref_losses


def test_episode_gradients_called_twice_return_the_same_gradients():
    # each call zeroes the accumulator it is given; nothing carries over
    cfg = default_scenario()
    rng = np.random.default_rng(410)
    policy = create_policy(rng, cfg)
    traj = _random_trajectory(policy, cfg, 12, rng)
    returns = discounted_returns(traj.rewards, DISCOUNT)
    advantages = returns - traj.values
    acc = policy.zeros_like()
    first, first_losses = episode_gradients(traj, advantages, returns, acc)
    first = {name: grad.tobytes() for name, grad in first.named_params().items()}
    second, second_losses = episode_gradients(traj, advantages, returns, acc)
    assert first_losses == second_losses
    assert {name: grad.tobytes() for name, grad in second.named_params().items()} == first


def _poisoned_tape(policy, steps):
    """A tape whose every buffer, its training ones built first, starts as NaN, so a row read before it is written shows."""
    tape = EpisodeTape(policy, steps)
    tape.prepare_training()
    for cache in [*tape.enc, tape.mrg, *tape.fus, *tape.gru, tape.head, *tape.crit]:
        for arr in cache:
            arr.fill(np.nan)
    for program in tape.gru_backward:
        for arr in vars(program.buffers).values():
            arr.fill(np.nan)
    return tape


def test_reused_tape_gives_the_gradients_of_a_fresh_tape():
    # a 40-step episode, then a 7-step one on the same tape and accumulator:
    # the second reads no actor or critic row, and no GRU backward buffer,
    # that the first left behind
    cfg = default_scenario()
    policy = create_policy(np.random.default_rng(420), cfg)
    tape, acc = EpisodeTape(policy, 40), policy.zeros_like()
    traj = _random_trajectory(policy, cfg, 40, np.random.default_rng(421), tape)
    returns = discounted_returns(traj.rewards, DISCOUNT)
    episode_gradients(traj, returns - traj.values, returns, acc)
    results = []
    for tape_7, acc_7 in ((tape, acc), (_poisoned_tape(policy, 7), policy.zeros_like())):
        traj = _random_trajectory(policy, cfg, 7, np.random.default_rng(422), tape_7)
        returns = discounted_returns(traj.rewards, DISCOUNT)
        grads, losses = episode_gradients(traj, returns - traj.values, returns, acc_7)
        results.append((traj.values.tobytes(), losses, {k: g.tobytes() for k, g in grads.named_params().items()}))
    assert results[0] == results[1]
    assert all(np.isfinite(g).all() for g in acc.named_params().values())


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
    traj = rollout_episode(EpisodeTape(policy, 12), cfg, qtables, caps, rng, explore=True)
    assert len(traj) == 12
    # greedy tabular agents acting from the default state must have moved
    # at least one knob in each plane within the first steps of some episode
    # (weak check: the trajectory recorded actions through its tuples)
    assert traj.tape.tuples[: len(traj)].shape == (12, 6, 8)


def test_rollout_observes_each_agent_once_per_report(tiny_system, calls_to):
    # one roster pass over the 6 agents at the opening report and after each of the 12 steps
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(2)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    observed = calls_to("observe")
    rollout_episode(EpisodeTape(policy, 12), cfg, qtables, caps, rng, explore=True)
    assert len(observed) == 12 + 1
    for args in observed:
        assert [m.key for m in args[3]] == [a.key for a in policy.agents]


@pytest.mark.parametrize("mode", list(GoalMode))
def test_rollout_tape_rows_equal_per_step_oracle(tiny_system, mode):
    # default dims: every row a rollout wrote against the forward on fresh,
    # concatenated arrays, with the hidden states each step hands the next
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(430)
    policy = create_policy(rng, cfg, mode=mode)
    traj = rollout_episode(EpisodeTape(policy, 12), cfg, qtables, caps, rng, explore=True)
    tape = traj.tape
    h1 = h2 = np.zeros(policy.dims.gru)

    def same(row, ref, label):
        assert row.tobytes() == np.ascontiguousarray(ref).tobytes(), label

    for t in range(len(traj)):
        for h, ref in zip(tape.hidden(t), (h1, h2)):
            same(h, ref, (t, "hidden"))
        same(tape.targets[t], _targets(cfg), (t, "targets"))
        logits, h1, h2, caches = per_step_forward(policy, tape.gammas[t], tape.tuples[t], tape.targets[t], h1, h2)
        parts = [(f"enc{j}", tape.enc[j], caches["enc"][j]) for j in range(2)]
        parts += [("mrg", tape.mrg, caches["mrg"]), ("head", tape.head, caches["head"])]
        parts += [(f"fus{j}", tape.fus[j], caches["fus"][j]) for j in range(3)]
        for label, rows, ref in parts:
            for row, part in zip(rows, ref):
                same(row[t], part, (t, label))
        for j, (a, zr, a_n, n) in enumerate(tape.gru):
            _, _, ref_a, z, r, ref_a_n, ref_n = caches["gru"][j]
            same(a[t], ref_a, (t, j, "a"))
            same(zr[t], np.stack([z, r]), (t, j, "zr"))
            same(a_n[t], ref_a_n, (t, j, "a_n"))
            same(n[t], ref_n, (t, j, "n"))
        same(tape.logits[t], logits, (t, "logits"))
    for h, ref in zip(tape.hidden(len(traj)), (h1, h2)):
        same(h, ref, "final hidden")


@pytest.mark.parametrize("mode", list(GoalMode))
def test_greedy_policy_goals_encode_step_0_only_with_the_same_logits(mode):
    # fixed capabilities: a greedy source copies them into row 0 only, and its
    # rungs and logits are those of encoding every step's own copy
    cfg, policy = toy_policy(seed=18, mode=mode)
    source, seen, last_action = _policy_goals(cfg, policy, explore=False)
    tape = source.tape
    tape.gammas[...] = np.nan
    levels = []
    for t in range(10):
        source(t, seen, last_action)
        levels.append(source.levels)
    assert not np.isnan(tape.gammas[0]).any() and np.isnan(tape.gammas[1:]).all()
    ref = EpisodeTape(policy, 10)
    ref.start(tape.targets[0])
    ref.gammas[...] = tape.gammas[0]
    ref.tuples[...] = tape.tuples
    for t in range(10):
        forward_step(ref, t)
        assert [i + 1 for i in ref.sampler.greedy(t).tolist()] == levels[t], t
    assert ref.logits.tobytes() == tape.logits.tobytes()
    assert ref.latents.tobytes() == tape.latents.tobytes()


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
