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
    run_episode,
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
    GoalMode,
    PolicyDims,
    PolicyGoals,
    TUPLE_DIM,
    CapabilityTracker,
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


# a training tape encodes every step; an acting tape's later steps reuse its ring rows' latents
@pytest.mark.parametrize("acting", [False, True], ids=["encode", "reuse-latents"])
@pytest.mark.parametrize("five", [False, True], ids=["3-intents", "5-intents"])
def test_prebuilt_forward_equals_per_step_oracle(five, acting):
    # default dims: forward_step's prebuilt calls against the forward on fresh,
    # concatenated arrays, every written row bit for bit; each step writes the
    # capabilities into a row the episode has not used yet, as PolicyGoals does,
    # and later steps on the ring reuse its rows' latents of fixed capabilities
    cfg = default_scenario(five_intents=five)
    rng = np.random.default_rng(440 + five)
    policy = create_policy(rng, cfg)
    n, steps = len(policy.agents), 12
    tape = EpisodeTape(policy, steps, acting=acting)
    tape.gammas[...] = np.nan
    tape.start(_targets(cfg))
    gammas = rng.uniform(0.0, 1.0, (n, GOAL_LEVELS))
    h1 = h2 = np.zeros(policy.dims.gru)
    for t in range(steps):
        r = t % tape.rows
        if t < tape.rows:
            tape.gamma_rows[t][...] = gammas
        tape.tuple_rows[t][...] = rng.uniform(0.0, 1.0, (n, TUPLE_DIM))
        logits = forward_step(tape, t)
        ref, h1, h2, caches = per_step_forward(policy, gammas, tape.tuples[r], tape.targets[r], h1, h2)
        assert logits.tobytes() == ref.tobytes(), t
        assert tape.latents[r].tobytes() == caches["enc"][-1][2].tobytes(), t
        assert tape.contexts[r].tobytes() == caches["fus"][-1][2].tobytes(), t
        for h, ref_h in zip(tape.hidden(t + 1), (h1, h2)):
            assert h.tobytes() == ref_h.tobytes(), t
    assert not np.isnan(tape.gammas).any()


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("five", [False, True], ids=["3-intents", "5-intents"])
def test_acting_tape_encodes_each_ring_row_once(mode, five):
    # after step 1 both ring rows' capabilities are NaN: a later step that read
    # them would give NaN logits, yet every step's logits are a training
    # tape's, which encodes every step's own copy
    cfg = default_scenario(five_intents=five)
    rng = np.random.default_rng(460 + five)
    policy = create_policy(rng, cfg, mode=mode)
    n, steps = len(policy.agents), 10
    gammas = rng.uniform(0.0, 1.0, (n, GOAL_LEVELS))
    acting, training = EpisodeTape(policy, steps, acting=True), EpisodeTape(policy, steps)
    for tape in (acting, training):
        tape.start(_targets(cfg))
    for t in range(steps):
        if t == 2:
            acting.gammas[...] = np.nan
        tuples = rng.uniform(0.0, 1.0, (n, TUPLE_DIM))
        for tape in (acting, training):
            if t < tape.rows:
                tape.gamma_rows[t][...] = gammas
            tape.tuple_rows[t][...] = tuples
        assert forward_step(acting, t).tobytes() == forward_step(training, t).tobytes(), t
    assert np.isnan(acting.gammas).all()


def test_reused_acting_tape_opens_with_the_bytes_of_a_fresh_one():
    # the ring's rows hold another episode's latents: steps 0 and 1 read their
    # own rows' capabilities and write the bytes of a fresh tape
    cfg, policy = toy_policy(seed=23)
    gammas, tuples, targets = _act_inputs(cfg, policy)
    used = EpisodeTape(policy, 5, acting=True)
    used.start(targets)
    for t in range(5):
        if t < used.rows:
            used.gamma_rows[t][...] = gammas + 0.25
        used.tuple_rows[t][...] = tuples
        forward_step(used, t)
    fresh = EpisodeTape(policy, 5, acting=True)
    old_latents = used.latents.copy()
    for tape in (used, fresh):
        tape.start(targets)
        for t in range(2):
            tape.gamma_rows[t][...], tape.tuple_rows[t][...] = gammas, tuples
            forward_step(tape, t)
    assert used.latents.tobytes() != old_latents.tobytes()

    def rows(tape):
        return [arr for cache in (*tape.enc, tape.mrg, *tape.fus, *tape.gru, tape.head) for arr in cache]

    for got, want in zip(rows(used), rows(fresh)):
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


def _policy_goals(cfg, policy, explore, seed=2, tape=None):
    """A ``PolicyGoals`` of prior capabilities on ``tape`` (else a 10-step one) and the engine's opening observations for it."""
    caps = {a.key: CapabilityVector.prior() for a in policy.agents}
    source = PolicyGoals(tape or EpisodeTape(policy, 10), cfg, caps, np.random.default_rng(seed), explore)
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
    tape, rewards, values = _random_episode(policy, cfg, 12, rng)
    returns = discounted_returns(rewards, DISCOUNT)
    acc, _ = episode_gradients(tape, returns - values, returns, policy.zeros_like())
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


def _max_reward(kpis, services):
    """The reward as ``max(0.0, deviation)`` summed, per service."""
    total = 0.0
    for kpi, svc in zip(kpis, services):
        if svc.kpi_kind is KpiKind.QOE:
            total += max(0.0, (svc.kpi_target - kpi) / svc.kpi_target)
        else:
            total += max(0.0, (kpi - svc.kpi_target) / svc.kpi_target)
    return -total + (1.0 if total == 0.0 else 0.0)


@pytest.mark.parametrize(
    "kpis",
    [
        [np.nan, np.nan, np.nan],
        [4.0, 2.0, 2.0],  # every KPI on its target: zero deviations
        [4.0, -0.0, 0.0],
        [np.inf, -np.inf, np.nan],
        [-np.inf, np.inf, 2.0],
        [4.0 - 1e-15, 2.0 + 1e-15, np.nextafter(2.0, 3.0)],
        [2.0, np.nan, 1.0],
    ],
)
def test_reward_counts_only_positive_deviations_with_the_bits_of_max(kpis):
    services = default_scenario().services
    assert [svc.kpi_target for svc in services] == [4.0, 2.0, 2.0]
    got = supervisor_reward(kpis, services)
    assert np.float64(got).tobytes() == np.float64(_max_reward(kpis, services)).tobytes()


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
    tape = EpisodeTape(policy, T)
    tape.start(np.array([0.75]))
    rewards = []
    for t in range(T):
        tape.gammas[t] = [rng.uniform(0.2, 0.8, GOAL_LEVELS) for _ in range(2)]
        tape.tuples[t] = [rng.uniform(0.0, 1.0, 8) for _ in range(2)]
        forward_step(tape, t)
        tape.sampler.idx[t] = [rng.integers(GOAL_LEVELS) for _ in range(2)]
        rewards.append(float(rng.normal()))
    score_contexts(tape, T)

    returns = discounted_returns(rewards, DISCOUNT)
    advantages = np.array([0.7, -1.2, 0.4])  # fixed constants, as in the update rule

    grads = episode_gradients(tape, advantages, returns, policy.zeros_like())[0].named_params()

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
            plus = episode_loss(policy, tape, T, advantages, returns)
            arr[idx] = orig - h
            minus = episode_loss(policy, tape, T, advantages, returns)
            arr[idx] = orig
            fd[idx] = (plus - minus) / (2 * h)
            it.iternext()
        denom = max(np.linalg.norm(grads[name]), np.linalg.norm(fd), 1e-10)
        err = np.linalg.norm(grads[name] - fd) / denom
        worst = max(worst, err)
        assert err < 1e-3, f"gradient mismatch for {name}: {err:.2e}"
    assert worst < 1e-3


def _random_episode(policy, cfg, steps, rng, tape=None):
    """A scored episode of random leaf inputs and rungs on ``tape`` (else a new one of ``steps`` rows): (tape, rewards, values)."""
    tape = tape or EpisodeTape(policy, steps)
    tape.start(_targets(cfg))
    n = len(policy.agents)
    rewards = []
    for t in range(steps):
        tape.gammas[t] = rng.uniform(0.0, 1.0, (n, GOAL_LEVELS))
        tape.tuples[t] = rng.uniform(0.0, 1.0, (n, 8))
        forward_step(tape, t)
        tape.sampler.idx[t] = rng.integers(0, GOAL_LEVELS, policy.n_heads)
        rewards.append(float(rng.normal()))
    return tape, rewards, score_contexts(tape, steps)


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("steps", [1, 7, 40])
def test_batched_critic_equals_per_step_critic(mode, steps):
    # default dims; the critic over all contexts at once, into the tape's
    # critic rows, bit for bit against one context at a time
    cfg = default_scenario()
    rng = np.random.default_rng(300 + steps)
    policy = create_policy(rng, cfg, mode=mode)
    tape, _, values = _random_episode(policy, cfg, steps, rng)
    assert values.shape == (steps,)
    for t in range(steps):
        value, caches = critic_step(policy, tape.contexts[t])
        assert values[t].tobytes() == np.float64(value).tobytes(), t
        for j, cache in enumerate(caches):
            for part, batched in zip(cache, tape.crit[j]):
                assert batched[t].tobytes() == part.tobytes(), (t, j)


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("steps", [1, 7, 12, 40])
def test_episode_gradients_equal_per_step_oracle(mode, steps):
    # default dims, as trained; the loss terms bit for bit, each gradient
    # (a sum over the steps) within the bound of a reordered sum
    cfg = default_scenario()
    rng = np.random.default_rng(400 + steps)
    policy = create_policy(rng, cfg, mode=mode)
    tape, rewards, values = _random_episode(policy, cfg, steps, rng)
    returns = discounted_returns(rewards, DISCOUNT)
    advantages = returns - values
    if steps > 1:
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    acc, losses = episode_gradients(tape, advantages, returns, policy.zeros_like())
    grads = acc.named_params()
    ref_grads, ref_abs, ref_losses = per_step_episode_gradients(policy, tape, steps, advantages, returns)
    assert list(grads) == list(ref_grads)
    for name in ref_grads:
        assert_reordered_sum(grads[name], ref_grads[name], ref_abs[name], steps, name)
    assert losses == ref_losses


def test_episode_gradients_called_twice_return_the_same_gradients():
    # each call zeroes the accumulator it is given; nothing carries over
    cfg = default_scenario()
    rng = np.random.default_rng(410)
    policy = create_policy(rng, cfg)
    tape, rewards, values = _random_episode(policy, cfg, 12, rng)
    returns = discounted_returns(rewards, DISCOUNT)
    advantages = returns - values
    acc = policy.zeros_like()
    first, first_losses = episode_gradients(tape, advantages, returns, acc)
    first = {name: grad.tobytes() for name, grad in first.named_params().items()}
    second, second_losses = episode_gradients(tape, advantages, returns, acc)
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
    _, rewards, values = _random_episode(policy, cfg, 40, np.random.default_rng(421), tape)
    returns = discounted_returns(rewards, DISCOUNT)
    episode_gradients(tape, returns - values, returns, acc)
    results = []
    for tape_7, acc_7 in ((tape, acc), (_poisoned_tape(policy, 7), policy.zeros_like())):
        _, rewards, values = _random_episode(policy, cfg, 7, np.random.default_rng(422), tape_7)
        returns = discounted_returns(rewards, DISCOUNT)
        grads, losses = episode_gradients(tape_7, returns - values, returns, acc_7)
        results.append((values.tobytes(), losses, {k: g.tobytes() for k, g in grads.named_params().items()}))
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


def _tracker(caps, cfg):
    """A tracker over copies of ``caps``, which a rollout then leaves as they are."""
    return CapabilityTracker({k: _copy_cap(v) for k, v in caps.items()}, cfg)


def test_rollout_both_systems_act_each_step(tiny_system):
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(2)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    tape = EpisodeTape(policy, 12)
    rewards, values = rollout_episode(tape, cfg, qtables, _tracker(caps, cfg), rng)
    assert len(rewards) == 12 and values.shape == (12,)
    # greedy tabular agents acting from the default state must have moved
    # at least one knob in each plane within the first steps of some episode
    # (weak check: the tape recorded actions through its tuples)
    assert tape.tuples[: len(rewards)].shape == (12, 6, 8)


def test_rollout_observes_each_agent_once_per_report(tiny_system, calls_to):
    # one roster pass over the 6 agents at the opening report and after each of the 12 steps
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(2)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    observed = calls_to("observe")
    rollout_episode(EpisodeTape(policy, 12), cfg, qtables, _tracker(caps, cfg), rng)
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
    tape = EpisodeTape(policy, 12)
    rollout_episode(tape, cfg, qtables, _tracker(caps, cfg), rng)
    h1 = h2 = np.zeros(policy.dims.gru)

    def same(row, ref, label):
        assert row.tobytes() == np.ascontiguousarray(ref).tobytes(), label

    for t in range(12):
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
    for h, ref in zip(tape.hidden(12), (h1, h2)):
        same(h, ref, "final hidden")


def test_rollout_flushes_its_tracker(tiny_system):
    # every agent's last assignment is counted into its capabilities by the rollout's end
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(6)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    tracker = _tracker(caps, cfg)
    rollout_episode(EpisodeTape(policy, 7), cfg, qtables, tracker, rng)
    assert tracker._active == {}
    assert any(not np.array_equal(tracker.capabilities[k].rho, caps[k].rho) for k in caps)


def test_rollout_refuses_an_acting_tape_before_its_first_step(tiny_system):
    # nothing drawn and no capability moved: the refusal comes first
    cfg, qtables, caps = tiny_system
    rng = np.random.default_rng(7)
    policy = create_policy(rng, cfg, dims=TOY_DIMS)
    tracker = _tracker(caps, cfg)
    before = rng.bit_generator.state, {k: (v.rho.tobytes(), v.from_data.tobytes()) for k, v in tracker.capabilities.items()}
    with pytest.raises(ValueError, match="acting tape"):
        rollout_episode(EpisodeTape(policy, 12, acting=True), cfg, qtables, tracker, rng)
    after = rng.bit_generator.state, {k: (v.rho.tobytes(), v.from_data.tobytes()) for k, v in tracker.capabilities.items()}
    assert after == before


def test_sampler_rows_keep_the_rungs_act_returned_at_every_step(tiny_system, monkeypatch):
    # a 40-step exploring rollout on a training tape and a 48-step greedy run
    # on an acting tape: once the run is over, the sampler's row t holds the
    # 0-based rungs act returned at step t, so on the acting tape the ring's
    # two logits rows overwrote no earlier step's rungs
    cfg, qtables, caps = tiny_system
    policy = create_policy(np.random.default_rng(440), cfg)
    returned = []
    real_act = supervisor.act

    def recorded(*args):
        returned.append(real_act(*args))
        return returned[-1]

    monkeypatch.setattr(supervisor, "act", recorded)
    rng = np.random.default_rng(441)
    tape = EpisodeTape(policy, 40)
    rollout_episode(tape, cfg, qtables, _tracker(caps, cfg), rng)
    runs = [(tape, list(returned))]
    returned.clear()
    tape = EpisodeTape(policy, 48, acting=True)
    goals = PolicyGoals(tape, cfg, caps, rng, explore=False)
    run_episode(slice_sim.init_scenario(cfg), qtables, goals, rng, 48, lambda *_: None)
    runs.append((tape, returned))
    for tape, levels in runs:
        assert tape.sampler.idx.shape == (tape.length, policy.n_heads)
        assert len(levels) == tape.length
        assert (tape.sampler.idx + 1).tolist() == levels, tape.acting
        # rungs that change between steps two apart, which a ring row would lose
        assert any(levels[t] != levels[t - 2] for t in range(2, tape.length)), tape.acting


@pytest.mark.parametrize("mode", list(GoalMode))
def test_greedy_policy_goals_write_capabilities_into_unused_rows_only(mode):
    # fixed capabilities: a source copies them into each row before the step
    # that first uses it, so rows poisoned after step 1 stay NaN only where a
    # later step reuses its row, on either tape; its rungs are the greedy
    # picks of the logits that encoding every step's own copy gives
    cfg, policy = toy_policy(seed=18, mode=mode)
    for acting in (False, True):
        tape = EpisodeTape(policy, 10, acting=acting)
        source, seen, last_action = _policy_goals(cfg, policy, explore=False, tape=tape)
        ref = EpisodeTape(policy, 10)
        ref.start(tape.targets[0])
        ref.gammas[...] = CapabilityVector.prior().rho
        for t in range(10):
            if t == 2:
                tape.gammas[...] = np.nan
            source(t, seen, last_action)
            ref.tuples[t] = tape.tuple_rows[t]
            assert forward_step(ref, t).tobytes() == tape.logit_rows[t].tobytes(), (acting, t)
            assert [i + 1 for i in ref.sampler.greedy(t).tolist()] == source.levels, (acting, t)
        assert np.isnan(tape.gammas[:2]).all()
        assert not np.isnan(tape.gammas[2:]).any()


@pytest.mark.parametrize("mode", list(GoalMode))
def test_acting_tape_decides_as_a_tape_of_one_row_per_step(mode):
    # two rows used as a ring give every step the rungs, logits and hidden
    # states of a training tape's own row, over an episode longer than the ring
    cfg, policy = toy_policy(seed=21, mode=mode)
    state = slice_sim.init_scenario(cfg)
    members = roster_members(cfg)
    targets = {m.key: cfg.services[m.intent].kpi_target for m in members}
    caps = {a.key: CapabilityVector.prior() for a in policy.agents}
    runs = []
    for acting in (True, False):
        tape = EpisodeTape(policy, 9, acting=acting)
        assert len(tape.logits) == (2 if acting else 9)
        source = PolicyGoals(tape, cfg, caps, np.random.default_rng(4), explore=False)
        rng = np.random.default_rng(5)
        steps = []
        last_action = {m.key: KnobAction.HOLD for m in members}
        for t in range(9):
            report = slice_sim.evaluate_kpis(state, slice_sim.offered_loads(state, rng))
            seen = observe(state, report.kpi.tolist(), report.congestion, members, targets)
            last_action = {key: KnobAction(t % 3) for key in last_action}
            source(t, seen, last_action)
            hidden = tape.hidden(t + 1)
            steps.append((source.levels, tape.logit_rows[t].tobytes(), hidden[0].tobytes(), hidden[1].tobytes()))
        runs.append(steps)
    assert runs[0] == runs[1]


def test_acting_tape_refuses_training():
    cfg, policy = toy_policy(seed=22)
    tape = EpisodeTape(policy, 4, acting=True)
    with pytest.raises(ValueError, match="acting tape"):
        tape.prepare_training()
    with pytest.raises(ValueError, match="acting tape"):
        score_contexts(tape, 4)
    assert tape.crit is None and tape.gru_backward is None


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
