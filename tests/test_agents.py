import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atmarl import slice_sim
from atmarl.agents import (
    ACHIEVEMENT_HORIZON,
    CONGESTION_MAX,
    OBS_BINS,
    AgentId,
    AgentObservation,
    CapabilityVector,
    GOAL_LEVELS,
    KnobAction,
    PretrainConfig,
    QTable,
    SystemKind,
    agent_reward,
    agent_roster,
    apply_action,
    discretize,
    estimate_capabilities,
    goal_achieved,
    goal_value,
    normalize_knob,
    observe,
    pretrain_system,
    select_action,
)
from atmarl.config import default_scenario
from atmarl.errors import ScenarioError
from atmarl.slice_sim import KpiKind, MBR_LEVELS, PRIORITY_LEVELS, init_scenario
from oracles import bin_unit, per_field_discretize

FAST_PRETRAIN = PretrainConfig(episodes=150, episode_length=15)


def fresh_state():
    cfg = default_scenario()
    state = init_scenario(cfg)
    report = slice_sim.evaluate_kpis(state, slice_sim.offered_loads(state, None))
    return cfg, state, report


# ---------------------------------------------------------------------------
# observe


def test_observe_qoe_endpoint_normalizes_to_one():
    cfg, state, report = fresh_state()
    report.kpi[0] = 5.0
    obs = observe(state, report, AgentId(SystemKind.PRIORITY, 0), goal_kpi=4.0)
    assert obs.kpi == pytest.approx(1.0)


def test_observe_zero_packet_loss_normalizes_to_zero():
    cfg, state, report = fresh_state()
    report.kpi[1] = 0.0
    obs = observe(state, report, AgentId(SystemKind.PRIORITY, 1), goal_kpi=2.0)
    assert obs.kpi == pytest.approx(0.0)


def test_observe_congestion_ratio():
    cfg, state, report = fresh_state()
    # 6 + 3 + 3 = 12 Mbps offered across four 10 Mbps gNodeBs
    loads = np.array([6.0, 3.0, 3.0])[:, None] * np.asarray(state.distribution.weights)[None, :]
    report = slice_sim.evaluate_kpis(state, loads)
    obs = observe(state, report, AgentId(SystemKind.MBR, 0), goal_kpi=4.0)
    assert obs.congestion == pytest.approx(12.0 / 40.0)


def test_observe_unknown_agent_rejected():
    cfg, state, report = fresh_state()
    with pytest.raises(ScenarioError):
        observe(state, report, AgentId(SystemKind.PRIORITY, 9), goal_kpi=4.0)


def test_observation_excludes_other_system_knob():
    cfg, state, report = fresh_state()
    probe = AgentId(SystemKind.PRIORITY, 0)
    before = observe(state, report, probe, goal_kpi=4.0)
    state.controls.mbr[0] = 0.5  # other plane's knob
    after = observe(state, report, probe, goal_kpi=4.0)
    assert before == after


def test_observation_fields_bounded():
    cfg, state, report = fresh_state()
    report.kpi[1] = 90.0  # blown packet loss still maps inside the bound
    for agent in agent_roster(cfg):
        obs = observe(state, report, agent, goal_kpi=3.0)
        arr = np.array(obs)
        assert (arr >= 0.0).all() and (arr <= 1.5).all()


# ---------------------------------------------------------------------------
# discretize


def _bin_probes():
    """0, 1, every k/OBS_BINS edge and its two float neighbours, signed zeros, tiny, negative and above-1 values."""
    edges = [k / OBS_BINS for k in range(OBS_BINS + 1)]
    probes = [-np.inf, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.5, 7.0, np.inf]
    for e in edges:
        probes += [float(np.nextafter(e, -np.inf)), e, float(np.nextafter(e, np.inf))]
    return edges, probes


def test_discretize_bins_edges_and_out_of_range_values():
    edges, probes = _bin_probes()
    for k, e in enumerate(edges):
        assert bin_unit(e) == min(k, OBS_BINS - 1)
    for x in probes:
        obs = AgentObservation(kpi=x, knob=x, goal=x, congestion=x * CONGESTION_MAX)
        expected = (bin_unit(x), bin_unit(x), bin_unit(x), bin_unit(x * CONGESTION_MAX / CONGESTION_MAX))
        assert discretize(obs) == expected, x
    assert discretize(AgentObservation(-0.5, -0.5, -0.5, -0.5)) == (0, 0, 0, 0)
    assert discretize(AgentObservation(1.2, 1.2, 1.2, 2.0)) == (OBS_BINS - 1,) * 4


def test_discretize_equals_per_field_reference():
    # each field drawn on its own; congestion also on CONGESTION_MAX's scale, where its edges sit
    _, probes = _bin_probes()
    congestion = probes + [x * CONGESTION_MAX for x in probes]
    rng = np.random.default_rng(7)
    for _ in range(3000):
        obs = AgentObservation(*(probes[i] for i in rng.integers(len(probes), size=3)), congestion[rng.integers(len(congestion))])
        index = discretize(obs)
        assert index == per_field_discretize(obs), obs
        assert all(type(i) is int for i in index), obs


@pytest.mark.parametrize("field", ["kpi", "knob", "goal", "congestion"])
def test_discretize_rejects_nan(field):
    fields = {"kpi": 0.5, "knob": 0.5, "goal": 0.5, "congestion": 0.5, field: float("nan")}
    with pytest.raises(ValueError):
        discretize(AgentObservation(**fields))
    with pytest.raises(ValueError):
        per_field_discretize(AgentObservation(**fields))


# ---------------------------------------------------------------------------
# select_action


def test_select_action_full_exploration_uniform():
    table = QTable.create()
    index = discretize(AgentObservation(0.5, 0.5, 0.5, 0.5))
    rng = np.random.default_rng(0)
    counts = np.zeros(3)
    for _ in range(3000):
        counts[int(select_action(table, index, 1.0, rng))] += 1
    assert (counts > 800).all()


def test_select_action_greedy_argmax():
    table = QTable.create()
    index = discretize(AgentObservation(0.5, 0.5, 0.5, 0.5))
    table.values[index] = np.array([0.1, 0.2, 0.9])
    action = select_action(table, index, 0.0, np.random.default_rng(0))
    assert action is KnobAction.INCREMENT


def test_select_action_tie_breaks_to_hold():
    table = QTable.create()
    index = discretize(AgentObservation(0.2, 0.2, 0.2, 0.2))
    action = select_action(table, index, 0.0, np.random.default_rng(0))
    assert action is KnobAction.HOLD


def _draws_of(epsilon, seed=3):
    """(action, rng after the call, an untouched twin of that rng) for one select_action call."""
    table = QTable.create()
    index = discretize(AgentObservation(0.5, 0.5, 0.5, 0.5))
    table.values[index] = np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(seed)
    return select_action(table, index, epsilon, rng), rng, np.random.default_rng(seed)


def test_select_action_greedy_draws_nothing():
    action, rng, twin = _draws_of(0.0)
    assert action is KnobAction.INCREMENT
    assert rng.bit_generator.state == twin.bit_generator.state


def test_select_action_exploiting_draws_one_uniform():
    # an epsilon below this seed's first uniform draw never explores
    epsilon = np.random.default_rng(3).random() / 2
    action, rng, twin = _draws_of(epsilon)
    twin.random()
    assert action is KnobAction.INCREMENT
    assert rng.bit_generator.state == twin.bit_generator.state


def test_select_action_exploring_draws_uniform_then_action():
    action, rng, twin = _draws_of(1.0)
    twin.random()
    assert int(action) == int(twin.integers(3))
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize(
    "q, expected",
    [
        ([0.0, 0.0, 0.0], KnobAction.HOLD),
        ([1.0, 1.0, 0.0], KnobAction.HOLD),
        ([0.0, 1.0, 1.0], KnobAction.HOLD),
        ([1.0, 0.0, 1.0], KnobAction.DECREMENT),  # first maximum wins
        ([-1.0, -2.0, -1.0], KnobAction.DECREMENT),
        ([0.9, 0.0, 0.5], KnobAction.DECREMENT),
        ([0.5, 0.0, 0.9], KnobAction.INCREMENT),
        ([0.0, np.nextafter(0.5, 0.0), 0.5], KnobAction.INCREMENT),
    ],
)
def test_select_action_greedy_tie_rules(q, expected):
    table = QTable.create()
    index = discretize(AgentObservation(0.3, 0.6, 0.9, 0.4))
    table.values[index] = q
    assert select_action(table, index, 0.0, np.random.default_rng(0)) is expected


# ---------------------------------------------------------------------------
# knob application


@pytest.mark.parametrize(
    "system, start, action",
    [
        (SystemKind.PRIORITY, PRIORITY_LEVELS[0], KnobAction.DECREMENT),
        (SystemKind.PRIORITY, PRIORITY_LEVELS[-1], KnobAction.INCREMENT),
        (SystemKind.MBR, MBR_LEVELS[0], KnobAction.DECREMENT),
        (SystemKind.MBR, MBR_LEVELS[-1], KnobAction.INCREMENT),
    ],
)
def test_apply_action_saturates_at_both_ladder_ends(system, start, action):
    cfg, state, _ = fresh_state()
    knobs = state.controls.priority if system is SystemKind.PRIORITY else state.controls.mbr
    knobs[1] = start
    apply_action(state, AgentId(system, 1), action)
    assert knobs[1] == start
    assert state.controls.priority.dtype == np.int64
    assert state.controls.mbr.dtype == np.float64


@pytest.mark.parametrize(
    "value, rung",
    [(3.0, 2), (5.0, 3), (7.0, 4), (0.75, 0), (2.9, 2), (3.1, 3), (0.0, 0), (12.0, 6)],
)
def test_off_ladder_mbr_resolves_to_first_nearest_rung(value, rung):
    cfg, state, _ = fresh_state()
    agent = AgentId(SystemKind.MBR, 0)
    state.controls.mbr[0] = value
    assert normalize_knob(agent, state) == rung / (len(MBR_LEVELS) - 1)
    apply_action(state, agent, KnobAction.HOLD)
    assert state.controls.mbr[0] == MBR_LEVELS[rung]
    state.controls.mbr[0] = value
    apply_action(state, agent, KnobAction.INCREMENT)
    assert state.controls.mbr[0] == MBR_LEVELS[min(rung + 1, len(MBR_LEVELS) - 1)]
    assert state.controls.mbr.dtype == np.float64


def test_apply_action_saturates_priority_ladder():
    cfg, state, _ = fresh_state()
    agent = AgentId(SystemKind.PRIORITY, 0)
    for _ in range(10):
        apply_action(state, agent, KnobAction.INCREMENT)
    assert state.controls.priority[0] == PRIORITY_LEVELS[-1]
    for _ in range(10):
        apply_action(state, agent, KnobAction.DECREMENT)
    assert state.controls.priority[0] == PRIORITY_LEVELS[0]


@given(moves=st.lists(st.sampled_from([0, 1, 2]), max_size=60))
@settings(max_examples=50, deadline=None)
def test_apply_action_never_leaves_ladders(moves):
    cfg, state, _ = fresh_state()
    pri = AgentId(SystemKind.PRIORITY, 1)
    mbr = AgentId(SystemKind.MBR, 2)
    for m in moves:
        apply_action(state, pri, KnobAction(m))
        apply_action(state, mbr, KnobAction(m))
        assert int(state.controls.priority[1]) in PRIORITY_LEVELS
        assert any(abs(state.controls.mbr[2] - lvl) < 1e-12 for lvl in MBR_LEVELS)


# ---------------------------------------------------------------------------
# agent_reward


def test_reward_zero_at_goal():
    assert agent_reward(4.0, 4.0, KpiKind.QOE) == 0.0


def test_reward_qoe_distance():
    assert agent_reward(3.0, 4.0, KpiKind.QOE) == pytest.approx(-0.25)


def test_reward_pl_satisfied_below_goal():
    assert agent_reward(1.0, 2.0, KpiKind.PACKET_LOSS) == 0.0


def test_reward_pl_excess_penalized():
    assert agent_reward(4.0, 2.0, KpiKind.PACKET_LOSS) < 0.0


# ---------------------------------------------------------------------------
# pretraining


@pytest.fixture(scope="module")
def pretrained():
    cfg = default_scenario()
    rng = np.random.default_rng(123)
    priority = pretrain_system(SystemKind.PRIORITY, cfg, rng, FAST_PRETRAIN)
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        mbr = pretrain_system(SystemKind.MBR, cfg, rng, FAST_PRETRAIN)
    return cfg, priority, mbr


def test_pretrain_log_shape(pretrained):
    cfg, priority, _ = pretrained
    assert len(priority.logs) == FAST_PRETRAIN.episodes * cfg.intent_count


def test_pretrain_log_columns(pretrained):
    _, priority, _ = pretrained
    row = priority.logs[0]
    assert set(row) == {"agent_system", "intent_index", "goal_level", "achieved", "episode", "steps_taken"}


def test_pretrain_priority_reaches_feasible_qoe_goals(pretrained):
    cfg, priority, _ = pretrained
    caps = estimate_capabilities(priority.logs, cfg)
    rho = caps["priority_0"].rho
    feasible = [lvl for lvl in range(1, GOAL_LEVELS + 1) if rho[lvl - 1] >= 0.5]
    assert feasible, "no feasible QoE goal levels learned"
    rng = np.random.default_rng(77)
    agents = [AgentId(SystemKind.PRIORITY, k) for k in range(cfg.intent_count)]
    hits = 0
    episodes = 25
    for _ in range(episodes):
        state = init_scenario(cfg)
        report = slice_sim.evaluate_kpis(state, slice_sim.offered_loads(state, None))
        level = int(rng.choice(feasible))
        goal = goal_value(KpiKind.QOE, level)
        goals = {a.key: goal if a.intent_index == 0 else goal_value(KpiKind.PACKET_LOSS, 2) for a in agents}
        reached = False
        for t in range(10):
            for a in agents:
                obs = observe(state, report, a, goals[a.key])
                action = select_action(priority.qtables[a.key], discretize(obs), 0.0, rng)
                apply_action(state, a, action)
            state, report = slice_sim.step(state, rng)
            if goal_achieved(float(report.kpi[0]), goal, KpiKind.QOE):
                reached = True
                break
        hits += int(reached)
    assert hits / episodes >= 0.8, f"only {hits}/{episodes} evaluation episodes reached the goal"


def test_pretrain_other_system_knobs_frozen():
    # priority training must never move MBR knobs: the sim state each episode
    # starts from defaults and only priority knobs are actuated
    cfg = default_scenario()
    rng = np.random.default_rng(5)
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        res = pretrain_system(SystemKind.PRIORITY, cfg, rng, PretrainConfig(episodes=3, episode_length=5))
    assert set(res.qtables) == {"priority_0", "priority_1", "priority_2"}


def test_pretrain_observes_each_agent_once_per_report(calls_to):
    # one plane's agents, at the opening report and after each of the 5 steps
    cfg = default_scenario()
    observed = calls_to("observe")
    pretrain_system(SystemKind.MBR, cfg, np.random.default_rng(9), PretrainConfig(episodes=4, episode_length=5))
    assert len(observed) == 4 * cfg.intent_count * (5 + 1)


def test_pretrain_bins_each_observation_once(calls_to):
    # per agent and episode: the opening observation, acted on against the
    # new goal, and each step's next observation, binned for the TD target
    # and acted on from that index the step after; greedy and exploring
    # steps alike (epsilon anneals from 1 here)
    cfg = default_scenario()
    binned = calls_to("discretize")
    pretrain_system(SystemKind.MBR, cfg, np.random.default_rng(9), PretrainConfig(episodes=4, episode_length=5))
    assert len(binned) == 4 * cfg.intent_count * (5 + 1)


def test_pretrain_deterministic():
    cfg = default_scenario()
    quick = PretrainConfig(episodes=5, episode_length=5)
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        a = pretrain_system(SystemKind.MBR, cfg, np.random.default_rng(9), quick)
    with pytest.warns(UserWarning, match="pretraining mean reward"):
        b = pretrain_system(SystemKind.MBR, cfg, np.random.default_rng(9), quick)
    for key in a.qtables:
        assert a.qtables[key].values.tobytes() == b.qtables[key].values.tobytes()


# ---------------------------------------------------------------------------
# capability estimation


def _log_row(level, achieved, system="Priority", intent=0):
    return {
        "agent_system": system,
        "intent_index": intent,
        "goal_level": level,
        "achieved": int(achieved),
        "episode": 0,
        "steps_taken": 1 if achieved else 20,
    }


def test_capabilities_counting():
    cfg = default_scenario()
    logs = [_log_row(3, True)] * 7 + [_log_row(3, False)] * 3
    caps = estimate_capabilities(logs, cfg)
    assert caps["priority_0"].rho[2] == pytest.approx(0.7)
    assert caps["priority_0"].from_data[2]


def test_capabilities_zero_successes():
    cfg = default_scenario()
    caps = estimate_capabilities([_log_row(5, False)] * 4, cfg)
    assert caps["priority_0"].rho[4] == 0.0


def test_capabilities_missing_pair_gets_prior_and_flag():
    cfg = default_scenario()
    caps = estimate_capabilities([_log_row(1, True)], cfg)
    assert caps["priority_0"].rho[7] == 0.5
    assert not caps["priority_0"].from_data[7]
    assert not caps["mbr_2"].from_data.any()


def test_capabilities_skip_rows_outside_the_roster():
    # a 5-intent log row (intent 4) fed to the 3-intent scenario
    caps = estimate_capabilities([_log_row(3, True, intent=4)], default_scenario())
    assert "priority_4" not in caps
    assert not any(vec.from_data.any() for vec in caps.values())


@given(outcomes=st.lists(st.booleans(), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_capability_ema_stays_in_unit_interval(outcomes):
    vec = CapabilityVector.prior()
    for outcome in outcomes:
        vec.ema_update(4, outcome)
        assert 0.0 <= vec.rho[3] <= 1.0
