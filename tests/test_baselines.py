import numpy as np
import pytest

from atmarl.agents import CapabilityVector, SystemKind, agent_roster, observe
from atmarl.baselines import goal_halving, naive_parallel_goals, rule_based_select
from atmarl.config import default_scenario
from atmarl.slice_sim import evaluate_kpis, init_scenario, offered_loads
from atmarl.supervisor import EpisodeTape, GoalMode, PolicyDims, PolicyGoals, create_policy


def test_rule_based_first_window_is_priority():
    for t in range(5):
        assert rule_based_select(t) is SystemKind.PRIORITY


def test_rule_based_second_window_is_mbr():
    assert rule_based_select(7) is SystemKind.MBR


def test_rule_based_rejects_bad_args():
    with pytest.raises(ValueError):
        rule_based_select(-1)


def test_naive_parallel_broadcasts_targets():
    cfg = default_scenario()
    goals = naive_parallel_goals(cfg)
    assert goals["priority_0"] == 4.0
    assert goals["mbr_0"] == 4.0
    assert len(goals) == 6
    for agent in agent_roster(cfg):
        target = cfg.services[agent.intent_index].kpi_target
        assert goals[agent.key] == target


def test_naive_parallel_constant_over_time():
    cfg = default_scenario()
    a = naive_parallel_goals(cfg)
    b = naive_parallel_goals(cfg)
    assert a == b


def test_goal_halving_splits_equally():
    cfg = default_scenario()
    intermediate = {a.key: 3.0 if a.intent_index == 0 else 2.0 for a in agent_roster(cfg)}
    halved = goal_halving(intermediate)
    assert halved["priority_0"] == 1.5
    assert halved["mbr_0"] == 1.5
    assert halved["priority_1"] == 1.0
    assert halved["mbr_1"] == 1.0


def test_goal_halving_zero_goal():
    cfg = default_scenario()
    halved = goal_halving({a.key: 0.0 for a in agent_roster(cfg)})
    assert all(v == 0.0 for v in halved.values())


def test_goal_halving_pair_sums_to_intermediate():
    cfg = default_scenario()
    intermediate = {a.key: 4.4 if a.intent_index == 0 else 1.8 for a in agent_roster(cfg)}
    halved = goal_halving(intermediate)
    for k in range(cfg.intent_count):
        pri = halved[f"priority_{k}"]
        mbr = halved[f"mbr_{k}"]
        assert pri == mbr
        assert pri + mbr == pytest.approx(intermediate[f"priority_{k}"])


def roster_goal_halving(intermediate, config):
    """Goal halving that walks a freshly built roster; ``goal_halving`` must give the same values, keys in the same order."""
    return {agent.key: intermediate[agent.key] / 2.0 for agent in agent_roster(config)}


@pytest.mark.parametrize("mode", list(GoalMode))
@pytest.mark.parametrize("five", [False, True])
def test_goal_halving_equals_roster_reference(mode, five):
    # the supervisor's goals in either goal mode, exploring so the rungs vary, as evaluation halves them
    cfg = default_scenario(five_intents=five)
    rng = np.random.default_rng(31)
    policy = create_policy(rng, cfg, mode=mode, dims=PolicyDims(encoder=2, merger=2, fusion=2, gru=2))
    caps = {a.key: CapabilityVector.prior() for a in agent_roster(cfg)}
    source = PolicyGoals(policy, cfg, caps, rng, explore=True, tape=EpisodeTape(policy, 20))
    state = init_scenario(cfg)
    report = evaluate_kpis(state, offered_loads(state, None))
    seen = {a.key: observe(state, report, a, cfg.services[a.intent_index].kpi_target) for a in agent_roster(cfg)}
    last_action = {key: 1 for key in seen}
    for t in range(20):
        intermediate, _ = source(t, seen, last_action)
        halved = goal_halving(intermediate)
        expected = roster_goal_halving(intermediate, cfg)
        assert list(halved.items()) == list(expected.items())

